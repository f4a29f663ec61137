"""Shared fixtures: the Van der Pol demo pipeline and random-expression helpers."""

from __future__ import annotations

import numpy as np
import pytest

from sparsefl.control import synthesize
from sparsefl.dictionary import LibrarySpec, _values, build_dictionaries
from sparsefl.dynamics import ControlAffineSystem, integrate, sine_sum_input, vdp_system
from sparsefl.lie import relative_degree
from sparsefl.regression import RegressionConfig, _design_rows, solve
from sparsefl.symexpr import Expression, Term

# Default excitation of the demo pipeline: three incommensurate sinusoids.
EXCITATION_FREQS = (2.8284271247461903, 5.196152422706632, 8.94427190999916)
EXCITATION_PHASES = (0.0, 0.7, 1.9)


def default_excitation():
    return sine_sum_input([1.0, 1.0, 1.0], EXCITATION_FREQS, EXCITATION_PHASES)


def weak_input_dataset(gain: float):
    """100 samples of the excited Van der Pol drift with input gain ``gain`` on x2."""
    vdp = vdp_system(1.0, 1.0, 1.0)
    weak = ControlAffineSystem(vdp.f, (Expression.zero(2), Expression.constant(gain, 2)), vdp.c, 2)
    return integrate(weak, [2.0, 0.0], default_excitation(), 0.01, 99)


def state_design(ds, d):
    """The rows the regression factors, [theta_f | theta_f * u], formed by its own helpers."""
    out = np.empty((d.m, ds.p_x + ds.p_u))
    _design_rows(_values(ds, d)[0], d.U, out)
    return out


@pytest.fixture(scope="session")
def vdp():
    return vdp_system(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def vdp_dataset(vdp):
    """100 clean samples of the excited Van der Pol oscillator."""
    return integrate(vdp, [2.0, 0.0], default_excitation(), 0.01, 99)


@pytest.fixture(scope="session")
def vdp_dictionaries(vdp_dataset):
    return build_dictionaries(LibrarySpec(), vdp_dataset)


@pytest.fixture(scope="session")
def vdp_model(vdp_dictionaries, vdp_dataset):
    return solve(vdp_dictionaries, vdp_dataset, RegressionConfig())


@pytest.fixture(scope="session")
def vdp_chain(vdp_model):
    return relative_degree(vdp_model.system())


@pytest.fixture(scope="session")
def vdp_controller(vdp_chain):
    return synthesize(vdp_chain, gains=[5.0, 4.0])


def make_random_expression(
    rng: np.random.Generator,
    n_states: int = 2,
    max_terms: int = 4,
    max_degree: int = 4,
    max_trig_freq: int = 2,
) -> Expression:
    """Random expression in the dictionary function class, reproducible by seed."""
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        coeff = float(rng.uniform(-5.0, 5.0))
        if abs(coeff) < 1e-3:
            coeff = 1.0
        budget = int(rng.integers(0, max_degree + 1))
        exps = [0] * n_states
        for _ in range(budget):
            exps[rng.integers(0, n_states)] += 1
        atoms = []
        for _ in range(int(rng.integers(0, 3))):
            kind = "sin" if rng.random() < 0.5 else "cos"
            freq = int(rng.integers(1, max_trig_freq + 1))
            var = int(rng.integers(0, n_states))
            atoms.append((kind, freq, var))
        terms.append(Term(coeff, tuple(exps), tuple(atoms)))
    return Expression(tuple(terms), n_states)
