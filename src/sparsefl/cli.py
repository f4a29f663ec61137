"""Command-line front end: simulate -> identify -> analyze -> synthesize -> close the loop.

Subcommands
-----------
defaults      print the default JSON config (reproduces the built-in Van der
              Pol demo end to end)
simulate      integrate the configured plant under the excitation input and
              write dataset.csv
identify      run the dictionary build and joint sparse regression on a
              dataset; write model.json, coefficients.csv, identify_report.txt
lie           compute the Lie chain / relative degree of a model; write
              lie.json and lie_report.txt
synthesize    build the tracking controller from a model; write controller.json
closedloop    simulate the true plant under a saved controller; write
              trajectory.csv
pipeline      run all stages and write a summary

Exit codes: 0 success, 2 config error, 3 identification infeasible,
4 divergence, 5 relative-degree failure. A library warning (unstable gains,
too few samples) is one ``warning: <message>`` line on stderr, also under
-W error; other warning categories keep the interpreter's filters.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import numpy as np

from . import control, data, dictionary, dynamics, lie, regression
from .control import ControlSingularityError, ReferenceSignal
from .data import DatasetError
from .dictionary import LibrarySpec, integer, real
from .dynamics import ControlAffineSystem, DivergenceError
from .lie import RelativeDegreeError
from .regression import RegressionConfig, RegressionError, SparseModel

__all__ = ["main", "default_config", "PipelineConfig", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IDENTIFICATION = 3
EXIT_DIVERGENCE = 4
EXIT_RELATIVE_DEGREE = 5


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


# Default configuration: reproduces the built-in Van der Pol demo
# (identification from 100 clean samples, lambda = 0.05, gains [5, 4]).
_DEFAULT_CONFIG = {
    "system": {"name": "vdp", "theta": 1.0, "sigma": 1.0, "mu": 1.0},
    "simulation": {"x0": [2.0, 0.0], "dt": 0.01, "steps": 99},
    "excitation": {
        "kind": "sine_sum",
        "amplitudes": [1.0, 1.0, 1.0],
        "frequencies": [2.8284271247461903, 5.196152422706632, 8.94427190999916],
        "phases": [0.0, 0.7, 1.9],
        "rate": 1.0,  # chirp only
    },
    "library": asdict(LibrarySpec()),
    "regression": {"lambda" if k == "lam" else k: v for k, v in asdict(RegressionConfig()).items()},
    "controller": {"gains": [5.0, 4.0], "poles": None},
    "stabilization": {
        "x0": [2.0, 0.0],
        "dt": 0.01,
        "steps": 1000,
        "reference": {"kind": "zero", "amplitude": 0.0, "frequency": 1.0, "phase": 0.0},
    },
    "tracking": {
        "x0": [2.0, 0.0],
        "dt": 0.01,
        "steps": 2000,
        "reference": {"kind": "sinusoid", "amplitude": 1.0, "frequency": 1.0, "phase": 0.0},
    },
    "seed": 0,
    "out_dir": "out",
}


def default_config() -> dict:
    return copy.deepcopy(_DEFAULT_CONFIG)


def _check_keys(section: dict, allowed: dict, path: str) -> None:
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key {path + key!r}")
        sub = allowed[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path + key!r} must be an object")
            _check_keys(value, sub, path + key + ".")
        elif isinstance(value, dict):
            raise ConfigError(f"config key {path + key!r} must not be an object")


class PipelineConfig:
    """Every config section, merged over the defaults and built into typed values.

    ``library`` and ``regression`` are the keywords of :class:`LibrarySpec` and
    :class:`RegressionConfig` (``lambda`` is ``lam``). Any bad value or JSON type (a string
    flag, a fractional ``steps`` or ``seed``) is a :class:`ConfigError` before a stage runs.
    """

    def __init__(self, raw: dict):
        merged = default_config()
        _check_keys(raw, _DEFAULT_CONFIG, "")
        for key, value in raw.items():
            if isinstance(value, dict):
                merged[key].update(value)
            else:
                merged[key] = value
        try:
            self.system = self._build_system(merged["system"])
            self.simulation = self._build_run(merged["simulation"])
            self.excitation = self._build_excitation(merged["excitation"])
            self.library = LibrarySpec(**merged["library"])
            reg = {"lam" if k == "lambda" else k: v for k, v in merged["regression"].items()}
            self.regression = RegressionConfig(**reg)
            self.gains, self.poles = self._build_controller(merged["controller"])
            self.scenarios = {
                name: (
                    *self._build_run(merged[name]),
                    self._build_reference(merged[name]["reference"]),
                )
                for name in ("stabilization", "tracking")
            }
            self.seed = integer(merged["seed"], "seed")
            self.out_dir = Path(merged["out_dir"])
        except (ValueError, LookupError, TypeError, OverflowError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    @staticmethod
    def _build_system(section: dict) -> ControlAffineSystem:
        name = section["name"]
        if name == "vdp":
            return dynamics.vdp_system(
                *(real(section[k], f"system.{k}") for k in ("theta", "sigma", "mu"))
            )
        if name == "chain3":
            return dynamics.chain_integrator_system(3)
        raise ConfigError(f"unknown system {name!r} (available: vdp, chain3)")

    def _build_run(self, section: dict) -> tuple[np.ndarray, float, int]:
        dt, steps = real(section["dt"], "dt"), section["steps"]
        return dynamics.check_run(self.system.n, section["x0"], dt, steps), dt, steps

    @staticmethod
    def _build_excitation(section: dict) -> Callable[[float, np.ndarray], float]:
        kind = section["kind"]
        for key in ("amplitudes", "frequencies", "phases"):
            if not isinstance(section[key], list):
                raise ConfigError(f"excitation.{key} must be a list, got {section[key]!r}")
        amps, freqs, phases = (
            [real(v, f"excitation.{key}") for v in section[key]]
            for key in ("amplitudes", "frequencies", "phases")
        )
        if kind == "sine_sum":
            return dynamics.sine_sum_input(amps, freqs, phases)
        if kind == "chirp":
            for key in ("amplitudes", "frequencies"):
                if not section[key]:
                    raise ConfigError(f"excitation.{key} must not be empty for a chirp excitation")
            return dynamics.chirp_input(amps[0], freqs[0], real(section["rate"], "excitation.rate"))
        raise ConfigError(f"unknown excitation kind {kind!r} (available: sine_sum, chirp)")

    @staticmethod
    def _build_controller(section: dict) -> tuple[tuple | None, tuple | None]:
        """``(gains, poles)`` with exactly one set; ``poles`` wins when both are."""
        gains, poles = section["gains"], section["poles"]
        for key, value in (("gains", gains), ("poles", poles)):
            if value is not None and not isinstance(value, list):
                raise ConfigError(f"controller.{key} must be a list, got {value!r}")
        if poles is not None:
            gains = None
            poles = tuple(
                complex(*(real(v, "controller.poles") for v in p))
                if isinstance(p, list) and len(p) == 2
                else complex(real(p, "controller.poles"))
                for p in poles
            )
        elif gains is not None:
            gains = tuple(real(a, "controller.gains") for a in gains)
        else:
            raise ConfigError("controller section must set gains or poles")
        if not (gains or poles):
            raise ConfigError("controller gains and poles must not be empty")
        return gains, poles

    @staticmethod
    def _build_reference(section: dict) -> ReferenceSignal:
        kind = section.get("kind", "zero")
        if kind == "zero":
            return control.zero_reference()
        if kind == "constant":
            amplitude = real(section.get("amplitude", 0.0), "reference.amplitude")
            return control.constant_reference(amplitude)
        if kind == "sinusoid":
            return control.sinusoid_reference(*(
                real(section.get(key, default), f"reference.{key}")
                for key, default in (("amplitude", 1.0), ("frequency", 1.0), ("phase", 0.0))
            ))
        raise ConfigError(f"unknown reference kind {kind!r}")


def _finite_object(pairs: list) -> dict:
    """``object_pairs_hook`` that rejects a NaN, an Infinity or a literal like 1e400."""

    def non_finite(value) -> bool:
        if isinstance(value, list):
            return any(map(non_finite, value))
        return isinstance(value, float) and not math.isfinite(value)

    for key, value in pairs:
        if non_finite(value):
            raise ValueError(f"{key!r} holds a non-finite number")
    return dict(pairs)


def _load_json(path: str | Path, what: str, build=dict):
    """Read ``path`` as a JSON object of finite numbers and ``build`` it.

    Every failure is a :class:`ConfigError` that names ``what`` and ``path``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=_finite_object)
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        return build(payload)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # bad JSON and UTF-8 too
        raise ConfigError(f"{what} {path} is corrupted: {exc}") from None


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    _check_keys(raw, _DEFAULT_CONFIG, "")  # the flags write into sections: they must be objects
    if getattr(args, "lam", None) is not None:
        raw.setdefault("regression", {})["lambda"] = args.lam
    if getattr(args, "gains", None) is not None:
        raw.setdefault("controller", {})["gains"] = _parse_number_list(args.gains)
        raw["controller"]["poles"] = None
    if getattr(args, "poles", None) is not None:
        raw.setdefault("controller", {})["poles"] = _parse_number_list(args.poles)
        raw["controller"]["gains"] = None
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        raw["out_dir"] = args.out
    return raw


def _parse_number_list(text: str) -> list:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(float(piece))
        except ValueError:
            try:
                z = complex(piece.replace(" ", ""))
            except ValueError:
                raise ConfigError(f"cannot parse number {piece!r}") from None
            out.append([z.real, z.imag])
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_dataset(path: Path) -> data.Dataset:
    try:
        return data.load_csv(path)
    except FileNotFoundError:
        raise ConfigError(f"dataset file not found: {path}") from None
    except DatasetError as exc:
        raise ConfigError(f"identify stage input is corrupted: {exc}") from None


def _read_model(path: Path) -> ControlAffineSystem:
    return _load_json(path, "model stage input", regression.system_from_dict)


# -- stages ---------------------------------------------------------------------
#
# Each stage takes the previous stage's result and returns its own, so the
# pipeline hands results on in memory; the subcommands read them from the
# files an earlier stage wrote. Both routes write the same bytes, because
# every float is written with repr and read back exactly.


def cmd_simulate(cfg: PipelineConfig, out_dir: Path) -> data.Dataset:
    """Integrate the plant under the excitation; write dataset.csv and return it."""
    x0, dt, steps = cfg.simulation
    ds = dynamics.integrate(cfg.system, x0, cfg.excitation, dt, steps)
    data.save_csv(ds, out_dir / "dataset.csv")
    return ds


def cmd_identify(d: data.Dataset, cfg: PipelineConfig, out_dir: Path) -> SparseModel:
    derivative_note = "measured derivatives"
    if d.Xdot is None:
        d = data.estimate_derivatives(d)
        derivative_note = "derivatives estimated by second-order finite differences"
    ds = dictionary.build_dictionaries(cfg.library, d)
    model = regression.solve(ds, d, cfg.regression)

    _write_json(out_dir / "model.json", regression.model_to_dict(model))
    labels, rows, columns = regression.coefficient_table(model)
    data.write_csv(
        out_dir / "coefficients.csv",
        ["entry"] + columns,
        ([lab] + row for lab, row in zip(labels, rows)),
    )

    lines = ["Identified model", "=" * 40, f"[{derivative_note}]", ""]
    lines += ["Discovered equations after applying the threshold:"]
    lines += ["  " + eq for eq in regression.discovered_equations(model)]
    lines += ["", "Coefficient table:", regression.format_coefficient_table(model)]
    lines += ["", "Diagnostics:"]
    for key, value in model.diagnostics.to_dict().items():
        lines.append(f"  {key}: {value}")
    (out_dir / "identify_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return model


def cmd_lie(chain: lie.LieChain, out_dir: Path) -> lie.LieChain:
    """Write a model's Lie chain to lie.json and lie_report.txt; return it if it has a degree."""
    n = chain.n_states
    payload = {
        "relative_degree": chain.relative_degree,
        "n_states": n,
        "lf_powers": [str(e) for e in chain.lf_powers],
        "lg_mixed": [str(e) for e in chain.lg_mixed],
    }
    from .symexpr import format_expression as fmt

    lines = ["Lie derivative chain", "=" * 40]
    for k, e in enumerate(chain.lf_powers):
        lines.append(f"Lf^{k} c = {fmt(e, digits=6)}")
    for k, e in enumerate(chain.lg_mixed):
        lines.append(f"Lg Lf^{k} c = {fmt(e, digits=6)}")
    if chain.relative_degree is None:
        lines.append("relative degree: undefined")
    else:
        lines.append(f"relative degree: {chain.relative_degree} (state dimension {n})")
        if chain.relative_degree == n:
            coords = chain.lf_powers[:n]
            payload["normal_form"] = [str(e) for e in coords]
            lines.append("normal-form coordinates:")
            for i, e in enumerate(coords):
                lines.append(f"  z{i + 1} = {fmt(e, digits=6)}")
            lines.append("transformed dynamics:")
            for i in range(n - 1):
                lines.append(f"  dz{i + 1}/dt = z{i + 2}")
            lines.append(
                f"  dz{n}/dt = {fmt(chain.lf_powers[n], digits=6)}"
                f" + ({fmt(chain.lg_mixed[n - 1], digits=6)})*u"
            )
            lines.append("  y = z1")
    _write_json(out_dir / "lie.json", payload)
    (out_dir / "lie_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if chain.relative_degree is None:
        raise RelativeDegreeError("relative degree undefined for the identified model")
    return chain


def cmd_synthesize(
    chain: lie.LieChain, cfg: PipelineConfig, out_dir: Path
) -> control.ControllerSpec:
    spec = control.synthesize(chain, gains=cfg.gains, poles=cfg.poles)
    _write_json(out_dir / "controller.json", spec.to_dict())
    return spec


def cmd_closedloop(
    spec: control.ControllerSpec, cfg: PipelineConfig, out_dir: Path, scenario: str
) -> data.Dataset:
    """Run ``scenario`` under ``spec``; write ``<scenario>.csv`` and return the trajectory."""
    x0, dt, steps, reference = cfg.scenarios[scenario]
    traj = dynamics.simulate_closed_loop(cfg.system, spec, reference, x0, dt, steps)
    header = ["t"] + [f"x{i + 1}" for i in range(traj.n)] + ["u", "y", "r"]
    rows = []
    for i in range(traj.m):
        row = [traj.times[i], *traj.X[i], traj.U[i], traj.Y[i], reference.value(traj.times[i])]
        rows.append(row)
    data.write_csv(out_dir / f"{scenario}.csv", header, rows)
    return traj


def cmd_pipeline(cfg: PipelineConfig, out_dir: Path) -> dict:
    true_traj = cmd_simulate(cfg, out_dir)
    model = cmd_identify(true_traj, cfg, out_dir)
    identified = model.system()
    # certified by solve, unless constraint_mode is "none"
    chain = cmd_lie(model.chain or lie.relative_degree(identified), out_dir)
    spec = cmd_synthesize(chain, cfg, out_dir)
    stabilization = cmd_closedloop(spec, cfg, out_dir, "stabilization")
    cmd_closedloop(spec, cfg, out_dir, "tracking")

    # overlay of the true plant (the identification data) and the identified
    # model from the same start
    x0, dt, steps = cfg.simulation
    ident_traj = dynamics.integrate(identified, x0, cfg.excitation, dt, steps)
    header = (
        ["t"]
        + [f"x{i + 1}_true" for i in range(cfg.system.n)]
        + [f"x{i + 1}_identified" for i in range(cfg.system.n)]
    )
    rows = [
        [true_traj.times[i], *true_traj.X[i], *ident_traj.X[i]] for i in range(true_traj.m)
    ]
    data.write_csv(out_dir / "identified_vs_true.csv", header, rows)

    summary = _summarize(cfg, model, chain, stabilization)
    _write_json(out_dir / "summary.json", summary)
    lines = ["Pipeline summary", "=" * 40]
    for key, value in summary.items():
        lines.append(f"{key}: {value}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return summary


def _summarize(
    cfg: PipelineConfig,
    model: SparseModel,
    chain: lie.LieChain,
    stabilization: data.Dataset,
) -> dict:
    # coefficient error of f, g and c against the configured true plant
    true_sys = cfg.system
    pairs = [*zip(model.f, true_sys.f), *zip(model.g, true_sys.g), (model.c, true_sys.c)]
    max_err = max((est - true).max_abs_coefficient() for est, true in pairs)

    final_norm = float(np.linalg.norm(stabilization.X[-1]))
    max_u = float(np.max(np.abs(stabilization.U)))

    return {
        "seed": cfg.seed,
        "max_coefficient_error": max_err,
        "relative_degree": chain.relative_degree,
        "constraint_residual": model.diagnostics.constraint_residual,
        "stabilization_final_state_norm": final_norm,
        "stabilization_max_input": max_u,
        "outputs": [  # the files cmd_pipeline writes, not whatever else out_dir holds
            "coefficients.csv", "controller.json", "dataset.csv", "identified_vs_true.csv",
            "identify_report.txt", "lie.json", "lie_report.txt", "model.json",
            "stabilization.csv", "summary.json", "summary.txt", "tracking.csv",
        ],
    }


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsefl",
        description="Identify a control-affine system from data and feedback-linearize it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (defaults reproduce the VdP demo)")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, help="seed recorded in outputs")
        p.add_argument("--lambda", dest="lam", type=float, help="sparsity threshold override")
        p.add_argument("--gains", help="comma-separated error-dynamics gains a0,a1,...")
        p.add_argument("--poles", help="comma-separated closed-loop poles")

    p = sub.add_parser("defaults", help="print the default config")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("simulate", help="generate an excitation dataset")
    add_common(p)

    p = sub.add_parser("identify", help="identify a sparse model from a dataset")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV path")

    p = sub.add_parser("lie", help="Lie chain and relative degree of a model")
    add_common(p)
    p.add_argument("--model", required=True, help="model.json path")

    p = sub.add_parser("synthesize", help="build the tracking controller")
    add_common(p)
    p.add_argument("--model", required=True, help="model.json path")

    p = sub.add_parser("closedloop", help="simulate the plant under a controller")
    add_common(p)
    p.add_argument("--controller", required=True, help="controller.json path")
    p.add_argument(
        "--scenario",
        choices=["stabilization", "tracking"],
        default="stabilization",
        help="which configured scenario to run",
    )

    p = sub.add_parser("pipeline", help="run every stage end to end")
    add_common(p)
    return parser


def _join_value_flags(argv: list[str]) -> list[str]:
    """Rewrite ``--poles -2,-6`` to ``--poles=-2,-6`` so argparse accepts it."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--poles", "--gains") and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_value_flags(list(argv)))
    with warnings.catch_warnings():
        # the library's own warnings are UserWarnings; every other category
        # (a leaked RuntimeWarning, say) stays under the ambient filters
        warnings.filterwarnings("always", category=UserWarning)
        shown = warnings.showwarning

        def show(message, category, *rest):
            if issubclass(category, UserWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                shown(message, category, *rest)

        warnings.showwarning = show
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "defaults":
            text = json.dumps(default_config(), indent=2, sort_keys=True)
            if args.out:
                Path(args.out).write_text(text + "\n", encoding="utf-8")
            else:
                print(text)
            return EXIT_OK

        raw = _load_json(args.config, "config file") if args.config else {}
        cfg = PipelineConfig(_apply_overrides(raw, args))
        out_dir = cfg.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "simulate":
            cmd_simulate(cfg, out_dir)
            print(f"wrote {out_dir / 'dataset.csv'}")
        elif args.command == "identify":
            cmd_identify(_read_dataset(Path(args.data)), cfg, out_dir)
            print(f"wrote {out_dir / 'model.json'}")
        elif args.command == "lie":
            cmd_lie(lie.relative_degree(_read_model(Path(args.model))), out_dir)
            print(f"wrote {out_dir / 'lie.json'}")
        elif args.command == "synthesize":
            chain = lie.relative_degree(_read_model(Path(args.model)))
            cmd_synthesize(chain, cfg, out_dir)
            print(f"wrote {out_dir / 'controller.json'}")
        elif args.command == "closedloop":
            spec = _load_json(
                args.controller, "controller stage input", control.ControllerSpec.from_dict
            )
            cmd_closedloop(spec, cfg, out_dir, args.scenario)
            print(f"wrote {out_dir / (args.scenario + '.csv')}")
        elif args.command == "pipeline":
            summary = cmd_pipeline(cfg, out_dir)
            print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    except RegressionError as exc:
        print(f"identification failed: {exc}", file=sys.stderr)
        if getattr(exc, "diagnostics", None) is not None:
            print(f"diagnostics: {exc.diagnostics.to_dict()}", file=sys.stderr)
        return EXIT_IDENTIFICATION
    except (DivergenceError, ControlSingularityError) as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except RelativeDegreeError as exc:  # a ValueError: keep it before the next handler
        print(f"relative-degree failure: {exc}", file=sys.stderr)
        return EXIT_RELATIVE_DEGREE
    except (ValueError, OSError) as exc:  # ConfigError, DatasetError and a bad path included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
