"""Benchmark workloads: set-up, one measured pass, and the correctness gate.

Every workload runs the paper's pipeline on one plant: simulate, identify
(dictionary, constrained sparse regression, Lie certification, controller
synthesis), then close the loop in a stabilization and a tracking scenario.
The seed draws the three phases of the sine-sum excitation and nothing else,
so a seed fixes the inputs exactly.

This module imports only the standard library at load time; ``setup``
imports ``sparsefl`` and numpy, so its duration is the set-up time that
``setup_s`` reports.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Demo values (the `sparsefl defaults` config): excitation, step, threshold
# and the two closed-loop scenarios. Every workload shares them.
AMPLITUDES = [1.0, 1.0, 1.0]
FREQUENCIES = [2.8284271247461903, 5.196152422706632, 8.94427190999916]
DT = 0.01
LAMBDA = 0.05
STABILIZATION_STEPS = 1000
TRACKING_STEPS = 2000

# Correctness gate.
COEF_TOL = 1e-6
STABILIZATION_NORM_MAX = 1e-2  # |x(10)| after the stabilization scenario
TRACKING_ERROR_MAX = 0.05  # max |y - r| for t >= TRACKING_AFTER_T
TRACKING_AFTER_T = 5.0


@dataclass(frozen=True)
class Spec:
    """What one named workload runs."""

    system: dict  # the CLI's `system` section
    x0: tuple[float, ...]
    m: int  # samples in the identification trajectory
    library: dict  # LibrarySpec keyword arguments (also the CLI `library` section)
    relative_degree: int
    controller: dict  # exactly one of gains / poles
    cli: bool  # the measured pipeline is one in-process `sparsefl pipeline` call


SPECS = {
    # The shipped command. Most time is closed loop and per-sample symbolic
    # evaluation; regression is about 2% of a pass.
    "demo": Spec(
        system={"name": "vdp", "theta": 1.0, "sigma": 1.0, "mu": 1.0},
        x0=(2.0, 0.0),
        m=100,
        library={"poly_order": 3, "trig_orders": [], "output_poly_order": 3},
        relative_degree=2,
        controller={"gains": [5.0, 4.0]},
        cli=True,
    ),
    # Solve-heavy r = 2 path: the per-sample constraint has m rows, and the
    # widest dictionary (29 drift and 29 input candidates, trig atoms).
    "vdp_wide_m5000": Spec(
        system={"name": "vdp", "theta": 1.0, "sigma": 1.0, "mu": 1.0},
        x0=(2.0, 0.0),
        m=5000,
        library={"poly_order": 5, "trig_orders": [1, 2], "output_poly_order": 3},
        relative_degree=2,
        controller={"gains": [5.0, 4.0]},
        cli=False,
    ),
    # The r >= 3 path: a joint kron'd state solve with 2m constraint rows and
    # the symbolic chain rebuilt and evaluated per sample.
    "chain3_r3_m2000": Spec(
        system={"name": "chain3"},
        x0=(0.5, 0.0, 0.0),
        m=2000,
        library={"poly_order": 2, "trig_orders": [], "output_poly_order": 3},
        relative_degree=3,
        controller={"poles": [-1.0, -2.0, -3.0]},
        cli=False,
    ),
}


def phases(seed: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(0.0, 2.0 * math.pi) for _ in AMPLITUDES]


def cli_config(spec: Spec, seed: int, m: int) -> dict:
    """Config for `sparsefl pipeline`: the demo defaults plus this workload's changes."""
    controller = {"gains": None, "poles": None}
    controller.update(spec.controller)
    x0 = list(spec.x0)
    return {
        "system": dict(spec.system),
        "simulation": {"x0": x0, "dt": DT, "steps": m - 1},
        "excitation": {"kind": "sine_sum", "amplitudes": AMPLITUDES,
                       "frequencies": FREQUENCIES, "phases": phases(seed)},
        "library": dict(spec.library),
        "regression": {"lambda": LAMBDA, "relative_degree": spec.relative_degree},
        "controller": controller,
        "stabilization": {"x0": x0, "dt": DT, "steps": STABILIZATION_STEPS},
        "tracking": {"x0": x0, "dt": DT, "steps": TRACKING_STEPS},
    }


@dataclass
class Workload:
    """A workload after set-up: the sparsefl objects one pass needs."""

    name: str
    spec: Spec
    seed: int
    m: int
    s: object  # the sparsefl package
    plant: object
    excitation: object
    library: object
    regression: object
    scenarios: list  # (name, x0, steps, reference)
    config: dict


def setup(name: str, seed: int, m: int | None = None) -> Workload:
    """Import sparsefl and build the plant, excitation, library spec and config."""
    import sparsefl as s

    spec = SPECS[name]
    m = spec.m if m is None else m
    if spec.system["name"] == "vdp":
        plant = s.vdp_system(spec.system["theta"], spec.system["sigma"], spec.system["mu"])
    else:
        plant = s.chain_integrator_system(3)
    return Workload(
        name=name,
        spec=spec,
        seed=seed,
        m=m,
        s=s,
        plant=plant,
        excitation=s.sine_sum_input(AMPLITUDES, FREQUENCIES, phases(seed)),
        library=s.LibrarySpec(
            poly_order=spec.library["poly_order"],
            trig_orders=tuple(spec.library["trig_orders"]),
            output_poly_order=spec.library["output_poly_order"],
        ),
        regression=s.RegressionConfig(lam=LAMBDA, relative_degree=spec.relative_degree),
        scenarios=[
            ("stabilization", list(spec.x0), STABILIZATION_STEPS, s.zero_reference()),
            ("tracking", list(spec.x0), TRACKING_STEPS, s.sinusoid_reference()),
        ],
        config=cli_config(spec, seed, m),
    )


# -- one pass -----------------------------------------------------------------------------


@dataclass
class Stages:
    """Library-API pass: stage stopwatch plus the objects it produced."""

    integrate_s: float
    build_s: float
    solve_s: float
    relative_degree_s: float
    synthesize_s: float
    closed_loop_s: float
    data: object
    ds: object
    model: object
    chain: object
    ctrl: object
    loops: list

    @property
    def identify_s(self) -> float:
        return self.build_s + self.solve_s + self.relative_degree_s + self.synthesize_s

    @property
    def total_s(self) -> float:
        return self.integrate_s + self.identify_s + self.closed_loop_s


@dataclass
class PassResult:
    pipeline_s: float
    stages: Stages
    digest: str  # coefficients and closed-loop trajectories of the library pass
    artifact_digest: str | None = None  # demo only: the CLI's output files
    failures: list[str] = field(default_factory=list)


def library_pass(wl: Workload) -> Stages:
    s = wl.s
    t0 = perf_counter()
    data = s.integrate(wl.plant, list(wl.spec.x0), wl.excitation, DT, wl.m - 1)
    t1 = perf_counter()
    ds = s.build_dictionaries(wl.library, data)
    t2 = perf_counter()
    model = s.solve(ds, data, wl.regression)
    t3 = perf_counter()
    chain = s.relative_degree(model.system())
    t4 = perf_counter()
    ctrl = s.synthesize(chain, **wl.spec.controller)
    t5 = perf_counter()
    loops = [
        s.simulate_closed_loop(wl.plant, ctrl, ref, x0, DT, steps)
        for _, x0, steps, ref in wl.scenarios
    ]
    t6 = perf_counter()
    return Stages(t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5,
                  data, ds, model, chain, ctrl, loops)


def _no_trace(pass_id, name, fn):
    return fn()


def write_config(wl: Workload, work_dir: Path) -> Path:
    path = work_dir / "config.json"
    path.write_text(json.dumps(wl.config), encoding="utf-8")
    return path


def run_cli_pipeline(config_path: Path, out_dir: Path) -> None:
    """One in-process `sparsefl pipeline` call."""
    import sparsefl.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = sparsefl.cli.main(["pipeline", "--config", str(config_path), "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"sparsefl pipeline exited with code {code}")


def run_pass(wl: Workload, work_dir: Path, tracer=None, pass_id: str = "p0") -> PassResult:
    """One closed-loop pass; ``pipeline_s`` is what a user of this workload waits for."""
    call = tracer.run if tracer is not None else _no_trace
    if not wl.spec.cli:
        t0 = perf_counter()
        stages = call(pass_id + ".pipeline", "bench.pipeline", lambda: library_pass(wl))
        result = PassResult(perf_counter() - t0, stages, result_digest(stages))
        result.failures = gate(wl, stages)
        return result

    config_path = write_config(wl, work_dir)
    out_dir = work_dir / pass_id
    try:
        t0 = perf_counter()
        call(pass_id + ".pipeline", "bench.pipeline", lambda: run_cli_pipeline(config_path, out_dir))
        pipeline_s = perf_counter() - t0
        failures = artifact_failures(wl, out_dir)
        artifact_digest = directory_digest(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    stages = call(pass_id + ".library", "bench.library", lambda: library_pass(wl))
    result = PassResult(pipeline_s, stages, result_digest(stages), artifact_digest)
    result.failures = failures + gate(wl, stages)
    return result


# -- correctness gate ---------------------------------------------------------------------


def _coefficients(expr) -> dict:
    return {t.signature: t.coefficient for t in expr.terms}


def model_failures(plant, f, g, c, relative_degree: int, expected_r: int) -> list[str]:
    """Exact support and coefficients within COEF_TOL of the true plant, and r."""
    failures = []
    pairs = [(f"f{i + 1}", f[i], plant.f[i]) for i in range(plant.n)]
    pairs += [(f"g{i + 1}", g[i], plant.g[i]) for i in range(plant.n)]
    pairs.append(("c", c, plant.c))
    for label, got, want in pairs:
        got_c, want_c = _coefficients(got), _coefficients(want)
        if got_c.keys() != want_c.keys():
            failures.append(f"{label}: support {got} differs from the true {want}")
            continue
        err = max((abs(got_c[k] - want_c[k]) for k in want_c), default=0.0)
        if not err <= COEF_TOL:
            failures.append(f"{label}: coefficient error {err:.3g} > {COEF_TOL:g}")
    if relative_degree != expected_r:
        failures.append(f"relative degree {relative_degree}, expected {expected_r}")
    return failures


def loop_failures(stab_final_norm: float, tracking_error: float) -> list[str]:
    failures = []
    if not stab_final_norm <= STABILIZATION_NORM_MAX:
        failures.append(f"stabilization |x(end)| = {stab_final_norm:.3g} > {STABILIZATION_NORM_MAX:g}")
    if not tracking_error <= TRACKING_ERROR_MAX:
        failures.append(f"tracking error after t={TRACKING_AFTER_T:g} is {tracking_error:.3g}")
    return failures


def _tracking_error(times, y, r) -> float:
    return max(abs(yi - ri) for ti, yi, ri in zip(times, y, r) if ti >= TRACKING_AFTER_T)


def gate(wl: Workload, st: Stages) -> list[str]:
    model = st.model
    failures = model_failures(wl.plant, model.f, model.g, model.c,
                              st.chain.relative_degree, wl.spec.relative_degree)
    stab, track = st.loops
    ref = wl.scenarios[1][3]
    stab_norm = math.sqrt(sum(float(v) ** 2 for v in stab.X[-1]))
    err = _tracking_error(track.times, track.Y, [ref.value(t) for t in track.times])
    return failures + loop_failures(stab_norm, err)


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def artifact_failures(wl: Workload, out_dir: Path) -> list[str]:
    """The gate applied to the files `sparsefl pipeline` wrote."""
    s = wl.s
    n = wl.plant.n
    model = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))
    lie = json.loads((out_dir / "lie.json").read_text(encoding="utf-8"))
    f = [s.parse_expression(e, n) for e in model["f"]]
    g = [s.parse_expression(e, n) for e in model["g"]]
    c = s.parse_expression(model["c"], n)
    failures = model_failures(wl.plant, f, g, c, lie["relative_degree"], wl.spec.relative_degree)

    header, rows = _read_csv(out_dir / "stabilization.csv")
    states = [header.index(f"x{i + 1}") for i in range(n)]
    stab_norm = math.sqrt(sum(rows[-1][j] ** 2 for j in states))
    header, rows = _read_csv(out_dir / "tracking.csv")
    t, y, r = (header.index(k) for k in ("t", "y", "r"))
    err = _tracking_error([row[t] for row in rows], [row[y] for row in rows], [row[r] for row in rows])
    return failures + loop_failures(stab_norm, err)


def result_digest(st: Stages) -> str:
    h = hashlib.sha256()
    for arr in (st.model.xi_tilde, st.model.xi_hat, st.model.zeta, *(lp.X for lp in st.loops)):
        h.update(arr.tobytes())
    return h.hexdigest()


def directory_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()
