"""Command-line pipeline: stages, exit codes, determinism, file formats."""

from __future__ import annotations

import ast
import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import weak_input_dataset
from sparsefl.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_IDENTIFICATION,
    EXIT_OK,
    EXIT_RELATIVE_DEGREE,
    PipelineConfig,
    _summarize,
    cmd_identify,
    default_config,
    main,
)
from sparsefl.control import synthesize
from sparsefl.data import save_csv
from sparsefl.dictionary import LibrarySpec
from sparsefl.dynamics import vdp_system
from sparsefl.lie import relative_degree
from sparsefl.regression import ALT_TOL, RegressionConfig
from sparsefl.symexpr import Expression


def run(args):
    return main([str(a) for a in args])


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = overrides or {}
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def stderr_checks(err):
    """The ``checks`` of the ``diagnostics:`` line an identification failure prints."""
    return ast.literal_eval(err.split("diagnostics: ", 1)[1].splitlines()[0])["checks"]


# -- defaults ---------------------------------------------------------------------------


def test_defaults_prints_json(capsys):
    assert run(["defaults"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["regression"]["lambda"] == 0.05
    assert payload["simulation"]["steps"] == 99
    assert payload["controller"]["gains"] == [5.0, 4.0]
    assert payload["regression"]["relative_degree"] is None  # the state dimension n


def test_defaults_to_file(tmp_path):
    out = tmp_path / "cfg.json"
    assert run(["defaults", "--out", out]) == EXIT_OK
    assert json.loads(out.read_text())["system"]["name"] == "vdp"


# -- simulate ----------------------------------------------------------------------------


def test_simulate_writes_hundred_row_dataset(tmp_path):
    assert run(["simulate", "--out", tmp_path]) == EXIT_OK
    rows = (tmp_path / "dataset.csv").read_text().splitlines()
    assert rows[0] == "t,x1,x2,u,y,xdot1,xdot2"
    assert len(rows) == 101  # header + 100 samples


def test_simulate_single_step_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"simulation": {"steps": 1}})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"regresion": {"lambda": 0.1}})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG
    nested = write_config(tmp_path, {"library": {"polyorder": 4}}, name="nested.json")
    assert run(["simulate", "--config", nested, "--out", tmp_path]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "raw", [{"seed": {"x": 1}}, {"library": {"poly_order": {"x": 1}}}], ids=["top", "nested"]
)
def test_object_for_scalar_config_key_rejected(tmp_path, raw, capsys):
    cfg = write_config(tmp_path, raw)
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_CONFIG
    assert "must not be an object" in capsys.readouterr().err


def test_default_config_builds_the_default_records():
    cfg = PipelineConfig(default_config())
    assert cfg.library == LibrarySpec()
    assert cfg.regression == RegressionConfig()


def test_chirp_excitation_via_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {"excitation": {"kind": "chirp", "amplitudes": [0.5], "frequencies": [2.0], "rate": 3.0}},
    )
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
    rows = (tmp_path / "dataset.csv").read_text().splitlines()
    assert len(rows) == 101


# -- one validation pass ---------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize(
    "command, raw, named",
    [
        (["pipeline"], {"stabilization": {"reference": {"kind": "bogus"}}}, "kind"),
        (["pipeline"], {"controller": {"gains": None, "poles": [[1]]}}, "poles"),
        (["pipeline"], {"controller": {"gains": 5}}, "controller.gains"),
        (["pipeline"], {"tracking": {"dt": NAN}}, "dt"),
        (["simulate"], {"simulation": {"dt": NAN}}, "dt"),
        (["pipeline"], {"excitation": {"amplitudes": [NAN, 1.0, 1.0]}}, "amplitudes"),
        (["pipeline"], {"tracking": {"x0": [1, 2, 3]}}, "x0"),
        (["simulate"], {"controller": {"gains": None, "poles": None}}, "gains"),
        (["simulate", "--poles", "-1"], {"controller": 5}, "controller"),
        (["simulate", "--lambda", "0.1"], {"regression": None}, "regression"),
        (["pipeline"], {"controller": {"gains": []}}, "gains"),
        (["pipeline"], {"controller": {"gains": None, "poles": []}}, "poles"),
        (["pipeline"], {"library": {"cross_trig": "false"}}, "cross_trig"),
        (["pipeline"], {"library": {"cross_trig": "no"}}, "cross_trig"),
        (["pipeline"], {"library": {"poly_order": 2.9}}, "poly_order"),
        (["pipeline"], {"regression": {"relative_degree": True}}, "relative_degree"),
        (["pipeline"], {"library": {"trig_orders": [1, 1]}}, "trig_orders"),
        (["simulate"], {"simulation": {"steps": 99.7}}, "steps"),
        (["pipeline"], {"stabilization": {"steps": 1000.5}}, "steps"),
        (["pipeline"], {"seed": 1.5}, "seed"),
        (["pipeline"], {"simulation": {"dt": "0.01"}}, "dt"),
        (["pipeline"], {"simulation": {"x0": ["2", "0"]}}, "x0"),
        (["pipeline"], {"simulation": {"x0": [True, 0]}}, "x0"),
        (["pipeline"], {"system": {"mu": "1"}}, "mu"),
        (
            ["pipeline"],
            {"tracking": {"reference": {"kind": "sinusoid", "amplitude": "1"}}},
            "amplitude",
        ),
        (["pipeline"], {"excitation": {"amplitudes": ["1", "1", "1"]}}, "amplitudes"),
        (["pipeline"], {"controller": {"gains": [True, 4.0]}}, "gains"),
        (["pipeline"], {"controller": {"gains": None, "poles": [["-1", 0], -2]}}, "poles"),
        (["simulate"], {"excitation": {"kind": "chirp", "amplitudes": []}}, "excitation.amplitudes"),
        (["simulate"], {"simulation": {"dt": 10**400}}, "dt"),
        (["simulate"], {"excitation": {"kind": "chirp", "frequencies": []}}, "excitation.frequencies"),
        (["simulate"], {"excitation": {"amplitudes": 5}}, "excitation.amplitudes"),
        # removed excitation kinds: no pipeline could identify a model from them
        (
            ["pipeline"],
            {"excitation": {"kind": "constant", "amplitudes": [1.0]}},
            "unknown excitation kind 'constant' (available: sine_sum, chirp)",
        ),
        (
            ["pipeline"],
            {"excitation": {"kind": "constant", "amplitudes": [1.0]},
             "regression": {"constraint_mode": "none"}},
            "unknown excitation kind 'constant'",
        ),
        (["pipeline"], {"excitation": {"kind": "zero"}}, "unknown excitation kind 'zero'"),
        # removed LibrarySpec fields, with values the spec used to accept
        (
            ["pipeline"],
            {"library": {"normalize_columns": True}},
            "unknown config key 'library.normalize_columns'",
        ),
        (
            ["pipeline"],
            {"library": {"include_constant": False}},
            "unknown config key 'library.include_constant'",
        ),
    ],
    ids=[
        "reference-kind", "pole-pair", "gains-not-list", "tracking-dt-nan",
        "simulation-dt-nan", "amplitude-nan", "tracking-x0-shape", "unused-controller",
        "poles-flag-into-number", "lambda-flag-into-null", "gains-empty", "poles-empty",
        "flag-string", "flag-word", "poly-order-float", "relative-degree-bool",
        "trig-orders-repeated", "steps-float", "scenario-steps-float", "seed-float",
        "dt-string", "x0-strings", "x0-bool", "system-param-string", "amplitude-string",
        "excitation-strings", "gain-bool", "pole-string", "chirp-amplitude-missing",
        "dt-overflow", "chirp-frequency-missing", "amplitudes-not-list",
        "constant-kind-removed", "constant-kind-removed-unconstrained", "zero-kind-removed",
        "normalize-columns-removed", "include-constant-removed",
    ],
)
def test_config_errors_exit_before_any_stage_writes(tmp_path, capsys, command, raw, named):
    # each of these used to crash (exit 1), report a divergence (exit 4),
    # exit 2 only after the earlier stages had written their files, run
    # with a silently coerced value (exit 0), or not name the key
    cfg = write_config(tmp_path, raw)  # json.dumps writes a NaN as NaN
    out = tmp_path / "run"
    assert run([*command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not out.exists() or not any(out.rglob("*"))
    if named is not None:
        assert named in capsys.readouterr().err


def test_closedloop_non_finite_gain_is_corrupted_input(tmp_path, capsys):
    spec = synthesize(relative_degree(vdp_system(1, 1, 1)), gains=[5.0, 4.0]).to_dict()
    spec["gains"] = [NAN, 4.0]
    bad = tmp_path / "controller.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "run"
    assert run(["closedloop", "--controller", bad, "--out", out]) == EXIT_CONFIG
    assert "controller stage input" in capsys.readouterr().err
    assert not any(out.rglob("*"))


@pytest.mark.parametrize(
    "key, value",
    [("relative_degree", 2.7), ("gains", ["5", "4"]), ("n_states", True), ("lf_chain", "12")],
)
def test_closedloop_wrong_json_type_is_corrupted_input(tmp_path, key, value, capsys):
    # each used to be read and exit 0: 2.7 as degree 2, "12" as the chain (1, 2)
    spec = synthesize(relative_degree(vdp_system(1, 1, 1)), gains=[5.0, 4.0]).to_dict()
    spec[key] = value
    bad = tmp_path / "controller.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "run"
    assert run(["closedloop", "--controller", bad, "--out", out]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not any(out.rglob("*"))


@pytest.mark.parametrize("key, value", [("alpha", ["x1"]), ("beta", 1)])
def test_closedloop_non_string_expression_is_corrupted_input(tmp_path, key, value, capsys):
    spec = synthesize(relative_degree(vdp_system(1, 1, 1)), gains=[5.0, 4.0]).to_dict()
    spec[key] = value
    bad = tmp_path / "controller.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "run"
    assert run(["closedloop", "--controller", bad, "--out", out]) == EXIT_CONFIG
    assert "controller stage input" in capsys.readouterr().err
    assert not any(out.rglob("*"))


def test_closedloop_lower_relative_degree_is_corrupted_input(tmp_path, capsys):
    # r = 1 < n = 2 leaves x2 as uncontrolled internal dynamics (3.38 at
    # t = 10); synthesize refuses such a law, and closedloop used to run it
    spec = synthesize(relative_degree(vdp_system(1, 1, 1)), gains=[5.0, 4.0]).to_dict()
    spec.update(relative_degree=1, alpha="x2", beta="1", lf_chain=["x1"], gains=[5.0])
    bad = tmp_path / "controller.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "run"
    assert run(["closedloop", "--controller", bad, "--out", out]) == EXIT_CONFIG
    assert "relative degree 1 differs from the state dimension 2" in capsys.readouterr().err
    assert not any(out.rglob("*"))


def test_nested_reference_replaces_the_default_whole(tmp_path):
    # the default stabilization reference has amplitude 0.0; a nested object
    # replaces it, so the sinusoid gets its own default amplitude 1.0
    cfg = write_config(tmp_path, {"stabilization": {"reference": {"kind": "sinusoid"}}})
    out = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out", out]) == EXIT_OK
    rows = list(csv.DictReader((out / "stabilization.csv").read_text().splitlines()))
    assert all(float(r["r"]) == math.sin(float(r["t"])) for r in rows)
    assert max(abs(float(r["r"])) for r in rows) > 0.99


# -- identify ----------------------------------------------------------------------------


@pytest.fixture()
def dataset_path(tmp_path):
    assert run(["simulate", "--out", tmp_path]) == EXIT_OK
    return tmp_path / "dataset.csv"


def test_identify_recovers_demo_model(tmp_path, dataset_path):
    assert run(["identify", "--data", dataset_path, "--out", tmp_path]) == EXIT_OK
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["f"][0] == "x2"
    report = (tmp_path / "identify_report.txt").read_text()
    assert "dx2/dt" in report and "x1^2*x2" in report
    table = list(csv.reader((tmp_path / "coefficients.csv").read_text().splitlines()))
    assert table[0] == ["entry", "xi_tilde_1", "xi_hat_1", "xi_tilde_2", "xi_hat_2", "zeta"]
    by_entry = {row[0]: row[1:] for row in table[1:]}
    assert float(by_entry["x2"][0]) == pytest.approx(1.0, abs=0.05)
    assert float(by_entry["x1"][4]) == 1.0


def test_demo_model_reports_every_check_passing(tmp_path, vdp_dataset):
    # solve's acceptance checks in order, each row [value, bound], in the
    # returned model, in model.json and in identify_report.txt
    model = cmd_identify(vdp_dataset, PipelineConfig({}), tmp_path)
    checks = model.diagnostics.checks
    names = ["alternation_change", "output_coefficient", "input_coefficient", "relative_degree"]
    assert list(checks) == names
    (change, tol), (zeta_max, zero), (xi_max, zero_u), (r, want) = checks.values()
    assert change < tol == ALT_TOL
    assert zeta_max > zero == 0.0 and xi_max > zero_u == 0.0
    assert r == want == 2
    assert json.loads((tmp_path / "model.json").read_text())["diagnostics"]["checks"] == checks
    assert f"\n  checks: {checks}\n" in (tmp_path / "identify_report.txt").read_text()


def test_identify_overlarge_lambda_fails_with_code_three(tmp_path, dataset_path):
    code = run(["identify", "--data", dataset_path, "--out", tmp_path, "--lambda", "10"])
    assert code == EXIT_IDENTIFICATION


def test_identify_emptied_input_channel_fails_with_code_three(tmp_path, capsys):
    # input gain 0.03 below lambda: no input-channel candidate survives, which
    # admits no linearizing law; no model is written
    data = tmp_path / "weak.csv"
    save_csv(weak_input_dataset(0.03), data)
    cfg = write_config(tmp_path, {"library": {"poly_order": 5, "trig_orders": [1, 2]}})
    code = run(["identify", "--data", data, "--config", cfg, "--out", tmp_path])
    assert code == EXIT_IDENTIFICATION
    err = capsys.readouterr().err
    assert "every input-channel candidate" in err and "diagnostics:" in err
    assert stderr_checks(err)["input_coefficient"] == [0.0, 0.0]
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "x1, library, entry",
    [
        ("1e110", {}, "x1^3"),
        ("1.5e308", {"poly_order": 1, "output_poly_order": 1}, "x1*u"),
        ("1e308", {"poly_order": 1, "trig_orders": [2], "output_poly_order": 1}, "sin(2*x1)"),
    ],
    ids=["power", "input-column", "trig-angle"],
)
def test_identify_overflowing_library_entry_is_config_error(
    tmp_path, dataset_path, capsys, x1, library, entry
):
    # one sample of x1 puts a library column beyond the float range (|u| is
    # about 1.67 there), which is unusable input (exit 2), not a crash or a
    # failed identification; no model is written
    rows = list(csv.reader(dataset_path.read_text().splitlines()))
    rows[5][rows[0].index("x1")] = x1
    data = tmp_path / "overflow.csv"
    data.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"library": library})
    code = run(["identify", "--data", data, "--config", cfg, "--out", tmp_path])
    assert code == EXIT_CONFIG
    assert f"library entry {entry} overflows a float" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_identify_estimates_missing_derivatives(tmp_path, dataset_path):
    # strip the xdot columns and check the report mentions estimation
    rows = dataset_path.read_text().splitlines()
    header = rows[0].split(",")
    keep = [i for i, h in enumerate(header) if not h.startswith("xdot")]
    trimmed = "\n".join(",".join(r.split(",")[i] for i in keep) for r in rows)
    (tmp_path / "noxdot.csv").write_text(trimmed + "\n")
    assert run(["identify", "--data", tmp_path / "noxdot.csv", "--out", tmp_path]) == EXIT_OK
    assert "estimated" in (tmp_path / "identify_report.txt").read_text()


def test_identify_constant_output_fails_with_code_three(tmp_path, capsys):
    # chain3 at r = 3 on 100 samples under the benchmark's seed-1 excitation
    # phases, with estimated derivatives: the fit returns the constant output
    # y = 0.5308, whose every Lie derivative vanishes, so it certifies no
    # relative degree and no model is written
    chain3 = {
        "system": {"name": "chain3"},
        "simulation": {"x0": [0.5, 0.0, 0.0], "dt": 0.01, "steps": 99},
        "excitation": {"phases": [0.8442354444173306, 5.324583204732311, 4.798937463950548]},
        "library": {"poly_order": 2},
        "regression": {"relative_degree": 3},
        "stabilization": {"x0": [0.5, 0.0, 0.0]},
        "tracking": {"x0": [0.5, 0.0, 0.0]},
    }
    cfg = write_config(tmp_path, chain3)
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
    rows = list(csv.reader((tmp_path / "dataset.csv").read_text().splitlines()))
    keep = [i for i, h in enumerate(rows[0]) if not h.startswith("xdot")]
    (tmp_path / "noxdot.csv").write_text("\n".join(",".join(r[i] for i in keep) for r in rows))
    out = tmp_path / "run"
    code = run(["identify", "--config", cfg, "--data", tmp_path / "noxdot.csv", "--out", out])
    assert code == EXIT_IDENTIFICATION
    err = capsys.readouterr().err
    assert "certifies relative degree None, not 3 (y = 0.5308)" in err and "diagnostics:" in err
    assert stderr_checks(err)["relative_degree"] == [None, 3]
    assert not (out / "model.json").exists()


@pytest.mark.parametrize(
    "regression, named",
    [
        ({"solver_mode": "penalty"}, "solver_mode"),
        ({"penalty_weight": 1e8}, "penalty_weight"),
        ({"constraint_mode": "aggregated"}, "aggregated"),
        ({"lambda": float("nan")}, "lam"),
        ({"constraint_tol": float("nan")}, "constraint_tol"),  # removed: solve uses lie's tolerance
        # removed: STLS stops by construction, the alternation's limits are constants
        ({"max_outer_iters": 0}, "'regression.max_outer_iters'"),
        ({"max_alt_iters": 30}, "'regression.max_alt_iters'"),
        ({"coef_tol": 1e-10}, "'regression.coef_tol'"),
        ({"constraint_mode": "per_sample"}, "per_sample"),  # renamed "coefficients"
    ],
    ids=[
        "solver_mode", "penalty_weight", "aggregated",
        "lambda-nan", "constraint_tol-nan", "max_outer_iters-0",
        "max_alt_iters-removed", "coef_tol-removed", "per_sample-renamed",
    ],
)
def test_bad_regression_settings_are_config_errors(
    tmp_path, dataset_path, capsys, regression, named
):
    # removed keys and modes, and values json reads but no solve can use: a
    # NaN lambda used to return a fully dense model with exit 0
    cfg = write_config(tmp_path, {"regression": regression})
    code = run(["identify", "--data", dataset_path, "--config", cfg, "--out", tmp_path])
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_identify_missing_dataset_is_config_error(tmp_path):
    code = run(["identify", "--data", tmp_path / "nope.csv", "--out", tmp_path])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "args, bad",
    [
        (["identify", "--data", "adir", "--out", "run"], "adir"),
        (["lie", "--model", "adir", "--out", "run"], "adir"),
        (["pipeline", "--config", "adir", "--out", "run"], "adir"),
        (["simulate", "--out", "afile"], "afile"),
        (["defaults", "--out", "missing/x.json"], "missing/x.json"),
    ],
    ids=["data-dir", "model-dir", "config-dir", "out-file", "out-missing-dir"],
)
def test_unusable_path_is_one_config_error_line(tmp_path, monkeypatch, capsys, args, bad):
    # each used to leave main as an OSError traceback, exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    assert run(args) == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and bad in line


# -- lie / synthesize ----------------------------------------------------------------------


@pytest.fixture()
def model_path(tmp_path, dataset_path):
    assert run(["identify", "--data", dataset_path, "--out", tmp_path]) == EXIT_OK
    return tmp_path / "model.json"


def test_lie_report(tmp_path, model_path):
    assert run(["lie", "--model", model_path, "--out", tmp_path]) == EXIT_OK
    payload = json.loads((tmp_path / "lie.json").read_text())
    assert payload["relative_degree"] == 2
    assert payload["lf_powers"][0] == "x1"
    report = (tmp_path / "lie_report.txt").read_text()
    assert "Lf^2 c" in report and "relative degree: 2" in report
    assert "z1 = x1" in report


def test_lie_undefined_degree_exit_code(tmp_path, model_path):
    payload = json.loads(model_path.read_text())
    payload["c"] = "1"  # constant output: no input ever appears
    bad = tmp_path / "blind.json"
    bad.write_text(json.dumps(payload))
    assert run(["lie", "--model", bad, "--out", tmp_path]) == EXIT_RELATIVE_DEGREE


def test_lie_model_with_input_in_f_is_config_error(tmp_path, model_path, capsys):
    # expressions are functions of the state: u enters only through g
    payload = json.loads(model_path.read_text())
    payload["f"][1] += " + x1*u"
    bad = tmp_path / "input_in_f.json"
    bad.write_text(json.dumps(payload))
    assert run(["lie", "--model", bad, "--out", tmp_path / "run"]) == EXIT_CONFIG
    assert "unknown symbol 'u'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("f", "12"), ("g", "10"), ("f", {"x1": "x2"}), ("c", ["x1"]), ("c", 1)],
    ids=["f-string", "g-string", "f-object", "c-list", "c-number"],
)
def test_lie_wrong_json_type_expression_is_config_error(tmp_path, model_path, key, value, capsys):
    # a string where a list belongs was read one character per entry:
    # "f": "12" was f = (1, 2), and lie exited with an undefined relative degree
    payload = json.loads(model_path.read_text())
    payload[key] = value
    bad = tmp_path / "wrong_type.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "run"
    assert run(["lie", "--model", bad, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "model stage input" in err and "corrupted" in err
    if key != "c":
        assert f"{key} must be a list of expression strings" in err
    assert not out.exists() or not any(out.rglob("*"))


def test_lie_fractional_state_count_is_config_error(tmp_path, model_path, capsys):
    payload = json.loads(model_path.read_text())
    payload["n_states"] = 2.9  # used to be read as 2
    bad = tmp_path / "fractional.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "run"
    assert run(["lie", "--model", bad, "--out", out]) == EXIT_CONFIG
    assert "n_states must be an integer" in capsys.readouterr().err
    assert not out.exists() or not any(out.rglob("*"))


def test_identify_non_converged_prints_full_diagnostics(
    tmp_path, dataset_path, capsys, monkeypatch
):
    # noisy output and derivatives need a second alternation step
    import sparsefl.regression as regression

    rows = list(csv.reader(dataset_path.read_text().splitlines()))
    rng = np.random.default_rng(0)
    noisy = [rows[0]] + [
        [v if k < 4 else repr(float(v) + 1e-2 * rng.standard_normal()) for k, v in enumerate(row)]
        for row in rows[1:]
    ]
    with dataset_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(noisy)
    monkeypatch.setattr(regression, "ALT_STEPS", 1)
    out = tmp_path / "run"
    code = run(["identify", "--data", dataset_path, "--out", out])
    assert code == EXIT_IDENTIFICATION
    err = capsys.readouterr().err
    assert "did not converge" in err
    diagnostics = err.split("diagnostics: ", 1)[1]
    assert "'state_residuals': [" in diagnostics and "'state_residuals': []" not in diagnostics
    assert "'active_counts': {'xi_tilde'" in diagnostics
    change, bound = stderr_checks(err)["alternation_change"]
    assert change >= bound == ALT_TOL
    assert not (out / "model.json").exists()


def test_lie_corrupted_model_names_stage(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{not json")
    assert run(["lie", "--model", bad, "--out", tmp_path]) == EXIT_CONFIG
    assert "corrupted" in capsys.readouterr().err


def test_synthesize_with_poles(tmp_path, model_path):
    assert run(["synthesize", "--model", model_path, "--out", tmp_path, "--poles", "-2,-6"]) == EXIT_OK
    ctrl = json.loads((tmp_path / "controller.json").read_text())
    assert ctrl["gains"] == [12.0, 8.0]
    assert ctrl["relative_degree"] == 2


def test_synthesize_with_default_gains(tmp_path, model_path):
    assert run(["synthesize", "--model", model_path, "--out", tmp_path]) == EXIT_OK
    ctrl = json.loads((tmp_path / "controller.json").read_text())
    assert ctrl["gains"] == [5.0, 4.0]
    assert "5*(r - x1)" in ctrl["law"]


def test_synthesize_internal_dynamics_exit_code(tmp_path, model_path):
    payload = json.loads(model_path.read_text())
    payload["g"] = ["1", "0"]  # input drives the observed state directly
    bad = tmp_path / "direct.json"
    bad.write_text(json.dumps(payload))
    assert run(["synthesize", "--model", bad, "--out", tmp_path]) == EXIT_RELATIVE_DEGREE


def test_lie_and_synthesize_read_only_the_plant(tmp_path, model_path):
    # the coefficient arrays, diagnostics and library of model.json are for reports
    payload = json.loads(model_path.read_text())
    for key in ("xi_tilde", "xi_hat", "zeta", "diagnostics", "library"):
        del payload[key]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(payload))
    full_out, stripped_out = tmp_path / "full", tmp_path / "stripped"
    for model, out in ((model_path, full_out), (stripped, stripped_out)):
        assert run(["lie", "--model", model, "--out", out]) == EXIT_OK
        assert run(["synthesize", "--model", model, "--out", out]) == EXIT_OK
    for name in ("lie.json", "lie_report.txt", "controller.json"):
        assert (full_out / name).read_bytes() == (stripped_out / name).read_bytes(), name


# -- closedloop -----------------------------------------------------------------------------


@pytest.fixture()
def controller_path(tmp_path, model_path):
    assert run(["synthesize", "--model", model_path, "--out", tmp_path]) == EXIT_OK
    return tmp_path / "controller.json"


def test_closedloop_stabilization(tmp_path, controller_path):
    assert run(["closedloop", "--controller", controller_path, "--out", tmp_path]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "stabilization.csv").read_text().splitlines()))
    final = rows[-1]
    assert np.hypot(float(final["x1"]), float(final["x2"])) <= 1e-2
    assert rows[0]["r"] == "0.0"


def test_closedloop_tracking(tmp_path, controller_path):
    code = run([
        "closedloop", "--controller", controller_path, "--out", tmp_path,
        "--scenario", "tracking",
    ])
    assert code == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "tracking.csv").read_text().splitlines()))
    late = [r for r in rows if float(r["t"]) >= 5.0]
    err = max(abs(float(r["y"]) - float(r["r"])) for r in late)
    assert err <= 0.05


def test_closedloop_unstable_gains_still_simulates(tmp_path, model_path, capsys):
    # a positive pole draws a warning but the simulation must still run
    assert (
        run(["synthesize", "--model", model_path, "--out", tmp_path, "--gains", "-0.1,0.9"])
        == EXIT_OK
    )
    assert "warning: gains place a closed-loop pole" in capsys.readouterr().err
    cfg = write_config(
        tmp_path, {"stabilization": {"x0": [0.1, 0.0], "dt": 0.01, "steps": 300}}
    )
    code = run([
        "closedloop", "--controller", tmp_path / "controller.json",
        "--config", cfg, "--out", tmp_path,
    ])
    assert code == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "stabilization.csv").read_text().splitlines()))
    assert len(rows) == 301


def test_closedloop_divergence_leaks_no_warning(tmp_path, model_path, capsys):
    # gains -100, -100 put both poles in the right half-plane: the state
    # overflows, which is a divergence (exit 4) reported with plain floats,
    # not a numpy overflow warning from the control law
    run(["synthesize", "--model", model_path, "--out", tmp_path, "--gains=-100,-100"])
    assert "non-negative real part" in capsys.readouterr().err
    code = run(["closedloop", "--controller", tmp_path / "controller.json", "--out", tmp_path])
    assert code == EXIT_DIVERGENCE
    err = capsys.readouterr().err
    assert re.search(r"non-finite value at x=\[-?[\d.]+e\+\d+, -?[\d.]+e\+\d+\]", err)
    assert not re.search("warning", err, re.IGNORECASE) and "np.float64" not in err


@pytest.mark.parametrize(
    "term, x1", [("sin(2*x1)", 1e308), ("x1^3", 1e200)], ids=["trig-angle", "power"]
)
def test_closedloop_overflowing_law_is_divergence(tmp_path, capsys, term, x1):
    # a chain term beyond the float range at the start state: the trig angle
    # used to reach math.sin(inf), a "math domain error" config error (exit 2)
    spec = synthesize(relative_degree(vdp_system(1, 1, 1)), gains=[5.0, 4.0]).to_dict()
    spec["lf_chain"] = [term, "x2"]
    controller = tmp_path / "controller.json"
    controller.write_text(json.dumps(spec))
    cfg = write_config(tmp_path, {"stabilization": {"x0": [x1, 0.0]}})
    code = run(["closedloop", "--controller", controller, "--config", cfg, "--out", tmp_path])
    assert code == EXIT_DIVERGENCE
    assert f"control law produced non-finite value at x=[{x1!r}, 0.0]" in capsys.readouterr().err


def test_synthesize_unstable_gains_warn_on_one_stderr_line(tmp_path, model_path, capsys):
    # the library's UserWarning used to leave main as a Python warning: a
    # traceback under -W error (here pytest's filterwarnings = error)
    code = run(["synthesize", "--model", model_path, "--out", tmp_path, "--gains=-100,-100"])
    assert code == EXIT_OK and (tmp_path / "controller.json").exists()
    assert capsys.readouterr().err.splitlines() == [
        "warning: gains place a closed-loop pole with non-negative real part"
    ]


def test_identify_short_dataset_warns_on_one_stderr_line(tmp_path, capsys):
    # 13 samples for 20 input and drift columns: underdetermined, which warns
    cfg = write_config(tmp_path, {"simulation": {"steps": 12}})
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
    capsys.readouterr()
    code = run(["identify", "--config", cfg, "--data", tmp_path / "dataset.csv", "--out", tmp_path])
    assert code == EXIT_OK and (tmp_path / "model.json").exists()
    assert capsys.readouterr().err.splitlines() == [
        "warning: only 13 samples for a library of width 20; the regression is underdetermined"
    ]


def test_closedloop_beta_below_the_lie_zero_is_singular(tmp_path, capsys):
    # beta = 5e-7 is zero for lie.relative_degree; the law would divide by it
    spec = synthesize(relative_degree(vdp_system(1, 1, 1)), gains=[5.0, 4.0]).to_dict()
    spec["beta"] = "5e-07"
    bad = tmp_path / "controller.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "run"
    assert run(["closedloop", "--controller", bad, "--out", out]) == EXIT_CONFIG
    assert "decoupling term is zero; the law is singular" in capsys.readouterr().err
    assert not any(out.rglob("*"))


def test_closedloop_corrupted_controller(tmp_path, capsys):
    bad = tmp_path / "controller.json"
    bad.write_text('{"gains": [1]}')
    assert run(["closedloop", "--controller", bad, "--out", tmp_path]) == EXIT_CONFIG
    assert "controller stage" in capsys.readouterr().err


# -- pipeline --------------------------------------------------------------------------------


def test_pipeline_end_to_end(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "old.txt").write_text("left over from an earlier run\n")
    assert run(["pipeline", "--out", out]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["relative_degree"] == 2
    assert summary["max_coefficient_error"] <= 0.05
    assert summary["constraint_residual"] <= 1e-6
    assert summary["stabilization_final_state_norm"] <= 1e-2
    expected_files = {
        "dataset.csv",
        "model.json",
        "coefficients.csv",
        "identify_report.txt",
        "lie.json",
        "lie_report.txt",
        "controller.json",
        "stabilization.csv",
        "tracking.csv",
        "identified_vs_true.csv",
        "summary.json",
        "summary.txt",
    }
    # the files this run wrote, not whatever else the directory holds
    assert summary["outputs"] == sorted(expected_files)
    assert {p.name for p in out.iterdir()} == expected_files | {"old.txt"}
    overlay = list(csv.DictReader((out / "identified_vs_true.csv").read_text().splitlines()))
    # the true columns are the identification data itself
    dataset = list(csv.DictReader((out / "dataset.csv").read_text().splitlines()))
    assert [r["x1_true"] for r in overlay] == [r["x1"] for r in dataset]
    drift = max(
        abs(float(r["x1_true"]) - float(r["x1_identified"])) for r in overlay
    )
    assert drift <= 1e-3


@pytest.mark.parametrize(
    "raw, message",
    [({"excitation": {"kind": "sine_sum", "amplitudes": [0, 0, 0]}}, "identically zero")],
    ids=["zero-amplitudes"],
)
def test_pipeline_constant_excitation_fails_identification(tmp_path, capsys, raw, message):
    # a zero input used to fail later, at lie
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out", out]) == EXIT_IDENTIFICATION
    err = capsys.readouterr().err
    assert message in err and "warning" not in err
    assert (out / "dataset.csv").exists() and not (out / "model.json").exists()


@pytest.mark.parametrize("mode", ["coefficients", "none"])
def test_identify_constant_input_fails_with_code_three(tmp_path, dataset_path, capsys, mode):
    # u = 1 used to exit 0 with f and g split at will (dx2/dt with eight
    # terms, half of them times u); no excitation kind gives a constant u,
    # but a dataset can
    rows = list(csv.reader(dataset_path.read_text().splitlines()))
    k = rows[0].index("u")
    for row in rows[1:]:
        row[k] = "1.0"
    data = tmp_path / "constant.csv"
    data.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"regression": {"constraint_mode": mode}})
    out = tmp_path / "run"
    assert run(["identify", "--data", data, "--config", cfg, "--out", out]) == EXIT_IDENTIFICATION
    assert "cannot be separated" in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_identify_relative_degree_one_fails_on_the_demo(tmp_path, dataset_path, capsys):
    # r = 1 constrains no level, but the model must still certify it: the
    # demo model certifies 2. It used to exit 0, as if the constraint were off
    cfg = write_config(tmp_path, {"regression": {"relative_degree": 1}})
    out = tmp_path / "run"
    code = run(["identify", "--data", dataset_path, "--config", cfg, "--out", out])
    assert code == EXIT_IDENTIFICATION
    err = capsys.readouterr().err
    assert "certifies relative degree 2, not 1 (y = x1)" in err
    assert stderr_checks(err)["relative_degree"] == [2, 1]
    assert stderr_checks(err)["alternation_change"] == [None, None]
    assert "'constraint_residual': None" in err
    assert not (out / "model.json").exists()


CHAIN3 = {
    "system": {"name": "chain3"},
    "simulation": {"x0": [0.5, 0.0, 0.0], "dt": 0.01, "steps": 299},
    "library": {"poly_order": 2},
    "controller": {"gains": None, "poles": [-1.0, -2.0, -3.0]},
    "stabilization": {"x0": [0.5, 0.0, 0.0]},
    "tracking": {"x0": [0.5, 0.0, 0.0]},
}


@pytest.mark.parametrize("mode", ["coefficients", "none"])
def test_identify_relative_degree_above_n_fails_in_both_modes(
    tmp_path, dataset_path, capsys, mode
):
    # with the constraint off, r = 5 on the two-state demo used to exit 0
    cfg = write_config(tmp_path, {"regression": {"relative_degree": 5, "constraint_mode": mode}})
    out = tmp_path / "run"
    code = run(["identify", "--data", dataset_path, "--config", cfg, "--out", out])
    assert code == EXIT_IDENTIFICATION
    assert capsys.readouterr().err == (
        "identification failed: relative_degree 5 exceeds the state dimension 2\n"
    )
    assert not (out / "model.json").exists()


def test_pipeline_relative_degree_below_n_is_a_config_error(tmp_path, capsys):
    # it used to exit 3 at identify, after simulate had written dataset.csv;
    # identify on its own still accepts r < n
    cfg = write_config(tmp_path, {**CHAIN3, "regression": {"relative_degree": 2}})
    out = tmp_path / "run"
    assert run(["pipeline", "--config", cfg, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert err[0].endswith("regression.relative_degree null or n = 3, got 2")
    assert not (out / "dataset.csv").exists()


def test_chain3_pipeline_requests_the_state_dimension_by_default(tmp_path):
    # relative_degree used to default to 2, so this config identified the
    # exact chain3 model and then exited 3 ("certifies relative degree 3, not 2")
    default, explicit = tmp_path / "default", tmp_path / "explicit"
    cfg = write_config(tmp_path, CHAIN3)
    assert run(["pipeline", "--config", cfg, "--out", default]) == EXIT_OK
    cfg = write_config(tmp_path, {**CHAIN3, "regression": {"relative_degree": 3}}, "r3.json")
    assert run(["pipeline", "--config", cfg, "--out", explicit]) == EXIT_OK
    names = sorted(p.name for p in default.iterdir())
    assert len(names) == 12 and names == sorted(p.name for p in explicit.iterdir())
    for name in names:
        assert (default / name).read_bytes() == (explicit / name).read_bytes(), name
    assert json.loads((default / "summary.json").read_text())["relative_degree"] == 3


@pytest.mark.parametrize("mode", ["coefficients", "none"])
def test_pipeline_certifies_the_model_once(tmp_path, monkeypatch, mode):
    # solve certifies the model and hands its chain on; only a model solved
    # with the constraint off is certified by the lie stage
    import sparsefl.lie
    import sparsefl.regression

    calls = []

    def counted(system, certify=sparsefl.lie.relative_degree):
        calls.append(system.n)
        return certify(system)

    monkeypatch.setattr(sparsefl.lie, "relative_degree", counted)
    monkeypatch.setattr(sparsefl.regression, "relative_degree", counted)
    cfg = write_config(tmp_path, {"regression": {"constraint_mode": mode}})
    assert run(["pipeline", "--config", cfg, "--out", tmp_path / "run"]) == EXIT_OK
    assert len(calls) == 1


def test_summary_error_includes_the_output_map(vdp_model, vdp_chain, vdp_dataset):
    # f and g are identified to within 0.05; c = 2 x1 is off by exactly 1
    cfg = PipelineConfig(default_config())
    assert _summarize(cfg, vdp_model, vdp_chain, vdp_dataset)["max_coefficient_error"] <= 0.05
    model = dataclasses.replace(vdp_model, c=2.0 * Expression.variable(0, 2))
    assert _summarize(cfg, model, vdp_chain, vdp_dataset)["max_coefficient_error"] == 1.0


def test_per_stage_commands_match_pipeline(tmp_path):
    # the pipeline hands each stage's result on in memory, the subcommands
    # read it back from the previous stage's file: both write the same bytes
    cfg = write_config(tmp_path, {"controller": {"gains": None, "poles": [[-2, 1], [-2, -1]]}})
    stages, whole = tmp_path / "stages", tmp_path / "pipeline"
    for args in (
        ["simulate"],
        ["identify", "--data", stages / "dataset.csv"],
        ["lie", "--model", stages / "model.json"],
        ["synthesize", "--model", stages / "model.json"],
        ["closedloop", "--controller", stages / "controller.json"],
        ["closedloop", "--controller", stages / "controller.json", "--scenario", "tracking"],
    ):
        assert run([*args, "--config", cfg, "--out", stages]) == EXIT_OK
    assert run(["pipeline", "--config", cfg, "--out", whole]) == EXIT_OK
    names = sorted(p.name for p in stages.iterdir())
    assert len(names) == 9 and set(names) < {p.name for p in whole.iterdir()}
    for name in names:
        assert (stages / name).read_bytes() == (whole / name).read_bytes(), name


def test_pipeline_outputs_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["pipeline", "--out", out_a]) == EXIT_OK
    assert run(["pipeline", "--out", out_b]) == EXIT_OK
    for name in ("dataset.csv", "model.json", "controller.json", "tracking.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
