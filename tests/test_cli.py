import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from kndirac.cli import build_parser, main


def read(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return fh.read()


def test_runtime_imports_numpy_only():
    # the package needs numpy alone; scipy is a test dependency of the oracles
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, kndirac.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_horizons_record(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["horizons", "--M", "1.0", "--a", "0.6", "--Q", "0.0", "--out", out])
    assert rc == 0
    rec = json.loads(read(out, "horizons.json"))
    assert abs(rec["r_minus"] - 0.2) < 1e-15 and abs(rec["r_plus"] - 1.8) < 1e-15


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 1.0, "a": 0.3, "Q": 0.0}))
    out = str(tmp_path / "o")
    rc = main(["horizons", "--config", str(cfg), "--a", "0.6", "--out", out])
    assert rc == 0
    rec = json.loads(read(out, "horizons.json"))
    assert abs(rec["r_plus"] - 1.8) < 1e-15  # flag wins over the file


def test_configuration_errors(tmp_path):
    assert main(["horizons", "--M", "1.0", "--a", "1.2", "--out", str(tmp_path)]) == 2
    assert main(["angular", "--k", "1.0", "--out", str(tmp_path)]) == 2  # integer k rejected
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert main(["horizons", "--config", str(bad), "--out", str(tmp_path)]) == 2
    notjson = tmp_path / "nj.json"
    notjson.write_text("{')")
    assert main(["horizons", "--config", str(notjson), "--out", str(tmp_path)]) == 2
    notobject = tmp_path / "no.json"
    notobject.write_text("5")
    assert main(["horizons", "--config", str(notobject), "--out", str(tmp_path)]) == 2
    assert main(["angular", "--count", "-1", "--out", str(tmp_path)]) == 2
    assert main(["asymptotics-infinity", "--n-samples", "2", "--rstar-min", "2e4", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["radial", "--rstar-max", "inf"], ["radial", "--rstar-min", "nan"],
    ["asymptotics-cauchy", "--omega", "nan"], ["horizons", "--M", "inf"],
    ["angular", "--omega", "inf"], ["radial", "--xi", "inf"],
])
def test_non_finite_inputs_are_configuration_errors(tmp_path, capsys, argv):
    # --rstar-max inf used to exit 3 (numerical failure), and an interior
    # --omega nan ran its integrator for minutes
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("task,key,value", [
    ("angular", "N", 64.5), ("angular", "N", "64"), ("angular", "count", 2.5),
    ("tetrad-check", "n_points", 3.5), ("asymptotics-infinity", "n_samples", 20.5),
    ("tetrad-check", "tol", "1e-9"), ("angular", "N", True),
])
def test_config_value_types(tmp_path, capsys, task, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([task, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert repr(key) in capsys.readouterr().err


def test_config_int_for_float_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 1, "a": 0, "Q": 0}))
    out = str(tmp_path / "o")
    assert main(["horizons", "--config", str(cfg), "--out", out]) == 0
    assert json.loads(read(out, "horizons.json"))["r_plus"] == 2.0


def test_tetrad_check_passes(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["tetrad-check", "--out", out, "--n-points", "5"])
    assert rc == 0
    rec = json.loads(read(out, "tetrad_check.json"))
    assert rec["pass"] is True
    assert max(rec["max_residuals"].values()) < 1e-9


def test_dirac_verify_passes(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["dirac-verify", "--out", out, "--n-points", "5"])
    assert rc == 0
    rec = json.loads(read(out, "dirac_verify.json"))
    assert rec["pass"] is True
    assert rec["max_anticommutator_residual"] < 1e-9


def test_check_points_reach_between_the_horizons(tmp_path):
    # every fourth point lies between the horizons, where the symmetric frame
    # takes its eps = -1 branch; the default run of each check reaches two
    import kndirac.cli

    params = kndirac.cli._params(kndirac.cli.TASKS["tetrad-check"][1])
    r, _ = kndirac.cli._random_points(np.random.default_rng(kndirac.cli.DEFAULT_SEED), params, 10)
    inside = (r > params.r_minus) & (r < params.r_plus)
    assert np.flatnonzero(inside).tolist() == [3, 7]
    assert np.all(r[~inside] >= params.r_plus + 0.1)
    for task in ("tetrad-check", "dirac-verify"):
        assert main([task, "--out", str(tmp_path / task)]) == 0


@pytest.mark.parametrize("task", ["tetrad-check", "dirac-verify"])
@pytest.mark.parametrize("n_points", ["0", "-3"])
def test_n_points_must_be_positive(tmp_path, capsys, task, n_points):
    # --n-points 0 used to pass with every residual at 0.0, and a negative
    # count failed only inside numpy
    out = tmp_path / "o"
    assert main([task, "--n-points", n_points, "--out", str(out)]) == 2
    assert f"(--n-points) must be at least 1, got {n_points}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task,name,record,residual", [
    ("tetrad-check", "ef_metric", "tetrad_check.json", lambda rec: rec["max_residuals"]["ef"]),
    ("dirac-verify", "inverse_metric", "dirac_verify.json", lambda rec: rec["max_anticommutator_residual"]),
])
def test_nan_residual_fails_the_check(monkeypatch, tmp_path, task, name, record, residual):
    # a NaN in one point's metric makes its residual NaN; Python's
    # max(0.0, nan) is 0.0, which once let such a check pass
    import kndirac.cli

    params = kndirac.cli._params(kndirac.cli.TASKS[task][1])
    rng = np.random.default_rng(kndirac.cli.DEFAULT_SEED)
    r_bad = kndirac.cli._random_points(rng, params, 5)[0][2]
    original = getattr(kndirac.cli, name)

    def poisoned(*args):
        g = np.array(original(*args))
        r = args[0].r if name == "inverse_metric" else args[0]
        g[np.asarray(r) == r_bad] = np.nan
        return g

    monkeypatch.setattr(kndirac.cli, name, poisoned)
    out = str(tmp_path / "o")
    assert main([task, "--n-points", "5", "--out", out]) == 1
    # strict JSON: the NaN is written as the string "NaN", not as a bare token
    rec = json.loads(read(out, record), parse_constant=pytest.fail)
    assert rec["pass"] is False
    assert math.isnan(float(residual(rec)))


def test_dirac_verify_checks_every_point(monkeypatch, tmp_path):
    # a closed-form B term wrong at the 13th of 20 points fails the check;
    # the finite-difference oracles once ran on the first ten points only
    import kndirac.cli

    params = kndirac.cli._params(kndirac.cli.TASKS["dirac-verify"][1])
    r_bad = kndirac.cli._random_points(np.random.default_rng(kndirac.cli.DEFAULT_SEED), params, 20)[0][12]
    original = kndirac.cli.b_term_closed

    def perturbed(point, params):
        B = original(point, params)
        return B + 1e-3 * (np.asarray(point.r) == r_bad)[..., None, None]

    monkeypatch.setattr(kndirac.cli, "b_term_closed", perturbed)
    out = str(tmp_path / "o")
    assert main(["dirac-verify", "--n-points", "20", "--out", out]) == 1
    rec = json.loads(read(out, "dirac_verify.json"))
    assert rec["pass"] is False and rec["max_bterm_residual"] > 9e-4


def test_checks_evaluate_all_points_at_once(monkeypatch, tmp_path):
    # the frames, the Dirac matrices, the spin-connection term, the stencils
    # and the transform of all points are each built in one call (per
    # chart), so the calls do not grow with --n-points
    import kndirac.cli

    names = ("symmetric_bl_tetrad", "ef_null_tetrad", "orthonormal_u_ef", "orthonormal_bl",
             "general_dirac_matrices", "b_term_closed", "b_term_numeric", "dirac_stencil",
             "assembled_dirac_stencil", "transform_stencil", "conjugated_stencil_numeric")
    calls = {}

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(kndirac.cli, name, counter(name, getattr(kndirac.cli, name)))
    counts = []
    for n_points in ("5", "50"):
        calls.clear()
        for task in ("tetrad-check", "dirac-verify"):
            assert main([task, "--n-points", n_points, "--out", str(tmp_path / f"{task}-{n_points}")]) == 0
        counts.append(dict(calls))
    assert set(counts[0]) == set(names)
    assert counts[0] == counts[1]


def test_angular_task(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["angular", "--out", out, "--N", "32", "--count", "4"])
    assert rc == 0
    rec = json.loads(read(out, "angular.json"))
    assert len(rec["xi"]) == 4
    table = read(out, "angular_eigenfunctions.csv")
    assert table.splitlines()[0] == "n,theta,ReY1,ImY1,ReY2,ImY2"


def test_angular_task_with_no_pairs(tmp_path):
    out = str(tmp_path / "o")
    assert main(["angular", "--out", out, "--count", "0"]) == 0
    assert json.loads(read(out, "angular.json"))["xi"] == []
    assert read(out, "angular_eigenfunctions.csv") == "n,theta,ReY1,ImY1,ReY2,ImY2\n"


def test_tables_are_written_from_columns(tmp_path):
    # each value's text is the repr of it as a Python float, as when the rows
    # were formatted value by value
    from kndirac.cli import _write_table

    columns = (np.array([1, -2, 0, 7, 3, 12]),
               np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300]),
               np.array([0.1, 1 / 3, -2.5e-308, 123456789.123, 1e-5, 2.0 ** 60]))
    _write_table(str(tmp_path), "t", ("n", "x", "y"), columns)
    rows = [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    assert read(tmp_path, "t.csv") == "\n".join(["n,x,y", *rows]) + "\n"


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_radial_task_and_determinism(tmp_path):
    args = ["radial", "--rstar-min", "10", "--rstar-max", "40", "--tol", "1e-9"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert read(out1, "trajectory.csv") == read(out2, "trajectory.csv")
    assert read(out1, "radial.json") == read(out2, "radial.json")


def test_radial_csv_places_deep_rows_by_log_offset(tmp_path):
    # below rstar = -75 re-inverting rstar read the clamp r_plus (1 + 1e-15)
    # on every row; the trajectory's own s = log(r - r_plus) places each one
    out = str(tmp_path / "o")
    assert main(["radial", "--branch", "exterior", "--rstar-min", "-300", "--rstar-max", "-200", "--out", out]) == 0
    lines = read(out, "trajectory.csv").splitlines()
    assert lines[0] == "rstar,r,ReX1,ImX1,ReX2,ImX2,s"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    rstar, s = data[:, 0], data[:, 6]
    # M = 1, a = 0.6, Q = 0.3: rstar(s) = r + kp s - km log(r - r_minus), r = r_plus + e^s
    rp, rm, a = 1.0 + math.sqrt(0.55), 1.0 - math.sqrt(0.55), 0.6
    kp, km = (rp * rp + a * a) / (rp - rm), (rm * rm + a * a) / (rp - rm)
    closed = rp + np.exp(s) + kp * s - km * np.log(rp - rm + np.exp(s))
    assert len(data) > 2 and np.exp(s).max() < 1e-30  # far below the rounding of r
    assert np.abs(closed - rstar).max() <= 1e-10 * np.abs(rstar).min()


def test_radial_task_default_span(tmp_path):
    # radial's own default span [10, 200], not the far-field [1e3, 1e6]
    out = str(tmp_path / "o")
    assert main(["radial", "--out", out]) == 0
    rec = json.loads(read(out, "radial.json"))
    assert (rec["config"]["rstar_min"], rec["config"]["rstar_max"]) == (10.0, 200.0)
    assert rec["steps"] < 20_000
    # one row at every step edge, also in the adiabatic frame, whose sample
    # intervals each hold several steps
    assert len(read(out, "trajectory.csv").splitlines()) == 1 + rec["steps"] + 1


def test_radial_task_below_the_mass_threshold(tmp_path):
    # omega < m: no adiabatic frame, so X itself is carried at carrier 0; the
    # CSV still holds one row at every step edge
    out = str(tmp_path / "o")
    assert main(["radial", "--omega", "0.3", "--mass", "0.8", "--xi", "0.9", "--rstar-max", "60",
                 "--out", out]) == 0
    rec = json.loads(read(out, "radial.json"))
    assert set(rec) == {"task", "config", "steps"}
    assert rec["steps"] > 1000
    assert len(read(out, "trajectory.csv").splitlines()) == 1 + rec["steps"] + 1


def test_radial_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the subluminal mode grows past the floats near rstar = 970
    out = str(tmp_path / "o")
    assert main(["radial", "--omega", "0.3", "--mass", "0.8", "--xi", "0.9", "--rstar-max", "3000",
                 "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in task radial") and "overflows" in err


def test_radial_interior_span_on_the_cap_is_a_numerical_failure(tmp_path, capsys):
    # the span's start lies within 1e-15 width of r_plus, where the interior
    # log offset rests on its cap
    out = str(tmp_path / "o")
    assert main(["radial", "--branch", "interior", "--rstar-min", "-100", "--rstar-max", "-80",
                 "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in task radial") and "rstar=-100.0" in err


def test_interior_asymptotics_task(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["asymptotics-cauchy", "--out", out,
               "--omega", "0.9", "--k", "1.5", "--mass", "0.6", "--xi", "1.3"])
    assert rc == 0
    rec = json.loads(read(out, "asymptotics_cauchy.json"))
    assert rec["pass"] is True
    assert abs(rec["rate"] - rec["alpha"]) <= 0.1 * rec["alpha"]


def test_exterior_asymptotics_task(tmp_path):
    # reduced span keeps the runtime small; the slope window scales with it
    out = str(tmp_path / "o")
    rc = main(["asymptotics-infinity", "--out", out,
               "--rstar-max", "1e5", "--n-samples", "20"])
    assert rc == 0
    rec = json.loads(read(out, "asymptotics_infinity.json"))
    assert rec["pass"] is True
    assert -1.3 <= rec["slope"] <= -0.7


def test_determinism_across_tasks(tmp_path):
    for task, extra in (("horizons", []), ("tetrad-check", []), ("angular", ["--N", "24"])):
        out1, out2 = str(tmp_path / f"{task}-1"), str(tmp_path / f"{task}-2")
        assert main([task, *extra, "--out", out1]) in (0, 1)
        assert main([task, *extra, "--out", out2]) in (0, 1)
        for fn in os.listdir(out1):
            assert read(out1, fn) == read(out2, fn)


# the keys each task reads, and so takes as flags and config-file keys and records
TASK_KEYS = {
    "horizons": "M a Q",
    "tetrad-check": "M a Q seed tol n_points",
    "dirac-verify": "M a Q seed mass n_points",
    "angular": "M a Q omega k mass N count",
    "radial": "M a Q omega k mass xi tol rstar_min rstar_max branch",
    "asymptotics-infinity": "M a Q omega k mass xi rstar_min rstar_max n_samples",
    "asymptotics-cauchy": "M a Q omega k mass xi tol",
}


@pytest.mark.parametrize("task,keys", TASK_KEYS.items())
def test_each_task_takes_and_records_only_its_keys(tmp_path, task, keys):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {o for a in sub.choices[task]._actions for o in a.option_strings} - {"-h", "--help"}
    assert flags == {"--config", "--out"} | {"--" + key.replace("_", "-") for key in keys.split()}
    out = str(tmp_path / "o")
    assert main([task, "--out", out]) == 0
    rec = json.loads(read(out, task.replace("-", "_") + ".json"))
    assert set(rec["config"]) == set(keys.split())


def test_keys_a_task_does_not_read_are_rejected(tmp_path, capsys):
    # horizons once exited 2 on --k 1 and recorded --omega 7
    out = tmp_path / "o"
    for flag in (["--k", "1"], ["--omega", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(["horizons", *flag, "--out", str(out)])
        assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 7.0}))
    assert main(["horizons", "--config", str(cfg), "--out", str(out)]) == 2
    assert "does not read: ['omega']" in capsys.readouterr().err
    assert not out.exists()
