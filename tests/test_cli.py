import json
import os

import pytest

from kndirac.cli import main


def read(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return fh.read()


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


@pytest.mark.parametrize("argv", [
    ["radial", "--rstar-max", "inf"], ["radial", "--rstar-min", "nan"],
    ["asymptotics", "--branch", "interior", "--omega", "nan"], ["horizons", "--M", "inf"],
    ["angular", "--xi", "inf"],
])
def test_non_finite_inputs_are_configuration_errors(tmp_path, capsys, argv):
    # --rstar-max inf used to exit 3 (numerical failure), and an interior
    # --omega nan ran its integrator for minutes
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("task,key,value", [
    ("angular", "N", 64.5), ("angular", "N", "64"), ("angular", "count", 2.5),
    ("tetrad-check", "n_points", 3.5), ("asymptotics", "n_samples", 20.5),
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


def test_angular_task(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["angular", "--out", out, "--N", "32", "--count", "4"])
    assert rc == 0
    rec = json.loads(read(out, "angular.json"))
    assert len(rec["xi"]) == 4
    table = read(out, "angular_eigenfunctions.csv")
    assert table.splitlines()[0] == "n,theta,ReY1,ImY1,ReY2,ImY2"


def test_radial_task_and_determinism(tmp_path):
    args = ["radial", "--rstar-min", "10", "--rstar-max", "40", "--tol", "1e-9"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert read(out1, "trajectory.csv") == read(out2, "trajectory.csv")
    assert read(out1, "radial.json") == read(out2, "radial.json")


def test_radial_task_default_span(tmp_path):
    # radial's own default span [10, 200], not the far-field [1e3, 1e6]
    out = str(tmp_path / "o")
    assert main(["radial", "--out", out]) == 0
    rec = json.loads(read(out, "radial.json"))
    assert (rec["config"]["rstar_min"], rec["config"]["rstar_max"]) == (10.0, 200.0)
    assert rec["steps"] < 20_000


def test_interior_asymptotics_task(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["asymptotics", "--branch", "interior", "--out", out,
               "--omega", "0.9", "--k", "1.5", "--mass", "0.6", "--xi", "1.3"])
    assert rc == 0
    rec = json.loads(read(out, "asymptotics.json"))
    assert rec["pass"] is True
    assert abs(rec["rate"] - rec["alpha"]) <= 0.1 * rec["alpha"]


def test_exterior_asymptotics_task(tmp_path):
    # reduced span keeps the runtime small; the slope window scales with it
    out = str(tmp_path / "o")
    rc = main(["asymptotics", "--branch", "exterior", "--out", out,
               "--rstar-max", "1e5", "--n-samples", "20"])
    assert rc == 0
    rec = json.loads(read(out, "asymptotics.json"))
    assert rec["pass"] is True
    assert -1.3 <= rec["slope"] <= -0.7


def test_determinism_across_tasks(tmp_path):
    for task, extra in (("horizons", []), ("tetrad-check", []), ("angular", ["--N", "24"])):
        out1, out2 = str(tmp_path / f"{task}-1"), str(tmp_path / f"{task}-2")
        assert main([task, *extra, "--out", out1]) in (0, 1)
        assert main([task, *extra, "--out", out2]) in (0, 1)
        for fn in os.listdir(out1):
            assert read(out1, fn) == read(out2, fn)
