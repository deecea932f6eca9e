import json
import math

import numpy as np
import pytest

from framestream.cli import main
from framestream.verification import CheckResult

SPHERE_PT = "1.4142135623730951,0,1.4142135623730951"


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_coeffs_sphere_value(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--frame", "sphere",
                              "--point", SPHERE_PT, "--mu", "0.5",
                              "--omega", "0", "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    rec = doc["records"][0]
    assert abs(rec["a_mu"] - 0.375) < 1e-12
    assert rec["mu"] == 0.5
    assert "omega_tilt" in rec
    assert doc["meta"] == {"seed": 0, "engine": "dual"}


def test_coeffs_constant_all_zero(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--frame", "constant",
                              "--point", "1,1,1", "--mu", "0.3",
                              "--omega", "1.0", "--no-timestamp"])
    assert rc == 0
    rec = json.loads(out)["records"][0]
    for key in ("a_mu", "a_omega", "mu_surface", "mu_curve_n",
                "omega_curve", "omega_wind"):
        assert rec[key] == 0.0


def test_coeffs_rho_construction(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--frame", "sphere", "--rho", "2",
                              "--theta", str(math.pi / 4), "--mu", "0.5",
                              "--omega", "0", "--no-timestamp"])
    assert rc == 0
    rec = json.loads(out)["records"][0]
    assert abs(rec["a_mu"] - 0.375) < 1e-12


def test_coeffs_csv_header(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--frame", "sphere",
                              "--point", SPHERE_PT, "--mu", "0.5",
                              "--omega", "0", "--format", "csv",
                              "--no-timestamp"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("x,y,z,mu,omega,a_mu,a_omega,mu_surface,"
                       "mu_curve_n,omega_curve,omega_wind")
    assert len(lines) == 2


def test_coeffs_matches_ellipsoid_engine(capsys):
    rc, out, _ = run(capsys, ["coeffs", "--frame", "ellipsoid",
                              "--a", "2", "--b", "1", "--c", "1",
                              "--point",
                              "1.22474487139159,0.61237243569579,0.5",
                              "--mu", "0.3", "--omega", "1.0",
                              "--no-timestamp"])
    assert rc == 0
    rec = json.loads(out)["records"][0]
    assert abs(rec["a_mu"] - 1.038440774899) < 1e-6
    assert abs(rec["a_omega"] + 0.820993417881) < 1e-6


def test_coeffs_exit_3_on_singular_point(capsys):
    rc, _, err = run(capsys, ["coeffs", "--frame", "sphere",
                              "--point", "0,0,2", "--mu", "0.5",
                              "--omega", "0"])
    assert rc == 3
    assert "0,0,2" in err.replace(" ", "")


@pytest.mark.parametrize("argv", [
    ["coeffs", "--frame", "sphere", "--point", "nan,0,1", "--mu", "0.3",
     "--omega", "1.0"],
    ["sweep", "--frame", "sphere", "--x=nan:nan:1", "--y=0:0:1",
     "--z=1:1:1"],
])
def test_non_finite_point_exits_3(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 3 and out == ""
    assert "point (nan,0,1)" in err


def test_bad_frame_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--frame", "none"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["coeffs", "--frame", "ellipsoid", "--a", "-1", "--point", "1,0,0",
      "--mu", "0.5", "--omega", "0"], "semi-axes must be positive"),
    (["coeffs", "--frame", "sphere", "--fd-step", "1", "--point", SPHERE_PT,
      "--mu", "0.5", "--omega", "0"], "fd_step must lie in"),
    (["sweep", "--frame", "ellipsoid", "--b", "0"],
     "semi-axes must be positive"),
    (["verify", "--fd-step", "0"], "fd_step must lie in"),
])
def test_out_of_range_flag_exits_2(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_verify_unknown_check_exits_2(capsys):
    rc, out, err = run(capsys, ["verify", "--check", "nosuch"])
    assert rc == 2 and out == ""
    assert "unknown check 'nosuch'" in err


def test_bad_point_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--frame", "sphere", "--point", "1,2",
              "--mu", "0.5", "--omega", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_report_schema(capsys):
    rc, out, _ = run(capsys, ["verify", "--frame", "sphere", "--seed", "7",
                              "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    names = [c["name"] for c in doc["checks"]]
    assert "catalog-agreement" in names
    assert "conservation-trichotomy" in names
    for check in doc["checks"]:
        assert set(check) == {"name", "status", "max_residual",
                              "tolerance", "samples"}
        assert check["status"] in ("pass", "fail", "report-only")
    assert doc["meta"]["seed"] == 7


def test_verify_timestamp_toggle(capsys):
    rc, out, _ = run(capsys, ["verify", "--frame", "constant",
                              "--check", "catalog"])
    assert rc == 0
    assert "timestamp" in json.loads(out)["meta"]
    rc, out, _ = run(capsys, ["verify", "--frame", "constant",
                              "--check", "catalog", "--no-timestamp"])
    assert "timestamp" not in json.loads(out)["meta"]


def test_verify_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = run(capsys, ["verify", "--seed", "7", "--no-timestamp",
                                "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_exit_1_names_first_failure(capsys, monkeypatch):
    import framestream.cli as cli

    def fake_run_checks(**kwargs):
        return [CheckResult(name="catalog-agreement", status="pass",
                            max_residual=0.0, tolerance=1e-7, samples=10),
                CheckResult(name="oracle-agreement", status="fail",
                            max_residual=1.0, tolerance=1e-6, samples=10)]

    monkeypatch.setattr(cli, "run_checks", fake_run_checks)
    rc, _, err = run(capsys, ["verify", "--no-timestamp"])
    assert rc == 1
    assert "FAIL: oracle-agreement" in err


def test_conservation_sphere(capsys):
    rc, out, _ = run(capsys, ["conservation", "--frame", "sphere",
                              "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out)["conservation"]
    assert doc["feasible"] is True
    assert doc["f"] == "rho" and doc["g"] == "1"
    assert doc["samples_checked"] == 1024


def test_conservation_cyl2_infeasible_still_exit_0(capsys):
    rc, out, _ = run(capsys, ["conservation", "--frame", "cylindrical-ii",
                              "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out)["conservation"]
    assert doc["feasible"] is False
    assert doc["reason"] == "CDependsOnOmega"
    assert doc["f"] is None


def test_conservation_flat_factors(capsys):
    rc, out, _ = run(capsys, ["conservation", "--frame", "cylindrical-i",
                              "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out)["conservation"]
    assert doc["feasible"] is True
    assert doc["f"] == "1" and doc["g"] == "1"


def test_holonomy_latitude(capsys):
    rc, out, _ = run(capsys, ["holonomy", "--theta", str(math.pi / 3),
                              "--steps", "2000", "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out)["holonomy"]
    assert abs(doc["expected"] - math.pi) < 1e-12
    assert doc["error"] < 1e-3


def test_holonomy_planar(capsys):
    rc, out, _ = run(capsys, ["holonomy", "--frame", "constant",
                              "--steps", "500", "--no-timestamp"])
    assert rc == 0
    doc = json.loads(out)["holonomy"]
    assert doc["angle"] == 0.0 and doc["expected"] == 0.0


def test_sweep_grid_shape(capsys):
    rc, out, _ = run(capsys, ["sweep", "--frame", "cylindrical-i",
                              "--x", "1:2:3", "--y", "0:0:1",
                              "--z", "0:1:2", "--mu-count", "4",
                              "--omega-count", "3", "--no-timestamp"])
    assert rc == 0
    recs = json.loads(out)["records"]
    assert len(recs) == 3 * 1 * 2 * 4 * 3
    mus = sorted({r["mu"] for r in recs})
    nodes = sorted(np.polynomial.legendre.leggauss(4)[0])
    assert np.allclose(mus, nodes)
    assert all(-1.0 < m < 1.0 for m in mus)


def test_sweep_csv_roundtrip(capsys):
    rc, out, _ = run(capsys, ["sweep", "--frame", "sphere",
                              "--x", "1:1:1", "--y", "0.5:0.5:1",
                              "--z", "0.5:0.5:1", "--mu-count", "2",
                              "--omega-count", "2", "--format", "csv",
                              "--no-timestamp"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 4
    header = lines[0].split(",")
    row = dict(zip(header, (float(v) for v in lines[1].split(","))))
    assert row["x"] == 1.0 and row["y"] == 0.5
