import json
import math

import numpy as np
import pytest

from framestream import OutOfRange, run_checks
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


def test_coeffs_exit_2_on_nan_mu(capsys):
    # A NaN mu fails the mu range check, a bad flag.
    rc, out, err = run(capsys, ["coeffs", "--frame", "sphere", "--point",
                                "1,0,1", "--mu", "nan", "--omega", "1"])
    assert (rc, out, err) == (2, "", "error: mu = nan outside [-1, 1]\n")


def test_coeffs_exit_3_on_polar_mu(capsys):
    # mu = 1 is a direction, but one with no azimuth: PolarDirection.
    rc, out, err = run(capsys, ["coeffs", "--frame", "sphere", "--point",
                                "1,0,1", "--mu", "1", "--omega", "1"])
    assert (rc, out, err) == (3, "", "error: omega undefined for mu at "
                                     "+-1\n")


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
    (["conservation", "--frame", "sphere", "--fd-step", "1"],
     "fd_step must lie in"),
    (["coeffs", "--frame", "sphere", "--point", "1,0,1", "--mu", "0.3",
      "--omega", "inf"], "omega = inf is not finite"),
    (["coeffs", "--frame", "sphere", "--point", "1,0,1", "--mu", "0.3",
      "--omega", "nan", "--format", "csv"], "omega = nan is not finite"),
    (["verify", "--seed", "-1"], "--seed must be at least 0, not -1"),
    (["conservation", "--frame", "sphere", "--seed", "-1"],
     "--seed must be at least 0, not -1"),
    (["coeffs", "--frame", "sphere", "--point", SPHERE_PT, "--mu", "0.5",
      "--omega", "0", "--seed", "-3"], "--seed must be at least 0, not -3"),
    (["sweep", "--frame", "sphere", "--seed", "-1"],
     "--seed must be at least 0, not -1"),
    (["holonomy", "--seed", "-1"], "--seed must be at least 0, not -1"),
    (["holonomy", "--radius", "0"], "--radius must be positive, not 0.0"),
    (["holonomy", "--radius", "-1"], "--radius must be positive, not -1.0"),
    (["holonomy", "--frame", "constant", "--radius", "0"],
     "--radius must be positive, not 0.0"),
    # A frame id rejects a NaN or infinite parameter before any
    # evaluation.
    (["conservation", "--frame", "ellipsoid", "--a", "nan"],
     "ellipsoid semi-axes must be finite numbers, not (nan, 1.0, 1.0)"),
    (["conservation", "--frame", "ellipsoid", "--a", "inf"],
     "ellipsoid semi-axes must be finite numbers, not (inf, 1.0, 1.0)"),
    (["conservation", "--frame", "paraboloid", "--a", "nan"],
     "paraboloid coefficients must be finite numbers, not (nan, 2.0)"),
    (["coeffs", "--frame", "ellipsoid", "--a", "nan", "--point",
      "1,0.2,0.3", "--mu", "0.3", "--omega", "1"],
     "ellipsoid semi-axes must be finite numbers"),
    (["coeffs", "--frame", "sphere", "--mu", "0.5", "--omega", "0"],
     "provide --point or --rho"),
    (["sweep", "--frame", "sphere", "--omega-count", "0"],
     "angular counts must be >= 1"),
    # Each count one above its bound, refused before any allocation.
    (["sweep", "--frame", "sphere", "--mu-count", "1001"],
     "angular counts must be at most 1000"),
    (["sweep", "--frame", "sphere", "--omega-count", "1001"],
     "angular counts must be at most 1000"),
    (["sweep", "--frame", "sphere", "--x=0.5:1.5:101", "--y=0:1:9901",
      "--mu-count", "1", "--omega-count", "1"],
     "sweep of 1000001 states exceeds the bound of 1000000"),
    (["holonomy", "--steps", "1000001"], "--steps must be at most 1000000"),
])
def test_out_of_range_flag_exits_2(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("error, code", [
    ("OutOfRange", 2), ("LeftDomain", 3), ("EvaluationFailure", 3),
    ("NotOrthonormal", 3),
])
@pytest.mark.parametrize("command, target", [
    ("verify", "run_checks"), ("conservation", "sampled_conservation"),
    ("holonomy", "parallel_transport_holonomy"),
])
def test_main_maps_each_error_to_its_exit_code(capsys, monkeypatch, error,
                                               code, command, target):
    # The commands raise; main alone prints the error and picks the
    # code: 2 for OutOfRange, a flag out of range, and 3 for any other
    # error, a failed evaluation.
    import framestream
    import framestream.cli as cli

    def fails(*args, **kwargs):
        raise getattr(framestream, error)("the message")

    monkeypatch.setattr(cli, target, fails)
    argv = [command] + (["--frame", "sphere"] if command == "conservation"
                        else [])
    assert run(capsys, argv) == (code, "", "error: the message\n")


def test_holonomy_bad_fd_step_exits_2(capsys):
    rc, out, err = run(capsys, ["holonomy", "--fd-step", "1"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "fd_step must lie in" in err


def test_verify_unknown_check_exits_2(capsys):
    rc, out, err = run(capsys, ["verify", "--check", "nosuch"])
    assert rc == 2 and out == ""
    assert "unknown check 'nosuch'" in err


def test_verify_form_equivalence_is_no_check(capsys):
    # The row is gone: naming it is a bad flag, and the error lists the
    # seven checks that remain.
    rc, out, err = run(capsys, ["verify", "--check", "form-equivalence"])
    assert rc == 2 and out == ""
    assert err == ("error: unknown check 'form-equivalence'; checks are "
                   "catalog-agreement, oracle-agreement, frame-identities, "
                   "homothety, conservation-trichotomy, holonomy-convergence, "
                   "kb-transform-residual\n")
    with pytest.raises(OutOfRange, match="^unknown check 'form-equivalence'"):
        run_checks(check_filter="form-equivalence")
    # "form" still matches, inside "transform".
    rc, out, _ = run(capsys, ["verify", "--check", "form", "--no-timestamp"])
    assert rc == 0
    assert [check["name"] for check in json.loads(out)["checks"]] == [
        "kb-transform-residual"]


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


@pytest.mark.parametrize("steps", ["6", "5", "0", "-2"])
def test_holonomy_steps_below_minimum_exit_2(capsys, steps):
    rc, out, err = run(capsys, ["holonomy", "--steps", steps,
                                "--no-timestamp"])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "at least 7" in err


def test_sweep_axis_count_above_the_bound_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--frame", "sphere", "--x=0:1:1000001"])
    assert info.value.code == 2
    assert "axis count must be at most 1000000" in capsys.readouterr().err


def test_holonomy_minimum_steps_runs(capsys):
    rc, out, _ = run(capsys, ["holonomy", "--steps", "7", "--no-timestamp"])
    assert rc == 0
    assert json.loads(out)["holonomy"]["steps"] == 7


@pytest.mark.parametrize("argv", [
    ["holonomy", "--theta", "nan"],
    ["holonomy", "--radius", "nan"],
    ["holonomy", "--frame", "constant", "--radius", "nan"],
    ["verify", "--check", "holonomy", "--theta", "nan"],
])
def test_non_finite_loop_exits_3(capsys, argv):
    rc, out, err = run(capsys, argv + ["--no-timestamp"])
    assert rc == 3 and out == ""
    assert "error: loop vertex 0 is not finite" in err


def test_frame_choices_and_overrides_read_the_registry(capsys):
    from framestream.cli import FRAME_NAMES
    from framestream.frames import BUILTIN_FRAMES
    assert FRAME_NAMES == tuple(BUILTIN_FRAMES)
    # --a/--b/--c replace the default id's fields of those names and are
    # ignored by frames without them.
    argv = ["coeffs", "--point", "1.1,0.4,0.7", "--mu", "0.3", "--omega",
            "1.2", "--no-timestamp"]
    default = run(capsys, argv + ["--frame", "ellipsoid"])[1]
    explicit = run(capsys, argv + ["--frame", "ellipsoid", "--a", "2",
                                   "--b", "1", "--c", "1"])[1]
    changed = run(capsys, argv + ["--frame", "ellipsoid", "--c", "3"])[1]
    assert default == explicit != changed
    sphere = run(capsys, argv + ["--frame", "sphere"])[1]
    assert run(capsys, argv + ["--frame", "sphere", "--a", "5"])[1] == sphere


def test_parser_built_once_keeps_the_sweep_default_axes(capsys):
    # The parser is built once per process, so every sweep shares its
    # default --x/--y/--z arrays.  Defaults, then explicit axes, then
    # defaults again print what a freshly built parser prints for each.
    import framestream.cli as cli

    default = ["sweep", "--frame", "sphere", "--no-timestamp"]
    explicit = default + ["--x=0.4:1.3:3", "--y=0.3:0.8:2",
                          "--z=-0.5:0.7:2", "--format", "csv"]
    argvs = (default, explicit, default)

    def fresh(argv):
        cli._build_parser.cache_clear()
        return run(capsys, argv)

    want = [fresh(argv) for argv in argvs]
    cli._build_parser.cache_clear()
    assert [run(capsys, argv) for argv in argvs] == want
    assert cli._build_parser.cache_info().misses == 1
    assert want[0] == want[2] != want[1] and want[0][0] == 0
