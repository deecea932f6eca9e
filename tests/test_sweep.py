"""The batched sweep/coeffs path against a per-state reference.

The reference evaluates every state through ``streaming_coefficients``
and renders one record dict per state in the report layout, so the
one-jet-per-point table path must reproduce it byte for byte.
"""
import math

import numpy as np
import pytest

from framestream import (DiffConfig, builtin_frame, frame_jet,
                         streaming_coefficients)
from framestream import cli
from framestream.cli import _emit_json, _fmt, main
from framestream.streaming import angle_arrays, coefficient_terms
from framestream.verification import default_frames, random_states

FRAMES = tuple(default_frames())
CSV_HEADER = ("x", "y", "z", "mu", "omega", "a_mu", "a_omega",
              "mu_surface", "mu_curve_n", "omega_curve", "omega_wind")
AXES = {"x": (0.4, 1.3, 2), "y": (0.3, 0.8, 2), "z": (-0.5, 0.7, 2)}
MU_COUNT, OMEGA_COUNT = 3, 4


def _reference(name, points, mus, omegas, engine, fmt):
    field = builtin_frame(default_frames()[name])
    cfg = DiffConfig(engine=engine)
    records = []
    for r in points:
        for mu in mus:
            for omega in omegas:
                coeffs = streaming_coefficients(field, r, mu, omega, cfg)
                bd = coeffs.breakdown
                records.append({
                    "x": float(r[0]), "y": float(r[1]), "z": float(r[2]),
                    "mu": float(mu), "omega": float(omega),
                    "a_mu": coeffs.a_mu, "a_omega": coeffs.a_omega,
                    "mu_surface": bd["mu_surface"],
                    "mu_curve_n": bd["mu_curve_n"],
                    "omega_curve": bd["omega_curve"],
                    "omega_wind": bd["omega_wind"],
                    "omega_tilt": bd["omega_tilt"]})
    if fmt == "csv":
        lines = [",".join(CSV_HEADER)]
        lines += [",".join(_fmt(rec[c]) for c in CSV_HEADER)
                  for rec in records]
        return "\n".join(lines) + "\n"
    doc = {"version": 1, "records": records,
           "meta": {"seed": 0, "engine": engine}}
    return _emit_json(doc) + "\n"


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    # Several chunks per report, the last one partial.
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("engine", ("dual", "fd"))
@pytest.mark.parametrize("name", FRAMES)
def test_sweep_matches_per_state_reference(name, engine, fmt, tmp_path):
    out = tmp_path / "sweep.out"
    argv = ["sweep", "--frame", name, "--engine", engine, "--format", fmt,
            "--mu-count", str(MU_COUNT), "--omega-count", str(OMEGA_COUNT),
            "--no-timestamp", "--out", str(out)]
    argv += [f"--{k}={lo!r}:{hi!r}:{n}" for k, (lo, hi, n) in AXES.items()]
    assert main(argv) == 0
    axes = [np.linspace(*AXES[k]) for k in "xyz"]
    points = [np.array([x, y, z]) for x in axes[0] for y in axes[1]
              for z in axes[2]]
    nodes = np.polynomial.legendre.leggauss(MU_COUNT)[0]
    omegas = [2.0 * math.pi * j / OMEGA_COUNT for j in range(OMEGA_COUNT)]
    want = _reference(name, points, [float(m) for m in nodes], omegas,
                      engine, fmt)
    assert out.read_text() == want


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("engine", ("dual", "fd"))
@pytest.mark.parametrize("name", FRAMES)
def test_coeffs_matches_per_state_reference(name, engine, fmt, capsys):
    points = ["0.7,0.4,0.3", "1.1,-0.2,0.5"]
    argv = ["coeffs", "--frame", name, "--engine", engine, "--format", fmt,
            "--mu", "-0.35", "--omega", "2.2", "--no-timestamp"]
    for p in points:
        argv += ["--point", p]
    assert main(argv) == 0
    out = capsys.readouterr().out
    want = _reference(name, [np.array([float(v) for v in p.split(",")])
                             for p in points], [-0.35], [2.2], engine, fmt)
    assert out == want


@pytest.mark.parametrize("argv", [
    ["sweep", "--frame", "sphere", "--x=1:0:2", "--y=0:0:1", "--z=1:1:1"],
    ["sweep", "--frame", "sphere", "--x=1:nan:2", "--y=0:0:1",
     "--z=1:1:1"],
    ["coeffs", "--frame", "cylindrical-i", "--point", "1,0,0",
     "--point", "0,0,1", "--mu", "0.2", "--omega", "1"],
    ["coeffs", "--frame", "sphere", "--point", "1,0,1", "--mu", "1.5",
     "--omega", "1"],
])
def test_failing_state_writes_no_file(argv, tmp_path, capsys):
    out = tmp_path / "report.out"
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_failing_point_is_named(capsys):
    rc = main(["sweep", "--frame", "sphere", "--x=1:0:2", "--y=0:0:1",
               "--z=1:1:1", "--no-timestamp"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert "point (0,0,1)" in err


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("engine", ("dual", "fd"))
@pytest.mark.parametrize("name", FRAMES)
def test_array_assembly_is_bitwise_scalar_assembly(name, engine):
    fid = default_frames()[name]
    field = builtin_frame(fid)
    cfg = DiffConfig(engine=engine)
    rng = np.random.default_rng(5)
    nodes = np.polynomial.legendre.leggauss(8)[0]
    grid = [(float(m), 2.0 * math.pi * j / 16) for m in nodes
            for j in range(16)]
    for r, _, _ in random_states(fid, 5, rng):
        scattered = [(float(rng.uniform(-0.99, 0.99)),
                      float(rng.uniform(0.0, 2.0 * math.pi)))
                     for _ in range(32)]
        states = grid + scattered
        jet = frame_jet(field, r, cfg)
        mu, s, c, sn = angle_arrays([m for m, _ in states],
                                    [o for _, o in states])
        batched = coefficient_terms(jet, mu, s, c, sn)
        for k in range(len(states)):
            single = coefficient_terms(jet, float(mu[k]), float(s[k]),
                                       float(c[k]), float(sn[k]))
            assert all(isinstance(v, float) for v in single)
            assert np.array_equal(_bits([col[k] for col in batched]),
                                  _bits(single)), (name, r, states[k])


def test_row_format_matches_fmt_on_special_values():
    row = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324,
           1.0 / 3.0, -2.5e-300, 123456789012345678.0, 1.0)
    assert cli._CSV_ROW % row == ",".join(_fmt(v) for v in row)
