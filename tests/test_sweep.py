"""The batched sweep/coeffs path against a per-state reference.

The reference evaluates every state through ``streaming_coefficients``
and renders one record dict per state in the report layout, so the
one-pass grid path, one stacked jet for all points, must reproduce it
byte for byte.
"""
import argparse
import hashlib
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
    return _render(records, engine, fmt)


def _render(records, engine, fmt):
    """The report of the record dicts, each value through _fmt."""
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
])
def test_failing_state_writes_no_file(argv, tmp_path, capsys):
    out = tmp_path / "report.out"
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_out_of_range_mu_writes_no_file(tmp_path, capsys):
    # A mu outside [-1, 1] is a bad flag: exit 2, before any evaluation.
    out = tmp_path / "report.out"
    assert main(["coeffs", "--frame", "sphere", "--point", "1,0,1", "--mu",
                 "1.5", "--omega", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: mu = 1.5 outside [-1, 1]\n"


# The grid pass fails as a whole; its points are replayed one by one, so
# the error names the first failing point as evaluating the points in
# turn names it.
@pytest.mark.parametrize("argv, err", [
    (["sweep", "--frame", "sphere", "--x=-1:1:3", "--y=0:0:1",
      "--z=1:1:1"],
     "error: frame evaluation failed at point (0,0,1): field raised at "
     "probe (0.0, 0.0, 1.0)\n"),
    (["coeffs", "--frame", "sphere", "--point", "nan,0,1", "--mu", "0.2",
      "--omega", "1"],
     "error: frame evaluation failed at point (nan,0,1): n must be a "
     "finite 3-vector\n"),
    (["coeffs", "--frame", "sphere", "--point", "1,0,1", "--point", "0,0,1",
      "--mu", "0.2", "--omega", "1"],
     "error: frame evaluation failed at point (0,0,1): field raised at "
     "probe (0.0, 0.0, 1.0)\n"),
], ids=["sweep-middle-pole", "coeffs-nan", "coeffs-second-pole"])
def test_grid_failure_names_the_first_failing_point(argv, err, tmp_path,
                                                    capsys):
    out = tmp_path / "report.out"
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr() == ("", err)


def test_grid_failure_that_no_point_repeats_is_reported(monkeypatch, tmp_path,
                                                  capsys):
    # A grid pass that fails where no point fails on its own still exits
    # 3 with the grid's error and writes nothing.
    from framestream import InconsistentBreakdown
    checked = cli.checked_terms

    def grid_fails(jet, mu, *angles):
        if mu.ndim == 2:
            raise InconsistentBreakdown("a_mu breakdown inconsistent")
        return checked(jet, mu, *angles)

    monkeypatch.setattr(cli, "checked_terms", grid_fails)
    out = tmp_path / "report.out"
    assert main(["sweep", "--frame", "sphere", "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr() == (
        "", "error: frame evaluation failed: a_mu breakdown inconsistent\n")


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


def _crafted_table(n_points=3, n_directions=5):
    """n_points points by n_directions directions, at most 15 rows; by
    default 3 by 5, three chunks of 7 rows, the last one partial.  The
    computed values are ones that a dedupe keyed on anything but the
    bits would render wrong: +-0.0, 5e-324 and neighbours by one ulp in
    the first row, and values repeated within and across chunks."""
    rng = np.random.default_rng(3)
    points = rng.uniform(-2.0, 2.0, size=(n_points, 3))
    mus = rng.uniform(-0.9, 0.9, size=n_directions).tolist()
    omegas = rng.uniform(0.0, 6.0, size=n_directions).tolist()
    values = rng.uniform(-2.0, 2.0, size=(15, 7))
    x = float(values[1, 0])
    values[0, :2] = 0.0, -0.0
    values[1, 1] = np.nextafter(x, math.inf)
    values[2, :4] = 5e-324, 1.0 / 3.0, 1e16, 123456789012345678.0
    values[3:5] = -0.0
    values[6, 5] = values[7, 0] = values[7, 3] = 1.0 / 3.0
    values[8:14, 2] = 0.0
    values[0, 2:6] = 5e-324, x, np.nextafter(x, -math.inf), -5e-324
    rows = values[:n_points * n_directions]
    return points, mus, omegas, tuple(rows.T.reshape(7, n_points,
                                                     n_directions))


def _crafted_args(fmt):
    return argparse.Namespace(format=fmt, seed=0, engine="dual",
                              no_timestamp=True)


def _crafted_text(points, mus, omegas, terms, fmt):
    """The table as _render writes one record dict per row."""
    records = [dict(zip(cli.TABLE_COLUMNS,
                        [*map(float, points[i]), mus[j], omegas[j],
                         *(float(t[i, j]) for t in terms)]))
               for i in range(len(points)) for j in range(len(mus))]
    return _render(records, "dual", fmt)


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_table_text_keys_each_value_on_its_bits(fmt):
    table = _crafted_table()
    got = "".join(cli._table_chunks(*table, _crafted_args(fmt)))
    assert got == _crafted_text(*table, fmt)


@pytest.mark.parametrize("fmt, extra", (("json", 2), ("csv", 1)))
def test_table_text_stays_chunked(fmt, extra):
    # One value chunk per _CHUNK_ROWS rows, the last partial; the
    # header, and in JSON the meta, come on their own.
    points, mus, omegas, terms = _crafted_table()
    chunks = list(cli._table_chunks(points, mus, omegas, terms,
                                    _crafted_args(fmt)))
    assert cli._CHUNK_ROWS == 7
    assert len(chunks) == math.ceil(15 / cli._CHUNK_ROWS) + extra


@pytest.mark.parametrize("fmt, extra", (("json", 2), ("csv", 1)))
@pytest.mark.parametrize("shape", ((1, 1), (7, 1), (2, 7)),
                         ids=("1-row", "7-rows", "14-rows"))
def test_table_text_at_chunk_boundaries(shape, fmt, extra):
    # A one-row table and tables of whole chunks only, where a row
    # separator left on the last row would show; the 15-row table with
    # its partial last chunk is the one the two tests above render.
    table = _crafted_table(*shape)
    chunks = list(cli._table_chunks(*table, _crafted_args(fmt)))
    assert len(chunks) == math.ceil(shape[0] * shape[1] / 7) + extra
    assert "".join(chunks) == _crafted_text(*table, fmt)


# sha256 and length of the benchmark's sweep report (sphere frame, a
# 5 x 5 x 4 grid whose origin the seed draws, 8 x 16 directions, no
# timestamp), as the per-point jets rendered it row by row.
SWEEP_STDOUT = {
    (7, "json"): (5924055, "9f9709a93cc8d70bfc7ac9dccc6a0e79"
                           "a9afbb6007c6236e504eb977404b5d97"),
    (7, "csv"): (2896680, "20961c8666eaa16434f1c6ed35d8b20b"
                          "a30cf89846713e8dcef684ce45d8afdb"),
    (11, "json"): (5939102, "fda99e2b6fa0b686346f1b8b04b7f132"
                            "94c7b9b78a90e37494aaaee548a5b40a"),
    (11, "csv"): (2911461, "6c354597c5c94737d709cd67a205b96e"
                           "718d969215ecf5e280128e58ee5d7f26"),
}


def _bench_sweep_argv(seed):
    rng = np.random.default_rng(seed)
    x0, y0 = (float(v) for v in rng.uniform(0.5, 1.5, size=2))
    z0 = float(rng.uniform(-1.5, 0.5))
    axes = ((x0, x0 + 1.6), (y0, y0 + 1.6), (z0, z0 + 1.2))
    argv = ["sweep", "--frame", "sphere"]
    for flag, (lo, hi), count in zip("xyz", axes, (5, 5, 4)):
        argv.append(f"--{flag}={lo!r}:{hi!r}:{count}")
    return argv + ["--mu-count", "8", "--omega-count", "16",
                   "--no-timestamp"]


@pytest.mark.parametrize("seed, fmt", sorted(SWEEP_STDOUT))
def test_bench_sweep_stdout_is_pinned_byte_for_byte(seed, fmt, capsys):
    assert main(_bench_sweep_argv(seed) + ["--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == \
        SWEEP_STDOUT[seed, fmt]


# sha256 and length of `sweep --engine fd` reports on a 3 x 2 x 3 grid
# with 3 x 5 directions, as the per-point fd jets rendered them before a
# stacked fd jet was one raw call on all its stencil probes.
SWEEP_FD_STDOUT = {
    ("ellipsoid", "json"): (113341, "beb0573e915e53b34b8eba946600b5d8"
                                    "9e2289d37602e636462181efaee8084b"),
    ("ellipsoid", "csv"): (51054, "d71095e099e5ed83b9b8eebb871e385c"
                                  "a0b43c599fa2cdb67a89b7ed295506b6"),
    ("graph", "json"): (114185, "0687b14c950c2e527116bad250ade8f5"
                                "f35de3841eccff465dc82b554df2e62a"),
    ("graph", "csv"): (51901, "7a79cf2f804a283234153c851b6d1ce3"
                              "77a5d2a497378179282d41aee42034ac"),
}


@pytest.mark.parametrize("name, fmt", sorted(SWEEP_FD_STDOUT))
def test_fd_sweep_stdout_is_pinned_byte_for_byte(name, fmt, capsys):
    assert main(["sweep", "--x=0.4:1.3:3", "--y=0.3:0.8:2",
                 "--z=-0.5:0.7:3", "--mu-count", "3", "--omega-count", "5",
                 "--frame", name, "--format", fmt, "--no-timestamp",
                 "--engine", "fd"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == \
        SWEEP_FD_STDOUT[name, fmt]
