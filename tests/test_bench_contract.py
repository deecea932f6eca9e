"""What the benchmark's tracer (bench/tracing.py) needs from the package.

The tracer looks up functions by name, patches ``builtin_frame`` at
every module that binds it, and wraps each frame field's ``raw``
instance attribute.  A refactor that breaks one of these would only
show when the benchmark runs with ``--trace 1``; this test runs one
traced pass instead.  It imports the tracer and changes nothing under
``bench/``.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from framestream import (DiffConfig, catalog, cli, frames, streaming,
                         verification)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_traced_function_resolves(tracing):
    for (home, name), span in tracing._SPANS.items():
        assert callable(getattr(home, name, None)), span


def test_traced_verify_pass_counts_raw_calls(tracing, tmp_path, capsys):
    builtin = frames.builtin_frame
    tracer = tracing.Tracer()
    out = tmp_path / "verify.json"
    with tracer.traced_pass():
        rc = cli.main(["verify", "--frame", "sphere", "--check", "catalog",
                       "--no-timestamp", "--out", str(out)])
    assert rc == 0 and out.stat().st_size > 0
    metrics = tracer.layer_metrics(out.stat().st_size, 0.0)
    assert metrics["frames.raw.dual.calls"] > 0
    assert metrics["derivatives.frame_jet.dual.calls"] > 0
    assert metrics["catalog.catalog_coefficients.calls"] > 0
    # The wrappers are gone again after the pass.
    assert frames.builtin_frame is builtin
    assert "raw" in vars(frames.builtin_frame(frames.Sphere()))
    capsys.readouterr()


def test_traced_frame_identities_evaluates_one_stacked_jet(tracing, capsys):
    # The 40 sphere states share one stacked frame jet, one raw call on
    # array Duals (a replay point by point would make 41), and every
    # identity reads the whole stack.
    tracer = tracing.Tracer()
    with tracer.traced_pass():
        rc = cli.main(["verify", "--frame", "sphere", "--check",
                       "frame-identities", "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 0
    metrics = tracer.layer_metrics(len(out.encode()), 0.0)
    assert metrics["derivatives.frame_jet.dual.calls"] == 1
    assert metrics["frames.raw.dual.calls"] == 1
    assert metrics["derivatives.jet_reuse"] == 1.0


def test_traced_sweep_is_one_grid_pass(tracing, tmp_path, capsys):
    # The 100 grid points share one stacked frame jet, one raw call on
    # array Duals (a replay point by point would make 101), with one
    # frame check, FramePoint.loose on the whole stack, and no per-state
    # assembly.
    tracer = tracing.Tracer()
    out = tmp_path / "sweep.json"
    with tracer.traced_pass():
        rc = cli.main(["sweep", "--frame", "sphere", "--x=0.5:2.1:5",
                       "--y=0.7:2.3:5", "--z=-1.2:0:4", "--mu-count", "2",
                       "--omega-count", "4", "--no-timestamp",
                       "--out", str(out)])
    assert rc == 0
    metrics = tracer.layer_metrics(out.stat().st_size, 0.0)
    assert metrics["derivatives.frame_jet.dual.calls"] == 1
    assert metrics["frames.raw.dual.calls"] == 1
    assert metrics["frames.FramePoint.loose.calls"] == 1
    assert metrics["streaming.coefficients_from_jet.calls"] == 0
    capsys.readouterr()


# Per-layer counts of one traced `verify --seed 7`.  Dual jets, one raw
# call each: one stacked jet per frame (7) at the states of every
# sampled check (catalog, oracle, identities, homothety with its scaled
# points, and conservation), and the kb-transform point.  Raw
# calls on float arrays: one per frame for all of its ray oracle probes
# (7) and one per holonomy loop (3), each loop one transport call.  The
# catalog and the ray oracle take each frame's states as one stack.
VERIFY_SEED_7_COUNTS = {
    "derivatives.frame_jet.dual.calls": 8,
    "frames.raw.dual.calls": 8,
    "frames.raw.float.calls": 10,
    "catalog.catalog_coefficients.calls": 7,
    "verification.ray_oracle.calls": 7,
    "curvature.parallel_transport_holonomy.calls": 3,
}


def test_traced_verify_seed_7_counts_are_pinned(tracing, capsys):
    tracer = tracing.Tracer()
    with tracer.traced_pass():
        rc = cli.main(["verify", "--seed", "7", "--no-timestamp"])
    out = capsys.readouterr().out
    assert rc == 0
    metrics = tracer.layer_metrics(len(out.encode()), 0.0)
    assert {name: metrics[name]
            for name in VERIFY_SEED_7_COUNTS} == VERIFY_SEED_7_COUNTS


# Per-state counts of the one-state path that the scatter workload runs:
# the dual jet is one raw call on Duals; the fd jet 13 raw calls on
# floats (the point and 12 stencil probes) and the ray 5; each of the two
# streaming_coefficients calls checks its frame once.  One state is
# assembled from its point's flat parts, with no frame jet, so the traced
# coefficients_from_jet sees none of it; the test counts the assembly
# itself.  A speed-up that skips a probe or a check moves one of these.
ONE_STATE_COUNTS = {
    "frames.raw.float.calls": 18,
    "frames.raw.dual.calls": 1,
    "frames.FramePoint.loose.calls": 2,
    "streaming.coefficients_from_jet.calls": 0,
    "catalog.catalog_coefficients.calls": 1,
    "verification.ray_oracle.calls": 1,
}


def test_traced_one_state_pass_counts_every_probe_and_check(tracing,
                                                            monkeypatch):
    assembly = streaming._state_coefficients
    assembled = []

    def counted(*args):
        assembled.append(args)
        return assembly(*args)

    monkeypatch.setattr(streaming, "_state_coefficients", counted)
    rng = np.random.default_rng(7)
    fd = DiffConfig(engine="fd")
    tracer = tracing.Tracer()
    states = 0
    with tracer.traced_pass():
        for fid in verification.default_frames().values():
            field = frames.builtin_frame(fid)
            for r, mu, omega in verification.random_states(fid, 1, rng):
                dual = streaming.streaming_coefficients(field, r, mu, omega)
                assert len(assembled) == 2 * states + 1
                streaming.streaming_coefficients(field, r, mu, omega, fd)
                catalog.catalog_coefficients(fid, r, mu, omega)
                verification.ray_oracle(field, r, frames.direction_from_angles(
                    dual.frame, mu, omega))
                states += 1
    assert states == 7
    # Each streaming_coefficients call assembles once: two per state.
    assert len(assembled) == 2 * states
    metrics = tracer.layer_metrics(0, 0.0)
    assert {name: metrics[name] / states
            for name in ONE_STATE_COUNTS} == ONE_STATE_COUNTS
