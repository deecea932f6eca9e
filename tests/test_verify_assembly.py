"""verify's one coefficient assembly per pass: the rows that read a_mu
and a_omega (catalog, oracle and homothety) get them from one
checked_terms call on all their jet rows of every frame, with the bits
of each row's own calls and the errors of checked_terms, stage by
stage.  The rows that read no terms (frame-identities and conservation)
read their own rows of the pass-wide jet, frame by frame, with the bits
of each frame's own jet."""
import numpy as np
import pytest

from framestream import (DiffConfig, FramePoint, FramestreamError,
                         frame_jet, run_checks, verification)
from framestream.errors import NotOrthonormal
from framestream.streaming import checked_terms
from framestream.verification import _SCALES, _Sampled, _rows

ENGINES = [DiffConfig(), DiffConfig(engine="fd")]


def _own_terms(name, jet, angles):
    """(a_mu, a_omega) at a row's jet rows from the row's own calls: one
    at its states, and for homothety one more at their scaled points."""
    if name != "homothety":
        return checked_terms(jet, *angles)[:2]
    count = len(angles[0])
    base = checked_terms(_rows(jet, slice(0, count)), *angles)[:2]
    scaled = checked_terms(_rows(jet, slice(count, None)), *(
        np.repeat(a, len(_SCALES)) for a in angles))[:2]
    return [np.concatenate(pair) for pair in zip(base, scaled)]


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("seed", [7, 11])
def test_one_assembly_keeps_the_bits_of_each_rows_calls(seed, cfg,
                                                        monkeypatch):
    seen = []
    checks = dict(verification._CHECKS)
    for name, (tol, report_only, row) in verification._CHECKS.items():
        if not isinstance(row, _Sampled) or not row.terms:
            continue

        # No default for terms: the rows must be handed them.
        def spy(fid, field, points, omega, angles, jet, extra, terms,
                name=name, residuals=row.residuals):
            want = _own_terms(name, jet, angles)
            seen.append((name, fid, [a.tobytes() for a in terms]
                         == [a.tobytes() for a in want]))
            return residuals(fid, field, points, omega, angles, jet, extra,
                             terms)
        checks[name] = tol, report_only, row._replace(residuals=spy)
    monkeypatch.setattr(verification, "_CHECKS", checks)
    run_checks(seed=seed, cfg=cfg)
    frames = list(verification.default_frames().values())
    homothetic = [fid for fid in frames
                  if verification.frame_spec(fid).homothetic]
    assert [(name, fid) for name, fid, _ in seen] == [
        (name, fid) for fid in frames
        for name in ("catalog-agreement", "oracle-agreement", "homothety")
        if name != "homothety" or fid in homothetic]
    assert all(same for *_, same in seen)


def _first_row(name):
    """The first row of the sphere's stacked jet that the check ``name``
    reads, with every check run."""
    start = 0
    for check, (_, _, row) in verification._CHECKS.items():
        if check == name:
            return start
        if isinstance(row, _Sampled):
            start += len(verification._jet_points(row,
                                                  np.zeros((row.count, 3))))
    raise KeyError(name)


# Row 5 of homothety's scaled points, past its 20 states.
SCALED_ROW = _first_row("homothety") + 20 + 5
CATALOG_ROW = _first_row("catalog-agreement") + 3


def _mutated_jets(monkeypatch, changes, frame=None):
    """Each stacked frame jet of verify, or only that of ``frame``, with
    changes[row](jet, row) applied to the listed rows."""
    original = verification.frame_jet

    def mutated(field, points, *args):
        jet = original(field, points, *args)
        if np.ndim(points) == 2 and frame in (
                None, verification.frame_spec(field.fid).name):
            for row, change in changes.items():
                change(jet, row)
        return jet
    monkeypatch.setattr(verification, "frame_jet", mutated)


def _tilted_t(jet, row):
    jet.t[row] *= 1.5


def _nan_jn(jet, row):
    jet.jn[row] = np.nan


def test_a_failing_state_of_a_later_row_raises_its_own_error(monkeypatch):
    tilted = []

    def tilt(jet, row):
        _tilted_t(jet, row)
        tilted.append((jet.n[row], jet.t[row], jet.b[row]))
    _mutated_jets(monkeypatch, {SCALED_ROW: tilt})
    with pytest.raises(FramestreamError) as info:
        run_checks(frame_filter="sphere", seed=7)
    with pytest.raises(FramestreamError) as want:
        FramePoint.loose(*tilted[0])
    assert (type(info.value), str(info.value)) == (type(want.value),
                                                   str(want.value))


def test_every_rows_frame_check_comes_before_any_breakdown(monkeypatch):
    # The one assembly checks the frames of all its rows before any
    # breakdown: the tilted frame at homothety's scaled row fails ahead
    # of the NaN Jacobian at an earlier catalog row.
    _mutated_jets(monkeypatch, {CATALOG_ROW: _nan_jn,
                                SCALED_ROW: _tilted_t})
    with pytest.raises(NotOrthonormal) as info:
        run_checks(frame_filter="sphere", seed=7)
    assert (type(info.value), str(info.value)) == (
        NotOrthonormal, "t is not unit within 1e-08")


def test_each_terms_rows_extra_points_repeat_whole_states():
    # A terms row's extra points read the angles of their states,
    # repeated in turn, so there must be a whole number of them each.
    points = np.ones((7, 3))
    for name, (_, _, row) in verification._CHECKS.items():
        if not isinstance(row, _Sampled):
            continue
        assert row.terms in (False, True), name
        if row.terms and row.extra_points is not None:
            assert len(row.extra_points(points)) % len(points) == 0, name


def test_a_later_frames_frame_check_comes_before_an_earlier_breakdown(
        monkeypatch):
    # One assembly serves every frame: the tilted frame in the
    # ellipsoid's catalog rows fails ahead of the NaN Jacobian in the
    # sphere's, though the sphere's jet comes first.
    frames = list(verification.default_frames())
    assert frames.index("sphere") < frames.index("ellipsoid")
    _mutated_jets(monkeypatch, {CATALOG_ROW: _nan_jn}, "sphere")
    _mutated_jets(monkeypatch, {CATALOG_ROW: _tilted_t}, "ellipsoid")
    with pytest.raises(NotOrthonormal) as info:
        run_checks(seed=7)
    assert str(info.value) == "t is not unit within 1e-08"


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_a_full_pass_assembles_the_coefficients_once(cfg, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(len(args[0].n))
        return checked_terms(*args)
    monkeypatch.setattr(verification, "checked_terms", counted)
    run_checks(seed=7, cfg=cfg)
    # catalog 60 and oracle 40 states on each of the 7 frames, and
    # homothety 20 states with 3 scaled points each on the 4 homothetic
    # frames.
    assert calls == [7 * (60 + 40) + 4 * 20 * (1 + len(_SCALES))]


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
def test_pass_wide_rows_keep_the_bits_of_per_frame_calls(cfg, monkeypatch):
    # The rows of the pass-wide jet after the terms rows: each frame's
    # rows of a check that reads no terms give its residuals the bits of
    # that frame's own jet at its states.
    seen = []
    checks = dict(verification._CHECKS)
    for name, (tol, report_only, row) in verification._CHECKS.items():
        if not isinstance(row, _Sampled) or row.terms:
            continue

        def spy(*args, name=name, residuals=row.residuals):
            seen.append((name, args, residuals(*args)))
            return seen[-1][2]
        checks[name] = tol, report_only, row._replace(residuals=spy)
    monkeypatch.setattr(verification, "_CHECKS", checks)
    run_checks(seed=7, cfg=cfg)
    assert [(name, args[0]) for name, args, _ in seen] == [
        (name, fid) for fid in verification.default_frames().values()
        for name in ("frame-identities", "conservation-trichotomy")]
    monkeypatch.undo()
    for name, args, found in seen:
        fid, field, points, omega, angles, jet, extra = args
        assert angles is None
        own = verification._CHECKS[name][2].residuals(
            fid, field, points, omega, None, frame_jet(field, points, cfg),
            extra)
        assert found.tobytes() == own.tobytes(), (name, fid)
