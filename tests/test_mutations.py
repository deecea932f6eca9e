"""The mutation matrix of ``verify``: which checks fail when one part of
the computation is made wrong.

Each row applies one mutation with ``monkeypatch`` at the binding that
``verify`` reads and pins the exact set of checks that fail at seed 7
on both engines.  A check that stops failing under a mutation it used
to catch has gone blind; a mutation that starts failing a further
check is a sharper check, and its row changes with it.
"""
import dataclasses

import numpy as np
import pytest

from framestream import (DiffConfig, Sphere, catalog, curvature, streaming,
                         verification)

ENGINES = [DiffConfig(), DiffConfig(engine="fd")]


def _scaled_jacobians(factor):
    def mutate(jet):
        return dataclasses.replace(jet, jn=jet.jn * factor,
                                   jt=jet.jt * factor, jb=jet.jb * factor)
    return mutate


def _transposed_jn(jet):
    return dataclasses.replace(jet, jn=np.swapaxes(jet.jn, -1, -2))


# name -> (mutation of every frame jet verify makes, checks that fail).
JET_MUTATIONS = {
    "unmutated": (None, set()),
    "jacobians-1e-4": (_scaled_jacobians(1.0 + 1e-4),
                       {"catalog-agreement", "oracle-agreement"}),
    "jacobians-1e-8": (_scaled_jacobians(1.0 + 1e-8), set()),
    "jn-transposed": (_transposed_jn,
                      {"catalog-agreement", "oracle-agreement",
                       "frame-identities", "conservation-trichotomy"}),
}


def _failing(cfg):
    return {result.name for result in verification.run_checks(seed=7,
                                                               cfg=cfg)
            if result.status == "fail"}


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("row", sorted(JET_MUTATIONS))
def test_jet_mutation_fails_exactly_its_checks(row, cfg, monkeypatch):
    mutate, want = JET_MUTATIONS[row]
    if mutate is not None:
        frame_jet = verification.frame_jet

        def mutated(*args):
            return mutate(frame_jet(*args))

        monkeypatch.setattr(verification, "frame_jet", mutated)
    assert _failing(cfg) == want


# --- mutations of the coefficient assembly, the catalog and holonomy,
# each a function of the monkeypatch that applies it.

def _wrap(monkeypatch, module, name, change):
    """module.name replaced by change(original(...)), where verify reads
    it."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: change(original(*args)))


def _tilt_dropped(monkeypatch):
    # a_omega without omega_tilt, and a tilt of 0, so that the breakdown
    # still sums.
    def change(terms):
        tilt = terms[6]
        return (terms[0], terms[1] - tilt, *terms[2:6], tilt * 0.0)
    _wrap(monkeypatch, streaming, "coefficient_terms", change)


def _winding_flipped(monkeypatch):
    _wrap(monkeypatch, streaming, "frame_scalars",
          lambda k: k._replace(winding=-k.winding))


def _kn_swapped(monkeypatch):
    _wrap(monkeypatch, streaming, "frame_scalars",
          lambda k: k._replace(kn_t=k.kn_b, kn_b=k.kn_t))


def _surface_curve_moved(monkeypatch):
    # a_mu is unchanged; only its split into the two terms moves.
    _wrap(monkeypatch, streaming, "_mu_terms",
          lambda terms: (terms[0] + 1e-3, terms[1] - 1e-3))


def _sphere_catalog_winding(monkeypatch):
    aux, errata, printed = catalog._ENTRIES[Sphere]

    def mutated(fid, x, y, z):
        values = aux(fid, x, y, z)
        return (*values[:8], values[8] + 1e-3)
    monkeypatch.setitem(catalog._ENTRIES, Sphere, (mutated, errata, printed))


def _holonomy_halfway(monkeypatch):
    # Each step rotates its normal only halfway to the next one.
    # Dropping a single step's rotation out of 1000 fails nothing
    # instead: the projection onto the next tangent plane after every
    # step absorbs it.
    step = curvature._step_rotations

    def halfway(prev, nxt):
        mid = prev + nxt
        return step(prev, mid / np.linalg.norm(mid, axis=1)[:, None])
    monkeypatch.setattr(curvature, "_step_rotations", halfway)


# name -> (mutation, checks that fail).
MUTATIONS = {
    "omega-tilt-dropped": (_tilt_dropped,
                           {"catalog-agreement", "oracle-agreement"}),
    "winding-flipped": (_winding_flipped,
                        {"catalog-agreement", "oracle-agreement"}),
    "kn-swapped": (_kn_swapped,
                   {"catalog-agreement", "oracle-agreement"}),
    "surface-to-curve-1e-3": (_surface_curve_moved, set()),
    "sphere-catalog-winding-1e-3": (_sphere_catalog_winding,
                                    {"catalog-agreement"}),
    "holonomy-halfway-rotations": (_holonomy_halfway,
                                   {"holonomy-convergence"}),
}


@pytest.mark.parametrize("cfg", ENGINES, ids=["dual", "fd"])
@pytest.mark.parametrize("row", sorted(MUTATIONS))
def test_mutation_fails_exactly_its_checks(row, cfg, monkeypatch):
    mutate, want = MUTATIONS[row]
    mutate(monkeypatch)
    assert _failing(cfg) == want


def test_halfway_holonomy_rotations_miss_by_1_77(monkeypatch):
    _holonomy_halfway(monkeypatch)
    (result,) = verification.run_checks(check_filter="holonomy")
    assert result.status == "fail"
    assert round(result.max_residual, 2) == 1.77
