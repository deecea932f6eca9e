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

from framestream import DiffConfig, verification

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
