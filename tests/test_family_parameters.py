"""verify's catalog, oracle and frame-identity checks on frames of the
built-in families away from their registry defaults.

verify runs each family at one parameter set, where a raw that misreads
a parameter can still agree with the catalog: the registry ellipsoid is
(2, 1, 1), and there b = c.  These states come from random_states of a
triaxial ellipsoid, a paraboloid with a negative coefficient and a
second graph, and each check keeps verify's tolerance.  There, too, a
stacked jet's scalars and terms have the bits of the per-point calls."""
import math

import numpy as np
import pytest

from framestream import (DiffConfig, Ellipsoid, Graph, Paraboloid,
                         builtin_frame, frame_jet, verification)
from framestream.derivatives import frame_scalars
from framestream.streaming import (angle_arrays, checked_terms,
                                   coefficient_terms)
from framestream.verification import (_catalog_residuals,
                                      _identity_residuals, _oracle_residuals,
                                      random_states)

FIDS = {
    "triaxial-ellipsoid": Ellipsoid(3.0, 1.5, 0.5),
    "negative-paraboloid": Paraboloid(-0.7, 1.3),
    "wave-graph": Graph(
        f=lambda x, y: 0.5 * math.sin(x) * math.cos(y),
        f_x=lambda x, y: 0.5 * math.cos(x) * math.cos(y),
        f_y=lambda x, y: -0.5 * math.sin(x) * math.sin(y),
        f_xx=lambda x, y: -0.5 * math.sin(x) * math.cos(y),
        f_xy=lambda x, y: -0.5 * math.cos(x) * math.sin(y),
        f_yy=lambda x, y: -0.5 * math.sin(x) * math.cos(y)),
}


def _tolerance(name):
    return verification._CHECKS[name][0]


@pytest.mark.parametrize("name", list(FIDS))
def test_checks_hold_at_non_default_family_parameters(name):
    fid = FIDS[name]
    field = builtin_frame(fid)
    rng = np.random.default_rng(7)
    states = random_states(fid, 40, rng)
    points = np.array([r for r, _, _ in states])
    omega = np.array([om for _, _, om in states])
    angles = angle_arrays([mu for _, mu, _ in states], omega)
    jet = frame_jet(field, points)
    terms = checked_terms(jet, *angles)[:2]
    args = fid, field, points, omega, angles, jet
    assert np.max(_catalog_residuals(*args, None, terms)) <= _tolerance(
        "catalog-agreement")
    assert np.max(_oracle_residuals(*args, None, terms)) <= _tolerance(
        "oracle-agreement")
    h = rng.normal(size=(len(points), 3))
    assert np.max(_identity_residuals(*args, h)) <= _tolerance(
        "frame-identities")


@pytest.mark.parametrize("cfg", [DiffConfig(), DiffConfig(engine="fd")],
                         ids=["dual", "fd"])
@pytest.mark.parametrize("name", list(FIDS))
def test_stacked_scalars_and_terms_keep_the_per_point_bits(name, cfg):
    fid = FIDS[name]
    field = builtin_frame(fid)
    states = random_states(fid, 30, np.random.default_rng(11))
    points = np.array([r for r, _, _ in states])
    angles = angle_arrays([mu for _, mu, _ in states],
                          [om for _, _, om in states])
    jet = frame_jet(field, points, cfg)
    stacked = [*frame_scalars(jet), *coefficient_terms(jet, *angles)]
    for i, r in enumerate(points):
        one = frame_jet(field, r, cfg)
        own = [*frame_scalars(one),
               *coefficient_terms(one, *(float(a[i]) for a in angles))]
        assert [np.float64(x).tobytes() for x in own] == [
            x[i].tobytes() for x in stacked], i
