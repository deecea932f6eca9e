"""Rigid-motion invariance: a_mu and a_omega are curvature quantities of
the frame, so moving the frame field rigidly and the state with it must
leave them unchanged, on either engine."""
import numpy as np
import pytest

from framestream import DiffConfig, FrameField, streaming_coefficients
from framestream.frames import BUILTIN_FRAMES, builtin_frame
from framestream.verification import random_states

STATES_PER_FRAME = 6
ENGINES = {"dual": (DiffConfig(), 1e-12),
           "fd": (DiffConfig(engine="fd"), 1e-9)}


def _rotation(rng):
    """A random proper rotation: Q of a Gaussian matrix's QR, signs fixed."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0.0 else -q


def _moved(raw, q, p):
    """raw'(x) = Q raw(Q^T (x - p)), written with plain * and + so that
    dual scalars flow through it."""
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q.tolist()
    p0, p1, p2 = p.tolist()

    def rotate(v):
        return (q00 * v[0] + q01 * v[1] + q02 * v[2],
                q10 * v[0] + q11 * v[1] + q12 * v[2],
                q20 * v[0] + q21 * v[1] + q22 * v[2])

    def moved(x, y, z):
        dx, dy, dz = x - p0, y - p1, z - p2
        n, t, b = raw(q00 * dx + q10 * dy + q20 * dz,
                      q01 * dx + q11 * dy + q21 * dz,
                      q02 * dx + q12 * dy + q22 * dz)
        return rotate(n), rotate(t), rotate(b)

    return moved


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(BUILTIN_FRAMES))
def test_coefficients_invariant_under_rigid_motion(name, engine):
    cfg, rtol = ENGINES[engine]
    fid = BUILTIN_FRAMES[name].default
    field = builtin_frame(fid)
    rng = np.random.default_rng(sorted(BUILTIN_FRAMES).index(name))
    for r, mu, omega in random_states(fid, STATES_PER_FRAME, rng):
        q = _rotation(rng)
        p = rng.uniform(-3.0, 3.0, size=3)
        moved = FrameField(_moved(field.raw, q, p), name + "-moved")
        base = streaming_coefficients(field, r, mu, omega, cfg)
        got = streaming_coefficients(moved, q @ r + p, mu, omega, cfg)
        for want, have in ((base.a_mu, got.a_mu),
                           (base.a_omega, got.a_omega)):
            assert abs(have - want) <= rtol * (1.0 + abs(want)), (r, mu)
