"""The three-component dual: its shape, the bits of the single-direction
derivative, and where both engines say a field failed."""
import math

import numpy as np
import pytest

from framestream import (DiffConfig, EvaluationFailure, FrameField, Sphere,
                         builtin_frame, directional_derivative, frame_jet,
                         jacobian)
from framestream import dual as dm
from framestream.frames import BUILTIN_FRAMES
from framestream.verification import _check_kb_transform, random_states

FD = DiffConfig(engine="fd")


def test_dual_has_three_float_components():
    assert dm.Dual.__slots__ == ("val", "e0", "e1", "e2")
    x = dm.Dual(0.5, 1.0, 2.0, 3.0)
    assert x.eps == dm.tangent(x) == (1.0, 2.0, 3.0)
    assert dm.tangent(0.5) == (0.0, 0.0, 0.0)
    assert dm.value(x) == 0.5 and dm.value(0.5) == 0.5
    y = x * x / (1.0 + x)
    assert all(type(c) is float for c in (y.val, *y.eps))


# float.hex of the dual directional derivative of n, t and b along a
# non-unit h, two registry states per frame (rng 20250828 draws a
# frame's two states, then one h per state from uniform(-2, 2)).  The
# seed (h, 0, 0) must give the bits the width-one tangent gave.
PINNED = {
    ("constant", 0, "n"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("constant", 0, "t"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("constant", 0, "b"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("constant", 1, "n"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("constant", 1, "t"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("constant", 1, "b"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("cylindrical-i", 0, "n"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("cylindrical-i", 0, "t"):
        "0x1.acc51ab33b3dap-1 0x1.a2462a6157e60p-4 0x0.0p+0",
    ("cylindrical-i", 0, "b"):
        "-0x1.a2462a6157e60p-4 0x1.acc51ab33b3dap-1 0x0.0p+0",
    ("cylindrical-i", 1, "n"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("cylindrical-i", 1, "t"):
        "-0x1.1761e4609db00p-8 0x1.32215c3c03e80p-8 0x0.0p+0",
    ("cylindrical-i", 1, "b"):
        "-0x1.32215c3c03e80p-8 -0x1.1761e4609db00p-8 0x0.0p+0",
    ("cylindrical-ii", 0, "n"):
        "-0x1.b4381ae7262fep+0 -0x1.e051ecb65985cp-2 0x0.0p+0",
    ("cylindrical-ii", 0, "t"):
        "0x1.e051ecb65985cp-2 -0x1.b4381ae7262fep+0 0x0.0p+0",
    ("cylindrical-ii", 0, "b"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("cylindrical-ii", 1, "n"):
        "-0x1.87ebcc38f5984p-2 -0x1.adb5ba2a9ed52p-4 0x0.0p+0",
    ("cylindrical-ii", 1, "t"):
        "0x1.adb5ba2a9ed52p-4 -0x1.87ebcc38f5984p-2 0x0.0p+0",
    ("cylindrical-ii", 1, "b"):
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ("sphere", 0, "n"):
        "-0x1.bd2a9a3c93945p-2 0x1.e88fff18447c3p-2 0x1.397f42ab6adebp-1",
    ("sphere", 0, "t"):
        "-0x1.d20330350e1cdp-2 -0x1.a4924b7069437p-2 0x1.ce5bdc9a0c0f6p-6",
    ("sphere", 0, "b"):
        "-0x1.d4ae6b3cfd978p-2 -0x1.d22649121a9cep-2 0x0.0p+0",
    ("sphere", 1, "n"):
        "0x1.080070aa1c138p-2 0x1.a406599ec8bdfp-2 0x1.d531c48358d7cp-2",
    ("sphere", 1, "t"):
        "0x1.47f675762583ep-2 -0x1.a83c1f9c607fap-2 0x1.76f7bf00fbfa2p-2",
    ("sphere", 1, "b"):
        "-0x1.fa2109cc8a020p-5 0x1.9afb3bff20084p-2 0x0.0p+0",
    ("ellipsoid", 0, "n"):
        "0x1.77251f401e0e6p-1 -0x1.a63e791f2ae61p+1 -0x1.0de771c8b9505p+1",
    ("ellipsoid", 0, "t"):
        "-0x1.f003b674823dfp+1 0x1.07155e611ab59p+1 0x1.9fbf7d8787b58p+1",
    ("ellipsoid", 0, "b"):
        "0x1.074ebc7fbe56ap+2 0x1.15aae1eaa8126p+2 -0x1.989eef714ce8cp-4",
    ("ellipsoid", 1, "n"):
        "0x1.dab4c68479cd8p-3 -0x1.f5fba3c7a931fp-2 -0x1.d636296e959a0p-2",
    ("ellipsoid", 1, "t"):
        "0x1.3ec53d2d3a6f0p-5 -0x1.e985c87eb0ecfp-2 0x1.fe69e0859ef2ap-2",
    ("ellipsoid", 1, "b"):
        "-0x1.1205cd5a796bep-6 -0x1.1a59f02a40436p-4 0x1.7a84d263a6fdbp-3",
    ("paraboloid", 0, "n"):
        "-0x1.6480e51188a24p-3 -0x1.408b9cb574140p-3 0x1.fd8a7a50426c7p-3",
    ("paraboloid", 0, "t"):
        "0x1.39d3e965c629dp-2 0x0.0p+0 -0x1.cc3bdac7e69b0p-4",
    ("paraboloid", 0, "b"):
        "-0x1.efcc539ed01d8p-3 0x1.fe1ce063595dcp-3 -0x1.a51a32e7b405ap-3",
    ("paraboloid", 1, "n"):
        "0x1.b5377e8924c1dp-2 -0x1.06e2005df92dcp-3 0x1.48d8daa7e7c8cp-4",
    ("paraboloid", 1, "t"):
        "-0x1.fa6bd3a6ed89dp-2 -0x0.0p+0 -0x1.832ea8ff32e36p-2",
    ("paraboloid", 1, "b"):
        "-0x1.072a43e36c93bp-2 0x1.8d442e6878049p-2 0x1.184f9624c3d80p-1",
    ("graph", 0, "n"):
        "-0x1.cb4418cb855bdp-1 -0x1.6d4fdfe2ddbb2p-3 -0x1.a02173c4bc1d2p-2",
    ("graph", 0, "t"):
        "-0x1.65705570455c1p-2 -0x0.0p+0 0x1.276e9bbaf1ee2p+0",
    ("graph", 0, "b"):
        "-0x1.752d75437b8e7p-1 -0x1.08c197d505c1ap-3 -0x1.1760ddf193182p-5",
    ("graph", 1, "n"):
        "-0x1.80bd791064ae9p-1 0x1.ffda1e9cb0b82p-2 0x1.f4e887e6c34e4p-3",
    ("graph", 1, "t"):
        "-0x1.999a7043b3d1cp-2 -0x0.0p+0 0x1.7048cb5f86fd8p-1",
    ("graph", 1, "b"):
        "-0x1.34c3bcfc0a55ep-2 0x1.286da65e7151bp-1 -0x1.7ab003c666469p-1",
}
KB_RESIDUAL = "0x1.0129018d6cf46p-1"


def test_dual_directional_derivative_bits_are_pinned():
    rng = np.random.default_rng(20250828)
    got = {}
    for name, spec in BUILTIN_FRAMES.items():
        field = builtin_frame(spec.default)
        for i, (r, _, _) in enumerate(random_states(spec.default, 2, rng)):
            h = rng.uniform(-2.0, 2.0, size=3)
            for label in "ntb":
                fn = getattr(field, label + "_field")
                v = directional_derivative(fn, r, h)
                got[name, i, label] = " ".join(float(x).hex() for x in v)
    assert got == PINNED


def test_kb_transform_residual_bits_are_pinned():
    assert _check_kb_transform(DiffConfig())[0].hex() == KB_RESIDUAL


# --- a failing field is named at plain-float coordinates --------------------

def _message(fn, *args):
    with pytest.raises(EvaluationFailure) as info:
        fn(*args)
    return str(info.value)


def test_dual_engine_names_the_probe_in_plain_floats():
    # math.cos rejects a Dual, so the dual engine fails at the base point.
    field = lambda p: (0.0, math.cos(p[0]), math.sin(p[0]))
    want = "field raised at probe (0.3, 0.0, 0.0)"
    assert _message(jacobian, field, [0.3, 0.0, 0.0]) == want
    assert _message(directional_derivative, field, [0.3, 0.0, 0.0],
                    [0.0, 2.0, 0.0]) == want


@pytest.mark.parametrize("cfg", [DiffConfig(), FD], ids=["dual", "fd"])
def test_frame_jet_names_the_probe_in_plain_floats(cfg):
    sphere = builtin_frame(Sphere())
    msg = _message(frame_jet, sphere, [0.0, 0.0, 1.0], cfg)
    assert msg == "field raised at probe (0.0, 0.0, 1.0)"


@pytest.mark.parametrize("cfg", [DiffConfig(), FD], ids=["dual", "fd"])
def test_frame_jet_of_a_raw_without_a_triple_is_typed(cfg):
    two = FrameField(lambda x, y, z: ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
                     "two-vectors")
    msg = _message(frame_jet, two, [1.0, 0.5, 0.25], cfg)
    assert msg == "field raised at probe (1.0, 0.5, 0.25)"
