"""Closed-form catalog entries against the generic engine.

Expected numbers for the ellipsoid were frozen from the straight-ray
oracle before the chart formulas were written; they are authoritative.
"""
import math

import numpy as np
import pytest

from framestream import (Constant, CylindricalI, CylindricalII, Ellipsoid,
                         FramestreamError, Graph, OutOfRange,
                         OutsideValidRegion, Paraboloid, Sphere,
                         builtin_frame, catalog_coefficients, catalog_entry,
                         printed_cyl2_grad_mu, streaming_coefficients)
from framestream.verification import default_graph_id, random_states

ELL_POINT = np.array([1.22474487139159, 0.61237243569579, 0.5])

ELL_AUX = {
    "s_tt": 0.857844108512,
    "s_tb": 0.379446640382,
    "s_bt": 0.379446640232,
    "s_bb": 0.731964810098,
    "kn_t": 0.192664942269,
    "kn_b": -0.227255167890,
    "kt_b": -0.475169896521,
    "kb_t": 0.702545901272,
    "winding": -0.166007905471,
}


def test_constant_entry_all_zero():
    amu, aom = catalog_coefficients(Constant(), [0.4, 1.0, -2.0], 0.3, 1.2)
    assert amu == 0.0 and aom == 0.0


def test_cyl1_closed_forms():
    rng = np.random.default_rng(1)
    for r, mu, omega in random_states(CylindricalI(), 50, rng):
        amu, aom = catalog_coefficients(CylindricalI(), r, mu, omega)
        rho = math.hypot(r[0], r[1])
        assert amu == 0.0
        want = -math.sqrt(1.0 - mu * mu) * math.sin(omega) / rho
        assert abs(aom - want) < 1e-15


def test_cyl2_closed_forms():
    rng = np.random.default_rng(2)
    for r, mu, omega in random_states(CylindricalII(), 50, rng):
        amu, aom = catalog_coefficients(CylindricalII(), r, mu, omega)
        rho = math.hypot(r[0], r[1])
        want = (1.0 - mu * mu) * math.cos(omega) ** 2 / rho
        assert abs(amu - want) < 1e-15
        # a_omega is pure tilt here: the leaf normal curvature turns the
        # azimuth reference as the ray winds around the cylinder
        assert abs(aom - mu * math.sin(omega) * math.cos(omega) / rho) \
            < 1e-15


def test_sphere_closed_forms():
    rng = np.random.default_rng(3)
    for r, mu, omega in random_states(Sphere(), 50, rng):
        amu, aom = catalog_coefficients(Sphere(), r, mu, omega)
        rho = float(np.linalg.norm(r))
        theta = math.acos(r[2] / rho)
        s = math.sqrt(1.0 - mu * mu)
        assert abs(amu - (1.0 - mu * mu) / rho) < 1e-15
        want = -s * math.sin(omega) / (rho * math.tan(theta))
        assert abs(aom - want) < 1e-14


def test_printed_cyl2_variant_agrees_only_at_mu_zero():
    r = (2.0, 0.0, 0.0)
    derived, _ = catalog_coefficients(CylindricalII(), r, 0.0, 0.0)
    assert printed_cyl2_grad_mu(r, 0.0, 0.0) == derived == 0.5
    # the sqrt(1-mu^2) prefactor overstates the coefficient off mu=0
    assert abs(printed_cyl2_grad_mu(r, 0.6, 0.0) - 0.40) < 1e-15
    derived, _ = catalog_coefficients(CylindricalII(), r, 0.6, 0.0)
    assert abs(derived - 0.32) < 1e-15


def test_cyl2_entry_carries_erratum_note():
    assert catalog_entry(CylindricalII()).errata
    assert catalog_entry(CylindricalI()).errata == ()
    assert catalog_entry(Ellipsoid(2, 1, 1)).errata
    assert catalog_entry(default_graph_id()).errata


def test_ellipsoid_auxiliary_frozen_values():
    entry = catalog_entry(Ellipsoid(2.0, 1.0, 1.0))
    for key, want in ELL_AUX.items():
        got = entry.auxiliary[key](ELL_POINT)
        assert abs(got - want) < 3e-9, key


def test_ellipsoid_catalog_matches_engine():
    fid = Ellipsoid(2.0, 1.0, 1.0)
    field = builtin_frame(fid)
    rng = np.random.default_rng(4)
    for r, mu, omega in random_states(fid, 30, rng):
        amu, aom = catalog_coefficients(fid, r, mu, omega)
        coeffs = streaming_coefficients(field, r, mu, omega)
        assert abs(amu - coeffs.a_mu) < 1e-10
        assert abs(aom - coeffs.a_omega) < 1e-10


def test_paraboloid_catalog_matches_engine():
    fid = Paraboloid(1.0, 2.0)
    field = builtin_frame(fid)
    rng = np.random.default_rng(5)
    for r, mu, omega in random_states(fid, 30, rng):
        amu, aom = catalog_coefficients(fid, r, mu, omega)
        coeffs = streaming_coefficients(field, r, mu, omega)
        assert abs(amu - coeffs.a_mu) < 1e-10
        assert abs(aom - coeffs.a_omega) < 1e-10


def test_graph_catalog_matches_engine():
    fid = default_graph_id()
    field = builtin_frame(fid)
    rng = np.random.default_rng(6)
    for r, mu, omega in random_states(fid, 30, rng):
        amu, aom = catalog_coefficients(fid, r, mu, omega)
        coeffs = streaming_coefficients(field, r, mu, omega)
        assert abs(amu - coeffs.a_mu) < 1e-10
        assert abs(aom - coeffs.a_omega) < 1e-10


def test_paraboloid_entry_equals_quadratic_graph_entry():
    gid = Graph(f=lambda x, y: x * x + 2 * y * y,
                f_x=lambda x, y: 2 * x, f_y=lambda x, y: 4 * y,
                f_xx=lambda x, y: 2.0, f_xy=lambda x, y: 0.0,
                f_yy=lambda x, y: 4.0)
    r = np.array([0.5, -0.3, 0.43])
    a = catalog_coefficients(gid, r, 0.3, 1.0)
    b = catalog_coefficients(Paraboloid(1.0, 2.0), r, 0.3, 1.0)
    assert a == b


def test_entries_reject_singular_locus():
    with pytest.raises(OutsideValidRegion):
        catalog_coefficients(CylindricalI(), (0.0, 0.0, 1.0), 0.3, 0.0)
    with pytest.raises(OutsideValidRegion):
        catalog_coefficients(Sphere(), (0.0, 0.0, 2.0), 0.3, 0.0)


def test_unknown_id_rejected():
    with pytest.raises(OutsideValidRegion):
        catalog_entry(42)


@pytest.mark.parametrize("mu", [1.5, -1.5, math.nan, 1.0, -1.0])
def test_catalog_domain_is_that_of_the_coefficients(mu):
    """OutOfRange for a NaN mu or one outside [-1, 1] and PolarDirection
    at +-1, with streaming_coefficients' text, for one state and for
    the second state of a stack."""
    r = np.array([1.0, 0.5, 0.2])
    with pytest.raises(FramestreamError) as want:
        streaming_coefficients(builtin_frame(Sphere()), r, mu, 0.3)
    for call in (lambda: catalog_coefficients(Sphere(), r, mu, 0.3),
                 lambda: catalog_coefficients(Sphere(), np.array([r, r]),
                                              [0.2, mu], [0.3, 0.3])):
        with pytest.raises(FramestreamError) as got:
            call()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_catalog_stack_raises_its_first_failing_state():
    # The first state is on the sphere's axis, the second has mu > 1.
    with pytest.raises(OutsideValidRegion):
        catalog_coefficients(Sphere(), np.array([[0.0, 0.0, 1.0],
                                                 [1.0, 0.5, 0.2]]),
                             [0.2, 1.5], [0.3, 0.3])
    with pytest.raises(OutOfRange):
        catalog_coefficients(Sphere(), np.array([[1.0, 0.5, 0.2],
                                                 [0.0, 0.0, 1.0]]),
                             [1.5, 0.2], [0.3, 0.3])
