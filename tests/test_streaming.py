import math

import numpy as np
import pytest

from framestream import (Constant, CylindricalI, CylindricalII, Ellipsoid,
                         FoliationMissing, FramestreamError,
                         InconsistentBreakdown, InconsistentDirection, MuForm,
                         OmegaForm, OutOfRange, Paraboloid, PolarDirection,
                         Sphere, StreamingCoefficients, apply_streaming,
                         builtin_frame,
                         coefficients_from_jet, direction_from_angles,
                         frame_jet, grad_mu, grad_omega,
                         streaming_coefficients)
from framestream.verification import default_graph_id, random_states

ELL_POINT = np.array([1.22474487139159, 0.61237243569579, 0.5])
PAR_POINT = np.array([0.5, -0.3, 0.43])
GRAPH_POINT = np.array([0.5, -0.3, 0.5244255386042])


def test_sphere_coefficients_closed_form():
    field = builtin_frame(Sphere())
    r = np.array([math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)])
    coeffs = streaming_coefficients(field, r, 0.0, math.pi / 2)
    assert abs(coeffs.a_mu - 1.0) < 1e-12
    assert abs(coeffs.a_omega + 1.0 / math.tan(math.pi / 3)) < 1e-12


def test_cyl1_grad_mu_vanishes():
    field = builtin_frame(CylindricalI())
    assert abs(grad_mu(field, (2.0, 0.0, 0.3), 0.4, 1.1)) < 1e-14


def test_cyl1_grad_omega_value():
    field = builtin_frame(CylindricalI())
    got = grad_omega(field, (2.0, 0.0, 0.0), 0.5, math.pi / 2)
    assert abs(got + math.sqrt(0.75) / 2.0) < 1e-14


def test_cyl2_grad_mu_values():
    field = builtin_frame(CylindricalII())
    assert abs(grad_mu(field, (2.0, 0.0, 0.0), 0.0, 0.0) - 0.5) < 1e-14
    assert abs(grad_mu(field, (2.0, 0.0, 0.0), 0.6, 0.0) - 0.32) < 1e-14


def test_cyl2_grad_omega_vanishes():
    # t.grad_Omega b is identically zero here; the frame's azimuth
    # drift enters a_omega only through the tilt contribution
    field = builtin_frame(CylindricalII())
    assert abs(grad_omega(field, (1.3, 0.4, -2.0), 0.37, 2.2)) < 1e-14


# frozen from the straight-ray oracle before implementation
FROZEN = [
    (Ellipsoid(2.0, 1.0, 1.0), ELL_POINT, 0.3, 1.0,
     1.038440774899, -0.820993417881),
    (Ellipsoid(2.0, 1.0, 1.0), ELL_POINT, -0.45, 2.2,
     0.211145969015, -0.213337671980),
    (Paraboloid(1.0, 2.0), PAR_POINT, 0.3, 1.0,
     -1.513824834052, 0.526779684091),
    (Paraboloid(1.0, 2.0), PAR_POINT, 0.6, 4.0,
     -0.749773302326, -0.753797075136),
    (default_graph_id(), GRAPH_POINT, 0.3, 1.0,
     -0.432416098731, 0.103707695425),
    (default_graph_id(), GRAPH_POINT, -0.2, 5.5,
     -0.273631681046, 0.066539734782),
]


@pytest.mark.parametrize("fid,r,mu,omega,want_mu,want_om", FROZEN)
def test_frozen_oracle_states(fid, r, mu, omega, want_mu, want_om):
    field = builtin_frame(fid)
    coeffs = streaming_coefficients(field, r, mu, omega)
    assert abs(coeffs.a_mu - want_mu) < 2e-9
    assert abs(coeffs.a_omega - want_om) < 2e-9


def test_breakdown_ellipsoid_frozen():
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    bd = streaming_coefficients(field, ELL_POINT, 0.3, 1.0).breakdown
    assert abs(bd["mu_surface"] - 1.013505381109) < 2e-9
    assert abs(bd["mu_curve_n"] - 0.024935393790) < 2e-9
    assert abs(bd["omega_curve"] + 0.808852091038) < 2e-9
    assert abs(bd["omega_wind"] + 0.049802371641) < 2e-9
    assert abs(bd["omega_tilt"] - 0.037661045280) < 2e-9


def test_breakdown_sums_to_coefficients():
    rng = np.random.default_rng(8)
    for fid in (CylindricalII(), Sphere(), Ellipsoid(2, 1, 1),
                Paraboloid(1, 2)):
        field = builtin_frame(fid)
        for r, mu, omega in random_states(fid, 20, rng):
            coeffs = streaming_coefficients(field, r, mu, omega)
            bd = coeffs.breakdown
            assert abs(coeffs.a_mu - bd["mu_surface"] - bd["mu_curve_n"]) \
                < 1e-12
            assert abs(coeffs.a_omega - bd["omega_curve"]
                       - bd["omega_wind"] - bd["omega_tilt"]) < 1e-12


def test_mu_forms_agree():
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    a = grad_mu(field, ELL_POINT, 0.3, 1.0, MuForm.CURVE_CURVATURE)
    b = grad_mu(field, ELL_POINT, 0.3, 1.0, MuForm.SURFACE_CURVATURE)
    assert abs(a - b) < 1e-10


def test_omega_forms_agree_where_defined():
    field = builtin_frame(default_graph_id())
    vals = {}
    for form in OmegaForm:
        try:
            vals[form] = grad_omega(field, GRAPH_POINT, 0.3, 1.0, form)
        except FoliationMissing:
            continue
    assert OmegaForm.SURFACE_T in vals  # graph t-planes are integrable
    assert OmegaForm.SURFACE_B not in vals
    base = vals[OmegaForm.DIRECT_TB]
    assert abs(base + 0.018516985144) < 2e-9
    for form, v in vals.items():
        assert abs(v - base) < 1e-9, form.value


def test_grad_mu_at_mu_one_is_exactly_zero():
    field = builtin_frame(Sphere())
    r = np.array([1.0, 0.2, 0.4])
    assert grad_mu(field, r, 1.0, 0.3) == 0.0
    assert grad_mu(field, r, -1.0, 0.3) == 0.0


def test_grad_mu_rejects_bad_mu():
    field = builtin_frame(Sphere())
    with pytest.raises(OutOfRange):
        grad_mu(field, (1.0, 0.2, 0.4), 1.01, 0.0)


def test_polar_direction_rejected():
    field = builtin_frame(Sphere())
    with pytest.raises(PolarDirection):
        grad_omega(field, (1.0, 0.2, 0.4), 1.0, 0.0)
    with pytest.raises(PolarDirection):
        streaming_coefficients(field, (1.0, 0.2, 0.4), -1.0, 0.0)


def test_coefficients_from_jet_matches_wrapper():
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    jet = frame_jet(field, ELL_POINT)
    a = coefficients_from_jet(jet, 0.3, 1.0)
    b = streaming_coefficients(field, ELL_POINT, 0.3, 1.0)
    assert a.a_mu == b.a_mu and a.a_omega == b.a_omega


def test_apply_streaming_recombines():
    field = builtin_frame(Sphere())
    r = np.array([1.2, 0.3, 0.9])
    mu, omega = 0.4, 2.0
    coeffs = streaming_coefficients(field, r, mu, omega)
    d = direction_from_angles(coeffs.frame, mu, omega)
    grad_psi = np.array([0.5, -1.0, 0.25])
    got = apply_streaming(coeffs, d, grad_psi, 2.0, -3.0)
    want = float(d @ grad_psi) + coeffs.a_mu * 2.0 + coeffs.a_omega * -3.0
    assert abs(got - want) < 1e-14


def test_apply_streaming_checks_direction():
    field = builtin_frame(Sphere())
    coeffs = streaming_coefficients(field, (1.2, 0.3, 0.9), 0.4, 2.0)
    with pytest.raises(InconsistentDirection):
        apply_streaming(coeffs, np.array([1.0, 0.0, 0.0]),
                        np.zeros(3), 0.0, 0.0)


def test_chain_rule_identity_single_state():
    # psi = Omega(mu, omega, frame(r)) . r has streaming derivative
    # exactly 1: moving along the ray advances psi at unit rate
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    r = ELL_POINT
    mu, omega = 0.3, 1.0
    jet = frame_jet(field, r)
    coeffs = streaming_coefficients(field, r, mu, omega)
    s = math.sqrt(1.0 - mu * mu)
    cw, sw = math.cos(omega), math.sin(omega)
    d = mu * jet.n + s * (cw * jet.t + sw * jet.b)
    grad_spatial = (mu * (jet.n + jet.jn.T @ r)
                    + s * cw * (jet.t + jet.jt.T @ r)
                    + s * sw * (jet.b + jet.jb.T @ r))
    dpsi_dmu = float((jet.n - mu / s * (cw * jet.t + sw * jet.b)) @ r)
    dpsi_domega = float((s * (-sw * jet.t + cw * jet.b)) @ r)
    got = apply_streaming(coeffs, d, grad_spatial, dpsi_dmu, dpsi_domega)
    assert abs(got - 1.0) < 1e-12


def test_constant_frame_all_coefficients_zero():
    field = builtin_frame(Constant())
    coeffs = streaming_coefficients(field, (1.0, 1.0, 1.0), 0.3, 1.0)
    assert coeffs.a_mu == 0.0 and coeffs.a_omega == 0.0
    assert all(v == 0.0 for v in coeffs.breakdown.values())


def test_coefficients_reject_mu_outside_unit_interval():
    jet = frame_jet(builtin_frame(Sphere()), np.array([1.0, 0.2, 0.4]))
    for mu in (1.5, -1.01, math.nan):
        with pytest.raises(OutOfRange):
            coefficients_from_jet(jet, mu, 0.0)
    with pytest.raises(OutOfRange):
        grad_omega(builtin_frame(Sphere()), (1.0, 0.2, 0.4), 1.5, 0.0)


def test_breakdown_tolerance_scales_near_axis():
    # Within a few nm of the cylinder axis a_mu reaches 1e8; rounding of
    # its parts alone exceeds an absolute 1e-10.
    field = builtin_frame(CylindricalII())
    count = 0
    for rho in (1e-9, 1e-8, 1e-7):
        r = np.array([0.6 * rho, 0.8 * rho, 0.3])
        for mu in np.linspace(-0.95, 0.95, 9):
            for omega in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
                coeffs = streaming_coefficients(field, r, mu, omega)
                want = (1.0 - mu * mu) * math.cos(omega) ** 2 / rho
                assert abs(coeffs.a_mu - want) <= 1e-9 * (1.0 + abs(want))
                count += 1
    assert count == 324


def test_inconsistent_breakdown_is_typed():
    coeffs = streaming_coefficients(builtin_frame(Sphere()),
                                    (1.0, 0.2, 0.4), 0.3, 1.0)
    bd = dict(coeffs.breakdown, mu_surface=coeffs.breakdown["mu_surface"]
              + 1e-6)
    with pytest.raises(InconsistentBreakdown) as exc:
        StreamingCoefficients(coeffs.a_mu, coeffs.a_omega, bd, coeffs.at,
                              coeffs.frame)
    assert isinstance(exc.value, FramestreamError)
    assert isinstance(exc.value, ValueError)
