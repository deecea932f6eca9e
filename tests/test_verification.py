import json
import math

import numpy as np
import pytest

from framestream import (CheckResult, ConservationReport, Constant,
                         CylindricalI, CylindricalII, DiffConfig, Ellipsoid,
                         FramePoint, FramestreamError, InconsistentReport,
                         MuForm, OmegaForm, OutOfRange, Paraboloid,
                         RayOracleResult, Sphere, angles_from_direction,
                         apply_streaming, builtin_frame, catalog_coefficients,
                         coefficients_from_jet, conservation_check,
                         catalog_entry, curl, curvature_from_parametrization,
                         curvature_report, direction_from_angles,
                         directional_derivative,
                         foliation_defect, frame_jet, grad_mu, grad_omega,
                         integral_curve_curvature, integrate_curve, jacobian,
                         kb_transform_residual, normal_curvature,
                         parallel_transport_holonomy, ray_oracle, run_checks,
                         shape_operator, shape_operator_via_fundamental_forms,
                         streaming_coefficients, verification, winding_term)
from framestream.cli import main
from framestream.streaming import checked_terms
from framestream.verification import (_angle_grid, default_graph_id,
                                      random_states)

ELL_POINT = np.array([1.22474487139159, 0.61237243569579, 0.5])


def state_direction(field, r, mu, omega):
    jet = frame_jet(field, r)
    s = math.sqrt(1.0 - mu * mu)
    return (mu * jet.n
            + s * (math.cos(omega) * jet.t + math.sin(omega) * jet.b))


def test_ray_oracle_matches_engine_on_ellipsoid():
    fid = Ellipsoid(2.0, 1.0, 1.0)
    field = builtin_frame(fid)
    d = state_direction(field, ELL_POINT, 0.3, 1.0)
    res = ray_oracle(field, ELL_POINT, d)
    coeffs = streaming_coefficients(field, ELL_POINT, 0.3, 1.0)
    assert abs(res.dmu_ds - coeffs.a_mu) < 1e-8
    assert abs(res.domega_ds - coeffs.a_omega) < 1e-8
    # conservative bound: the unextrapolated h vs h/2 spread over 3
    assert 0.0 <= res.richardson_error_estimate < 1e-5
    assert res.step == 1e-3


def test_ray_oracle_never_consults_the_engine():
    # closed-form check on the sphere: dmu/ds = (1-mu^2)/rho
    field = builtin_frame(Sphere())
    r = np.array([1.5, 0.0, 0.9])
    d = state_direction(field, r, 0.25, 2.1)
    res = ray_oracle(field, r, d)
    rho = float(np.linalg.norm(r))
    assert abs(res.dmu_ds - (1.0 - 0.25 ** 2) / rho) < 1e-9


def test_ray_oracle_requires_unit_direction():
    field = builtin_frame(Sphere())
    with pytest.raises(OutOfRange):
        ray_oracle(field, np.array([1.0, 0.2, 0.4]),
                   np.array([2.0, 0.0, 0.0]))


def test_ray_oracle_result_validates_estimate():
    with pytest.raises(ValueError):
        RayOracleResult(dmu_ds=0.0, domega_ds=0.0, step=1e-3,
                        richardson_error_estimate=-1.0)


@pytest.mark.parametrize("make", [
    lambda: RayOracleResult(dmu_ds=0.0, domega_ds=0.0, step=1e-3,
                            richardson_error_estimate=-1.0),
    lambda: ConservationReport(True, "Feasible", None, None, 8),
    lambda: ConservationReport(True, "KappaNNonzero", abs, abs, 8),
])
def test_result_invariants_raise_typed_error(make):
    with pytest.raises(InconsistentReport) as exc:
        make()
    assert isinstance(exc.value, FramestreamError)
    assert isinstance(exc.value, ValueError)


def test_conservation_trichotomy():
    rng = np.random.default_rng(9)
    cases = [
        (CylindricalI(), True, "Feasible"),
        (Sphere(), True, "Feasible"),
        (CylindricalII(), False, "CDependsOnOmega"),
        (Ellipsoid(2.0, 1.0, 1.0), False, "KappaNNonzero"),
        (Paraboloid(1.0, 2.0), False, "KappaNNonzero"),
        (default_graph_id(), False, "KappaNNonzero"),
    ]
    for fid, feasible, reason in cases:
        field = builtin_frame(fid)
        points = [r for r, _, _ in random_states(fid, 16, rng)]
        report = conservation_check(field, points, _angle_grid(8, rng))
        assert report.feasible is feasible, fid
        assert report.reason == reason, fid
        assert report.samples_checked == 16 * 8


def test_conservation_factors():
    rng = np.random.default_rng(10)
    sphere = builtin_frame(Sphere())
    points = [r for r, _, _ in random_states(Sphere(), 16, rng)]
    report = conservation_check(sphere, points, _angle_grid(8, rng))
    # spherical leaves: f = |r|, g = 1
    assert report.f_factor(np.array([0.0, 0.0, 2.0])) == 2.0
    assert report.g_factor(np.array([0.0, 0.0, 2.0])) == 1.0
    flat = builtin_frame(CylindricalI())
    points = [r for r, _, _ in random_states(CylindricalI(), 16, rng)]
    report = conservation_check(flat, points, _angle_grid(8, rng))
    assert report.f_factor(np.array([3.0, 1.0, 2.0])) == 1.0


def test_conservation_needs_enough_samples():
    field = builtin_frame(Sphere())
    with pytest.raises(OutOfRange):
        conservation_check(field, [np.array([1.0, 0.0, 0.5])],
                           [(0.3, 1.0)] * 8)


def test_conservation_report_consistency():
    with pytest.raises(ValueError):
        ConservationReport(feasible=True, reason="KappaNNonzero",
                           f_factor=None, g_factor=None, samples_checked=64)


def test_fundamental_forms_sphere():
    def chart(theta, phi):
        return (2.0 * math.sin(theta) * math.cos(phi),
                2.0 * math.sin(theta) * math.sin(phi),
                2.0 * math.cos(theta))

    shape = shape_operator_via_fundamental_forms(chart, 1.1, 0.7)
    eig = np.linalg.eigvalsh(0.5 * (shape.matrix + shape.matrix.T))
    assert np.allclose(eig, [0.5, 0.5], atol=1e-7)


def test_fundamental_forms_match_weingarten_route():
    def chart(theta, phi):
        return (2.0 * math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta))

    shape = shape_operator_via_fundamental_forms(chart, math.pi / 3,
                                                 math.pi / 4)
    entry = catalog_entry(Ellipsoid(2.0, 1.0, 1.0))
    r = np.array(chart(math.pi / 3, math.pi / 4))
    want = np.array([[entry.auxiliary["s_tt"](r),
                      entry.auxiliary["s_tb"](r)],
                     [entry.auxiliary["s_bt"](r),
                      entry.auxiliary["s_bb"](r)]])
    assert np.max(np.abs(shape.matrix - want)) < 1e-7


def test_kb_transform_residual_is_large_off_sections():
    # the overlap-corrected reconstruction fails on a triaxial
    # ellipsoid; the residual is reported, not asserted small
    field = builtin_frame(Ellipsoid(2.0, 1.0, 1.0))
    assert abs(kb_transform_residual(field, ELL_POINT) - 0.5022659766) < 1e-8
    # even on the phi = pi/2 principal section the mismatch persists
    r = np.array([0.0, math.sin(math.pi / 3.0), math.cos(math.pi / 3.0)])
    assert abs(kb_transform_residual(field, r) - 0.4330127021) < 1e-8


def test_kb_transform_near_zero_on_spheroid():
    field = builtin_frame(Ellipsoid(1.5, 1.5, 0.8))
    theta, phi = math.pi / 3.0, math.pi / 4.0
    r = np.array([1.5 * math.sin(theta) * math.cos(phi),
                  1.5 * math.sin(theta) * math.sin(phi),
                  0.8 * math.cos(theta)])
    assert kb_transform_residual(field, r) < 1e-8


def test_kb_transform_requires_ellipsoid():
    field = builtin_frame(Sphere())
    with pytest.raises(OutOfRange):
        kb_transform_residual(field, np.array([1.0, 0.2, 0.4]))


def test_run_checks_single_frame():
    results = run_checks(frame_filter="sphere", seed=3)
    assert all(isinstance(c, CheckResult) for c in results)
    by_name = {c.name: c for c in results}
    assert by_name["catalog-agreement"].status == "pass"
    assert by_name["oracle-agreement"].status == "pass"
    assert by_name["kb-transform-residual"].status == "report-only"
    for c in results:
        if c.status == "pass":
            assert c.max_residual <= c.tolerance


def test_run_checks_filter_by_name():
    results = run_checks(check_filter="holonomy", seed=0)
    assert len(results) == 1
    assert results[0].name == "holonomy-convergence"
    assert results[0].status == "pass"


def test_run_checks_rejects_unknown_check():
    with pytest.raises(OutOfRange, match="unknown check 'nosuch'"):
        run_checks(check_filter="nosuch")


def test_run_checks_rejects_unknown_frame():
    with pytest.raises(OutOfRange):
        run_checks(frame_filter="torus")


@pytest.mark.parametrize("seed, shown", [
    (-1, "-1"), (1.5, "1.5"), ("a", "'a'"), (None, "None"),
    (np.int64(-2), "np.int64(-2)"),
], ids=["negative", "float", "string", "none", "numpy-negative"])
def test_run_checks_rejects_a_seed_that_is_no_nonnegative_integer(seed,
                                                                  shown):
    with pytest.raises(OutOfRange) as info:
        run_checks(check_filter="kb", seed=seed)
    assert str(info.value) == \
        f"seed must be a nonnegative integer, not {shown}"


def test_run_checks_takes_an_integer_like_seed():
    assert run_checks(check_filter="identities", seed=np.int64(7)) == \
        run_checks(check_filter="identities", seed=7)


# The report of `framestream verify --seed 7 --no-timestamp`: names,
# statuses, tolerances and sample counts exactly, residuals within 1e-6
# relative.  A change to the frame order, the samplers' draws from the
# generator or a check's sample count shows here.
VERIFY_SEED_7 = [
    ("catalog-agreement", "pass", 1.7763568394002505e-15, 1e-07, 420),
    ("oracle-agreement", "pass", 7.2737371681341756e-12, 1e-06, 280),
    ("frame-identities", "pass", 1.1102230246251565e-15, 1e-08, 280),
    ("homothety", "pass", 6.788109660987731e-16, 1e-08, 240),
    ("conservation-trichotomy", "pass", 0.0, 0.0, 7168),
    ("holonomy-convergence", "pass", 1.9378934874580978e-06, 0.001, 3),
    ("kb-transform-residual", "report-only", 0.50226597644221083, 0.0, 1),
]


def test_verify_seed_7_report_is_pinned(capsys):
    import json

    from framestream.cli import main
    assert main(["verify", "--seed", "7", "--no-timestamp"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"], c["tolerance"], c["samples"])
            for c in checks] == [(name, status, tol, samples)
                                 for name, status, _, tol, samples
                                 in VERIFY_SEED_7]
    for check, (name, _, want, _, _) in zip(checks, VERIFY_SEED_7):
        assert abs(check["max_residual"] - want) <= 1e-6 * abs(want), name


def test_homothety_floor_keeps_a_non_homothetic_misfit_large():
    # Paraboloid coefficients do not scale as 1/|r|: the floor 1/|r| on
    # the divisor must not hide that.
    from framestream.verification import _homothety_residuals
    fid = Paraboloid(1.0, 2.0)
    field = builtin_frame(fid)
    states = random_states(fid, 20, np.random.default_rng(7))
    points = np.array([r for r, _, _ in states])
    # The jet at the points, then at each point scaled by each scale.
    jet = frame_jet(field, np.concatenate(
        [points, verification._scaled_points(points)]))
    angles = verification.angle_arrays([mu for _, mu, _ in states],
                                       [omega for _, _, omega in states])
    terms = checked_terms(jet, *(np.concatenate([a, np.repeat(a, 3)])
                                 for a in angles))[:2]
    residuals = _homothety_residuals(fid, field, points, None, angles, jet,
                                     None, terms)
    assert residuals.shape == (120,)
    assert np.median(residuals) > 1e-2


def test_fd_verify_seed_11_passes(capsys):
    # The fd engine's absolute error near a zero of a(r) once read as a
    # homothety misfit of up to 1.7e-6 against the 1e-8 tolerance.
    from framestream.cli import main
    assert main(["verify", "--engine", "fd", "--seed", "11",
                 "--no-timestamp"]) == 0
    capsys.readouterr()


# The first state each frame's sampler draws from default_rng(7).  A
# reordering of draws inside one sampler moves the states of that frame
# only, which the worst residuals above need not show.
FIRST_STATE_SEED_7 = {
    "constant": ([0.5003818664186679, 1.588855203878302, 1.102742760980774],
                 -0.4946270580169347, 1.8860003910648933),
    "cylindrical-i": ([1.6473106600814376, -1.241474283062034,
                       1.102742760980774],
                      -0.4946270580169347, 1.8860003910648933),
    "cylindrical-ii": ([1.6473106600814376, -1.241474283062034,
                        1.102742760980774],
                       -0.4946270580169347, 1.8860003910648933),
    "sphere": ([0.176414147736977, -1.0835991665198734, -1.7463051569293393],
               -0.4946270580169347, 1.8860003910648933),
    "ellipsoid": ([0.24590667153232365, -0.7552236250104627,
                   -1.2171021829283148],
                  -0.4946270580169347, 1.8860003910648933),
    "paraboloid": ([0.375286399814001, 1.1916414029087266, 2.98085834813791],
                   0.4962342424413483, 1.4150185072200883),
    "graph": ([0.375286399814001, 1.1916414029087266, 1.0765436278336604],
              0.4962342424413483, 1.4150185072200883),
}


def test_sampler_draws_are_pinned():
    from framestream.verification import default_frames
    frames = default_frames()
    assert list(frames) == list(FIRST_STATE_SEED_7)
    for name, (r_want, mu_want, om_want) in FIRST_STATE_SEED_7.items():
        r, mu, om = random_states(frames[name], 1,
                                  np.random.default_rng(7))[0]
        assert np.allclose(r, r_want, rtol=1e-12, atol=0.0), name
        assert (mu, om) == (mu_want, om_want), name


# --- a NaN residual fails its check.  The NaN enters at one state only,
# so a fold that lets another residual replace it would pass.

def test_nan_catalog_value_fails_verify_with_a_parseable_report(
        monkeypatch, capsys):
    import json

    from framestream import catalog
    from framestream.cli import main
    aux_fn, errata, printed = catalog._ENTRIES[Sphere]
    calls = []

    def nan_s_tt_at_0(fid, x, y, z):
        aux = list(aux_fn(fid, x, y, z))
        calls.append(len(x))
        aux[0] = aux[0].copy()
        aux[0][0] = math.nan
        return tuple(aux)

    monkeypatch.setitem(catalog._ENTRIES, Sphere,
                        (nan_s_tt_at_0, errata, printed))
    rc = main(["verify", "--frame", "sphere", "--check", "catalog",
               "--no-timestamp"])
    out, err = capsys.readouterr()
    (check,) = json.loads(out)["checks"]
    assert calls == [60]  # one stacked call for the frame's 60 states
    assert rc == 1 and err == "FAIL: catalog-agreement\n"
    assert check["status"] == "fail" and math.isnan(check["max_residual"])
    assert '"max_residual": NaN,' in out


# --- a NaN curvature scalar makes conservation infeasible, wherever it
# enters among the 64 points.

def _nan_scalar_at(monkeypatch, index, name):
    """Make the scalar ``name`` NaN at point ``index`` of each stacked
    frame_scalars result in verification."""
    from framestream import verification
    scalars = verification.frame_scalars
    calls = []

    def stub(jet):
        k = scalars(jet)
        calls.append(jet)
        value = np.array(getattr(k, name))
        value[index] = math.nan
        return k._replace(**{name: value})

    monkeypatch.setattr(verification, "frame_scalars", stub)
    return calls


@pytest.mark.parametrize("index", [0, 37])
@pytest.mark.parametrize("name, reason", [("kn_t", "KappaNNonzero"),
                                          ("s_tt", "CDependsOnOmega")])
def test_conservation_nan_scalar_is_infeasible(monkeypatch, index, name,
                                               reason):
    from framestream import Constant
    calls = _nan_scalar_at(monkeypatch, index, name)
    rng = np.random.default_rng(3)
    points = [r for r, _, _ in random_states(Constant(), 64, rng)]
    report = conservation_check(builtin_frame(Constant()), points,
                                _angle_grid(16, rng))
    assert len(calls) == 1  # one stacked call for the 64 points
    assert (report.feasible, report.reason) == (False, reason)


def test_nan_kappa_n_fails_verify_conservation(monkeypatch, capsys):
    from framestream.cli import main
    calls = _nan_scalar_at(monkeypatch, 0, "kn_t")
    rc = main(["verify", "--frame", "constant", "--check", "conservation",
               "--no-timestamp"])
    _, err = capsys.readouterr()
    assert len(calls) == 1
    assert rc == 1 and err == "FAIL: conservation-trichotomy\n"


# --- malformed points, steps and vectors are OutOfRange, not a raw
# IndexError, ValueError or ZeroDivisionError (or a silent NaN).

def _sphere():
    return builtin_frame(Sphere())


def _loop():
    from framestream.verification import _latitude_loop
    return _latitude_loop(math.pi / 3.0, 64)[0]


UNIT_X = np.array([1.0, 0.0, 0.0])
STACK = [[1.0, 0.2, 0.3], [0.5, 0.4, 0.9]]


def _unit_x(p):
    return (1.0, 0.0, 0.0)


def _apply(dpsi_dmu, dpsi_domega):
    """apply_streaming at a valid sphere state with the given dPsi."""
    coeffs = streaming_coefficients(_sphere(), [1.2, 0.3, 0.9], 0.4, 2.0)
    d = direction_from_angles(coeffs.frame, 0.4, 2.0)
    return apply_streaming(coeffs, d, UNIT_X, dpsi_dmu, dpsi_domega)


def _sphere_chart(theta, phi):
    return (math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi), math.cos(theta))


def _cylinder_shape():
    field = builtin_frame(CylindricalII())
    return shape_operator(field.n_field, field.t_field, field.b_field,
                          [2.0, 0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: streaming_coefficients(_sphere(), [1.0, 0.2], 0.3, 1.0),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: curvature_report(_sphere(), [1.0, 0.2]), "point must be"),
    (lambda: winding_term(_sphere(), [1.0, 0.2]), "point must be"),
    (lambda: kb_transform_residual(builtin_frame(Ellipsoid(2.0, 1.0, 1.0)),
                                   [1.0, 0.2]), "point must be"),
    (lambda: frame_jet(_sphere(), np.ones((2, 3, 3))),
     "not of shape (2, 3, 3)"),
    (lambda: conservation_check(_sphere(), [[1.0, 0.2]] * 8,
                                [(0.3, 1.0)] * 8),
     "not of shape (8, 2)"),
    (lambda: ray_oracle(_sphere(), [1.0, 0.2, 0.4], UNIT_X, 0.0),
     "ray step must be positive and finite, not 0.0"),
    (lambda: ray_oracle(_sphere(), [1.0, 0.2, 0.4], UNIT_X, math.nan),
     "ray step must be positive and finite, not nan"),
    (lambda: ray_oracle(_sphere(), [1.0, 0.2, 0.4], [1.0, 0.0, 0.0, 0.0]),
     "ray point and direction must be 3-vectors"),
    (lambda: parallel_transport_holonomy(_sphere(), _loop(),
                                         [math.nan, 0.0, 0.0]),
     "v0 must be a finite 3-vector"),
    (lambda: parallel_transport_holonomy(_sphere(), _loop(), [1.0, 0.0]),
     "v0 must be a finite 3-vector"),
    # A loop of one repeated vertex has no extent to turn around.
    (lambda: parallel_transport_holonomy(builtin_frame(Constant()),
                                         [[1.0, 0.0, 0.0]] * 16, UNIT_X),
     "loop has no extent: all 16 vertices are (1.0, 0.0, 0.0)"),
    (lambda: parallel_transport_holonomy(_sphere(), [[0.6, 0.0, 0.8]] * 16,
                                         [0.0, 1.0, 0.0]),
     "loop has no extent: all 16 vertices are (0.6, 0.0, 0.8)"),
    # Coordinates numpy cannot convert to floats.
    (lambda: frame_jet(_sphere(), ["a", 1, 2]),
     "point must be an array of numbers: could not convert string to "
     "float: 'a'"),
    (lambda: streaming_coefficients(_sphere(), ["a", 1, 2], 0.3, 1.0),
     "point must be an array of numbers: could not convert string"),
    (lambda: ray_oracle(_sphere(), ["a", 1, 2], UNIT_X),
     "ray point must be an array of numbers: could not convert string"),
    (lambda: conservation_check(_sphere(), [[1.0, 0.2, 0.3]] * 7
                                + [[1.0, 0.2]], [(0.1, 0.2)] * 8),
     "sample points must be an array of numbers: setting an array "
     "element with a sequence"),
    (lambda: parallel_transport_holonomy(_sphere(), [["a", 0.0, 1.0]] * 8,
                                         UNIT_X),
     "loop must be an array of numbers: could not convert string"),
    # Angles go through one converter: a number each, omega finite.
    (lambda: streaming_coefficients(_sphere(), [1.0, 0.2, 0.3], 0.3,
                                    math.inf),
     "omega = inf is not finite"),
    (lambda: streaming_coefficients(_sphere(), [1.0, 0.2, 0.3], "a", 1.0),
     "mu and omega must be numbers: could not convert string to float: "
     "'a'"),
    (lambda: grad_mu(_sphere(), [1.0, 0.2, 0.3], 0.3, -math.inf),
     "omega = -inf is not finite"),
    (lambda: grad_omega(_sphere(), [1.0, 0.2, 0.3], None, 1.0),
     "mu and omega must be numbers"),
    (lambda: conservation_check(_sphere(), [[1.0, 0.2, 0.3]] * 8,
                                [("a", 0.2)] * 8),
     "mu and omega must be numbers: could not convert string"),
    # A NaN omega has no cosine either.
    (lambda: streaming_coefficients(_sphere(), [1.0, 0.2, 0.3], 0.3,
                                    math.nan),
     "omega = nan is not finite"),
    (lambda: grad_omega(_sphere(), [1.0, 0.2, 0.3], 0.3, math.nan),
     "omega = nan is not finite"),
    # The catalog's angles go through the same converter.
    (lambda: catalog_coefficients(Sphere(), [1.0, 0.2, 0.3], "a", 1.0),
     "mu and omega must be numbers: could not convert string to float: "
     "'a'"),
    (lambda: catalog_coefficients(Sphere(), [1.0, 0.2, 0.3], 0.3,
                                  math.inf),
     "omega = inf is not finite"),
    (lambda: catalog_coefficients(Sphere(), [1.0, 0.2, 0.3], 0.3,
                                  math.nan),
     "omega = nan is not finite"),
    (lambda: catalog_coefficients(Sphere(), [[1.0, 0.2, 0.3]] * 2,
                                  ["a", 0.3], [1.0, 1.0]),
     "mu must be an array of numbers: could not convert string"),
    (lambda: catalog_coefficients(Sphere(), [[1.0, 0.2, 0.3]] * 2,
                                  [0.3, 0.3], [1.0, math.inf]),
     "omega = inf is not finite"),
    # The generic-field API names the argument of the wrong shape.
    (lambda: jacobian(_unit_x, [1.0, 0.2]),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: jacobian(_unit_x, [1.0, 0.2], DiffConfig(engine="fd")),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: curl(_unit_x, [1.0, 0.2]),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: directional_derivative(_unit_x, [1.0, 0.2], UNIT_X),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: directional_derivative(_unit_x, UNIT_X, [1.0, 0.0]),
     "direction must be a 3-vector, not of shape (2,)"),
    (lambda: directional_derivative(_unit_x, UNIT_X, [1.0, 0.0],
                                    DiffConfig(engine="fd")),
     "direction must be a 3-vector, not of shape (2,)"),
    (lambda: shape_operator(_unit_x, lambda p: (0.0, 1.0, 0.0),
                            lambda p: (0.0, 0.0, 1.0), [1.0, 0.2]),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: integral_curve_curvature(_unit_x, [1.0, 0.2]),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: foliation_defect(_unit_x, [1.0, 0.2]),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: curvature_from_parametrization([1.0, 0.2], UNIT_X),
     "gamma_prime must be a 3-vector, not of shape (2,)"),
    (lambda: curvature_from_parametrization(UNIT_X, [1.0, 0.2]),
     "gamma_double_prime must be a 3-vector, not of shape (2,)"),
    (lambda: integrate_curve(_unit_x, UNIT_X, (0.0, 1.0), 16.5),
     "steps must be an integer, not 16.5"),
    (lambda: integrate_curve(_unit_x, UNIT_X, (0.0, 1.0), "16"),
     "steps must be an integer, not '16'"),
    (lambda: integrate_curve(_unit_x, UNIT_X, ("a", 1), 16),
     "tau_span must be an array of numbers: could not convert string"),
    (lambda: integrate_curve(_unit_x, [1.0, 0.2], (0.0, 1.0), 16),
     "start point must be a 3-vector, not of shape (2,)"),
    # A single-state call names a stack of points, whatever its route.
    (lambda: grad_mu(_sphere(), STACK, 0.3, 1.0),
     "point must be a 3-vector, not of shape (2, 3)"),
    (lambda: grad_mu(_sphere(), STACK, 0.3, 1.0, MuForm.SURFACE_CURVATURE),
     "point must be a 3-vector, not of shape (2, 3)"),
    (lambda: grad_omega(_sphere(), STACK, 0.3, 1.0),
     "point must be a 3-vector, not of shape (2, 3)"),
    (lambda: grad_omega(_sphere(), STACK, 0.3, 1.0, OmegaForm.SURFACE_B),
     "point must be a 3-vector, not of shape (2, 3)"),
    (lambda: winding_term(_sphere(), STACK),
     "point must be a 3-vector, not of shape (2, 3)"),
    (lambda: curvature_report(_sphere(), STACK),
     "point must be a 3-vector, not of shape (2, 3)"),
    (lambda: kb_transform_residual(builtin_frame(Ellipsoid(2.0, 1.0, 1.0)),
                                   STACK),
     "point must be a 3-vector, not of shape (2, 3)"),
    # Each sample angle is a (mu, omega) pair.
    (lambda: conservation_check(_sphere(), [[1.0, 0.2, 0.3]] * 8,
                                [(0.1, 0.2, 0.3)] * 8),
     "sample angles must be (mu, omega) pairs"),
    (lambda: conservation_check(_sphere(), [[1.0, 0.2, 0.3]] * 8,
                                [0.1] * 8),
     "sample angles must be (mu, omega) pairs"),
    # A point of another length than 3, given to an API that reads it.
    (lambda: coefficients_from_jet(frame_jet(_sphere(), [1.0, 0.2, 0.3]),
                                   0.3, 1.0, at_point=[1.0, 2.0]),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: _sphere().n_field([1.0, 0.4, 0.3, 99.0]),
     "point must be a 3-vector, not of length 4"),
    (lambda: _sphere().t_field([1.0, 0.4]),
     "point must be a 3-vector, not of length 2"),
    (lambda: _sphere().b_field((1.0,) * 4),
     "point must be a 3-vector, not of length 4"),
    # Frame ids and DiffConfig hold finite numbers; NaN and inf fail.
    (lambda: Ellipsoid("a", 1, 1),
     "ellipsoid semi-axes must be finite numbers, not ('a', 1, 1)"),
    (lambda: Ellipsoid(math.nan, 1.0, 1.0),
     "ellipsoid semi-axes must be finite numbers, not (nan, 1.0, 1.0)"),
    (lambda: Ellipsoid(2.0, math.inf, 1.0),
     "ellipsoid semi-axes must be finite numbers, not (2.0, inf, 1.0)"),
    (lambda: Paraboloid(math.nan, 0.5),
     "paraboloid coefficients must be finite numbers, not (nan, 0.5)"),
    (lambda: Paraboloid(1.0, "b"),
     "paraboloid coefficients must be finite numbers, not (1.0, 'b')"),
    (lambda: DiffConfig(fd_step="a"), "fd_step must be a number, not 'a'"),
    # A scalar argument that is not a number is named.
    (lambda: ray_oracle(_sphere(), [1.0, 0.2, 0.4], UNIT_X, "a"),
     "ray step must be a number: could not convert string to float: 'a'"),
    (lambda: _apply("a", 0.0), "dpsi_dmu must be a number"),
    (lambda: _apply(0.0, [1.0, 2.0]), "dpsi_domega must be a number"),
    (lambda: FramePoint("abc", UNIT_X, UNIT_X),
     "n must be an array of numbers: could not convert string to float: "
     "'abc'"),
    (lambda: FramePoint(UNIT_X, [0.0, "y", 0.0], UNIT_X),
     "t must be an array of numbers: could not convert string to float: "
     "'y'"),
    (lambda: run_checks(holonomy_theta="a"),
     "holonomy_theta must be a number: could not convert string"),
    (lambda: catalog_entry(Sphere()).auxiliary["s_tt"]("abc"),
     "point must be an array of numbers: could not convert string"),
    (lambda: catalog_entry(Sphere()).auxiliary["s_tt"]([1.0, 2.0]),
     "point must be a 3-vector, not of shape (2,)"),
    (lambda: normal_curvature(_cylinder_shape(), "a"),
     "omega must be a number: could not convert string"),
    (lambda: normal_curvature(_cylinder_shape(), math.inf),
     "omega = inf is not finite"),
    (lambda: shape_operator_via_fundamental_forms(_sphere_chart, "a", 0.0),
     "u must be a number: could not convert string"),
    (lambda: shape_operator_via_fundamental_forms(_sphere_chart, 1.0, None),
     "v must be a number"),
    # A name filter is None or a string; an engine is a string.
    (lambda: run_checks(frame_filter=["sphere"]),
     "frame_filter must be a string or None, not ['sphere']"),
    (lambda: run_checks(check_filter=3),
     "check_filter must be a string or None, not 3"),
    (lambda: verification.selected_checks(b"holonomy"),
     "check_filter must be a string or None, not b'holonomy'"),
    (lambda: DiffConfig(engine=np.array(["dual", "fd"])),
     "unknown engine array(['dual', 'fd']"),
    (lambda: DiffConfig(engine=np.array(["dual"])),
     "unknown engine array(['dual']"),
    # Sample points are an (N, 3) array before they are counted.
    (lambda: conservation_check(_sphere(), 1.0, [(0.1, 0.2)] * 8),
     "sample points must be an (N, 3) array, not of shape ()"),
    (lambda: conservation_check(_sphere(), [1.0, 0.2, 0.3],
                                [(0.1, 0.2)] * 8),
     "sample points must be an (N, 3) array, not of shape (3,)"),
    # An object that is not the library type an argument names.
    (lambda: coefficients_from_jet(object(), 0.3, 1.1),
     "jet must be a FrameJet, not object"),
    (lambda: checked_terms(object(), 0.3, 0.9, 0.5, 0.8),
     "jet must be a FrameJet, not object"),
    (lambda: apply_streaming(object(), UNIT_X, UNIT_X, 0.0, 0.0),
     "coeffs must be a StreamingCoefficients, not object"),
    (lambda: direction_from_angles(object(), 0.3, 1.1),
     "frame must be a FramePoint, not object"),
    (lambda: angles_from_direction(object(), UNIT_X),
     "frame must be a FramePoint, not object"),
    (lambda: normal_curvature(object(), 0.3),
     "shape must be a ShapeOperator2x2, not object"),
], ids=["coefficients", "curvature-report", "winding", "kb-transform",
        "jet-rank-3", "conservation", "oracle-step-0", "oracle-step-nan",
        "oracle-direction", "holonomy-v0-nan", "holonomy-v0-short",
        "holonomy-plane-no-extent", "holonomy-sphere-no-extent",
        "jet-string", "coefficients-string", "oracle-string",
        "conservation-ragged", "holonomy-loop-string",
        "coefficients-omega-inf", "coefficients-mu-string",
        "grad-mu-omega-inf", "grad-omega-mu-none",
        "conservation-angle-string", "coefficients-omega-nan",
        "grad-omega-omega-nan", "catalog-mu-string", "catalog-omega-inf",
        "catalog-omega-nan", "catalog-stack-mu-string",
        "catalog-stack-omega-inf", "jacobian-point", "jacobian-fd-point",
        "curl-point", "derivative-point", "derivative-direction",
        "derivative-fd-direction", "shape-operator-point",
        "integral-curve-point", "foliation-point", "parametrization-prime",
        "parametrization-double-prime", "integrate-steps-float",
        "integrate-steps-string", "integrate-span-string",
        "integrate-start-point", "grad-mu-stack", "grad-mu-surface-stack",
        "grad-omega-stack", "grad-omega-surface-stack", "winding-stack",
        "curvature-report-stack", "kb-transform-stack",
        "conservation-angle-triple", "conservation-angle-number",
        "coefficients-jet-at-point",
        "n-field-4-vector", "t-field-2-vector", "b-field-4-vector",
        "ellipsoid-string", "ellipsoid-nan", "ellipsoid-inf",
        "paraboloid-nan", "paraboloid-string", "fd-step-string",
        "oracle-step-string", "apply-dpsi-dmu-string",
        "apply-dpsi-domega-list", "frame-point-string",
        "frame-point-t-string", "run-checks-theta-string",
        "catalog-aux-string", "catalog-aux-2-vector",
        "normal-curvature-string", "normal-curvature-inf",
        "fundamental-forms-u-string", "fundamental-forms-v-none",
        "run-checks-frame-filter-list", "run-checks-check-filter-int",
        "selected-checks-bytes", "engine-array", "engine-array-of-one",
        "conservation-scalar-points", "conservation-one-point",
        "coefficients-jet-object", "checked-terms-jet-object",
        "apply-coeffs-object", "direction-frame-object",
        "angles-frame-object", "normal-curvature-shape-object"])
def test_malformed_input_is_out_of_range(call, message):
    with pytest.raises(OutOfRange) as info:
        call()
    assert message in str(info.value)


def test_well_formed_generic_field_inputs_keep_nan():
    """The shape checks let a NaN entry through, as before."""
    nan_point = [math.nan, 0.2, 0.3]
    squares = jacobian(lambda p: (p[0] * p[0], p[1], p[2]), nan_point)
    assert np.isnan(squares[0, 0]) and squares[1, 1] == 1.0
    assert np.isnan(directional_derivative(
        lambda p: (p[0], p[1], p[2]), UNIT_X, [math.nan, 0.0, 0.0])).any()
    assert np.isnan(curvature_from_parametrization(
        [math.nan, 1.0, 0.0], UNIT_X)).all()


# --- a new verify check is one row of verification._CHECKS: run_checks
# and the CLI pick it up by name, and its tolerance decides its status.

@pytest.mark.parametrize("worst, report_only, status, code", [
    (0.5, False, "pass", 0),
    (1.0, False, "pass", 0),
    (2.0, False, "fail", 1),
    (math.nan, False, "fail", 1),
    (2.0, True, "report-only", 0),
    (math.nan, True, "report-only", 0),
], ids=["below", "at", "above", "nan", "report-only", "report-only-nan"])
def test_a_new_check_is_one_row(monkeypatch, capsys, worst, report_only,
                                status, code):
    calls = []

    def runner(frames, rng, cfg, theta):
        calls.append((list(frames), cfg.engine, theta))
        return worst, 5

    monkeypatch.setitem(verification._CHECKS, "dummy-check",
                        (1.0, report_only, runner))
    [result] = run_checks(frame_filter="sphere", check_filter="dummy",
                          holonomy_theta=0.5)
    assert calls == [(["sphere"], "dual", 0.5)]
    assert (result.name, result.status, result.tolerance, result.samples) \
        == ("dummy-check", status, 1.0, 5)
    assert result.max_residual == worst or math.isnan(worst)

    rc = main(["verify", "--check", "dummy", "--engine", "fd",
               "--no-timestamp"])
    out, err = capsys.readouterr()
    assert rc == code
    assert err == ("FAIL: dummy-check\n" if code else "")
    [check] = json.loads(out)["checks"]
    assert check["name"] == "dummy-check" and check["status"] == status
    assert calls[1][1:] == ("fd", math.pi / 3.0)
    assert len(calls[1][0]) == len(verification.default_frames())
