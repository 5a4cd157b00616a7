import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, pbdv

from levybridge.laws import LevyLaw
from levybridge.numerics import (Quadrature, QuadratureError, gamma_density,
                                 gauss_density, integrate_levy, integrate_panels,
                                 parabolic_cylinder_D,
                                 parabolic_cylinder_log_D, poisson_pmf,
                                 positive_intervals, power_gauss_integral)

GAMMA = LevyLaw.standard_gamma()
POIS = LevyLaw.poisson(1.0)


def test_gauss_density_values():
    assert gauss_density(1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-16)
    assert gauss_density(0.5, 1.3, 0.2) == gauss_density(0.5, 0.2, 1.3)
    total, _ = integrate.quad(lambda x: gauss_density(2.0, x), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        gauss_density(0.0, 1.0)


def test_gamma_density():
    xs = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(gamma_density(1.0, xs), np.exp(-xs), atol=1e-15)
    assert gamma_density(0.5, -1.0) == 0.0
    assert gamma_density(0.5, 0.0) == 0.0
    one = gamma_density(1.7, 2.5)
    assert type(one) is float and one == gamma_density(1.7, np.array([2.5]))[0]
    mean = integrate_levy(lambda y: y, GAMMA, 0.7)
    assert mean == pytest.approx(0.7, rel=1e-8)


def test_poisson_pmf():
    assert poisson_pmf(2.0, 1.5, 0) == pytest.approx(np.exp(-3.0), abs=1e-15)
    ns = np.arange(200)
    pm = poisson_pmf(1.0, 1.0, ns)
    assert pm.sum() == pytest.approx(1.0, abs=1e-12)
    assert (ns * pm).sum() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        poisson_pmf(1.0, -1.0, 0)


@pytest.mark.parametrize("law", [GAMMA, POIS, LevyLaw.degenerate()])
def test_integrate_levy_constant(law):
    assert integrate_levy(lambda y: 1.0, law, 0.6) == pytest.approx(1.0, rel=1e-9)


def test_integrate_levy_means():
    assert integrate_levy(lambda y: y, GAMMA, 0.35) == pytest.approx(0.35, rel=1e-8)
    assert integrate_levy(lambda y: y, POIS, 2.0) == pytest.approx(2.0, rel=1e-8)
    lam3 = LevyLaw.poisson(3.0)
    assert integrate_levy(lambda y: y, lam3, 0.5) == pytest.approx(1.5, rel=1e-8)
    assert integrate_levy(lambda y: y, LevyLaw.degenerate(), 1.0) == 0.0


def test_integrate_levy_second_moment_gamma():
    # E[X_t^2] = t + t^2 for the standard gamma subordinator
    t = 0.8
    val = integrate_levy(lambda y: y * y, GAMMA, t)
    assert val == pytest.approx(t + t * t, rel=1e-8)


def test_integrate_levy_rejects_bad_time():
    for law in (GAMMA, POIS):
        for t in (0.0, np.inf, np.array([0.5, np.inf])):
            with pytest.raises(ValueError, match="time must be positive and finite"):
                integrate_levy(lambda y: 1.0, law, t)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        Quadrature(abs_tol=0.0)
    q = Quadrature().scaled(0.5)
    assert q.rel_tol == pytest.approx(0.5e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
def test_quadrature_rejects_tolerances_that_are_not_finite(field, bad):
    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        Quadrature(**{field: bad})


def test_parabolic_cylinder_order_zero():
    for z in np.linspace(-3.0, 3.0, 13):
        assert parabolic_cylinder_D(0.0, z) == pytest.approx(np.exp(-z * z / 4.0), abs=1e-16)


def test_parabolic_cylinder_special_value():
    assert parabolic_cylinder_D(-1.0, 0.0) == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-12)


def test_parabolic_cylinder_vs_scipy():
    # independent oracle: scipy's recurrence-based implementation
    for order in (-0.25, -0.5, -1.0, -2.5):
        for z in (-2.0, -0.5, 0.0, 1.0, 3.0):
            ours = parabolic_cylinder_D(order, z)
            ref = pbdv(order, z)[0]
            assert ours == pytest.approx(ref, rel=1e-10), (order, z)


def test_parabolic_cylinder_log_far_negative_argument():
    # exp of the integrand's peak overflows here; references from mpmath.pcfd
    assert parabolic_cylinder_log_D(-0.01, -70.0) == pytest.approx(1217.113649498405, rel=1e-10)
    assert parabolic_cylinder_log_D(-0.5, -40.0) == pytest.approx(398.50236853195, rel=1e-10)


def test_parabolic_cylinder_rejects_positive_order():
    with pytest.raises(ValueError):
        parabolic_cylinder_D(0.5, 1.0)


def test_identity_round_trip():
    # integral = (2 beta)^(-nu/2) Gamma(nu) exp(alpha^2/(8 beta)) D_{-nu}(alpha/sqrt(2 beta))
    for nu, beta, alpha in [(0.5, 0.3, 1.2), (1.5, 1.0, -0.7), (3.0, 0.2, 2.0)]:
        lhs = power_gauss_integral(nu, beta, alpha)
        rhs = ((2.0 * beta) ** (-nu / 2.0) * np.exp(gammaln(nu)) * np.exp(alpha ** 2 / (8.0 * beta))
               * parabolic_cylinder_D(-nu, alpha / np.sqrt(2.0 * beta)))
        assert lhs == pytest.approx(rhs, rel=1e-9), (nu, beta, alpha)


def test_power_gauss_integral_against_quad():
    # plain adaptive quadrature as a second route (no endpoint weighting)
    nu, beta, alpha = 1.7, 0.4, -1.1
    ref, _ = integrate.quad(lambda y: y ** (nu - 1.0) * np.exp(-beta * y * y - alpha * y),
                            0.0, np.inf, limit=300)
    assert power_gauss_integral(nu, beta, alpha) == pytest.approx(ref, rel=1e-9)


def test_poisson_series_tail_rule():
    # heavy-tailed f still converges and hits the analytic value
    lam20 = LevyLaw.poisson(20.0)
    val = integrate_levy(lambda n: n * n, lam20, 1.0)
    assert val == pytest.approx(20.0 + 400.0, rel=1e-8)


def test_integrate_levy_unresolved_integrand_raises():
    # a gamma integrand oscillating faster than the panel cap resolves, and a Poisson summand whose peak lies
    # past the lattice cap
    with pytest.raises(QuadratureError):
        integrate_levy(lambda y: np.sin(1e8 * y), GAMMA, 0.5)
    with pytest.raises(QuadratureError):
        integrate_levy(lambda n: np.exp(0.01 * (n - 5e6)), POIS, 5e6)


def test_quadrature_rejects_rel_tol_below_the_roundoff_floor():
    # every error estimate is at least 50 eps times the integral of |f|, and the goal a quarter of rel_tol times it
    floor = 200.0 * np.finfo(float).eps
    with pytest.raises(ValueError, match="below the roundoff floor 4.44e-14"):
        Quadrature(abs_tol=1e-300, rel_tol=1e-18)
    with pytest.raises(ValueError, match="roundoff floor"):
        Quadrature(rel_tol=floor * (1.0 - 1e-12))
    assert Quadrature(rel_tol=floor).rel_tol == floor
    assert integrate_levy(lambda y: np.exp(-y), GAMMA, 0.5, Quadrature(rel_tol=floor)) == pytest.approx(2.0 ** -0.5,
                                                                                                        rel=1e-13)


@pytest.mark.parametrize("law", [GAMMA, POIS, LevyLaw.degenerate()])
def test_integrate_levy_one_integral_per_element(law):
    centres = np.array([[-1.0, 0.5], [2.0, 7.5]])
    vals = integrate_levy(lambda y: gauss_density(0.3, centres[..., None], y), law, 0.7,
                          points=centres[..., None] + np.array([-3.0, 0.0, 3.0]))
    assert vals.shape == centres.shape
    for c, v in zip(centres.ravel(), vals.ravel()):
        single = integrate_levy(lambda y: gauss_density(0.3, c, y), law, 0.7, points=c + np.array([-3.0, 0.0, 3.0]))
        assert isinstance(single, float)
        assert v == single


@pytest.mark.parametrize("law", [GAMMA, POIS, LevyLaw.degenerate()])
def test_integrate_levy_law_time_per_element(law):
    centres, times = np.array([[-1.0, 0.5], [2.0, 7.5]]), np.array([[1e-14, 0.02], [0.7, 3.0]])
    vals = integrate_levy(lambda y: gauss_density(0.3, centres[..., None], y), law, times,
                          points=centres[..., None] + np.array([-3.0, 0.0, 3.0]))
    assert vals.shape == centres.shape
    for c, t, v in zip(centres.ravel(), times.ravel(), vals.ravel()):
        single = integrate_levy(lambda y: gauss_density(0.3, c, y), law, t, points=c + np.array([-3.0, 0.0, 3.0]))
        assert v == single


@pytest.mark.parametrize("law", [GAMMA, POIS, LevyLaw.degenerate()])
def test_integrate_levy_no_elements(law):
    centres = np.zeros((0,))
    vals = integrate_levy(lambda y: gauss_density(0.3, centres[..., None], y), law, 0.7,
                          points=centres[..., None] + np.array([-3.0, 0.0, 3.0]))
    assert vals.shape == (0,)


@pytest.mark.parametrize("law", [GAMMA, POIS, LevyLaw.degenerate()])
def test_integrate_levy_rejects_undeclared_elements(law):
    # the elements are t and points without its last axis; an integrand may not add axes of its own
    centres = np.array([-1.0, 0.5, 2.0])

    def f(y):
        return gauss_density(0.3, centres[..., None], y)

    with pytest.raises(ValueError):
        integrate_levy(f, law, 0.7)
    with pytest.raises(ValueError):
        integrate_levy(f, law, np.full(2, 0.7))
    with pytest.raises(ValueError):
        integrate_levy(f, law, 0.7, points=np.array([[-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]]))


def test_integrate_panels_one_integral_per_element():
    centres, widths = np.array([[-1.0, 0.5, 2.0], [3.5, 0.0, -4.0]]), np.array([0.02, 0.7, 3.0])
    breaks = np.array([-6.0, -1.0, 0.0, 2.0, 6.0])
    vals = integrate_panels(lambda x, c, w: gauss_density(w, x, c), breaks, Quadrature(1e-13, 1e-10),
                            args=(centres, widths))
    assert vals.shape == centres.shape
    for (i, j), v in np.ndenumerate(vals):
        single = integrate_panels(lambda x, c, w: gauss_density(w, x, c), breaks, Quadrature(1e-13, 1e-10),
                                  args=(centres[i, j], widths[j]))
        assert isinstance(single, float)
        assert v == single


@pytest.mark.parametrize("breaks", [[0.0, np.nan], [1.0, 0.0], [0.0, 1.0, np.nan], [0.0, np.inf], [0.0, 2.0, 1.0]])
def test_integrate_panels_rejects_break_points_it_cannot_integrate(breaks):
    with pytest.raises(ValueError, match="break points must be finite and must not decrease"):
        integrate_panels(lambda x: np.ones_like(x), breaks, Quadrature(1e-12, 1e-10))


_SINE_POSITIVE = [[0.0, np.pi], [2.0 * np.pi, 3.0 * np.pi]]


def test_positive_intervals():
    # sin(0) is exactly 0: the first piece takes the sign of its scan values that are not 0
    np.testing.assert_allclose(positive_intervals(np.sin, 0.0, 3.0 * np.pi, 0.1), _SINE_POSITIVE, rtol=0.0, atol=1e-11)
    assert positive_intervals(lambda x: 0.0 * x - 1.0, -1.0, 1.0, 0.1).shape == (0, 2)


def test_positive_intervals_scans_in_blocks():
    sizes = []

    def g(x):
        sizes.append(np.size(x))
        return np.sin(x)

    ends = positive_intervals(g, 0.0, 3.0 * np.pi, 1e-3)  # 9426 scan points in 5 calls, then brentq's scalar calls
    np.testing.assert_allclose(ends, _SINE_POSITIVE, rtol=0.0, atol=1e-11)
    assert sum(sizes[:5]) == 9426 and max(sizes) <= 2048


def test_no_overflow_warning_on_finite_inputs():
    # the square and the product of neighbouring values overflow to inf; the
    # density is 0 there, and the kinks are found from signs (RuntimeWarning is an error here)
    assert gauss_density(1.0, 1e200) == 0.0
    assert gauss_density(np.array([0.5, 2.0]), -1e200, 1e200).tolist() == [0.0, 0.0]
    assert positive_intervals(lambda x: 1e300 * (np.sin(x) - 2.0), 0.0, 3.0, 0.1).shape == (0, 2)
    ends = positive_intervals(lambda x: 1e300 * np.sin(x), 0.0, 3.0 * np.pi, 0.1)
    np.testing.assert_allclose(ends, _SINE_POSITIVE, rtol=0.0, atol=1e-11)


def test_gamma_law_time_below_1e_15():
    # X_a with a = 1e-16 is almost surely within 1e-12 of 0, so the integral is 1 to 1e-12
    assert integrate_levy(lambda y: np.exp(-y * y), GAMMA, 1e-16) == pytest.approx(1.0, abs=1e-12)
