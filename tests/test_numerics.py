import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, pbdv

from levybridge.laws import LevyLaw
from levybridge.numerics import (Quadrature, QuadratureError, gamma_density,
                                 gauss_density, integrate_levy, integrate_panels,
                                 parabolic_cylinder_D,
                                 parabolic_cylinder_log_D, poisson_pmf,
                                 positive_part_integral, power_gauss_integral)

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
    with pytest.raises(ValueError):
        integrate_levy(lambda y: 1.0, GAMMA, 0.0)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        Quadrature(abs_tol=0.0)
    q = Quadrature().scaled(0.5)
    assert q.rel_tol == pytest.approx(0.5e-9)


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


def test_integrate_levy_unreachable_tolerance_raises():
    q = Quadrature(abs_tol=1e-300, rel_tol=1e-18, max_subdivisions=40)
    for law in (GAMMA, POIS):
        with pytest.raises(QuadratureError):
            integrate_levy(lambda y: np.exp(-y), law, 0.5, q)


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


def test_integrate_panels_one_integral_per_element():
    centres, widths = np.array([[-1.0, 0.5, 2.0], [3.5, 0.0, -4.0]]), np.array([0.02, 0.7, 3.0])
    breaks = np.array([-6.0, -1.0, 0.0, 2.0, 6.0])
    vals = integrate_panels(lambda x, c, w: gauss_density(w, x, c), breaks, 1e-13, 1e-10, args=(centres, widths))
    assert vals.shape == centres.shape
    for (i, j), v in np.ndenumerate(vals):
        single = integrate_panels(lambda x, c, w: gauss_density(w, x, c), breaks, 1e-13, 1e-10,
                                  args=(centres[i, j], widths[j]))
        assert isinstance(single, float)
        assert v == single


def test_positive_part_integral():
    val = positive_part_integral(lambda x: np.sin(x), 0.0, 3.0 * np.pi, 1e-12, 1e-10)
    assert val == pytest.approx(4.0, rel=1e-10)
    assert positive_part_integral(lambda x: 0.0 * x - 1.0, -1.0, 1.0, 1e-12, 1e-10) == 0.0


def test_gamma_law_time_below_1e_15():
    # X_a with a = 1e-16 is almost surely within 1e-12 of 0, so the integral is 1 to 1e-12
    assert integrate_levy(lambda y: np.exp(-y * y), GAMMA, 1e-16) == pytest.approx(1.0, abs=1e-12)
