import numpy as np
import pytest
from scipy import integrate

from levybridge.laws import LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.numerics import DEFAULT_QUADRATURE, gauss_density, poisson_pmf
from levybridge.pricing import (PriceQuote, bayes_posterior, binary_bond_price,
                                bond_price, bridge_levy_density, gamma_closed_form_price,
                                likelihood_q, option_value,
                                poisson_closed_form_price, posterior_mean,
                                posterior_payoff, transition_density_psi,
                                x_bracket)

GAMMA = LevyLaw.standard_gamma()
POIS = LevyLaw.poisson(1.0)
BINARY = PayoffDistribution.binary(0.0, 1.0, 0.5)


def _model(levy=GAMMA, sigma=1.0, rate=0.0, payoff=BINARY):
    return MarketModel(1.0, sigma, 1.0, RateCurve.flat(rate), payoff, levy)


def test_likelihood_rejects_bad_times():
    m = _model()
    for t in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            likelihood_q(m, t, 1.0, 0.5)


def test_likelihood_sigma_small_forgets_payoff():
    m = _model(sigma=1e-8)
    a = likelihood_q(m, 0.5, 0.0, 0.4)
    b = likelihood_q(m, 0.5, 1.0, 0.4)
    assert a == pytest.approx(b, rel=1e-7)


def test_likelihood_degenerate_levy_is_bridge_density():
    m = _model(levy=LevyLaw.degenerate())
    t, h, x = 0.5, 1.0, 0.7
    v = t * (1.0 - t) / 1.0
    assert likelihood_q(m, t, h, x) == pytest.approx(float(gauss_density(v, x - t * h)), abs=1e-16)


def test_likelihood_normalizes_in_x():
    m = _model()
    val, err = integrate.quad(lambda x: likelihood_q(m, 0.5, 1.0, x), -10.0, 25.0, limit=400)
    assert val == pytest.approx(1.0, abs=1e-7)


def test_posterior_prior_limit():
    m = _model()
    for h, w in posterior_payoff(m, 1e-6, 0.0):
        assert abs(w - 0.5) < 1e-6


def test_posterior_binary_ratio():
    m = _model()
    t, x = 0.5, 0.7
    q0 = likelihood_q(m, t, 0.0, x)
    q1 = likelihood_q(m, t, 1.0, x)
    w = dict(posterior_payoff(m, t, x))
    assert w[1.0] / w[0.0] == pytest.approx(q1 / q0, rel=1e-12)


def test_posterior_concentrates_near_maturity():
    m = _model()
    w = dict(posterior_payoff(m, 0.999, 1.0 * 0.999 * 1.0))
    assert w[1.0] > 0.99


def test_posterior_scaling_invariance():
    # h -> c h with sigma -> sigma / c keeps the signal sigma*t*h, so weights match
    m1 = _model()
    m2 = _model(sigma=0.5, payoff=PayoffDistribution.binary(0.0, 2.0, 0.5))
    w1 = [w for _, w in posterior_payoff(m1, 0.5, 0.7)]
    w2 = [w for _, w in posterior_payoff(m2, 0.5, 0.7)]
    np.testing.assert_allclose(w1, w2, rtol=1e-12)


def test_bayes_posterior_guards():
    with pytest.raises(ArithmeticError):
        bayes_posterior([0.0, 0.0], [0.5, 0.5])


def test_bond_price_endpoints_and_bounds():
    m = _model()
    q0 = bond_price(m, 0.0, 0.0)
    assert q0.price == pytest.approx(0.5, abs=1e-15)
    qT = bond_price(m, 1.0, 1.0 * 1.0 * 1.0)
    assert qT.price == 1.0
    with pytest.raises(ValueError):
        bond_price(m, 1.0, 0.37)  # terminal observation off every atom
    quote = bond_price(m, 0.5, 0.7)
    assert 0.0 <= quote.price <= 1.0
    assert sum(w for _, w in quote.posterior) == pytest.approx(1.0, abs=1e-12)


def test_bond_price_tower_sanity_mc():
    from levybridge.mc import tower_check
    rep = tower_check(_model(), 0.5, 60_000, seed=31)
    assert rep.passed, rep


def test_binary_route_matches_generic():
    for levy in (GAMMA, POIS):
        m = _model(levy=levy)
        for t in (0.2, 0.5, 0.8):
            for x in (-0.3, 0.1, 0.45, 0.9):
                generic = bond_price(m, t, x).price
                assert binary_bond_price(m, t, x) == pytest.approx(generic, abs=1e-12)


def test_gamma_closed_form_matches_generic():
    m = _model()
    for t in (0.25, 0.5, 0.75):
        for x in (-0.4, 0.2, 0.7, 1.3):
            generic = binary_bond_price(m, t, x)
            closed = gamma_closed_form_price(m, t, x)
            assert abs(closed - generic) / abs(generic) < 1e-5, (t, x)


def test_gamma_closed_form_prior_limit():
    m = _model()
    assert gamma_closed_form_price(m, 1e-6, 0.0) == pytest.approx(0.5, abs=1e-4)


def test_poisson_closed_form_matches_generic():
    m = _model(levy=POIS)
    for t in (0.25, 0.5, 0.75):
        for x in (-0.4, 0.2, 0.7, 1.3):
            generic = binary_bond_price(m, t, x)
            closed = poisson_closed_form_price(m, t, x)
            assert abs(closed - generic) / abs(generic) < 1e-8, (t, x)


def test_closed_forms_reject_wrong_law():
    with pytest.raises(ValueError):
        gamma_closed_form_price(_model(levy=POIS), 0.5, 0.5)
    with pytest.raises(ValueError):
        poisson_closed_form_price(_model(), 0.5, 0.5)


def test_posterior_weight_monotone_in_x():
    # monotone on the bulk lattice; the gamma mixture genuinely loses
    # monotonicity in the far right tail (shape < 1 is not log-concave),
    # where the weight relaxes from above toward its tail limit
    for levy in (GAMMA, POIS):
        m = _model(levy=levy)
        xs = np.linspace(-1.0, 1.5, 41)
        w1 = [dict(posterior_payoff(m, 0.5, float(x)))[1.0] for x in xs]
        assert np.all(np.diff(w1) > -1e-9), levy.kind


def test_option_zero_strike_recovers_mean():
    m = _model()
    assert option_value(m, 0.5, 0.0) == pytest.approx(0.5, abs=1e-6)


def test_option_deep_strike_is_zero():
    m = _model()
    assert option_value(m, 0.5, 1.0) == pytest.approx(0.0, abs=1e-10)
    assert option_value(m, 0.5, 2.5) == 0.0


def test_option_discounting():
    m = _model(rate=0.04)
    val = option_value(m, 0.5, 0.0)
    # K = 0: value is P_0^t * P_t^T * E[H] = P_0^T * E[H]
    assert val == pytest.approx(np.exp(-0.04) * 0.5, abs=1e-6)


def test_option_rejects_bad_inputs():
    m = _model()
    with pytest.raises(ValueError):
        option_value(m, 0.0, 0.5)
    with pytest.raises(ValueError):
        option_value(m, 0.5, -0.1)


def test_price_quote_validation():
    with pytest.raises(ValueError):
        PriceQuote(0.5, 0.0, 0.5, ((0.0, 0.7), (1.0, 0.7)))
    with pytest.raises(ValueError):
        PriceQuote(0.5, 0.0, 0.5, ((0.0, np.nan), (1.0, 1.0)))


@pytest.mark.parametrize("t, x, ref", [(0.99, 8.0, 0.7560241563472548), (0.5, 30.0, 0.7327364755780346)])
def test_gamma_closed_form_far_tail(t, x, ref):
    # D's integrand peaks far out here; the generic route gives the same price
    m = _model()
    assert gamma_closed_form_price(m, t, x) == pytest.approx(ref, rel=1e-8)
    assert bond_price(m, t, x).price == pytest.approx(ref, rel=1e-8)


def test_x_bracket_covers_signal():
    m = _model()
    lo, hi = x_bracket(m, 0.5, 0.5 / m.maturity)
    assert lo < 0.0 and hi > 1.0


def test_psi_normalization_gamma():
    m = _model()
    val, _ = integrate.quad(lambda y: transition_density_psi(m, 0.3, 0.6, 0.4, y),
                            -3.0, 4.0, epsabs=1e-9, epsrel=1e-8, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_psi_degenerate_reduces_to_bridge_transition():
    m = _model(levy=LevyLaw.degenerate())
    T, t, u, x, y = 1.0, 0.3, 0.6, 0.4, 0.1
    ref = gauss_density((T - u) * (u - t) / (T - t), y, (T - u) / (T - t) * x)
    assert transition_density_psi(m, t, u, x, y) == pytest.approx(float(ref), rel=1e-12)


def test_psi_rejects_bad_order():
    m = _model()
    for (t, u) in ((0.6, 0.3), (0.0, 0.5), (0.4, 1.0), (0.2, 0.2)):
        with pytest.raises(ValueError):
            transition_density_psi(m, t, u, 0.4, 0.1)


def test_psi_poisson_normalization_loose():
    m = _model(levy=POIS)
    val, _ = integrate.quad(lambda y: transition_density_psi(m, 0.3, 0.6, 0.4, y),
                            -3.0, 4.0, epsabs=1e-8, epsrel=1e-7, limit=200)
    assert val == pytest.approx(1.0, abs=1e-5)


def test_posterior_mean_between_atoms():
    m = _model()
    for x in (-1.0, 0.0, 0.5, 1.5):
        pm = posterior_mean(m, 0.5, x)
        assert 0.0 <= pm <= 1.0


@pytest.mark.parametrize("x, revealed", [(500.0, 1.0), (0.3, 0.0)])
def test_binary_route_with_one_vanished_likelihood(x, revealed):
    # with sigma = 1000 one likelihood underflows to 0, and the other payoff is certain
    m = _model(sigma=1000.0)
    assert bond_price(m, 0.5, x).price == revealed
    assert binary_bond_price(m, 0.5, x) == revealed


def test_bridge_levy_density_small_levy_coefficient():
    # scipy.integrate.quad of the same Gaussian-gamma mixture (law time 0.3) gives 0.828100973655749
    m = _model()
    assert bridge_levy_density(m, 0.5, 0.3, 0.3, 1.0, 1e-5, DEFAULT_QUADRATURE) == pytest.approx(
        0.828100973655749, rel=1e-8)
    # a subnormal coefficient leaves the Gaussian of k = 0, without an overflow warning
    for levy in (GAMMA, POIS):
        m = _model(levy=levy)
        assert bridge_levy_density(m, 0.5, 0.3, 0.3, 1.0, 5e-324, DEFAULT_QUADRATURE) == pytest.approx(
            bridge_levy_density(m, 0.5, 0.3, 0.3, 1.0, 0.0, DEFAULT_QUADRATURE), rel=1e-12)


@pytest.mark.parametrize("k", [1e-3, 1e-6, 1e-8])
@pytest.mark.parametrize("h", [0.0, 1.0])
def test_poisson_kernel_small_levy_coefficient(k, h):
    # the Gaussian's centre (x - sigma t h) / k lies far from the pmf bulk; a direct sum over the pmf
    m = _model(levy=POIS)
    t, s, x = 0.5, 0.3, 0.3
    n = np.arange(60.0)
    direct = np.sum(poisson_pmf(s, 1.0, n) * gauss_density(t * s / (t + s), x - t * h - k * n))
    assert bridge_levy_density(m, t, x, s, h, k, DEFAULT_QUADRATURE) == pytest.approx(direct, rel=1e-9)


def test_poisson_kernel_peak_past_a_bulk_of_zeros():
    # at law time 0.02 the summand underflows over the whole pmf bulk and peaks near n = x / k; a direct sum
    m = _model(levy=POIS)
    t, s, k, xs = 0.5, 0.02, 0.5, np.array([6.0, 12.0, 12.3])
    n = np.arange(80.0)
    direct = np.sum(poisson_pmf(s, 1.0, n) * gauss_density(t * s / (t + s), xs[:, None] - k * n), axis=-1)
    np.testing.assert_allclose(bridge_levy_density(m, t, xs, s, 0.0, k, DEFAULT_QUADRATURE), direct,
                               rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("levy", [GAMMA, POIS], ids=["gamma", "poisson"])
def test_bridge_levy_density_over_bridge_lengths(levy):
    # one call over (x, s) pairs equals the scalar calls; empty observations give an empty array
    m = _model(levy=levy)
    xs, ss = np.array([[-0.4], [0.3], [1.2]]), np.array([1e-20, 1e-9, 0.1, 0.4, 0.5])
    vals = bridge_levy_density(m, 0.5, xs, ss, 1.0, 0.25, DEFAULT_QUADRATURE)
    assert vals.shape == (3, 5)
    for (i, j), v in np.ndenumerate(vals):
        assert v == bridge_levy_density(m, 0.5, float(xs[i, 0]), float(ss[j]), 1.0, 0.25, DEFAULT_QUADRATURE)
    assert bridge_levy_density(m, 0.5, np.zeros(0), 0.3, 1.0, 0.25, DEFAULT_QUADRATURE).shape == (0,)


@pytest.mark.parametrize("rate", [1.0, 7.0])
def test_bridge_levy_density_poisson_grid_equals_scalar_calls(rate):
    # an element's lattice sum depends on its own window only, not on the other elements' windows
    m = _model(levy=LevyLaw.poisson(rate))
    xs, ss = np.linspace(-3.0, 60.0, 64), np.array([1e-6, 1e-3, 0.05, 0.3, 0.9])
    for k in (1e-3, 0.1, 0.5, 2.0):
        vals = bridge_levy_density(m, 0.5, xs[:, None], ss, 1.0, k, DEFAULT_QUADRATURE)
        single = [[bridge_levy_density(m, 0.5, x, s, 1.0, k, DEFAULT_QUADRATURE) for s in ss] for x in xs]
        np.testing.assert_array_equal(vals, single, err_msg=f"k = {k}")


@pytest.mark.parametrize("levy", [GAMMA, POIS, LevyLaw.degenerate()], ids=["gamma", "poisson", "none"])
def test_bridge_levy_density_over_payoff_atoms(levy):
    # one call with the payoff atoms on a leading axis equals the per-atom calls
    m = _model(levy=levy)
    hs, xs = np.array([0.0, 0.4, 1.0]), np.array([-0.3, 0.2, 0.45, 1.1])
    vals = bridge_levy_density(m, 0.5, xs, 0.5, hs[:, None], 0.5, DEFAULT_QUADRATURE)
    assert vals.shape == (3, 4)
    for h, row in zip(hs, vals):
        np.testing.assert_array_equal(row, bridge_levy_density(m, 0.5, xs, 0.5, float(h), 0.5, DEFAULT_QUADRATURE))
    np.testing.assert_array_equal(likelihood_q(m, 0.3, hs, 0.2), [likelihood_q(m, 0.3, float(h), 0.2) for h in hs])


@pytest.mark.parametrize("t, u", [(0.3, 0.6), (0.1, 0.8)], ids=["inner-increment", "inner-terminal"])
def test_psi_over_an_array_of_y(t, u):
    # (0.3, 0.6) integrates the increment on (T-u, T-t] inside, (0.1, 0.8) the terminal piece
    m = _model()
    ys = np.array([[-0.3, 0.2], [0.7, 1.6]])
    vals = transition_density_psi(m, t, u, 0.4, ys)
    assert vals.shape == (2, 2)
    np.testing.assert_array_equal(vals.ravel(), [transition_density_psi(m, t, u, 0.4, float(y)) for y in ys.ravel()])
    assert transition_density_psi(m, t, u, 0.4, np.zeros(0)).shape == (0,)
    assert isinstance(transition_density_psi(m, t, u, 0.4, 0.2), float)
