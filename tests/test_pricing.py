import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from levybridge import default_pricing, numerics, pricing
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.numerics import DEFAULT_QUADRATURE, QuadratureError, gauss_density, integrate_levy, poisson_pmf
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


def test_terminal_observation_snaps_to_a_ray_within_the_ray_tolerance():
    # at T the payoff is revealed by the one on-ray test of both models, 1e-9 * max(1, |sigma| T)
    m = _model(sigma=0.01)
    quote = bond_price(m, 1.0, 0.01 + 5e-10)
    assert quote.price == 1.0 and quote.posterior == ((0.0, 0.0), (1.0, 1.0))
    assert bond_price(m, 1.0, -5e-10).price == 0.0
    with pytest.raises(ValueError, match="terminal observation does not match any payoff atom"):
        bond_price(m, 1.0, 0.37)
    assert default_pricing._match_atom is pricing._match_atom


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


def _lattice_model(lam, sigma, law=None):
    return MarketModel(1.0, sigma, 1.0, RateCurve.flat(0.0), BINARY, LevyLaw.poisson(lam), default_law=law)


# The references of lambda 2000 are a trapezoid rule of the positive part on 4000001 points, with no scan:
# PYTHONPATH=src python -c "import numpy as np; from levybridge import pricing as p; from levybridge.laws import
#   LevyLaw, PayoffDistribution as D; from levybridge.model import MarketModel as M, RateCurve as R; s, t = 0.5, 0.95;
#   m = M(1.0, s, 1.0, R.flat(0.0), D.binary(0.0, 1.0, 0.5), LevyLaw.poisson(2000.0));
#   x = np.linspace(*p.x_bracket(m, t, t), 4_000_001); g = np.concatenate([0.25 * (p.likelihood_q(m, t, 1.0, c)
#   - p.likelihood_q(m, t, 0.0, c)) for c in np.array_split(x, 80)]); print(np.trapezoid(np.maximum(g, 0.0), x))"
# and s, t = 0.3, 0.9 for the second.
@pytest.mark.parametrize("lam, sigma, t, ref", [
    (500.0, 0.5, 0.9, 0.0361327303387),
    (2000.0, 0.5, 0.95, 0.1127501037363217),
    (2000.0, 0.3, 0.9, 0.02880182457585509),
])
def test_option_value_under_lattice_oscillations(lam, sigma, t, ref):
    # g oscillates with the Poisson lattice; a 201-point scan finds 91 of its 195 sign changes at lambda 500
    assert option_value(_lattice_model(lam, sigma), t, 0.5) == pytest.approx(ref, rel=1e-8)


_MISSES_DEEP_TAIL_PAIRS = pytest.mark.xfail(strict=True, reason=(
    "two pairs of sign changes near x = 52 lie closer than the scan step; |g| < 1e-34 there, "
    "and the value matches its reference"))


def _scan_case(lam, sigma, t, law, count, marks=(), id=None):
    """A binary Poisson case of the scan test, with the id pytest gives the plain tuple of its arguments."""
    return pytest.param(_lattice_model(lam, sigma, law), t, count, marks=marks,
                        id=id or f"{lam}-{sigma}-{t}-{law}-{count}")


# Each count is the number of sign changes between neighbouring nonzero values of the same g on
# np.linspace(lo, hi, n) over its x_bracket: n = 200001 in the maturity model and under an atom law,
# and 20001 under a density.
@pytest.mark.parametrize("model, t, count", [
    _scan_case(1.0, 0.3, 0.99, None, 13),
    _scan_case(20.0, 0.3, 0.95, None, 38),
    _scan_case(50.0, 0.3, 0.99, None, 29),
    _scan_case(100.0, 0.5, 0.99, None, 35),
    _scan_case(500.0, 0.5, 0.9, None, 195),
    _scan_case(2000.0, 0.5, 0.95, None, 373),
    _scan_case(2000.0, 0.3, 0.9, None, 527, marks=_MISSES_DEEP_TAIL_PAIRS),
    _scan_case(20.0, 0.5, 0.9, DefaultTimeLaw.exponential_conditioned(1.0, 1.0), 13, id="exponential-default"),
    _scan_case(5.0, 0.5, 0.9, DefaultTimeLaw.uniform(0.2, 0.97, horizon=1.0), 7, id="uniform-default"),
    pytest.param(_model(sigma=0.3), 0.99, 1, id="gamma"),
    pytest.param(MarketModel(1.0, 0.3, 1.0, RateCurve.flat(0.0), PayoffDistribution.from_weights(
        [0.0, 0.5, 1.0], [0.3, 0.3, 0.4]), LevyLaw.poisson(50.0)), 0.99, 29, id="three-atoms"),
    pytest.param(MarketModel(1.0, 0.5, 1.0, RateCurve.flat(0.0), PayoffDistribution.from_weights(
        [0.0, 0.3, 0.6, 1.0], [0.1, 0.2, 0.3, 0.4]), LevyLaw.poisson(20.0)), 0.95, 7, id="four-atoms"),
    # the first atom 1e-4 after t sets the scan spacing: about 10000 points
    _scan_case(20.0, 0.5, 0.9, DefaultTimeLaw.atoms([0.9001, 0.97], [0.5, 0.5]), 15, id="atom-just-after-t"),
])
def test_option_scan_finds_every_sign_change(monkeypatch, model, t, count):
    found = []

    def spy(g, lo, hi, step, points=()):
        ends = numerics.positive_intervals(g, lo, hi, step, points)
        found.append(np.count_nonzero((ends > lo) & (ends < hi)))
        return ends

    monkeypatch.setattr(pricing, "positive_intervals", spy)
    (option_value if model.default_law is None else default_pricing.option_value_default)(model, t, 0.5)
    assert found == [count]


# one model per option route: the maturity model under both noise laws, and a default law with a density
# (whose scan adds the payoff rays) and with atoms
_OPTION_ROUTES = {
    "gamma": _model(),
    "poisson": _model(levy=POIS),
    "exponential-default": MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.03), BINARY, GAMMA,
                                       default_law=DefaultTimeLaw.exponential_conditioned(0.5, 1.0)),
    "atom-default": MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.0), BINARY, GAMMA,
                                default_law=DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=1.0)),
}
_PAYOFF_ABOVE_ZERO = PayoffDistribution.from_weights([0.4, 1.0], [0.5, 0.5])


def _option_route(model):
    return option_value if model.default_law is None else default_pricing.option_value_default


def _spy_option_integral(monkeypatch):
    """Record the arguments of each option_integral call of either route, and the size of each kernel call's x."""
    calls, sizes, real = [], [], pricing.option_integral

    def spy(model, t, strike, kernel, k, e, rays=()):
        def counted(h, x, factor):
            sizes.append(np.size(x))
            return kernel(h, x, factor)

        calls.append((model, t, strike, kernel, k, e, rays))
        return real(model, t, strike, counted, k, e, rays)

    monkeypatch.setattr(pricing, "option_integral", spy)
    monkeypatch.setattr(default_pricing, "option_integral", spy)
    return calls, sizes


@pytest.mark.parametrize("route", sorted(_OPTION_ROUTES))
@pytest.mark.parametrize("strike", ["at-hull", 1.2])
def test_option_above_the_payoff_hull_is_zero_without_a_density_call(monkeypatch, route, strike):
    # every strike-adjusted coefficient p_h (P(t,T) h - K) is <= 0, so g is nowhere positive
    model, calls = _OPTION_ROUTES[route], []
    strike = model.discount(0.5) * 1.0 if strike == "at-hull" else strike
    for module in (pricing, default_pricing):
        monkeypatch.setattr(module, "bridge_levy_density", lambda *a, **k: calls.append(a))
    value = _option_route(model)(model, 0.5, strike)
    assert type(value) is float and value == 0.0 and math.copysign(1.0, value) == 1.0
    assert calls == []


@pytest.mark.parametrize("route", sorted(_OPTION_ROUTES))
@pytest.mark.parametrize("payoff, strike", [(BINARY, 0.0), (_PAYOFF_ABOVE_ZERO, 0.2)], ids=["binary-K0", "0.4-1-K0.2"])
def test_option_below_the_payoff_hull_does_not_scan(monkeypatch, route, payoff, strike):
    # every coefficient is >= 0, so g > 0 wherever it is not 0, and the scan would return the whole bracket
    model = dataclasses.replace(_OPTION_ROUTES[route], payoff=payoff)
    calls, _ = _spy_option_integral(monkeypatch)
    monkeypatch.setattr(pricing, "positive_intervals", lambda *a: pytest.fail("the option scanned g"))
    _option_route(model)(model, 0.5, strike)
    (model, t, strike, kernel, k, e, rays), = calls
    support = model.payoff.support
    coef = (model.discount(t) * support - strike) * model.payoff.probs

    def g(x):
        return sum(c * row for c, row in zip(coef, kernel(pricing._atom_axis(support, x), x, gauss_density)))

    lo, hi = x_bracket(model, t, k)
    assert np.array_equal(numerics.positive_intervals(g, lo, hi, np.sqrt(t * (e - t) / e) / 4.0, rays), [[lo, hi]])


@pytest.mark.parametrize("route", sorted(_OPTION_ROUTES))
@pytest.mark.parametrize("strike", [0.0, 0.3, 0.7, 1.2])
def test_option_kernel_calls_are_never_empty(monkeypatch, route, strike):
    # at K 0.3 and 0.7 the intervals where g > 0 can all start on one side of both atoms' means, so that one
    # tail side holds no interval
    model = _OPTION_ROUTES[route]
    _, sizes = _spy_option_integral(monkeypatch)
    _option_route(model)(model, 0.5, strike)
    assert 0 not in sizes


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


@pytest.mark.parametrize("levy", [GAMMA, POIS, LevyLaw.degenerate()], ids=["gamma", "poisson", "none"])
def test_nan_observation_raises_under_every_noise_law(levy):
    # a nan observation raises under every noise law, the point law of a model without Levy noise too
    m = _model(levy=levy)
    with pytest.raises(QuadratureError):
        likelihood_q(m, 0.3, 1.0, np.nan)
    for x, y in [(np.nan, 0.5), (0.4, np.nan)]:
        with pytest.raises(QuadratureError):
            transition_density_psi(m, 0.3, 0.6, x, y)


@pytest.mark.parametrize("levy", [GAMMA, POIS], ids=["gamma", "poisson"])
@pytest.mark.parametrize("x", [-30.0, 1e200])
def test_psi_raises_when_the_density_of_x_vanishes(monkeypatch, levy, x):
    # 0/0 used to come back as nan; the denominator is checked before the nested numerator runs
    m = _model(levy=levy)
    calls = []
    monkeypatch.setattr(pricing, "integrate_levy", lambda f, *a, **k: calls.append(f) or integrate_levy(f, *a, **k))
    with pytest.raises(ArithmeticError, match="density of the observation vanished"):
        transition_density_psi(m, 0.3, 0.6, x, np.array([0.0, 0.5]))
    assert len(calls) == 1  # the denominator's integral only
    with pytest.raises(ArithmeticError, match="posterior mass vanished"):
        bond_price(m, 0.3, x)


def test_psi_poisson_normalization_loose():
    m = _model(levy=POIS)
    val, _ = integrate.quad(lambda y: transition_density_psi(m, 0.3, 0.6, 0.4, y),
                            -3.0, 4.0, epsabs=1e-8, epsrel=1e-7, limit=200)
    assert val == pytest.approx(1.0, abs=1e-5)


def test_psi_nested_integrand_is_the_product_of_two_kernels_exactly():
    # psi's nested integrand, the bridge transition from x - k (y1 + y2) to y - (u/T) y2 times the density of
    # x around k (y1 + y2), equals in exact arithmetic the density of y around (u/T) y2 times that of x around
    # (t/u) y + k y1: the Gaussian exponents and the variance products agree, and the y1 y2 term vanishes
    rng = random.Random(7)

    def rational():
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))

    for _ in range(500):
        T = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        t, u = sorted(T * Fraction(rng.randint(1, 10 ** 9 - 1), 10 ** 9) for _ in range(2))
        if t == u:
            continue
        x, y, y1, y2 = (rational() for _ in range(4))
        k, vt, bv, shrink = t / T, t * (T - t) / T, (T - u) * (u - t) / (T - t), (T - u) / (T - t)
        p1, p2 = shrink * k, shrink * k - u / T
        assert p1 * p2 / bv + k * k / vt == 0
        d1, d2 = y - u / T * y2 - shrink * (x - k * (y1 + y2)), x - k * (y1 + y2)
        e1, e2 = y - u / T * y2, x - t / u * y - k * y1
        v1, v2 = u * (T - u) / T, t * (u - t) / u
        assert d1 * d1 / bv + d2 * d2 / vt == e1 * e1 / v1 + e2 * e2 / v2
        assert bv * vt == v1 * v2


# (t, u, x, y): a wide bridge, a late narrow one, one with u close to t, and a tail value of about 2e-26
_PSI_POINTS = [(0.3, 0.6, 0.2, 0.3), (0.01, 0.99, -0.2, 0.5), (0.8, 0.95, 1.0, 1.0), (0.1, 0.8, 0.2, 1.5),
               (0.5, 0.51, 0.4, 0.5), (0.5, 0.51, 0.4, 1.5)]


def _psi_parts(t, u, x, y, T=1.0):
    """psi's nested integrand at scalar (y1, y2) and the denominator's Gaussian factor, from the bridge
    transition, with the centre and spread of the integrand's Gaussian in y1 at fixed y2 and in y2 of its y1
    integral."""
    k, vt, bv, shrink = t / T, t * (T - t) / T, (T - u) * (u - t) / (T - t), (T - u) / (T - t)
    # the integrand's exponent is minus half the squared norm of rows @ (y1, y2) - rhs
    rows = np.array([[shrink * k, shrink * k - u / T], [-k, -k]]) / np.sqrt([[bv], [vt]])
    rhs = -np.array([y - shrink * x, x]) / np.sqrt([bv, vt])
    a, b, hess = rows[:, 0], rows[:, 1], rows.T @ rows

    def joint(y1, y2):
        d1, d2 = y - u / T * y2 - shrink * (x - k * (y1 + y2)), x - k * (y1 + y2)
        return math.exp(-d1 * d1 / (2.0 * bv) - d2 * d2 / (2.0 * vt)) / (2.0 * math.pi * math.sqrt(bv * vt))

    def inner_gauss(y2):
        return float(a @ (rhs - b * y2) / (a @ a)), float(a @ a) ** -0.5

    outer_gauss = np.linalg.lstsq(rows, rhs, rcond=None)[0][1], (hess[1, 1] - hess[0, 1] ** 2 / hess[0, 0]) ** -0.5
    def den_f(z):
        return math.exp(-(x - k * z) ** 2 / (2.0 * vt)) / math.sqrt(2.0 * math.pi * vt)

    return joint, inner_gauss, outer_gauss, den_f


def _gamma_quad(f, a, c, sd):
    """Integral of scalar f against the gamma(a) density by scipy quad: the y^(a-1) head by weight 'alg'
    at 0, the body split at the Gaussian centre c and c +- 4, 8 sd, and an open tail."""
    pts = c + sd * np.array([-8.0, -4.0, 0.0, 4.0, 8.0])
    head = min(1.0, 0.5 * pts[pts > 0.0].min()) if np.any(pts > 0.0) else 1.0
    end = max(40.0 + 2.0 * a, c + 12.0 * sd)
    tol = dict(epsabs=0.0, epsrel=1e-10, limit=200)

    def dens(z):
        return f(z) * math.exp((a - 1.0) * math.log(z) - z - math.lgamma(a))

    total = integrate.quad(lambda z: f(z) * math.exp(-z - math.lgamma(a)), 0.0, head, weight="alg",
                           wvar=(a - 1.0, 0.0), **tol)[0]
    total += integrate.quad(dens, head, end, points=[p for p in pts if head < p < end] or None, **tol)[0]
    return total + integrate.quad(dens, end, np.inf, **tol)[0]


def _psi_nested_gamma(t, u, x, y, T=1.0):
    joint, inner_gauss, outer_gauss, den_f = _psi_parts(t, u, x, y, T)

    def inner(y2):
        return _gamma_quad(lambda y1: joint(y1, y2), u - t, *inner_gauss(y2))

    return _gamma_quad(inner, T - u, *outer_gauss) / _gamma_quad(den_f, T - t, x * T / t, math.sqrt(T * (T - t) / t))


def _psi_lattice_poisson(t, u, x, y, T=1.0):
    joint, _, _, den_f = _psi_parts(t, u, x, y, T)
    n = range(100)
    num = math.fsum(poisson_pmf(u - t, 1.0, n1) * poisson_pmf(T - u, 1.0, n2) * joint(n1, n2) for n1 in n for n2 in n)
    return num / math.fsum(poisson_pmf(T - t, 1.0, n1) * den_f(n1) for n1 in n)


@pytest.mark.parametrize("levy, reference", [(GAMMA, _psi_nested_gamma), (POIS, _psi_lattice_poisson)],
                         ids=["gamma-nested-quad", "poisson-double-sum"])
@pytest.mark.parametrize("t, u, x, y", _PSI_POINTS)
def test_psi_matches_a_route_without_the_product_form(levy, reference, t, u, x, y):
    ref = reference(t, u, x, y)
    assert ref >= 1e-30
    assert transition_density_psi(_model(levy=levy), t, u, x, y) == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("levy", [GAMMA, POIS], ids=["gamma", "poisson"])
def test_psi_engine_calls(monkeypatch, levy):
    # the denominator, then one call per factor for each block of at most 2048 y values
    calls = []
    monkeypatch.setattr(pricing, "integrate_levy", lambda f, *a, **k: calls.append(f) or integrate_levy(f, *a, **k))
    transition_density_psi(_model(levy=levy), 0.3, 0.6, 0.2, np.linspace(-1.0, 3.0, 5))
    assert len(calls) == 3
    calls.clear()
    transition_density_psi(_model(levy=levy), 0.3, 0.6, 0.2, np.linspace(-1.0, 3.0, 2049))
    assert len(calls) == 5


@pytest.mark.parametrize("levy", [GAMMA, POIS], ids=["gamma", "poisson"])
def test_psi_table_equals_its_pieces(levy):
    m = _model(levy=levy)
    ys = np.linspace(-1.5, 6.0, 5000)
    whole = transition_density_psi(m, 0.3, 0.6, 0.2, ys)
    cuts = [0, 1, 700, 2047, 2049, 4100, 5000]
    pieces = [transition_density_psi(m, 0.3, 0.6, 0.2, ys[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(whole, np.concatenate(pieces))


def test_psi_table_memory_is_bounded():
    # each factor's engine calls take at most 2048 y values
    ys = np.linspace(-2.0, 12.0, 20000)
    tracemalloc.start()
    try:
        vals = transition_density_psi(_model(), 0.01, 0.99, -0.2, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals) & (vals >= 0.0))
    assert peak < 100 * 2**20


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


@pytest.mark.parametrize("levy", [GAMMA, POIS], ids=["gamma", "poisson"])
def test_bridge_levy_density_blocks_move_no_bit(levy):
    # 5000 observations x 2 atoms span five blocks of elements; calls on uneven pieces give the same bits
    m = _model(levy=levy)
    xs, hs = np.linspace(-3.0, 4.0, 5000), np.array([[0.0], [1.0]])
    vals = bridge_levy_density(m, 0.5, xs, 0.5, hs, 0.5, DEFAULT_QUADRATURE)
    cuts = [0, 1, 1500, 1501, 3333, 5000]
    pieces = [bridge_levy_density(m, 0.5, xs[a:b], 0.5, hs, 0.5, DEFAULT_QUADRATURE) for a, b in zip(cuts, cuts[1:])]
    np.testing.assert_array_equal(vals, np.concatenate(pieces, axis=1))


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


@pytest.mark.parametrize("t, u, levy", [(0.3, 0.6, GAMMA), (0.1, 0.8, GAMMA), (0.3, 0.6, POIS), (0.1, 0.8, POIS)],
                         ids=["inner-increment", "inner-terminal", "poisson-inner-increment", "poisson-inner-terminal"])
def test_psi_over_an_array_of_y(t, u, levy):
    # (0.3, 0.6) integrates the increment on (T-u, T-t] inside, (0.1, 0.8) the terminal piece
    m = _model(levy=levy)
    ys = np.array([[-0.3, 0.2], [0.7, 1.6]])
    vals = transition_density_psi(m, t, u, 0.4, ys)
    assert vals.shape == (2, 2)
    np.testing.assert_array_equal(vals.ravel(), [transition_density_psi(m, t, u, 0.4, float(y)) for y in ys.ravel()])
    assert transition_density_psi(m, t, u, 0.4, np.zeros(0)).shape == (0,)
    assert isinstance(transition_density_psi(m, t, u, 0.4, 0.2), float)
