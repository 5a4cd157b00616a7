import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln

from levybridge import default_pricing, laws
from levybridge.default_pricing import (DefaultQuote, binary_bond_price_default,
                                        bond_price_default, default_indicator,
                                        likelihood_q_kappa, option_value_default,
                                        posterior_tau_payoff, survival_kernel,
                                        survival_posterior_mean)
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.numerics import (DEFAULT_QUADRATURE, Quadrature, QuadratureError, gamma_density,
                                 gauss_density, integrate_levy, integrate_panels, poisson_pmf)
from levybridge.pricing import bayes_posterior, bond_price, bridge_levy_density, x_bracket

GAMMA = LevyLaw.standard_gamma()
BINARY = PayoffDistribution.binary(0.0, 1.0, 0.5)
TAU_LATE = DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=1.0)
TAU_EARLY = DefaultTimeLaw.atoms([0.2, 0.3], [0.5, 0.5], horizon=1.0)


def _model(law=TAU_LATE, mu=0.5, levy=GAMMA, rate=0.0, payoff=BINARY):
    return MarketModel(1.0, 1.0, mu, RateCurve.flat(rate), payoff, levy, default_law=law)


def test_default_indicator():
    m = _model()
    t = 0.75
    assert default_indicator(m, t, 1.0 * t * 1.0)
    assert default_indicator(m, t, 0.0)  # the h = 0 ray passes through 0
    assert not default_indicator(m, t, 0.123456)
    assert not default_indicator(m, t, 1.0 * t * 1.0 + 1e-6)
    with pytest.raises(ValueError):
        default_indicator(m, 0.0, 0.0)


@pytest.mark.parametrize("model, t, error", [
    (MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.0), BINARY, GAMMA), 0.5, ValueError),  # no default law
    (_model(), 0.5, ArithmeticError),  # on the h = 1 ray, but P(tau <= 0.5) = 0
    (_model(), 2.0, ValueError),  # past maturity
], ids=["no-default-law", "ray-without-default-mass", "past-maturity"])
def test_default_indicator_raises_where_the_pricers_do(model, t, error):
    with pytest.raises(error):
        default_indicator(model, t, 0.5)
    if model.default_law is not None:
        with pytest.raises(error):
            bond_price_default(model, t, 0.5)


def test_default_indicator_no_false_positives_mc():
    from levybridge.grids import TimeGrid
    from levybridge.sampling import sample_kappa_batch
    m = _model()
    g = TimeGrid.uniform(1.0, 20)
    vals, tau_idx, h, _ = sample_kappa_batch(m, g, 17, 50_000)
    t = 0.5
    idx = g.index_of(t)
    assert np.all(tau_idx > idx)  # all paths still alive at 0.5
    flags = [default_indicator(m, t, float(v)) for v in vals[:2_000, idx]]
    assert not any(flags)


def test_likelihood_q_kappa_atom_branch():
    m = _model()
    # revealed: the observation sits on the ray sigma*t*h of the revealed payoff
    assert likelihood_q_kappa(m, 0.75, 0.75, 0.7, 1.0) == 1.0
    assert likelihood_q_kappa(m, 0.75, 0.0, 0.7, 0.0) == 1.0
    assert likelihood_q_kappa(m, 0.75, 0.75, 0.7, 0.0) == 0.0
    assert likelihood_q_kappa(m, 0.75, 1.0, 0.7, 1.0) == 0.0  # the payoff value, off its ray
    assert likelihood_q_kappa(m, 0.75, 0.5, 0.7, 0.5) == 0.0  # 0.5 is not an atom
    assert likelihood_q_kappa(m, 0.5, 0.5, 0.3, 1.0) == 1.0
    with pytest.raises(ValueError):
        likelihood_q_kappa(m, 0.5, 0.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        likelihood_q_kappa(m, 0.5, 0.3, 1.2, 1.0)


def test_likelihood_q_kappa_survival_branch():
    m = _model(mu=0.0)
    t, r, h, x = 0.5, 0.8, 1.0, 0.3
    v = t * (r - t) / r
    expect = float(gauss_density(v, x - 1.0 * t * h))
    assert likelihood_q_kappa(m, t, x, r, h) == pytest.approx(expect, abs=1e-16)
    # the continuous part vanishes exactly on the payoff rays sigma*t*h
    assert likelihood_q_kappa(m, t, 0.5, r, h) == 0.0
    assert likelihood_q_kappa(m, t, 0.0, r, h) == 0.0
    # off the rays a payoff value is an observation like any other: the bridge-plus-Levy kernel
    m = _model(mu=0.5)
    kernel = bridge_levy_density(m, t, 1.0, r - t, h, 0.5 * t, Quadrature())
    assert likelihood_q_kappa(m, t, 1.0, r, h) == kernel == pytest.approx(0.5518, abs=1e-4)


def test_drift_scale_enters_only_through_product():
    # with no Levy noise the drift multiplier cannot matter
    m0a = _model(mu=0.3, levy=LevyLaw.degenerate())
    m0b = _model(mu=7.0, levy=LevyLaw.degenerate())
    t, r, h, x = 0.5, 0.8, 1.0, 0.3
    assert likelihood_q_kappa(m0a, t, x, r, h) == likelihood_q_kappa(m0b, t, x, r, h)
    # Poisson case: manual mixture over mu*t*n recovers the same value
    pois = LevyLaw.poisson(1.0)
    for mu in (0.4, 1.7):
        m = _model(mu=mu, levy=pois)
        v = t * (r - t) / r
        manual = sum(float(gauss_density(v, x - mu * t * n - 1.0 * t * h))
                     * poisson_pmf(r - t, 1.0, n) for n in range(60))
        assert likelihood_q_kappa(m, t, x, r, h) == pytest.approx(manual, rel=1e-9)


def test_posterior_tau_normalization_both_branches():
    m = _model()
    one = lambda r, h: 1.0
    assert posterior_tau_payoff(m, 0.5, 0.37, one) == pytest.approx(1.0, rel=1e-12)
    assert posterior_tau_payoff(m, 0.75, 1.0 * 0.75 * 1.0, one) == pytest.approx(1.0, rel=1e-12)


def test_posterior_tau_default_branch_reveals_payoff():
    m = _model()
    t = 0.75
    val = posterior_tau_payoff(m, t, 1.0 * t * 1.0, lambda r, h: h)
    assert val == 1.0
    # tau posterior on the default branch: only the 0.7 atom is <= t
    val_r = posterior_tau_payoff(m, t, 1.0 * t * 1.0, lambda r, h: r)
    assert val_r == pytest.approx(0.7, abs=1e-15)


def test_posterior_tau_inconsistent_default_errors():
    m = _model()
    with pytest.raises(ArithmeticError):
        posterior_tau_payoff(m, 0.5, 1.0 * 0.5 * 1.0, lambda r, h: 1.0)


def test_posterior_tau_survival_prior_limit():
    m = _model()
    val = posterior_tau_payoff(m, 1e-6, 1e-7, lambda r, h: h)
    assert val == pytest.approx(0.5, abs=1e-5)


def test_posterior_tau_continuous_law():
    law = DefaultTimeLaw.exponential_conditioned(0.1, 1.0)
    m = _model(law=law)
    assert posterior_tau_payoff(m, 0.5, 0.3, lambda r, h: 1.0) == pytest.approx(1.0, rel=1e-8)


def test_posterior_tau_sign_changing_g_under_a_density():
    # one payoff atom, g centred near the posterior mean of tau: the numerator is
    # small next to the integral of |g| times the likelihood, and must still resolve
    m = _model(law=DefaultTimeLaw.exponential_conditioned(0.3, 1.0), payoff=PayoffDistribution([1.0], [1.0]))
    mean = posterior_tau_payoff(m, 0.5, 0.3, lambda r, h: r)
    assert 0.5 < mean < 1.0
    assert posterior_tau_payoff(m, 0.5, 0.3, lambda r, h: r - mean) == pytest.approx(0.0, abs=1e-9)
    assert posterior_tau_payoff(m, 0.5, 0.3, lambda r, h: r - mean - 1e-7) == pytest.approx(-1e-7, abs=1e-9)


@pytest.mark.parametrize("levy", [GAMMA, LevyLaw.poisson(1.0)], ids=["gamma", "poisson"])
@pytest.mark.parametrize("law", [TAU_LATE, DefaultTimeLaw.exponential_conditioned(0.5, 1.0)],
                         ids=["atoms", "exponential"])
@pytest.mark.parametrize("g", [lambda r, h: h, lambda r, h: r, lambda r, h: 1.0], ids=["h", "r", "one"])
def test_posterior_tau_payoff_takes_every_atom_in_one_survival_integral(levy, law, g):
    # the one call over the atom axis gives each atom's integral bit for bit
    m = _model(law=law, levy=levy, payoff=PayoffDistribution([0.0, 0.4, 1.0], [0.2, 0.3, 0.5]))
    t, x, q = 0.5, 0.3, DEFAULT_QUADRATURE
    support, probs = m.payoff.support, m.payoff.probs
    den = sum(p * kern for p, kern in zip(probs, survival_kernel(m, t, x, support, q)))
    num = sum(p * default_pricing._survival_integral(m, t, x, float(h), q, g, q.abs_tol * den)
              for h, p in zip(support, probs))
    assert posterior_tau_payoff(m, t, x, g) == num / den


def test_bond_price_default_branches():
    m = _model()
    t = 0.75
    quote = bond_price_default(m, t, 1.0 * t * 1.0)
    assert quote.defaulted
    assert quote.price == 1.0  # exact: x / (sigma t) = h with r = 0
    assert quote.posterior_joint == ((0.7, 1.0, 1.0),)
    surv = bond_price_default(m, 0.5, 0.37)
    assert not surv.defaulted
    assert 0.0 <= surv.price <= 1.0
    assert sum(w for _, _, w in surv.posterior_joint) == pytest.approx(1.0, abs=1e-12)
    assert surv.price == pytest.approx(survival_posterior_mean(m, 0.5, 0.37), abs=1e-14)


def test_bond_price_default_survival_prior_limit():
    m = _model()
    assert bond_price_default(m, 1e-6, 1e-7).price == pytest.approx(0.5, abs=1e-5)


def test_bond_price_default_ray_before_mass_errors():
    m = _model()
    with pytest.raises(ArithmeticError):
        bond_price_default(m, 0.5, 1.0 * 0.5 * 1.0)


def test_binary_default_route_matches_generic():
    m = _model()
    for t in (0.3, 0.5, 0.65):
        for x in (-0.2, 0.1, 0.37, 0.8):
            assert binary_bond_price_default(m, t, x) == pytest.approx(
                bond_price_default(m, t, x).price, abs=1e-12)
    t = 0.75
    assert binary_bond_price_default(m, t, 0.75) == bond_price_default(m, t, 0.75).price


def test_kappa_reduces_to_eta_model():
    # point mass default at T with mu = 0 collapses to the no-default model
    # with the Levy noise absent
    kappa = _model(law=DefaultTimeLaw.point(1.0), mu=0.0)
    eta = MarketModel(1.0, 1.0, 0.0, RateCurve.flat(0.0), BINARY, LevyLaw.degenerate())
    for t in (0.25, 0.5, 0.75):
        for x in (-0.3, 0.2, 0.6):
            a = bond_price_default(kappa, t, x).price
            b = bond_price(eta, t, x).price
            assert abs(a - b) < 1e-10, (t, x)


def test_option_default_zero_strike():
    m = _model()
    value = option_value_default(m, 0.5, 0.0)
    assert type(value) is float  # as option_value's; numpy.float64 is a subclass of float
    assert value == pytest.approx(0.5, abs=1e-6)


def test_option_default_all_defaults_before_exercise():
    m = _model(law=TAU_EARLY)
    t, K = 0.5, 0.25
    # F_tau(t) = 1: survival term carries no mass, the revealed term is exact
    expect = 1.0 * sum(max(1.0 * h - K, 0.0) * p
                       for h, p in zip(BINARY.support, BINARY.probs))
    assert option_value_default(m, t, K) == pytest.approx(expect, abs=1e-12)


def test_option_default_discounting():
    m = _model(rate=0.04)
    assert option_value_default(m, 0.5, 0.0) == pytest.approx(np.exp(-0.04) * 0.5, abs=1e-6)


@pytest.mark.parametrize("t", [0.5, 0.9])
def test_option_default_density_law_memory_is_bounded(t):
    # the survival kernel's density calls run in blocks of elements: without them the exponential
    # default law's option (cli_golden.json's option-exp-default-gamma) traced 797 MB at t 0.5
    m = _model(law=DefaultTimeLaw.exponential_conditioned(0.5, 1.0), rate=0.03)
    tracemalloc.start()
    try:
        option_value_default(m, t, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_default_quote_validation():
    with pytest.raises(ValueError):
        DefaultQuote(0.5, 0.3, False, 0.4, ((0.7, 0.0, 0.4), (0.7, 1.0, 0.4)))
    with pytest.raises(ValueError):
        DefaultQuote(0.5, 0.3, False, 0.4, ((0.7, 0.0, np.nan), (0.7, 1.0, 1.0)))
    with pytest.raises(ValueError):
        DefaultQuote(0.5, 0.3, False, 0.4, ((0.7, 0.0, -0.5), (0.7, 1.0, 1.5)))


def test_vanished_survival_mass_raises():
    # both survival likelihoods underflow to 0 deep in the lower tail
    m = _model(mu=1.0)
    with pytest.raises(ArithmeticError):
        bond_price_default(m, 0.01, -4.0)


_ENTRY_POINTS = {
    "bond_price_default": bond_price_default,
    "binary_bond_price_default": binary_bond_price_default,
    "posterior_tau_payoff": lambda m, t, x: posterior_tau_payoff(m, t, x, lambda r, h: h),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("times, weights, t, x, message", [
    # on the h = 1 ray before the first atom
    ([0.7, 0.8], [0.5, 0.5], 0.5, 0.5, "observation lies on a ray but P(tau <= t) = 0"),
    # off the rays after the last atom
    ([0.25, 0.75], [0.5, 0.5], 0.8, 1.9, "observation lies off the rays but P(tau > t) = 0"),
    # the same, where the weights before t sum to 0.9999999999999999
    ([0.2, 0.3, 0.4], [0.7, 0.2, 0.1], 0.5, 0.37, "observation lies off the rays but P(tau > t) = 0"),
])
def test_impossible_observation_raises(entry, times, weights, t, x, message):
    m = _model(law=DefaultTimeLaw.atoms(times, weights, horizon=1.0))
    with pytest.raises(ArithmeticError) as info:
        _ENTRY_POINTS[entry](m, t, x)
    assert str(info.value) == message


@pytest.mark.parametrize("x, revealed", [(0.499, 1.0), (0.001, 0.0)])
def test_binary_default_route_with_one_vanished_likelihood(x, revealed):
    # the only survival atom is 1e-7 after t: one payoff's bridge is too narrow to reach x
    m = _model(law=DefaultTimeLaw.atoms([0.3, 0.5 + 1e-7], [0.5, 0.5], horizon=1.0), mu=0.0)
    assert bond_price_default(m, 0.5, x).price == revealed
    assert binary_bond_price_default(m, 0.5, x) == revealed


def test_posterior_tau_revealed_branch_uses_caller_tolerance(monkeypatch):
    # the Quadrature of every default-time integral, as it reaches the panel engine
    m = _model(law=DefaultTimeLaw.exponential_conditioned(0.1, 1.0))
    q = Quadrature(rel_tol=1e-7, abs_tol=1e-10)
    seen = []
    monkeypatch.setattr(laws, "integrate_panels", lambda f, breaks, tol, args=(): seen.append(tol)
                        or integrate_panels(f, breaks, tol, args))
    posterior_tau_payoff(m, 0.5, 0.5, lambda r, h: r, q)  # on the h = 1 ray
    assert seen == [q]
    seen.clear()
    posterior_tau_payoff(m, 0.5, 0.3, lambda r, h: r, q)  # off the rays: the likelihood, then the numerator
    assert [tol.rel_tol for tol in seen] == [q.rel_tol, q.rel_tol]


@pytest.mark.parametrize("law, bad", [(TAU_LATE, np.nan), (TAU_LATE, np.inf),
                                      (DefaultTimeLaw.exponential_conditioned(0.5, 1.0), np.nan)],
                         ids=["atoms-nan", "atoms-inf", "exponential-nan"])
def test_posterior_tau_payoff_raises_on_a_g_that_is_not_finite(law, bad):
    def g(r, h):
        return np.full(np.broadcast_shapes(np.shape(r), np.shape(h)), bad)

    with pytest.raises(QuadratureError):
        posterior_tau_payoff(_model(law=law), 0.5, 0.3, g)


def test_posterior_tau_numerator_tolerance_that_underflows():
    # q.abs_tol times the posterior mass is 0.0: an atom sum reads no tolerance, a density resolves the
    # numerator relative to itself
    q = Quadrature(abs_tol=5e-324)
    m = _model()
    assert posterior_tau_payoff(m, 0.5, -1.0, lambda r, h: h, q) == posterior_tau_payoff(m, 0.5, -1.0, lambda r, h: h)
    m = _model(law=DefaultTimeLaw.exponential_conditioned(0.5, 1.0))
    assert posterior_tau_payoff(m, 0.5, 0.3, lambda r, h: h, q) == pytest.approx(
        posterior_tau_payoff(m, 0.5, 0.3, lambda r, h: h), rel=1e-9)


# the references are the default-tolerance values
@pytest.mark.parametrize("x, abs_tol, ref", [(-3.0, 1e-300, 0.001035432106684193),
                                             (-1.0, 5e-324, 0.03790299573669387)])
def test_posterior_tau_abs_tol_below_the_underflow_floor(x, abs_tol, ref):
    # integrals whose values underflow are refined to the tolerance they are checked against
    m = _model(law=DefaultTimeLaw.exponential_conditioned(0.5, 1.0))
    assert posterior_tau_payoff(m, 0.5, x, lambda r, h: h * r, Quadrature(abs_tol=abs_tol)) == pytest.approx(
        ref, rel=1e-9)


def _reference_survival_kernel(model, t, x, h):
    """Nested scipy quad over the default time, around the noise-law integral (a direct sum for Poisson)."""
    law, k, d = model.default_law, model.levy_drift_scale * t, x - model.sigma * t * h

    def density(r):
        v, s = t * (r - t) / r, r - t
        if model.levy.kind == "poisson":
            n = np.arange(400.0)
            return float(np.sum(poisson_pmf(s, model.levy.rate, n) * gauss_density(v, d - k * n)))
        # y^(s-1) as quad's algebraic weight on (0, 1], the Gaussian's centre a break point after it
        head, _ = integrate.quad(lambda y: gauss_density(v, d - k * y) * np.exp(-y - gammaln(s)), 0.0, 1.0,
                                 weight="alg", wvar=(s - 1.0, 0.0), epsabs=0.0, epsrel=1e-12)
        top = max(2.0, 2.0 * d / k + 20.0)
        mid, _ = integrate.quad(lambda y: gauss_density(v, d - k * y) * gamma_density(s, y), 1.0, top,
                                points=[d / k] if 1.0 < d / k < top else None, epsabs=0.0, epsrel=1e-12, limit=200)
        far, _ = integrate.quad(lambda y: gauss_density(v, d - k * y) * gamma_density(s, y), top, np.inf,
                                epsabs=0.0, epsrel=1e-12)
        return head + mid + far

    points = [b for b in law.jumps if t < b < model.maturity] or None
    val, _ = integrate.quad(lambda r: density(r) * float(law.pdf(r)), t, model.maturity, points=points,
                            epsabs=0.0, epsrel=1e-12, limit=500)
    return val


_CONTINUOUS_LAWS = {"exponential": DefaultTimeLaw.exponential_conditioned(0.3, 1.0),
                    "uniform": DefaultTimeLaw.uniform(0.3, 0.97, horizon=1.0)}


@pytest.mark.parametrize("levy, cases, spots", [
    (LevyLaw.poisson(1.0), [(law, t) for law in _CONTINUOUS_LAWS for t in (0.05, 0.5, 0.95)],
     [0.02, 0.3, 0.55, 0.8, 0.98]),
    (GAMMA, [("exponential", 0.5)], [0.02, 0.55, 0.98]),  # the gamma reference is slow
], ids=["poisson", "gamma"])
def test_survival_kernel_against_nested_quad(levy, cases, spots):
    for law, t in cases:
        m = _model(law=_CONTINUOUS_LAWS[law], levy=levy, rate=0.02)
        lo, hi = x_bracket(m, t, m.levy_drift_scale * t)
        xs = lo + (hi - lo) * np.array(spots)
        xs = np.where(np.abs(xs - m.sigma * t) < 0.05, xs + 0.1, xs)  # off the rays, as the survival branch is
        xs = np.where(np.abs(xs) < 0.05, xs + 0.1, xs)
        refs = np.array([[_reference_survival_kernel(m, t, x, h) for x in xs] for h in BINARY.support])
        for h, ref in zip(BINARY.support, refs):
            np.testing.assert_allclose(survival_kernel(m, t, xs, h), ref, rtol=1e-9, atol=0.0, err_msg=f"{law} t={t}")
        prices = m.discount(t) * (refs[1] * 0.5) / (refs * 0.5).sum(axis=0)
        for x, price in zip(xs, prices):
            assert bond_price_default(m, t, x).price == pytest.approx(price, rel=1e-9, abs=0.0), (law, t, x)


@st.composite
def _default_observation(draw):
    n = draw(st.integers(2, 3))
    times = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    law = draw(st.sampled_from(["atoms", "exponential", "uniform"]))
    if law == "atoms":
        law = DefaultTimeLaw.atoms(times, np.array(raw) / sum(raw), horizon=1.0)
    elif law == "exponential":
        law = DefaultTimeLaw.exponential_conditioned(10.0 * raw[0], 1.0)
    else:  # at least 0.05 wide
        lo = min(min(times[:2]), 0.9)
        law = DefaultTimeLaw.uniform(lo, max(max(times[:2]), lo + 0.05), horizon=1.0)
    m = _model(law=law, mu=draw(st.floats(0.0, 2.0)), rate=draw(st.sampled_from([0.0, 0.03])))
    t = draw(st.floats(0.05, 0.95))
    on_ray = draw(st.booleans())
    x = m.sigma * t * draw(st.sampled_from([0.0, 1.0])) if on_ray else draw(st.floats(-0.5, 1.5))
    return m, t, x


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_default_observation())
def test_default_routes_agree_or_raise_together(case):
    m, t, x = case
    try:
        quote = bond_price_default(m, t, x)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            binary_bond_price_default(m, t, x)
        return
    # DefaultQuote has already checked that its weights form a probability vector
    p = m.discount(t)
    assert min(BINARY.support) * p - 1e-12 <= quote.price <= max(BINARY.support) * p + 1e-12
    assert binary_bond_price_default(m, t, x) == pytest.approx(quote.price, abs=1e-12)


@pytest.mark.parametrize("law", [TAU_LATE, DefaultTimeLaw.exponential_conditioned(0.5, 1.0)],
                         ids=["atoms", "exponential"])
def test_joint_posterior_is_one_likelihood_call(monkeypatch, law):
    # every (default time, payoff) cell of a quote comes from one call, with the bits of per-cell calls
    payoff = PayoffDistribution(np.array([0.0, 0.4, 1.0]), np.array([0.2, 0.3, 0.5]))
    m = _model(law=law, payoff=payoff)
    name = "bridge_levy_density" if law.is_discrete else "survival_kernel"
    real, calls = getattr(default_pricing, name), []
    monkeypatch.setattr(default_pricing, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    cells = bond_price_default(m, 0.5, 0.3).posterior_joint
    assert len(calls) == 1
    monkeypatch.undo()
    likes = [survival_kernel(m, 0.5, 0.3, h) if r is None
             else bridge_levy_density(m, 0.5, 0.3, r - 0.5, h, 0.25, DEFAULT_QUADRATURE) for r, h, _ in cells]
    tau_weights = dict(zip(law.atom_times, law.atom_weights)) if law.is_discrete else {None: 1.0}
    priors = [dict(zip(payoff.support, payoff.probs))[h] * tau_weights[r] for r, h, _ in cells]
    assert len(cells) == (6 if law.is_discrete else 3)
    assert [w for _, _, w in cells] == bayes_posterior(likes, priors).tolist()


@pytest.mark.parametrize("levy", [GAMMA, LevyLaw.poisson(1.0), LevyLaw.degenerate()], ids=["gamma", "poisson", "none"])
def test_survival_kernel_over_payoff_atoms(levy):
    # one call with the payoff atoms on a leading axis equals the per-atom calls
    payoff = PayoffDistribution(np.array([0.0, 0.4, 1.0]), np.array([0.2, 0.3, 0.5]))
    m = _model(levy=levy, payoff=payoff)
    xs = np.array([-0.3, 0.1, 0.45, 1.1])
    vals = survival_kernel(m, 0.5, xs, payoff.support[:, None])
    assert vals.shape == (3, 4)
    for h, row in zip(payoff.support, vals):
        np.testing.assert_array_equal(row, survival_kernel(m, 0.5, xs, float(h)))
    # every default atom before t: zeros of the elements' shape
    early = _model(law=TAU_EARLY, levy=levy, payoff=payoff)
    vals = survival_kernel(early, 0.5, xs[:3], payoff.support[:, None])
    assert vals.shape == (3, 3) and not np.any(vals)
