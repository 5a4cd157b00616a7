import numpy as np
import pytest

from levybridge.default_pricing import (DefaultQuote, binary_bond_price_default,
                                        bond_price_default, default_indicator,
                                        likelihood_q_kappa, option_value_default,
                                        posterior_tau_payoff,
                                        survival_posterior_mean)
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.numerics import gauss_density, integrate_levy, poisson_pmf
from levybridge.pricing import bond_price

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
    # atom coordinates: revealed observation matches the revealed payoff
    assert likelihood_q_kappa(m, 0.75, 1.0, 0.7, 1.0) == 1.0
    assert likelihood_q_kappa(m, 0.75, 0.0, 0.7, 0.0) == 1.0
    assert likelihood_q_kappa(m, 0.75, 1.0, 0.7, 0.0) == 0.0
    assert likelihood_q_kappa(m, 0.75, 0.5, 0.7, 0.5) == 0.0  # 0.5 is not an atom
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
    # the continuous part vanishes exactly on the payoff atoms
    assert likelihood_q_kappa(m, t, 1.0, r, h) == 0.0


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
    assert option_value_default(m, 0.5, 0.0) == pytest.approx(0.5, abs=1e-6)


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


def test_default_quote_validation():
    with pytest.raises(ValueError):
        DefaultQuote(0.5, 0.3, False, 0.4, ((0.7, 0.0, 0.4), (0.7, 1.0, 0.4)))
    with pytest.raises(ValueError):
        DefaultQuote(0.5, 0.3, False, 0.4, ((0.7, 0.0, np.nan), (0.7, 1.0, 1.0)))


def test_vanished_survival_mass_raises():
    # both survival likelihoods underflow to 0 deep in the lower tail
    m = _model(mu=1.0)
    with pytest.raises(ArithmeticError):
        bond_price_default(m, 0.01, -4.0)
