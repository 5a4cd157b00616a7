import numpy as np
import pytest

from levybridge.grids import TimeGrid
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge import sampling
from levybridge.sampling import sample_kappa_batch

GAMMA = LevyLaw.standard_gamma()
POIS = LevyLaw.poisson(1.0)


def _model(levy=GAMMA, mu=1.0, default_law=None):
    return MarketModel(1.0, 1.0, mu, RateCurve.flat(0.0),
                       PayoffDistribution.binary(0.0, 1.0, 0.5), levy, default_law)


def test_brownian_starts_at_zero():
    g = TimeGrid(np.array([0.0, 1.0]))
    assert sampling.brownian_batch(g, 123, 1)[0, 0] == 0.0


def test_brownian_moments():
    g = TimeGrid.uniform(1.0, 10)
    vals = sampling.brownian_batch(g, 11, 100_000)
    var = vals[:, g.index_of(0.5)].var()
    cov = np.mean(vals[:, g.index_of(0.3)] * vals[:, g.index_of(0.7)])
    # var(W_t) = t, cov = s; 4 standard errors
    assert abs(var - 0.5) < 4 * np.sqrt(2 * 0.5**2 / 100_000)
    se_cov = np.std(vals[:, 3] * vals[:, 7]) / np.sqrt(100_000)
    assert abs(cov - 0.3) < 4 * se_cov


def test_bridge_pinned_exactly():
    g = TimeGrid.uniform(2.0, 33)
    for seed in range(5):
        p = sampling.bridge_values(g, sampling.brownian_batch(g, seed, 1))[0]
        assert p[0] == 0.0
        assert p[-1] == 0.0


def test_bridge_variance_mc():
    g = TimeGrid.uniform(1.0, 8)
    vals = sampling.bridge_values(g, sampling.brownian_batch(g, 5, 100_000))
    v = vals[:, g.index_of(0.5)]
    assert abs(v.var() - 0.25) < 4 * np.sqrt(2 * 0.25**2 / 100_000)
    s, t = vals[:, g.index_of(0.25)], vals[:, g.index_of(0.75)]
    prod = s * t
    assert abs(prod.mean() - 0.0625) < 4 * prod.std() / np.sqrt(prod.size)


def test_levy_starts_at_zero_and_moments():
    g = TimeGrid.uniform(1.0, 16)
    for law in (GAMMA, POIS):
        p = sampling.levy_batch(law, g, 3, 1)[0]
        assert p[0] == 0.0
    vals = sampling.levy_batch(GAMMA, g, 21, 100_000)[:, -1]
    assert abs(vals.mean() - 1.0) < 4 * vals.std() / np.sqrt(vals.size)
    sq = (vals - 1.0) ** 2
    assert abs(vals.var() - 1.0) < 4 * sq.std() / np.sqrt(sq.size)
    pvals = sampling.levy_batch(POIS, g, 22, 100_000)[:, -1]
    assert abs(pvals.mean() - 1.0) < 4 * pvals.std() / np.sqrt(pvals.size)


def test_gamma_increments_nondecreasing():
    g = TimeGrid.uniform(1.0, 64)
    p = sampling.levy_batch(GAMMA, g, 7, 1)[0]
    assert np.all(np.diff(p) >= 0.0)


def test_reverse_values():
    g = TimeGrid.uniform(1.0, 10)
    const = np.full(11, 3.25)
    assert np.array_equal(sampling.reverse_values(g, const), const)
    p = sampling.levy_batch(GAMMA, g, 1, 1)[0]
    r = sampling.reverse_values(g, p)
    assert r[0] == p[-1]
    assert r[-1] == p[0]
    with pytest.raises(ValueError):
        sampling.reverse_values(TimeGrid(np.array([0.0, 0.2, 1.0])), np.zeros(3))


def test_reversed_levy_covariance():
    g = TimeGrid.uniform(1.0, 20)
    n = 100_000
    vals = sampling.reverse_values(g, sampling.levy_batch(GAMMA, g, 9, n))
    s_idx, t_idx = g.index_of(0.25), g.index_of(0.75)
    a = vals[:, s_idx] - (1.0 - 0.25)
    b = vals[:, t_idx] - (1.0 - 0.75)
    prod = a * b
    # cov(X_{T-s}, X_{T-t}) = min(T-s, T-t) = T - max(s, t)
    assert abs(prod.mean() - 0.25) < 4 * prod.std() / np.sqrt(n)


def test_bar_beta_endpoints_and_variance():
    g = TimeGrid.uniform(1.0, 8)
    w, b = sampling.brownian_batch(g, 10, 1)[0], sampling.brownian_batch(g, 11, 1)[0]
    bar = sampling.bar_beta_values(g, w, b)
    assert bar[0] == 0.0
    assert bar[-1] == b[-1]
    n = 100_000
    vals = sampling.bar_beta_values(g, sampling.brownian_batch(g, 12, n),
                                    sampling.brownian_batch(g, 13, n))
    v = vals[:, g.index_of(0.5)]
    sq = v * v
    assert abs(v.var() - 0.375) < 4 * sq.std() / np.sqrt(n)
    absmean = np.abs(v)
    target = np.sqrt(2 * 0.375 / np.pi)  # E|N(0, 0.375)|
    assert abs(absmean.mean() - target) < 4 * absmean.std() / np.sqrt(n)


def test_tilde_beta_double_pinning_and_moments():
    g = TimeGrid.uniform(1.0, 8)
    w, b = sampling.brownian_batch(g, 20, 1)[0], sampling.brownian_batch(g, 21, 1)[0]
    til = sampling.tilde_beta_values(g, w, b)
    assert til[0] == 0.0
    assert til[-1] == 0.0  # B_0 = 0 kills the pin at T
    n = 100_000
    vals = sampling.tilde_beta_values(g, sampling.brownian_batch(g, 22, n),
                                      sampling.brownian_batch(g, 23, n))
    v = vals[:, g.index_of(0.5)]
    assert abs(v.var() - 0.375) < 4 * (v * v).std() / np.sqrt(n)
    prod = vals[:, g.index_of(0.25)] * vals[:, g.index_of(0.75)]
    assert abs(prod.mean() - 0.109375) < 4 * prod.std() / np.sqrt(n)


def test_zeta_endpoints_and_mean():
    g = TimeGrid.uniform(1.0, 8)
    w, x = sampling.brownian_batch(g, 30, 1)[0], sampling.levy_batch(GAMMA, g, 31, 1)[0]
    z = sampling.zeta_values(g, w, x)
    assert z[0] == 0.0
    assert z[-1] == 0.0
    n = 100_000
    vals = sampling.sample_zeta_batch(g, GAMMA, 32, n)
    v = vals[:, g.index_of(0.5)]
    # E[zeta_t] = (t/T) E[X_{T-t}] = t (T-t) / T
    assert abs(v.mean() - 0.25) < 4 * v.std() / np.sqrt(n)


def test_zeta_poisson_jumps_match_reversed_jumps():
    g = TimeGrid.uniform(1.0, 512)
    w = sampling.brownian_batch(g, 40, 1)
    x = sampling.levy_batch(POIS, g, 41, 1)
    zeta = sampling.zeta_values(g, w, x)[0]
    reversed_part = (g.points / g.horizon) * sampling.reverse_values(g, x)[0]
    continuous = zeta - reversed_part  # pure Brownian bridge
    dt = g.step_sizes()[0]
    assert np.max(np.abs(np.diff(continuous))) < 8 * np.sqrt(dt)
    # any visible jump of zeta sits exactly where the reversed Poisson path jumps
    jump_steps = np.abs(np.diff(reversed_part)) > 0.3
    big_zeta_steps = np.abs(np.diff(zeta)) > 8 * np.sqrt(dt) + 0.05
    assert np.all(jump_steps[big_zeta_steps])


def test_eta_signal_dominates_at_maturity():
    g = TimeGrid.uniform(1.0, 16)
    model = _model()
    w, x = sampling.brownian_batch(g, 50, 1)[0], sampling.levy_batch(GAMMA, g, 51, 1)[0]
    zeta = sampling.zeta_values(g, w, x)
    eta = sampling.eta_values(g, model.sigma, 1.0, zeta)
    assert eta[-1] == model.sigma * 1.0 * 1.0
    eta0 = sampling.eta_values(g, 1e-12, 1.0, zeta)
    np.testing.assert_allclose(eta0, zeta, atol=1e-10)


def test_eta_terminal_clusters():
    g = TimeGrid.uniform(1.0, 16)
    model = _model()
    vals, h = sampling.sample_eta_batch(model, g, 60, 2000)
    np.testing.assert_array_equal(vals[:, -1], model.sigma * g.horizon * h)
    assert set(np.unique(vals[:, -1])) == {0.0, 1.0}


def test_kappa_ray_property():
    g = TimeGrid.uniform(1.0, 20)
    model = _model(mu=1.0)
    w, x = sampling.brownian_batch(g, 70, 1), sampling.levy_batch(GAMMA, g, 71, 1)
    k_idx = g.snap_below(0.62)
    assert k_idx == 12  # nearest grid point below 0.62 on the 0.05 lattice
    kap = sampling.kappa_values(g, model.sigma, model.levy_drift_scale, [k_idx], [1.0], w, x)[0]
    for j in range(k_idx, g.n_points):
        assert kap[j] == model.sigma * g.points[j] * 1.0
    assert kap[0] == 0.0
    assert kap[k_idx] == model.sigma * g.points[k_idx]


def test_kappa_mu_zero_tau_T_reduces_to_bridge_noise():
    g = TimeGrid.uniform(1.0, 16)
    model = _model(mu=0.0)
    w, x = sampling.brownian_batch(g, 80, 1), sampling.levy_batch(GAMMA, g, 81, 1)
    kap = sampling.kappa_values(g, model.sigma, model.levy_drift_scale, [g.snap_below(1.0)], [1.0], w, x)[0]
    bridge = sampling.bridge_values(g, w[0])
    np.testing.assert_allclose(kap, model.sigma * g.points * 1.0 + bridge, atol=1e-14)


def test_kappa_batch_figure_setup():
    # exponential default times conditioned to (0, 1], binary payoff
    law = DefaultTimeLaw.exponential_conditioned(0.1, 1.0)
    model = _model(default_law=law)
    g = TimeGrid.uniform(1.0, 64)
    vals, tau_idx, h, tau = sample_kappa_batch(model, g, 90, 500)
    assert np.all(tau > 0.0) and np.all(tau <= 1.0)
    assert np.all(g.points[tau_idx] <= tau + 1e-12)
    rows = np.arange(500)
    np.testing.assert_array_equal(vals[rows, tau_idx], model.sigma * g.points[tau_idx] * h)
    # after default the path is the exact ray
    np.testing.assert_array_equal(vals[:, -1], model.sigma * 1.0 * h)


def test_reproducibility_bit_exact():
    g = TimeGrid.uniform(1.0, 32)
    a = sampling.brownian_batch(g, 1234, 100)
    b = sampling.brownian_batch(g, 1234, 100)
    np.testing.assert_array_equal(a, b)
    c = sampling.brownian_batch(g, 1235, 100)
    assert not np.array_equal(a, c)
    x1 = sampling.levy_batch(GAMMA, g, 77, 10)
    x2 = sampling.levy_batch(GAMMA, g, 77, 10)
    np.testing.assert_array_equal(x1, x2)


def test_streams_are_distinct():
    g = TimeGrid.uniform(1.0, 8)
    a = sampling.brownian_batch(g, 5, 10, key=(0, 0))
    b = sampling.brownian_batch(g, 5, 10, key=(0, 1))
    c = sampling.brownian_batch(g, 5, 10, key=(1, 0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_grid_mismatch_rejected():
    g1, g2 = TimeGrid.uniform(1.0, 8), TimeGrid.uniform(1.0, 16)
    with pytest.raises(ValueError):
        sampling.zeta_values(g1, sampling.brownian_batch(g1, 1, 1), sampling.levy_batch(GAMMA, g2, 2, 1))
