import contextlib
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

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
    assert sampling.tilde_beta_values is sampling.zeta_values  # the one reversed pin
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


def test_kappa_needs_equal_steps():
    # kappa reads X at t_i - t_j as x[:, i - j], which holds only on equal steps; on
    # [0, 0.1, 0.9, 1] (symmetric, so zeta and eta accept it) it would be silently wrong
    g = TimeGrid(np.array([0.0, 0.1, 0.9, 1.0]))
    model = _model(default_law=DefaultTimeLaw.atoms([0.9, 1.0], [0.5, 0.5], horizon=1.0))
    w, x = sampling.brownian_batch(g, 1, 2), sampling.levy_batch(GAMMA, g, 2, 2)
    with pytest.raises(ValueError, match="equal steps"):
        sampling.kappa_values(g, 1.0, 0.5, [2, 3], [0.0, 1.0], w, x)
    with pytest.raises(ValueError, match="equal steps"):
        sample_kappa_batch(model, g, 3, 10)
    sampling.sample_eta_batch(model, g, 3, 10)
    for T, steps in ((1.0, 256), (3.7, 37), (1e-3, 7), (250.0, 1000)):  # linspace's float dust passes
        u = TimeGrid.uniform(T, steps)
        law = DefaultTimeLaw.atoms([u.points[steps // 2]], [1.0], horizon=T)
        m = MarketModel(T, 1.0, 1.0, RateCurve.flat(0.0), PayoffDistribution.binary(0.0, 1.0, 0.5), GAMMA, law)
        vals, tau_idx, h, _ = sample_kappa_batch(m, u, 4, 3)
        np.testing.assert_array_equal(vals[:, -1], T * h)


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


def _kappa_reference(grid, sigma, mu, tau_idx, h, w, x):
    """kappa_values as it was written before the paths were composed in place."""
    t = grid.points
    n, m = w.shape
    tau_idx = np.asarray(tau_idx, dtype=int).reshape(n, 1)
    h = np.asarray(h, dtype=float).reshape(n, 1)
    tau = t[tau_idx]
    w_tau = np.take_along_axis(w, tau_idx, axis=1)
    x_rev = np.take_along_axis(x, np.maximum(tau_idx - np.arange(m), 0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bridge = w - np.where(tau > 0.0, t / np.where(tau > 0.0, tau, 1.0), 0.0) * w_tau
    noise = bridge + mu * t * x_rev
    before = np.arange(m) < tau_idx
    return sigma * t * h + np.where(before, noise, 0.0)


@pytest.mark.parametrize("law", [GAMMA, POIS], ids=["gamma", "poisson"])
def test_kappa_values_equal_reference_formula_and_leave_inputs_alone(law):
    g = TimeGrid.uniform(1.0, 16)
    n = 300
    w, x = sampling.brownian_batch(g, 100, n), sampling.levy_batch(law, g, 101, n)
    rng = np.random.default_rng(102)
    tau_idx = rng.integers(0, g.n_points, n)
    m = g.n_points
    tau_idx[:5] = [0, 1, g.n_steps // 2, m - 2, m - 1]  # at 0, one step in, mid-grid, one step early and at T
    h = rng.choice([0.0, 0.4, 1.0], n)
    w0, x0, tau0, h0 = w.copy(), x.copy(), tau_idx.copy(), h.copy()
    ref = _kappa_reference(g, 0.8, 0.6, tau_idx, h, w, x)
    got = sampling.kappa_values(g, 0.8, 0.6, tau_idx, h, w, x)
    assert np.array_equal(got, ref)
    for arr, orig in ((w, w0), (x, x0), (tau_idx, tau0), (h, h0)):
        assert np.array_equal(arr, orig)
    np.testing.assert_array_equal(got[0], 0.8 * g.points * h[0])  # defaulted at t = 0
    assert np.array_equal(sampling.kappa_values(g, 0.8, 0.6, tau_idx, h, w, x, out=w), ref)


def _same_bits(a, b):
    """Equal down to the bit pattern: np.array_equal would take -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("default_law", [
    DefaultTimeLaw.exponential_conditioned(1.0, 1.0), DefaultTimeLaw.uniform(0.0, 1.0, horizon=1.0),
], ids=["exponential", "uniform"])
def test_kappa_values_with_many_default_indices_equal_reference(default_law):
    # a continuous default law puts the rows of one block on many distinct
    # default indices; kappa_values composes them one index at a time
    g = TimeGrid.uniform(1.0, 256)
    n = 2 * sampling._BLOCK_ROWS + 37
    model = MarketModel(1.0, 0.9, 0.6, RateCurve.flat(0.0), PayoffDistribution([-1.0, 0.0, 2.0], [0.3, 0.3, 0.4]),
                        GAMMA, default_law)
    w, x = sampling.brownian_batch(g, 104, n, key=(1, 0)), sampling.levy_batch(GAMMA, g, 104, n, key=(1, 1))
    vals, tau_idx, h, _ = sample_kappa_batch(model, g, 104, n, 1)
    assert np.unique(tau_idx[:sampling._BLOCK_ROWS]).size > 100
    ref = _kappa_reference(g, model.sigma, model.levy_drift_scale, tau_idx, h, w, x)
    assert np.array_equal(vals, ref) and _same_bits(vals, ref)
    w0, x0, tau0, h0 = w.copy(), x.copy(), tau_idx.copy(), h.copy()
    got = sampling.kappa_values(g, model.sigma, model.levy_drift_scale, tau_idx, h, w, x)
    assert _same_bits(got, ref)
    for arr, orig in ((w, w0), (x, x0), (tau_idx, tau0), (h, h0)):
        assert _same_bits(arr, orig)


def test_samplers_compose_blocks_like_the_reference_formulas():
    # the samplers compose _BLOCK_ROWS rows at a time in place; the values are
    # the formulas' over the whole batch
    g = TimeGrid.uniform(1.0, 16)
    n = 2 * sampling._BLOCK_ROWS + 37
    law = DefaultTimeLaw.atoms([0.01, 0.5, 1.0], [0.2, 0.5, 0.3], horizon=1.0)
    model = _model(mu=0.6, default_law=law)
    w, x = sampling.brownian_batch(g, 103, n, key=(2, 0)), sampling.levy_batch(GAMMA, g, 103, n, key=(2, 1))
    vals, tau_idx, h, _ = sample_kappa_batch(model, g, 103, n, 2)
    assert {0, 8, 16} <= set(tau_idx)
    assert np.array_equal(vals, _kappa_reference(g, model.sigma, model.levy_drift_scale, tau_idx, h, w, x))
    t = g.points / g.horizon
    zeta = w - t * w[:, -1:] + t * x[:, ::-1]
    eta, h = sampling.sample_eta_batch(model, g, 103, n, 2)
    assert np.array_equal(eta, model.sigma * g.points * h[:, None] + zeta)
    assert np.array_equal(sampling.sample_zeta_batch(g, GAMMA, 103, n, 2), zeta)


def test_compositions_leave_inputs_alone_and_compose_in_out():
    g = TimeGrid.uniform(1.0, 8)
    w, b, x = (sampling.brownian_batch(g, 110, 5), sampling.brownian_batch(g, 111, 5),
               sampling.levy_batch(GAMMA, g, 112, 5))
    h = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    t = g.points / g.horizon
    bridge = w - t * w[:, -1:]
    expect = {  # the formulas as written before the paths were composed in place
        "bridge": (lambda out=None: sampling.bridge_values(g, w, out=out), bridge),
        "bar-beta": (lambda: sampling.bar_beta_values(g, w, b), bridge + t * b),
        "tilde-beta": (lambda: sampling.tilde_beta_values(g, w, b), bridge + t * b[:, ::-1]),
        "zeta": (lambda out=None: sampling.zeta_values(g, w, x, out=out), bridge + t * x[:, ::-1]),
        "eta": (lambda out=None: sampling.eta_values(g, 0.7, h, x, out=out), 0.7 * g.points * h[:, None] + x),
    }
    originals = [a.copy() for a in (w, b, x, h)]
    for name, (compose, ref) in expect.items():
        assert np.array_equal(compose(), ref), name
        for arr, orig in zip((w, b, x, h), originals):
            assert np.array_equal(arr, orig), name
    for name in ("bridge", "zeta", "eta"):
        compose, ref = expect[name]
        out = np.full_like(w, np.nan)
        assert compose(out) is out and np.array_equal(out, ref), name


@pytest.mark.parametrize("law", [GAMMA, POIS, LevyLaw.named("none", 1.0)], ids=["gamma", "poisson", "none"])
def test_block_draws_equal_one_draw(law):
    # paths are drawn _BLOCK_ROWS rows at a time; the values are those of one
    # draw of every increment
    g = TimeGrid.uniform(1.0, 12)
    n = 2 * sampling._BLOCK_ROWS + 5
    dt = g.step_sizes()
    rng = sampling.rng_for(120, (3, 1))
    if law.kind == "gamma":
        incs = rng.gamma(shape=dt, scale=1.0, size=(n, dt.size))
    elif law.kind == "poisson":
        incs = rng.poisson(lam=law.rate * dt, size=(n, dt.size)).astype(float)
    else:
        incs = np.zeros((n, dt.size))
    assert np.array_equal(sampling.levy_batch(law, g, 120, n, key=(3, 1))[:, 1:], np.cumsum(incs, axis=1))
    incs = sampling.rng_for(121, (3, 0)).normal(0.0, np.sqrt(dt), size=(n, dt.size))
    w = sampling.brownian_batch(g, 121, n, key=(3, 0))
    assert np.array_equal(w[:, 1:], np.cumsum(incs, axis=1)) and np.all(w[:, 0] == 0.0)


def test_uniform_steps_draw_levy_increments_with_one_scalar_parameter():
    # when every step has the same size the sampler passes one scalar gamma
    # shape or Poisson mean; numpy draws the same values as from the per-step
    # array, and a numpy that stops doing so must fail here
    g = TimeGrid.uniform(1.0, 256)
    dt = g.step_sizes()
    assert np.all(dt == dt[0])
    n = sampling._BLOCK_ROWS + 5
    for law in (GAMMA, POIS):
        rng = sampling.rng_for(122, (4, 1))
        if law.kind == "gamma":
            incs = rng.gamma(shape=dt, scale=1.0, size=(n, dt.size))
        else:
            incs = rng.poisson(lam=law.rate * dt, size=(n, dt.size)).astype(float)
        got = sampling.levy_batch(law, g, 122, n, key=(4, 1))
        assert _same_bits(got[:, 1:], np.cumsum(incs, axis=1)) and np.all(got[:, 0] == 0.0), law.kind


def _batch_samplers():
    # the five two-stream samplers; the last of the three blocks is partial
    g = TimeGrid.uniform(1.0, 24)
    n = 2 * sampling._BLOCK_ROWS + 37
    atoms = DefaultTimeLaw.atoms([0.01, 0.5, 1.0], [0.2, 0.5, 0.3], horizon=1.0)
    return {
        "zeta": lambda b: (sampling.sample_zeta_batch(g, POIS, 130, n, b),),
        "eta": lambda b: sampling.sample_eta_batch(_model(), g, 131, n, b),
        "kappa": lambda b: sample_kappa_batch(_model(mu=0.5, default_law=atoms), g, 132, n, b),
        "bar-beta": lambda b: (sampling.PROCESS_SAMPLERS["bar-beta"](g, None, 133, n, b),),
        "tilde-beta": lambda b: (sampling.PROCESS_SAMPLERS["tilde-beta"](g, None, 134, n, b),),
    }


SAMPLERS = ["zeta", "eta", "kappa", "bar-beta", "tilde-beta"]


def _assert_same_runs(run, ref):
    for got, want in zip(run, ref):
        for a, r in zip(got, want):
            assert _same_bits(a, r)


@pytest.mark.parametrize("name", SAMPLERS)
def test_batch_samplers_identical_across_thread_counts(monkeypatch, name):
    sample = _batch_samplers()[name]
    runs = []
    for threads in (None, "1", "2", "4"):
        if threads is None:
            monkeypatch.delenv("BRIDGE_THREADS", raising=False)
        else:
            monkeypatch.setenv("BRIDGE_THREADS", threads)
        runs.append([sample(b) for b in (0, 1)])
    for run in runs[1:]:
        _assert_same_runs(run, runs[0])
    assert not np.array_equal(runs[0][0][0], runs[0][1][0])  # the two batches differ


def _in_thread(fn, timeout=30):
    """fn() on a fresh daemon thread; its result, or its error, within timeout seconds.

    A daemon thread, so that a hung fn fails the test and leaves the run free to exit.
    """
    future = Future()

    def run():
        try:
            future.set_result(fn())
        except BaseException as exc:  # raised again by future.result below
            future.set_exception(exc)

    threading.Thread(target=run, daemon=True).start()
    return future.result(timeout=timeout)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name == "levybridge-stream"]


def test_block_buffers_are_kept_per_thread():
    first = sampling._block_buffers([(4, 3), (4, 2)])
    again = sampling._block_buffers([(2, 5), (3, 2)])
    assert [b.shape for b in again] == [(2, 5), (3, 2)]
    assert all(np.shares_memory(a, b) for a, b in zip(first, again))
    assert not np.shares_memory(first[0], first[1])
    other = _in_thread(lambda: sampling._block_buffers([(4, 3)]))
    assert not np.shares_memory(first[0], other[0])


class _LevyDrawFailed(RuntimeError):
    pass


def _second_call_fails(fn, message):
    """fn, but raising _LevyDrawFailed on its second call."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise _LevyDrawFailed(message)
        return fn(*args, **kwargs)

    return wrapped


_LEVY_DRAW = sampling._levy_draw
_KAPPA_COLUMNS = [0, 7, 16]


def _failing_levy_draw(*args):
    """sampling._levy_draw whose draw fails on the second block."""
    return _second_call_fails(_LEVY_DRAW(*args), "levy draw failed")


@pytest.mark.parametrize("threads, some_columns", [("1", False), ("2", False), ("2", True), ("4", True)])
def test_levy_draw_error_after_first_block_is_raised(monkeypatch, threads, some_columns):
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    columns = _KAPPA_COLUMNS if some_columns else None
    g = TimeGrid.uniform(1.0, 16)
    n = 2 * sampling._BLOCK_ROWS + 37
    model = _model(mu=0.5, default_law=DefaultTimeLaw.atoms([0.5, 1.0], [0.5, 0.5], horizon=1.0))
    ref = sample_kappa_batch(model, g, 150, n, 0, columns)
    monkeypatch.setattr(sampling, "_levy_draw", _failing_levy_draw)
    with pytest.raises(_LevyDrawFailed):
        _in_thread(lambda: sample_kappa_batch(model, g, 150, n, 0, columns))
    monkeypatch.setattr(sampling, "_levy_draw", _LEVY_DRAW)
    for a, r in zip(_in_thread(lambda: sample_kappa_batch(model, g, 150, n, 0, columns)), ref):
        assert _same_bits(a, r)


@pytest.mark.parametrize("threads, some_columns", [("1", False), ("2", False), ("2", True)])
def test_composition_error_ends_the_second_streams_draw(monkeypatch, threads, some_columns):
    # the calling thread stops on its second block; the helper thread must not
    # wait for a free block buffer forever
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    g = TimeGrid.uniform(1.0, 16)
    model = _model(mu=0.5, default_law=DefaultTimeLaw.atoms([0.5, 1.0], [0.5, 0.5], horizon=1.0))
    monkeypatch.setattr(sampling, "kappa_values", _second_call_fails(sampling.kappa_values, "composition failed"))
    with pytest.raises(_LevyDrawFailed):
        _in_thread(lambda: sample_kappa_batch(model, g, 151, 6 * sampling._BLOCK_ROWS, 0,
                                              _KAPPA_COLUMNS if some_columns else None))
    assert not _helper_threads()


@pytest.mark.parametrize("threads, drawer", [("1", "MainThread"), ("2", "levybridge-stream")])
def test_the_second_stream_is_drawn_on_the_helper_thread(monkeypatch, threads, drawer):
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    drawers = []

    def recording_levy_draw(*args):
        draw = _LEVY_DRAW(*args)
        return lambda inc: (drawers.append(threading.current_thread().name), draw(inc))

    monkeypatch.setattr(sampling, "_levy_draw", recording_levy_draw)
    sampling.sample_zeta_batch(TimeGrid.uniform(1.0, 8), GAMMA, 153, 2 * sampling._BLOCK_ROWS + 37)
    assert drawers == [drawer] * 3


def test_the_helper_draws_into_a_ring_buffer_only_once_it_is_composed(monkeypatch):
    # the draw of block i + _RING reuses block i's buffer, so it must start
    # only after block i's composition has returned, however the threads run
    g = TimeGrid.uniform(1.0, 8)
    n = 5 * sampling._BLOCK_ROWS + 37
    monkeypatch.setenv("BRIDGE_THREADS", "1")
    ref = sampling.sample_zeta_batch(g, GAMMA, 154, n)
    monkeypatch.setenv("BRIDGE_THREADS", "2")
    events = []

    def recording_levy_draw(*args):
        draw = _LEVY_DRAW(*args)
        drawn = []

        def recorded(inc):
            events.append(("draw", len(drawn)))
            drawn.append(None)
            draw(inc)

        return recorded

    def pausing_zeta_values(grid, w, x, out):
        composed = sum(kind == "composed" for kind, _ in events)
        time.sleep(0.02)
        zeta_values(grid, w, x, out=out)
        events.append(("composed", composed))

    zeta_values = sampling.zeta_values
    monkeypatch.setattr(sampling, "_levy_draw", recording_levy_draw)
    monkeypatch.setattr(sampling, "zeta_values", pausing_zeta_values)
    got = sampling.sample_zeta_batch(g, GAMMA, 154, n)
    blocks = len(sampling._blocks(n))
    assert blocks == 6
    assert [i for kind, i in events if kind == "draw"] == list(range(blocks))
    assert [i for kind, i in events if kind == "composed"] == list(range(blocks))
    for i in range(blocks - sampling._RING):
        assert events.index(("draw", i + sampling._RING)) > events.index(("composed", i))
    assert _same_bits(got, ref)


@pytest.mark.parametrize("case", ["return", "levy-error", "compose-error"])
def test_no_helper_thread_outlives_its_batch(monkeypatch, case):
    g = TimeGrid.uniform(1.0, 16)
    n = 6 * sampling._BLOCK_ROWS
    model = _model(mu=0.5, default_law=DefaultTimeLaw.atoms([0.5, 1.0], [0.5, 0.5], horizon=1.0))
    monkeypatch.setenv("BRIDGE_THREADS", "1")
    ref = sample_kappa_batch(model, g, 152, n, 0)
    monkeypatch.setenv("BRIDGE_THREADS", "2")
    with monkeypatch.context() as patched:
        if case == "levy-error":
            patched.setattr(sampling, "_levy_draw", _failing_levy_draw)
        elif case == "compose-error":
            patched.setattr(sampling, "kappa_values", _second_call_fails(sampling.kappa_values, "composition failed"))
        with contextlib.nullcontext() if case == "return" else pytest.raises(_LevyDrawFailed):
            _in_thread(lambda: sample_kappa_batch(model, g, 152, n, 0))
        assert not _helper_threads()
    got = _in_thread(lambda: sample_kappa_batch(model, g, 152, n, 0))
    assert not _helper_threads()
    _assert_same_runs([got], [ref])


def test_concurrent_samplers_compose_their_own_blocks(monkeypatch):
    # more sampling threads than CPUs, each with its own helper thread,
    # switching often: each batch must still compose its own blocks
    monkeypatch.setenv("BRIDGE_THREADS", "4")
    g = TimeGrid.uniform(1.0, 24)
    n = 3 * sampling._BLOCK_ROWS + 37
    model = _model(levy=POIS)
    refs = [sampling.sample_eta_batch(model, g, 180, n, b)[0] for b in range(6)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = ThreadPoolExecutor(max_workers=6)
        jobs = [pool.submit(lambda b=b: [sampling.sample_eta_batch(model, g, 180, n, b)[0] for _ in range(3)])
                for b in range(6)]
        runs = [job.result(timeout=60) for job in jobs]
        pool.shutdown(wait=True)
    finally:
        sys.setswitchinterval(switch)
    for ref, run in zip(refs, runs):
        for got in run:
            assert _same_bits(got, ref)


def _sample_columns(kind, law, default_law):
    g = TimeGrid.uniform(1.0, 40)
    n = 3 * sampling._BLOCK_ROWS + 37
    if kind == "eta":
        model = _model(levy=law)
        return lambda columns: sampling.sample_eta_batch(model, g, 160, n, 1, columns)
    model = _model(levy=law, mu=0.5, default_law=default_law)
    return lambda columns: sample_kappa_batch(model, g, 161, n, 1, columns)


COLUMN_CASES = [("eta", GAMMA, None), ("eta", POIS, None),
                ("kappa", GAMMA, DefaultTimeLaw.atoms([0.25, 0.5, 1.0], [0.3, 0.3, 0.4], horizon=1.0)),
                ("kappa", POIS, DefaultTimeLaw.exponential_conditioned(1.0, 1.0))]


@pytest.mark.parametrize("kind, law, default_law", COLUMN_CASES,
                         ids=["eta-gamma", "eta-poisson", "kappa-gamma-atoms", "kappa-poisson-exponential"])
@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_returned_columns_equal_the_full_paths_columns(monkeypatch, threads, kind, law, default_law):
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    sample = _sample_columns(kind, law, default_law)
    full = sample(None)
    for columns in ([20], [0, 13, 40], [40, 7, 7]):
        got = sample(columns)
        assert got[0].shape == (full[0].shape[0], len(columns))
        assert _same_bits(got[0], full[0][:, columns])
        for a, r in zip(got[1:], full[1:]):
            assert _same_bits(a, r)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_process_sampler_returns_the_full_paths_columns(monkeypatch, threads):
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    g = TimeGrid.uniform(1.0, 16)
    n = sampling._BLOCK_ROWS + 37
    sources = {"zeta": POIS, "levy-reversed": GAMMA, "eta": _model(levy=POIS),
               "kappa": _model(mu=0.5, default_law=DefaultTimeLaw.atoms([0.25, 1.0], [0.5, 0.5], horizon=1.0))}
    for process, sample in sampling.PROCESS_SAMPLERS.items():
        source = sources.get(process)
        full = sample(g, source, 170, n, 3)
        assert full.shape == (n, g.n_points)
        for columns in ([8], [16, 3, 3]):
            assert _same_bits(sample(g, source, 170, n, 3, columns), full[:, columns]), (process, columns)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_eta_batch_memory_is_the_output_and_a_few_block_buffers(monkeypatch, threads):
    # the thread keeps its block buffers from the warm-up batch, so the peak is
    # the output and the composition's block-sized temporaries, which the
    # bound leaves room for with a thread's full set of block buffers besides.
    # Drawing the second stream's full paths first would add a whole output's
    # worth.
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    g = TimeGrid.uniform(1.0, 256)
    n = 4 * sampling._BLOCK_ROWS + 37
    block = sampling._BLOCK_ROWS * g.n_points * 8
    model = _model()
    sampling.sample_eta_batch(model, g, 170, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vals, h = sampling.sample_eta_batch(model, g, 170, n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - vals.nbytes - h.nbytes <= (4 if threads == "1" else 6) * block


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_bridge_threads_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv("BRIDGE_THREADS", value)
    with pytest.raises(ValueError, match="BRIDGE_THREADS"):
        sampling.worker_count()
    with pytest.raises(ValueError, match="BRIDGE_THREADS"):
        sampling.sample_zeta_batch(TimeGrid.uniform(1.0, 4), GAMMA, 1, 3)


def test_worker_count_rule(monkeypatch):
    monkeypatch.setenv("BRIDGE_THREADS", "3")
    assert sampling.worker_count() == 3
    monkeypatch.delenv("BRIDGE_THREADS")
    assert sampling.worker_count() == len(os.sched_getaffinity(0))


def _zeta_in_child(queue):
    g = TimeGrid.uniform(1.0, 8)
    queue.put(sampling.sample_zeta_batch(g, GAMMA, 140, 50, 1))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_helper_threads(monkeypatch):
    # the parent has drawn on a helper thread before the fork; the child starts
    # its own for each batch
    monkeypatch.setenv("BRIDGE_THREADS", "2")
    g = TimeGrid.uniform(1.0, 8)
    ref = sampling.sample_zeta_batch(g, GAMMA, 140, 50, 1)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_zeta_in_child, args=(queue,), daemon=True)
    child.start()
    try:
        got = queue.get(timeout=30)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert np.array_equal(got, ref)
