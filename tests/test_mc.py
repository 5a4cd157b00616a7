import tracemalloc

import numpy as np
import pytest

from levybridge import mc, sampling
from levybridge.gaussian import cov_tilde
from levybridge.grids import TimeGrid
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.mc import (McReport, _make_report, conditional_histogram,
                           empirical_cov, grid_builder, option_mc,
                           posterior_binning, run_suite, tower_check)

GAMMA = LevyLaw.standard_gamma()
BINARY = PayoffDistribution.binary(0.0, 1.0, 0.5)


def _eta_model(sigma=1.0):
    return MarketModel(1.0, sigma, 1.0, RateCurve.flat(0.0), BINARY, GAMMA)


def _kappa_model():
    return MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.0), BINARY, GAMMA,
                       default_law=DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=1.0))


def test_report_flags():
    rep = _make_report("x", 1.0, 0.1, 100, 1.2)
    assert rep.z_score == pytest.approx(-2.0)
    assert rep.passed
    rep = _make_report("x", 1.0, 0.1, 100, 2.0)
    assert not rep.passed
    exact = _make_report("x", 0.0, 0.0, 100, 0.0)
    assert exact.passed and exact.z_score == 0.0
    off = _make_report("x", 0.1, 0.0, 100, 0.0)
    assert not off.passed


@pytest.mark.parametrize("n_paths", [-5, 0, 1])
def test_oracles_reject_fewer_than_two_paths(n_paths):
    b = grid_builder("brownian", 1.0, 4)
    oracles = [
        lambda: tower_check(_eta_model(), 0.5, n_paths, 1),
        lambda: option_mc(_eta_model(), 0.5, 0.3, n_paths, 1, 0.2),
        lambda: posterior_binning(_eta_model(), 0.5, 0.4, 0.02, n_paths, 1),
        lambda: empirical_cov(b, 0.5, 0.5, n_paths, 1, 0.5),
        lambda: mc.empirical_mean(b, 0.5, n_paths, 1, 0.0),
        lambda: conditional_histogram(b, 0.3, 0.6, 0.0, 0.5, 4, n_paths, 1, lambda y: y, (-1.0, 1.0)),
    ]
    for oracle in oracles:
        with pytest.raises(ValueError, match="n_paths"):
            oracle()


def test_empirical_cov_tilde():
    b = grid_builder("tilde-beta", 1.0, 20)
    rep = empirical_cov(b, 0.25, 0.75, 50_000, 3, cov_tilde(0.25, 0.75, 1.0))
    assert rep.passed
    assert rep.n_paths == 50_000


def test_oracles_are_seed_deterministic():
    b = grid_builder("zeta", 1.0, 20, levy=GAMMA)
    r1 = empirical_cov(b, 0.25, 0.75, 100_000, 5, 0.109375, means=(0.1875, 0.1875))
    r2 = empirical_cov(b, 0.25, 0.75, 100_000, 5, 0.109375, means=(0.1875, 0.1875))
    assert r1.estimate == r2.estimate
    assert r1.std_error == r2.std_error


def test_thread_count_does_not_change_results(monkeypatch):
    b = grid_builder("bar-beta", 1.0, 10)
    base = empirical_cov(b, 0.5, 0.5, 150_000, 9, 0.375)
    monkeypatch.setenv("BRIDGE_THREADS", "4")
    threaded = empirical_cov(b, 0.5, 0.5, 150_000, 9, 0.375)
    assert base.estimate == threaded.estimate
    assert base.std_error == threaded.std_error


def test_oracles_identical_across_thread_counts(monkeypatch):
    # several batches, so batch threads and each batch's stream thread run at once
    monkeypatch.setattr(mc, "BATCH_SIZE", 9_000)
    n = 40_000
    zeta = grid_builder("zeta", 1.0, 20, levy=GAMMA)
    oracles = {
        "binning-eta": lambda: posterior_binning(_eta_model(), 0.5, 0.4, 0.05, n, 13),
        "binning-kappa": lambda: posterior_binning(_kappa_model(), 0.5, 0.37, 0.05, n, 19),
        "option": lambda: option_mc(_eta_model(), 0.5, 0.5, n, 23, 0.3),
        "histogram": lambda: conditional_histogram(zeta, 0.3, 0.6, 0.2, 0.1, 8, n, 11,
                                                   lambda y: np.exp(-2.0 * (y - 0.3) ** 2), (-2.0, 2.5)),
    }
    runs = []
    for threads in (None, "1", "2", "4"):
        if threads is None:
            monkeypatch.delenv("BRIDGE_THREADS", raising=False)
        else:
            monkeypatch.setenv("BRIDGE_THREADS", threads)
        runs.append({name: oracle() for name, oracle in oracles.items()})
    assert all(run == runs[0] for run in runs[1:])
    assert runs[0]["option"].n_paths == n


def test_bridge_threads_checked_before_any_batch(monkeypatch):
    monkeypatch.setenv("BRIDGE_THREADS", "abc")
    with pytest.raises(ValueError, match="BRIDGE_THREADS must be a positive integer, got 'abc'"):
        tower_check(_eta_model(), 0.5, 2 * mc.BATCH_SIZE, 21)


def test_histogram_empty_window_errors():
    b = grid_builder("zeta", 1.0, 10, levy=GAMMA)
    with pytest.raises(ArithmeticError):
        conditional_histogram(b, 0.3, 0.6, 25.0, 1e-6, 10, 2_000, 1,
                              lambda y: np.exp(-y * y), (-3.0, 3.0))


def test_histogram_wide_window_recovers_marginal():
    # delta large: conditioning disappears, the histogram sees the plain
    # marginal of the later time
    from levybridge.numerics import gauss_density, integrate_levy

    T, u = 1.0, 0.6
    b = grid_builder("zeta", T, 10, levy=GAMMA)

    def marginal(y):  # y is the array of the histogram's tabulation nodes
        vu = u * (T - u) / T
        return integrate_levy(lambda n: gauss_density(vu, y.reshape(-1, 1)[n.elem], (u / T) * n.y), GAMMA,
                              np.broadcast_to(T - u, y.shape))

    reports = conditional_histogram(b, 0.3, u, 0.0, 100.0, 20, 400_000, 11,
                                    marginal, (-2.5, 3.5))
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_posterior_binning_eta():
    reports = posterior_binning(_eta_model(), 0.5, 0.4, 0.02, 300_000, 13)
    assert all(r.passed for r in reports), reports
    assert sum(r.target for r in reports) == pytest.approx(1.0, abs=1e-9)


def test_posterior_binning_sigma_limit_prior():
    reports = posterior_binning(_eta_model(sigma=1e-8), 0.5, 0.1, 0.05, 50_000, 13)
    for rep in reports:
        assert rep.target == pytest.approx(0.5, abs=1e-7)  # O(sigma) deviation


def test_posterior_binning_kappa():
    # conditional expectation of the payoff near an off-ray observation,
    # against the joint-posterior formula
    reports = posterior_binning(_kappa_model(), 0.5, 0.37, None, 500_000, 19)
    assert all(r.passed for r in reports), reports
    assert sum(r.target for r in reports) == pytest.approx(1.0, abs=1e-9)


def test_posterior_binning_insufficient_sample():
    with pytest.raises(ArithmeticError):
        posterior_binning(_eta_model(), 0.5, 9.0, 0.01, 20_000, 13)


def test_empirical_cov_pinned_time_is_exact():
    b = grid_builder("tilde-beta", 1.0, 10)
    rep = empirical_cov(b, 0.0, 0.5, 5_000, 7, 0.0)
    assert rep.passed and rep.estimate == 0.0 and rep.z_score == 0.0


def test_tower_checks():
    assert tower_check(_eta_model(), 0.5, 60_000, 21).passed
    assert tower_check(_kappa_model(), 0.5, 60_000, 21).passed
    assert tower_check(_kappa_model(), 0.75, 60_000, 21).passed  # past the first atom


def test_option_mc_agrees_with_quadrature():
    from levybridge.pricing import option_value
    model = _eta_model()
    target = option_value(model, 0.5, 0.5)
    rep = option_mc(model, 0.5, 0.5, 60_000, 23, target)
    assert rep.passed, rep


def test_run_suite_fast_all_pass():
    reports = run_suite(1, "fast")
    assert len(reports) >= 10
    assert all(isinstance(r, McReport) for r in reports)
    failed = [r for r in reports if not r.passed]
    assert not failed, failed
    with pytest.raises(ValueError):
        run_suite(1, "huge")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failing_batch_raises_without_hanging(monkeypatch, threads):
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    monkeypatch.setattr(mc, "BATCH_SIZE", 10)

    def fn(batch, size):
        if batch in (1, 3):
            raise ArithmeticError(f"batch {batch}")
        return size

    with pytest.raises(ArithmeticError):
        mc._map_batches(fn, 45)
    assert mc._map_batches(lambda batch, size: (batch, size), 45) == [(0, 10), (1, 10), (2, 10), (3, 10), (4, 5)]


def _columns_of_full_paths(sample):
    """sample, but drawing full paths and keeping the columns afterwards."""

    def sample_full(model, grid, seed, n, batch, columns):
        out = sample(model, grid, seed, n, batch)
        return (out[0][:, columns],) + out[1:]

    return sample_full


@pytest.mark.parametrize("threads", ["1", "2"])
def test_oracle_reports_equal_those_built_from_full_paths(monkeypatch, threads):
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    monkeypatch.setattr(mc, "BATCH_SIZE", 9_000)
    n = 20_000
    poisson = MarketModel(1.0, 1.0, 1.0, RateCurve.flat(0.02), BINARY, LevyLaw.poisson(1.0))
    kappa_exp = MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.0), BINARY, GAMMA,
                            default_law=DefaultTimeLaw.exponential_conditioned(1.0, 1.0))
    oracles = {
        "tower-eta": lambda: tower_check(_eta_model(), 0.5, n, 31),
        "tower-kappa": lambda: tower_check(_kappa_model(), 0.75, n, 32),
        "binning-eta": lambda: posterior_binning(_eta_model(), 0.5, 0.4, 0.05, n, 34),
        "binning-kappa": lambda: posterior_binning(_kappa_model(), 0.5, 0.37, 0.05, n, 35),
        "option-eta": lambda: option_mc(poisson, 0.5, 0.5, n, 36, 0.3),
        "option-kappa": lambda: option_mc(_kappa_model(), 0.25, 0.3, n, 37, 0.2),
    }
    # an exponential default law's posterior splines are slow: compare the observations they read
    observations = lambda: mc._sample_observations(kappa_exp, 0.5, n, 33)
    got, seen = {name: oracle() for name, oracle in oracles.items()}, observations()
    monkeypatch.setattr(mc, "sample_eta_batch", _columns_of_full_paths(sampling.sample_eta_batch))
    monkeypatch.setattr(mc, "sample_kappa_batch", _columns_of_full_paths(sampling.sample_kappa_batch))
    assert got == {name: oracle() for name, oracle in oracles.items()}
    for a, r in zip(seen, observations()):
        assert a.dtype == r.dtype and a.tobytes() == r.tobytes()


def _observation_peak(model, steps, n, monkeypatch):
    monkeypatch.setattr(mc, "_ORACLE_STEPS", steps)
    tracemalloc.start()
    try:
        mc._sample_observations(model, 0.5, n, 41)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("model", [_eta_model(), _kappa_model()], ids=["eta", "kappa"])
def test_observation_memory_does_not_grow_with_the_steps(monkeypatch, threads, model):
    # a batch keeps only the column at t: more steps widen the few block
    # buffers, not the n rows of the batch
    monkeypatch.setenv("BRIDGE_THREADS", threads)
    n = 8 * sampling._BLOCK_ROWS
    growth = _observation_peak(model, 200, n, monkeypatch) - _observation_peak(model, 40, n, monkeypatch)
    assert growth <= 10 * sampling._BLOCK_ROWS * (200 - 40) * 8


def _builder_peak(process, steps, n):
    build = grid_builder(process, 1.0, steps, levy=GAMMA)
    tracemalloc.start()
    try:
        build(51, n, 0, (0.5,))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("process", ["brownian", "bridge", "bar-beta", "tilde-beta", "zeta", "levy-reversed"])
def test_grid_builder_memory_does_not_grow_with_the_steps(process):
    # every sampler keeps only the columns asked for as it composes each
    # block; n full paths of 200 steps would add n * 160 * 8 bytes
    n = 24 * sampling._BLOCK_ROWS
    growth = _builder_peak(process, 200, n) - _builder_peak(process, 40, n)
    assert growth <= 10 * sampling._BLOCK_ROWS * (200 - 40) * 8


def test_oracles_when_no_sampled_path_survives_to_t():
    # every payoff is revealed by t, so each mean is the revealed payoff
    model = MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.03), BINARY, GAMMA,
                        default_law=DefaultTimeLaw.atoms([0.25], [1.0], horizon=1.0))
    _, h, defaulted = mc._sample_observations(model, 0.5, 2000, 43)
    assert defaulted.all()
    tower = tower_check(model, 0.5, 2000, 43)
    assert tower.estimate == h.mean() and tower.passed
    payoff = model.discount(0.0, 0.5) * np.maximum(model.discount(0.5) * h - 0.4, 0.0)
    assert option_mc(model, 0.5, 0.4, 2000, 43, 0.3).estimate == payoff.mean()


@pytest.mark.parametrize("levy", [GAMMA, LevyLaw.poisson(1.0)], ids=["gamma", "poisson"])
def test_defaulted_flag_is_the_samplers_default_index(levy):
    # the flag comes from the default index, not from the values: the defaulted
    # paths sit exactly on their payoff ray, and no surviving path comes within 1e-9 of it
    model = MarketModel(1.0, 1.0, 0.5, RateCurve.flat(0.0), BINARY, levy,
                        default_law=DefaultTimeLaw.exponential_conditioned(1.0, 1.0))
    x, h, defaulted = mc._sample_observations(model, 0.5, 20_000, 47)
    grid = TimeGrid.uniform(1.0, mc._ORACLE_STEPS)
    j = grid.index_of(0.5)
    _, tau_idx, _, _ = sampling.sample_kappa_batch(model, grid, 47, 20_000, 0, [j])
    np.testing.assert_array_equal(defaulted, tau_idx <= j)
    assert 0 < defaulted.sum() < defaulted.size
    assert np.all(x[defaulted] == grid.points[j] * h[defaulted])
    assert np.all(np.abs(x[~defaulted] - 0.5 * h[~defaulted]) > 1e-9)
