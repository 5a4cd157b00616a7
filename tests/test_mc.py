import numpy as np
import pytest

from levybridge import mc
from levybridge.gaussian import cov_tilde
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
        return integrate_levy(lambda w: gauss_density(vu, y[..., None], (u / T) * w), GAMMA, T - u)

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
