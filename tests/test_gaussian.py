import numpy as np
import pytest

from levybridge import gaussian, sampling
from levybridge.gaussian import (TimeChange, bar_kernel, cov_bar, cov_hat,
                                 cov_tilde, drift_tilde, hat_kernel, kernel_a,
                                 kernel_a_coefficients, markov_triple_residual,
                                 not_a_bridge_residual, predict_bar_batch,
                                 quasimartingale_bound, quasimartingale_variation,
                                 tilde_kernel, tilde_euler_batch,
                                 tilde_explicit_batch, tilde_quadratic_variation,
                                 tilde_variance)
from levybridge.grids import TimeGrid


def test_cov_bar_values():
    assert cov_bar(0.5, 0.5, 1.0) == 0.375
    assert cov_bar(0.0, 0.8, 1.0) == 0.0
    assert cov_bar(0.25, 0.75, 1.0) == 0.109375
    assert cov_bar(0.75, 0.25, 1.0) == cov_bar(0.25, 0.75, 1.0)
    with pytest.raises(ValueError):
        cov_bar(1.2, 0.5, 1.0)


def test_cov_tilde_values():
    assert cov_tilde(0.5, 0.5, 1.0) == 0.375
    assert cov_tilde(0.3, 1.0, 1.0) == 0.0
    assert cov_tilde(0.25, 0.75, 1.0) == 0.109375


def test_cov_hat_reductions():
    # sigma = 0 leaves the plain Brownian bridge kernel
    assert cov_hat(0.25, 0.75, 1.0, 0.0, lambda u: 7.0) == 0.25 - 0.25 * 0.75
    # psi(u) = 1 - u reproduces the reversed-pin kernel at T = 1
    val = cov_hat(0.25, 0.75, 1.0, 1.0, lambda u: 1.0 - u)
    assert val == pytest.approx(0.109375, abs=1e-15)
    assert val == pytest.approx(cov_tilde(0.25, 0.75, 1.0), abs=1e-15)


def test_markov_triple_residuals():
    assert markov_triple_residual(tilde_kernel(1.0), 0.25, 0.5, 0.75) < 1e-15
    res = markov_triple_residual(bar_kernel(1.0), 0.25, 0.5, 0.75)
    assert res == pytest.approx(0.0078125, abs=1e-14)
    assert markov_triple_residual(bar_kernel(1.0), 0.0, 0.5, 0.75) == 0.0
    with pytest.raises(ValueError):
        markov_triple_residual(bar_kernel(1.0), 0.5, 0.25, 0.75)


def test_hat_kernel_markov_classification():
    T = 1.0
    grid = np.linspace(0.0, T, 22)[1:-1]
    const = hat_kernel(T, 0.7, lambda u: 0.4)
    decreasing = hat_kernel(T, 0.7, lambda u: (T - u) ** 2)
    increasing = hat_kernel(T, 0.7, lambda u: u)
    max_const = max_dec = max_inc = 0.0
    for i in range(len(grid) - 2):
        for j in range(i + 1, len(grid) - 1):
            for k in range(j + 1, len(grid)):
                s, t, u = grid[i], grid[j], grid[k]
                max_const = max(max_const, markov_triple_residual(const, s, t, u))
                max_dec = max(max_dec, markov_triple_residual(decreasing, s, t, u))
                max_inc = max(max_inc, markov_triple_residual(increasing, s, t, u))
    assert max_const < 1e-12
    assert max_dec < 1e-12
    assert max_inc > 1e-6  # non-Markov certificate


def test_time_change_inference():
    assert TimeChange.infer(lambda u: 1.0 - u, 1.0).tag == gaussian.NON_INCREASING
    assert TimeChange.infer(lambda u: u * u, 1.0).tag == gaussian.NON_DECREASING
    assert TimeChange.infer(lambda u: (u - 0.5) ** 2, 1.0).tag == gaussian.OTHER
    with pytest.raises(ValueError):
        TimeChange.infer(lambda u: -1.0, 1.0)


def test_kernel_a_anchors():
    assert kernel_a(0.0, 0.0, 1.0) == 0.0
    # numerical limit s -> T- is 1 for any fixed u
    assert abs(kernel_a(1.0 - 1e-9, 0.3, 1.0) - 1.0) < 1e-6
    # closed-form (c, d) representation agrees everywhere
    T = 1.3
    for s in np.linspace(0.05, 1.2, 7):
        c, d = kernel_a_coefficients(s, T)
        for u in np.linspace(0.0, s, 7):
            rebuilt = c * (u / (T * T * (u * u + T * T)) + np.arctan(u / T) / T ** 3) + d
            assert kernel_a(s, u, T) == pytest.approx(rebuilt, abs=1e-12)
    with pytest.raises(ValueError):
        kernel_a(0.5, 0.6, 1.0)
    with pytest.raises(ValueError):
        kernel_a(1.0, 0.2, 1.0)


def test_kernel_a_ode():
    # 4 u a_u + (T^2 + u^2) a_uu = 0, central differences in the second argument
    T = 1.0
    h = 1e-4 * T
    for s in np.linspace(0.1, 0.9, 5):
        for u in np.linspace(2 * h, s - 2 * h, 5):
            d1 = (kernel_a(s, u + h, T) - kernel_a(s, u - h, T)) / (2 * h)
            d2 = (kernel_a(s, u + h, T) - 2 * kernel_a(s, u, T) + kernel_a(s, u - h, T)) / (h * h)
            assert abs(4 * u * d1 + (T * T + u * u) * d2) < 1e-5


def test_predict_bar_trivial_cases():
    g = TimeGrid.uniform(1.0, 64)
    w = sampling.brownian_batch(g, 3, 1)
    b = sampling.brownian_batch(g, 4, 1)
    path = sampling.bar_beta_values(g, w, b)
    s = 0.5
    assert predict_bar_batch(g, path, s, s)[0] == pytest.approx(path[0, g.index_of(s)], abs=1e-14)
    zero = np.zeros((1, g.n_points))
    assert predict_bar_batch(g, zero, 0.5, 0.75)[0] == 0.0


def test_predict_bar_orthogonality_mc():
    # prediction error is orthogonal to the observed past
    g = TimeGrid.uniform(1.0, 256)
    s, t = 0.5, 0.75
    stats = {0.25: [0.0, 0.0, 0], 0.5: [0.0, 0.0, 0]}
    for batch in range(6):
        w = sampling.brownian_batch(g, 99, 20_000, key=(batch, 0))
        b = sampling.brownian_batch(g, 99, 20_000, key=(batch, 1))
        vals = sampling.bar_beta_values(g, w, b)
        err = vals[:, g.index_of(t)] - predict_bar_batch(g, vals, s, t)
        for sp in stats:
            prod = err * vals[:, g.index_of(sp)]
            stats[sp][0] += prod.sum()
            stats[sp][1] += (prod * prod).sum()
            stats[sp][2] += prod.size
    for sp, (s1, s2, n) in stats.items():
        mean = s1 / n
        se = np.sqrt((s2 / n - mean * mean) / n)
        assert abs(mean) < 4 * se, f"orthogonality violated at s'={sp}"


def test_drift_tilde():
    assert drift_tilde(0.5, 0.0, 1.0) == 0.0
    assert drift_tilde(0.0, 3.0, 1.0) == 0.0
    assert drift_tilde(0.5, 1.0, 1.0) == pytest.approx(-4.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        drift_tilde(1.0 - 1e-8, 1.0, 1.0)


def test_reconstructions_reject_coarse_grids():
    with pytest.raises(ValueError):
        tilde_euler_batch(TimeGrid.uniform(1.0, 32), 1, 10)
    with pytest.raises(ValueError):
        tilde_explicit_batch(TimeGrid.uniform(1.0, 32), 1, 10)


def test_reconstructions_zero_noise(monkeypatch):
    class _ZeroRng:
        def normal(self, loc, scale, size):
            return np.zeros(size)

    monkeypatch.setattr(gaussian, "rng_for", lambda seed: _ZeroRng())
    g = TimeGrid.uniform(1.0, 128)
    np.testing.assert_array_equal(tilde_euler_batch(g, 0, 2), 0.0)
    np.testing.assert_array_equal(tilde_explicit_batch(g, 0, 2), 0.0)


def test_reconstructions_match_kernel():
    g = TimeGrid.uniform(1.0, 128)
    n = 30_000
    for recon in (tilde_euler_batch, tilde_explicit_batch):
        vals = recon(g, 7, n)
        v = vals[:, g.index_of(0.5)]
        sq = v * v
        se = sq.std() / np.sqrt(n)
        assert abs(sq.mean() - 0.375) < 4 * se
        prod = vals[:, g.index_of(0.25)] * vals[:, g.index_of(0.75)]
        assert abs(prod.mean() - 0.109375) < 4 * prod.std() / np.sqrt(n)
    # explicit solution dies at the horizon like the kernel says
    vals = tilde_explicit_batch(g, 8, n)
    assert np.all(vals[:, -1] == 0.0)
    # at the moving last interior point the left-endpoint sums keep the right
    # order of magnitude but lose a grid-independent share of the variance
    t_last = g.points[-2]
    v = vals[:, -2]
    assert 0.5 * tilde_variance(t_last, 1.0) < (v * v).mean() < 1.1 * tilde_variance(t_last, 1.0)


def test_not_a_bridge_residual():
    assert not_a_bridge_residual(0.5, 1.0) == 0.0
    assert not_a_bridge_residual(0.0, 1.0) == 0.0
    assert not_a_bridge_residual(0.25, 1.0) == pytest.approx(0.09375, abs=1e-15)
    assert not_a_bridge_residual(0.25, 1.0) == not_a_bridge_residual(0.75, 1.0)


def test_quasimartingale_variation():
    assert quasimartingale_variation([0.0, 1.0]) == 0.0
    v1000 = quasimartingale_variation(np.linspace(0.0, 1.0, 1001))
    v2000 = quasimartingale_variation(np.linspace(0.0, 1.0, 2001))
    bound = quasimartingale_bound(1.0)
    assert bound == pytest.approx(2.2567583341910251, abs=1e-15)
    assert v1000 <= bound
    assert v2000 <= bound
    assert v2000 >= v1000  # lower Darboux sums grow under refinement
    rng = np.random.default_rng(42)
    for _ in range(100):
        interior = np.sort(rng.uniform(0.0, 1.0, rng.integers(1, 200)))
        partition = np.unique(np.concatenate([[0.0], interior, [1.0]]))
        assert quasimartingale_variation(partition) <= bound


def test_quadratic_variation_formula():
    assert tilde_quadratic_variation(1.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert tilde_quadratic_variation(0.5, 1.0) == pytest.approx(0.5 + 0.125 / 3.0, abs=1e-15)
