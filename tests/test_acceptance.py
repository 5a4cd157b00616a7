"""Acceptance battery: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The heavy Monte Carlo items size their path counts exactly
as specified.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from levybridge import default_pricing, gaussian, mc, pricing, sampling
from levybridge.gaussian import (bar_kernel, cov_bar, cov_tilde, kernel_a,
                                 kernel_a_coefficients, markov_triple_residual,
                                 quasimartingale_bound,
                                 quasimartingale_variation, tilde_euler_batch,
                                 tilde_explicit_batch, tilde_kernel,
                                 tilde_quadratic_variation)
from levybridge.grids import TimeGrid
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve
from levybridge.numerics import (Quadrature, parabolic_cylinder_D,
                                 power_gauss_integral)

GAMMA = LevyLaw.standard_gamma()
POIS = LevyLaw.poisson(1.0)
BINARY = PayoffDistribution.binary(0.0, 1.0, 0.5)
T = 1.0


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL", flush=True)
        raise
    print(f"{name}: PASS", flush=True)


def _eta_model(levy=GAMMA, rate=0.0, sigma=1.0):
    return MarketModel(T, sigma, 1.0, RateCurve.flat(rate), BINARY, levy)


def _kappa_model(law, mu=0.5, levy=GAMMA):
    return MarketModel(T, 1.0, mu, RateCurve.flat(0.0), BINARY, levy, default_law=law)


def test_a1_markov_certificates():
    with criterion("A1 markov-certificates"):
        pts = np.linspace(0.0, T, 20)
        k_tilde = tilde_kernel(T)
        worst = 0.0
        for s, t, u in itertools.combinations(pts, 3):
            worst = max(worst, markov_triple_residual(k_tilde, s, t, u))
        assert worst < 1e-12, worst
        res = markov_triple_residual(bar_kernel(T), 0.25, 0.5, 0.75)
        assert abs(res - 0.0078125) <= 1e-12


def test_a2_covariance_reproduction():
    with criterion("A2 covariance-reproduction"):
        pairs = [(0.05, 0.05), (0.1, 0.4), (0.25, 0.25), (0.25, 0.75), (0.5, 0.5),
                 (0.5, 0.95), (0.75, 0.75), (0.3, 0.7), (0.15, 0.6), (0.9, 0.9)]
        n = 50_000
        bar = mc.grid_builder("bar-beta", T, 20)
        til = mc.grid_builder("tilde-beta", T, 20)
        for s, t in pairs:
            rep = mc.empirical_cov(bar, s, t, n, 101, cov_bar(s, t, T), name=f"bar({s},{t})")
            assert rep.passed, rep
            rep = mc.empirical_cov(til, s, t, n, 102, cov_tilde(s, t, T), name=f"tilde({s},{t})")
            assert rep.passed, rep
        for label, law, seed in (("gamma", GAMMA, 103), ("poisson", POIS, 104)):
            z = mc.grid_builder("zeta", T, 20, levy=law)
            for s, t in pairs:
                target = (min(s, t) - s * t / T) + (s * t / T**2) * law.variance(1.0) * (T - max(s, t))
                means = ((s / T) * law.mean(T - s), (t / T) * law.mean(T - t))
                rep = mc.empirical_cov(z, s, t, n, seed, target, means=means,
                                       name=f"zeta-{label}({s},{t})")
                assert rep.passed, rep


def test_a3_kernel_a_ode_and_boundaries():
    with criterion("A3 kernel-a"):
        h = 1e-4 * T
        for s in np.linspace(0.06, 0.92, 15):
            c, d = kernel_a_coefficients(s, T)
            for u in np.linspace(2 * h, s - 2 * h, 15):
                d1 = (kernel_a(s, u + h, T) - kernel_a(s, u - h, T)) / (2 * h)
                d2 = (kernel_a(s, u + h, T) - 2 * kernel_a(s, u, T)
                      + kernel_a(s, u - h, T)) / (h * h)
                assert abs(4 * u * d1 + (T * T + u * u) * d2) < 1e-5, (s, u)
                rebuilt = c * (u / (T**2 * (u**2 + T**2)) + np.arctan(u / T) / T**3) + d
                assert abs(kernel_a(s, u, T) - rebuilt) < 1e-10


def test_a4_canonical_decomposition():
    with criterion("A4 canonical-decomposition"):
        grid = TimeGrid.uniform(T, 1024)
        pairs = [(0.0625, 0.0625), (0.125, 0.5), (0.25, 0.25), (0.25, 0.75),
                 (0.5, 0.5), (0.5, 0.875), (0.625, 0.625), (0.3125, 0.6875),
                 (0.125, 0.9375), (0.75, 0.75)]
        idx = {t: grid.index_of(t) for t in {v for pair in pairs for v in pair}}
        for recon, base_seed in ((tilde_euler_batch, 9100), (tilde_explicit_batch, 9200)):
            sums = {p: [0.0, 0.0] for p in pairs}
            n_total = 0
            for b in range(5):
                vals = recon(grid, base_seed + b, 10_000)
                n_total += vals.shape[0]
                for s, t in pairs:
                    prod = vals[:, idx[s]] * vals[:, idx[t]]
                    sums[(s, t)][0] += prod.sum()
                    sums[(s, t)][1] += (prod * prod).sum()
            for (s, t), (s1, s2) in sums.items():
                est = s1 / n_total
                se = np.sqrt((s2 / n_total - est * est) / n_total)
                assert abs(est - cov_tilde(s, t, T)) < 4 * se, (recon.__name__, s, t)
        # quadratic variation of the direct construction at 4096 steps
        g4 = TimeGrid.uniform(T, 4096)
        w = sampling.brownian_batch(g4, 9300, 2000, key=(0, 0))
        b = sampling.brownian_batch(g4, 9300, 2000, key=(0, 1))
        vals = sampling.tilde_beta_values(g4, w, b)
        qv = np.cumsum(np.diff(vals, axis=1) ** 2, axis=1).mean(axis=0)
        for t_probe in (0.25, 0.5, 0.75, 1.0):
            est = qv[g4.index_of(t_probe) - 1]
            target = tilde_quadratic_variation(t_probe, T)
            assert abs(est - target) / target < 0.02, t_probe


def test_a5_quasimartingale_bound():
    with criterion("A5 quasimartingale-bound"):
        bound = quasimartingale_bound(T)
        rng = np.random.default_rng(55)
        for _ in range(100):
            interior = np.sort(rng.uniform(0.0, T, int(rng.integers(1, 200))))
            partition = np.unique(np.concatenate([[0.0], interior, [T]]))
            assert quasimartingale_variation(partition) <= bound


def test_a6_transition_density():
    model = _eta_model()
    with criterion("A6a psi-normalization"):
        qn = Quadrature(abs_tol=1e-11, rel_tol=1e-8)
        for (t, u, x) in [(0.3, 0.6, 0.4), (0.2, 0.5, 0.0), (0.1, 0.8, 0.6),
                          (0.4, 0.7, -0.3), (0.25, 0.5, 1.0)]:
            hi = (u / T) * GAMMA.tail_quantile(T - u, 1e-13) + 6.0
            val, _ = integrate.quad(
                lambda y: pricing.transition_density_psi(model, t, u, x, y, qn),
                -6.0, hi, epsabs=1e-8, epsrel=1e-7, limit=300)
            assert abs(val - 1.0) < 1e-6, (t, u, x, val)

    with criterion("A6b chapman-kolmogorov"):
        qc = Quadrature(abs_tol=1e-10, rel_tol=1e-7)
        probes = [(0.2, 0.4, 0.6, 0.3, 0.5), (0.1, 0.3, 0.5, 0.0, 0.2),
                  (0.25, 0.5, 0.75, 0.5, 0.3), (0.3, 0.5, 0.8, -0.2, 0.4),
                  (0.2, 0.6, 0.9, 0.8, 0.1)]
        for (t, u, v, x, y) in probes:
            hi = (u / T) * GAMMA.tail_quantile(T - u, 1e-12) + 5.0
            lhs, _ = integrate.quad(
                lambda z: (pricing.transition_density_psi(model, t, u, x, z, qc)
                           * pricing.transition_density_psi(model, u, v, z, y, qc)),
                -5.0, hi, epsabs=2e-5, epsrel=1e-4, limit=200)
            rhs = pricing.transition_density_psi(model, t, v, x, y, qc)
            assert abs(lhs - rhs) < 1e-3, (t, u, v, x, y, lhs, rhs)

    with criterion("A6c conditional-histogram"):
        t, u, x = 0.3, 0.6, 0.4
        delta = 0.02 * np.sqrt(t * (T - t) / T)
        qh = Quadrature(abs_tol=1e-10, rel_tol=1e-7)
        builder = mc.grid_builder("zeta", T, 10, levy=GAMMA)
        reports = mc.conditional_histogram(
            builder, t, u, x, delta, 40, 500_000, 606,
            lambda y: pricing.transition_density_psi(model, t, u, x, y, qh),
            support=(-2.5, 10.0))
        bad = [r for r in reports if not r.passed]
        assert not bad, bad


def test_a7_pricing_consistency():
    with criterion("A7 closed-form-consistency"):
        ts = np.linspace(0.1, 0.9, 10)
        xs = np.linspace(-0.5, 1.5, 10)
        mg = _eta_model(GAMMA)
        for t in ts:
            for x in xs:
                generic = pricing.binary_bond_price(mg, float(t), float(x))
                closed = pricing.gamma_closed_form_price(mg, float(t), float(x))
                assert abs(closed - generic) / abs(generic) < 1e-5, (t, x)
        mp = _eta_model(POIS)
        for t in ts:
            for x in xs:
                generic = pricing.binary_bond_price(mp, float(t), float(x))
                closed = pricing.poisson_closed_form_price(mp, float(t), float(x))
                assert abs(closed - generic) / abs(generic) < 1e-8, (t, x)


def test_a8_bayesian_sanity():
    with criterion("A8 bayesian-sanity"):
        m = _eta_model()
        for t in np.linspace(0.05, 0.95, 20):
            for x in np.linspace(-1.0, 2.0, 20):
                weights = [w for _, w in pricing.posterior_payoff(m, float(t), float(x))]
                assert abs(sum(weights) - 1.0) < 1e-10
                assert all(w >= 0.0 for w in weights)
        for h, w in pricing.posterior_payoff(m, 1e-6, 0.0):
            assert abs(w - 0.5) < 1e-6
        for levy in (GAMMA, POIS):
            m = _eta_model(levy)
            for t in (0.2, 0.5, 0.8):
                for x in (-0.3, 0.25, 0.7, 1.2):
                    generic = pricing.bond_price(m, t, x).price
                    assert abs(pricing.binary_bond_price(m, t, x) - generic) <= 1e-12


def test_a9_tower_property():
    with criterion("A9 tower-property"):
        eta = _eta_model()
        kap = _kappa_model(DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=T))
        for t in (0.25, 0.5, 0.75):
            rep = mc.tower_check(eta, t, 100_000, 901, name=f"eta t={t}")
            assert rep.passed, rep
            rep = mc.tower_check(kap, t, 100_000, 902, name=f"kappa t={t}")
            assert rep.passed, rep


def test_a10_default_model():
    model_surv = _kappa_model(DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=T))
    model_def = _kappa_model(DefaultTimeLaw.atoms([0.2, 0.4], [0.5, 0.5], horizon=T))
    grid = TimeGrid.uniform(T, 20)
    with criterion("A10a no-false-positives"):
        t = 0.5
        idx = grid.index_of(t)
        vals, tau_idx, h, _ = sampling.sample_kappa_batch(model_surv, grid, 1001, 100_000)
        assert np.all(tau_idx > idx)
        tol = 1e-9 * max(1.0, model_surv.sigma * t)
        rays = model_surv.sigma * t * model_surv.payoff.support
        on_ray = np.zeros(vals.shape[0], dtype=bool)
        for ray in rays:
            on_ray |= np.abs(vals[:, idx] - ray) <= tol
        assert on_ray.sum() == 0

    with criterion("A10b indicator-monotone-switch"):
        vals, tau_idx, h, _ = sampling.sample_kappa_batch(model_def, grid, 1002, 100_000)
        on_ray = np.zeros_like(vals, dtype=bool)
        for j in range(1, grid.n_points):
            tol = 1e-9 * max(1.0, model_def.sigma * grid.points[j])
            for ray in model_def.sigma * grid.points[j] * model_def.payoff.support:
                on_ray[:, j] |= np.abs(vals[:, j] - ray) <= tol
        expected = np.arange(grid.n_points) >= tau_idx[:, None]
        np.testing.assert_array_equal(on_ray[:, 1:], expected[:, 1:])

    with criterion("A10c defaulted-price-exact"):
        t = 0.5
        idx = grid.index_of(t)
        vals, tau_idx, h, _ = sampling.sample_kappa_batch(model_def, grid, 1003, 400)
        p_tT = model_def.discount(t)
        for i in range(400):
            quote = default_pricing.bond_price_default(model_def, t, float(vals[i, idx]))
            assert quote.defaulted
            assert quote.price == p_tT * h[i]  # exact, no tolerance


def test_a11_options():
    eta = _eta_model()
    kap = _kappa_model(DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=T))
    with criterion("A11a zero-strike"):
        assert abs(pricing.option_value(eta, 0.5, 0.0) - 0.5) < 1e-6
        assert abs(default_pricing.option_value_default(kap, 0.5, 0.0) - 0.5) < 1e-6
    with criterion("A11b option-mc"):
        target = pricing.option_value(eta, 0.5, 0.5)
        rep = mc.option_mc(eta, 0.5, 0.5, 200_000, 1101, target, name="eta K=0.5")
        assert rep.passed, rep
        target = default_pricing.option_value_default(kap, 0.5, 0.5)
        rep = mc.option_mc(kap, 0.5, 0.5, 200_000, 1102, target, name="kappa K=0.5")
        assert rep.passed, rep


def test_a12_special_functions():
    with criterion("A12 parabolic-cylinder"):
        for z in np.linspace(-3.0, 3.0, 25):
            assert abs(parabolic_cylinder_D(0.0, z) - np.exp(-z * z / 4.0)) < 1e-8
        assert abs(parabolic_cylinder_D(-1.0, 0.0) - np.sqrt(np.pi / 2.0)) < 1e-8
        for nu in np.linspace(0.25, 4.0, 5):
            for beta in np.linspace(0.1, 2.0, 5):
                for alpha in np.linspace(-3.0, 3.0, 5):
                    lhs = power_gauss_integral(nu, beta, alpha)
                    rhs = ((2 * beta) ** (-nu / 2.0) * np.exp(gammaln(nu))
                           * np.exp(alpha * alpha / (8 * beta))
                           * parabolic_cylinder_D(-nu, alpha / np.sqrt(2 * beta)))
                    assert abs(lhs - rhs) / abs(rhs) < 1e-8, (nu, beta, alpha)


def test_a13_kappa_reduces_to_eta():
    with criterion("A13 degenerate-reduction"):
        kappa = _kappa_model(DefaultTimeLaw.point(T), mu=0.0)
        eta = MarketModel(T, 1.0, 0.0, RateCurve.flat(0.0), BINARY, LevyLaw.degenerate())
        # x lattice avoids the revealed-payoff rays x = sigma*t*h (measure zero,
        # and branch semantics differ there by construction)
        for t in np.linspace(0.1, 0.9, 5):
            for x in (-0.45, 0.07, 0.33, 0.61, 1.27):
                a = default_pricing.bond_price_default(kappa, float(t), float(x)).price
                b = pricing.bond_price(eta, float(t), float(x)).price
                assert abs(a - b) < 1e-10, (t, x)


@pytest.mark.parametrize("levy", [GAMMA, POIS], ids=["gamma", "poisson"])
@pytest.mark.parametrize("maturity", [1.0, 2.0])
def test_a13_point_default_is_the_maturity_model(levy, maturity):
    # tau = T and mu = 1/T give the maturity model's kernel exactly: same
    # bridge length, same law time T - t and the same Levy coefficient t/T
    with criterion("A13 point-default reduction"):
        kappa = MarketModel(maturity, 1.0, 1.0 / maturity, RateCurve.flat(0.0), BINARY, levy,
                            default_law=DefaultTimeLaw.point(maturity))
        eta = MarketModel(maturity, 1.0, 1.0, RateCurve.flat(0.0), BINARY, levy)
        for t in np.linspace(0.1, 0.9, 5):
            for x in (-0.45, 0.07, 0.33, 0.61, 1.27):
                a = default_pricing.bond_price_default(kappa, float(t), float(x)).price
                assert a == pricing.bond_price(eta, float(t), float(x)).price, (t, x)
        assert (default_pricing.option_value_default(kappa, 0.5, 0.3)
                == pricing.option_value(eta, 0.5, 0.3))
