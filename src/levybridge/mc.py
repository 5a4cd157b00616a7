"""Independent Monte Carlo oracles for the closed forms.

Every oracle is seed-deterministic: path generation is split into fixed-size
batches with per-batch streams, partial sums are combined in batch order, and
the optional thread pool (capped by BRIDGE_THREADS) only reorders work, never
results.  Oracles read the formula under test only to obtain the target.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import default_pricing, pricing
from .grids import TimeGrid
from .laws import LevyLaw
from .model import MarketModel
from .sampling import (bar_beta_values, bridge_values, brownian_batch,
                       levy_batch, reverse_values, sample_eta_batch,
                       sample_kappa_batch, sample_zeta_batch,
                       tilde_beta_values)

PASS_SIGMAS = 4.0
BATCH_SIZE = 65_536
_MIN_WINDOW_HITS = 50


@dataclass(frozen=True)
class McReport:
    """One Monte Carlo check: estimate vs target in standard-error units."""

    name: str
    estimate: float
    std_error: float
    n_paths: int
    target: float
    z_score: float
    passed: bool


def _make_report(name, estimate, std_error, n_paths, target, sigmas=PASS_SIGMAS) -> McReport:
    if std_error > 0.0:
        z = (estimate - target) / std_error
    else:
        z = 0.0 if estimate == target else np.inf
    return McReport(name, float(estimate), float(std_error), int(n_paths), float(target),
                    float(z), bool(abs(z) <= sigmas))


def _worker_count() -> int:
    env = os.environ.get("BRIDGE_THREADS")
    if env:
        return max(1, int(env))
    return 1


def _batches(n_paths: int):
    full, rem = divmod(n_paths, BATCH_SIZE)
    sizes = [BATCH_SIZE] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _map_batches(fn, n_paths: int):
    """Apply fn(batch_index, size) to every batch; results come back in batch order."""
    plan = _batches(n_paths)
    workers = _worker_count()
    if workers == 1 or len(plan) == 1:
        return [fn(b, size) for b, size in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda bs: fn(*bs), plan))


# -- process builders -----------------------------------------------------------

def grid_builder(process: str, T: float, steps: int, levy: LevyLaw | None = None):
    """Sampler closure (seed, n, batch, times) -> values at the requested grid times."""
    grid = TimeGrid.uniform(T, steps)

    def build(seed, n, batch, times):
        idx = [grid.index_of(ti) for ti in times]
        if process == "brownian":
            vals = brownian_batch(grid, seed, n, key=(batch, 0))
        elif process == "bridge":
            vals = bridge_values(grid, brownian_batch(grid, seed, n, key=(batch, 0)))
        elif process == "bar":
            vals = bar_beta_values(grid, brownian_batch(grid, seed, n, key=(batch, 0)),
                                   brownian_batch(grid, seed, n, key=(batch, 1)))
        elif process == "tilde":
            vals = tilde_beta_values(grid, brownian_batch(grid, seed, n, key=(batch, 0)),
                                     brownian_batch(grid, seed, n, key=(batch, 1)))
        elif process == "zeta":
            vals = sample_zeta_batch(grid, levy, seed, n, batch)
        elif process == "levy-reversed":
            vals = reverse_values(grid, levy_batch(levy, grid, seed, n, key=(batch, 1)))
        else:
            raise ValueError(f"unknown process {process!r}")
        return vals[:, idx]

    return build


def empirical_cov(builder, s: float, t: float, n_paths: int, seed: int, target: float,
                  means: tuple[float, float] = (0.0, 0.0), name: str = "cov") -> McReport:
    """Sample covariance from centered products, compared to the kernel value."""

    def one(batch, size):
        vals = builder(seed, size, batch, (s, t))
        prod = (vals[:, 0] - means[0]) * (vals[:, 1] - means[1])
        return prod.sum(), (prod * prod).sum(), prod.size

    parts = _map_batches(one, n_paths)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    n = sum(p[2] for p in parts)
    est = s1 / n
    var = max(s2 / n - est * est, 0.0) * n / (n - 1)
    return _make_report(name, est, np.sqrt(var / n), n, target)


def empirical_mean(builder, t: float, n_paths: int, seed: int, target: float,
                   transform=None, name: str = "mean") -> McReport:
    """Sample mean of (optionally transformed) marginal values vs a closed form."""

    def one(batch, size):
        vals = builder(seed, size, batch, (t,))[:, 0]
        if transform is not None:
            vals = transform(vals)
        return vals.sum(), (vals * vals).sum(), vals.size

    parts = _map_batches(one, n_paths)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    n = sum(p[2] for p in parts)
    est = s1 / n
    var = max(s2 / n - est * est, 0.0) * n / (n - 1)
    return _make_report(name, est, np.sqrt(var / n), n, target)


# -- transition density ----------------------------------------------------------

def conditional_histogram(builder, t: float, u: float, x: float, delta: float, bins: int,
                          n_paths: int, seed: int, density, support: tuple[float, float],
                          sigmas: float = 5.0, mass_cut: float = 5e-4) -> list[McReport]:
    """Histogram of the time-u value among paths near x at time t, vs the density.

    Bin edges cover the central (1 - 2*mass_cut) mass of the density; the two
    outer bins are open-ended.  Per-bin comparison uses the binomial standard
    error at the target probability.
    """

    def one(batch, size):
        vals = builder(seed, size, batch, (t, u))
        sel = np.abs(vals[:, 0] - x) <= delta
        return vals[sel, 1]

    hits = np.concatenate(_map_batches(one, n_paths))
    m = hits.size
    if m == 0:
        raise ArithmeticError("no paths landed in the conditioning window")

    ys = np.linspace(support[0], support[1], 801)
    dens = np.array([density(y) for y in ys])
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(ys))])
    total = cdf[-1]
    lo = float(np.interp(mass_cut * total, cdf, ys))
    hi = float(np.interp((1.0 - mass_cut) * total, cdf, ys))
    inner = np.linspace(lo, hi, bins - 1)
    edges = np.concatenate([[-np.inf], inner, [np.inf]])
    counts, _ = np.histogram(hits, edges)
    # the open-ended outer bins take their mass from the density's own
    # normalization, so tails beyond the tabulated support stay accounted for
    cum_at = np.interp(inner, ys, cdf)
    targets = np.diff(np.concatenate([[0.0], cum_at, [1.0]]))

    reports = []
    for k, (c, p) in enumerate(zip(counts, targets)):
        se = np.sqrt(max(p * (1.0 - p), 1e-300) / m)
        reports.append(_make_report(f"bin[{k}]", c / m, se, m, p, sigmas=sigmas))
    return reports


# -- posterior and pricing oracles ------------------------------------------------

def _eta_grid(model: MarketModel, t: float, steps: int = 40) -> TimeGrid:
    grid = TimeGrid.uniform(model.maturity, steps)
    grid.index_of(t)  # fail early if t is off the grid
    return grid


def posterior_binning(model: MarketModel, t: float, x: float, delta: float | None,
                      n_paths: int, seed: int, grid_steps: int = 40) -> list[McReport]:
    """Empirical payoff frequencies near x vs the posterior weights.

    Uses the default-time model when the market model carries a default law;
    x should then sit away from the payoff rays so the window holds survival
    paths only.
    """
    T = model.maturity
    if delta is None:
        delta = 0.02 * np.sqrt(t * (T - t) / T)
    grid = _eta_grid(model, t, grid_steps)
    idx = grid.index_of(t)
    is_kappa = model.default_law is not None

    def one(batch, size):
        if is_kappa:
            vals, _, h, _ = sample_kappa_batch(model, grid, seed, size, batch)
        else:
            vals, h = sample_eta_batch(model, grid, seed, size, batch)
        sel = np.abs(vals[:, idx] - x) <= delta
        return h[sel]

    hits = np.concatenate(_map_batches(one, n_paths))
    m = hits.size
    if m < _MIN_WINDOW_HITS:
        raise ArithmeticError(f"insufficient sample: only {m} paths near x={x}")

    if is_kappa:
        weights = [default_pricing.posterior_tau_payoff(
            model, t, x, lambda r, h, hi=float(hi): float(h == hi)) for hi in model.payoff.support]
    else:
        weights = [w for _, w in pricing.posterior_payoff(model, t, x)]

    reports = []
    for hi, target in zip(model.payoff.support, weights):
        p_hat = float(np.mean(hits == hi))
        se = np.sqrt(max(target * (1.0 - target), 1e-300) / m)
        reports.append(_make_report(f"posterior[h={hi:g}]", p_hat, se, m, target))
    return reports


def _survival_price_spline(model: MarketModel, t: float, xs: np.ndarray, is_kappa: bool):
    """Cubic spline of the undiscounted posterior mean over an x-range."""
    lo, hi = float(xs.min()), float(xs.max())
    pad = 1e-6 * max(1.0, hi - lo)
    nodes = np.linspace(lo - pad, hi + pad, 601)
    if is_kappa:
        means = default_pricing.survival_posterior_mean(model, t, nodes)
    else:
        means = pricing.posterior_mean(model, t, nodes)
    return CubicSpline(nodes, means)


def _observed_bond_means(model: MarketModel, t: float, n_paths: int, seed: int, grid_steps: int) -> np.ndarray:
    """Undiscounted bond value at the sampled observations of time t.

    Defaulted paths read their payoff off the ray; the others take the
    spline of the posterior mean.
    """
    grid = _eta_grid(model, t, grid_steps)
    idx = grid.index_of(t)
    is_kappa = model.default_law is not None

    def one(batch, size):
        if is_kappa:
            vals, _, h, _ = sample_kappa_batch(model, grid, seed, size, batch)
            x = vals[:, idx]
            return x, default_pricing.on_payoff_ray(model, t, x, h)
        vals, _ = sample_eta_batch(model, grid, seed, size, batch)
        return vals[:, idx], np.zeros(size, dtype=bool)

    parts = _map_batches(one, n_paths)
    xs = np.concatenate([p[0] for p in parts])
    defaulted = np.concatenate([p[1] for p in parts])
    spline = _survival_price_spline(model, t, xs[~defaulted], is_kappa)
    return np.where(defaulted, xs / (model.sigma * t), spline(xs))


def tower_check(model: MarketModel, t: float, n_paths: int, seed: int,
                grid_steps: int = 40, name: str | None = None) -> McReport:
    """E[posterior mean of the payoff] must equal the prior mean."""
    means = _observed_bond_means(model, t, n_paths, seed, grid_steps)
    est = means.mean()
    se = means.std(ddof=1) / np.sqrt(means.size)
    return _make_report(name or f"tower[t={t:g}]", est, se, means.size, model.payoff.mean())


def option_mc(model: MarketModel, t: float, strike: float, n_paths: int, seed: int,
              target: float, grid_steps: int = 40, name: str = "option") -> McReport:
    """Plain Monte Carlo of the discounted option payoff vs the quadrature value."""
    bond = model.discount(t) * _observed_bond_means(model, t, n_paths, seed, grid_steps)
    payoff = model.discount(0.0, t) * np.maximum(bond - strike, 0.0)
    est = payoff.mean()
    se = payoff.std(ddof=1) / np.sqrt(payoff.size)
    return _make_report(name, est, se, payoff.size, target)


# -- verification suite ------------------------------------------------------------

def _cov_target_zeta(s: float, t: float, T: float, var_rate: float) -> float:
    return (min(s, t) - s * t / T) + (s * t / (T * T)) * var_rate * (T - max(s, t))


def run_suite(seed: int, suite: str = "full") -> list[McReport]:
    """The standing battery of simulation-vs-closed-form checks."""
    from . import gaussian

    if suite not in ("full", "fast"):
        raise ValueError("suite must be 'full' or 'fast'")
    n = 100_000 if suite == "full" else 10_000
    T = 1.0
    steps = 20
    gamma = LevyLaw.standard_gamma()
    pois = LevyLaw.poisson(1.0)
    reports: list[McReport] = []

    w = grid_builder("brownian", T, steps)
    reports.append(empirical_cov(w, 0.5, 0.5, n, seed, 0.5, name="brownian var[0.5]"))
    reports.append(empirical_cov(w, 0.3, 0.7, n, seed, 0.3, name="brownian cov[0.3,0.7]"))
    br = grid_builder("bridge", T, steps)
    reports.append(empirical_cov(br, 0.5, 0.5, n, seed, 0.25, name="bridge var[0.5]"))
    bar = grid_builder("bar", T, steps)
    reports.append(empirical_cov(bar, 0.5, 0.5, n, seed, gaussian.cov_bar(0.5, 0.5, T), name="bar var[0.5]"))
    reports.append(empirical_cov(bar, 0.25, 0.75, n, seed, gaussian.cov_bar(0.25, 0.75, T),
                                 name="bar cov[0.25,0.75]"))
    reports.append(empirical_mean(bar, 0.5, n, seed, np.sqrt(2.0 * gaussian.cov_bar(0.5, 0.5, T) / np.pi),
                                  transform=np.abs, name="bar abs-mean[0.5]"))
    til = grid_builder("tilde", T, steps)
    reports.append(empirical_cov(til, 0.5, 0.5, n, seed, gaussian.cov_tilde(0.5, 0.5, T), name="tilde var[0.5]"))
    reports.append(empirical_cov(til, 0.25, 0.75, n, seed, gaussian.cov_tilde(0.25, 0.75, T),
                                 name="tilde cov[0.25,0.75]"))
    for label, law in (("gamma", gamma), ("poisson", pois)):
        z = grid_builder("zeta", T, steps, levy=law)
        mz = lambda ti, law=law: (ti / T) * law.mean(T - ti)
        reports.append(empirical_cov(z, 0.25, 0.75, n, seed,
                                     _cov_target_zeta(0.25, 0.75, T, law.variance(1.0)),
                                     means=(mz(0.25), mz(0.75)), name=f"zeta-{label} cov[0.25,0.75]"))
        reports.append(empirical_mean(z, 0.5, n, seed, mz(0.5), name=f"zeta-{label} mean[0.5]"))
    rev = grid_builder("levy-reversed", T, steps, levy=gamma)
    reports.append(empirical_cov(rev, 0.25, 0.75, n, seed, T - 0.75,
                                 means=(T - 0.25, T - 0.75), name="reversed-gamma cov[0.25,0.75]"))

    if suite == "full":
        from .laws import DefaultTimeLaw, PayoffDistribution
        from .model import RateCurve
        payoff = PayoffDistribution.binary(0.0, 1.0, 0.5)
        eta_model = MarketModel(T, 1.0, 1.0, RateCurve.flat(0.0), payoff, gamma)
        kap_model = MarketModel(T, 1.0, 0.5, RateCurve.flat(0.0), payoff, gamma,
                                default_law=DefaultTimeLaw.atoms([0.7, 0.8], [0.5, 0.5], horizon=T))
        for t in (0.25, 0.5, 0.75):
            reports.append(tower_check(eta_model, t, n, seed, name=f"tower-eta[t={t:g}]"))
            reports.append(tower_check(kap_model, t, n, seed, name=f"tower-kappa[t={t:g}]"))
        for rep in posterior_binning(eta_model, 0.5, 0.4, None, 500_000, seed):
            reports.append(McReport(f"binning-eta {rep.name}", rep.estimate, rep.std_error,
                                    rep.n_paths, rep.target, rep.z_score, rep.passed))
        c_eta = pricing.option_value(eta_model, 0.5, 0.5)
        reports.append(option_mc(eta_model, 0.5, 0.5, 200_000, seed, c_eta, name="option-eta[K=0.5]"))
        c_kap = default_pricing.option_value_default(kap_model, 0.5, 0.5)
        reports.append(option_mc(kap_model, 0.5, 0.5, 200_000, seed, c_kap, name="option-kappa[K=0.5]"))
    return reports
