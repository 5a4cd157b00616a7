"""Independent Monte Carlo oracles for the closed forms.

Every oracle is seed-deterministic: path generation is split into fixed-size
batches with per-batch streams, partial sums are combined in batch order, and
the threads only reorder work, never results.  Batches run on
``sampling.worker_count()`` threads, the calling thread among them
(BRIDGE_THREADS when set, else the usable CPUs; 1 runs them serially), and
each batch of a two-stream process draws its second stream on the one helper
thread its sampler starts for it.  Every oracle asks the sampler for the
columns it reads only, so a batch of any process holds O(batch size) values.
Oracles read the formula under test only to obtain the target.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import default_pricing, pricing
from .grids import TimeGrid
from .laws import LevyLaw
from .model import MarketModel
from .sampling import PROCESS_SAMPLERS, sample_eta_batch, sample_kappa_batch, worker_count

PASS_SIGMAS = 4.0
BATCH_SIZE = 65_536
_MIN_WINDOW_HITS = 50
_ORACLE_STEPS = 40
_HIST_SIGMAS = 5.0
_HIST_MASS_CUT = 5e-4


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


def _batches(n_paths: int):
    # a standard error needs two paths; a negative count would divmod into one full-size batch
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 2:
        raise ValueError(f"n_paths must be an integer of at least 2, got {n_paths!r}")
    full, rem = divmod(n_paths, BATCH_SIZE)
    sizes = [BATCH_SIZE] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def _map_batches(fn, n_paths: int):
    """Apply fn(batch_index, size) to every batch; results come back in batch order.

    The calling thread takes batches in turn with worker_count() - 1 pool
    threads: it would otherwise only wait, and each extra thread keeps a malloc
    arena holding its freed batch arrays.  A two-stream batch adds its
    sampler's helper thread for as long as it draws, on every thread alike.
    """
    plan = _batches(n_paths)
    results = [None] * len(plan)
    todo = iter(plan)
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            results[item[0]] = fn(*item)

    helpers = min(worker_count(), len(plan)) - 1
    if helpers < 1:
        work()
        return results
    with ThreadPoolExecutor(max_workers=helpers) as pool:
        pending = [pool.submit(work) for _ in range(helpers)]
        work()
        for job in pending:
            job.result()
    return results


# -- process builders -----------------------------------------------------------

def grid_builder(process: str, T: float, steps: int, levy: LevyLaw | None = None):
    """Sampler closure (seed, n, batch, times) -> values at the requested grid times.

    process names a sampling.PROCESS_SAMPLERS entry; levy is its source.
    """
    if process not in PROCESS_SAMPLERS:
        raise ValueError(f"unknown process {process!r}")
    sample = PROCESS_SAMPLERS[process]
    grid = TimeGrid.uniform(T, steps)

    def build(seed, n, batch, times):
        # every sampler keeps only these columns, so a batch holds O(n) values
        return sample(grid, levy, seed, n, batch, [grid.index_of(ti) for ti in times])

    return build


def _moment_report(parts, target, name) -> McReport:
    """Mean of the per-batch (sum v, sum v^2, count) parts, with its standard error."""
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    n = sum(p[2] for p in parts)
    est = s1 / n
    var = max(s2 / n - est * est, 0.0) * n / (n - 1)
    return _make_report(name, est, np.sqrt(var / n), n, target)


def empirical_cov(builder, s: float, t: float, n_paths: int, seed: int, target: float,
                  means: tuple[float, float] = (0.0, 0.0), name: str = "cov") -> McReport:
    """Sample covariance from centered products, compared to the kernel value."""

    def one(batch, size):
        vals = builder(seed, size, batch, (s, t))
        prod = (vals[:, 0] - means[0]) * (vals[:, 1] - means[1])
        return prod.sum(), (prod * prod).sum(), prod.size

    return _moment_report(_map_batches(one, n_paths), target, name)


def empirical_mean(builder, t: float, n_paths: int, seed: int, target: float,
                   transform=None, name: str = "mean") -> McReport:
    """Sample mean of (optionally transformed) marginal values vs a closed form."""

    def one(batch, size):
        vals = builder(seed, size, batch, (t,))[:, 0]
        if transform is not None:
            vals = transform(vals)
        return vals.sum(), (vals * vals).sum(), vals.size

    return _moment_report(_map_batches(one, n_paths), target, name)


# -- transition density ----------------------------------------------------------

def conditional_histogram(builder, t: float, u: float, x: float, delta: float, bins: int,
                          n_paths: int, seed: int, density, support: tuple[float, float]) -> list[McReport]:
    """Histogram of the time-u value among paths near x at time t, vs the density.

    Bin edges cover the central (1 - 2*_HIST_MASS_CUT) mass of the density;
    the two outer bins are open-ended.  Per-bin comparison uses the binomial
    standard error at the target probability.  ``density`` maps an array of
    values to their densities; it is tabulated on 801 nodes of ``support`` in
    one call.
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
    dens = np.asarray(density(ys), dtype=float)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(ys))])
    total = cdf[-1]
    lo = float(np.interp(_HIST_MASS_CUT * total, cdf, ys))
    hi = float(np.interp((1.0 - _HIST_MASS_CUT) * total, cdf, ys))
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
        reports.append(_make_report(f"bin[{k}]", c / m, se, m, p, sigmas=_HIST_SIGMAS))
    return reports


# -- posterior and pricing oracles ------------------------------------------------

def _sample_observations(model: MarketModel, t: float, n_paths: int, seed: int):
    """(value at t, payoff, defaulted) of n_paths paths of the model's information process.

    The one place the oracles choose the eta or the kappa sampler: eta when
    the model carries no default law, kappa otherwise.  A path has defaulted
    when its kappa default index is at or below t's grid index.
    """
    grid = TimeGrid.uniform(model.maturity, _ORACLE_STEPS)
    j = grid.index_of(t)

    def one(batch, size):
        # only the time-t column is kept, so a batch holds O(size) values
        if model.default_law is None:
            vals, h = sample_eta_batch(model, grid, seed, size, batch, [j])
            return vals[:, 0], h, np.zeros(size, dtype=bool)
        vals, tau_idx, h, _ = sample_kappa_batch(model, grid, seed, size, batch, [j])
        return vals[:, 0], h, tau_idx <= j

    return tuple(np.concatenate(part) for part in zip(*_map_batches(one, n_paths)))


def posterior_binning(model: MarketModel, t: float, x: float, delta: float | None,
                      n_paths: int, seed: int) -> list[McReport]:
    """Empirical payoff frequencies near x vs the posterior weights.

    Uses the default-time model when the market model carries a default law;
    x should then sit away from the payoff rays so the window holds survival
    paths only, and the target is the payoff marginal of the joint posterior.
    """
    T = model.maturity
    if delta is None:
        delta = 0.02 * np.sqrt(t * (T - t) / T)
    xs, h, _ = _sample_observations(model, t, n_paths, seed)
    hits = h[np.abs(xs - x) <= delta]
    m = hits.size
    if m < _MIN_WINDOW_HITS:
        raise ArithmeticError(f"insufficient sample: only {m} paths near x={x}")

    support = model.payoff.support
    if model.default_law is None:
        weights = [w for _, w in pricing.posterior_payoff(model, t, x)]
    else:
        rows = default_pricing.bond_price_default(model, t, x).posterior_joint
        weights = [sum(w for _, h_j, w in rows if h_j == hi) for hi in support]

    reports = []
    for hi, target in zip(support, weights):
        p_hat = float(np.mean(hits == hi))
        se = np.sqrt(max(target * (1.0 - target), 1e-300) / m)
        reports.append(_make_report(f"posterior[h={hi:g}]", p_hat, se, m, target))
    return reports


def _observed_bond_means(model: MarketModel, t: float, n_paths: int, seed: int) -> np.ndarray:
    """Undiscounted bond value at the sampled observations of time t.

    Defaulted paths take their revealed payoff; the others take a cubic
    spline of the posterior mean through 601 nodes over their x-range.
    """
    xs, h, defaulted = _sample_observations(model, t, n_paths, seed)
    alive = xs[~defaulted]
    if alive.size == 0:  # every payoff is revealed: no spline to build
        return h
    lo, hi = float(alive.min()), float(alive.max())
    pad = 1e-6 * max(1.0, hi - lo)
    nodes = np.linspace(lo - pad, hi + pad, 601)
    if model.default_law is None:
        means = pricing.posterior_mean(model, t, nodes)
    else:
        means = default_pricing.survival_posterior_mean(model, t, nodes)
    return np.where(defaulted, h, CubicSpline(nodes, means)(xs))


def tower_check(model: MarketModel, t: float, n_paths: int, seed: int,
                name: str | None = None) -> McReport:
    """E[posterior mean of the payoff] must equal the prior mean."""
    means = _observed_bond_means(model, t, n_paths, seed)
    est = means.mean()
    se = means.std(ddof=1) / np.sqrt(means.size)
    return _make_report(name or f"tower[t={t:g}]", est, se, means.size, model.payoff.mean())


def option_mc(model: MarketModel, t: float, strike: float, n_paths: int, seed: int,
              target: float, name: str = "option") -> McReport:
    """Plain Monte Carlo of the discounted option payoff vs the quadrature value."""
    bond = model.discount(t) * _observed_bond_means(model, t, n_paths, seed)
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
    bar = grid_builder("bar-beta", T, steps)
    reports.append(empirical_cov(bar, 0.5, 0.5, n, seed, gaussian.cov_bar(0.5, 0.5, T), name="bar var[0.5]"))
    reports.append(empirical_cov(bar, 0.25, 0.75, n, seed, gaussian.cov_bar(0.25, 0.75, T),
                                 name="bar cov[0.25,0.75]"))
    reports.append(empirical_mean(bar, 0.5, n, seed, np.sqrt(2.0 * gaussian.cov_bar(0.5, 0.5, T) / np.pi),
                                  transform=np.abs, name="bar abs-mean[0.5]"))
    til = grid_builder("tilde-beta", T, steps)
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
