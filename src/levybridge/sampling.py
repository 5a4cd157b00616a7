"""Seeded path simulation for every process in the model.

Brownian, gamma and Poisson increments are sampled exactly, so grid values
carry the exact joint law of the processes at the grid points regardless of
step size.  Every sampler is a pure function of (grid, law, seed); batches
drawn from distinct streams of one root seed are independent.
"""

from __future__ import annotations

import numpy as np

from .grids import Path, TimeGrid
from .laws import DEGENERATE, GAMMA, POISSON, LevyLaw
from .model import MarketModel


def rng_for(seed: int, key: int | tuple[int, ...] | None = None) -> np.random.Generator:
    """Counter-based generator; distinct (seed, key) pairs give independent streams."""
    if key is None:
        seq = np.random.SeedSequence(seed)
    else:
        key = (key,) if isinstance(key, int) else tuple(key)
        seq = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


# -- batch samplers (n paths as rows) ----------------------------------------

def brownian_batch(grid: TimeGrid, seed: int, n: int, key=None) -> np.ndarray:
    rng = rng_for(seed, key)
    dt = grid.step_sizes()
    incs = rng.normal(0.0, np.sqrt(dt), size=(n, dt.size))
    out = np.empty((n, grid.n_points))
    out[:, 0] = 0.0
    np.cumsum(incs, axis=1, out=out[:, 1:])
    return out


def levy_batch(law: LevyLaw, grid: TimeGrid, seed: int, n: int, key=None) -> np.ndarray:
    rng = rng_for(seed, key)
    dt = grid.step_sizes()
    if law.kind == GAMMA:
        incs = rng.gamma(shape=dt, scale=1.0, size=(n, dt.size))
    elif law.kind == POISSON:
        incs = rng.poisson(lam=law.rate * dt, size=(n, dt.size)).astype(float)
    elif law.kind == DEGENERATE:
        incs = np.zeros((n, dt.size))
    else:  # pragma: no cover
        raise ValueError(law.kind)
    out = np.empty((n, grid.n_points))
    out[:, 0] = 0.0
    np.cumsum(incs, axis=1, out=out[:, 1:])
    return out


def reverse_values(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Reindex a forward realization as t -> T - t (same realization, reversed)."""
    if not grid.is_symmetric():
        raise ValueError("grid is not symmetric under t -> T - t; use a uniform grid")
    return values[..., ::-1]


def bridge_values(grid: TimeGrid, w: np.ndarray) -> np.ndarray:
    t = grid.points
    return w - (t / grid.horizon) * w[..., -1:]


def bar_beta_values(grid: TimeGrid, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    t = grid.points
    return bridge_values(grid, w) + (t / grid.horizon) * b


def tilde_beta_values(grid: TimeGrid, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    t = grid.points
    return bridge_values(grid, w) + (t / grid.horizon) * reverse_values(grid, b)


def zeta_values(grid: TimeGrid, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    t = grid.points
    return bridge_values(grid, w) + (t / grid.horizon) * reverse_values(grid, x)


def eta_values(grid: TimeGrid, sigma: float, h, zeta: np.ndarray) -> np.ndarray:
    t = grid.points
    h = np.asarray(h, dtype=float)
    if h.ndim == 1:
        h = h[:, None]
    return sigma * t * h + zeta


def kappa_values(grid: TimeGrid, sigma: float, mu: float, tau_idx, h,
                 w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Default-time information paths with per-path default index.

    tau_idx is the grid index the default time was snapped to.  Strictly
    before it the path is signal + bridge of length tau + reversed Levy drift;
    from tau onward the path equals sigma*t*h exactly.
    """
    t = grid.points
    w = np.atleast_2d(w)
    x = np.atleast_2d(x)
    n, m = w.shape
    tau_idx = np.atleast_1d(np.asarray(tau_idx, dtype=int)).reshape(n, 1)
    h = np.atleast_1d(np.asarray(h, dtype=float)).reshape(n, 1)
    tau = t[tau_idx]
    w_tau = np.take_along_axis(w, tau_idx, axis=1)
    x_rev = np.take_along_axis(x, np.maximum(tau_idx - np.arange(m), 0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bridge = w - np.where(tau > 0.0, t / np.where(tau > 0.0, tau, 1.0), 0.0) * w_tau
    noise = bridge + mu * t * x_rev
    before = np.arange(m) < tau_idx
    return sigma * t * h + np.where(before, noise, 0.0)


# -- single-path operations ---------------------------------------------------

def sample_brownian(grid: TimeGrid, seed: int) -> Path:
    """Standard Brownian motion on the grid, W_0 = 0."""
    return Path(grid, brownian_batch(grid, seed, 1)[0])


def sample_brownian_bridge(grid: TimeGrid, seed: int) -> Path:
    """W_t - (t/T) W_T for one underlying W realization; pinned to 0 at both ends."""
    return Path(grid, bridge_values(grid, brownian_batch(grid, seed, 1))[0])


def sample_levy(law: LevyLaw, grid: TimeGrid, seed: int) -> Path:
    """Levy path with exact stationary independent increments, X_0 = 0."""
    return Path(grid, levy_batch(law, grid, seed, 1)[0])


def reverse_index(path: Path) -> Path:
    return Path(path.grid, reverse_values(path.grid, path.values).copy())


def _require_same_grid(a: Path, b: Path) -> TimeGrid:
    if a.grid.points.shape != b.grid.points.shape or not np.array_equal(a.grid.points, b.grid.points):
        raise ValueError("paths live on different grids")
    return a.grid


def build_bar_beta(w: Path, b: Path) -> Path:
    """Bridge of W pinned by the forward Brownian motion B: not Markov."""
    grid = _require_same_grid(w, b)
    return Path(grid, bar_beta_values(grid, w.values, b.values))


def build_tilde_beta(w: Path, b: Path) -> Path:
    """Bridge of W pinned by the time-reversed Brownian motion: Markov."""
    grid = _require_same_grid(w, b)
    return Path(grid, tilde_beta_values(grid, w.values, b.values))


def build_zeta(w: Path, x: Path) -> Path:
    """Bridge noise with reversed Levy pinning; vanishes at 0 and T exactly."""
    grid = _require_same_grid(w, x)
    return Path(grid, zeta_values(grid, w.values, x.values))


def build_eta(model: MarketModel, h: float, zeta: Path) -> Path:
    """Market information path sigma*t*h + zeta_t."""
    return Path(zeta.grid, eta_values(zeta.grid, model.sigma, float(h), zeta.values))


def build_kappa(model: MarketModel, tau: float, h: float, w: Path, x: Path) -> Path:
    """Default-time information path; tau is snapped to the nearest grid point <= tau."""
    grid = _require_same_grid(w, x)
    if not 0.0 < tau <= grid.horizon:
        raise ValueError("tau must lie in (0, T]")
    tau_idx = grid.snap_below(tau)
    vals = kappa_values(grid, model.sigma, model.levy_drift_scale,
                        [tau_idx], [h], w.values[None, :], x.values[None, :])
    return Path(grid, vals[0])


# -- model-driven batch sampling ----------------------------------------------

def sample_zeta_batch(grid: TimeGrid, law: LevyLaw, seed: int, n: int, batch: int = 0) -> np.ndarray:
    w = brownian_batch(grid, seed, n, key=(batch, 0))
    x = levy_batch(law, grid, seed, n, key=(batch, 1))
    return zeta_values(grid, w, x)


def sample_eta_batch(model: MarketModel, grid: TimeGrid, seed: int, n: int, batch: int = 0):
    """Batch of eta paths; returns (values, payoff draws)."""
    h = model.payoff.sample(rng_for(seed, (batch, 2)), n)
    zeta = sample_zeta_batch(grid, model.levy, seed, n, batch)
    return eta_values(grid, model.sigma, h, zeta), h


def sample_kappa_batch(model: MarketModel, grid: TimeGrid, seed: int, n: int, batch: int = 0):
    """Batch of kappa paths; returns (values, snapped tau indices, payoffs, raw taus)."""
    if model.default_law is None:
        raise ValueError("model has no default time law")
    tau = model.default_law.sample(rng_for(seed, (batch, 3)), n)
    h = model.payoff.sample(rng_for(seed, (batch, 2)), n)
    w = brownian_batch(grid, seed, n, key=(batch, 0))
    x = levy_batch(model.levy, grid, seed, n, key=(batch, 1))
    tau_idx = grid.snap_below(tau)
    vals = kappa_values(grid, model.sigma, model.levy_drift_scale, tau_idx, h, w, x)
    return vals, tau_idx, h, tau


# -- one table of process samplers --------------------------------------------

def _brownian_pair(grid: TimeGrid, seed: int, n: int, batch: int):
    return brownian_batch(grid, seed, n, key=(batch, 0)), brownian_batch(grid, seed, n, key=(batch, 1))


# Batch sampler per process name: (grid, source, seed, n, batch) -> path values,
# paths as rows.  source is the noise law for zeta and levy-reversed, the market
# model for eta and kappa, and unused by the Brownian processes.
PROCESS_SAMPLERS = {
    "brownian": lambda grid, source, seed, n, batch: brownian_batch(grid, seed, n, key=(batch, 0)),
    "bridge": lambda grid, source, seed, n, batch: bridge_values(
        grid, brownian_batch(grid, seed, n, key=(batch, 0))),
    "bar-beta": lambda grid, source, seed, n, batch: bar_beta_values(
        grid, *_brownian_pair(grid, seed, n, batch)),
    "tilde-beta": lambda grid, source, seed, n, batch: tilde_beta_values(
        grid, *_brownian_pair(grid, seed, n, batch)),
    "zeta": lambda grid, law, seed, n, batch: sample_zeta_batch(grid, law, seed, n, batch),
    "levy-reversed": lambda grid, law, seed, n, batch: reverse_values(
        grid, levy_batch(law, grid, seed, n, key=(batch, 1))),
    "eta": lambda grid, model, seed, n, batch: sample_eta_batch(model, grid, seed, n, batch)[0],
    "kappa": lambda grid, model, seed, n, batch: sample_kappa_batch(model, grid, seed, n, batch)[0],
}
