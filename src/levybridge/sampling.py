"""Seeded path simulation for every process in the model.

Brownian, gamma and Poisson increments are sampled exactly, so grid values
carry the exact joint law of the processes at the grid points regardless of
step size.  Every sampler is a pure function of (grid, law, seed); batches
drawn from distinct streams of one root seed are independent.

A batch's two large streams (W under key (batch, 0), the Levy or second
Brownian path under key (batch, 1)) are drawn at the same time, the second on
a thread of one module-level pool.  Philox is counter-based, so a stream's
values depend only on its (seed, key), never on when or where it is drawn.
The library's thread count is ``worker_count()``; at 1 everything is serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .grids import TimeGrid
from .laws import DEGENERATE, GAMMA, POISSON, LevyLaw
from .model import MarketModel


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    """Threads the library may use: BRIDGE_THREADS when set, else the usable CPUs."""
    env = os.environ.get("BRIDGE_THREADS")
    if not env:
        return _usable_cpus()
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"BRIDGE_THREADS must be a positive integer, got {env!r}")
    return value


def _new_stream_pool() -> None:
    """Create _STREAMS, the pool that draws the second stream of a batch.

    The calling thread draws the first stream, so the pool has one thread fewer
    than the usable CPUs.  Its tasks draw and never submit, so a caller waiting
    on one (also from an mc batch thread) cannot deadlock.
    """
    global _STREAMS
    _STREAMS = ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1), thread_name_prefix="levybridge-stream")


_new_stream_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's pool threads, and a pool that
    # counts them as idle would never run the child's draws
    os.register_at_fork(after_in_child=_new_stream_pool)


def _draw_streams(grid: TimeGrid, n: int, first, second):
    """Two independent stream draws into fresh (n, n_points) arrays, the second on the stream pool.

    first(out) and second(out) fill out.  Both arrays are allocated on the
    calling thread, so the pool thread's malloc arena keeps no batch-sized block.
    """
    a, b = np.empty((n, grid.n_points)), np.empty((n, grid.n_points))
    if worker_count() == 1:
        first(a)
        second(b)
    else:
        pending = _STREAMS.submit(second, b)
        first(a)
        pending.result()
    return a, b


def rng_for(seed: int, key: int | tuple[int, ...] | None = None) -> np.random.Generator:
    """Counter-based generator; distinct (seed, key) pairs give independent streams."""
    if key is None:
        seq = np.random.SeedSequence(seed)
    else:
        key = (key,) if isinstance(key, int) else tuple(key)
        seq = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


# -- batch samplers (n paths as rows) ----------------------------------------

_BLOCK_ROWS = 1024  # rows per drawing and composition step: block-sized temporaries


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK_ROWS rows that cover n rows."""
    return [slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS)]


def _paths(grid: TimeGrid, n: int, draw, out: np.ndarray | None) -> np.ndarray:
    """Paths from 0 with the increments draw(rows) returns, _BLOCK_ROWS rows at a time.

    A generator fills its output in C order, so drawing the rows block by block
    gives the same values as drawing all of them at once.
    """
    if out is None:
        out = np.empty((n, grid.n_points))
    out[:, 0] = 0.0
    for rows in _blocks(n):
        np.cumsum(draw(rows.stop - rows.start), axis=1, out=out[rows, 1:])
    return out


def brownian_batch(grid: TimeGrid, seed: int, n: int, key=None, out: np.ndarray | None = None) -> np.ndarray:
    rng = rng_for(seed, key)
    dt = grid.step_sizes()
    sd = np.sqrt(dt)
    return _paths(grid, n, lambda rows: rng.normal(0.0, sd, size=(rows, dt.size)), out)


def levy_batch(law: LevyLaw, grid: TimeGrid, seed: int, n: int, key=None,
               out: np.ndarray | None = None) -> np.ndarray:
    rng = rng_for(seed, key)
    dt = grid.step_sizes()
    if law.kind == GAMMA:
        draw = lambda rows: rng.gamma(shape=dt, scale=1.0, size=(rows, dt.size))
    elif law.kind == POISSON:
        draw = lambda rows: rng.poisson(lam=law.rate * dt, size=(rows, dt.size)).astype(float)
    elif law.kind == DEGENERATE:
        draw = lambda rows: np.zeros((rows, dt.size))
    else:  # pragma: no cover
        raise ValueError(law.kind)
    return _paths(grid, n, draw, out)


def reverse_values(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Reindex a forward realization as t -> T - t (same realization, reversed)."""
    if not grid.is_symmetric():
        raise ValueError("grid is not symmetric under t -> T - t; use a uniform grid")
    return values[..., ::-1]


def bridge_values(grid: TimeGrid, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.subtract(w, (grid.points / grid.horizon) * w[..., -1:], out=out)


def _pinned(grid: TimeGrid, w: np.ndarray, end: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """bridge(w) + (t/T) * end, composed in out (which may be w) with one scratch array."""
    out = bridge_values(grid, w, out=out)
    return np.add(out, (grid.points / grid.horizon) * end, out=out)


def bar_beta_values(grid: TimeGrid, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _pinned(grid, w, b, None)


def tilde_beta_values(grid: TimeGrid, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _pinned(grid, w, reverse_values(grid, b), None)


def zeta_values(grid: TimeGrid, w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return _pinned(grid, w, reverse_values(grid, x), out)


def eta_values(grid: TimeGrid, sigma: float, h, zeta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim == 1:
        h = h[:, None]
    return np.add(sigma * grid.points * h, zeta, out=out)


def kappa_values(grid: TimeGrid, sigma: float, mu: float, tau_idx, h,
                 w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Default-time information paths with per-path default index.

    tau_idx is the grid index the default time was snapped to.  Strictly
    before it the path is signal + bridge of length tau + reversed Levy drift;
    from tau onward the path equals sigma*t*h exactly.  out may be w.
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
    return np.add(sigma * t * h, np.where(before, noise, 0.0), out=out)


# -- model-driven batch sampling ----------------------------------------------

def _brownian_and_levy(grid: TimeGrid, law: LevyLaw, seed: int, n: int, batch: int):
    return _draw_streams(grid, n, lambda out: brownian_batch(grid, seed, n, (batch, 0), out),
                         lambda out: levy_batch(law, grid, seed, n, (batch, 1), out))


# The samplers compose their paths block by block in place into the fresh W,
# so a composition's temporaries are block-sized whatever the batch size.

def sample_zeta_batch(grid: TimeGrid, law: LevyLaw, seed: int, n: int, batch: int = 0) -> np.ndarray:
    w, x = _brownian_and_levy(grid, law, seed, n, batch)
    for rows in _blocks(n):
        zeta_values(grid, w[rows], x[rows], out=w[rows])
    return w


def sample_eta_batch(model: MarketModel, grid: TimeGrid, seed: int, n: int, batch: int = 0):
    """Batch of eta paths; returns (values, payoff draws)."""
    h = model.payoff.sample(rng_for(seed, (batch, 2)), n)
    zeta = sample_zeta_batch(grid, model.levy, seed, n, batch)
    for rows in _blocks(n):
        eta_values(grid, model.sigma, h[rows], zeta[rows], out=zeta[rows])
    return zeta, h


def sample_kappa_batch(model: MarketModel, grid: TimeGrid, seed: int, n: int, batch: int = 0):
    """Batch of kappa paths; returns (values, snapped tau indices, payoffs, raw taus)."""
    if model.default_law is None:
        raise ValueError("model has no default time law")
    tau = model.default_law.sample(rng_for(seed, (batch, 3)), n)
    h = model.payoff.sample(rng_for(seed, (batch, 2)), n)
    w, x = _brownian_and_levy(grid, model.levy, seed, n, batch)
    tau_idx = grid.snap_below(tau)
    for rows in _blocks(n):
        kappa_values(grid, model.sigma, model.levy_drift_scale, tau_idx[rows], h[rows], w[rows], x[rows],
                     out=w[rows])
    return w, tau_idx, h, tau


# -- one table of process samplers --------------------------------------------

def _brownian_pair(grid: TimeGrid, seed: int, n: int, batch: int):
    return _draw_streams(grid, n, lambda out: brownian_batch(grid, seed, n, (batch, 0), out),
                         lambda out: brownian_batch(grid, seed, n, (batch, 1), out))


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
