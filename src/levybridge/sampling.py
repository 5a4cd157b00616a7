"""Seeded path simulation for every process in the model.

Brownian, gamma and Poisson increments are sampled exactly, so grid values
carry the exact joint law of the processes at the grid points regardless of
step size.  Every sampler is a pure function of (grid, law, seed); batches
drawn from distinct streams of one root seed are independent.

Every sampler draws its paths through one block loop, _BLOCK_ROWS rows at a
time, and composes each block in place as soon as it is drawn, so a caller
that keeps only some grid columns gets n rows of those, for every process, and
no full-size path array exists.  A batch's two large streams (W under key
(batch, 0), the Levy or second Brownian path under key (batch, 1)) are drawn
in lockstep: W into the output rows, the second stream into a small ring of
reused block buffers.  One thread rule decides who draws the second stream:
when ``worker_count()`` is above 1, each two-stream call hands its draws to a
one-worker executor that is joined before the call returns; at 1 the calling
thread draws both streams, and everything is serial.  Each thread keeps its
block buffers for its next batch.  Philox is counter-based, so a stream's
values depend only on its (seed, key), never on when or where it is drawn.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .grids import _SYMMETRY_TOL, TimeGrid
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
_RING = 2  # second-stream blocks in flight: one being composed while the next is drawn
_kept = threading.local()  # each thread's block buffers, reused by its next batch


def _block_buffers(shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Arrays of the given block shapes, which this thread reuses from batch to batch.

    Buffers allocated afresh for each batch go back to the system when it
    ends and are faulted in again by the next, whose cost varies with the
    machine's memory traffic; kept, a batch's block buffers cost nothing after
    the thread's first batch.  The buffers grow to the largest block asked for.
    The i-th array is a view of the thread's i-th kept buffer, so callers
    active at once take distinct positions: _paths 0 and 1, the second-stream
    hand-off of _draw_streams 2 onward.
    """
    size = max(k * m for k, m in shapes)
    kept = getattr(_kept, "buffers", [])
    if len(kept) < len(shapes) or kept[0].size < size:
        size = max([size] + [b.size for b in kept])
        kept = _kept.buffers = [np.empty(size) for _ in range(max(len(shapes), len(kept)))]
    return [b[:k * m].reshape(k, m) for b, (k, m) in zip(kept, shapes)]


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK_ROWS rows that cover n rows."""
    return [slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS)]


def _fill(block: np.ndarray, draw, inc: np.ndarray) -> np.ndarray:
    """Paths from 0 of the next len(block) rows of draw's increments, in block.

    draw(inc) fills a C-contiguous (rows, steps) array with the increments of
    its next rows; inc is the scratch it fills.  A generator fills its output
    in C order, so drawing the rows block by block gives the same values as
    drawing all of them at once.
    """
    inc = inc[:len(block)]
    draw(inc)
    block[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=block[:, 1:])
    return block


def _paths(grid: TimeGrid, n: int, draw, compose=None, columns=None) -> np.ndarray:
    """Paths from 0 with draw's increments, _BLOCK_ROWS rows at a time; the columns asked for.

    Each block is filled into the output rows or, when only some columns are
    kept, into a reused scratch block.  compose(rows, a), when given,
    composes block a, the paths of rows, in place; then the block's columns
    are kept.  The other blocks are kept buffers, so only the output grows
    with n.
    """
    m = grid.n_points
    k = min(n, _BLOCK_ROWS)
    inc, scratch = _block_buffers([(k, m - 1), (k, m)])
    out = np.empty((n, m) if columns is None else (n, len(columns)))
    for rows in _blocks(n):
        a = _fill(out[rows] if columns is None else scratch[:rows.stop - rows.start], draw, inc)
        if compose is not None:
            compose(rows, a)
        if columns is not None:
            out[rows] = a[:, columns]
    return out


def _brownian_draw(grid: TimeGrid, seed: int, key):
    rng = rng_for(seed, key)
    sd = np.sqrt(grid.step_sizes())

    def draw(inc):
        # numpy's normal(0.0, sd) is 0.0 + sd * standard_normal(), bit for bit
        rng.standard_normal(out=inc)
        np.multiply(sd, inc, out=inc)
        np.add(0.0, inc, out=inc)

    return draw


def _levy_draw(law: LevyLaw, grid: TimeGrid, seed: int, key):
    rng = rng_for(seed, key)
    dt = grid.step_sizes()
    if np.all(dt == dt[0]):
        # one scalar shape or mean draws the same values as the per-step array, faster
        dt = dt[0]
    if law.kind == GAMMA:  # numpy's gamma(dt, 1.0), bit for bit
        return lambda inc: rng.standard_gamma(dt, out=inc)
    if law.kind == POISSON:
        return lambda inc: np.copyto(inc, rng.poisson(lam=law.rate * dt, size=inc.shape))
    if law.kind == DEGENERATE:
        return lambda inc: inc.fill(0.0)
    raise ValueError(law.kind)  # pragma: no cover


def brownian_batch(grid: TimeGrid, seed: int, n: int, key=None) -> np.ndarray:
    return _paths(grid, n, _brownian_draw(grid, seed, key))


def levy_batch(law: LevyLaw, grid: TimeGrid, seed: int, n: int, key=None) -> np.ndarray:
    return _paths(grid, n, _levy_draw(law, grid, seed, key))


def _name_helper():
    threading.current_thread().name = "levybridge-stream"


def _draw_streams(grid: TimeGrid, n: int, first, second, compose, columns=None) -> np.ndarray:
    """Paths of two independent streams, composed block by block; the columns asked for.

    first and second are increment draws as for _fill.  _paths draws the
    first stream; its compose step takes the second stream's block i from
    ring buffer i % _RING, and compose(rows, a, b) composes it in place into
    a, the first stream's rows, from b, the second's.  When worker_count() is
    above 1, a one-worker executor started for this call draws the second
    stream at most _RING blocks ahead: the draw of block i + _RING is
    submitted once block i is composed, into the buffer that block freed.
    A draw error is raised again on this thread, and the helper thread has
    been joined when this returns, also when it raises.  At 1, this thread
    draws both streams.  Like the oracles' pool, the executor takes no work
    once the interpreter has begun to exit, so a thread still sampling then
    gets RuntimeError unless BRIDGE_THREADS is 1.
    """
    m = grid.n_points
    k = min(n, _BLOCK_ROWS)
    blocks = _blocks(n)
    second_inc, *ring = _block_buffers([(k, m - 1), (k, m), (k, m - 1)] + [(k, m)] * _RING)[2:]

    def draw_second(i: int) -> np.ndarray:
        rows = blocks[i]
        return _fill(ring[i % _RING][:rows.stop - rows.start], second, second_inc)

    if worker_count() == 1:
        return _paths(grid, n, first, lambda rows, a: compose(rows, a, draw_second(rows.start // _BLOCK_ROWS)),
                      columns)
    with ThreadPoolExecutor(1, initializer=_name_helper) as helper:
        drawn = [helper.submit(draw_second, i) for i in range(min(_RING, len(blocks)))]

        def compose_next(rows: slice, a: np.ndarray):
            i = rows.start // _BLOCK_ROWS
            compose(rows, a, drawn[i].result())
            if i + _RING < len(blocks):
                drawn.append(helper.submit(draw_second, i + _RING))

        return _paths(grid, n, first, compose_next, columns)


def reverse_values(grid: TimeGrid, values: np.ndarray) -> np.ndarray:
    """Reindex a forward realization as t -> T - t (same realization, reversed)."""
    if not grid.is_symmetric():
        raise ValueError("grid is not symmetric under t -> T - t; use a uniform grid")
    return values[..., ::-1]


def bridge_values(grid: TimeGrid, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.subtract(w, (grid.points / grid.horizon) * w[..., -1:], out=out)


def bar_beta_values(grid: TimeGrid, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The one pinned composition, bridge(w) + (t/T) * b, in out (which may be w) with one scratch array."""
    out = bridge_values(grid, w, out=out)
    return np.add(out, (grid.points / grid.horizon) * b, out=out)


def zeta_values(grid: TimeGrid, w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """bar_beta_values pinned by x read as t -> T - t: zeta for a Levy x, tilde beta for a Brownian x."""
    return bar_beta_values(grid, w, reverse_values(grid, x), out)


tilde_beta_values = zeta_values


def eta_values(grid: TimeGrid, sigma: float, h, zeta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim == 1:
        h = h[:, None]
    return np.add(sigma * grid.points * h, zeta, out=out)


def kappa_values(grid: TimeGrid, sigma: float, mu: float, tau_idx, h,
                 w: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Default-time information paths with per-path default index.

    tau_idx is the index of the grid point at or below the default time: the
    samplers snap tau down, so a path whose tau falls between grid points
    defaults up to one step early (an off-grid tau is not bridged exactly yet).
    Strictly before it the path is signal + bridge of length tau + reversed
    Levy drift; from tau onward the path equals sigma*t*h exactly.  The rows
    that share a default index i are composed together from the slices
    w[:, :i+1] and x[:, i:0:-1] and the row t[:i] / t[i].  out may be w.
    x[:, i - j] is X at t_i - t_j only when all steps are equal, so a grid
    whose steps differ by more than float dust raises ValueError.
    """
    t = grid.points
    if np.ptp(grid.step_sizes()) > _SYMMETRY_TOL * max(grid.horizon, 1.0):
        raise ValueError("kappa paths need a grid of equal steps")
    w = np.atleast_2d(w)
    x = np.atleast_2d(x)
    n, m = w.shape
    tau_idx = np.atleast_1d(np.asarray(tau_idx, dtype=int)).reshape(n)
    h = np.atleast_1d(np.asarray(h, dtype=float)).reshape(n, 1)
    if out is None:
        out = np.empty((n, m))
    signal, drift = sigma * t, mu * t
    for i in np.unique(tau_idx):
        rows = np.flatnonzero(tau_idx == i)
        path = signal * h[rows]
        if i > 0:
            w_rows = w[rows, :i + 1]
            bridge = w_rows[:, :i] - (t[:i] / t[i]) * w_rows[:, i:]
            path[:, :i] += bridge + drift[:i] * x[rows, i:0:-1]
        path[:, i:] += 0.0  # as signal + 0.0 from the default on: -0.0 becomes 0.0
        out[rows] = path
    return out


# -- model-driven batch sampling ----------------------------------------------

def _pinned_pair(grid: TimeGrid, seed: int, n: int, batch: int, second, compose, columns=None) -> np.ndarray:
    """W under key (batch, 0) composed with second(grid, seed, key)'s draw under key (batch, 1), by _draw_streams."""
    return _draw_streams(grid, n, _brownian_draw(grid, seed, (batch, 0)), second(grid, seed, (batch, 1)),
                         compose, columns)


def sample_zeta_batch(grid: TimeGrid, law: LevyLaw, seed: int, n: int, batch: int = 0, columns=None) -> np.ndarray:
    """Batch of zeta paths; columns is as for sample_eta_batch."""
    return _pinned_pair(grid, seed, n, batch, partial(_levy_draw, law),
                        lambda rows, w, x: zeta_values(grid, w, x, out=w), columns)


def sample_eta_batch(model: MarketModel, grid: TimeGrid, seed: int, n: int, batch: int = 0, columns=None):
    """Batch of eta paths; returns (values, payoff draws).

    columns, the grid indices whose values to return, defaults to all of them;
    the values are those of the full paths in those columns, bit for bit.
    """
    h = model.payoff.sample(rng_for(seed, (batch, 2)), n)

    def compose(rows, w, x):
        eta_values(grid, model.sigma, h[rows], zeta_values(grid, w, x, out=w), out=w)

    return _pinned_pair(grid, seed, n, batch, partial(_levy_draw, model.levy), compose, columns), h


def sample_kappa_batch(model: MarketModel, grid: TimeGrid, seed: int, n: int, batch: int = 0, columns=None):
    """Batch of kappa paths; returns (values, snapped tau indices, payoffs, raw taus).

    The tau indices are those of the grid points at or below the default
    times, as kappa_values takes them: a default time between grid points is
    snapped down, so its path defaults up to one step early.  columns is as
    for sample_eta_batch.
    """
    if model.default_law is None:
        raise ValueError("model has no default time law")
    tau = model.default_law.sample(rng_for(seed, (batch, 3)), n)
    h = model.payoff.sample(rng_for(seed, (batch, 2)), n)
    tau_idx = grid.snap_below(tau)

    def compose(rows, w, x):
        kappa_values(grid, model.sigma, model.levy_drift_scale, tau_idx[rows], h[rows], w, x, out=w)

    return (_pinned_pair(grid, seed, n, batch, partial(_levy_draw, model.levy), compose, columns),
            tau_idx, h, tau)


# -- one table of process samplers --------------------------------------------

# Batch sampler per process name: (grid, source, seed, n, batch, columns=None)
# -> path values, paths as rows, in the grid columns asked for (all of them by
# default).  source is the noise law for zeta and levy-reversed, the market
# model for eta and kappa, and unused by the Brownian processes.  Each sampler
# composes its paths block by block in place and keeps only those columns.
PROCESS_SAMPLERS = {
    "brownian": lambda grid, source, seed, n, batch, columns=None: _paths(
        grid, n, _brownian_draw(grid, seed, (batch, 0)), columns=columns),
    "bridge": lambda grid, source, seed, n, batch, columns=None: _paths(
        grid, n, _brownian_draw(grid, seed, (batch, 0)), lambda rows, w: bridge_values(grid, w, out=w), columns),
    "bar-beta": lambda grid, source, seed, n, batch, columns=None: _pinned_pair(
        grid, seed, n, batch, _brownian_draw, lambda rows, w, b: bar_beta_values(grid, w, b, out=w), columns),
    "tilde-beta": lambda grid, source, seed, n, batch, columns=None: _pinned_pair(
        grid, seed, n, batch, _brownian_draw, lambda rows, w, b: tilde_beta_values(grid, w, b, out=w), columns),
    "zeta": lambda grid, law, seed, n, batch, columns=None: sample_zeta_batch(grid, law, seed, n, batch, columns),
    "levy-reversed": lambda grid, law, seed, n, batch, columns=None: _paths(  # copyto buffers the overlapping view
        grid, n, _levy_draw(law, grid, seed, (batch, 1)), lambda rows, x: np.copyto(x, reverse_values(grid, x)),
        columns),
    "eta": lambda grid, model, seed, n, batch, columns=None: sample_eta_batch(
        model, grid, seed, n, batch, columns)[0],
    "kappa": lambda grid, model, seed, n, batch, columns=None: sample_kappa_batch(
        model, grid, seed, n, batch, columns)[0],
}
