"""Seeded path simulation for every process in the model.

Brownian, gamma and Poisson increments are sampled exactly, so grid values
carry the exact joint law of the processes at the grid points regardless of
step size.  Every sampler is a pure function of (grid, law, seed); batches
drawn from distinct streams of one root seed are independent.

A batch's two large streams (W under key (batch, 0), the Levy or second
Brownian path under key (batch, 1)) are drawn in lockstep, _BLOCK_ROWS rows
at a time, the second on a thread of one module-level pool.  W goes into the
output rows, the second stream into a small ring of reused block buffers,
and the calling thread composes each block as soon as both streams hold it,
so no full-size second-stream array exists; a caller that keeps only some
grid columns gets n rows of those.  Until the pool thread has started, the
calling thread draws the second stream's blocks it needs itself, and the
pool thread takes over from the next block, so a late or busy pool slows a
batch down by the blocks it missed, not by a switch to serial drawing;
inside ``_streams_on_this_thread`` (every worker of an mc batch map busy)
the calling thread draws them all.  Each thread keeps its block buffers
for its next batch.  Philox is counter-based, so a stream's values depend
only on its (seed, key), never on when or where it is drawn.  The library's
thread count is ``worker_count()``; at 1 everything is serial.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent import futures
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

_own_streams = threading.local()


@contextlib.contextmanager
def _streams_on_this_thread():
    """Within it, the samplers draw both streams of each batch on the calling thread."""
    before = getattr(_own_streams, "on", False)
    _own_streams.on = True
    try:
        yield
    finally:
        _own_streams.on = before


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


def _paths(grid: TimeGrid, n: int, draw, out: np.ndarray | None) -> np.ndarray:
    """Paths from 0 with draw's increments, _BLOCK_ROWS rows at a time."""
    if out is None:
        out = np.empty((n, grid.n_points))
    inc = np.empty((min(n, _BLOCK_ROWS), grid.n_steps))
    for rows in _blocks(n):
        _fill(out[rows], draw, inc)
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


def brownian_batch(grid: TimeGrid, seed: int, n: int, key=None, out: np.ndarray | None = None) -> np.ndarray:
    return _paths(grid, n, _brownian_draw(grid, seed, key), out)


def levy_batch(law: LevyLaw, grid: TimeGrid, seed: int, n: int, key=None,
               out: np.ndarray | None = None) -> np.ndarray:
    return _paths(grid, n, _levy_draw(law, grid, seed, key), out)


def _draw_streams(grid: TimeGrid, n: int, first, second, compose, columns=None) -> np.ndarray:
    """Paths of two independent streams, composed block by block; the columns asked for.

    first and second are increment draws as for _fill.  Both streams are drawn
    in lockstep, _BLOCK_ROWS rows at a time: the first into the output rows
    (or, when only some columns are kept, into one reused scratch block), the
    second into one of _RING reused block buffers.  compose(rows, a, b)
    composes a block in place into a, the first stream's rows, from b, the
    second's, as soon as both streams hold it; then the block's columns are
    kept.  The second stream's blocks are claimed in order and drawn one at a
    time, by the stream pool or by the calling thread: until the pool thread
    has started, the calling thread draws each block it needs itself; from
    then on the pool thread draws each next block as soon as it holds a free
    buffer, and the calling thread waits for it.  So a busy pool costs no
    waiting, and how soon the pool starts decides only which thread draws the
    first blocks, never whether the rest are drawn in parallel.  Every stream
    is drawn on this thread when worker_count() is 1 or inside
    _streams_on_this_thread.  The block buffers are the calling thread's
    kept ones (_block_buffers), so the pool thread's malloc arena holds none
    of them and none but the output grows with n; the pool thread is done
    with them when this returns, also when it raises.
    """
    m = grid.n_points
    k = min(n, _BLOCK_ROWS)
    blocks = _blocks(n)
    pooled = worker_count() > 1 and not getattr(_own_streams, "on", False)
    rings = _RING if pooled else 1
    inc, pool_inc, scratch, *free = _block_buffers([(k, m - 1)] * 2 + [(k, m)] * (1 + rings))
    out = np.empty((n, m) if columns is None else (n, len(columns)))
    filled = {}  # block index -> that block of the second stream's paths
    turn = threading.Condition()  # guards free, filled and the flags below
    claimed, drawing, stopped, failed = 0, False, False, False

    def claim() -> tuple[int, np.ndarray]:
        """The next block to draw and a free buffer for it; call holding turn."""
        nonlocal claimed, drawing
        i, b = claimed, free.pop()
        claimed, drawing = i + 1, True
        return i, b

    def fill(i: int, b: np.ndarray, inc: np.ndarray) -> None:
        _fill(b[:blocks[i].stop - blocks[i].start], second, inc)

    def drawn(i: int | None, b: np.ndarray | None) -> None:
        nonlocal drawing
        with turn:
            if i is not None:
                filled[i] = b
            drawing = False
            turn.notify_all()

    def draw_second():
        nonlocal failed
        while True:
            with turn:
                turn.wait_for(lambda: stopped or claimed == len(blocks) or (free and not drawing))
                if stopped or claimed == len(blocks):
                    return
                i, b = claim()
            try:
                fill(i, b, pool_inc)
            except BaseException:
                with turn:
                    failed = True
                drawn(None, None)
                raise
            drawn(i, b)

    def second_block(i: int) -> np.ndarray:
        """Block i of the second stream: the pool's, or drawn here while the pool has not started."""
        with turn:
            turn.wait_for(lambda: i in filled or failed or not (drawing or pool_started()))
            if i in filled:
                return filled.pop(i)
            error = failed
            if not error:
                _, b = claim()  # block i: the pool has drawn none yet
        if error:
            pending.result()  # raises the second stream's error
        try:
            fill(i, b, inc)
        finally:
            drawn(None, None)
        return b

    def pool_started() -> bool:
        return pending is not None and (pending.running() or pending.done())

    pending = _STREAMS.submit(draw_second) if pooled else None
    try:
        for i, rows in enumerate(blocks):
            a = _fill(out[rows] if columns is None else scratch[:rows.stop - rows.start], first, inc)
            b = second_block(i)
            compose(rows, a, b[:rows.stop - rows.start])
            if columns is not None:
                out[rows] = a[:, columns]
            with turn:
                free.append(b)
                turn.notify_all()
    finally:
        with turn:
            stopped = True  # ends the pool's draw, also when this thread stopped early
            turn.notify_all()
        if pending is not None and not pending.cancel():
            futures.wait([pending])  # the pool thread is done with this thread's buffers
    return out


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


def bar_beta_values(grid: TimeGrid, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return _pinned(grid, w, b, out)


def tilde_beta_values(grid: TimeGrid, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return _pinned(grid, w, reverse_values(grid, b), out)


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

    tau_idx is the index of the grid point at or below the default time: the
    samplers snap tau down, so a path whose tau falls between grid points
    defaults up to one step early (an off-grid tau is not bridged exactly yet).
    Strictly before it the path is signal + bridge of length tau + reversed
    Levy drift; from tau onward the path equals sigma*t*h exactly.  The rows
    that share a default index i are composed together from the slices
    w[:, :i+1] and x[:, i:0:-1] and the row t[:i] / t[i].  out may be w.
    """
    t = grid.points
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

# The two-stream samplers compose their paths block by block in place into the
# W block as the Levy (or second Brownian) stream delivers its blocks, so a
# composition's temporaries are block-sized whatever the batch size.

def _brownian_and_levy(grid: TimeGrid, law: LevyLaw, seed: int, n: int, batch: int, compose,
                       columns=None) -> np.ndarray:
    return _draw_streams(grid, n, _brownian_draw(grid, seed, (batch, 0)), _levy_draw(law, grid, seed, (batch, 1)),
                         compose, columns)


def sample_zeta_batch(grid: TimeGrid, law: LevyLaw, seed: int, n: int, batch: int = 0, columns=None) -> np.ndarray:
    """Batch of zeta paths; columns is as for sample_eta_batch."""
    return _brownian_and_levy(grid, law, seed, n, batch, lambda rows, w, x: zeta_values(grid, w, x, out=w), columns)


def sample_eta_batch(model: MarketModel, grid: TimeGrid, seed: int, n: int, batch: int = 0, columns=None):
    """Batch of eta paths; returns (values, payoff draws).

    columns, the grid indices whose values to return, defaults to all of them;
    the values are those of the full paths in those columns, bit for bit.
    """
    h = model.payoff.sample(rng_for(seed, (batch, 2)), n)

    def compose(rows, w, x):
        eta_values(grid, model.sigma, h[rows], zeta_values(grid, w, x, out=w), out=w)

    return _brownian_and_levy(grid, model.levy, seed, n, batch, compose, columns), h


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

    return _brownian_and_levy(grid, model.levy, seed, n, batch, compose, columns), tau_idx, h, tau


# -- one table of process samplers --------------------------------------------

def _brownian_pair(grid: TimeGrid, seed: int, n: int, batch: int, pinned, columns=None) -> np.ndarray:
    """pinned(grid, w, b, out) of two Brownian batches, composed in place into w; columns as for _draw_streams."""
    return _draw_streams(grid, n, _brownian_draw(grid, seed, (batch, 0)), _brownian_draw(grid, seed, (batch, 1)),
                         lambda rows, w, b: pinned(grid, w, b, out=w), columns)


def _in_columns(values: np.ndarray, columns) -> np.ndarray:
    """The full paths' values in the grid columns asked for (all of them when None)."""
    return values if columns is None else values[:, columns]


# Batch sampler per process name: (grid, source, seed, n, batch, columns=None)
# -> path values, paths as rows, in the grid columns asked for (all of them by
# default).  source is the noise law for zeta and levy-reversed, the market
# model for eta and kappa, and unused by the Brownian processes.  The
# two-stream samplers keep only those columns as they compose each block; the
# others draw full paths and slice.
PROCESS_SAMPLERS = {
    "brownian": lambda grid, source, seed, n, batch, columns=None: _in_columns(
        brownian_batch(grid, seed, n, key=(batch, 0)), columns),
    "bridge": lambda grid, source, seed, n, batch, columns=None: _in_columns(bridge_values(
        grid, brownian_batch(grid, seed, n, key=(batch, 0))), columns),
    "bar-beta": lambda grid, source, seed, n, batch, columns=None: _brownian_pair(
        grid, seed, n, batch, bar_beta_values, columns),
    "tilde-beta": lambda grid, source, seed, n, batch, columns=None: _brownian_pair(
        grid, seed, n, batch, tilde_beta_values, columns),
    "zeta": lambda grid, law, seed, n, batch, columns=None: sample_zeta_batch(grid, law, seed, n, batch, columns),
    "levy-reversed": lambda grid, law, seed, n, batch, columns=None: _in_columns(reverse_values(
        grid, levy_batch(law, grid, seed, n, key=(batch, 1))), columns),
    "eta": lambda grid, model, seed, n, batch, columns=None: sample_eta_batch(
        model, grid, seed, n, batch, columns)[0],
    "kappa": lambda grid, model, seed, n, batch, columns=None: sample_kappa_batch(
        model, grid, seed, n, batch, columns)[0],
}
