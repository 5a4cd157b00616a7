"""Densities, quadrature against the noise laws, and the parabolic cylinder function."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy import integrate, optimize
from scipy.special import gammaln

if TYPE_CHECKING:
    from .laws import LevyLaw

# the noise families integrate_levy integrates against; laws.LevyLaw picks one
GAMMA = "gamma"
POISSON = "poisson"
DEGENERATE = "none"

# quadpack error bounds are conservative; request tighter than we enforce
REQUEST_MARGIN = 0.25

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_EPS = np.finfo(float).eps
# elements of the largest node array handed to an integrand in one call
_MAX_TEMPORARY = 1 << 18
_MAX_ROUNDS = 60
# integrals of |f| below this are resolved relative to it, not to themselves,
# as underflow takes their relative precision
UNDERFLOW = 1e-290
_MAX_LATTICE = 1 << 22
# past 40 + 2a the gamma(a) density is below e^-40 of its bulk, and past
# 1000 + 2a it underflows to 0
_GAMMA_BULK_END, _GAMMA_UNDERFLOW = 40.0, 1000.0

# break points, in standard deviations from its centre, that resolve a
# Gaussian factor of an integrand (see ``integrate_levy``)
GAUSS_BREAKS = np.array([-9.0, -6.0, -3.5, -1.5, 0.0, 1.5, 3.5, 6.0, 9.0])


class QuadratureError(RuntimeError):
    """Raised when an integral cannot be resolved to the requested tolerance."""


@dataclass(frozen=True)
class Quadrature:
    """Tolerance policy for adaptive quadrature and series truncation."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")

    def scaled(self, factor: float) -> "Quadrature":
        return replace(self, abs_tol=self.abs_tol * factor, rel_tol=self.rel_tol * factor)


DEFAULT_QUADRATURE = Quadrature()


def gauss_density(t: float, x, y=0.0):
    """Gaussian density with variance t and mean y, evaluated at x; t may be an array."""
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("variance must be positive")
    x = np.asarray(x, dtype=float)
    return np.exp(-(x - y) ** 2 / (2.0 * t)) / (_SQRT_2PI * np.sqrt(t))


def gamma_density(t: float, x):
    """Density of the standard gamma subordinator at time t (shape t, scale 1)."""
    if t <= 0.0:
        raise ValueError("shape must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(np.exp((t - 1.0) * np.log(x) - x - gammaln(t))) if x > 0.0 else 0.0
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp((t - 1.0) * np.log(x[pos]) - x[pos] - gammaln(t))
    return out


def poisson_pmf(t: float, lam: float, n) -> float:
    """P(N_t = n) for a Poisson process with intensity lam."""
    if t < 0.0 or lam <= 0.0:
        raise ValueError("need t >= 0 and lam > 0")
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be nonnegative")
    mu = lam * t
    if mu == 0.0:
        return np.where(n == 0, 1.0, 0.0) if n.ndim else float(n == 0)
    out = np.exp(n * np.log(mu) - mu - gammaln(n + 1.0))
    return out if n.ndim else float(out)


# -- panel rules ---------------------------------------------------------------

# 7-point Gauss / 15-point Kronrod pair on [-1, 1]
_GK_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_GK_X = np.concatenate([_GK_X, -_GK_X[-2::-1]])
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_WK = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
                0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
                0.129484966168869693270611432679082]
_LINE, _HEAD, _TAIL = 0, 1, 2
# where the nodes of an empty interval sit, with no mass: a point of the gamma
# law's support, so that an integrand of integrate_levy sees only points of its
# range (integrate_panels never evaluates empty intervals)
_REST = 1.0


def _jacobi_head(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8- and 7-point Gauss-Jacobi rules for the weight s^(a-1) on (0, 1), per law time a.

    Returns, with shape a.shape + (15,), the nodes of both rules side by side
    and, per rule, its weights (summing to 1) padded with zeros at the other
    rule's nodes.
    """
    u, inv = np.unique(a, return_inverse=True)
    return tuple(r[inv.ravel()].reshape(a.shape + (15,)) for r in _jacobi_rules(u.tobytes()))


@lru_cache(maxsize=32)
def _jacobi_rules(times: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rules of ``_jacobi_head`` for a sorted set of distinct law times, one row each.

    Golub-Welsch on the Jacobi recurrence with alpha = 0 and beta = a - 1,
    written in a so that nothing cancels for tiny a; one batched symmetric
    eigensolve covers the set.  Cached by set, as repeated calls share their
    law times.
    """
    u = np.frombuffer(times)[:, None]
    nodes, weights = [], []
    for n in (8, 7):
        k = np.arange(1, n, dtype=float)
        s = 2.0 * k - 1.0 + u  # 2k + beta
        kb = k - 1.0 + u  # k + beta; kb / (s - 1) is exactly 1 at k = 1
        i = np.arange(n)
        mat = np.zeros((u.shape[0], n, n))
        mat[:, 0, 0] = ((u - 1.0) / (u + 1.0))[:, 0]
        mat[:, i[1:], i[1:]] = (1.0 - u) ** 2 / (s * (s + 2.0))
        mat[:, i[1:], i[:-1]] = 2.0 * k / s * np.sqrt(kb * (kb / (2.0 * k - 2.0 + u)) / (s + 1.0))
        x, vec = np.linalg.eigh(mat)  # reads the lower triangle
        nodes.append(np.maximum((1.0 + x) / 2.0, 0.0))
        w = vec[:, 0, :] ** 2
        weights.append(w / w.sum(axis=1, keepdims=True))
    rules = (np.concatenate(nodes, axis=1),
             np.concatenate([weights[0], np.zeros((u.shape[0], 7))], axis=1),
             np.concatenate([np.zeros((u.shape[0], 8)), weights[1]], axis=1))
    for r in rules:
        r.setflags(write=False)
    return rules


def _sum_nodes(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g @ w over the node axis, as one matrix product whatever the element axes' shape.

    A stacked product may round a panel differently as the element axes
    change shape; one flat product keeps the default-time model's point law
    at T bitwise equal to the maturity model (A13).
    """
    return (g.reshape(-1, 15) @ w).reshape(g.shape[:-1])


class _GammaMeasure:
    """The standard gamma law of shape a, a per element, with its head rules (``_jacobi_head``)."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)
        self.head_nodes, self.w_hi, self.w_lo = _jacobi_head(self.a)
        # per element, ready to broadcast against the node axis
        self.a_col = self.a[..., None]
        self.log_gamma = gammaln(self.a_col)
        self.log_gamma_1 = gammaln(self.a_col + 1.0)


def _full(x: np.ndarray, shape: tuple) -> np.ndarray:
    """x broadcast to shape; x itself when it has that shape already, which is the common case."""
    return x if x.shape == shape else np.broadcast_to(x, shape)


def _expand(x: np.ndarray, ndim: int) -> np.ndarray:
    """x with 1s inserted after its row axis, so that its element axes align right in ndim axes."""
    return x.reshape(x.shape[:1] + (1,) * (ndim - x.ndim) + x.shape[1:])


class _Panels:
    """15-node panels, one per row and element.

    ``kind``, ``lo``, ``hi`` and ``base`` have a row axis followed by
    element axes, and broadcast together.  A line panel integrates over
    [lo, hi] by the 7/15 Gauss-Kronrod pair; a head panel over [0, hi] by the
    Gauss-Jacobi pair of ``_jacobi_head``; a tail panel over u in [lo, hi]
    by Gauss-Kronrod, with y = base + (1 + a) u / (1 - u).  ``law`` is the
    gamma measure of shape a, None for Lebesgue measure.  Each element has
    its own panels, so a row may hold a panel for some elements and an empty
    interval for the others.
    """

    def __init__(self, law, kind, lo, hi, base):
        self.law, self.kind, self.lo, self.hi, self.base = law, kind, lo, hi, base
        self.val = self.err = self.mag = None

    def nodes(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Nodes y and node masses (measure density times Jacobian) of the rows, shape (rows, *elements, 15).

        The nodes of an empty interval are ``_REST`` and their mass is 0.
        """
        lo, hi, kind = self.lo[rows, ..., None], self.hi[rows, ..., None], self.kind[rows, ..., None]
        half = (hi - lo) / 2.0
        live = (hi > lo) | (kind == _HEAD)
        y = np.where(live, (hi + lo) / 2.0, _REST) + half * _GK_X  # an empty interval has half = 0
        if self.law is None:
            return y, np.broadcast_to(half, y.shape)
        entries = y.shape[:-1]

        def per_entry(x, at):
            # a law array that is one row serves every entry as it is
            return x if x.ndim == 1 else _full(x, entries + x.shape[-1:])[at]

        def pick(x, sel):
            return x if x.ndim == 1 else x[sel]

        # the gamma density times the Jacobian, on the nonempty panels only
        at = np.nonzero(_full(live[..., 0], entries))
        law, kind = self.law, _full(self.kind[rows], entries)[at]
        tail, head = kind == _TAIL, kind == _HEAD
        a, x = per_entry(law.a_col, at), y[at]
        u = x[tail]
        scale = 1.0 + pick(a, tail)
        x[tail] = per_entry(self.base[rows, ..., None], at)[tail] + scale * u / (1.0 - u)
        top = per_entry(hi, at)[head]
        x[head] = top * pick(per_entry(law.head_nodes, at), head)
        with np.errstate(divide="ignore", invalid="ignore"):  # head nodes: their mass is set below
            mass = per_entry(half, at) * np.exp((a - 1.0) * np.log(x) - x - per_entry(law.log_gamma, at))
        mass[tail] *= scale / (1.0 - u) ** 2
        # the Jacobi weights carry y^(a-1); the head's mass is the rest of the density
        mass[head] = np.exp(pick(a, head) * np.log(top) - pick(per_entry(law.log_gamma_1, at), head) - x[head])
        y[at] = x
        out = np.zeros(y.shape)
        out[at] = mass
        return y, out

    def rule(self, g: np.ndarray) -> None:
        """Value, error estimate and integral of |f| per panel from g = f * node mass."""
        val = _sum_nodes(g, _GK_WK)
        diff = np.abs(val - _sum_nodes(g, _GK_WG))
        mag = _sum_nodes(np.abs(g), _GK_WK)
        # QUADPACK's scaling of the Kronrod-Gauss difference
        asc = _sum_nodes(np.abs(g - val[..., None] / 2.0), _GK_WK)
        ratio = 200.0 * diff / np.where(asc > 0.0, asc, 1.0)
        err = np.where(asc > 0.0, asc * np.minimum(1.0, ratio * np.sqrt(ratio)), diff)
        head = np.nonzero(_full(_expand(self.kind, val.ndim) == _HEAD, val.shape))
        if head[0].size:
            gh = g[head]
            w_hi, w_lo = (w if w.ndim == 1 else _full(w, g.shape)[head] for w in (self.law.w_hi, self.law.w_lo))
            val[head], mag[head] = (gh * w_hi).sum(axis=-1), (np.abs(gh) * w_hi).sum(axis=-1)
            err[head] = np.abs(val[head] - (gh * w_lo).sum(axis=-1))
        self.val, self.err, self.mag = val, np.maximum(err, 50.0 * _EPS * mag), mag

    def select(self, rows: np.ndarray) -> "_Panels":
        out = _Panels(self.law, self.kind[rows], self.lo[rows], self.hi[rows], self.base[rows])
        out.val, out.err, out.mag = self.val[rows], self.err[rows], self.mag[rows]
        return out

    def active(self) -> np.ndarray:
        """Whether each panel has a nonempty interval."""
        return (self.hi > self.lo) | (self.kind == _HEAD)

    def divisible(self) -> np.ndarray:
        """Whether the halves of each panel's interval would still have distinct nodes."""
        return self.hi - self.lo > 1024.0 * _EPS * np.maximum(np.abs(self.lo), np.abs(self.hi))

    def split(self, mark: np.ndarray) -> "_Panels":
        """Halves of the marked panels, packed per element into new rows; the marked panels become empty.

        A head panel becomes a head and a line panel.  An element's rows hold
        only its own panels, so they never depend on other elements.
        """
        at = np.nonzero(mark)
        rank = (np.cumsum(mark, axis=0) - 1)[at]
        count = int(rank.max()) + 1
        kind, lo, hi, base = self.kind[at], self.lo[at], self.hi[at], self.base[at]
        mid = (lo + hi) / 2.0
        out = _Panels(self.law, *(np.zeros((2 * count,) + mark.shape[1:], dtype=x.dtype)
                                  for x in (self.kind, self.lo, self.hi, self.base)))
        out.kind[...] = _LINE
        for half, parts in ((0, (kind, lo, mid)), (count, (np.where(kind == _HEAD, _LINE, kind), mid, hi))):
            where = (rank + half,) + at[1:]
            out.kind[where], out.lo[where], out.hi[where] = parts
            out.base[where] = base
        self.kind[at], self.hi[at] = _LINE, self.lo[at]
        self.val[at] = self.err[at] = self.mag[at] = 0.0
        return out

    def join(self, other: "_Panels") -> "_Panels":
        out = _Panels(self.law, *(np.concatenate([getattr(self, k), getattr(other, k)])
                                  for k in ("kind", "lo", "hi", "base")))
        out.val, out.err, out.mag = (np.concatenate([getattr(self, k), getattr(other, k)])
                                     for k in ("val", "err", "mag"))
        return out

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, error estimate and integral of |f| per element, summed in sorted order.

        Sorting makes a sum independent of the empty panels and of the row order.
        """
        return tuple(np.sort(x, axis=0).sum(axis=0) for x in (self.val, self.err, self.mag))


def _evaluate(f, p: _Panels, size: int, args=None) -> int:
    """Fill in the rule on every row of p, with as few calls of f as the temporary cap allows.

    Rows go side by side on f's node axis.  ``size`` is the element count
    known so far; the element count of f's output is returned.  With
    ``args``, per-element arguments of f with p's element shape, f is called
    only on p's nonempty intervals, their nodes as rows of 15 and each
    argument at their elements as a column.
    """
    parts = []
    live = p.active()
    step = max(1, _MAX_TEMPORARY // (15 * max(size, 1)))
    for i in range(0, p.lo.shape[0], step):
        y, mass = p.nodes(slice(i, i + step))
        rows = y.shape[0]
        if args is not None:
            at = np.nonzero(_full(live[i:i + step], y.shape[:-1]))
            fy = np.zeros(y.shape)
            fy[at] = f(y[at], *(a[at[1:]].reshape(-1, 1) for a in args))
        else:
            nodes = y.reshape(-1) if y.ndim == 2 else np.moveaxis(y, 0, -2).reshape(y.shape[1:-1] + (rows * 15,))
            fy = np.asarray(f(nodes), dtype=float)
            if fy.ndim == 1:
                fy = fy.reshape(rows, 15)
            elif fy.ndim:
                fy = np.moveaxis(fy.reshape(fy.shape[:-1] + (rows, 15)), -2, 0)
                mass = _expand(mass, fy.ndim)
        with np.errstate(invalid="ignore"):
            parts.append(np.where(mass > 0.0, fy * mass, 0.0))
        size = max(size, int(np.prod(parts[-1].shape[1:-1], dtype=int)))
        step = max(1, _MAX_TEMPORARY // (15 * max(size, 1)))
    if len(parts) > 1:
        shape = np.broadcast_shapes(*(g.shape[1:] for g in parts))
        parts = [np.concatenate([np.broadcast_to(g, g.shape[:1] + shape) for g in parts])]
    p.rule(parts[0])
    return size


def _refine(f, p: _Panels, goal, q: Quadrature, args=None):
    """Bisect panels until every element's error estimate meets goal(val, mag).

    An element that has not converged splits each of its panels holding more
    than its share of the goal; each element's panels, and so its result,
    do not depend on the other elements.  With ``args``, per-element
    arguments of f, the first panels, which every element shares, go to f
    in one call with the arguments broadcast against their nodes, and the
    panels of later rounds as ``_evaluate`` passes them.  Returns value and
    error estimate per element.
    """
    first = f if args is None else lambda y: f(y, *(a[..., None] for a in args))
    size = _evaluate(first, p, int(np.prod(p.lo.shape[1:], dtype=int)))
    shape = p.val.shape
    # every panel per element from here on, element axes of f's output included
    p.kind, p.lo, p.hi, p.base = (np.array(_full(_expand(x, len(shape)), shape))
                                  for x in (p.kind, p.lo, p.hi, p.base))
    if args is not None:
        args = tuple(np.broadcast_to(a, shape[1:]) for a in args)
    for _ in range(_MAX_ROUNDS):
        val, err, mag = p.totals()
        target = goal(val, mag)
        count = p.active().sum(axis=0)
        need = (err > target) & (count < q.max_subdivisions)
        if not np.any(need):
            break
        mark = need & (p.err > target / count) & p.divisible()
        if not np.any(mark):
            break
        fresh = p.split(mark)
        size = _evaluate(f, fresh, size, args)
        p = p.select(np.any(p.active().reshape(p.lo.shape[0], -1), axis=1)).join(fresh)
    val, err, _ = p.totals()
    return val, err


def _check(val, err, q: Quadrature, what: str) -> None:
    val, err = np.broadcast_arrays(val, err)
    bad = np.flatnonzero(~(err <= q.rel_tol * np.abs(val) + q.abs_tol))
    if bad.size:
        i = bad[0]
        raise QuadratureError(f"{what} error estimate {err.flat[i]:.3e} exceeds tolerance "
                              f"(value {val.flat[i]:.6e})")


def _result(val):
    return float(val) if np.ndim(val) == 0 else val


def _gamma_panels(law: _GammaMeasure, points) -> _Panels:
    """Head, line panels between the sorted break points, and a mapped tail.

    Where the caller's break points reach past the law's bulk, its end
    40 + 2a joins them, so that no panel spans the bulk unseen; break points
    that are not finite, or lie where the density underflows, are dropped.
    """
    a = law.a
    if points is None:
        edges = np.stack([np.ones_like(a), 1.0 + a])
    else:
        pts = np.where(np.isfinite(points) & (points < (_GAMMA_UNDERFLOW + 2.0 * a)[..., None]), points, -np.inf)
        low = np.min(pts, axis=-1)
        head = np.where(low > 0.0, np.minimum(1.0, low / 2.0), 1.0)
        shape = np.broadcast_shapes(pts.shape[:-1], a.shape)
        end = _GAMMA_BULK_END + 2.0 * a
        reach = np.max(pts, axis=-1) > end
        if np.any(reach):
            pts = np.concatenate([np.broadcast_to(pts, shape + pts.shape[-1:]),
                                  np.broadcast_to(np.where(reach, end, -np.inf), shape)[..., None]], axis=-1)
        pts = np.sort(pts, axis=-1)
        edges = np.concatenate([np.broadcast_to(head, shape)[None],
                                np.maximum(np.moveaxis(np.broadcast_to(pts, shape + pts.shape[-1:]), -1, 0), head)])
    zero = np.zeros_like(edges[:1])
    kind = np.array([_HEAD] + [_LINE] * (edges.shape[0] - 1) + [_TAIL]).reshape((-1,) + (1,) * (edges.ndim - 1))
    return _Panels(law, kind, np.concatenate([zero, edges[:-1], zero]),
                   np.concatenate([edges[:1], edges[1:], zero + 1.0]),
                   np.concatenate([zero, zero.repeat(edges.shape[0] - 1, axis=0), edges[-1:]]))


def _poisson_sum(f, mu, points, q: Quadrature):
    """Lattice sum over a window per element covering the pmf bulk and its break points.

    mu is the pmf's mean per element.  Past its peak a log-concave summand
    shrinks at least geometrically with the ratio of its last two terms; an
    element's window doubles until that tail bound meets the relative goal.
    Break points that are not finite, or lie past the largest window, are dropped.
    """
    log_mu, mean = np.log(mu)[..., None], mu[..., None]

    def terms(n):
        return f(n) * np.exp(n * log_mu - mean - gammaln(n + 1.0))

    top = mu + 10.0 * np.sqrt(mu) + 10.0
    if points is not None:
        top = np.maximum(top, np.max(np.where(np.isfinite(points) & (points < _MAX_LATTICE), points, -np.inf),
                                     axis=-1) + 10.0)
    stop, done = np.ceil(top) + 1.0, np.zeros(np.shape(top))
    total = mag = 0.0
    while True:
        fresh = done < stop
        first = int(np.min(done[fresh])) if np.any(fresh) else 0
        n = np.arange(first, int(np.max(stop, initial=first)), dtype=float)
        for idx in np.array_split(np.arange(n.size), max(1, n.size * np.size(total) // _MAX_TEMPORARY)):
            with np.errstate(invalid="ignore"):
                a = np.where((n[idx] >= done[..., None]) & (n[idx] < stop[..., None]), terms(n[idx]), 0.0)
            total, mag = total + a.sum(axis=-1), mag + np.abs(a).sum(axis=-1)
        prev, end = np.moveaxis(np.abs(terms(stop[..., None] - np.array([2.0, 1.0]))), -1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = end / prev
            tail = np.where(end == 0.0, 0.0, np.where(rho < 1.0, end * rho / (1.0 - rho), np.inf))
        grow = tail > REQUEST_MARGIN * q.rel_tol * (mag + UNDERFLOW)
        if not np.any(grow) or np.max(stop) > _MAX_LATTICE:
            return total, np.maximum(tail, 50.0 * _EPS * mag)  # as for the panels, a roundoff floor
        done, stop = stop, np.where(grow, 2.0 * stop, stop)


def integrate_levy(f: Callable, law: LevyLaw, t,
                   q: Quadrature = DEFAULT_QUADRATURE, points=None):
    """Integral of f(y) against the marginal law of X_t, for every element of f.

    f is called with an array y of nodes, nodes on the last axis, and must
    broadcast over leading observation axes: it returns one value per node
    and element.  The result has the elements' shape (a float when f has no
    leading axes).  The law time t is a float or an array with one time per
    element; it broadcasts over the elements like ``points``, which holds
    break points of the integrand, as for ``scipy.integrate.quad``: k per
    element on its last axis, or one scalar.  Callers pass the Gaussian
    factor's centre plus GAUSS_BREAKS times its standard deviation.

    Gamma integrals use a Gauss-Jacobi head that absorbs y^(t-1) at the
    origin, 7/15-point Gauss-Kronrod panels split at the break points and at
    the law's own bulk, and a mapped tail; panels are bisected until every
    element's error estimate is below a quarter of rel_tol times the
    integral of |f|.  Poisson integrals sum one lattice window that covers
    the pmf bulk and the break points, grown until a geometric tail bound
    meets the same goal.  Raises QuadratureError when an element's error
    estimate exceeds rel_tol * |value| + abs_tol.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("time must be positive")
    if points is not None:
        points = np.asarray(points, dtype=float)
        points = points.reshape(1) if points.ndim == 0 else points
    if law.kind == DEGENERATE:
        fy = np.asarray(f(np.zeros(1)), dtype=float)
        fy = np.broadcast_to(fy, np.broadcast_shapes(fy.shape, (1,)))[..., 0]
        return _result(np.broadcast_to(fy, np.broadcast_shapes(fy.shape, t.shape)))

    def goal(val, mag):
        return REQUEST_MARGIN * q.rel_tol * (mag + UNDERFLOW)

    if law.kind == GAMMA:
        val, err = _refine(f, _gamma_panels(_GammaMeasure(t), points), goal, q)
    elif law.kind == POISSON:
        val, err = _poisson_sum(f, law.rate * t, points, q)
    else:  # pragma: no cover
        raise ValueError(law.kind)
    _check(val, err, q, "levy integral")
    return _result(val)


def integrate_panels(f: Callable, breaks, abs_tol: float, rel_tol: float, args=()):
    """Integral of f(x, *args) over [breaks[0], breaks[-1]] by adaptive Gauss-Kronrod panels, for every element.

    ``args`` are arrays of per-element arguments that broadcast together;
    the result has their broadcast shape (a float when there are none).  f
    returns one value per node, and is called with nodes on the last axis
    and arguments with a trailing axis of length 1 that broadcast against
    them: first the first panels' nodes, which every element shares, with
    the whole arguments; then, for each round of bisection, only the panels
    still being refined, their nodes as rows of 15 and each argument at
    their elements as a column.  Every gap between consecutive break points
    starts as one panel; each element's panels are bisected, many per call
    of f, until its error estimate meets a quarter of
    rel_tol * |value| + abs_tol.  Raises QuadratureError above the full
    amount.
    """
    q = Quadrature(abs_tol, rel_tol)

    def goal(val, mag):
        return REQUEST_MARGIN * (rel_tol * np.abs(val) + abs_tol)

    def values(x, *a):  # one value per element and node, however few of them f's value depends on
        shape = np.broadcast_shapes(x.shape, *(b.shape for b in a))
        return np.broadcast_to(np.asarray(f(x, *a), dtype=float), shape)

    lo, hi = breaks[:-1], breaks[1:]
    args = tuple(np.asarray(a, dtype=float) for a in args)
    val, err = _refine(values, _Panels(None, np.full(lo.size, _LINE), lo, hi, 0.0 * lo), goal, q, args)
    _check(val, err, q, "panel integral")
    return _result(val)


def positive_part_integral(g: Callable, lo: float, hi: float, abs_tol: float, rel_tol: float,
                           points=()) -> float:
    """Integral of max(g, 0) over [lo, hi], for g that maps an array of points to values.

    Kinks are located by a 201-point scan in one call of g and polished by
    root finding; with the known kinks of g in ``points`` they become break
    points of the panel rule, every gap starting as four panels, which calls
    g as ``integrate_panels`` calls its integrand.
    """
    xs = np.linspace(lo, hi, 201)
    vals = np.broadcast_to(g(xs), xs.shape)
    change = np.flatnonzero((vals[:-1] != 0.0) & (vals[:-1] * vals[1:] < 0.0))
    kinks = [optimize.brentq(lambda x: float(g(x)), xs[i], xs[i + 1]) for i in change]
    breaks = np.unique([lo, *kinks, *(p for p in points if lo < p < hi), hi])
    grid = np.concatenate([np.linspace(a, b, 5)[:-1] for a, b in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])
    return integrate_panels(lambda x: np.maximum(g(x), 0.0), grid, abs_tol, rel_tol)


def power_gauss_integral(nu: float, beta: float, alpha: float,
                         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Integral over (0, inf) of y^(nu-1) exp(-beta y^2 - alpha y) dy, for nu, beta > 0.

    Equals (2 beta)^(-nu/2) Gamma(nu) exp(z^2 / 4) D_{-nu}(z), z = alpha / sqrt(2 beta).
    """
    if nu <= 0.0 or beta <= 0.0:
        raise ValueError("need nu > 0 and beta > 0")
    z = alpha / np.sqrt(2.0 * beta)
    return float(np.exp(parabolic_cylinder_log_D(-nu, z, q) + z * z / 4.0 + gammaln(nu)
                        - 0.5 * nu * np.log(2.0 * beta)))


def parabolic_cylinder_D(order: float, z: float,
                         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Parabolic cylinder function D_order(z) for order <= 0.

    For order = -nu < 0 the value is defined through the Gaussian-power
    integral identity at beta = 1/2,

        D_{-nu}(z) = exp(-z^2/4) / Gamma(nu) * integral y^(nu-1) exp(-y^2/2 - z y) dy,

    evaluated by adaptive quadrature.  Order 0 is the nu -> 0 limit
    exp(-z^2/4).  Positive orders are outside the identity regime.
    """
    if order > 0.0:
        raise ValueError("only orders <= 0 are supported (identity regime)")
    if order == 0.0:
        return float(np.exp(-z * z / 4.0))
    return float(np.exp(parabolic_cylinder_log_D(order, z, q)))


def parabolic_cylinder_log_D(order: float, z: float,
                             q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """log D_order(z) for order < 0; avoids under/overflow for large |z|.

    Quadrature of the integral identity (see parabolic_cylinder_D) with the
    integrand scaled by exp(-s), s = max(0, -z)^2 / 2 the peak of -y^2/2 - z y
    at y = -z, which becomes a break point; log of the integral = s + log(scaled).
    """
    if order >= 0.0:
        raise ValueError("log form needs order < 0")
    nu = -order
    peak = max(0.0, -z)
    shift = 0.5 * peak * peak

    def bulk(y):
        return np.exp(-0.5 * y * y - z * y - shift)

    ea = REQUEST_MARGIN * q.abs_tol
    er = REQUEST_MARGIN * q.rel_tol
    head, e1 = integrate.quad(bulk, 0.0, 1.0, weight="alg", wvar=(nu - 1.0, 0.0),
                              epsabs=ea, epsrel=er, limit=q.max_subdivisions)

    def tail_f(y):
        return np.exp((nu - 1.0) * np.log(y) - 0.5 * y * y - z * y - shift)

    # put the interior maximum inside a finite panel, as a break point of it
    top = 4.0 * max(1.0, peak) + 10.0
    mid, e2 = integrate.quad(tail_f, 1.0, top, points=[peak] if peak > 1.0 else None,
                             epsabs=ea, epsrel=er, limit=q.max_subdivisions)
    far, e3 = integrate.quad(tail_f, top, np.inf, epsabs=ea, epsrel=er, limit=q.max_subdivisions)
    val = head + mid + far
    if e1 + e2 + e3 > q.rel_tol * abs(val) + q.abs_tol:
        raise QuadratureError(f"power-Gauss integral error {e1 + e2 + e3:.3e} exceeds tolerance")
    return float(-z * z / 4.0 - gammaln(nu) + shift + np.log(val))
