"""Densities, quadrature against the noise laws, and the parabolic cylinder function."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

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
# every error estimate is at least this times the integral of |f|: a goal of REQUEST_MARGIN * rel_tol times it
# is out of reach below rel_tol = _ROUNDOFF / REQUEST_MARGIN, about 4.4e-14
_ROUNDOFF = 50.0 * _EPS
# elements of the largest node array handed to an integrand in one call
_MAX_TEMPORARY = 1 << 18
_MAX_ROUNDS = 60
_MAX_SUBDIVISIONS = 2000  # an element holding this many panels splits no more; QUADPACK's `limit` too
# integrals of |f| below this are resolved relative to it, not to themselves,
# as underflow takes their relative precision
UNDERFLOW = 1e-290
_MAX_LATTICE = 1 << 22
_ELEMENT_BLOCK = 1 << 11  # elements per engine call of a caller that splits them (in_blocks): bounds its store
_BLOCK = 16  # lattice points per block of a Poisson sum
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
    """The tolerance of every integral and series: error estimate <= rel_tol * |value| + abs_tol."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.abs_tol < np.inf and 0.0 < self.rel_tol < np.inf):  # a nan fails too
            raise ValueError("tolerances must be positive and finite")
        if self.rel_tol < _ROUNDOFF / REQUEST_MARGIN:  # no integral could meet it
            raise ValueError(f"rel_tol {self.rel_tol:.3g} is below the roundoff floor {_ROUNDOFF / REQUEST_MARGIN:.3g}")

    def scaled(self, factor: float) -> "Quadrature":
        return Quadrature(self.abs_tol * factor, self.rel_tol * factor)


DEFAULT_QUADRATURE = Quadrature()


def gauss_density(t: float, x, y=0.0):
    """Gaussian density with variance t and mean y at x, 0 where the square overflows; t may be an array."""
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("variance must be positive")
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(-(x - y) ** 2 / (2.0 * t)) / (_SQRT_2PI * np.sqrt(t))


def gamma_density(t: float, x):
    """Density of the standard gamma subordinator at time t (shape t, scale 1)."""
    if t <= 0.0:
        raise ValueError("shape must be positive")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp((t - 1.0) * np.log(x[pos]) - x[pos] - gammaln(t))
    return float(out) if out.ndim == 0 else out


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


@lru_cache(maxsize=32)
def _jacobi_rules(times: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8- and 7-point Gauss-Jacobi rules for the weight s^(a-1) on (0, 1), one row per law time a.

    ``times`` holds a sorted set of distinct law times.  Returns, with one
    row of 15 per time, the nodes of both rules side by side and, per rule,
    its weights (summing to 1) padded with zeros at the other rule's nodes.
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


class _GammaMeasure:
    """Standard gamma laws of the sorted distinct shapes a, with their head rules (``_jacobi_rules``)."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self.head_nodes, self.w_hi, self.w_lo = _jacobi_rules(a.tobytes())
        self.log_gamma, self.log_gamma_1 = gammaln(a), gammaln(a + 1.0)


class _Panels:
    """Live 15-node panels in equal-length flat arrays, one entry per (element, panel) pair.

    Entry i belongs to element ``elem[i]``, a flat index into the integral's
    elements, and has law time ``measure.a[law[i]]``.  A line panel
    integrates over [lo, hi] by the 7/15 Gauss-Kronrod pair; a head panel
    over [0, hi] by the Gauss-Jacobi pair of ``_jacobi_rules``; a tail panel
    over u in [lo, hi] by Gauss-Kronrod, with y = base + (1 + a) u / (1 - u).
    ``measure`` is the gamma measure, None for Lebesgue measure.  ``val``,
    ``err`` and ``mag`` hold each entry's rule once it is evaluated.
    """

    _FIELDS = ("elem", "law", "kind", "lo", "hi", "base", "val", "err", "mag")

    def __init__(self, measure, elem, law, kind, lo, hi, base, val=None, err=None, mag=None):
        self.measure = measure
        self.elem, self.law, self.kind, self.lo, self.hi, self.base = elem, law, kind, lo, hi, base
        self.val, self.err, self.mag = val, err, mag

    @classmethod
    def live(cls, measure, law, kind, lo, hi, base) -> "_Panels":
        """The nonempty panels of element-major arrays (elements..., panels), which broadcast together."""
        kind, lo, hi, base = np.broadcast_arrays(kind, lo, hi, base)
        at = np.flatnonzero((hi > lo) | (kind == _HEAD))
        elem = at // lo.shape[-1]
        return cls(measure, elem, law.ravel()[elem], *(x.ravel()[at] for x in (kind, lo, hi, base)))

    def _columns(self):
        return [getattr(self, k) for k in self._FIELDS]

    def take(self, at) -> "_Panels":
        return _Panels(self.measure, *(None if x is None else x[at] for x in self._columns()))

    def join(self, other: "_Panels") -> "_Panels":
        return _Panels(self.measure, *(np.concatenate(x) for x in zip(self._columns(), other._columns())))

    def halves(self) -> "_Panels":
        """Both halves of every panel; a head panel becomes a head and a line panel."""
        mid = (self.lo + self.hi) / 2.0
        upper = np.where(self.kind == _HEAD, _LINE, self.kind)
        return _Panels(self.measure, *(np.concatenate(x) for x in (
            (self.elem, self.elem), (self.law, self.law), (self.kind, upper),
            (self.lo, mid), (mid, self.hi), (self.base, self.base))))

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes y and node masses (measure density times Jacobian), one row of 15 per entry."""
        lo, hi = self.lo[:, None], self.hi[:, None]
        half = (hi - lo) / 2.0
        y = (hi + lo) / 2.0 + half * _GK_X
        m = self.measure
        if m is None:
            return y, np.broadcast_to(half, y.shape)
        tail, head = np.flatnonzero(self.kind == _TAIL), np.flatnonzero(self.kind == _HEAD)
        a = m.a[self.law][:, None]
        u = y[tail]
        scale = 1.0 + a[tail]
        y[tail] = self.base[tail, None] + scale * u / (1.0 - u)
        top, law = hi[head], self.law[head]
        y[head] = top * m.head_nodes[law]
        with np.errstate(divide="ignore", invalid="ignore"):  # head nodes: their mass is set below
            mass = half * np.exp((a - 1.0) * np.log(y) - y - m.log_gamma[self.law][:, None])
        mass[tail] *= scale / (1.0 - u) ** 2
        # the Jacobi weights carry y^(a-1); the head's mass is the rest of the density
        mass[head] = np.exp(a[head] * np.log(top) - m.log_gamma_1[law][:, None] - y[head])
        return y, mass

    def rule(self, g: np.ndarray) -> None:
        """Value, error estimate and integral of |f| per entry from g = f * node mass."""
        # every row is summed against the one Kronrod row, and head rows again against their Jacobi rows; a row's
        # sum, unlike one of a BLAS matrix-vector product, does not depend on the other rows
        val, mag, diff = _row_sums(g, _GK_WK[None], _GK_WG[None])
        # QUADPACK's scaling of the Kronrod-Gauss difference; a Jacobi head keeps the bare difference
        asc = np.einsum("ij,ij->i", np.abs(g - val[:, None] / 2.0), _GK_WK[None])
        head = self.kind == _HEAD
        if np.any(head):
            law = self.law[head]
            val[head], mag[head], diff[head] = _row_sums(g[head], self.measure.w_hi[law], self.measure.w_lo[law])
        scaled = (asc > 0.0) & ~head
        ratio = 200.0 * diff / np.where(scaled, asc, 1.0)
        err = np.where(scaled, asc * np.minimum(1.0, ratio * np.sqrt(ratio)), diff)
        self.val, self.err, self.mag = val, np.maximum(err, _ROUNDOFF * mag), mag

    def divisible(self) -> np.ndarray:
        """Whether the halves of each panel's interval would still have distinct nodes."""
        return self.hi - self.lo > 1024.0 * _EPS * np.maximum(np.abs(self.lo), np.abs(self.hi))

    def totals(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, error estimate and integral of |f| for each of n elements.

        bincount adds an element's entries one at a time in their order in the
        store, which only that element's own panels decide, so that a sum does
        not depend on the other elements.
        """
        return tuple(np.bincount(self.elem, x, minlength=n) for x in (self.val, self.err, self.mag))


def _row_sums(g: np.ndarray, w_hi, w_lo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of g: its sum against w_hi, that of |g|, and its distance from its sum against w_lo."""
    val = np.einsum("ij,ij->i", g, w_hi)
    return val, np.einsum("ij,ij->i", np.abs(g), w_hi), np.abs(val - np.einsum("ij,ij->i", g, w_lo))


class Nodes(NamedTuple):
    """An integrand's argument: rows of nodes, or one row shared by every element, and each row's element."""

    y: np.ndarray
    elem: np.ndarray


def _values(f, y: np.ndarray, elem: np.ndarray) -> np.ndarray:
    """f at Nodes(y, elem) as one row of values per element of elem; an output of another shape raises ValueError."""
    return np.broadcast_to(np.asarray(f(Nodes(y, elem)), dtype=float), (elem.size, y.shape[-1]))


def _evaluate(f, p: _Panels) -> _Panels:
    """Fill in the rule on every entry of p, with as few calls of f as the temporary cap allows.

    f gets the live entries' nodes as ``Nodes``: one row of 15 per entry,
    and the entry's element, at most ``_MAX_TEMPORARY`` nodes per call.
    """
    y, mass = p.nodes()
    step = _MAX_TEMPORARY // 15
    fy = np.concatenate([_values(f, y[i:i + step], p.elem[i:i + step]) for i in range(0, y.shape[0], step)])
    with np.errstate(invalid="ignore"):
        p.rule(np.where(mass > 0.0, fy * mass, 0.0))
    return p


def _refine(f, p: _Panels, shape: tuple, goal):
    """Bisect panels until every element's error estimate meets goal(val, mag).

    p holds every element's first panels, each element of ``shape`` its own.
    An element that has not converged splits each of its panels holding more
    than its share of the goal; an element that splits nothing leaves the
    store with its result.  Each element's panels, and so its result, do not
    depend on the other elements.  Every round, the first included, goes to
    f as ``_evaluate`` passes it.  Returns value and error estimate per element.
    """
    if p.elem.size == 0:
        return np.zeros(shape), np.zeros(shape)
    p = _evaluate(f, p)
    n = math.prod(shape)
    val, err = np.zeros(n), np.zeros(n)
    for round_ in range(_MAX_ROUNDS + 1):
        v, e, m = p.totals(n)
        target, count = goal(v, m), np.bincount(p.elem, minlength=n)
        need = (e > target) & (count < _MAX_SUBDIVISIONS) & (round_ < _MAX_ROUNDS)
        mark = need[p.elem] & (p.err > target[p.elem] / count[p.elem]) & p.divisible()
        stays = np.zeros(n, dtype=bool)
        stays[p.elem[mark]] = True
        leaves = (count > 0) & ~stays
        val[leaves], err[leaves] = v[leaves], e[leaves]
        if not np.any(mark):
            break
        p = p.take(stays[p.elem] & ~mark).join(_evaluate(f, p.take(mark).halves()))
    return val.reshape(shape), err.reshape(shape)


def _check(val, err, q: Quadrature, what: str) -> None:
    ok = np.isfinite(val) & (err <= q.rel_tol * np.abs(val) + q.abs_tol)
    if not np.all(ok):
        v, e = (np.broadcast_to(a, ok.shape).flat[np.argmin(ok)] for a in (val, err))
        raise QuadratureError(f"{what} error estimate {e:.3e} exceeds tolerance (value {v:.6e})" if np.isfinite(v)
                              else f"{what} value {v} is not finite")


def _result(val):
    return float(val) if np.ndim(val) == 0 else val


def _gamma_panels(t: np.ndarray, points, shape: tuple) -> _Panels:
    """Head, line panels between the sorted break points, and a mapped tail, per element of shape.

    Where the caller's break points reach past the law's bulk, its end
    40 + 2a joins them, so that no panel spans the bulk unseen; break points
    that are not finite, or lie where the density underflows, are dropped.
    """
    times, law = np.unique(t, return_inverse=True)
    a = np.broadcast_to(t, shape)[..., None]
    if points is None:
        edges = np.concatenate([np.ones_like(a), 1.0 + a], axis=-1)
    else:
        pts = np.where(np.isfinite(points) & (points < _GAMMA_UNDERFLOW + 2.0 * a), points, -np.inf)
        low = np.min(pts, axis=-1, keepdims=True)
        head = np.where(low > 0.0, np.minimum(1.0, low / 2.0), 1.0)
        end = _GAMMA_BULK_END + 2.0 * a
        reach = np.where(np.max(pts, axis=-1, keepdims=True) > end, end, -np.inf)
        pts = np.sort(np.concatenate([pts, reach], axis=-1), axis=-1)
        edges = np.concatenate([head, np.maximum(pts, head)], axis=-1)
    zero = np.zeros_like(edges[..., :1])
    kind = np.array([_HEAD] + [_LINE] * (edges.shape[-1] - 1) + [_TAIL])
    return _Panels.live(_GammaMeasure(times), np.broadcast_to(law.reshape(t.shape), shape), kind,
                        np.concatenate([zero, edges[..., :-1], zero], axis=-1),
                        np.concatenate([edges, zero + 1.0], axis=-1),
                        np.concatenate([np.zeros_like(edges), edges[..., -1:]], axis=-1))


def _poisson_sum(f, mu, shape: tuple, points, goal):
    """Lattice sum over a window per element that starts at the pmf bulk and grows past the summand's peak.

    The elements have shape ``shape``; mu, the pmf's mean, broadcasts to it.
    The summand, f times the pmf, is log-concave, so it has one peak,
    between the pmf bulk and the other factor's peak, which the break points
    surround.  An element's window doubles while its last term exceeds its
    predecessor (the log-term's first difference is still positive), and
    while it has seen only zeros, its pmf has not underflowed and it ends
    before the farthest finite break point.  Past the peak the terms shrink
    at least geometrically with the ratio of the last two, and the window
    doubles until that tail bound meets goal(sum, sum of |terms|).  So it
    does not grow with the break points' distance unless it holds nothing
    but zeros, and not past the pmf's underflow even then, nor past
    ``_MAX_LATTICE``.  Sums add the sums of ``_BLOCK``-point blocks aligned
    to n = 0 in lattice order, so an element's bits do not depend on the
    other elements' windows.
    """
    log_mu, mean, elem = np.log(mu)[..., None], mu[..., None], np.arange(math.prod(shape))

    def pmf(n):
        return np.exp(n * log_mu - mean - gammaln(n + 1.0))

    def terms(n):  # n is a lattice row shared by every element, or one row per element
        rows = n if n.ndim == 1 else n.reshape(-1, n.shape[-1])
        return _values(f, rows, elem).reshape(shape + n.shape[-1:]) * pmf(n)

    def add_blocks(acc, a):
        blocks = a.reshape(a.shape[:-1] + (a.shape[-1] // _BLOCK, _BLOCK)).sum(axis=-1)
        return np.cumsum(np.concatenate([acc[..., None], blocks], axis=-1), axis=-1)[..., -1]

    stop, done = np.broadcast_to(np.ceil(mu + 10.0 * np.sqrt(mu) + 10.0) + 1.0, shape), np.zeros(shape)
    reach = -np.inf if points is None else np.max(np.where(np.isfinite(points), points, -np.inf), axis=-1)
    total = mag = np.zeros(shape)
    step = _BLOCK * max(1, _MAX_TEMPORARY // (_BLOCK * max(1, total.size)))
    while True:
        fresh = done < stop
        first = int(np.min(np.where(fresh, done, np.inf))) if np.any(fresh) else 0
        top = -(-int(np.max(stop, initial=first)) // _BLOCK) * _BLOCK
        for lo in range(first // _BLOCK * _BLOCK, top, step):
            n = np.arange(lo, min(lo + step, top), dtype=float)
            with np.errstate(invalid="ignore"):
                a = np.where((n >= done[..., None]) & (n < stop[..., None]), terms(n), 0.0)
            total, mag = add_blocks(total, a), add_blocks(mag, np.abs(a))
        last = np.abs(terms(stop[..., None] - np.array([2.0, 1.0])))
        prev, end = last[..., 0], last[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = end / prev
            tail = np.where(end == 0.0, 0.0, np.where(rho < 1.0, end * rho / (1.0 - rho), np.inf))
        unseen = (mag == 0.0) & (stop < reach) & (pmf(stop[..., None] - 1.0)[..., 0] > 0.0)
        grow = ((tail > goal(total, mag)) | unseen) & (stop <= _MAX_LATTICE)
        if not np.any(grow):
            return total, np.maximum(tail, _ROUNDOFF * mag)  # as for the panels
        done, stop = stop, np.where(grow, 2.0 * stop, stop)


def integrate_levy(f: Callable, law: LevyLaw, t,
                   q: Quadrature = DEFAULT_QUADRATURE, points=None):
    """Integral of f against the marginal law of X_t, for every element.

    The elements are t and ``points`` without its last axis, broadcast
    together; they are fixed before f is first called.  The law time t is a
    float or an array of times.  ``points`` holds break points of the
    integrand, as for ``scipy.integrate.quad``: k per element on its last
    axis, or one scalar.  Callers pass the Gaussian factor's centre plus
    GAUSS_BREAKS times its standard deviation.  f gets one argument,
    ``Nodes(y, elem)``, with only the nodes still needed: one row of 15 per
    live (element, panel) entry under the gamma law; under the Poisson law
    a lattice row shared by every element, or one row per element; the one
    node 0 under the point law.  ``elem`` is each row's flat element index,
    or every element in order for a shared row.  An integrand that depends
    on its element reads its own flat per-element arrays at ``elem``, as
    ``lambda n: factor(v[n.elem], shift[n.elem] - k * n.y)`` with v and
    shift columns.  f returns one value per node of each row, or a value
    that broadcasts to that; any other shape raises ValueError.  The result
    has the elements' shape (a float when there are none).

    Gamma integrals use a Gauss-Jacobi head that absorbs y^(t-1) at the
    origin, 7/15-point Gauss-Kronrod panels split at the break points and at
    the law's own bulk, and a mapped tail.  The panels of every element live
    in one flat store of (element, panel) entries.  Each round bisects the
    panels of the elements whose error estimate is above the goal, a quarter
    of q.rel_tol times the integral of |f| down to underflow, and an element
    leaves the store with its result once it has converged.  Where the
    caller's abs_tol is below about q.rel_tol * 1e-290, the goal is instead
    a quarter of the bound the result is checked against.  Each round
    calls f once (more only past a cap on the temporary) with the rows of
    the panels it evaluates.  Poisson integrals sum a lattice window per
    element from the pmf bulk past the summand's peak, grown until a
    geometric tail bound meets the same goal.  Raises QuadratureError when
    an element's value is not finite or its error estimate exceeds
    q.rel_tol * |value| + q.abs_tol.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & (t < np.inf)):
        raise ValueError("time must be positive and finite")
    if points is not None:
        points = np.asarray(points, dtype=float)
        points = points.reshape(1) if points.ndim == 0 else points
    shape = t.shape if points is None else np.broadcast_shapes(t.shape, points.shape[:-1])

    def goal(val, mag):
        return REQUEST_MARGIN * np.minimum(q.rel_tol * (mag + UNDERFLOW), q.rel_tol * np.abs(val) + q.abs_tol)

    if law.kind == DEGENERATE:
        val, err = _values(f, np.zeros(1), np.arange(math.prod(shape))).reshape(shape), 0.0
    elif law.kind == GAMMA:
        val, err = _refine(f, _gamma_panels(t, points, shape), shape, goal)
    elif law.kind == POISSON:
        val, err = _poisson_sum(f, law.rate * t, shape, points, goal)
    else:  # pragma: no cover
        raise ValueError(law.kind)
    _check(val, err, q, "levy integral")
    return _result(val)


def integrate_panels(f: Callable, breaks, q: Quadrature, args=()):
    """Integral of f(x, *args) over [breaks[0], breaks[-1]] by adaptive Gauss-Kronrod panels, for every element.

    ``args`` are arrays of per-element arguments that broadcast together;
    they are the elements, and the result has their broadcast shape (a float
    when there are none).  f returns one value per node.  Every element
    starts with one panel per gap between consecutive break points, and the
    panels live in one flat store of (element, panel) entries.  Each round,
    the first included, calls f with the live entries' nodes as rows of 15
    and each argument at their elements as a column, then bisects the panels of
    the elements whose error estimate is above the goal, a quarter of
    q.rel_tol * |value| + q.abs_tol; an element leaves the store with its
    result once it has converged.  Raises QuadratureError where a value is
    not finite or its estimate exceeds the full amount, and ValueError
    unless the break points are finite and ascend.
    """
    breaks = np.asarray(breaks, dtype=float)
    if not (np.all(np.isfinite(breaks)) and np.all(np.diff(breaks) >= 0.0)):
        raise ValueError("break points must be finite and must not decrease")

    def goal(val, mag):
        return REQUEST_MARGIN * (q.rel_tol * np.abs(val) + q.abs_tol)

    args = tuple(np.asarray(a, dtype=float) for a in args)
    shape = np.broadcast_shapes(*(a.shape for a in args))
    flat = tuple(np.broadcast_to(a, shape).ravel() for a in args)

    def values(n):  # each argument at the rows' elements, as a column
        return f(n.y, *(a[n.elem, None] for a in flat))

    lo, hi = (np.broadcast_to(b, shape + b.shape) for b in (breaks[:-1], breaks[1:]))
    panels = _Panels.live(None, np.zeros(shape, dtype=int), _LINE, lo, hi, 0.0)
    val, err = _refine(values, panels, shape, goal)
    _check(val, err, q, "panel integral")
    return _result(val)


def in_blocks(fn: Callable, n: int) -> np.ndarray:
    """fn(b) over consecutive slices b of at most _ELEMENT_BLOCK of n elements (one empty if n is 0), joined."""
    return np.concatenate([fn(slice(i, i + _ELEMENT_BLOCK)) for i in range(0, max(n, 1), _ELEMENT_BLOCK)])


def positive_intervals(g: Callable, lo: float, hi: float, step: float, points=()) -> np.ndarray:
    """The intervals (a, b] of [lo, hi] where g > 0, as rows (a, b); g maps an array of points to values.

    g is scanned on an even grid of spacing at most ``step`` and at least
    201 points, plus the ``points`` inside (lo, hi), in calls of at most
    2048 points (``in_blocks``).  Each sign change between neighbouring
    nonzero scan values is polished by root finding, which reads g at its
    bracket ends from the scan, equal to g's scalar calls there; each piece
    between the roots has the sign of its nonzero scan values.  Two sign changes between
    neighbouring scan points are not seen, so ``step`` must resolve g.
    """
    n = max(201, int(np.ceil((hi - lo) / step)) + 1)
    xs = np.union1d(np.linspace(lo, hi, n), [p for p in points if lo < p < hi])
    vals = in_blocks(lambda b: np.broadcast_to(g(xs[b]), xs[b].shape), xs.size)
    nonzero = np.flatnonzero(vals)
    # signs, not products: the product of two finite values can overflow
    sign = np.sign(vals[nonzero]) if nonzero.size else np.zeros(1)
    flip = np.flatnonzero(sign[1:] != sign[:-1])
    scanned = dict(zip(xs[nonzero].tolist(), vals[nonzero].tolist()))

    def g_at(x: float) -> float:
        return scanned[x] if x in scanned else float(g(x))

    roots = [optimize.brentq(g_at, xs[nonzero[i]], xs[nonzero[i + 1]]) for i in flip]
    cuts, up = np.array([lo, *roots, hi]), sign[np.concatenate([[0], flip + 1])] > 0.0
    return np.stack([cuts[:-1][up], cuts[1:][up]], axis=-1)


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

    tol = dict(epsabs=REQUEST_MARGIN * q.abs_tol, epsrel=REQUEST_MARGIN * q.rel_tol, limit=_MAX_SUBDIVISIONS)
    head, e1 = integrate.quad(bulk, 0.0, 1.0, weight="alg", wvar=(nu - 1.0, 0.0), **tol)

    def tail_f(y):
        return np.exp((nu - 1.0) * np.log(y) - 0.5 * y * y - z * y - shift)

    # put the interior maximum inside a finite panel, as a break point of it
    top = 4.0 * max(1.0, peak) + 10.0
    mid, e2 = integrate.quad(tail_f, 1.0, top, points=[peak] if peak > 1.0 else None, **tol)
    far, e3 = integrate.quad(tail_f, top, np.inf, **tol)
    val = head + mid + far
    _check(val, e1 + e2 + e3, q, "power-Gauss integral")
    return float(-z * z / 4.0 - gammaln(nu) + shift + np.log(val))
