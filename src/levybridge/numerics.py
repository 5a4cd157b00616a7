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
# the node of an unused slot in the node array of an integrand that holds its
# elements in its closure, with no mass: a point of the gamma law's support, so
# that an integrand of integrate_levy sees only points of its range
_REST = 1.0


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
        # each sum reduces one row against its entry's weights, whose bits then do not depend on the
        # other rows, as those of a BLAS matrix-vector product do
        w_hi, w_lo = np.tile(_GK_WK, (g.shape[0], 1)), np.tile(_GK_WG, (g.shape[0], 1))
        head = self.kind == _HEAD
        if np.any(head):
            w_hi[head], w_lo[head] = self.measure.w_hi[self.law[head]], self.measure.w_lo[self.law[head]]
        val, mag = np.einsum("ij,ij->i", g, w_hi), np.einsum("ij,ij->i", np.abs(g), w_hi)
        diff = np.abs(val - np.einsum("ij,ij->i", g, w_lo))
        # QUADPACK's scaling of the Kronrod-Gauss difference; a Jacobi head keeps the bare difference
        asc = np.einsum("ij,ij->i", np.abs(g - val[:, None] / 2.0), w_hi)
        scaled = (asc > 0.0) & ~head
        ratio = 200.0 * diff / np.where(scaled, asc, 1.0)
        err = np.where(scaled, asc * np.minimum(1.0, ratio * np.sqrt(ratio)), diff)
        self.val, self.err, self.mag = val, np.maximum(err, 50.0 * _EPS * mag), mag

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


def _evaluate(f, p: _Panels, shape: tuple, args=None) -> tuple[_Panels, tuple]:
    """Fill in the rule on every entry of p, with as few calls of f as the temporary cap allows.

    With ``args``, flat per-element arguments, f gets the entries' nodes as
    rows of 15 and each argument at their elements as a column.  Otherwise f
    holds its elements, of shape ``shape``, in its closure and gets one
    element-major node array of that shape plus a node axis: the nodes of
    each element's entries side by side, unused slots at ``_REST``.  Its
    output may broadcast the elements to a larger shape, as on the first
    round of integrate_levy, whose panels follow the law times and break
    points only; each entry then serves every element it broadcasts to.
    Returns the evaluated panels and the elements' shape.
    """
    y, mass = p.nodes()
    if args is not None:
        step = _MAX_TEMPORARY // 15
        fy = np.concatenate([f(y[i:i + step], *(a[p.elem[i:i + step], None] for a in args))
                             for i in range(0, y.shape[0], step)])
    else:
        # slot[e, j] is the entry in element e's j-th slot, -1 where unused
        count = np.bincount(p.elem, minlength=int(np.prod(shape, dtype=int)))
        order = np.argsort(p.elem, kind="stable")
        slot = np.full((count.size, count.max(initial=0)), -1)
        slot[p.elem[order], np.arange(order.size) - np.repeat(np.cumsum(count) - count, count)] = order
        at, elem, parts = [], [], []
        j, size = 0, count.size
        while j < slot.shape[1]:
            cols = slot[:, j:j + max(1, _MAX_TEMPORARY // (15 * size))]
            width = cols.shape[1]
            nodes = np.full(cols.shape + (15,), _REST)
            nodes[cols >= 0] = y[cols[cols >= 0]]
            out = np.asarray(f(nodes.reshape(shape + (15 * width,))), dtype=float)
            full = np.broadcast_shapes(out.shape, shape + (15 * width,))
            cols = np.broadcast_to(cols.reshape(shape + (width,)), full[:-1] + (width,)).ravel()
            used = np.flatnonzero(cols >= 0)
            at.append(cols[used])
            elem.append(used // width)
            parts.append(np.broadcast_to(out, full).reshape(-1, 15)[used])
            shape, size, j = full[:-1], cols.size // width, j + width
        at = np.concatenate(at)
        p, mass, fy = p.take(at), mass[at], np.concatenate(parts)
        p.elem = np.concatenate(elem)
    with np.errstate(invalid="ignore"):
        p.rule(np.where(mass > 0.0, fy * mass, 0.0))
    return p, shape


def _refine(f, p: _Panels, shape: tuple, goal, q: Quadrature, args=None):
    """Bisect panels until every element's error estimate meets goal(val, mag).

    An element that has not converged splits each of its panels holding more
    than its share of the goal; an element that splits nothing leaves the
    store with its result.  Each element's panels, and so its result, do not
    depend on the other elements.  With ``args``, per-element arguments of
    f, the first panels, which every element shares, go to f in one call
    with the arguments broadcast against their nodes, and the panels of
    later rounds as ``_evaluate`` passes them.  Returns value and error
    estimate per element.
    """
    if p.elem.size == 0:
        return np.zeros(shape), np.zeros(shape)
    first = f if args is None else lambda y: f(y, *(a[..., None] for a in args))
    p, shape = _evaluate(first, p, shape)
    n = int(np.prod(shape, dtype=int))
    if args is not None:
        args = tuple(np.broadcast_to(a, shape).ravel() for a in args)
    val, err = np.zeros(n), np.zeros(n)
    for round_ in range(_MAX_ROUNDS + 1):
        v, e, m = p.totals(n)
        target, count = goal(v, m), np.bincount(p.elem, minlength=n)
        need = (e > target) & (count < q.max_subdivisions) & (round_ < _MAX_ROUNDS)
        mark = need[p.elem] & (p.err > target[p.elem] / count[p.elem]) & p.divisible()
        stays = np.zeros(n, dtype=bool)
        stays[p.elem[mark]] = True
        leaves = (count > 0) & ~stays
        val[leaves], err[leaves] = v[leaves], e[leaves]
        if not np.any(mark):
            break
        fresh, _ = _evaluate(f, p.take(mark).halves(), shape, args)
        p = p.take(stays[p.elem] & ~mark).join(fresh)
    return val.reshape(shape), err.reshape(shape)


def _check(val, err, q: Quadrature, what: str) -> None:
    val, err = np.broadcast_arrays(val, err)
    bad = np.flatnonzero(~(err <= q.rel_tol * np.abs(val) + q.abs_tol))
    if bad.size:
        i = bad[0]
        raise QuadratureError(f"{what} error estimate {err.flat[i]:.3e} exceeds tolerance "
                              f"(value {val.flat[i]:.6e})")


def _result(val):
    return float(val) if np.ndim(val) == 0 else val


def _gamma_panels(t: np.ndarray, points) -> tuple[_Panels, tuple]:
    """Head, line panels between the sorted break points, and a mapped tail, per element of t and points.

    Where the caller's break points reach past the law's bulk, its end
    40 + 2a joins them, so that no panel spans the bulk unseen; break points
    that are not finite, or lie where the density underflows, are dropped.
    Returns the panels and the shape of their elements.
    """
    shape = t.shape if points is None else np.broadcast_shapes(t.shape, points.shape[:-1])
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
    panels = _Panels.live(_GammaMeasure(times), np.broadcast_to(law.reshape(t.shape), shape), kind,
                          np.concatenate([zero, edges[..., :-1], zero], axis=-1),
                          np.concatenate([edges, zero + 1.0], axis=-1),
                          np.concatenate([np.zeros_like(edges), edges[..., -1:]], axis=-1))
    return panels, shape


def _poisson_sum(f, mu, points, q: Quadrature):
    """Lattice sum over a window per element that starts at the pmf bulk and grows past the summand's peak.

    mu is the pmf's mean per element.  The summand, f times the pmf, is
    log-concave, so it has one peak, between the pmf bulk and the other
    factor's peak, which the break points surround.  An element's window
    doubles while its last term exceeds its predecessor (the log-term's
    first difference is still positive), and while it has seen only zeros,
    its pmf has not underflowed and it ends before the farthest finite break
    point.  Past the peak the terms shrink at least geometrically with the
    ratio of the last two, and the window doubles until that tail bound
    meets the relative goal.  So the window does not grow with the break
    points' distance unless it holds nothing but zeros, and not past the
    pmf's underflow even then, nor past ``_MAX_LATTICE``.  Sums add the
    sums of ``_BLOCK``-point blocks aligned to n = 0 in lattice order, so an
    element's bits do not depend on the other elements' windows.
    """
    log_mu, mean = np.log(mu)[..., None], mu[..., None]

    def pmf(n):
        return np.exp(n * log_mu - mean - gammaln(n + 1.0))

    def terms(n):
        return f(n) * pmf(n)

    def add_blocks(acc, a):
        blocks = a.reshape(a.shape[:-1] + (a.shape[-1] // _BLOCK, _BLOCK)).sum(axis=-1)
        acc = np.broadcast_to(acc, blocks.shape[:-1])[..., None]
        return np.cumsum(np.concatenate([acc, blocks], axis=-1), axis=-1)[..., -1]

    stop, done = np.asarray(np.ceil(mu + 10.0 * np.sqrt(mu) + 10.0) + 1.0), np.zeros(np.shape(mu))
    reach = -np.inf if points is None else np.max(np.where(np.isfinite(points), points, -np.inf), axis=-1)
    total = mag = np.zeros(np.shape(mu))
    while True:
        fresh = done < stop
        first = int(np.min(np.where(fresh, done, np.inf))) if np.any(fresh) else 0
        top = -(-int(np.max(stop, initial=first)) // _BLOCK) * _BLOCK
        step = _BLOCK * max(1, _MAX_TEMPORARY // (_BLOCK * np.size(total)))
        for lo in range(first // _BLOCK * _BLOCK, top, step):
            n = np.arange(lo, min(lo + step, top), dtype=float)
            with np.errstate(invalid="ignore"):
                a = np.where((n >= done[..., None]) & (n < stop[..., None]), terms(n), 0.0)
            total, mag = add_blocks(total, a), add_blocks(mag, np.abs(a))
        prev, end = np.moveaxis(np.abs(terms(stop[..., None] - np.array([2.0, 1.0]))), -1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = end / prev
            tail = np.where(end == 0.0, 0.0, np.where(rho < 1.0, end * rho / (1.0 - rho), np.inf))
        unseen = (mag == 0.0) & (stop < reach) & (pmf(stop[..., None] - 1.0)[..., 0] > 0.0)
        grow = ((tail > REQUEST_MARGIN * q.rel_tol * (mag + UNDERFLOW)) | unseen) & (stop <= _MAX_LATTICE)
        if not np.any(grow):
            return total, np.maximum(tail, 50.0 * _EPS * mag)  # as for the panels, a roundoff floor
        done, stop = stop, np.where(grow, 2.0 * stop, stop)


def integrate_levy(f: Callable, law: LevyLaw, t,
                   q: Quadrature = DEFAULT_QUADRATURE, points=None):
    """Integral of f(y) against the marginal law of X_t, for every element of f.

    f is called with an array y of nodes, nodes on the last axis, and must
    broadcast over leading element axes: it returns one value per node and
    element.  The result has the elements' shape (a float when f has no
    leading axes).  The law time t is a float or an array with one time per
    element; it broadcasts over the elements like ``points``, which holds
    break points of the integrand, as for ``scipy.integrate.quad``: k per
    element on its last axis, or one scalar.  Callers pass the Gaussian
    factor's centre plus GAUSS_BREAKS times its standard deviation.

    Gamma integrals use a Gauss-Jacobi head that absorbs y^(t-1) at the
    origin, 7/15-point Gauss-Kronrod panels split at the break points and at
    the law's own bulk, and a mapped tail.  The panels of every element live
    in one flat store of (element, panel) entries.  Each round bisects the
    panels of the elements whose error estimate is above a quarter of
    rel_tol times the integral of |f|, and an element leaves the store with
    its result once it has converged.  Each round calls f once (more only
    past a cap on the temporary) with a node array of the elements' shape:
    each element's new nodes side by side, and a point of the law's support,
    of no weight, in the slots an element does not use.  Poisson integrals
    sum a lattice window per element from the pmf bulk past the summand's
    peak, grown until a geometric tail bound meets the same goal.  Raises
    QuadratureError when an element's error estimate exceeds
    rel_tol * |value| + abs_tol.
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
        val, err = _refine(f, *_gamma_panels(t, points), goal, q)
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
    returns one value per node.  Every gap between consecutive break points
    starts as one panel, and the first call of f gets the nodes of these
    panels, which every element shares, on the last axis, with the whole
    arguments, each with a trailing axis of length 1.  The panels then live
    in one flat store of (element, panel) entries.  Each round bisects the
    panels of the elements whose error estimate is above a quarter of
    rel_tol * |value| + abs_tol, and calls f with the new entries' nodes as
    rows of 15 and each argument at their elements as a column; an element
    leaves the store with its result once it has converged.  Raises
    QuadratureError above the full amount.
    """
    q = Quadrature(abs_tol, rel_tol)

    def goal(val, mag):
        return REQUEST_MARGIN * (rel_tol * np.abs(val) + abs_tol)

    def values(x, *a):  # one value per element and node, however few of them f's value depends on
        shape = np.broadcast_shapes(x.shape, *(b.shape for b in a))
        return np.broadcast_to(np.asarray(f(x, *a), dtype=float), shape)

    lo, hi = breaks[:-1], breaks[1:]
    args = tuple(np.asarray(a, dtype=float) for a in args)
    val, err = _refine(values, _Panels.live(None, np.zeros(1, dtype=int), _LINE, lo, hi, 0.0), (), goal, q, args)
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
