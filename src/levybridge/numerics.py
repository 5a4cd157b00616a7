"""Densities, quadrature against the noise laws, and the parabolic cylinder function."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate, optimize
from scipy.linalg.lapack import dstev
from scipy.special import gammaln

from .laws import (DEGENERATE, GAMMA, POISSON, REQUEST_MARGIN, LevyLaw,
                   QuadratureError)

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_EPS = np.finfo(float).eps
# elements of the largest node array handed to an integrand in one call
_MAX_TEMPORARY = 1 << 18
_MAX_ROUNDS = 60
# integrals of |f| below this are resolved relative to it, not to themselves,
# as underflow takes their relative precision
_UNDERFLOW = 1e-290
_MAX_LATTICE = 1 << 22

# break points, in standard deviations from its centre, that resolve a
# Gaussian factor of an integrand (see ``integrate_levy``)
GAUSS_BREAKS = np.array([-9.0, -6.0, -3.5, -1.5, 0.0, 1.5, 3.5, 6.0, 9.0])


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
    """Gaussian density with variance t and mean y, evaluated at x."""
    if t <= 0.0:
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


@lru_cache(maxsize=64)
def _jacobi_head(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8- and 7-point Gauss-Jacobi rules for the weight s^(a-1) on (0, 1).

    Returns the 15 nodes of both rules side by side and, per rule, its
    weights (summing to 1) padded with zeros at the other rule's nodes.
    Golub-Welsch on the Jacobi recurrence with alpha = 0, beta = a - 1
    (LAPACK's tridiagonal eigensolver, called directly for its low overhead).
    """
    beta = a - 1.0
    nodes, weights = [], []
    for n in (8, 7):
        k = np.arange(1, n, dtype=float)
        s = 2.0 * k + beta
        diag = np.empty(n)
        diag[0] = beta / (beta + 2.0)
        diag[1:] = beta * beta / (s * (s + 2.0))
        off = np.sqrt(4.0 * k * k * (k + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
        x, vec, _ = dstev(diag, off)
        nodes.append((1.0 + x) / 2.0)
        weights.append(vec[0] ** 2 / np.sum(vec[0] ** 2))
    s = np.concatenate(nodes)
    w_hi = np.concatenate([weights[0], np.zeros(7)])
    w_lo = np.concatenate([np.zeros(8), weights[1]])
    for arr in (s, w_hi, w_lo):
        arr.setflags(write=False)
    return s, w_hi, w_lo


class _Panels:
    """Rows of 15-node panels; each row holds one interval per element.

    ``kind`` has one entry per row; ``lo``, ``hi`` and ``base`` have shape
    (rows, *elements).  A line panel integrates over [lo, hi] by the 7/15
    Gauss-Kronrod pair; a head panel over [0, hi] by the Gauss-Jacobi pair of
    ``_jacobi_head``; a tail panel over u in [lo, hi] by Gauss-Kronrod, with
    y = base + (1 + a) u / (1 - u).  ``a`` is the gamma shape of the measure,
    None for Lebesgue measure.
    """

    def __init__(self, a, kind, lo, hi, base):
        self.a, self.kind, self.lo, self.hi, self.base = a, kind, lo, hi, base
        self.val = self.err = self.mag = None

    def nodes(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Nodes y and node masses (measure density times Jacobian) of the rows, shape (rows, *elements, 15)."""
        lo, hi = self.lo[rows, ..., None], self.hi[rows, ..., None]
        half = (hi - lo) / 2.0
        y = (hi + lo) / 2.0 + half * _GK_X
        if self.a is None:
            return y, np.broadcast_to(half, y.shape)
        jac = half
        shape = (-1,) + (1,) * (y.ndim - 1)
        tail = (self.kind[rows] == _TAIL).reshape(shape)
        if np.any(tail):
            scale = 1.0 + self.a
            rest = np.where(tail, 1.0 - y, 1.0)
            y = np.where(tail, self.base[rows, ..., None] + scale * y / rest, y)
            jac = np.where(tail, half * scale / rest ** 2, half)
        head = (self.kind[rows] == _HEAD).reshape(shape)
        if np.any(head):
            y = np.where(head, hi * _jacobi_head(self.a)[0], y)
        mass = jac * np.exp((self.a - 1.0) * np.log(y) - y - gammaln(self.a))
        if np.any(head):
            # the Jacobi weights carry y^(a-1); the head's mass is the rest of the density
            mass = np.where(head, np.exp(self.a * np.log(np.where(head, hi, 1.0)) - gammaln(self.a + 1.0) - y), mass)
        return y, mass

    def rule(self, g: np.ndarray) -> None:
        """Value, error estimate and integral of |f| per row from g = f * node mass."""
        val = g @ _GK_WK
        diff = np.abs(val - g @ _GK_WG)
        mag = np.abs(g) @ _GK_WK
        # QUADPACK's scaling of the Kronrod-Gauss difference
        asc = np.abs(g - val[..., None] / 2.0) @ _GK_WK
        ratio = 200.0 * diff / np.where(asc > 0.0, asc, 1.0)
        err = np.where(asc > 0.0, asc * np.minimum(1.0, ratio * np.sqrt(ratio)), diff)
        head = self.kind == _HEAD
        if np.any(head):
            _, w_hi, w_lo = _jacobi_head(self.a)
            gh = g[head]
            val[head], mag[head] = gh @ w_hi, np.abs(gh) @ w_hi
            err[head] = np.abs(val[head] - gh @ w_lo)
        self.val, self.err, self.mag = val, np.maximum(err, 50.0 * _EPS * mag), mag

    def select(self, rows: np.ndarray) -> "_Panels":
        out = _Panels(self.a, self.kind[rows], self.lo[rows], self.hi[rows], self.base[rows])
        out.val, out.err, out.mag = self.val[rows], self.err[rows], self.mag[rows]
        return out

    def active(self) -> np.ndarray:
        """Whether each row has a nonempty interval, per element."""
        return (self.hi > self.lo) | (self.kind == _HEAD).reshape((-1,) + (1,) * (self.lo.ndim - 1))

    def split(self, mark: np.ndarray) -> "_Panels":
        """Halves of the rows marked, shape (rows, *elements), for some element.

        A head row becomes a head and a line panel.  An element that did not
        mark the row keeps its interval whole in one half and an empty
        interval in the other, so its panels never depend on other elements.
        """
        rows = np.any(mark.reshape(mark.shape[0], -1), axis=1)
        kind, lo, hi, base = self.kind[rows], self.lo[rows], self.hi[rows], self.base[rows]
        head = (kind == _HEAD).reshape((-1,) + (1,) * (lo.ndim - 1))
        mid = np.where(mark[rows], (lo + hi) / 2.0, np.where(head, hi, lo))
        return _Panels(self.a, np.concatenate([kind, np.where(kind == _HEAD, _LINE, kind)]),
                       np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([base, base]))

    def join(self, other: "_Panels") -> "_Panels":
        out = _Panels(self.a, *(np.concatenate([getattr(self, k), getattr(other, k)])
                                for k in ("kind", "lo", "hi", "base")))
        out.val, out.err, out.mag = (np.concatenate([getattr(self, k), getattr(other, k)])
                                     for k in ("val", "err", "mag"))
        return out

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, error estimate and integral of |f| per element, summed in sorted order.

        Sorting makes a sum independent of the empty rows and of the row order.
        """
        return tuple(np.sort(x, axis=0).sum(axis=0) for x in (self.val, self.err, self.mag))


def _evaluate(f, p: _Panels, size: int) -> int:
    """Fill in the rule on every row of p, with as few calls of f as the temporary cap allows.

    Rows go side by side on f's node axis.  ``size`` is the element count
    known so far; the element count of f's output is returned.
    """
    parts = []
    step = max(1, _MAX_TEMPORARY // (15 * size))
    for i in range(0, p.kind.size, step):
        y, mass = p.nodes(slice(i, i + step))
        nodes = y.reshape(-1) if y.ndim == 2 else np.moveaxis(y, 0, -2).reshape(y.shape[1:-1] + (-1,))
        fy = np.asarray(f(nodes), dtype=float)
        if fy.ndim == 1:
            fy = fy.reshape(-1, 15)
        elif fy.ndim:
            fy = np.moveaxis(fy.reshape(fy.shape[:-1] + (-1, 15)), -2, 0)
            # element axes of f's output that the nodes do not carry
            mass = mass.reshape(mass.shape[:1] + (1,) * (fy.ndim - mass.ndim) + mass.shape[1:])
        with np.errstate(invalid="ignore"):
            parts.append(np.where(mass > 0.0, fy * mass, 0.0))
        size = max(size, int(np.prod(parts[-1].shape[1:-1], dtype=int)))
        step = max(1, _MAX_TEMPORARY // (15 * size))
    if len(parts) > 1:
        shape = np.broadcast_shapes(*(g.shape[1:] for g in parts))
        parts = [np.concatenate([np.broadcast_to(g, g.shape[:1] + shape) for g in parts])]
    p.rule(parts[0])
    return size


def _refine(f, p: _Panels, goal, q: Quadrature):
    """Bisect panels until every element's error estimate meets goal(val, mag).

    An element that has not converged splits each of its panels holding more
    than its share of the goal; each element's panels, and so its result,
    do not depend on the other elements.  Returns value and error estimate
    per element.
    """
    size = _evaluate(f, p, int(np.prod(p.lo.shape[1:], dtype=int)))
    shape = p.val.shape
    p.lo, p.hi, p.base = (np.broadcast_to(x, shape) for x in (p.lo, p.hi, p.base))
    for _ in range(_MAX_ROUNDS):
        val, err, mag = p.totals()
        target = goal(val, mag)
        count = p.active().sum(axis=0)
        need = (err > target) & (count < q.max_subdivisions)
        if not np.any(need):
            break
        mark = need & (p.err > target / count)
        fresh = p.split(mark)
        size = _evaluate(f, fresh, size)
        keep = np.any((p.active() & ~mark).reshape(p.kind.size, -1), axis=1)
        p = p.select(keep & ~np.any(mark.reshape(p.kind.size, -1), axis=1)).join(fresh)
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


def _gamma_panels(a: float, points) -> _Panels:
    """Head, line panels between the sorted break points, and a mapped tail."""
    if points is None:
        edges = np.array([1.0, 1.0 + a])
    else:
        pts = np.sort(points, axis=-1)
        head = np.where(pts[..., 0] > 0.0, np.minimum(1.0, pts[..., 0] / 2.0), 1.0)
        edges = np.concatenate([head[None], np.maximum(np.moveaxis(pts, -1, 0), head)])
    zero = np.zeros_like(edges[:1])
    kind = np.array([_HEAD] + [_LINE] * (edges.shape[0] - 1) + [_TAIL])
    return _Panels(a, kind, np.concatenate([zero, edges[:-1], zero]),
                   np.concatenate([edges[:1], edges[1:], zero + 1.0]),
                   np.concatenate([zero, zero.repeat(edges.shape[0] - 1, axis=0), edges[-1:]]))


def _poisson_sum(f, mu: float, points, q: Quadrature):
    """Lattice sum over a window per element covering the pmf bulk and its break points.

    Past its peak a log-concave summand shrinks at least geometrically with
    the ratio of its last two terms; an element's window doubles until that
    tail bound meets the relative goal.
    """
    def terms(n):
        return f(n) * np.exp(n * np.log(mu) - mu - gammaln(n + 1.0))

    top = mu + 10.0 * np.sqrt(mu) + 10.0
    if points is not None:
        top = np.maximum(top, np.max(points, axis=-1) + 10.0)
    stop, done = np.ceil(top) + 1.0, np.zeros(np.shape(top))
    total = mag = 0.0
    while True:
        first = int(np.min(np.where(done < stop, done, np.inf)))
        n = np.arange(first, int(np.max(stop)), dtype=float)
        for idx in np.array_split(np.arange(n.size), max(1, n.size * np.size(total) // _MAX_TEMPORARY)):
            with np.errstate(invalid="ignore"):
                a = np.where((n[idx] >= done[..., None]) & (n[idx] < stop[..., None]), terms(n[idx]), 0.0)
            total, mag = total + a.sum(axis=-1), mag + np.abs(a).sum(axis=-1)
        prev, end = np.moveaxis(np.abs(terms(stop[..., None] - np.array([2.0, 1.0]))), -1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = end / prev
            tail = np.where(end == 0.0, 0.0, np.where(rho < 1.0, end * rho / (1.0 - rho), np.inf))
        grow = tail > REQUEST_MARGIN * q.rel_tol * (mag + _UNDERFLOW)
        if not np.any(grow) or np.max(stop) > _MAX_LATTICE:
            return total, np.maximum(tail, 50.0 * _EPS * mag)  # as for the panels, a roundoff floor
        done, stop = stop, np.where(grow, 2.0 * stop, stop)


def integrate_levy(f: Callable, law: LevyLaw, t: float,
                   q: Quadrature = DEFAULT_QUADRATURE, points=None):
    """Integral of f(y) against the marginal law of X_t, for every element of f.

    f is called with an array y of nodes, nodes on the last axis, and must
    broadcast over leading observation axes: it returns one value per node
    and element.  The result has the elements' shape (a float when f has no
    leading axes).  ``points`` holds break points of the integrand, as for
    ``scipy.integrate.quad``: k per element on its last axis, or one
    scalar.  Callers pass the Gaussian factor's centre plus GAUSS_BREAKS
    times its standard deviation.

    Gamma integrals use a Gauss-Jacobi head that absorbs y^(t-1) at the
    origin, 7/15-point Gauss-Kronrod panels split at the break points and a
    mapped tail; panels are bisected until every element's error estimate
    is below a quarter of rel_tol times the integral of |f|.  Poisson
    integrals sum one lattice window that covers the pmf bulk and the break
    points, grown until a geometric tail bound meets the same goal.
    Raises QuadratureError when an element's error estimate exceeds
    rel_tol * |value| + abs_tol.
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    if points is not None:
        points = np.asarray(points, dtype=float)
        points = points.reshape(1) if points.ndim == 0 else points
    if law.kind == DEGENERATE:
        fy = np.asarray(f(np.zeros(1)), dtype=float)
        return _result(np.broadcast_to(fy, np.broadcast_shapes(fy.shape, (1,)))[..., 0])

    def goal(val, mag):
        return REQUEST_MARGIN * q.rel_tol * (mag + _UNDERFLOW)

    if law.kind == GAMMA:
        val, err = _refine(f, _gamma_panels(t, points), goal, q)
    elif law.kind == POISSON:
        val, err = _poisson_sum(f, law.rate * t, points, q)
    else:  # pragma: no cover
        raise ValueError(law.kind)
    _check(val, err, q, "levy integral")
    return _result(val)


def _integrate_panels(f: Callable, breaks, abs_tol: float, rel_tol: float) -> float:
    """Integral of f over [breaks[0], breaks[-1]] by adaptive Gauss-Kronrod panels.

    f maps a 1-d array of nodes to their values.  Every gap between
    consecutive break points starts as four panels; panels are bisected,
    many per call of f, until the error estimate meets a quarter of
    rel_tol * |value| + abs_tol.  Raises QuadratureError above the full amount.
    """
    grid = np.concatenate([np.linspace(a, b, 5)[:-1] for a, b in zip(breaks[:-1], breaks[1:])] + [breaks[-1:]])
    q = Quadrature(abs_tol, rel_tol)

    def goal(val, mag):
        return REQUEST_MARGIN * (rel_tol * np.abs(val) + abs_tol)

    lo, hi = grid[:-1], grid[1:]
    val, err = _refine(f, _Panels(None, np.full(lo.size, _LINE), lo, hi, 0.0 * lo), goal, q)
    _check(val, err, q, "panel integral")
    return float(val)


def positive_part_integral(g: Callable, lo: float, hi: float, abs_tol: float, rel_tol: float) -> float:
    """Integral of max(g, 0) over [lo, hi], for g that maps an array of points to values.

    Kinks are located by a 201-point scan in one call of g, polished by root
    finding, and become break points of the panel rule.
    """
    xs = np.linspace(lo, hi, 201)
    vals = np.broadcast_to(g(xs), xs.shape)
    change = np.flatnonzero((vals[:-1] != 0.0) & (vals[:-1] * vals[1:] < 0.0))
    kinks = [optimize.brentq(lambda x: float(g(x)), xs[i], xs[i + 1]) for i in change]
    return _integrate_panels(lambda x: np.maximum(g(x), 0.0), np.array([lo, *kinks, hi]), abs_tol, rel_tol)


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
