"""Closed-form Gaussian analysis of the pinned bridge processes.

Covariance kernels, the Gaussian Markov triple test, the prediction kernel
a(s, u), canonical-decomposition drifts and reconstructions, the
not-a-bridge variance diagnostic and the quasi-martingale variation bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import Path, TimeGrid
from .sampling import rng_for

_DRIFT_GUARD = 1e-6
_MIN_RECONSTRUCTION_STEPS = 64

NON_INCREASING = "non-increasing"
NON_DECREASING = "non-decreasing"
OTHER = "other"


@dataclass(frozen=True)
class CovKernel:
    """Symmetric covariance function on [0, T] x [0, T]."""

    func: Callable[[float, float], float]
    horizon: float

    def __call__(self, s: float, t: float) -> float:
        if not (0.0 <= s <= self.horizon and 0.0 <= t <= self.horizon):
            raise ValueError("times outside [0, T]")
        return float(self.func(s, t))


@dataclass(frozen=True)
class TimeChange:
    """Nonnegative time change psi on [0, T] with its monotonicity tag."""

    func: Callable[[float], float]
    tag: str
    horizon: float

    @classmethod
    def infer(cls, func: Callable[[float], float], horizon: float) -> "TimeChange":
        vals = np.array([func(u) for u in np.linspace(0.0, horizon, 257)])
        if np.any(vals < 0.0):
            raise ValueError("psi must be nonnegative")
        diffs = np.diff(vals)
        if np.all(diffs <= 0.0):
            tag = NON_INCREASING
        elif np.all(diffs >= 0.0):
            tag = NON_DECREASING
        else:
            tag = OTHER
        return cls(func, tag, horizon)


def cov_bar(s: float, t: float, T: float) -> float:
    """Covariance of the bridge pinned by a forward Brownian motion."""
    _check_times(T, s, t)
    m = min(s, t)
    return m - (s * t / T) * (1.0 - m / T)


def cov_tilde(s: float, t: float, T: float) -> float:
    """Covariance of the bridge pinned by a time-reversed Brownian motion."""
    _check_times(T, s, t)
    return min(s, t) * (T * T - max(s, t) ** 2) / (T * T)


def cov_hat(s: float, t: float, T: float, sigma: float, psi: Callable[[float], float] | TimeChange) -> float:
    """Covariance of bridge + sigma * t * B_psi(t) for a time change psi.

    The Brownian factor contributes min(psi(s), psi(t)), which reduces to
    psi(max(s, t)) exactly when psi is non-increasing (the Markov case).
    """
    _check_times(T, s, t)
    fn = psi.func if isinstance(psi, TimeChange) else psi
    return (min(s, t) - s * t / T) + sigma * sigma * s * t * min(fn(s), fn(t))


def bar_kernel(T: float) -> CovKernel:
    return CovKernel(lambda s, t: cov_bar(s, t, T), T)


def tilde_kernel(T: float) -> CovKernel:
    return CovKernel(lambda s, t: cov_tilde(s, t, T), T)


def hat_kernel(T: float, sigma: float, psi) -> CovKernel:
    return CovKernel(lambda s, t: cov_hat(s, t, T, sigma, psi), T)


def markov_triple_residual(kernel: CovKernel, s: float, t: float, u: float) -> float:
    """|k(s,t) k(t,u) - k(t,t) k(s,u)|; zero on all triples iff Gaussian-Markov."""
    if not 0.0 <= s < t < u <= kernel.horizon:
        raise ValueError("need 0 <= s < t < u <= T")
    return abs(kernel(s, t) * kernel(t, u) - kernel(t, t) * kernel(s, u))


# -- prediction kernel a(s, u) -------------------------------------------------

def kernel_a(s: float, u: float, T: float) -> float:
    """Kernel of the best estimate of the pinning motion from the observed bridge."""
    if not 0.0 <= u <= s < T:
        raise ValueError("need 0 <= u <= s < T")
    denom = T - s + s * np.arctan(s / T)
    first = (T - s) / denom * (T * u / (T * T + u * u) + np.arctan(u / T))
    second = s * np.arctan(s / T) / denom
    return float(first + second)


def kernel_a_coefficients(s: float, T: float) -> tuple[float, float]:
    """The (c, d) pair with a(s, u) = c(s) [u/(T^2(u^2+T^2)) + atan(u/T)/T^3] + d(s)."""
    denom = T - s + s * np.arctan(s / T)
    c = T ** 3 * (T - s) / denom
    d = s * np.arctan(s / T) / denom
    return float(c), float(d)


def predict_bar_batch(grid: TimeGrid, values: np.ndarray, s: float, t: float) -> np.ndarray:
    """Conditional expectation of bar-beta at t given its own history up to s.

    (T-t)/(T-s) * value_s + (t-s)/(T-s) * integral of a(s, u) d(path) over [0, s],
    with the stochastic integral discretized by left-endpoint (Ito) sums.
    """
    T = grid.horizon
    if not 0.0 < s <= t < T:
        raise ValueError("need 0 < s <= t < T")
    values = np.atleast_2d(values)
    ks = grid.index_of(s)
    if ks == 0:
        return np.zeros(values.shape[0])
    a_left = np.array([kernel_a(s, u, T) for u in grid.points[:ks]])
    incs = np.diff(values[:, : ks + 1], axis=1)
    integral = incs @ a_left
    return (T - t) / (T - s) * values[:, ks] + (t - s) / (T - s) * integral


def predict_bar(path: Path, s: float, t: float) -> float:
    """Single-path version of predict_bar_batch."""
    return float(predict_bar_batch(path.grid, path.values[None, :], s, t)[0])


def drift_tilde(s: float, x: float, T: float) -> float:
    """Drift of the reversed-pin bridge at state x: -2 s x / (T^2 - s^2)."""
    if s > T * (1.0 - _DRIFT_GUARD):
        raise ValueError("drift evaluation too close to the horizon")
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    return -2.0 * s * x / (T * T - s * s)


# -- SDE reconstructions of the reversed-pin bridge ----------------------------

def _check_reconstruction_grid(grid: TimeGrid) -> None:
    if grid.n_steps < _MIN_RECONSTRUCTION_STEPS:
        raise ValueError(f"grid too coarse: need at least {_MIN_RECONSTRUCTION_STEPS} steps")


def tilde_euler_batch(grid: TimeGrid, seed: int, n: int) -> np.ndarray:
    """Euler scheme on d beta = -2 s beta/(T^2-s^2) ds + sqrt(T^2+s^2)/T dB."""
    _check_reconstruction_grid(grid)
    T = grid.horizon
    t = grid.points
    dt = grid.step_sizes()
    rng = rng_for(seed)
    db = rng.normal(0.0, np.sqrt(dt), size=(n, dt.size))
    out = np.zeros((n, grid.n_points))
    for k in range(dt.size):
        state = out[:, k]
        drift = -2.0 * t[k] * state / (T * T - t[k] * t[k])
        vol = np.sqrt(T * T + t[k] * t[k]) / T
        out[:, k + 1] = state + drift * dt[k] + vol * db[:, k]
    return out


def tilde_explicit_batch(grid: TimeGrid, seed: int, n: int) -> np.ndarray:
    """Explicit solution ((T^2-t^2)/T) * integral of sqrt(T^2+s^2)/(T^2-s^2) dB."""
    _check_reconstruction_grid(grid)
    T = grid.horizon
    t = grid.points
    dt = grid.step_sizes()
    rng = rng_for(seed)
    db = rng.normal(0.0, np.sqrt(dt), size=(n, dt.size))
    integrand = np.sqrt(T * T + t[:-1] ** 2) / (T * T - t[:-1] ** 2)
    mart = np.concatenate([np.zeros((n, 1)), np.cumsum(integrand * db, axis=1)], axis=1)
    return (T * T - t * t) / T * mart


def euler_reconstruct_tilde(grid: TimeGrid, seed: int) -> Path:
    """One Euler-scheme reconstruction path of the reversed-pin bridge."""
    return Path(grid, tilde_euler_batch(grid, seed, 1)[0])


def explicit_reconstruct_tilde(grid: TimeGrid, seed: int) -> Path:
    """One explicit-solution reconstruction path of the reversed-pin bridge."""
    return Path(grid, tilde_explicit_batch(grid, seed, 1)[0])


def tilde_quadratic_variation(t: float, T: float) -> float:
    """Quadratic variation t + t^3/(3 T^2) of the reversed-pin bridge."""
    return t + t ** 3 / (3.0 * T * T)


# -- diagnostics ----------------------------------------------------------------

def tilde_variance(t: float, T: float) -> float:
    return t * (T * T - t * t) / (T * T)


def not_a_bridge_residual(t: float, T: float) -> float:
    """|var(t) - var(T-t)| for the reversed-pin bridge; zero only at t = T/2.

    A Gaussian-Markov bridge of length T would need this to vanish for all t,
    so a nonzero residual certifies the process is not such a bridge.
    """
    _check_times(T, t)
    return abs(tilde_variance(t, T) - tilde_variance(T - t, T))


def quasimartingale_variation(partition) -> float:
    """Expected conditional variation of the forward-pinned bridge over a partition.

    Bounded by 4 sqrt(T/pi) for every partition of [0, T].
    """
    pts = np.asarray(partition, dtype=float)
    if pts.ndim != 1 or pts.size < 2 or pts[0] != 0.0 or np.any(np.diff(pts) <= 0.0):
        raise ValueError("partition must be increasing and start at 0")
    T = pts[-1]
    left = pts[:-1]
    terms = np.sqrt(2.0 / np.pi) * np.diff(pts) * np.sqrt(left * (2.0 * T - left) / (T * T * (T - left)))
    return float(terms.sum())


def quasimartingale_bound(T: float) -> float:
    return 4.0 * np.sqrt(T / np.pi)


def _check_times(T: float, *times: float) -> None:
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    for t in times:
        if not 0.0 <= t <= T:
            raise ValueError(f"time {t} outside [0, {T}]")
