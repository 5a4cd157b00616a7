"""Discrete time grids; sampled paths are arrays with one path per row."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time axis 0 = t_0 < t_1 < ... < t_n = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a grid needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("grid must start at exactly 0")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        return cls(np.linspace(0.0, float(horizon), steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def n_points(self) -> int:
        return self.points.size

    @property
    def n_steps(self) -> int:
        return self.points.size - 1

    def step_sizes(self) -> np.ndarray:
        return np.diff(self.points)

    def is_symmetric(self) -> bool:
        """True when the grid maps onto itself under t -> T - t."""
        tol = _SYMMETRY_TOL * max(self.horizon, 1.0)
        return bool(np.all(np.abs(self.points + self.points[::-1] - self.horizon) <= tol))

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to t, within a relative tolerance."""
        k = int(np.argmin(np.abs(self.points - t)))
        if not abs(self.points[k] - t) <= 1e-9 * max(self.horizon, 1.0):  # a nan fails too
            raise ValueError(f"t={t} is not a grid point")
        return k

    def snap_below(self, t) -> np.ndarray | int:
        """Index of the largest grid point <= t, tolerating float dust (vectorized); ValueError on a nan."""
        if np.any(np.isnan(t)):
            raise ValueError("a nan time has no grid point")
        shifted = np.asarray(t, dtype=float) + 1e-9 * max(self.horizon, 1.0)
        idx = np.searchsorted(self.points, shifted, side="right") - 1
        idx = np.clip(idx, 0, self.n_steps)
        return idx if np.ndim(t) else int(idx)

