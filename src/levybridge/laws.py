"""Probability laws feeding the model: noise drivers, payoffs, default times."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .numerics import DEGENERATE, GAMMA, POISSON, Quadrature, QuadratureError, integrate_panels

_PAYOFF_MASS_TOL = 1e-12
_PAYOFF_SUM_TOL = 1e-9  # of the probabilities given to from_weights, before truncation
_TAU_MASS_TOL = 1e-10
_TAU_QUADRATURE = Quadrature(abs_tol=1e-13, rel_tol=1e-10)
# a density's first panels shrink by this ratio toward the lower limit of its
# integral, down to _GRADING ** (_GRADED_PANELS - 1) of the range
_GRADING, _GRADED_PANELS = 0.5, 13


@dataclass(frozen=True)
class LevyLaw:
    """Marginal family of the latent noise process X.

    ``gamma`` is the standard gamma subordinator (X_t ~ Gamma(shape=t, scale=1)),
    ``poisson`` a Poisson process with the given rate.  ``none`` is the degenerate
    point mass at zero used for reduction tests (no Levy noise).  Only ``poisson`` takes a rate.
    """

    kind: str
    rate: float = 1.0

    def __post_init__(self):
        if self.kind not in (GAMMA, POISSON, DEGENERATE):
            raise ValueError(f"unknown Levy law kind {self.kind!r}")
        if not (0.0 < self.rate < np.inf if self.kind == POISSON else self.rate == 1.0):
            want = "positive and finite" if self.kind == POISSON else "1"
            raise ValueError(f"the {self.kind} law's rate must be {want}, got {self.rate!r}")

    @classmethod
    def named(cls, kind: str, rate: float = 1.0) -> "LevyLaw":
        """The law of a kind name: ``gamma``, ``poisson`` with intensity ``rate``, or ``none`` (rate ignored)."""
        return cls(kind, rate if kind == POISSON else 1.0)

    @classmethod
    def standard_gamma(cls) -> "LevyLaw":
        return cls(GAMMA)

    @classmethod
    def poisson(cls, rate: float) -> "LevyLaw":
        return cls(POISSON, rate)

    @classmethod
    def degenerate(cls) -> "LevyLaw":
        return cls(DEGENERATE)

    def mean(self, t: float) -> float:
        """Mean of X_t, which for each of these laws equals its variance."""
        return 0.0 if self.kind == DEGENERATE else self.rate * t

    variance = mean

    def tail_quantile(self, t: float, tail: float = 1e-14) -> float:
        """Upper quantile of X_t, used to bracket integrals over the law.

        The steps and special functions of scipy.stats' gamma and Poisson
        ppf, so the quantiles equal theirs bit for bit without importing
        scipy.stats; as there, a gamma shape t <= 0 has none (nan).
        """
        q = 1.0 - tail
        if self.kind == GAMMA:
            return float(special.gammaincinv(t, q)) if t > 0.0 else np.nan
        if self.kind == POISSON:
            mu = self.rate * t
            if q == 1.0 and mu >= 0.0:  # no finite quantile: the upper end of the support
                return np.inf
            n = np.ceil(special.pdtrik(q, mu))
            below = np.maximum(n - 1.0, 0.0)
            return float(below if special.pdtr(below, mu) >= q else n)
        return 0.0


@dataclass(frozen=True)
class PayoffDistribution:
    """Discrete law of the terminal cash flow H_T."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if support.ndim != 1 or support.size == 0 or support.shape != probs.shape:
            raise ValueError("support and probs must be matching 1-d sequences")
        if not (np.all(np.isfinite(support)) and np.all(np.isfinite(probs))):
            raise ValueError("payoff atoms and probabilities must be finite")
        if np.unique(support).size != support.size:
            raise ValueError("support values must be pairwise distinct")
        if np.any(probs <= 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(probs.sum() - 1.0) > _PAYOFF_MASS_TOL:
            raise ValueError("probabilities must sum to 1")

    @classmethod
    def binary(cls, h0: float, h1: float, p1: float) -> "PayoffDistribution":
        """Two-point payoff with P(H = h1) = p1."""
        return cls(np.array([h0, h1]), np.array([1.0 - p1, p1]))

    @classmethod
    def from_weights(cls, support, probs) -> "PayoffDistribution":
        """Truncate a (possibly countable) list of atoms to prior mass 1 - 1e-12.

        The given probabilities must lie in [0, 1] and sum to 1 within 1e-9,
        or ValueError is raised: a list that sums to more, or to less, is a
        mistake, not a truncation.  Atoms are kept in the given order until
        the cumulative mass reaches that coverage; the retained probabilities
        are renormalized.
        """
        support = np.asarray(support, dtype=float)
        probs = np.asarray(probs, dtype=float)
        total = probs.sum()
        if not abs(total - 1.0) <= _PAYOFF_SUM_TOL:  # a nan sum fails too
            raise ValueError(f"payoff probabilities must sum to 1, got {float(total)!r}")
        outside = probs[(probs < 0.0) | (probs > 1.0)]
        if outside.size:  # truncation could drop it unseen: [1.5, -0.5] sums to 1
            raise ValueError(f"payoff probabilities must lie in [0, 1], got {float(outside[0])!r}")
        keep = np.searchsorted(np.cumsum(probs), 1.0 - 1e-12) + 1
        keep = min(keep, probs.size)
        p = probs[:keep]
        return cls(support[:keep], p / p.sum())

    @property
    def n_atoms(self) -> int:
        return self.support.size

    @property
    def is_binary(self) -> bool:
        return self.support.size == 2

    def mean(self) -> float:
        return float(self.support @ self.probs)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(self.support.size, size=n, p=self.probs)
        return self.support[idx]


@dataclass(frozen=True)
class DefaultTimeLaw:
    """Law of the default time tau, supported on (0, horizon].

    Either a list of atoms or an absolutely continuous law described by a
    density.  Named constructors provide exact cdf/quantile functions; a raw
    density falls back to numerical integration and a tabulated inverse.
    The density is called with arrays of default times (see ``integrate``).
    """

    horizon: float
    atom_times: np.ndarray | None = None
    atom_weights: np.ndarray | None = None
    pdf: Callable[[float], float] | None = None
    cdf_fn: Callable[[float], float] | None = field(default=None, repr=False)
    ppf_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    jumps: tuple = ()  # where the density jumps; break points for quadrature

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be positive and finite")
        if (self.atom_times is None) == (self.pdf is None):
            raise ValueError("exactly one of atoms or density must be given")
        if self.atom_times is not None:
            times = np.asarray(self.atom_times, dtype=float)
            weights = np.asarray(self.atom_weights, dtype=float)
            object.__setattr__(self, "atom_times", times)
            object.__setattr__(self, "atom_weights", weights)
            if times.shape != weights.shape or times.ndim != 1:
                raise ValueError("atom times and weights must match")
            # written so that a nan fails each comparison
            if not np.all((times > 0.0) & (times <= self.horizon)):
                raise ValueError("atoms must lie in (0, horizon]")
            if not (np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= _TAU_MASS_TOL):
                raise ValueError("atom weights must be finite, positive and sum to 1")
        else:
            mass = self.integrate(lambda r: 1.0, 0.0, self.horizon)
            if abs(mass - 1.0) > _TAU_MASS_TOL:
                raise ValueError(f"density mass {mass} differs from 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def atoms(cls, times, weights, horizon: float | None = None) -> "DefaultTimeLaw":
        times = np.asarray(times, dtype=float)
        if horizon is None:
            horizon = float(times.max())
        return cls(horizon, atom_times=times, atom_weights=np.asarray(weights, dtype=float))

    @classmethod
    def point(cls, time: float) -> "DefaultTimeLaw":
        return cls.atoms([time], [1.0], horizon=time)

    @classmethod
    def exponential_conditioned(cls, rate: float, horizon: float) -> "DefaultTimeLaw":
        """Exp(rate) conditioned on landing in (0, horizon]."""
        if not (np.isfinite(rate) and rate > 0.0):
            raise ValueError("rate must be positive and finite")
        norm = -np.expm1(-rate * horizon)  # 1 - exp(-rate * horizon), without cancellation at small rates

        def pdf(r):
            return rate * np.exp(-rate * r) / norm

        def cdf(t):
            return float(np.clip(-np.expm1(-rate * min(t, horizon)) / norm, 0.0, 1.0)) if t > 0 else 0.0

        def ppf(u):
            return -np.log1p(-np.asarray(u) * norm) / rate

        return cls(horizon, pdf=pdf, cdf_fn=cdf, ppf_fn=ppf)

    @classmethod
    def uniform(cls, lo: float, hi: float, horizon: float | None = None) -> "DefaultTimeLaw":
        if not 0.0 <= lo < hi:
            raise ValueError("need 0 <= lo < hi")
        if horizon is None:
            horizon = hi
        width = hi - lo

        def pdf(r):
            return np.where((lo < r) & (r <= hi), 1.0 / width, 0.0)

        def cdf(t):
            return float(np.clip((t - lo) / width, 0.0, 1.0))

        def ppf(u):
            return lo + np.asarray(u) * width

        return cls(horizon, pdf=pdf, cdf_fn=cdf, ppf_fn=ppf, jumps=(lo, hi))

    @classmethod
    def from_density(cls, pdf: Callable[[np.ndarray], np.ndarray], horizon: float) -> "DefaultTimeLaw":
        """Law with density pdf on (0, horizon]; pdf maps an array of default times to their densities."""
        return cls(horizon, pdf=pdf)

    # -- queries -------------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.atom_times is not None

    def cdf(self, t: float) -> float:
        """F_tau(t) = P(tau <= t)."""
        if t <= 0.0:
            return 0.0
        if self.is_discrete:
            return float(self.atom_weights[self.atom_times <= t].sum())
        if self.cdf_fn is not None:
            return self.cdf_fn(t)
        return float(np.clip(self.integrate(lambda r: 1.0, 0.0, t), 0.0, 1.0))

    def integrate(self, f: Callable[..., np.ndarray], lo: float, hi: float,
                  q: Quadrature | None = _TAU_QUADRATURE, args=()):
        """Integral of f(r - lo, *args) against P_tau(dr) over the interval (lo, hi], for every element.

        f is called with an array of times after lo, r - lo, on its last
        axis, which keep their precision however close r comes to lo, and
        returns one value per time.  ``args`` are arrays of per-element
        arguments that broadcast together, as for ``numerics.integrate_panels``;
        the result has their broadcast shape (a float when there are none),
        and is zero when (lo, hi] is empty or holds no atom.  An atom law
        calls f once, on its atoms in (lo, hi] and each argument with a
        trailing axis of length 1, and raises QuadratureError when a sum is
        not finite; it reads no tolerance, so q may be None.  A density is
        integrated to the tolerance q by the adaptive Gauss-Kronrod panel
        rule of ``integrate_panels``, which calls f only on the panels and
        elements it still refines, starting from panels split at its jumps
        and graded geometrically toward lo, where integrands like the
        survival kernel's degenerate as the law time r - lo vanishes.
        """
        hi = min(hi, self.horizon)
        sel = (self.atom_times > lo) & (self.atom_times <= hi) if self.is_discrete else None
        if hi <= lo or (sel is not None and not np.any(sel)):
            zero = np.zeros(np.broadcast_shapes(*(np.shape(a) for a in args)))
            return float(zero) if zero.ndim == 0 else zero
        if self.is_discrete:
            cols = (np.asarray(a, dtype=float)[..., None] for a in args)
            total = (f(self.atom_times[sel] - lo, *cols) * self.atom_weights[sel]).sum(axis=-1)
            if not np.all(np.isfinite(total)):
                raise QuadratureError("default-time sum over the atoms is not finite")
            return float(total) if np.ndim(total) == 0 else total
        span = hi - lo
        graded = span * _GRADING ** np.arange(1.0, _GRADED_PANELS)
        breaks = np.unique([0.0, *graded, *(b - lo for b in self.jumps if lo < b < hi), span])
        return integrate_panels(lambda s, *a: f(s, *a) * self.pdf(lo + s), breaks, q, args)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.is_discrete:
            idx = rng.choice(self.atom_times.size, size=n, p=self.atom_weights)
            return self.atom_times[idx]
        u = rng.uniform(size=n)
        if self.ppf_fn is not None:
            return np.asarray(self.ppf_fn(u), dtype=float)
        # tabulated inverse for a raw density
        grid = np.linspace(0.0, self.horizon, 4097)
        pdf_vals = np.broadcast_to(self.pdf(grid), grid.shape)
        cdf_vals = np.concatenate([[0.0], np.cumsum((pdf_vals[1:] + pdf_vals[:-1]) / 2.0 * np.diff(grid))])
        cdf_vals /= cdf_vals[-1]
        return np.interp(u, cdf_vals, grid)
