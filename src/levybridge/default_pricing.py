"""Joint inference on (default time, payoff) and defaultable bond pricing.

The observable is the default-time information process: before default it is
signal plus a random-length bridge plus reversed Levy drift, and from default
onward it sits exactly on the ray sigma*t*h.  Landing on a ray is therefore a
sure sign of default, which makes the default time a stopping time of the
observation filtration; pricing splits into a revealed branch and a survival
branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarketModel
from .numerics import (DEFAULT_QUADRATURE, GAUSS_BREAKS, Quadrature,
                       gauss_density, integrate_levy, positive_part_integral)
from .pricing import _binary_from_ratio, bayes_posterior

_WEIGHT_TOL = 1e-10
_RAY_TOL = 1e-9


@dataclass(frozen=True)
class DefaultQuote:
    """Defaultable bond price at (t, x) with the joint posterior behind it.

    posterior_joint rows are (default time or None, payoff atom, weight); the
    time entry is None when the default-time law is continuous and marginalized.
    """

    t: float
    observation: float
    defaulted: bool
    price: float
    posterior_joint: tuple

    def __post_init__(self):
        total = sum(w for _, _, w in self.posterior_joint)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError("joint posterior weights must sum to 1")


def on_payoff_ray(model: MarketModel, t: float, x, h):
    """Whether the observation x sits on the ray sigma*t*h of payoff h, elementwise.

    That is where the default-time information process stays from default on.
    """
    return np.abs(np.asarray(x) - model.sigma * t * np.asarray(h)) <= _RAY_TOL * max(1.0, abs(model.sigma) * t)


def _match_atom(model: MarketModel, t: float, x: float) -> int | None:
    """Index of the payoff atom whose ray sigma*t*h passes through x, if any."""
    support = model.payoff.support
    i = int(np.argmin(np.abs(model.sigma * t * support - x)))
    return i if on_payoff_ray(model, t, x, support[i]) else None


def default_indicator(model: MarketModel, t: float, x: float) -> bool:
    """Whether the observation reveals that default has already happened.

    The event {tau <= t} coincides with the observation lying on one of the
    payoff rays; off the rays the noise law is continuous, so false positives
    have probability zero.
    """
    if t <= 0.0:
        raise ValueError("need t > 0")
    return _match_atom(model, t, x) is not None


def _bridge_levy_density(model: MarketModel, t: float, x, r: float, h: float, q: Quadrature):
    """Density at x of signal + bridge of length r + reversed Levy drift, given tau = r > t.

    x may be an array of observations; the result then has its shape.
    """
    v = t * (r - t) / r
    shift = np.asarray(x, dtype=float)[..., None] - model.sigma * t * h
    k = model.levy_drift_scale * t
    if k == 0.0:
        dens = gauss_density(v, shift[..., 0])
        return float(dens) if dens.ndim == 0 else dens
    return integrate_levy(lambda y: gauss_density(v, shift - k * y), model.levy, r - t, q,
                          points=shift / k + (np.sqrt(v) / abs(k)) * GAUSS_BREAKS)


def likelihood_q_kappa(model: MarketModel, t: float, x: float, r: float, h: float,
                       q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Observation likelihood against the reference measure dx + sum of payoff atoms.

    For r <= t the observation is revealed: the density is the indicator that
    the atom coordinates match (x = h = some atom).  For r > t it is the
    Gaussian bridge of length r mixed over the scaled Levy marginal; the value
    at an exact atom point is 0 there, where the atom part of the reference
    measure takes over.
    """
    if r <= 0.0 or r > model.maturity:
        raise ValueError("need r in (0, T]")
    if t <= 0.0:
        raise ValueError("need t > 0")
    support = model.payoff.support
    if r <= t:
        match = any(x == h_i == h for h_i in support)
        return 1.0 if match else 0.0
    if any(x == h_i for h_i in support):
        return 0.0
    return _bridge_levy_density(model, t, x, r, h, q)


def survival_kernel(model: MarketModel, t: float, x, h: float,
                    q: Quadrature = DEFAULT_QUADRATURE):
    """Integral of the bridge-plus-Levy density over default times in (t, T].

    x may be an array of observations; under a continuous default-time law
    each element is its own quadrature over the default time.
    """
    law = _require_default_law(model)
    if not law.is_discrete and np.ndim(x):
        return np.reshape([survival_kernel(model, t, xi, h, q) for xi in np.ravel(x)], np.shape(x))
    return law.integrate(lambda r: _bridge_levy_density(model, t, x, r, h, q),
                         t, model.maturity, rel_tol=q.rel_tol, abs_tol=q.abs_tol)


def posterior_tau_payoff(model: MarketModel, t: float, x: float, g,
                         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Posterior expectation of g(tau, H) given one observation of the process.

    On the revealed branch the payoff atom is read off the ray and tau is
    averaged over (0, t] under its prior restricted there; on the survival
    branch the joint density over (t, T] x atoms is applied as displayed.
    """
    law = _require_default_law(model)
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    i = _match_atom(model, t, x)
    if i is not None:
        cdf_t = law.cdf(t)
        if cdf_t <= 0.0:
            raise ArithmeticError("observation lies on a ray but P(tau <= t) = 0")
        h_i = float(model.payoff.support[i])
        return law.integrate(lambda r: g(r, h_i), 0.0, t) / cdf_t
    num = 0.0
    den = 0.0
    for h, p in zip(model.payoff.support, model.payoff.probs):
        num += p * law.integrate(lambda r: g(r, float(h)) * _bridge_levy_density(model, t, x, r, float(h), q),
                                 t, T, rel_tol=q.rel_tol, abs_tol=q.abs_tol)
        den += p * survival_kernel(model, t, x, float(h), q)
    if den <= 0.0 or not np.isfinite(den):
        raise ArithmeticError("survival posterior mass vanished")
    return num / den


def _joint_rows(model: MarketModel, t: float, x: float, q: Quadrature,
                defaulted: bool, atom_index: int | None):
    """Posterior cells over (tau, payoff) for the DefaultQuote."""
    law = model.default_law
    support = model.payoff.support
    if defaulted:
        h_i = float(support[atom_index])
        if law.is_discrete:
            cdf_t = law.cdf(t)
            sel = law.atom_times <= t
            return tuple((float(r), h_i, float(w / cdf_t))
                         for r, w in zip(law.atom_times[sel], law.atom_weights[sel]))
        return ((None, h_i, 1.0),)
    if law.is_discrete:
        cells = []
        for h, p in zip(support, model.payoff.probs):
            for r, w in zip(law.atom_times, law.atom_weights):
                if r > t:
                    cells.append((float(r), float(h),
                                  p * w * _bridge_levy_density(model, t, x, float(r), float(h), q)))
        total = sum(c[2] for c in cells)
        return tuple((r, h, w / total) for r, h, w in cells)
    kernels = [survival_kernel(model, t, x, float(h), q) for h in support]
    weights = bayes_posterior(kernels, model.payoff.probs)
    return tuple((None, float(h), w) for h, w in zip(support, weights.tolist() if weights.ndim == 1 else weights))


def survival_posterior_mean(model: MarketModel, t: float, x,
                            q: Quadrature = DEFAULT_QUADRATURE):
    """Posterior mean of the payoff on the survival branch (x off the rays).

    x may be an array of observations; the result then has its shape.
    """
    rows = _joint_rows(model, t, x, q, False, None)
    mean = sum(h * w for _, h, w in rows)
    return float(mean) if np.ndim(mean) == 0 else mean


def bond_price_default(model: MarketModel, t: float, x: float,
                       q: Quadrature = DEFAULT_QUADRATURE) -> DefaultQuote:
    """Defaultable bond price: revealed payoff on the rays, posterior mean off them."""
    law = _require_default_law(model)
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    p_tT = model.discount(t)
    i = _match_atom(model, t, x)
    if i is not None:
        if law.cdf(t) <= 0.0:
            raise ArithmeticError("observation lies on a ray but P(tau <= t) = 0")
        price = p_tT * (x / (model.sigma * t))
        return DefaultQuote(t, x, True, price, _joint_rows(model, t, x, q, True, i))
    rows = _joint_rows(model, t, x, q, False, None)
    price = p_tT * sum(h * w for _, h, w in rows)
    return DefaultQuote(t, x, False, price, rows)


def binary_bond_price_default(model: MarketModel, t: float, x: float,
                              q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Two-atom defaultable bond through the survival likelihood ratio."""
    if not model.payoff.is_binary:
        raise ValueError("this route needs a two-atom payoff")
    _require_default_law(model)
    if not 0.0 < t < model.maturity:
        raise ValueError("need 0 < t < T")
    if _match_atom(model, t, x) is not None:
        return model.discount(t) * (x / (model.sigma * t))
    h0, h1 = model.payoff.support
    ratio = (survival_kernel(model, t, x, float(h1), q)
             / survival_kernel(model, t, x, float(h0), q))
    return _binary_from_ratio(model, t, ratio)


def option_value_default(model: MarketModel, t: float, strike: float,
                         q: Quadrature = DEFAULT_QUADRATURE,
                         outer_abs_tol: float = 1e-10, outer_rel_tol: float = 1e-8) -> float:
    """Time-0 value of a call exercisable at t on the defaultable bond.

    Sum of the revealed part, weighted by P(tau <= t), and the survival part,
    an x-integral of the positive part of the strike-adjusted survival kernels.
    """
    law = _require_default_law(model)
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    if strike < 0.0:
        raise ValueError("strike must be nonnegative")
    p_tT = model.discount(t)
    p_0t = model.discount(0.0, t)
    support = model.payoff.support
    probs = model.payoff.probs
    revealed = law.cdf(t) * sum(max(p_tT * h - strike, 0.0) * p for h, p in zip(support, probs))

    def g(x):
        return sum((p_tT * h - strike) * survival_kernel(model, t, x, float(h), q) * p
                   for h, p in zip(support, probs))

    sd = np.sqrt(t * (T - t) / T)
    signals = model.sigma * t * support
    drift_span = model.levy_drift_scale * t * model.levy.tail_quantile(T - t)
    lo = float(signals.min() + min(0.0, drift_span) - 12.0 * sd)
    hi = float(signals.max() + max(0.0, drift_span) + 12.0 * sd)
    survival = positive_part_integral(g, lo, hi, outer_abs_tol, outer_rel_tol)
    return p_0t * (revealed + survival)


def _require_default_law(model: MarketModel):
    if model.default_law is None:
        raise ValueError("model carries no default time law")
    return model.default_law
