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
from .numerics import DEFAULT_QUADRATURE, Quadrature
from .pricing import (bayes_posterior, binary_from_ratio, bridge_levy_density,
                      likelihood_ratio, option_integral, require_probability_vector)

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
        require_probability_vector([w for _, _, w in self.posterior_joint])


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


def _revealed_atom(model: MarketModel, t: float, x: float) -> int | None:
    """Index of the payoff atom whose ray x lies on (default revealed), or None (survival).

    Raises ArithmeticError when the law rules that outcome out: no default
    mass by t on a ray, no survival mass after t off the rays (an atom law
    survives exactly when it has an atom after t).
    """
    law = _require_default_law(model)
    if not 0.0 < t < model.maturity:
        raise ValueError("need 0 < t < T")
    i = _match_atom(model, t, x)
    if i is not None and law.cdf(t) <= 0.0:
        raise ArithmeticError("observation lies on a ray but P(tau <= t) = 0")
    if i is None and not (np.any(law.atom_times > t) if law.is_discrete else law.cdf(t) < 1.0):
        raise ArithmeticError("observation lies off the rays but P(tau > t) = 0")
    return i


def default_indicator(model: MarketModel, t: float, x: float) -> bool:
    """Whether the observation reveals that default has already happened.

    The event {tau <= t} coincides with the observation lying on one of the
    payoff rays; off the rays the noise law is continuous, so false positives
    have probability zero.
    """
    if t <= 0.0:
        raise ValueError("need t > 0")
    return _match_atom(model, t, x) is not None


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
    return bridge_levy_density(model, t, x, r, h, model.levy_drift_scale * t, q)


def survival_kernel(model: MarketModel, t: float, x, h: float,
                    q: Quadrature = DEFAULT_QUADRATURE):
    """Integral of the bridge-plus-Levy density over default times in (t, T].

    x may be an array of observations; under a continuous default-time law
    each element is its own quadrature over the default time.
    """
    law = _require_default_law(model)
    if not law.is_discrete and np.ndim(x):
        return np.reshape([survival_kernel(model, t, xi, h, q) for xi in np.ravel(x)], np.shape(x))
    k = model.levy_drift_scale * t
    return law.integrate(lambda r: bridge_levy_density(model, t, x, r, h, k, q),
                         t, model.maturity, rel_tol=q.rel_tol, abs_tol=q.abs_tol)


def posterior_tau_payoff(model: MarketModel, t: float, x: float, g,
                         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Posterior expectation of g(tau, H) given one observation of the process.

    On the revealed branch the payoff atom is read off the ray and tau is
    averaged over (0, t] under its prior restricted there; on the survival
    branch the joint density over (t, T] x atoms is applied as displayed.
    """
    i = _revealed_atom(model, t, x)
    law = model.default_law
    T = model.maturity
    if i is not None:
        h_i = float(model.payoff.support[i])
        return law.integrate(lambda r: g(r, h_i), 0.0, t, rel_tol=q.rel_tol, abs_tol=q.abs_tol) / law.cdf(t)
    k = model.levy_drift_scale * t
    num = 0.0
    den = 0.0
    for h, p in zip(model.payoff.support, model.payoff.probs):
        num += p * law.integrate(lambda r: g(r, float(h)) * bridge_levy_density(model, t, x, r, float(h), k, q),
                                 t, T, rel_tol=q.rel_tol, abs_tol=q.abs_tol)
        den += p * survival_kernel(model, t, x, float(h), q)
    if den <= 0.0 or not np.isfinite(den):
        raise ArithmeticError("survival posterior mass vanished")
    return num / den


def _joint_rows(model: MarketModel, t: float, x: float, q: Quadrature, atom_index: int | None):
    """Posterior cells over (tau, payoff) for the DefaultQuote; atom_index None is survival."""
    law = model.default_law
    support = model.payoff.support
    if atom_index is not None:
        h_i = float(support[atom_index])
        if law.is_discrete:
            sel = law.atom_times <= t
            weights = bayes_posterior(np.ones(np.count_nonzero(sel)), law.atom_weights[sel])
            return tuple((float(r), h_i, w) for r, w in zip(law.atom_times[sel], weights.tolist()))
        return ((None, h_i, 1.0),)
    if law.is_discrete:
        cells = [(float(r), float(h), p * w) for h, p in zip(support, model.payoff.probs)
                 for r, w in zip(law.atom_times, law.atom_weights) if r > t]
    else:
        cells = [(None, float(h), p) for h, p in zip(support, model.payoff.probs)]
    k = model.levy_drift_scale * t
    likes = [survival_kernel(model, t, x, h, q) if r is None
             else bridge_levy_density(model, t, x, r, h, k, q) for r, h, _ in cells]
    weights = bayes_posterior(likes, [prior for _, _, prior in cells])
    weights = weights.tolist() if weights.ndim == 1 else weights
    return tuple((r, h, w) for (r, h, _), w in zip(cells, weights))


def survival_posterior_mean(model: MarketModel, t: float, x,
                            q: Quadrature = DEFAULT_QUADRATURE):
    """Posterior mean of the payoff on the survival branch (x off the rays).

    x may be an array of observations; the result then has its shape.
    """
    rows = _joint_rows(model, t, x, q, None)
    mean = sum(h * w for _, h, w in rows)
    return float(mean) if np.ndim(mean) == 0 else mean


def bond_price_default(model: MarketModel, t: float, x: float,
                       q: Quadrature = DEFAULT_QUADRATURE) -> DefaultQuote:
    """Defaultable bond price: revealed payoff on the rays, posterior mean off them."""
    i = _revealed_atom(model, t, x)
    rows = _joint_rows(model, t, x, q, i)
    mean = sum(h * w for _, h, w in rows) if i is None else float(model.payoff.support[i])
    return DefaultQuote(t, x, i is not None, model.discount(t) * mean, rows)


def binary_bond_price_default(model: MarketModel, t: float, x: float,
                              q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Two-atom defaultable bond through the survival likelihood ratio."""
    if not model.payoff.is_binary:
        raise ValueError("this route needs a two-atom payoff")
    i = _revealed_atom(model, t, x)
    if i is not None:
        return model.discount(t) * float(model.payoff.support[i])
    h0, h1 = model.payoff.support
    ratio = likelihood_ratio(survival_kernel(model, t, x, float(h1), q),
                             survival_kernel(model, t, x, float(h0), q))
    return binary_from_ratio(model, t, ratio)


def option_value_default(model: MarketModel, t: float, strike: float,
                         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Time-0 value of a call exercisable at t on the defaultable bond.

    Sum of the revealed part, weighted by P(tau <= t), and the survival part,
    an x-integral of the positive part of the strike-adjusted survival kernels.
    """
    law = _require_default_law(model)
    survival = option_integral(model, t, strike, lambda h, x: survival_kernel(model, t, x, float(h), q),
                               model.levy_drift_scale * t)
    p_tT = model.discount(t)
    revealed = law.cdf(t) * sum(max(p_tT * h - strike, 0.0) * p
                                for h, p in zip(model.payoff.support, model.payoff.probs))
    return model.discount(0.0, t) * (revealed + survival)


def _require_default_law(model: MarketModel):
    if model.default_law is None:
        raise ValueError("model carries no default time law")
    return model.default_law
