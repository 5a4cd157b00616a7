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
from .numerics import DEFAULT_QUADRATURE, UNDERFLOW, Quadrature
from .pricing import (_atom_axis, _require_binary, bayes_posterior, binary_from_ratio, bridge_levy_density,
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
    """Observation likelihood given default time r and payoff h, against dx + the point masses on the rays.

    For r <= t default has happened, and the observation sits on the ray
    sigma*t*h: the likelihood is 1 there and 0 elsewhere.  For r > t it is
    the Gaussian bridge of length r mixed over the scaled Levy marginal,
    except on the rays of the payoff atoms, where it is 0 and the point
    masses of the reference measure take over.
    """
    if r <= 0.0 or r > model.maturity:
        raise ValueError("need r in (0, T]")
    if t <= 0.0:
        raise ValueError("need t > 0")
    i = _match_atom(model, t, x)
    if r <= t:
        return 1.0 if i is not None and model.payoff.support[i] == h else 0.0
    if i is not None:
        return 0.0
    return bridge_levy_density(model, t, x, r - t, h, model.levy_drift_scale * t, q)


def survival_kernel(model: MarketModel, t: float, x, h,
                    q: Quadrature = DEFAULT_QUADRATURE):
    """Integral of the bridge-plus-Levy density over default times in (t, T].

    x may be an array of observations, and h an array of payoffs that
    broadcasts with it (the atoms on a leading axis); the result then has
    their broadcast shape.  Each call of the density covers many elements
    and default-time nodes at once, each pair with its own law time.
    """
    return _survival_integral(model, t, x, h, q)


def _survival_integral(model: MarketModel, t: float, x, h, q: Quadrature, g=None,
                       abs_tol: float = UNDERFLOW):
    """Integral over default times r in (t, T] of g(r, h) times the bridge-plus-Levy density at x; g = 1 if None.

    x and h are per-element arguments of the default-time integral; with g,
    h is one float, which g gets.  The likelihood (g None) is resolved
    relative to itself down to underflow, as integrate_levy resolves the
    density's own integral.
    """
    law = _require_default_law(model)
    k = model.levy_drift_scale * t

    def f(s, x, hs):
        dens = bridge_levy_density(model, t, x, s, hs, k, q)
        return dens if g is None else g(t + s, h) * dens

    return law.integrate(f, t, model.maturity, rel_tol=q.rel_tol, abs_tol=abs_tol, args=(x, h))


def posterior_tau_payoff(model: MarketModel, t: float, x: float, g,
                         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Posterior expectation of g(tau, H) given one observation of the process.

    On the revealed branch the payoff atom is read off the ray and tau is
    averaged over (0, t] under its prior restricted there; on the survival
    branch the joint density over (t, T] x atoms is applied as displayed.
    g(r, h) is called with an array r of default times and a float h, and
    returns one value per time; it may change sign.  The result is resolved
    to q.rel_tol relative plus q.abs_tol absolute: on the survival branch the
    numerator's absolute tolerance is q.abs_tol times the posterior mass.
    The denominator takes every payoff atom in one call of the survival
    kernel; the numerator integrates one atom at a time, since g gets one
    float h.
    """
    i = _revealed_atom(model, t, x)
    law = model.default_law
    if i is not None:
        h_i = float(model.payoff.support[i])
        return law.integrate(lambda r: g(r, h_i), 0.0, t, rel_tol=q.rel_tol, abs_tol=q.abs_tol) / law.cdf(t)
    support, probs = model.payoff.support, model.payoff.probs
    den = sum(p * kern for p, kern in zip(probs, survival_kernel(model, t, x, support, q)))
    if den <= 0.0 or not np.isfinite(den):
        raise ArithmeticError("survival posterior mass vanished")
    num = sum(p * _survival_integral(model, t, x, float(h), q, g, q.abs_tol * den)
              for h, p in zip(support, probs))
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
        # one call over the (payoff atom, later default atom) cells, on a leading axis
        likes = bridge_levy_density(model, t, x, _atom_axis([r - t for r, _, _ in cells], x),
                                    _atom_axis([h for _, h, _ in cells], x), model.levy_drift_scale * t, q)
    else:
        cells = [(None, float(h), p) for h, p in zip(support, model.payoff.probs)]
        likes = survival_kernel(model, t, x, _atom_axis(support, x), q)
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
    _require_binary(model)
    i = _revealed_atom(model, t, x)
    if i is not None:
        return model.discount(t) * float(model.payoff.support[i])
    q0, q1 = survival_kernel(model, t, x, model.payoff.support, q)
    return binary_from_ratio(model, t, likelihood_ratio(float(q1), float(q0)))


def option_value_default(model: MarketModel, t: float, strike: float,
                         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Time-0 value of a call exercisable at t on the defaultable bond.

    Sum of the revealed part, weighted by P(tau <= t), and the survival part,
    an x-integral of the positive part of the strike-adjusted survival kernels.
    Under a density the kernels have cusps on the payoff rays, where default
    times just after t pile up; an atom law's kernels are smooth.
    """
    law = _require_default_law(model)
    rays = () if law.is_discrete else model.sigma * t * model.payoff.support
    survival = option_integral(model, t, strike, lambda h, x: survival_kernel(model, t, x, h, q),
                               model.levy_drift_scale * t, rays)
    p_tT = model.discount(t)
    revealed = law.cdf(t) * sum(max(p_tT * h - strike, 0.0) * p
                                for h, p in zip(model.payoff.support, model.payoff.probs))
    return model.discount(0.0, t) * (revealed + survival)


def _require_default_law(model: MarketModel):
    if model.default_law is None:
        raise ValueError("model carries no default time law")
    return model.default_law
