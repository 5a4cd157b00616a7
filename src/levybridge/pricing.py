"""Information-based bond and option pricing with bridge-plus-Levy noise.

Everything here conditions on a single observed value x of the market
information process at time t.  The posterior over the payoff atoms follows
one Bayes shape shared with the default-time model: weights proportional to
likelihood times prior, where the likelihood mixes a Gaussian bridge density
over the reversed Levy marginal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr

from .model import MarketModel
from .numerics import (DEFAULT_QUADRATURE, GAUSS_BREAKS, Quadrature,
                       gauss_density, in_blocks, integrate_levy,
                       parabolic_cylinder_log_D, positive_intervals)

_WEIGHT_TOL = 1e-10
_PRICE_SLACK = 1e-9
_RAY_TOL = 1e-9
_SERIES_TOL = 1e-16
_VANISHED = "posterior mass vanished: observation too deep in the tails"
_BRACKET_WIDTH = 12.0


@dataclass(frozen=True)
class PriceQuote:
    """Bond price at (t, x) together with the payoff posterior behind it."""

    t: float
    observation: float
    price: float
    posterior: tuple

    def __post_init__(self):
        require_probability_vector([w for _, w in self.posterior])

    def posterior_mean(self) -> float:
        return float(sum(h * w for h, w in self.posterior))


def require_probability_vector(weights) -> None:
    """Raise ValueError unless the weights are finite, nonnegative and sum to 1."""
    w = np.array(weights, dtype=float)
    if not np.all(np.isfinite(w)) or np.any(w < -_WEIGHT_TOL) or abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise ValueError("posterior weights must be a probability vector")


def bayes_posterior(likelihoods, priors) -> np.ndarray:
    """Normalized weights proportional to likelihood * prior, atoms on the first axis.

    Trailing axes of the likelihoods run over observations.
    """
    likes = np.asarray(likelihoods, dtype=float)
    w = likes * np.asarray(priors, dtype=float).reshape((-1,) + (1,) * (likes.ndim - 1))
    total = w.sum(axis=0)
    if not np.all(np.isfinite(total) & (total > 0.0)):
        raise ArithmeticError(_VANISHED)
    return w / total


def bridge_levy_density(model: MarketModel, t: float, x, s, h, k: float,
                        q: Quadrature, factor=gauss_density):
    """Density at x of sigma*t*h + a bridge of length t + s at time t + k * X_s.

    s is the time the bridge still runs after t.  The Gaussian bridge has
    variance t s / (t + s); X_s is the reversed Levy marginal of the model's
    noise law.  This is the one likelihood kernel of both models: the
    maturity model is s = T - t, k = t/T, and the default-time model is
    s = tau - t, k = mu*t, where s keeps its precision however close tau
    comes to t; psi is three calls of it (``transition_density_psi``).
    x, s and the payoff h may be arrays that broadcast
    together; the result then has their broadcast shape, and each element
    has its own variance and law time.  With the payoff atoms on a leading
    axis of h (see ``_atom_axis``), one call gives every atom's likelihood.
    factor(v, z), the Gaussian factor at z = x - sigma*t*h - k*y with a node
    axis last, is the density; a distribution function of z / sqrt(v) gives
    the probability of a half-line instead (see ``option_integral``).  The
    broadcast elements go to integrate_levy flattened, in blocks of at most
    2048 (``in_blocks``): an element's integral does not depend on the
    others, bit for bit, so the blocks move no value and bound each call's
    panel store.
    """
    x, s, h = (np.asarray(a, dtype=float) for a in (x, s, h))
    elems = np.broadcast_arrays(t * s / (t + s), x - model.sigma * t * h, s)
    v, shift, s = (a.reshape(-1, 1) for a in elems)

    def block(b):
        if k == 0.0:
            return factor(v[b], shift[b])[:, 0]
        # a subnormal k sends break points past the float range; integrate_levy drops them
        with np.errstate(over="ignore", invalid="ignore"):
            points = shift[b] / k + (np.sqrt(v[b]) / abs(k)) * GAUSS_BREAKS
        vb, sb = v[b], shift[b]
        return integrate_levy(lambda n: factor(vb[n.elem], sb[n.elem] - k * n.y), model.levy, s[b, 0], q, points=points)

    dens = in_blocks(block, s.shape[0]).reshape(elems[0].shape)
    return float(dens) if dens.ndim == 0 else dens


def _atom_axis(values, x) -> np.ndarray:
    """One value per payoff atom on a leading axis, in front of the axes of the observations x."""
    values = np.asarray(values, dtype=float)
    return values.reshape(values.shape + (1,) * np.ndim(x))


def likelihood_q(model: MarketModel, t: float, h, x,
                 q: Quadrature = DEFAULT_QUADRATURE):
    """Density of the information value x at time t given payoff h.

    Gaussian bridge density of variance t(T-t)/T centred at sigma*t*h plus
    the scaled noise value (t/T) y, mixed over the reversed Levy marginal.
    x may be an array of observations, and h an array of payoffs that
    broadcasts with it (the atoms on a leading axis); the result then has
    their broadcast shape.
    """
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    return bridge_levy_density(model, t, x, T - t, h, t / T, q)


def _posterior_weights(model: MarketModel, t: float, x, q: Quadrature) -> np.ndarray:
    # one call per atom only because perfbench's instrumentation test pins a binary bond_price
    # at two likelihood_q and two integrate_levy calls; an atom axis would give the same bits
    likes = [likelihood_q(model, t, h, x, q) for h in model.payoff.support]
    return bayes_posterior(likes, model.payoff.probs)


def posterior_payoff(model: MarketModel, t: float, x: float,
                     q: Quadrature = DEFAULT_QUADRATURE) -> list[tuple[float, float]]:
    """Posterior distribution of the payoff given one observation of the signal."""
    weights = _posterior_weights(model, t, x, q)
    return list(zip(model.payoff.support.tolist(), weights.tolist()))


def posterior_mean(model: MarketModel, t: float, x,
                   q: Quadrature = DEFAULT_QUADRATURE):
    """Posterior mean of the payoff; x may be an array of observations."""
    mean = np.tensordot(model.payoff.support, _posterior_weights(model, t, x, q), axes=1)
    return float(mean) if mean.ndim == 0 else mean


def _match_atom(model: MarketModel, t: float, x: float) -> int | None:
    """Index of the payoff atom whose ray sigma*t*h passes through x within 1e-9 * max(1, |sigma| t), if any.

    The one on-ray test of both models: the payoff is revealed at T, or at default.
    """
    dist = np.abs(model.sigma * t * model.payoff.support - x)
    i = int(np.argmin(dist))
    return i if dist[i] <= _RAY_TOL * max(1.0, abs(model.sigma) * t) else None


def bond_price(model: MarketModel, t: float, x: float,
               q: Quadrature = DEFAULT_QUADRATURE) -> PriceQuote:
    """Discounted posterior mean of the payoff.

    The endpoints are defined by continuity: the prior mean at t = 0, and at
    t = T the payoff whose ray x lies on (``_match_atom``); ValueError off the rays.
    """
    T = model.maturity
    support = model.payoff.support
    if t == 0.0:
        posterior = tuple(zip(support.tolist(), model.payoff.probs.tolist()))
        return PriceQuote(t, x, model.discount(0.0) * model.payoff.mean(), posterior)
    if t == T:
        i = _match_atom(model, T, x)
        if i is None:
            raise ValueError("terminal observation does not match any payoff atom")
        posterior = tuple((float(hj), 1.0 if j == i else 0.0) for j, hj in enumerate(support))
        return PriceQuote(t, x, float(support[i]), posterior)
    posterior = posterior_payoff(model, t, x, q)
    price = model.discount(t) * sum(h * w for h, w in posterior)
    _check_price_bounds(model, t, price)
    return PriceQuote(t, x, price, tuple(posterior))


def _check_price_bounds(model: MarketModel, t: float, price: float) -> None:
    p = model.discount(t)
    lo, hi = model.payoff.support.min() * p, model.payoff.support.max() * p
    slack = _PRICE_SLACK * max(1.0, abs(lo), abs(hi))
    if not lo - slack <= price <= hi + slack:
        raise ArithmeticError(f"price {price} escaped the convex hull [{lo}, {hi}]")


def likelihood_ratio(q1: float, q0: float) -> float:
    """q1 / q0, infinite when only q0 vanished; ArithmeticError when both did."""
    if q0 == 0.0 == q1:
        raise ArithmeticError(_VANISHED)
    return q1 / q0 if q0 != 0.0 else np.inf


def binary_from_ratio(model: MarketModel, t: float, ratio_10: float) -> float:
    """Price from the likelihood ratio q(h1)/q(h0), as in the two-atom formula; 0 and inf included."""
    h0, h1 = model.payoff.support
    p1 = float(model.payoff.probs[1])
    w0 = 1.0 / (1.0 + ratio_10 * (p1 / (1.0 - p1)))
    with np.errstate(divide="ignore"):
        w1 = 1.0 / (1.0 + np.divide(1.0, ratio_10) * ((1.0 - p1) / p1))
    return model.discount(t) * (h0 * w0 + h1 * w1)


def binary_bond_price(model: MarketModel, t: float, x: float,
                      q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Two-atom specialization written through the likelihood ratio."""
    _require_binary(model)
    q0, q1 = likelihood_q(model, t, model.payoff.support, x, q)
    return binary_from_ratio(model, t, likelihood_ratio(float(q1), float(q0)))


def gamma_closed_form_price(model: MarketModel, t: float, x: float,
                            q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Closed form for the binary bond under gamma noise via the parabolic cylinder D.

    The likelihood integral reduces to a Gaussian-power integral whose value is
    (2 beta)^(-nu/2) Gamma(nu) exp(alpha^2 / 8 beta) D_{-nu}(alpha sqrt(T/(t(T-t)))),
    with nu = T - t; all h-independent prefactors cancel in the ratio.
    """
    _require_binary(model)
    if model.levy.kind != "gamma":
        raise ValueError("gamma closed form needs the standard gamma law")
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    sig = model.sigma

    def log_ab(h):
        z = x - sig * t * h
        arg = T - t + sig * t * h - x
        log_a = -T * z * z / (2.0 * t * (T - t)) + T * arg * arg / (4.0 * t * (T - t))
        log_d = parabolic_cylinder_log_D(t - T, arg * np.sqrt(T / (t * (T - t))), q)
        return log_a + log_d

    h0, h1 = model.payoff.support
    ratio = np.exp(log_ab(h1) - log_ab(h0))
    return binary_from_ratio(model, t, ratio)


def poisson_closed_form_price(model: MarketModel, t: float, x: float) -> float:
    """Closed form for the binary bond under Poisson noise as a lattice series."""
    _require_binary(model)
    if model.levy.kind != "poisson":
        raise ValueError("Poisson closed form needs the Poisson law")
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    sig = model.sigma
    m = model.levy.rate * (T - t)
    quad_coef = t / (2.0 * T * (T - t))

    def log_ab(h):
        z = x - sig * t * h
        log_b = -T * z * z / (2.0 * t * (T - t))
        total = 0.0
        prev = 0.0
        i = 0
        small = 0
        while small < 4:
            term = np.exp(z * i / (T - t) - quad_coef * i * i + i * np.log(m) - gammaln(i + 1.0))
            total += term
            # the summand is log-concave in i, so once a term falls below its
            # predecessor the peak is behind and the terms only shrink
            small = small + 1 if (term < prev and term < _SERIES_TOL * total) else 0
            prev = term
            i += 1
            if i > 100_000:
                raise ArithmeticError("payoff series did not converge")
        return log_b + np.log(total)

    h0, h1 = model.payoff.support
    ratio = np.exp(log_ab(h1) - log_ab(h0))
    return binary_from_ratio(model, t, ratio)


def _require_binary(model: MarketModel) -> None:
    if not model.payoff.is_binary:
        raise ValueError("this route needs a two-atom payoff")


# -- option valuation -----------------------------------------------------------

def x_bracket(model: MarketModel, t: float, k: float) -> tuple[float, float]:
    """Interval outside which sigma*t*h + bridge + k * X_{T-t} carries < 1e-12 mass: the option's scan range.

    k is the Levy coefficient of bridge_levy_density: t/T in the maturity
    model, mu*t in the default-time model, whose shorter bridges only narrow
    the interval.  The option's intervals end at its ends.
    """
    T = model.maturity
    sd = np.sqrt(t * (T - t) / T)
    signals = model.sigma * t * model.payoff.support
    span = k * model.levy.tail_quantile(T - t)
    lo = float(signals.min() + min(0.0, span) - _BRACKET_WIDTH * sd)
    hi = float(signals.max() + max(0.0, span) + _BRACKET_WIDTH * sd)
    return lo, hi


def option_integral(model: MarketModel, t: float, strike: float, kernel, k: float, e: float, rays=()) -> float:
    """Integral over x of the positive part of g = sum_h p_h (P_t^T h - K) kernel(h, x), as a finite sum.

    kernel(h, x, factor) is bridge_levy_density with Levy coefficient k (see
    x_bracket), or its integral over default times, with Gaussian factor
    ``factor``; it gets every payoff atom on a leading axis of h and returns
    one row per atom.  When every coefficient p_h (P_t^T h - K) is <= 0, g
    is nowhere positive and the value is 0.0 with no kernel call; when
    every one is >= 0, g is nowhere negative and all of x_bracket is the
    one interval, as the scan would return it.  Otherwise g is scanned at
    a quarter of the narrowest bridge's standard deviation,
    sqrt(t (e - t) / e), plus the ``rays``, where the kernel has cusps.
    Each interval (a, b] where g > 0 adds every atom's mass there, from
    one kernel call per side that holds an interval, with a Gaussian
    distribution function as its factor: a mass below its law's mean,
    sigma t h + k E[X_(e-t)], is a difference of lower tails and one above
    it of upper tails, so that none is a difference of two values near 1.
    """
    if not 0.0 < t < model.maturity:
        raise ValueError("need 0 < t < T")
    if strike < 0.0:
        raise ValueError("strike must be nonnegative")
    support, probs = model.payoff.support, model.payoff.probs
    coef = (model.discount(t) * support - strike) * probs

    def g(x):
        return sum(c * row for c, row in zip(coef, kernel(_atom_axis(support, x), x, gauss_density)))

    if np.all(coef <= 0.0):
        return 0.0
    lo, hi = x_bracket(model, t, k)
    if np.all(coef >= 0.0):
        ends = np.array([[lo, hi]])
    else:
        ends = positive_intervals(g, lo, hi, np.sqrt(t * (e - t) / e) / 4.0, rays)
    h, x = np.broadcast_arrays(support[:, None, None], ends)
    up = x[..., 0] >= (model.sigma * t * support + k * model.levy.mean(e - t))[:, None]
    mass = np.zeros(up.shape)
    for side, sel in ((1.0, ~up), (-1.0, up)):
        if np.any(sel):
            tails = kernel(h[sel], x[sel], lambda v, z: ndtr(side * z / np.sqrt(v)))
            mass[sel] = side * (tails[:, 1] - tails[:, 0])
    return float(coef @ mass.sum(axis=1))


def option_value(model: MarketModel, t: float, strike: float,
                 q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Value at time 0 of a call exercisable at t on the bond maturing at T.

    Discounted positive part of the strike-adjusted likelihood mixture over
    every value the information process can take at t (``option_integral``).
    """
    T = model.maturity
    return model.discount(0.0, t) * option_integral(
        model, t, strike, lambda h, x, f: bridge_levy_density(model, t, x, T - t, h, t / T, q, f), t / T, T)


# -- transition density of the noise process -------------------------------------

def transition_density_psi(model: MarketModel, t: float, u: float, x: float, y,
                           q: Quadrature = DEFAULT_QUADRATURE):
    """Conditional density at y of the noise process at time u given value x at t.

    By Bayes' rule psi is the density of y at u times the density of x at t
    given y at u, over the density of x at t.  Given y at u, the value at t
    is a Gaussian bridge from 0 to y over [0, u] plus t/T times the Levy
    increment on (T-u, T-t], whatever the terminal piece at T-u: the
    Markov property that pinning by the time-reversed Levy process keeps.
    So the three factors are likelihood kernels, bridge_levy_density with
    h = 0 at (u, y, T-u, u/T), at (t, x - (t/u) y, u-t, t/T) and, below,
    at (t, x, T-t, t/T), and psi has no nested integral.  (The nested form
    integrates the bridge transition from x - (t/T)(y1+y2) to y - (u/T) y2
    against the increment y1 and the terminal piece y2; the y1 y2 term and
    the minimum of its Gaussian exponent are exactly 0, and it equals this
    product at every (y1, y2).)  Each factor of the numerator is resolved
    relative to itself to half of q.rel_tol, so their relative errors add
    up to it.

    y may be an array: the result is a float for a scalar y and an array of
    y's shape otherwise.  The denominator, which does not depend on y, is
    computed once, first: a vanishing density of x raises ArithmeticError
    before the numerator runs.  Each factor then makes one engine call per
    block of at most 2048 y values (``in_blocks``), three calls in all for
    a table of up to 2048 points.
    """
    T = model.maturity
    if not 0.0 < t < u < T:
        raise ValueError("need 0 < t < u < T")
    den = bridge_levy_density(model, t, x, T - t, 0.0, t / T, q)
    if not 0.0 < den < np.inf:
        raise ArithmeticError("density of the observation vanished: x too deep in the tails")
    y, half = np.asarray(y, dtype=float), q.scaled(0.5)
    return (bridge_levy_density(model, u, y, T - u, 0.0, u / T, half)
            * bridge_levy_density(model, t, x - (t / u) * y, u - t, 0.0, t / T, half) / den)
