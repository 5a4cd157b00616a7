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
from scipy.special import gammaln

from .model import MarketModel
from .numerics import (DEFAULT_QUADRATURE, GAUSS_BREAKS, Quadrature,
                       gauss_density, integrate_levy,
                       parabolic_cylinder_log_D, positive_part_integral)

_WEIGHT_TOL = 1e-10
_OPTION_ABS_TOL, _OPTION_REL_TOL = 1e-10, 1e-8
_PRICE_SLACK = 1e-9
_ENDPOINT_SNAP = 1e-9
_SERIES_TOL = 1e-16
_VANISHED = "posterior mass vanished: observation too deep in the tails"
_BRACKET_WIDTH = 12.0
# pairs of y and outer node per inner integral of transition_density_psi, which bounds its temporaries
_PSI_PAIRS = 1 << 11


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
                        q: Quadrature):
    """Density at x of sigma*t*h + a bridge of length t + s at time t + k * X_s.

    s is the time the bridge still runs after t.  The Gaussian bridge has
    variance t s / (t + s); X_s is the reversed Levy marginal of the model's
    noise law.  This is the one likelihood kernel of both models: the
    maturity model is s = T - t, k = t/T, and the default-time model is
    s = tau - t, k = mu*t, where s keeps its precision however close tau
    comes to t.  x, s and the payoff h may be arrays that broadcast
    together; the result then has their broadcast shape, and each element
    has its own variance and law time.  With the payoff atoms on a leading
    axis of h (see ``_atom_axis``), one call gives every atom's likelihood.
    """
    x, s, h = (np.asarray(a, dtype=float) for a in (x, s, h))
    v = t * s / (t + s)
    shift = (x - model.sigma * t * h)[..., None]
    if k == 0.0:
        dens = gauss_density(v, shift[..., 0])
        return float(dens) if dens.ndim == 0 else dens
    # a subnormal k sends break points past the float range; integrate_levy drops them
    with np.errstate(over="ignore", invalid="ignore"):
        points = shift / k + (np.sqrt(v)[..., None] / abs(k)) * GAUSS_BREAKS
    return integrate_levy(lambda y: gauss_density(v[..., None], shift - k * y), model.levy, s, q,
                          points=points)


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


def bond_price(model: MarketModel, t: float, x: float,
               q: Quadrature = DEFAULT_QUADRATURE) -> PriceQuote:
    """Discounted posterior mean of the payoff.

    The endpoints are defined by continuity: the prior mean at t = 0, and the
    revealed payoff read off x = sigma*T*h at t = T (nearest-atom snap).
    """
    T = model.maturity
    support = model.payoff.support
    if t == 0.0:
        posterior = tuple(zip(support.tolist(), model.payoff.probs.tolist()))
        return PriceQuote(t, x, model.discount(0.0) * model.payoff.mean(), posterior)
    if t == T:
        target = x / (model.sigma * T)
        i = int(np.argmin(np.abs(support - target)))
        if abs(model.sigma * T * support[i] - x) > _ENDPOINT_SNAP * abs(model.sigma) * T:
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
    """Interval outside which sigma*t*h + bridge + k * X_{T-t} carries < 1e-12 mass.

    k is the Levy coefficient of bridge_levy_density: t/T in the maturity
    model, mu*t in the default-time model, whose shorter bridges only narrow
    the interval.
    """
    T = model.maturity
    sd = np.sqrt(t * (T - t) / T)
    signals = model.sigma * t * model.payoff.support
    span = k * model.levy.tail_quantile(T - t)
    lo = float(signals.min() + min(0.0, span) - _BRACKET_WIDTH * sd)
    hi = float(signals.max() + max(0.0, span) + _BRACKET_WIDTH * sd)
    return lo, hi


def option_integral(model: MarketModel, t: float, strike: float, kernel, k: float, kinks=()) -> float:
    """Integral over x of the positive part of sum_h p_h (P_t^T h - K) kernel(h, x).

    kernel(h, x) is the likelihood of the observations x given payoff h,
    with Levy coefficient k (see x_bracket), and ``kinks`` holds the x where
    it is not smooth.  It gets every payoff atom at once, on a leading axis
    of h in front of the axes of x, and returns one row per atom.  Both
    option routes share it.
    """
    if not 0.0 < t < model.maturity:
        raise ValueError("need 0 < t < T")
    if strike < 0.0:
        raise ValueError("strike must be nonnegative")
    p_tT = model.discount(t)
    support, probs = model.payoff.support, model.payoff.probs

    def g(x):
        table = kernel(_atom_axis(support, x), x)
        return sum((p_tT * h - strike) * row * p for h, p, row in zip(support, probs, table))

    lo, hi = x_bracket(model, t, k)
    return positive_part_integral(g, lo, hi, _OPTION_ABS_TOL, _OPTION_REL_TOL, kinks)


def option_value(model: MarketModel, t: float, strike: float,
                 q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Value at time 0 of a call exercisable at t on the bond maturing at T.

    Discounted positive part of the strike-adjusted likelihood mixture,
    integrated over every value the information process can take at t.
    """
    val = option_integral(model, t, strike, lambda h, x: likelihood_q(model, t, h, x, q), t / model.maturity)
    return model.discount(0.0, t) * val


# -- transition density of the noise process -------------------------------------

def transition_density_psi(model: MarketModel, t: float, u: float, x: float, y,
                           q: Quadrature = DEFAULT_QUADRATURE):
    """Conditional density at y of the noise process at time u given value x at t.

    The numerator integrates, over the Levy increment y1 on (T-u, T-t] and the
    terminal-piece value y2 at T-u, the Gaussian bridge transition from
    x - (t/T)(y1+y2) to y - (u/T) y2 times the density of the time-t value;
    the denominator is the unconditional density of x, bridge_levy_density
    at h = 0.  The inner quadrature variable is the one with the smaller law
    time; the tolerance budget is split 90/10 between inner and outer.

    y may be an array: the result is a float for a scalar y and an array of
    y's shape otherwise.  The outer integral runs over every y at once; the
    inner one runs once per distinct pair of y and outer node in a round,
    so the unused slots of an outer element, which all hold one node, cost
    one inner integral between them.  The denominator, which does not
    depend on y, is computed once.
    """
    T = model.maturity
    if not 0.0 < t < u < T:
        raise ValueError("need 0 < t < u < T")
    y = np.asarray(y, dtype=float)
    law = model.levy
    vt = t * (T - t) / T
    bridge_var = (T - u) * (u - t) / (T - t)
    shrink = (T - u) / (T - t)
    s_inc = u - t
    s_end = T - u
    k = t / T

    def core(y1, y2, y):
        mean_t = (t / T) * (y1 + y2)
        return (gauss_density(bridge_var, y - (u / T) * y2, shrink * (x - mean_t))
                * gauss_density(vt, x, mean_t))

    def inner_points(d1, c1, d2, c2):
        # core is a product of Gaussians in the inner variable z, exp(-(d_i + c_i z)^2 / 2 V_i)
        prec = c1 * c1 / bridge_var + c2 * c2 / vt
        centre = -(c1 * d1 / bridge_var + c2 * d2 / vt) / prec
        return centre[..., None] + GAUSS_BREAKS / np.sqrt(prec)

    inner_q = q.scaled(0.9)
    if s_inc <= s_end:
        s_outer = s_end

        def inner(y, y2):
            pts = inner_points(y - (u / T) * y2 - shrink * x + shrink * k * y2, shrink * k, x - k * y2, -k)
            return integrate_levy(lambda y1: core(y1, y2[:, None], y[:, None]), law, s_inc, inner_q,
                                  points=pts)
    else:
        s_outer = s_inc

        def inner(y, y1):
            pts = inner_points(y - shrink * x + shrink * k * y1, shrink * k - u / T, x - k * y1, -k)
            return integrate_levy(lambda y2: core(y1[:, None], y2, y[:, None]), law, s_end, inner_q,
                                  points=pts)

    def outer_f(z):
        ys, z = np.broadcast_arrays(y[..., None], z)
        # the distinct (y, z) pairs, as complex numbers y + iz
        pairs, at = np.unique(ys.ravel() + 1j * z.ravel(), return_inverse=True)
        chunks = (pairs[i:i + _PSI_PAIRS] for i in range(0, max(pairs.size, 1), _PSI_PAIRS))
        vals = np.concatenate([inner(c.real, c.imag) for c in chunks])
        return vals[at].reshape(z.shape)

    num = integrate_levy(outer_f, law, s_outer, q.scaled(0.1))
    return num / bridge_levy_density(model, t, x, T - t, 0.0, k, q)
