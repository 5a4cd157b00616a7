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
_PRICE_SLACK = 1e-9
_ENDPOINT_SNAP = 1e-9
_BRACKET_WIDTH = 12.0


@dataclass(frozen=True)
class PriceQuote:
    """Bond price at (t, x) together with the payoff posterior behind it."""

    t: float
    observation: float
    price: float
    posterior: tuple

    def __post_init__(self):
        weights = np.array([w for _, w in self.posterior])
        if np.any(weights < -_WEIGHT_TOL) or abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("posterior weights must be a probability vector")

    def posterior_mean(self) -> float:
        return float(sum(h * w for h, w in self.posterior))


def bayes_posterior(likelihoods, priors) -> np.ndarray:
    """Normalized weights proportional to likelihood * prior, atoms on the first axis.

    Trailing axes of the likelihoods run over observations.
    """
    likes = np.asarray(likelihoods, dtype=float)
    w = likes * np.asarray(priors, dtype=float).reshape((-1,) + (1,) * (likes.ndim - 1))
    total = w.sum(axis=0)
    if not np.all(np.isfinite(total) & (total > 0.0)):
        raise ArithmeticError("posterior mass vanished: observation too deep in the tails")
    return w / total


def discount(model: MarketModel, t: float) -> float:
    """P_t^T, the default-free zero-coupon bond price."""
    return model.discount(t)


def likelihood_q(model: MarketModel, t: float, h: float, x,
                 q: Quadrature = DEFAULT_QUADRATURE):
    """Density of the information value x at time t given payoff h.

    Gaussian bridge density of variance t(T-t)/T centred at sigma*t*h plus
    the scaled noise value (t/T) y, mixed over the reversed Levy marginal.
    x may be an array of observations; the result then has its shape.
    """
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    v = t * (T - t) / T
    shift = np.asarray(x, dtype=float)[..., None] - model.sigma * t * h
    scale = t / T
    return integrate_levy(lambda y: gauss_density(v, shift - scale * y), model.levy, T - t, q,
                          points=shift / scale + (np.sqrt(v) / scale) * GAUSS_BREAKS)


def _posterior_weights(model: MarketModel, t: float, x, q: Quadrature) -> np.ndarray:
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


def _binary_from_ratio(model: MarketModel, t: float, ratio_10: float) -> float:
    """Price from the likelihood ratio q(h1)/q(h0), as in the two-atom formula."""
    h0, h1 = model.payoff.support
    p1 = float(model.payoff.probs[1])
    w0 = 1.0 / (1.0 + ratio_10 * (p1 / (1.0 - p1)))
    w1 = 1.0 / (1.0 + (1.0 / ratio_10) * ((1.0 - p1) / p1))
    return model.discount(t) * (h0 * w0 + h1 * w1)


def binary_bond_price(model: MarketModel, t: float, x: float,
                      q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Two-atom specialization written through the likelihood ratio."""
    _require_binary(model)
    h0, h1 = model.payoff.support
    ratio = likelihood_q(model, t, h1, x, q) / likelihood_q(model, t, h0, x, q)
    return _binary_from_ratio(model, t, ratio)


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
    return _binary_from_ratio(model, t, ratio)


def poisson_closed_form_price(model: MarketModel, t: float, x: float,
                              series_tol: float = 1e-16) -> float:
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
            small = small + 1 if (term < prev and term < series_tol * total) else 0
            prev = term
            i += 1
            if i > 100_000:
                raise ArithmeticError("payoff series did not converge")
        return log_b + np.log(total)

    h0, h1 = model.payoff.support
    ratio = np.exp(log_ab(h1) - log_ab(h0))
    return _binary_from_ratio(model, t, ratio)


def _require_binary(model: MarketModel) -> None:
    if not model.payoff.is_binary:
        raise ValueError("this route needs a two-atom payoff")


# -- option valuation -----------------------------------------------------------

def x_bracket(model: MarketModel, t: float, width: float = _BRACKET_WIDTH) -> tuple[float, float]:
    """Interval outside which the information value carries < 1e-12 mass."""
    T = model.maturity
    sd = np.sqrt(t * (T - t) / T)
    signals = model.sigma * t * model.payoff.support
    y_hi = model.levy.tail_quantile(T - t)
    lo = float(signals.min() - width * sd)
    hi = float(signals.max() + (t / T) * y_hi + width * sd)
    return lo, hi


def option_value(model: MarketModel, t: float, strike: float,
                 q: Quadrature = DEFAULT_QUADRATURE,
                 outer_abs_tol: float = 1e-10, outer_rel_tol: float = 1e-8) -> float:
    """Value at time 0 of a call exercisable at t on the bond maturing at T.

    Discounted positive part of the strike-adjusted likelihood mixture,
    integrated over every value the information process can take at t.
    """
    T = model.maturity
    if not 0.0 < t < T:
        raise ValueError("need 0 < t < T")
    if strike < 0.0:
        raise ValueError("strike must be nonnegative")
    p_tT = model.discount(t)
    support = model.payoff.support
    probs = model.payoff.probs

    def g(x):
        return sum((p_tT * h - strike) * likelihood_q(model, t, h, x, q) * p
                   for h, p in zip(support, probs))

    lo, hi = x_bracket(model, t)
    val = positive_part_integral(g, lo, hi, outer_abs_tol, outer_rel_tol)
    return model.discount(0.0, t) * val


# -- transition density of the noise process -------------------------------------

def transition_density_psi(model: MarketModel, t: float, u: float, x: float, y,
                           q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Conditional density at y of the noise process at time u given value x at t.

    The numerator integrates, over the Levy increment y1 on (T-u, T-t] and the
    terminal-piece value y2 at T-u, the Gaussian bridge transition from
    x - (t/T)(y1+y2) to y - (u/T) y2 times the density of the time-t value;
    the denominator is the unconditional density of x.  The inner quadrature
    variable is the one with the smaller law time; the tolerance budget is
    split 90/10 between inner and outer.
    """
    T = model.maturity
    if not 0.0 < t < u < T:
        raise ValueError("need 0 < t < u < T")
    law = model.levy
    vt = t * (T - t) / T
    bridge_var = (T - u) * (u - t) / (T - t)
    shrink = (T - u) / (T - t)
    s_inc = u - t
    s_end = T - u

    def core(y1, y2):
        mean_t = (t / T) * (y1 + y2)
        return (gauss_density(bridge_var, y - (u / T) * y2, shrink * (x - mean_t))
                * gauss_density(vt, x, mean_t))

    def inner_points(d1, c1, d2, c2):
        # core is a product of Gaussians in the inner variable z, exp(-(d_i + c_i z)^2 / 2 V_i)
        prec = c1 * c1 / bridge_var + c2 * c2 / vt
        centre = -(c1 * d1 / bridge_var + c2 * d2 / vt) / prec
        return centre[..., None] + GAUSS_BREAKS / np.sqrt(prec)

    inner_q = q.scaled(0.9)
    outer_q = q.scaled(0.1)
    k = t / T
    if s_inc <= s_end:
        def outer_f(y2):
            pts = inner_points(y - (u / T) * y2 - shrink * x + shrink * k * y2, shrink * k, x - k * y2, -k)
            return integrate_levy(lambda y1: core(y1, y2[..., None]), law, s_inc, inner_q, points=pts)
        num = integrate_levy(outer_f, law, s_end, outer_q)
    else:
        def outer_f(y1):
            pts = inner_points(y - shrink * x + shrink * k * y1, shrink * k - u / T, x - k * y1, -k)
            return integrate_levy(lambda y2: core(y1[..., None], y2), law, s_end, inner_q, points=pts)
        num = integrate_levy(outer_f, law, s_inc, outer_q)
    den = integrate_levy(lambda w: gauss_density(vt, x, k * w), law, T - t, q,
                         points=x / k + (np.sqrt(vt) / k) * GAUSS_BREAKS)
    return num / den
