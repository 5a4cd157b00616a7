"""Market model bundle and its JSON document format."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .laws import DefaultTimeLaw, LevyLaw, PayoffDistribution


@dataclass(frozen=True)
class RateCurve:
    """Deterministic short rate, flat or piecewise constant between knots."""

    times: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        rates = np.atleast_1d(np.asarray(self.rates, dtype=float))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rates", rates)
        if times.shape != rates.shape:
            raise ValueError("times and rates must match")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(rates))):
            raise ValueError("rate knots and rates must be finite")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise ValueError("rate knots must start at 0 and increase")

    @classmethod
    def flat(cls, rate: float) -> "RateCurve":
        return cls(np.array([0.0]), np.array([float(rate)]))

    @property
    def is_flat(self) -> bool:
        return self.times.size == 1

    def rate(self, t: float) -> float:
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.rates[max(idx, 0)])

    def integral(self, a: float, b: float) -> float:
        """Integral of r(u) du over [a, b], piecewise exact."""
        if b < a:
            return -self.integral(b, a)
        knots = np.concatenate([[a], self.times[(self.times > a) & (self.times < b)], [b]])
        mids = (knots[:-1] + knots[1:]) / 2.0
        return float(sum(self.rate(m) * dt for m, dt in zip(mids, np.diff(knots))))


@dataclass(frozen=True)
class MarketModel:
    """One pricing problem: horizon, signal strength, noise and payoff laws.

    ``levy_drift_scale`` is the multiplier on the reversed Levy part of the
    default-time information process.  It is distinct from the dominating
    measure used in the joint-posterior derivation, which never appears as a
    model parameter.
    """

    maturity: float
    sigma: float
    levy_drift_scale: float
    rate: RateCurve
    payoff: PayoffDistribution
    levy: LevyLaw
    default_law: DefaultTimeLaw | None = None

    def __post_init__(self):
        if not (0.0 < self.maturity < np.inf and np.isfinite(self.sigma) and np.isfinite(self.levy_drift_scale)):
            raise ValueError("maturity must be positive, and maturity, sigma and mu finite")
        if self.sigma == 0.0:
            raise ValueError("sigma must be nonzero for posterior identifiability")
        if self.default_law is not None and self.default_law.horizon > self.maturity + 1e-12:
            raise ValueError("default law must be supported on (0, maturity]")

    def discount(self, t: float, u: float | None = None) -> float:
        """Price at t of the default-free zero-coupon bond maturing at u (default: T)."""
        u = self.maturity if u is None else u
        return float(np.exp(-self.rate.integral(t, u)))


def _rate_from_json(doc: dict) -> RateCurve:
    kind = doc.get("kind", "flat")
    if kind == "flat":
        return RateCurve.flat(float(doc.get("r", 0.0)))
    if kind == "table":
        return RateCurve(np.asarray(doc["times"]), np.asarray(doc["rates"]))
    raise ValueError(f"unknown rate kind {kind!r}")


def _default_law_from_json(doc: dict, horizon: float) -> DefaultTimeLaw:
    kind = doc["kind"]
    if kind == "atoms":
        return DefaultTimeLaw.atoms(doc["times"], doc["weights"], horizon=horizon)
    if kind == "exponential":
        return DefaultTimeLaw.exponential_conditioned(float(doc["rate"]), horizon)
    if kind == "uniform":
        return DefaultTimeLaw.uniform(float(doc["lo"]), float(doc["hi"]), horizon=horizon)
    raise ValueError(f"unknown default law kind {kind!r}")


def model_from_dict(doc: dict) -> MarketModel:
    try:
        T = float(doc["T"])
        payoff = PayoffDistribution.from_weights(doc["payoff"]["support"], doc["payoff"]["probs"])
        default_law = None
        if doc.get("default_law") is not None:
            default_law = _default_law_from_json(doc["default_law"], T)
        return MarketModel(
            maturity=T,
            sigma=float(doc.get("sigma", 1.0)),
            levy_drift_scale=float(doc.get("mu", 1.0)),
            rate=_rate_from_json(doc.get("rate", {"kind": "flat", "r": 0.0})),
            payoff=payoff,
            levy=LevyLaw.named(doc["levy"]["kind"], float(doc["levy"].get("lambda", 1.0))),
            default_law=default_law,
        )
    except KeyError as exc:
        raise ValueError(f"model document is missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"model document is malformed: {exc}") from exc


def model_from_json(path: str) -> MarketModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def model_to_dict(model: MarketModel) -> dict:
    rate_doc = ({"kind": "flat", "r": float(model.rate.rates[0])} if model.rate.is_flat
                else {"kind": "table", "times": model.rate.times.tolist(), "rates": model.rate.rates.tolist()})
    levy_doc = {"kind": model.levy.kind}
    if model.levy.kind == "poisson":
        levy_doc["lambda"] = model.levy.rate
    doc = {
        "T": model.maturity,
        "sigma": model.sigma,
        "mu": model.levy_drift_scale,
        "rate": rate_doc,
        "payoff": {"support": model.payoff.support.tolist(), "probs": model.payoff.probs.tolist()},
        "levy": levy_doc,
    }
    if model.default_law is not None:
        law = model.default_law
        if law.is_discrete:
            doc["default_law"] = {"kind": "atoms", "times": law.atom_times.tolist(),
                                  "weights": law.atom_weights.tolist()}
        else:
            raise ValueError("only atom default laws round-trip to JSON")
    return doc
