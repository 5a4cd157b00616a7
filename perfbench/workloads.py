"""The benchmark workloads: ``quote``, ``option`` and ``mc``.

A workload is built from a seed; building it is the timed set-up (model
construction and input generation).  ``ops(k)`` returns pass ``k``: a list
of operations, each a timed library call plus a check of its output.  Every
pass performs the same operations on the same inputs, so each operation's
time can be taken over the passes of a run.  The library receives only the
inputs generated here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from levybridge import cli, default_pricing, mc, pricing, sampling
from levybridge.grids import TimeGrid
from levybridge.laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from levybridge.model import MarketModel, RateCurve, model_from_dict

T = 1.0
MID = 0.5  # exercise time, oracle time and mid-grid time
AGREE_REL = 1e-7  # generic vs closed-form route
HULL_SLACK = 1e-12
ZERO_STRIKE_ABS = 1e-6  # the tolerance of acceptance criterion A11a
BATCH_MEAN_SES = 5.0


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass
class Op:
    """One timed library call and the check of its output.

    ``check`` raises CheckFailed or returns work counts measured from the
    output; ``work`` holds the counts known beforehand.
    """

    kind: str
    label: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], dict]
    work: dict = field(default_factory=dict)


def _binary_payoff() -> PayoffDistribution:
    return PayoffDistribution.binary(0.0, 1.0, 0.5)


def _flat(rate=0.03) -> RateCurve:
    return RateCurve.flat(rate)


def _atom_default_law() -> DefaultTimeLaw:
    # atoms on grid points of every grid used here, so sampled default times need no snapping
    return DefaultTimeLaw.atoms([0.25, 0.75], [0.3, 0.7], horizon=T)


def _in_hull(model: MarketModel, t: float, price: float) -> None:
    p = model.discount(t)
    lo, hi = p * model.payoff.support.min(), p * model.payoff.support.max()
    slack = HULL_SLACK * max(1.0, abs(lo), abs(hi))
    if not (math.isfinite(price) and lo - slack <= price <= hi + slack):
        raise CheckFailed(f"price {price!r} outside the discounted hull [{lo!r}, {hi!r}]")


def _seconds(ops, kinds) -> float:
    return sum(o["seconds"] for o in ops if o["kind"] in kinds)


def _work(ops, kinds, key) -> int:
    return sum(o["work"].get(key, 0) for o in ops if o["kind"] in kinds)


class Quote:
    """Single-observation bond quotes through the public pricers."""

    name = "quote"
    why = ("single-observation bond quotes on four models: numerics and pricing do the work, one scalar "
           "quadrature or series per atom; shows per-call overhead and the slow tail")
    PRIMARY = ("quote",)  # the operations behind op_p50_ms
    OBS_STEPS = 16  # observation times k/16, k = 1..15

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.per_model = 4 if tiny else 256
        gamma, poisson = LevyLaw.standard_gamma(), LevyLaw.poisson(1.0)
        table = RateCurve(np.array([0.0, 0.25, 0.5]), np.array([0.01, 0.02, 0.04]))
        multi = PayoffDistribution(np.array([0.0, 0.4, 0.7, 1.0]), np.array([0.1, 0.2, 0.3, 0.4]))
        self.models = {
            "gamma-binary": MarketModel(T, 1.0, 1.0, _flat(), _binary_payoff(), gamma),
            "poisson-binary": MarketModel(T, 1.0, 1.0, _flat(), _binary_payoff(), poisson),
            "gamma-multi": MarketModel(T, 1.0, 1.0, table, multi, gamma),
            "kappa-atoms": MarketModel(T, 1.0, 0.5, _flat(), _binary_payoff(), gamma,
                                       default_law=_atom_default_law()),
        }
        grid = TimeGrid.uniform(T, self.OBS_STEPS)
        rng = np.random.default_rng([seed, 1])
        n = self.per_model
        self.obs = {}
        for batch, (name, model) in enumerate(self.models.items()):
            if model.default_law is None:
                vals, _ = sampling.sample_eta_batch(model, grid, seed, n, batch)
            else:
                vals = sampling.sample_kappa_batch(model, grid, seed, n, batch)[0]
            k = rng.integers(1, self.OBS_STEPS, size=n)
            self.obs[name] = (grid.points[k], vals[np.arange(n), k])

    def mix(self) -> dict:
        return {f"quote:{name}": self.per_model for name in self.models}

    def ops(self, k: int) -> list[Op]:
        out = []
        for i in range(self.per_model):
            for name, model in self.models.items():
                ts, xs = self.obs[name]
                out.append(self._op(name, model, float(ts[i]), float(xs[i]), i))
        return out

    def _op(self, name, model, t, x, i) -> Op:
        if name == "gamma-binary":
            def call():
                return (pricing.bond_price(model, t, x).price,
                        pricing.gamma_closed_form_price(model, t, x))
        elif name == "poisson-binary":
            def call():
                return (pricing.bond_price(model, t, x).price,
                        pricing.poisson_closed_form_price(model, t, x))
        elif name == "gamma-multi":
            def call():
                return (pricing.bond_price(model, t, x).price,)
        else:
            def call():
                return (default_pricing.bond_price_default(model, t, x).price,)

        def check(prices):
            for p in prices:
                _in_hull(model, t, p)
            if len(prices) == 2 and abs(prices[0] - prices[1]) > AGREE_REL * abs(prices[1]):
                raise CheckFailed(f"generic {prices[0]!r} vs closed form {prices[1]!r}")
            return {}

        return Op("quote", f"{name}[{i}]", {"model": name, "t": t, "x": x}, call, check)

    def metrics(self, ops) -> list:
        lat = np.array([o["seconds"] for o in ops])
        p99 = float(np.percentile(lat, 99))
        n = f"n={len(lat)} quotes"
        return [
            ("quote_per_s", len(lat) / lat.sum(), "1/s", n),
            ("quote_p50_ms", 1e3 * float(np.median(lat)), "ms", n),
            ("quote_p99_ms", 1e3 * p99, "ms", f"{n}, {int((lat > p99).sum())} beyond"),
        ]


class Option:
    """Nested-integral CLI commands run in-process through ``cli.main``."""

    name = "option"
    why = ("option, psi and continuous-default price commands through cli.main: thousands of likelihood "
           "evaluations and nested integrals per command; sampling idle")
    PRIMARY = ("option",)
    PSI_T, PSI_U = 0.3, 0.6
    SAMPLE = 16_384  # draws behind each quantile; many, so its value and cost barely move with the seed

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.workdir = workdir
        base = {"T": T, "sigma": 1.0, "rate": {"kind": "flat", "r": 0.03},
                "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.5]}}
        docs = {
            "gamma": {**base, "levy": {"kind": "gamma"}},
            "poisson": {**base, "levy": {"kind": "poisson", "lambda": 1.0}},
            "kappa-atoms": {**base, "mu": 0.5, "levy": {"kind": "gamma"},
                            "default_law": {"kind": "atoms", "times": [0.25, 0.75], "weights": [0.3, 0.7]}},
            "kappa-exp": {**base, "mu": 0.5, "levy": {"kind": "gamma"},
                          "default_law": {"kind": "exponential", "rate": 0.5}},
        }
        self.paths = {}
        for name, doc in docs.items():
            self.paths[name] = os.path.join(workdir, f"{name}.json")
            with open(self.paths[name], "w") as fh:
                json.dump(doc, fh)
        self.models = {name: model_from_dict(doc) for name, doc in docs.items()}
        # Option, psi and survival-kernel costs jump with small changes of the
        # strike or of x, so strikes are fixed and observations sit at
        # quantiles of a large sample of the model's own values.
        self.strikes = [0.0, 0.5] if tiny else [0.0, 1 / 3, 2 / 3]
        self.psi_points = 2 if tiny else 6
        grid = TimeGrid.uniform(T, 10)
        vals, _ = sampling.sample_eta_batch(self.models["gamma"], grid, seed, self.SAMPLE, 0)
        self.psi_x = float(np.median(vals[:, grid.index_of(self.PSI_T)]))
        # survival-branch observations of the exponential-default model at the exercise time
        n_obs = 1 if tiny else 2
        vals, tau_idx, _, _ = sampling.sample_kappa_batch(self.models["kappa-exp"], grid, seed, self.SAMPLE, 1)
        mid = grid.index_of(MID)
        survivors = vals[tau_idx > mid, mid]
        self.price_x = [float(v) for v in np.quantile(survivors, np.linspace(0.3, 0.7, n_obs))]
        self.first_bytes: dict[str, bytes] = {}
        self.last_value: dict[tuple, float] = {}

    def mix(self) -> dict:
        n_opt = 3 * len(self.strikes)
        return {"option": n_opt, "psi": 1, "price": len(self.price_x), "option(repeat)": 1,
                "psi_points": self.psi_points}

    def ops(self, k: int) -> list[Op]:
        out = []
        for model in ("gamma", "poisson", "kappa-atoms"):
            for j, K in enumerate(self.strikes):
                out.append(self._option(k, model, j, K, f"option-{model}-K{j}"))
        out.append(self._cli_op("psi", "psi-gamma", {"model": "gamma", "t": self.PSI_T, "u": self.PSI_U,
                                                     "x": self.psi_x, "points": self.psi_points},
                                ["density", "--which", "psi", "--model", self.paths["gamma"],
                                 "--t", repr(self.PSI_T), "--u", repr(self.PSI_U), "--x", repr(self.psi_x),
                                 "--points", str(self.psi_points)],
                                self._check_psi, {"points": self.psi_points}))
        for i, x in enumerate(self.price_x):
            out.append(self._cli_op("price", f"price-kappa-exp-{i}", {"model": "kappa-exp", "t": MID, "x": x},
                                    ["price", "--model", self.paths["kappa-exp"], "--t", repr(MID),
                                     "--x", repr(x)], self._check_price))
        # the same command twice in one pass: its CSV bytes must repeat
        again = self._option(k, "poisson", 1, self.strikes[1], "option-poisson-K1")
        again.label += "(repeat)"
        out.append(again)
        return out

    def _cli_op(self, kind, label, inputs, argv, check_rows, work=None) -> Op:
        target = os.path.join(self.workdir, f"{label}.csv")
        argv = argv + ["-o", target]

        def call():
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                return exc.code

        def check(rc):
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            with open(target, "rb") as fh:
                data = fh.read()
            key = label.removesuffix("(repeat)")
            first = self.first_bytes.setdefault(key, data)
            if data != first:
                raise CheckFailed("CSV bytes differ from the first run of the same command")
            rows = [line.split(",") for line in data.decode().splitlines()[2:]]
            check_rows(rows)
            return {"bytes": len(data)}

        return Op(kind, label, inputs, call, check, dict(work or {}))

    def _option(self, k, model, j, K, label) -> Op:
        m = self.models[model]

        def check_rows(rows):
            value = float(rows[-1][-1])
            if not math.isfinite(value) or value < 0.0:
                raise CheckFailed(f"option value {value!r}")
            if K == 0.0:
                expect = m.discount(0.0) * m.payoff.mean()
                if abs(value - expect) > ZERO_STRIKE_ABS:
                    raise CheckFailed(f"K=0 value {value!r} != P(0,T)E[H] = {expect!r}")
            prev = self.last_value.get((k, model, j - 1))
            if prev is not None and value > prev:
                raise CheckFailed(f"value {value!r} rose above {prev!r} at the next lower strike")
            self.last_value[(k, model, j)] = value

        return self._cli_op("option", label, {"model": model, "t": MID, "K": K},
                            ["option", "--model", self.paths[model], "--t", repr(MID), "--K", repr(K)],
                            check_rows)

    @staticmethod
    def _check_psi(rows):
        vals = [float(r[1]) for r in rows]
        if not all(math.isfinite(v) and v >= 0.0 for v in vals):
            raise CheckFailed(f"psi values not finite and nonnegative: {vals}")

    def _check_price(self, rows):
        defaulted, price = int(rows[-1][2]), float(rows[-1][3])
        if defaulted:
            raise CheckFailed("survival-branch observation reported as defaulted")
        _in_hull(self.models["kappa-exp"], MID, price)

    def metrics(self, ops) -> list:
        opt = [o["seconds"] for o in ops if o["kind"] == "option"]
        points = _work(ops, ("psi",), "points")
        return [
            ("option_p50_s", float(np.median(opt)), "s", f"n={len(opt)} option commands"),
            ("psi_points_per_s", points / _seconds(ops, ("psi",)), "1/s", f"n={points} points"),
            ("option_wall_s", sum(o["seconds"] for o in ops), "s", f"n={len(ops)} commands"),
        ]


class Mc:
    """Large path batches and the Monte Carlo oracles."""

    name = "mc"
    why = ("256-step path batches and the Monte Carlo oracles: sampling and the mc batch machinery do the "
           "work, numerics only through the posterior splines")
    PRIMARY = ("batch", "oracle")
    STEPS = 256

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.n_batch = 1024 if tiny else 16_384
        self.n_oracle = 4096 if tiny else 50_000
        self.n_binning = 20_000 if tiny else 100_000
        rng = np.random.default_rng([seed, 3])
        gamma = LevyLaw.standard_gamma()
        self.models = {
            "eta-gamma": MarketModel(T, 1.0, 1.0, _flat(), _binary_payoff(), gamma),
            "eta-poisson": MarketModel(T, 1.0, 1.0, _flat(), _binary_payoff(), LevyLaw.poisson(1.0)),
            "kappa-atoms": MarketModel(T, 1.0, 0.5, _flat(), _binary_payoff(), gamma,
                                       default_law=_atom_default_law()),
        }
        self.grid = TimeGrid.uniform(T, self.STEPS)
        self.bin_x = float(0.4 + 0.2 * rng.uniform())
        self.strike = float(0.3 + 0.3 * rng.uniform())
        self.option_target = pricing.option_value(self.models["eta-poisson"], MID, self.strike)

    def mix(self) -> dict:
        return {"batch": 3, "oracle": 4, "batch_paths": self.n_batch, "batch_steps": self.STEPS}

    def _mean_target(self, model: MarketModel) -> float:
        """E[value at MID] of the sampled information process, in closed form."""
        signal = model.sigma * MID * model.payoff.mean()
        law = model.default_law
        if law is None:
            return signal + (MID / T) * model.levy.mean(T - MID)
        drift = sum(w * model.levy.mean(r - MID) for r, w in zip(law.atom_times, law.atom_weights) if r > MID)
        return signal + model.levy_drift_scale * MID * drift

    def _batch(self, name, batch) -> Op:
        model = self.models[name]
        grid, seed, n = self.grid, self.seed, self.n_batch
        kappa = model.default_law is not None
        target = self._mean_target(model)

        def call():
            if kappa:
                return sampling.sample_kappa_batch(model, grid, seed, n, batch)[0]
            return sampling.sample_eta_batch(model, grid, seed, n, batch)[0]

        def check(vals):
            col = vals[:, self.STEPS // 2]
            se = col.std(ddof=1) / math.sqrt(col.size)
            if not abs(col.mean() - target) <= BATCH_MEAN_SES * se:
                raise CheckFailed(f"batch mean {col.mean()!r} vs closed form {target!r} (se {se!r})")
            return {}

        return Op("batch", f"batch-{name}", {"model": name, "paths": n, "steps": self.STEPS,
                                             "seed": seed, "batch": batch},
                  call, check, {"path_steps": n * self.STEPS})

    @staticmethod
    def _passed(reports):
        reports = reports if isinstance(reports, list) else [reports]
        bad = [r for r in reports if not r.passed]
        if bad:
            raise CheckFailed("; ".join(f"{r.name}: estimate {r.estimate!r} target {r.target!r} "
                                        f"z {r.z_score:.2f}" for r in bad))
        return {}

    def ops(self, k: int) -> list[Op]:
        g, kap, p = self.models["eta-gamma"], self.models["kappa-atoms"], self.models["eta-poisson"]
        seed, n = self.seed, self.n_oracle
        oracles = [
            ("tower-eta-gamma", {"t": MID, "paths": n}, lambda: mc.tower_check(g, MID, n, seed)),
            ("tower-kappa-atoms", {"t": MID, "paths": n}, lambda: mc.tower_check(kap, MID, n, seed)),
            ("binning-eta-gamma", {"t": MID, "x": self.bin_x, "paths": self.n_binning},
             lambda: mc.posterior_binning(g, MID, self.bin_x, None, self.n_binning, seed)),
            ("option-mc-eta-poisson", {"t": MID, "K": self.strike, "paths": n, "target": self.option_target},
             lambda: mc.option_mc(p, MID, self.strike, n, seed, self.option_target)),
        ]
        out = [self._batch(name, b) for b, name in enumerate(self.models)]
        out += [Op("oracle", label, {**inputs, "seed": seed}, call, self._passed)
                for label, inputs, call in oracles]
        return out

    def metrics(self, ops) -> list:
        steps = _work(ops, ("batch",), "path_steps")
        oracles = sum(o["kind"] == "oracle" for o in ops)
        return [
            ("path_steps_per_s", steps / _seconds(ops, ("batch",)), "1/s", f"n={steps} path steps"),
            ("oracle_wall_s", _seconds(ops, ("oracle",)), "s", f"n={oracles} oracle calls"),
        ]


WORKLOADS = {cls.name: cls for cls in (Quote, Option, Mc)}
