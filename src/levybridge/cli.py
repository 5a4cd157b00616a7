"""Command line front end: simulate, price, tabulate and verify."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import default_pricing, gaussian, mc, pricing
from .grids import TimeGrid
from .laws import DefaultTimeLaw, LevyLaw, PayoffDistribution
from .model import MarketModel, RateCurve, model_from_json
from .numerics import QuadratureError, gamma_density, poisson_pmf
from .sampling import PROCESS_SAMPLERS


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(output: str | None, config: dict, header: list[str], rows) -> None:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


def _default_model(args) -> MarketModel:
    # binary payoff with rare exponential default: a sensible demo setup
    return MarketModel(
        maturity=args.T,
        sigma=args.sigma,
        levy_drift_scale=args.mu,
        rate=RateCurve.flat(0.0),
        payoff=PayoffDistribution.binary(0.0, 1.0, 0.5),
        levy=LevyLaw.named(args.levy, args.lam),
        default_law=DefaultTimeLaw.exponential_conditioned(0.1, args.T),
    )


def _load_model(args) -> MarketModel:
    if getattr(args, "model", None):
        return model_from_json(args.model)
    return _default_model(args)


def _cmd_simulate(args) -> int:
    grid = TimeGrid.uniform(args.T, args.steps)
    n = args.paths
    seed = args.seed
    source = _load_model(args) if args.process in ("eta", "kappa") else LevyLaw.named(args.levy, args.lam)
    vals = PROCESS_SAMPLERS[args.process](grid, source, seed, n, 0)
    header = ["t"] + [f"path_{i}" for i in range(n)]
    rows = ([float(t)] + [float(v) for v in vals[:, k]] for k, t in enumerate(grid.points))
    _write_csv(args.output, _config_of(args), header, rows)
    return 0


def _cmd_price(args) -> int:
    model = model_from_json(args.model)
    if model.default_law is not None:
        quote = default_pricing.bond_price_default(model, args.t, args.x)
        _write_csv(args.output, _config_of(args), ["t", "x", "defaulted", "price"],
                   [[quote.t, quote.observation, int(quote.defaulted), quote.price]])
    else:
        quote = pricing.bond_price(model, args.t, args.x)
        header = ["t", "x", "price"] + [f"weight_{i}" for i in range(len(quote.posterior))]
        row = [quote.t, quote.observation, quote.price] + [w for _, w in quote.posterior]
        _write_csv(args.output, _config_of(args), header, [row])
    return 0


def _cmd_option(args) -> int:
    model = model_from_json(args.model)
    if model.default_law is not None:
        value = default_pricing.option_value_default(model, args.t, args.K)
    else:
        value = pricing.option_value(model, args.t, args.K)
    _write_csv(args.output, _config_of(args), ["t", "K", "value"], [[args.t, args.K, value]])
    return 0


def _cmd_density(args) -> int:
    if args.which == "psi":
        model = _load_model(args)
        T = model.maturity
        if args.ymin is None or args.ymax is None:
            sd = np.sqrt(args.u * (T - args.u) / T)
            hi = (args.u / T) * model.levy.tail_quantile(T - args.u, 1e-12)
            ymin = args.ymin if args.ymin is not None else -10.0 * sd
            ymax = args.ymax if args.ymax is not None else hi + 10.0 * sd
        else:
            ymin, ymax = args.ymin, args.ymax
        ys = np.linspace(ymin, ymax, args.points)
        psi = pricing.transition_density_psi(model, args.t, args.u, args.x, ys)
        rows = [[float(y), float(p)] for y, p in zip(ys, psi)]
        _write_csv(args.output, _config_of(args), ["y", "psi"], rows)
        return 0
    law = LevyLaw.named(args.levy, args.lam)
    if law.kind == "poisson":
        n_hi = int(law.tail_quantile(args.t, 1e-12))
        rows = [[float(k), poisson_pmf(args.t, law.rate, k)] for k in range(n_hi + 1)]
    else:
        y_hi = law.tail_quantile(args.t, 1e-12)
        rows = [[float(y), float(gamma_density(args.t, float(y)))]
                for y in np.linspace(1e-9, y_hi, args.points)]
    _write_csv(args.output, _config_of(args), ["y", "density"], rows)
    return 0


def _cmd_kernels(args) -> int:
    fn = {"bar": gaussian.cov_bar, "tilde": gaussian.cov_tilde}[args.kernel]
    ts = np.linspace(0.0, args.T, args.points)
    rows = [[float(s), float(t), fn(float(s), float(t), args.T)] for s in ts for t in ts]
    _write_csv(args.output, _config_of(args), ["s", "t", "value"], rows)
    return 0


def _cmd_verify(args) -> int:
    reports = mc.run_suite(args.seed, args.suite)
    rows = [[r.name, r.estimate, r.std_error, r.target, r.z_score,
             "PASS" if r.passed else "FAIL"] for r in reports]
    _write_csv(args.output, _config_of(args), ["check", "estimate", "std_error", "target", "z", "pass"], rows)
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _config_of(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "output") and v is not None}


def _finite_float(text: str) -> float:
    """argparse type of every float option: nan and infinities are usage errors."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levybridge",
                                     description="Bridge-with-Levy-pinning simulation and pricing")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", "-o", default=None, help="output CSV path (default: stdout)")

    p = sub.add_parser("simulate", help="sample paths to CSV")
    p.add_argument("--process", required=True,
                   choices=["brownian", "bridge", "bar-beta", "tilde-beta", "zeta", "eta", "kappa"])
    p.add_argument("--levy", choices=["gamma", "poisson", "none"], default="gamma")
    p.add_argument("--lam", type=_finite_float, default=1.0, help="Poisson rate")
    p.add_argument("--T", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--paths", type=int, default=8)
    p.add_argument("--sigma", type=_finite_float, default=1.0)
    p.add_argument("--mu", type=_finite_float, default=1.0)
    p.add_argument("--model", default=None, help="model JSON (eta/kappa payoff and default law)")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("price", help="bond price at one (t, x)")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    common(p)
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("option", help="bond option value at exercise time t and strike K")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--K", type=_finite_float, required=True)
    common(p)
    p.set_defaults(func=_cmd_option)

    p = sub.add_parser("density", help="tabulate the transition density or the noise marginal")
    p.add_argument("--which", choices=["psi", "levy"], default="psi")
    p.add_argument("--model", default=None)
    p.add_argument("--levy", choices=["gamma", "poisson", "none"], default="gamma")
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.add_argument("--T", type=_finite_float, default=1.0)
    p.add_argument("--sigma", type=_finite_float, default=1.0)
    p.add_argument("--mu", type=_finite_float, default=1.0)
    p.add_argument("--t", type=_finite_float, default=0.3)
    p.add_argument("--u", type=_finite_float, default=0.6)
    p.add_argument("--x", type=_finite_float, default=0.0)
    p.add_argument("--ymin", type=_finite_float, default=None)
    p.add_argument("--ymax", type=_finite_float, default=None)
    p.add_argument("--points", type=int, default=201)
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("kernels", help="tabulate a covariance kernel on a lattice")
    p.add_argument("--kernel", choices=["bar", "tilde"], required=True)
    p.add_argument("--T", type=_finite_float, default=1.0)
    p.add_argument("--points", type=int, default=21)
    common(p)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("verify", help="run the Monte Carlo verification suite")
    p.add_argument("--suite", choices=["full", "fast"], default="fast")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"error: cannot read model file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
