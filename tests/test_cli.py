import importlib.util
import json
import os

import numpy as np
import pytest

from levybridge import cli, mc
from levybridge.cli import main
from levybridge.laws import LevyLaw
from levybridge.numerics import gamma_density, poisson_pmf


def _read(path):
    return path.read_text().strip().splitlines()


def _model_file(tmp_path, default_law=None, levy=None):
    doc = {
        "T": 1.0,
        "sigma": 1.0,
        "mu": 0.5,
        "rate": {"kind": "flat", "r": 0.0},
        "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
        "levy": levy or {"kind": "gamma"},
    }
    if default_law is not None:
        doc["default_law"] = default_law
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_zeta_csv(tmp_path):
    out = tmp_path / "paths.csv"
    rc = main(["simulate", "--process", "zeta", "--levy", "gamma", "--T", "1",
               "--steps", "512", "--paths", "8", "--seed", "7", "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    assert lines[0].startswith("# config:")
    assert lines[1] == "t," + ",".join(f"path_{i}" for i in range(8))
    assert len(lines) == 2 + 513
    first = [float(v) for v in lines[2].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and last[0] == 1.0
    assert all(v == 0.0 for v in first[1:])  # pinned start
    assert all(v == 0.0 for v in last[1:])   # pinned end


def test_simulate_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--process", "kappa", "--levy", "poisson", "--steps", "64",
            "--paths", "4", "--seed", "3"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_eta_with_model_file(tmp_path):
    out = tmp_path / "eta.csv"
    rc = main(["simulate", "--process", "eta", "--model", _model_file(tmp_path),
               "--steps", "32", "--paths", "3", "--seed", "1", "-o", str(out)])
    assert rc == 0
    last = [float(v) for v in _read(out)[-1].split(",")]
    assert set(last[1:]) <= {0.0, 1.0}  # terminal values sit on the signal rays


def test_simulate_with_model_runs_to_its_maturity(tmp_path):
    # a T = 2 model: the grid and the config follow the model, so default
    # times past t = 1 are not clipped to t = 1
    path = tmp_path / "t2.json"
    path.write_text(json.dumps({"T": 2.0, "sigma": 1.0, "mu": 0.5, "rate": {"kind": "flat", "r": 0.0},
                                "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
                                "levy": {"kind": "gamma"},
                                "default_law": {"kind": "atoms", "times": [1.5, 1.8], "weights": [0.5, 0.5]}}))
    for process in ("eta", "kappa"):
        out = tmp_path / f"{process}.csv"
        assert main(["simulate", "--process", process, "--model", str(path), "--steps", "20",
                     "--paths", "6", "--seed", "5", "-o", str(out)]) == 0
        lines = _read(out)
        assert json.loads(lines[0].removeprefix("# config: "))["T"] == 2.0
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        assert rows.shape == (21, 7)
        assert rows[-1, 0] == 2.0
        assert set(rows[-1, 1:]) <= {0.0, 2.0}  # sigma * T * h
    # every path has defaulted by t = 1.8, so at t = 1.9 it sits on its ray
    assert set(rows[19, 1:]) <= {0.0, rows[19, 0]}
    # and none had defaulted by t = 1: their values there are off the rays
    assert not set(rows[10, 1:]) & {0.0, rows[10, 0]}


def _simulate_table():
    here = os.path.join(os.path.dirname(__file__), "reference")
    spec = importlib.util.spec_from_file_location("make_simulate_sha256",
                                                  os.path.join(here, "make_simulate_sha256.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(module.OUT) as fh:
        return module, json.load(fh)


@pytest.mark.parametrize("threads", [None, "1", "2"], ids=["threads-unset", "threads-1", "threads-2"])
def test_simulate_csv_bytes_match_digest_table(tmp_path, monkeypatch, threads):
    # tests/reference/make_simulate_sha256.py wrote the digests; seeded CSVs
    # must stay byte-identical under every thread count
    if threads is None:
        monkeypatch.delenv("BRIDGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("BRIDGE_THREADS", threads)
    module, table = _simulate_table()
    assert table["args"] == module.ARGS
    assert len(table["sha256"]) == len(module.PROCESSES) * len(module.LEVY) == 24
    for process in module.PROCESSES:
        for levy in module.LEVY:
            got = module.digest(module.case_argv(process, levy), str(tmp_path))
            assert got == table["sha256"][f"{process}/{levy}"], (process, levy)


def test_price_command_eta(tmp_path):
    out = tmp_path / "price.csv"
    rc = main(["price", "--model", _model_file(tmp_path), "--t", "0.5",
               "--x", "0.7", "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    assert lines[1] == "t,x,price,weight_0,weight_1"
    t, x, price, w0, w1 = (float(v) for v in lines[2].split(","))
    assert 0.0 <= price <= 1.0
    assert w0 + w1 == pytest.approx(1.0, abs=1e-10)


def test_price_command_kappa(tmp_path):
    law = {"kind": "atoms", "times": [0.7, 0.8], "weights": [0.5, 0.5]}
    out = tmp_path / "price.csv"
    rc = main(["price", "--model", _model_file(tmp_path, default_law=law),
               "--t", "0.5", "--x", "0.3", "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    assert lines[1] == "t,x,defaulted,price"
    vals = lines[2].split(",")
    assert vals[2] == "0"
    assert 0.0 <= float(vals[3]) <= 1.0


def test_price_command_vanished_posterior_exits_1(tmp_path, capsys):
    law = {"kind": "atoms", "times": [0.7, 0.8], "weights": [0.5, 0.5]}
    path = tmp_path / "model.json"
    doc = json.loads(open(_model_file(tmp_path, default_law=law)).read())
    path.write_text(json.dumps({**doc, "mu": 1.0}))
    out = tmp_path / "price.csv"
    assert main(["price", "--model", str(path), "--t", "0.01", "--x", "-4", "-o", str(out)]) == 1
    assert not out.exists()
    assert "posterior mass vanished" in capsys.readouterr().err


@pytest.mark.parametrize("process", ["brownian", "bridge", "bar-beta", "tilde-beta", "zeta", "levy-reversed"])
def test_simulate_matches_mc_builder(tmp_path, process):
    # cli simulate and the Monte Carlo oracles draw from one process table
    out = tmp_path / "paths.csv"
    assert main(["simulate", "--process", process, "--steps", "16", "--paths", "5",
                 "--seed", "11", "-o", str(out)]) == 0
    rows = np.array([[float(v) for v in line.split(",")] for line in _read(out)[2:]])
    builder = mc.grid_builder(process, 1.0, 16, levy=LevyLaw.standard_gamma())
    assert np.array_equal(rows[:, 1:].T, builder(11, 5, 0, rows[:, 0]))


def test_option_command(tmp_path):
    out = tmp_path / "opt.csv"
    rc = main(["option", "--model", _model_file(tmp_path), "--t", "0.5",
               "--K", "0.0", "-o", str(out)])
    assert rc == 0
    value = float(_read(out)[2].split(",")[2])
    assert value == pytest.approx(0.5, abs=1e-6)


def test_option_command_exponential_default_poisson(tmp_path):
    # a continuous default law with Poisson noise: every strike is valued, within seconds
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "T": 1.0, "sigma": 1.0, "mu": 0.5, "rate": {"kind": "flat", "r": 0.02},
        "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
        "levy": {"kind": "poisson", "rate": 1.0}, "default_law": {"kind": "exponential", "rate": 0.3}}))
    values = []
    for strike in ("0.0", "0.3", "0.6"):
        out = tmp_path / f"opt-{strike}.csv"
        assert main(["option", "--model", str(path), "--t", "0.5", "--K", strike, "-o", str(out)]) == 0
        values.append(float(_read(out)[2].split(",")[2]))
    assert values[0] == pytest.approx(np.exp(-0.02) * 0.5, abs=1e-6)  # P(0,T) E[H], as in A11a
    assert values[0] >= values[1] >= values[2] >= 0.0


def test_kernels_command(tmp_path):
    out = tmp_path / "kern.csv"
    rc = main(["kernels", "--kernel", "tilde", "--T", "1.0", "--points", "5",
               "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    assert lines[1] == "s,t,value"
    assert len(lines) == 2 + 25
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
    mid = [r for r in rows if r[0] == 0.5 and r[1] == 0.5]
    assert mid[0][2] == pytest.approx(0.375)


def test_density_psi_command(tmp_path):
    out = tmp_path / "psi.csv"
    rc = main(["density", "--which", "psi", "--model", _model_file(tmp_path),
               "--t", "0.3", "--u", "0.6", "--x", "0.4", "--points", "9",
               "--ymin", "-1.0", "--ymax", "2.0", "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    assert lines[1] == "y,psi"
    dens = [float(line.split(",")[1]) for line in lines[2:]]
    assert all(d >= 0.0 for d in dens)
    assert max(dens) > 0.1


def test_density_levy_command(tmp_path):
    out = tmp_path / "levy.csv"
    rc = main(["density", "--which", "levy", "--levy", "poisson", "--lam", "1.0",
               "--t", "0.5", "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    probs = [float(line.split(",")[1]) for line in lines[2:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    # the degenerate law is a point mass at 0: one pmf row, not a gamma table
    rc = main(["density", "--which", "levy", "--levy", "none", "--points", "4", "-o", str(out)])
    assert rc == 0
    assert _read(out)[1:] == ["y,density", "0,1"]
    # so is the Poisson law at time 0
    rc = main(["density", "--which", "levy", "--levy", "poisson", "--t", "0", "-o", str(out)])
    assert rc == 0
    assert _read(out)[1:] == ["y,density", "0,1"]


@pytest.mark.parametrize("levy, t", [("poisson", "-1"), ("gamma", "-1"), ("none", "-0.5"), ("gamma", "0")])
def test_density_levy_law_time_out_of_range_exits_2(tmp_path, capsys, levy, t):
    out = tmp_path / "levy.csv"
    rc = main(["density", "--which", "levy", "--levy", levy, "--t", t, "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "--t must be" in capsys.readouterr().err


@pytest.mark.parametrize("t, lam", [(0.5, 0.01), (3.0, 1.0), (20.0, 50.0)])
def test_density_levy_poisson_table_equals_scalar_calls(tmp_path, t, lam):
    out = tmp_path / "levy.csv"
    assert main(["density", "--which", "levy", "--levy", "poisson", "--t", str(t), "--lam", str(lam),
                 "-o", str(out)]) == 0
    rows = _read(out)[2:]
    assert rows == [f"{k},{poisson_pmf(t, lam, k):.17g}" for k in range(len(rows))]


@pytest.mark.parametrize("t", [0.01, 0.5, 3.0])
def test_density_levy_gamma_table_equals_scalar_calls(tmp_path, t):
    out = tmp_path / "levy.csv"
    assert main(["density", "--which", "levy", "--levy", "gamma", "--t", str(t), "--points", "101",
                 "-o", str(out)]) == 0
    ys = np.linspace(1e-9, LevyLaw.standard_gamma().tail_quantile(t, 1e-12), 101)
    assert _read(out)[2:] == [f"{y:.17g},{gamma_density(t, y):.17g}" for y in ys.tolist()]


@pytest.mark.parametrize("argv, option", [(["--levy", "poisson", "--t", "1e10"], "--t 1e+10"),
                                          (["--levy", "poisson", "--t", "1e4", "--lam", "1e4"], "--lam 10000"),
                                          (["--levy", "gamma", "--points", "2000001"], "--points 2000001")])
def test_density_levy_table_over_the_row_cap_exits_2(tmp_path, capsys, argv, option):
    # the size is checked before any row is built: 1e10 Poisson rows would never finish
    out = tmp_path / "levy.csv"
    assert main(["density", "--which", "levy", *argv, "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err and "cap of 2000000" in err


@pytest.mark.parametrize("argv, size, option", [
    (["kernels", "--kernel", "bar", "--points", "32"], "1024 rows", "--points 32"),
    (["density", "--which", "psi", "--points", "1001", "--model", "missing.json"], "1001 rows", "--points 1001"),
    (["simulate", "--process", "kappa", "--paths", "10", "--steps", "100", "--model", "missing.json"],
     "1010 values", "--paths 10 with --steps 100"),
])
def test_tables_over_the_cap_exit_2_before_anything_is_built(tmp_path, capsys, monkeypatch, argv, size, option):
    # under a cap of 1000; the size is checked before the model file is read
    monkeypatch.setattr(cli, "_MAX_TABLE_ROWS", 1000)
    out = tmp_path / "out.csv"
    assert main([*argv, "-o", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{option} asks for {size}, more than the cap of 1000" in err


def test_tables_at_the_cap_are_written(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_TABLE_ROWS", 1000)
    for argv in (["kernels", "--kernel", "bar", "--points", "31"],
                 ["simulate", "--process", "zeta", "--paths", "10", "--steps", "99"]):
        assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 0


def test_kernels_of_1e10_rows_exit_2_at_once(tmp_path, capsys):
    out = tmp_path / "big.csv"
    assert main(["kernels", "--kernel", "bar", "--points", "100000", "-o", str(out)]) == 2
    assert not out.exists()
    assert "--points 100000 asks for 10000000000 rows, more than the cap of 2000000" in capsys.readouterr().err


def test_price_with_probabilities_off_one_exits_2(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"T": 1.0, "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.6]},
                                "levy": {"kind": "gamma"}}))
    out = tmp_path / "price.csv"
    assert main(["price", "--model", str(path), "--t", "0.5", "--x", "0.3", "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: payoff probabilities must sum to 1, got 1.1")


def test_price_with_a_negative_probability_exits_2(tmp_path, capsys):
    # the probabilities sum to 1, and truncation would keep only the first atom
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"T": 1.0, "payoff": {"support": [0.0, 1.0], "probs": [1.5, -0.5]},
                                "levy": {"kind": "gamma"}}))
    out = tmp_path / "price.csv"
    assert main(["price", "--model", str(path), "--t", "0.5", "--x", "0.3", "-o", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: payoff probabilities must lie in [0, 1], got 1.5")


def test_density_psi_vanished_density_of_x_exits_1(tmp_path, capsys):
    out = tmp_path / "psi.csv"
    assert main(["density", "--which", "psi", "--t", "0.3", "--u", "0.6", "--x", "-30", "--points", "3",
                 "-o", str(out)]) == 1
    assert not out.exists()
    assert "numerical failure: density of the observation vanished" in capsys.readouterr().err


def test_verify_fast(tmp_path):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--suite", "fast", "--seed", "1", "-o", str(out)])
    assert rc == 0
    lines = _read(out)
    assert lines[1] == "check,estimate,std_error,target,z,pass"
    assert all(line.endswith("PASS") for line in lines[2:])


def test_malformed_model_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["price", "--model", str(bad), "--t", "0.5", "--x", "0.7"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["price", "--model", str(missing), "--t", "0.5", "--x", "0.7"]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"T": 1.0}))
    assert main(["price", "--model", str(incomplete), "--t", "0.5", "--x", "0.7"]) == 2


@pytest.mark.parametrize("doc", [{"levy": {"kind": "poisson", "lambda": "abc"}},
                                 {"default_law": {"kind": "exponential", "rate": "abc"}},
                                 {"default_law": {"kind": "uniform", "lo": "a", "hi": 0.9}},
                                 {"sigma": None},
                                 [1, 2],
                                 {"levy": "gamma"},
                                 {"rate": "flat"}],
                         ids=["lambda-string", "rate-string", "lo-string", "sigma-null", "list",
                              "levy-string", "rate-curve-string"])
def test_wrongly_typed_model_document_exits_2(tmp_path, capsys, doc):
    path = _model_file(tmp_path)
    with open(path) as fh:
        base = json.load(fh)
    with open(path, "w") as fh:
        json.dump({**base, **doc} if isinstance(doc, dict) else doc, fh)
    assert main(["price", "--model", path, "--t", "0.5", "--x", "0.3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_non_finite_model_field_exits_2(tmp_path, capsys):
    # a nan default time used to drop out of the posterior and price silently
    law = {"kind": "atoms", "times": [float("nan"), 0.75], "weights": [0.3, 0.7]}
    out = tmp_path / "price.csv"
    assert main(["price", "--model", _model_file(tmp_path, default_law=law),
                 "--t", "0.5", "--x", "0.3", "-o", str(out)]) == 2
    assert not out.exists()
    assert "error: atoms must lie in (0, horizon]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["density", "--which", "levy", "--t", "nan"],
                                  ["density", "--which", "psi", "--x", "nan"],
                                  ["price", "--model", "MODEL", "--t", "0.5", "--x", "nan"],
                                  ["option", "--model", "MODEL", "--t", "0.5", "--K", "inf"],
                                  ["simulate", "--process", "zeta", "--T", "inf"]],
                         ids=["density-levy", "density-psi", "price", "option", "simulate"])
def test_non_finite_float_option_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    argv = [_model_file(tmp_path) if a == "MODEL" else a for a in argv] + ["-o", str(out)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert not out.exists()
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["density", "--which", "psi", "--points", "0"],
                                  ["density", "--which", "levy", "--points", "-1"],
                                  ["kernels", "--kernel", "bar", "--points", "0"],
                                  ["simulate", "--process", "zeta", "--paths", "-1"],
                                  ["simulate", "--process", "zeta", "--steps", "0"]],
                         ids=["density-psi", "density-levy", "kernels", "simulate-paths", "simulate-steps"])
def test_non_positive_count_option_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main(argv + ["-o", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    assert "expected a positive integer" in capsys.readouterr().err


def test_failing_call_then_good_call_behave_like_fresh_calls(tmp_path, capsys):
    # the parser is built once per process; a call that argparse rejects must
    # leave nothing behind for the next call
    bad = ["simulate", "--process", "zeta", "--paths", "0"]
    good = ["simulate", "--process", "eta", "--steps", "8", "--paths", "3", "--seed", "2"]

    def run_pair(tag):
        with pytest.raises(SystemExit) as err:
            main(bad + ["-o", str(tmp_path / f"bad-{tag}.csv")])
        assert err.value.code == 2
        bad_err = capsys.readouterr().err
        out = tmp_path / f"good-{tag}.csv"
        assert main(good + ["-o", str(out)]) == 0
        return bad_err, out.read_bytes()

    assert cli.build_parser() is cli.build_parser()
    cached = run_pair("cached")
    cli.build_parser.cache_clear()
    fresh = run_pair("fresh")
    assert cached == fresh
    assert "expected a positive integer" in cached[0]


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_price_command_impossible_observation_exits_1(tmp_path, capsys):
    # every default atom is <= t and x is off the rays, so P(tau > t) = 0 rules it out
    law = {"kind": "atoms", "times": [0.25, 0.75], "weights": [0.5, 0.5]}
    out = tmp_path / "price.csv"
    assert main(["price", "--model", _model_file(tmp_path, default_law=law),
                 "--t", "0.8", "--x", "1.9", "-o", str(out)]) == 1
    assert not out.exists()
    assert "observation lies off the rays but P(tau > t) = 0" in capsys.readouterr().err


def _golden():
    here = os.path.join(os.path.dirname(__file__), "reference")
    spec = importlib.util.spec_from_file_location("make_cli_golden", os.path.join(here, "make_cli_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(module.OUT) as fh:
        return module, json.load(fh)


def test_cli_numbers_match_golden_table(tmp_path):
    # tests/reference/make_cli_golden.py wrote the table; every number must hold to 1e-12 relative
    module, table = _golden()
    assert sorted(table) == sorted(name for name, _, _ in module.CASES)
    for name, case in table.items():
        got = module.run_case(case["model"], case["args"], str(tmp_path)).splitlines()
        ref = case["csv"].splitlines()
        assert got[0] == ref[0] and len(got) == len(ref), name
        for g, r in zip(got[1:], ref[1:]):
            np.testing.assert_allclose([float(v) for v in g.split(",")], [float(v) for v in r.split(",")],
                                       rtol=1e-12, atol=0.0, err_msg=name)


# Model documents of the CLI table test: two good ones and four malformed ones
# (non-numeric rate, missing payoff, probabilities that do not sum to 1, negative T)
_TABLE_BASE = {"T": 1.0, "sigma": 1.0, "mu": 0.5, "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.5]},
               "levy": {"kind": "gamma"}}
_TABLE_MODELS = {
    "eta": _TABLE_BASE,
    "kappa": {**_TABLE_BASE, "default_law": {"kind": "atoms", "times": [0.25, 0.75], "weights": [0.3, 0.7]}},
    "rate-string": {**_TABLE_BASE, "levy": {"kind": "poisson", "lambda": "abc"}},
    "no-payoff": {k: v for k, v in _TABLE_BASE.items() if k != "payoff"},
    "probs-off": {**_TABLE_BASE, "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.6]}},
    "negative-T": {**_TABLE_BASE, "T": -1.0},
}
_PSI = ["density", "--which", "psi", "--points", "3"]
_SIM = ["--steps", "4", "--paths", "2"]


def _table_cases():
    cases = []
    for m in ("eta", "kappa"):
        for t in ("0", "1", "-0.5", "2"):
            cases.append(["price", "--model", m, "--t", t, "--x", "0.3"])
            cases.append(["option", "--model", m, "--t", t, "--K", "0.5"])
        cases += [["price", "--model", m, "--t", "0.5", f"--x={x}"] for x in ("-30", "1e200", "-1e200")]
        cases += [["option", "--model", m, "--t", "0.5", f"--K={k}"] for k in ("-1", "1e300")]
    cases += [_PSI + ["--t", t, "--u", u] for t, u in (("0.6", "0.6"), ("0.7", "0.6"), ("0", "0.6"), ("1", "0.6"),
                                                        ("-0.5", "0.6"), ("2", "0.6"), ("0.3", "1"), ("0.3", "2"))]
    cases += [_PSI + [f"--x={x}"] for x in ("-30", "1e200", "-1e200")]
    cases += [_PSI + opt for opt in (["--T", "0"], ["--T", "-1"], ["--sigma", "0"],
                                     ["--levy", "poisson", "--lam", "0"], ["--levy", "poisson", "--lam", "-1"])]
    cases += [["density", "--which", "levy", "--levy", levy, "--t", t, "--points", "5"]
              for levy in ("gamma", "poisson", "none") for t in ("0", "1", "-0.5", "2")]
    cases += [["density", "--which", "levy", "--levy", "poisson", "--lam", lam] for lam in ("0", "-1")]
    cases.append(["density", "--which", "levy", "--levy", "poisson", "--t", "1e10"])
    cases += [["kernels", "--kernel", k, "--T", T, "--points", "3"] for T in ("0", "-1", "2") for k in ("bar", "tilde")]
    cases += [["simulate", "--process", p, *_SIM, "--T", T] for T in ("0", "-1", "2") for p in ("zeta", "kappa")]
    cases += [["simulate", "--process", p, *_SIM, "--sigma", "0"] for p in ("eta", "kappa")]
    cases += [["simulate", "--process", "zeta", "--levy", "poisson", "--lam", lam, *_SIM] for lam in ("0", "-1")]
    for bad in ("rate-string", "no-payoff", "probs-off", "negative-T"):
        cases += [["price", "--model", bad, "--t", "0.5", "--x", "0.3"],
                  ["option", "--model", bad, "--t", "0.5", "--K", "0.5"],
                  _PSI + ["--model", bad],
                  ["simulate", "--process", "eta", "--model", bad, *_SIM]]
    return cases


@pytest.mark.parametrize("argv", _table_cases(), ids=" ".join)
def test_cli_table_exits_cleanly(tmp_path, capsys, argv):
    # exit 0 with only finite numbers, 1 with a numerical failure or 2 with an
    # error; nothing raises out of main, and a failed command writes no file
    out = tmp_path / "out.csv"
    if "--model" in argv:
        i = argv.index("--model") + 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_TABLE_MODELS[argv[i]]))
        argv = [*argv[:i], str(path), *argv[i + 1:]]
    try:
        rc = main(argv + ["-o", str(out)])
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    err = capsys.readouterr().err
    if rc == 0:
        values = [float(v) for row in _read(out)[2:] for v in row.split(",")]
        assert values and np.all(np.isfinite(values))
    else:
        assert not out.exists()
        assert {1: "numerical failure: ", 2: "error: "}[rc] in err
