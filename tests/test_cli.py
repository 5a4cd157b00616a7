import importlib.util
import json
import os

import numpy as np
import pytest

from levybridge import mc
from levybridge.cli import main
from levybridge.laws import LevyLaw


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


@pytest.mark.parametrize("process", ["bar-beta", "tilde-beta", "zeta"])
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
