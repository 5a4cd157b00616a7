"""Write the CLI regression table: the CSV output of a fixed set of commands.

    PYTHONPATH=src python tests/reference/make_cli_golden.py

Each case runs ``levybridge.cli.main`` in-process on a model document and
stores the CSV text it writes.  tests/test_cli.py runs the same cases and
compares every number to 1e-12 relative, so a change of the numerics that
moves a CLI value by more shows up.  The table was generated before the panel
engine moved to a flat store of live panels; the psi case at (t, u) =
(0.1, 0.8) and the atom-default price case were added from the code before
the payoff atoms and psi's y values became element axes of one engine call.
The two uniform-default cases, whose integrals over the default time cross
the law's jumps, were added from the code before every tolerance reached an
integral as one Quadrature.  The option cases of the exponential and uniform
Poisson default models were regenerated when option values became sums of
tail masses, with no integral over x: each moved by about 5e-12, to within
1e-13 relative of the old route at 100 times tighter tolerances.  The
option case of the exponential gamma default model was added from the code
before the likelihood kernel, the option scan and psi split their engine
calls into blocks of elements.  The Poisson psi case was added from the
nested-quadrature psi, before its numerator became a product of two
one-dimensional integrals.

It runs only the cases the table lacks and leaves every existing entry
byte-identical: a rerun can move an existing entry in its last digits, inside
the test's 1e-12, so a new case is added without rewriting the others.  For a
change that is meant to move the numbers, delete the table, or the entries
meant to move, rerun, and say by how much.
"""

import json
import os
import sys
import tempfile

from levybridge import cli

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

_BASE = {"T": 1.0, "sigma": 1.0, "rate": {"kind": "flat", "r": 0.03},
         "payoff": {"support": [0.0, 1.0], "probs": [0.5, 0.5]}}
MODELS = {
    "gamma": {**_BASE, "levy": {"kind": "gamma"}},
    "poisson": {**_BASE, "levy": {"kind": "poisson", "lambda": 1.0}},
    "atom-default": {**_BASE, "mu": 0.5, "levy": {"kind": "gamma"},
                     "default_law": {"kind": "atoms", "times": [0.25, 0.75], "weights": [0.3, 0.7]}},
    "exp-default-gamma": {**_BASE, "mu": 0.5, "levy": {"kind": "gamma"},
                          "default_law": {"kind": "exponential", "rate": 0.5}},
    "exp-default-poisson": {**_BASE, "mu": 0.5, "levy": {"kind": "poisson", "lambda": 1.0},
                            "default_law": {"kind": "exponential", "rate": 0.5}},
    "uniform-default-gamma": {**_BASE, "mu": 0.5, "levy": {"kind": "gamma"},
                              "default_law": {"kind": "uniform", "lo": 0.2, "hi": 0.9}},
    "uniform-default-poisson": {**_BASE, "mu": 0.5, "levy": {"kind": "poisson", "lambda": 1.0},
                                "default_law": {"kind": "uniform", "lo": 0.2, "hi": 0.9}},
}
# (case name, model, arguments after the command's --model option)
CASES = [
    ("option-gamma", "gamma", ["option", "--t", "0.5", "--K", "0.5"]),
    ("option-poisson", "poisson", ["option", "--t", "0.5", "--K", "0.5"]),
    ("option-atom-default", "atom-default", ["option", "--t", "0.5", "--K", "0.5"]),
    ("option-exp-default-poisson", "exp-default-poisson", ["option", "--t", "0.5", "--K", "0.3"]),
    ("option-exp-default-gamma", "exp-default-gamma", ["option", "--t", "0.5", "--K", "0.3"]),
    ("price-gamma", "gamma", ["price", "--t", "0.5", "--x", "0.4"]),
    ("price-poisson", "poisson", ["price", "--t", "0.5", "--x", "0.4"]),
    ("price-exp-default-gamma", "exp-default-gamma", ["price", "--t", "0.5", "--x", "0.4"]),
    ("density-psi-gamma", "gamma", ["density", "--which", "psi", "--t", "0.3", "--u", "0.6",
                                    "--x", "0.2", "--points", "5"]),
    ("density-psi-gamma-late", "gamma", ["density", "--which", "psi", "--t", "0.1", "--u", "0.8",
                                         "--x", "0.2", "--points", "5"]),
    ("price-atom-default", "atom-default", ["price", "--t", "0.5", "--x", "0.4"]),
    ("price-uniform-default-gamma", "uniform-default-gamma", ["price", "--t", "0.5", "--x", "0.4"]),
    ("option-uniform-default-poisson", "uniform-default-poisson", ["option", "--t", "0.5", "--K", "0.3"]),
    ("density-psi-poisson", "poisson", ["density", "--which", "psi", "--t", "0.3", "--u", "0.6",
                                        "--x", "0.2", "--points", "5"]),
]


def run_case(model: str, args: list, workdir: str) -> str:
    """The CSV text the command writes, its model read from a file in workdir."""
    path = os.path.join(workdir, f"{model}.json")
    with open(path, "w") as fh:
        json.dump(MODELS[model], fh)
    target = os.path.join(workdir, "out.csv")
    argv = [args[0], "--model", path, *args[1:], "-o", target]
    if cli.main(argv) != 0:
        raise RuntimeError(f"command failed: {argv}")
    with open(target) as fh:
        text = fh.read()
    # the config line holds the temporary model path; keep the header and rows
    return "".join(text.splitlines(keepends=True)[1:])


def main() -> int:
    table = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            table = json.load(fh)
    missing = [(name, model, args) for name, model, args in CASES if name not in table]
    with tempfile.TemporaryDirectory() as workdir:
        for name, model, args in missing:
            table[name] = {"model": model, "args": args, "csv": run_case(model, args, workdir)}
    with open(OUT, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(missing)} new cases, {len(table)} in all, to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
