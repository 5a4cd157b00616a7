"""Write the seeded-output table: sha256 of every ``simulate --process`` CSV.

    PYTHONPATH=src python tests/reference/make_simulate_sha256.py

Each case runs ``levybridge.cli.main`` in-process for one process and one
noise law (gamma, Poisson or none) at seed 7 and stores the sha256 of the
CSV bytes it writes, config line included.  tests/test_cli.py runs the same
cases and compares the digests, so any change of a seeded draw, of the draw
order or of a path composition shows up as a changed digest.  The table was
generated before the Brownian and Levy streams of a batch were drawn
concurrently and before the paths were composed in place.

It computes only the cases the table lacks and leaves every existing entry
byte-identical, so a new process or law is added from the code it should pin.
The levy-reversed cases were added from the code before the second stream of
a batch was drawn through an executor.  For a change that is meant to move
seeded output, delete the table, or the entries meant to move, rerun, and say
why.
"""

import hashlib
import json
import os
import sys
import tempfile

from levybridge import cli

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "simulate_sha256.json")

PROCESSES = ["brownian", "bridge", "bar-beta", "tilde-beta", "zeta", "levy-reversed", "eta", "kappa"]
LEVY = ["gamma", "poisson", "none"]
ARGS = ["--steps", "64", "--paths", "6", "--seed", "7"]


def case_argv(process: str, levy: str) -> list:
    return ["simulate", "--process", process, "--levy", levy, *ARGS]


def digest(argv: list, workdir: str) -> str:
    """sha256 of the CSV the command writes to a file in workdir."""
    target = os.path.join(workdir, "out.csv")
    if cli.main(argv + ["-o", target]) != 0:
        raise RuntimeError(f"command failed: {argv}")
    with open(target, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    table = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            kept = json.load(fh)
        if kept["args"] != ARGS:
            raise SystemExit(f"{OUT} was written with other arguments; delete it and rerun")
        table = kept["sha256"]
    missing = [(p, levy) for p in PROCESSES for levy in LEVY if f"{p}/{levy}" not in table]
    with tempfile.TemporaryDirectory() as workdir:
        for p, levy in missing:
            table[f"{p}/{levy}"] = digest(case_argv(p, levy), workdir)
    with open(OUT, "w") as fh:
        json.dump({"args": ARGS, "sha256": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(missing)} new digests, {len(table)} in all, to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
