"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quote|option|mc --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  An
untraced run (``--trace 0``) repeats whole passes of the workload while the
next pass fits in ``--seconds`` and reports the end-to-end metrics from the
operations' times (see ``op_times``); set-up time is the median over this
process and two fresh processes that only set up, which run inside the
``--seconds`` window.  A traced run (``--trace 1``) runs one pass untraced
and then the same pass with every layer function wrapped in a span, and
reports per-layer work counts and self times of the set-up plus the traced
pass; the work counts depend only on the seed.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, with provenance and any failed
operation with its inputs, go to ``.perfbench/`` under the repository root.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "levybridge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    threads = os.environ.get("BRIDGE_THREADS")
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "BRIDGE_THREADS": threads if threads is not None else "unset (library default: 1 worker)",
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops_per_pass": workload.mix(),
    }


def run_pass(ops, k: int) -> list[dict]:
    """Run and check every operation; a failure is recorded and the pass goes on."""
    from perfbench.workloads import CheckFailed

    records = []
    for op in ops:
        error, work = None, dict(op.work)
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation counts as failed, the run continues
            seconds = time.perf_counter() - start
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            seconds = time.perf_counter() - start
            try:
                work.update(op.check(out))
            except CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # an unreadable output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
            del out
        records.append({"pass": k, "kind": op.kind, "label": op.label, "inputs": op.inputs,
                        "seconds": seconds, "error": error, "work": work})
    return records


def run_timed(workload, seconds: float):
    """Whole passes while the next one, as long as the last, still fits in ``seconds``.

    Returns the records of the first pass and the failed records of later
    passes, each operation's time in every pass (by label, in pass order)
    and the pass walls.  Nothing else of a pass is kept, so the benchmark's
    own memory does not grow with the number of passes and peak_rss_mb
    stays the program's.
    """
    records, times, walls = [], {}, []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        done = run_pass(workload.ops(k), k)
        walls.append(time.perf_counter() - t0)
        for r in done:
            times.setdefault(r["label"], []).append(r["seconds"])
        records += done if k == 0 else [r for r in done if r["error"]]
        k += 1
        if time.perf_counter() - start + walls[-1] > seconds:
            return records, times, walls


def op_times(records, times) -> list[dict]:
    """The operations of a pass, each with its times over the passes and their mean.

    A shared machine can run at half speed for tens of seconds at a time.
    The mean over a whole run weighs each such phase by its share of the
    run; the minimum or the median of a few passes jumps with whichever
    phase it happened to fall in, and moves more from run to run.
    """
    return [{"kind": r["kind"], "label": r["label"], "work": r["work"], "times": times[r["label"]],
             "seconds": statistics.fmean(times[r["label"]])} for r in records if r["pass"] == 0]


def child_setup_s(name: str, seed: int) -> float:
    """Set-up time of a fresh process that sets the workload up and exits."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                          "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up process failed ({out.returncode}): {out.stderr.strip()[-2000:]}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run(name: str, seed: int, seconds: float, trace: int, out_dir: str = OUT_DIR, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS, started: float | None = None, setup_only: bool = False) -> dict:
    """Set up and run one workload; returns the result document (see ``main`` for the printed form)."""
    started = time.perf_counter() if started is None else started
    from perfbench import tracer as tracing
    from perfbench import workloads

    cls = workloads.WORKLOADS[name]
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    try:
        if tracer:
            undo = tracing.instrument(tracer)
            try:
                with tracing.count_warnings(tracer):
                    workload = cls(seed, workdir, tiny)
            finally:
                undo()
        else:
            workload = cls(seed, workdir, tiny)
        setup_s = time.perf_counter() - started
        if setup_only:
            return {"setup_s": setup_s}
        if tracer:
            t0 = time.perf_counter()
            records = run_pass(workload.ops(0), 0)
            plain_s = time.perf_counter() - t0
            undo = tracing.instrument(tracer)
            try:
                with tracing.count_warnings(tracer):
                    t0 = time.perf_counter()
                    traced = run_pass(workload.ops(0), 0)
                    traced_s = time.perf_counter() - t0
            finally:
                undo()
            tracer.counts["cli.bytes_written"] += sum(r["work"].get("bytes", 0) for r in traced)
            records += traced
            walls = [plain_s, traced_s]
        else:
            t0 = time.perf_counter()
            setups = [setup_s] + [child_setup_s(name, seed) for _ in range(setup_repeats - 1)]
            records, times, walls = run_timed(workload, seconds - (time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["error"]]
    attempted = len(records) if tracer else sum(len(t) for t in times.values())
    doc = {"provenance": provenance(workload, seed, seconds, trace),
           "attempted": attempted, "failed": len(failed), "pass_walls_s": walls,
           "failures": [{"label": r["label"], "inputs": r["inputs"], "error": r["error"]} for r in failed]}
    rows = [("fail_frac", len(failed) / attempted, "ratio", f"{len(failed)} of {attempted} operations")]
    if tracer:
        metrics = tracing.layer_metrics(tracer)
        rows.append(("trace_overhead_s", walls[1] - walls[0], "s",
                     f"traced pass {walls[1]:.4f} s - untraced pass {walls[0]:.4f} s"))
        rows += [(k, v, unit, "set-up + 1 traced pass") for k, (v, unit) in metrics.items()]
        doc["trace"] = {"calls": dict(tracer.calls), "counts": dict(tracer.counts),
                        "self_s": dict(tracer.self_time)}
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"{name}-seed{seed}.spans.csv"))
    else:
        ops = op_times(records, times)
        doc["ops"] = ops
        op_s = [o["seconds"] for o in ops]
        primary = [o["seconds"] for o in ops if o["kind"] in workload.PRIMARY]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(primary), "ms"),
        }
        passes = f"each the mean of {len(walls)} passes"
        counts = {"setup_s": f"median of n={len(setups)} set-ups", "peak_rss_mb": "n=1 process",
                  "ops_per_s": f"n={len(ops)} operations, {passes}",
                  "op_p50_ms": f"n={len(primary)} {'/'.join(workload.PRIMARY)} operations, {passes}"}
        rows += [(k, v, unit, counts[k]) for k, (v, unit) in metrics.items()]
        rows += workload.metrics(ops)
    doc["report"] = [{"name": n, "value": v, "unit": u, "samples": c} for n, v, u, c in rows]
    doc["result"] = {"correct": not failed and attempted > 0, "attempted": attempted, "failed": len(failed),
                     "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["quote", "option", "mc"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levybridge", "__init__.py")):
        print(f"error: no levybridge sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import levybridge

    if not os.path.abspath(levybridge.__file__).startswith(SRC + os.sep):
        print(f"error: imported levybridge from {levybridge.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % (1 << 63)  # any integer seed; the samplers need a nonnegative one
    doc = run(args.workload, seed, args.seconds, args.trace, started=STARTED, setup_only=args.setup_only)
    if args.setup_only:
        print(json.dumps(doc))
        return 0
    prov = doc["provenance"]
    print(f"perfbench {args.workload}: {prov['why']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for row in doc["report"]:
        print(f"  {row['name']:<40} {row['value']:>16.6g} {row['unit']:<6} ({row['samples']})")
    for fail in doc["failures"]:
        print(f"  FAILED {fail['label']} {json.dumps(fail['inputs'])}: {fail['error']}")
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
