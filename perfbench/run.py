"""graphclean benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload solve-dp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the program is imported from
its `src/` directory and nowhere else.  A run writes its inputs for the
seed, measures set-up in fresh interpreters, warms up, then drives the
workload as a closed loop with one client and one thread: each
operation calls `graphclean.cli.main(argv)` in this process, with
stdout captured and the call timed, and its output checked.  Rounds of
the workload's operations repeat while another round fits in
`--seconds`.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
with `--trace 1` the per-layer ones, from spans around the calls into
each layer.  A run record and, when traced, the spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3  # before the first round; one more after each round
REF_LOOPS = 3  # before and after the workload each

# Runs in a fresh interpreter: import graphclean from the given src
# directory and run one warm-up operation, timed from the first line.
SETUP_CODE = """
import contextlib, io, json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import graphclean.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = graphclean.cli.main(sys.argv[2:])
print(json.dumps({"seconds": time.perf_counter() - start, "rc": rc,
                  "file": graphclean.cli.__file__}))
"""


def import_cli():
    package = SRC / "graphclean"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no graphclean sources at {package}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import graphclean.cli

    if Path(graphclean.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: graphclean was imported from {graphclean.cli.__file__}, not {package}")
    return graphclean.cli


def setup_seconds(warmup, work):
    """Set-up time of one fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *warmup],
        cwd=work, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up run failed: {proc.stderr.strip()}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["rc"] != 0 or Path(record["file"]).resolve().parent != (SRC / "graphclean").resolve():
        sys.exit(f"error: set-up warm-up returned {record}")
    return record["seconds"]


def ref_loop():
    """A fixed pure-Python loop: tells a slow host from a slow change."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def execute(main, argv):
    """One operation: exit code, stdout and the seconds the call took."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), seconds


class Tally:
    """Operations attempted and failed.  `unexpected` holds failures of
    operations other than the known-fault ones; the run is correct when
    it stays empty."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, op, rc, out):
        self.attempted += 1
        try:
            reason = op.check(rc, out)
        except Exception as exc:  # malformed output
            reason = f"output could not be checked: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if not op.known_fault:
                self.unexpected.append(f"{' '.join(op.argv)}: {reason}")
        return reason


def end_to_end(rounds, setup):
    """Timings over all of a run's rounds: wall_s is the mean round (the
    run's total operation time over its rounds), op_p50_s the median of
    all operation times, op_tail_s the time with ten operations per round
    above it, p = 1 - 10/N for N operations a round."""
    times = sorted(t for r in rounds for t in r)
    return {
        "wall_s": sum(times) / len(rounds),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[len(rounds) * (len(rounds[0]) - 10) - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args):
    cli = import_cli()
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work, reference.load())
    if len(workload.ops) < 40:
        sys.exit("error: a round needs at least 40 operations for op_tail_s")

    # keep the benchmark's own objects out of the program's garbage collections
    gc.collect()
    gc.freeze()

    setup = [setup_seconds(workload.warmup, work) for _ in range(SETUP_RUNS)]
    rc, out, _ = execute(cli.main, workload.warmup)
    if rc != 0:
        sys.exit(f"error: warm-up {workload.warmup} returned {rc}")

    main, tracer = cli.main, None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        main = tracer.wrap(spans.ROOT, cli.main)

    loops = [ref_loop() for _ in range(REF_LOOPS)]
    tally, rounds, longest = Tally(), [], 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + longest <= args.seconds:
        began, times = time.perf_counter(), []
        for index, op in enumerate(workload.ops):
            if tracer:
                tracer.op = (len(rounds), index)
            rc, out, seconds = execute(main, op.argv)
            times.append(seconds)
            tally.record(op, rc, out)
        rounds.append(times)
        setup.append(setup_seconds(workload.warmup, work))  # spread over the run's time
        longest = max(longest, time.perf_counter() - began)
    measured = time.perf_counter() - start
    loops += [ref_loop() for _ in range(REF_LOOPS)]

    if tracer:
        names = declared("per_layer")
        values = spans.layer_metrics(tracer.spans, len(rounds))
        values["host.ref_loop_s"] = statistics.median(loops)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        names = declared("end_to_end")
        values = end_to_end(rounds, setup)
    missing = set(names) - set(values)
    if missing:
        sys.exit(f"error: no value for {sorted(missing)}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "ops_per_round": len(workload.ops), "measured_s": measured,
        "op_s": rounds, "setup_s": setup, "host.ref_loop_s": loops,
        "unexpected_failures": tally.unexpected[:20], "values": values,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(
        f"{args.workload} seed={args.seed} rounds={len(rounds)} ops/round={len(workload.ops)} "
        f"failed={tally.failed}/{tally.attempted} host.ref_loop_s={statistics.median(loops):.4f}",
        file=sys.stderr,
    )
    for line in tally.unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in names.items()},
    }


# ---------------------------------------------------------- self-check

def _bump(out, key):
    # add one to every "key=<int>"
    parts = []
    for line in out.splitlines():
        tokens = []
        for tok in line.split(" "):
            k, sep, v = tok.partition("=")
            tokens.append(f"{k}={int(v) + 1}" if sep and k == key and v.isdigit() else tok)
        parts.append(" ".join(tokens))
    return "\n".join(parts) + "\n"


def _repeat_vertex(out):
    # clean the last vertex of the printed sequence twice instead of the first
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("sequence="):
            order = line[len("sequence="):].split()
            order[0] = order[-1]
            lines[i] = "sequence=" + " ".join(order)
    return "\n".join(lines) + "\n"


TAMPERS = {
    "value": lambda out: _bump(out, "value"),
    "witness": _repeat_vertex,
    "box count": lambda out: _bump(out, "connected"),
    "savings": lambda out: _bump(out, "savings"),
}


def self_check():
    """A wrong value, witness, box count or saving must be counted as a
    failed operation, and the untouched output must pass."""
    cli = import_cli()
    ref = reference.load()
    work = OUT / "self-check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    dp = workloads.solve_dp(0, work, ref).ops[0]
    box = next(op for op in workloads.report_sweep(0, work, ref).ops if "box" in op.argv)
    reduce = next(op for op in workloads.verify_reduce(0, work, ref).ops if "reduce" in op.argv)
    cases = [(dp, "value"), (dp, "witness"), (box, "box count"), (reduce, "savings")]
    ok = True
    for op, tamper in cases:
        rc, out, _ = execute(cli.main, op.argv)
        tally = Tally()
        clean = tally.record(op, rc, out)
        wrong = tally.record(op, rc, TAMPERS[tamper](out))
        passed = clean is None and wrong is not None and tally.failed == 1
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {tamper:9} {' '.join(op.argv[:4])}: "
              f"untouched -> {clean or 'passes'}; tampered -> {wrong or 'passes'}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
