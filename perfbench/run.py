"""supertrop benchmark: one closed-loop caller, one process, no threads.

    python3 perfbench/run.py --workload matrix-ops --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (import, input generation, reference results) runs once before the
timed loop and is repeated at evenly spaced pauses of it; the median of
all set-ups is reported.  The timed loop runs whole rounds of ops until
the ops' own timed wall time reaches ``--seconds`` (and at least
``MIN_OPS`` ops ran), checking every output between ops, outside the
timed region.
``--trace 1`` runs half the time untraced and half traced and reports
per-layer metrics instead.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import collections
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up runs SETUP_MIN_REPS times or, if that takes less than SETUP_MIN_S,
# as often as fills SETUP_MIN_S, up to SETUP_MAX_REPS times: short set-ups
# get more repeats, so their median is as steady as that of long ones.  The
# repeats after the first are spread over the timed loop, so that they meet
# the same changes in machine load as the ops do.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 5, 15, 3.0
MIN_OPS = 100  # p90 then has at least 10 samples beyond it

# Rounds prepared in set-up.  Once the timed loop has used them, further
# rounds come from the same seeded stream, generated between ops; no input
# is used twice.
POOL = {"matrix-ops": 2, "forms": 64, "wide": 12, "cli": 4}
WORKLOADS = tuple(POOL)


def source(workload, lib, seed, work, in_process):
    """The workload's endless, seeded stream of rounds."""
    gen = inputs.Gen(workload, seed)
    if workload == "matrix-ops":
        return workloads.matrix_ops(lib, gen)
    if workload == "forms":
        return workloads.forms(lib, gen)
    if workload == "wide":
        return workloads.wide(lib, gen)
    return workloads.cli(lib, gen, str(work), str(SRC), in_process)


class Pool:
    """Rounds generated ahead, then on demand; each round is handed out once."""

    def __init__(self, rounds, ahead):
        self.rounds = rounds
        self.ready = collections.deque(itertools.islice(rounds, ahead))

    def next(self):
        return self.ready.popleft() if self.ready else next(self.rounds)


def setup(workload, seed, work, in_process):
    """One full set-up from a fresh import and a collected heap:
    (seconds, lib, pool)."""
    gc.collect()
    inputs.purge()
    t0 = time.perf_counter()
    lib = inputs.Lib()
    pool = Pool(source(workload, lib, seed, work, in_process), POOL[workload])
    return time.perf_counter() - t0, lib, pool


def setup_reps(first):
    """How many set-ups a run makes, given the time of the first."""
    return min(SETUP_MAX_REPS, max(SETUP_MIN_REPS, math.ceil(SETUP_MIN_S / first)))


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Loop:
    """Result of one timed loop."""

    def __init__(self):
        self.latencies = []
        self.failures = []  # (label, problems)
        self.busy = 0.0
        self.rounds = 0

    @property
    def ok(self):
        return len(self.latencies) - len(self.failures)

    @property
    def rate(self):
        return self.ok / self.busy if self.busy else 0.0


def timed_loop(pool, seconds, tracer=None, pauses=0, pause=None):
    """Whole rounds until the ops' timed wall time reaches ``seconds`` and
    MIN_OPS ops ran; a wall-clock cap of 4x ``seconds`` ends the loop even
    mid-round, so a badly slowed program still exits.  ``pause()`` runs
    between rounds, outside the timed region and the cap, each time another
    ``seconds / (pauses + 1)`` of timed wall time has passed; pauses the
    loop did not reach run after it, unless the cap ended it."""
    res = Loop()
    perf = time.perf_counter
    deadline = perf() + 4 * seconds
    op_id = 0
    done = 0
    while res.busy < seconds or len(res.latencies) < MIN_OPS:
        while done < pauses and res.busy >= (done + 1) * seconds / (pauses + 1):
            t0 = perf()
            pause()
            deadline += perf() - t0
            done += 1
        for op in pool.next():
            if tracer is not None:
                tracer.begin_op(op_id, op.kind)
            t0 = perf()
            try:
                out = op.call()
            except Exception as exc:  # a failed op, counted below
                out = exc
            dt = perf() - t0
            if tracer is not None:
                tracer.end_op()
            op_id += 1
            res.busy += dt
            res.latencies.append(dt)
            problems = op.verify(out)
            if problems:
                res.failures.append((op.label, problems))
            if perf() > deadline:
                return res
        res.rounds += 1
    for _ in range(done, pauses):
        pause()
    return res


def scalar_ns(lib, seed):
    """Median ns per Scalar + and per Scalar * over generated integer and
    fractional scalars, tangible and ghost."""
    gen = inputs.Gen("scalars", seed)
    xs = [lib.scalar(gen.scalar(zero=0.0, frac=0.5)) for _ in range(2000)]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    perf = time.perf_counter_ns
    add, mul = [], []
    for _ in range(7):
        t0 = perf()
        for a, b in pairs:
            a + b
        t1 = perf()
        for a, b in pairs:
            a * b
        t2 = perf()
        add.append((t1 - t0) / len(pairs))
        mul.append((t2 - t1) / len(pairs))
    return statistics.median(add), statistics.median(mul)


def child_ms(code, reps=7):
    """Median wall ms of a fresh interpreter running ``code``."""
    env = workloads.child_env(str(SRC))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def import_ms(reps=7):
    """Median ms of ``import supertrop.cli`` inside a fresh child."""
    code = "import time; t = time.perf_counter(); import supertrop.cli; print(time.perf_counter() - t)"
    env = workloads.child_env(str(SRC))
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout) * 1e3
        for _ in range(reps)
    ]
    return statistics.median(times)


def run_probes(workload, lib, work):
    """Run the workload's untimed probes; returns (label, problems) of each
    failing one."""
    failed = []
    for op in workloads.probes(workload, lib, work, str(SRC)):
        try:
            out = op.call()
        except Exception as exc:  # reported like any failed op
            out = exc
        problems = op.verify(out)
        if problems:
            failed.append((op.label, problems))
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "supertrop" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}/supertrop", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    trace = bool(args.trace)
    is_cli = args.workload == "cli"
    first, lib, pool = setup(args.workload, args.seed, work, in_process=trace and is_cli)
    setup_times = [first]
    gc.collect()
    gc.freeze()  # keep the set-up objects out of the cyclic collector's scans

    def pause():
        # Another full set-up, timed and thrown away.
        setup_times.append(setup(args.workload, args.seed, work, False)[0])
        gc.collect()

    if not trace:
        loops = [timed_loop(pool, args.seconds, pauses=setup_reps(first) - 1, pause=pause)]
    else:
        # Both halves run the same seeded rounds, so their rates compare.
        untraced = timed_loop(pool, args.seconds / 2)
        pool = Pool(source(args.workload, lib, args.seed, work, is_cli), POOL[args.workload])
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = timed_loop(pool, args.seconds / 2, tracer)
        loops = [untraced, traced]

    probe = run_probes(args.workload, lib, str(work))
    attempted = sum(len(x.latencies) for x in loops)
    failures = [f for x in loops for f in x.failures]
    for label, problems in failures[:50]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for label, problems in probe:
        print(f"probe failed: {label}: {'; '.join(problems)}")
    main_loop = loops[-1]
    print(f"workload={args.workload} seed={args.seed} trace={int(trace)} "
          f"samples={len(main_loop.latencies)} rounds={main_loop.rounds} "
          f"ops_failed_frac={len(failures) / attempted:.4f} "
          f"setup_reps={[round(t, 4) for t in setup_times]}")

    if not trace:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
        metrics = {
            "ops_per_s": metric(main_loop.rate, "1/s"),
            "op_p50_ms": metric(percentile(main_loop.latencies, 0.5) * 1e3, "ms"),
            "op_p90_ms": metric(percentile(main_loop.latencies, 0.9) * 1e3, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(usage.ru_maxrss / 1024, "MB"),
        }
    else:
        values = tracer.metrics(len(traced.latencies))
        values["scalars.add_ns"], values["scalars.mul_ns"] = scalar_ns(lib, args.seed)
        values["cli.interp_start_ms"] = child_ms("pass") if is_cli else 0.0
        values["cli.import_ms"] = import_ms() if is_cli else 0.0
        values["probe.failed"] = float(len(probe))
        values["trace.overhead_frac"] = 1 - traced.rate / untraced.rate if untraced.rate else 0.0
        units = dict(tracing.metric_names())
        metrics = {name: metric(values[name], units[name]) for name, _ in tracing.metric_names()}
        if tracer.absent:
            print(f"trace targets absent: {', '.join(tracer.absent)}")
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
