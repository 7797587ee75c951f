"""Repeat the benchmark over seeds, report the run-to-run spread and write
``perfbench/baseline.json``.

    python3 perfbench/proof.py

Each of SETS sets runs RUNS untraced runs of every workload in
BENCHMARK.json, one seed each (set k uses seeds 100k+1 .. 100k+RUNS), with
the workloads interleaved so that a change in machine load spreads over all
of them.  For each end-to-end metric it prints the median, the quartiles
and the spread (Q3 - Q1) / median, marks a spread above a third of the
metric's bound, and, from the second set on, the change of the median
against set 1.  One traced run per workload then gives the per-layer
figures and each layer's share of the traced library time.  Run from the
root of a checkout; takes about SETS * RUNS * 30 s per workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS, RUNS = 2, 10
TRACE_SEED = 1
ABSENT = "trace targets absent: "
NOTE = (
    "Replaces the one-run baseline table of ROADMAP.md and its bench.py / BENCH_*.json "
    "sketch. Spread is (Q3 - Q1) / median over the runs of one set, one seed per run. "
    "self_share is a layer's self_ms over the sum of all self_ms of the traced run."
)


def run_once(workload, seed, seconds, trace=0):
    """The result of one run, and the targets the tracer found absent."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} reported failures:\n{proc.stdout}")
    absent = [x for line in lines if line.startswith(ABSENT) for x in line[len(ABSENT):].split(", ")]
    return result, absent


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse(metric, first, later):
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def traced(workload, seconds):
    """Per-layer figures of one traced run, with each layer's self-time share."""
    result, absent = run_once(workload, TRACE_SEED, seconds, trace=1)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_ms = {name[: -len(".self_ms")]: v for name, v in values.items() if name.endswith(".self_ms")}
    total = sum(self_ms.values())
    shares = {name: v / total for name, v in sorted(self_ms.items(), key=lambda kv: -kv[1]) if v} if total else {}
    return {"seed": TRACE_SEED, "absent": absent, "self_share": shares, "metrics": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    sets = []
    for k in range(SETS):
        raw = {w: [] for w in names}
        for i in range(RUNS):
            for w in names:
                raw[w].append(run_once(w, 100 * k + i + 1, bench["run_seconds"])[0])
        figures = {
            w: {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs]) for m in e2e}
            for w, runs in raw.items()
        }
        sets.append(figures)
        for w in names:
            for m in e2e:
                f = figures[w][m["name"]]
                flag = "" if f["spread"] < m["bound"] / 3 else "  SPREAD"
                drift = ""
                if k:
                    d = worse(m, sets[0][w][m["name"]]["median"], f["median"])
                    drift = f"  vs set 1: {d:+.3f}" + ("  WORSE" if d > m["bound"] else "")
                print(f"set {k + 1} {w:10s} {m['name']:12s} median {f['median']:10.4f} "
                      f"q1 {f['q1']:10.4f} q3 {f['q3']:10.4f} spread {f['spread']:.3f} "
                      f"(bound {m['bound']}){flag}{drift}", flush=True)
                print("    values " + " ".join(f"{v:.4g}" for v in f["values"]), flush=True)

    traces = {}
    for w in names:
        traces[w] = traced(w, bench["run_seconds"])
        top = ", ".join(f"{name} {share:.2f}" for name, share in list(traces[w]["self_share"].items())[:5])
        print(f"trace {w:10s} overhead {traces[w]['metrics']['trace.overhead_frac']:.3f} "
              f"absent {traces[w]['absent'] or 'none'}; self time: {top}", flush=True)

    out = {
        "note": NOTE,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "run_seconds": bench["run_seconds"],
        "sets": [
            {"seeds": [100 * k + i + 1 for i in range(RUNS)], "workloads": s}
            for k, s in enumerate(sets)
        ],
        "traced": traces,
        "layer_effects": tracing.LAYER_EFFECTS,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
