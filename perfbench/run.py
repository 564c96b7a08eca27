"""Benchmark entry point: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep19 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of two
traced passes.  The line before it, starting with "report ", holds the
diagnostics: host details, the host-speed probe before and after, the
workload's input properties, wall-clock figures and the failed share.
`--workload all` runs every workload untraced and traced, prints every
metric by name with its unit, and the tracing overhead.

Every pass runs in a fresh interpreter (worker.py), one at a time.
See README.md for why each workload exists and what the metrics mean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as W
from hostspeed import probe_s

ROOT = W.HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# Set-up samples: at least 5, then more, up to 15, while the set-up-only
# passes have run for under 2 s.  Set-ups of about 0.05 s vary by 8%
# between runs with 5 samples; highrank's 4 s set-ups stop at 5.
SETUP_SAMPLES = (5, 15, 2.0)
TRACED_PASSES = 2
DEADLINE_S = 170

END_TO_END = {
    "points_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rootdata.build_s": "s",
    "rootdata.positive_roots": "count",
    "rootdata.nilradical_roots": "count",
    "weyl.normalize_s": "s",
    "weyl.normalize_calls": "count",
    "weyl.descent_steps": "count",
    "weyl.descent_steps_max": "count",
    "weyl.wall_hits": "count",
    "weyl.regular_frac": "frac",
    "jantzen.support_s": "s",
    "jantzen.support_terms": "count",
    "jantzen.nonempty_frac": "frac",
    "jantzen.oracle_s": "s",
    "jantzen.oracle_self_s": "s",
    "ratvec.pairing_calls": "count",
    "ratvec.inner_calls": "count",
    "ratvec.reflect_calls": "count",
    "ehw.screen_s": "s",
    "ehw.closed_form_calls": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise SystemExit("perfbench: run exceeded its time limit")
        return left


def spawn(workload: str, seed: int, deadline: Deadline, *extra: str) -> dict:
    """Run one pass in a fresh interpreter and return what it printed."""
    env = dict(os.environ)
    env.pop("GVM_THREADS", None)
    # Import from cached bytecode, as an installed package does, whatever
    # the caller's setting; the first pass in a checkout writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(W.HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} pass did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def input_properties(reqs, reference) -> dict:
    pts = [W.points(r, reference) for r in reqs]
    total = sum(p for p, _ in pts)
    return {
        "requests": len(reqs),
        "points": total,
        "nonempty_frac": sum(n for _, n in pts) / total,
        "repeat_frac": W.repeat_frac(reqs),
    }


def run_untraced(workload, seed, seconds, deadline, reqs, reference):
    passes = []
    began = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(spawn(workload, seed, deadline))
        now = time.monotonic()
        if now - began + (now - started) > seconds:
            break
    setups = [p["setup"] for p in passes]
    least, most, budget_s = SETUP_SAMPLES
    began = time.monotonic()
    while len(setups) < most and (len(setups) < least or time.monotonic() - began < budget_s):
        setups.append(spawn(workload, seed, deadline, "--setup-only")["setup"])

    points = sum(W.points(r, reference)[0] for r in reqs)
    # Per request, the median over passes; index 0 is wall, 1 reference seconds.
    per_req = [
        [statistics.median(p["requests"][i][k] for p in passes) for k in (0, 1)]
        for i in range(len(reqs))
    ]
    # Latency samples are the requests that decide parameters.  highrank's
    # datum-dumps take about 3 ms each; a single sample that short varies by
    # 10% between runs, so they count towards throughput but not latency.
    deciding = [r for r, req in zip(per_req, reqs) if req.kind != "datum-dump"]
    ref_ms = [r[1] * 1e3 for r in deciding]
    wall_ms = [r[0] * 1e3 for r in deciding]
    metrics = {
        "points_per_s": points / sum(r[1] for r in per_req),
        "latency_ms_p50": percentile(ref_ms, 0.50),
        "latency_ms_p99": percentile(ref_ms, 0.99),
        "setup_s": statistics.median(s[1] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    problems = [msg for p in passes for msg in p["problems"]]
    report = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "latency_samples": len(deciding),
        "output_bytes": sum(r[2] for r in passes[0]["requests"]),
        "wall": {
            "points_per_s": points / sum(r[0] for r in per_req),
            "latency_ms_p50": percentile(wall_ms, 0.50),
            "latency_ms_p99": percentile(wall_ms, 0.99),
            "setup_s": statistics.median(s[0] for s in setups),
        },
    }
    return metrics, len(reqs) * len(passes), problems, report


def run_traced(workload, seed, deadline, reqs, reference):
    span_files = [OUT_DIR / f"{workload}-seed{seed}-{k}.jsonl" for k in range(TRACED_PASSES)]
    passes = [spawn(workload, seed, deadline, "--trace", str(path)) for path in span_files]
    problems = [msg for p in passes for msg in p["problems"]]
    counts = []
    for p in passes:
        c = dict(p["trace"]["counts"])
        c["cli.output_bytes"] = sum(r[2] for r in p["requests"])
        counts.append(c)
    if any(c != counts[0] for c in counts[1:]):
        diff = {k: [c[k] for c in counts] for k in counts[0] if len({c[k] for c in counts}) > 1}
        problems.append(f"exact counts differ between traced passes: {diff}")
    metrics = dict(counts[0])
    for key in passes[0]["trace"]["layers"]:
        metrics[key] = statistics.fmean(p["trace"]["layers"][key] for p in passes)
    metrics = {k: metrics[k] for k in PER_LAYER}
    points = sum(W.points(r, reference)[0] for r in reqs)
    report = {
        "passes": len(passes),
        "traced_points_per_s": statistics.fmean(
            points / sum(r[1] for r in p["requests"]) for p in passes),
        "traced_wall_points_per_s": statistics.fmean(
            points / sum(r[0] for r in p["requests"]) for p in passes),
        "layer_self_s": passes[0]["trace"]["layer_self_s"],
        "self_time_over_wall": [sum(p["trace"]["layer_self_s"].values()) / p["trace"]["wall_s"]
                                for p in passes],
        "spans": [p["trace"]["spans"] for p in passes],
        "span_files": [str(path.relative_to(ROOT)) for path in span_files],
    }
    return metrics, len(reqs) * len(passes), problems, report


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    deadline = Deadline(DEADLINE_S)
    reference = W.load_reference()
    reqs = W.requests(workload, seed, reference)
    probe_before = probe_s()
    if trace:
        metrics, attempted, problems, extra = run_traced(workload, seed, deadline, reqs, reference)
        units = PER_LAYER
    else:
        metrics, attempted, problems, extra = run_untraced(
            workload, seed, seconds, deadline, reqs, reference)
        units = END_TO_END
    failed = len(problems)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "host": host_info(),
        "probe_s": [probe_before, probe_s()],
        **input_properties(reqs, reference),
        "failed_frac": failed / attempted,
        **extra,
        "problems": problems[:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, report


def run_all(seed: int, seconds: int) -> None:
    summary = {}
    for workload in W.WORKLOADS:
        plain, plain_report = run_workload(workload, seed, seconds, trace=False)
        traced, traced_report = run_workload(workload, seed, seconds, trace=True)
        overhead = plain["metrics"]["points_per_s"]["value"] / traced_report["traced_points_per_s"]
        print(f"== {workload}  correct={plain['correct'] and traced['correct']}"
              f"  failed_frac={plain_report['failed_frac']}"
              f"  points={plain_report['points']}"
              f"  nonempty_frac={plain_report['nonempty_frac']:.4f}"
              f"  repeat_frac={plain_report['repeat_frac']:.4f}"
              f"  output_bytes={plain_report['output_bytes']}"
              f"  tracing_overhead={overhead:.3f}x")
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
        summary[workload] = {
            "end_to_end": plain, "per_layer": traced, "tracing_overhead": overhead,
            "report": plain_report, "trace_report": traced_report,
        }
    print(json.dumps(summary))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "scalarverma" / "cli.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return 0
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
