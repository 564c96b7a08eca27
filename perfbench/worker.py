"""One fresh interpreter: set up, then run one pass of a workload's requests.

run.py starts this script once per pass and reads the one JSON object
it prints.  Set-up is timed from before the package import to after
`build_datum` has run for every case the workload touches.  Each
request calls `scalarverma.cli.main(argv)` with stdout captured, is timed
on its own, and is then checked against the reference table outside the
timed region.  Every interval is reported twice: as wall seconds, and as
reference seconds (see hostspeed.py).

    python3 perfbench/worker.py --workload sweep19 --seed 1 [--setup-only] [--trace PATH]

With --trace the package's layers are wrapped by the tracer before set-up,
and the spans are written to PATH when the pass ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads as W
from check import check
from hostspeed import HostClock

sys.path.insert(0, str(W.HERE.parent / "src"))


class Timer:
    """Wall and reference time of one interval, net of the probes inside it."""

    def __init__(self, clock: HostClock):
        self.clock = clock

    def __enter__(self):
        self.probed = self.clock.probe_total_ns
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        net = end - self.start - (self.clock.probe_total_ns - self.probed)
        self.interval = (self.start, end, net)
        return False

    def seconds(self) -> list[float]:
        """[wall seconds, reference seconds]; call after the clock has stopped."""
        start, end, net = self.interval
        return [net * 1e-9, self.clock.reference_s(start, end, net)]


def run_request(main, req, reference, clock, check_fn) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with Timer(clock) as timer:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(req.argv))
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            rc = f"exception {exc!r}"
    text = out.getvalue()
    return {"timer": timer, "bytes": len(text.encode()),
            "problem": check_fn(req, rc, text, reference)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=Path)
    args = ap.parse_args(argv)

    reference = W.load_reference()
    reqs = W.requests(args.workload, args.seed, reference)
    cases = W.setup_cases(reqs)

    clock = HostClock()
    clock.sample()
    clock.start()
    with Timer(clock) as setup:
        import scalarverma
        import scalarverma.cli

        tracer = None
        if args.trace is not None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(scalarverma)
            clock.probe = tracer.wrap("bench.probe", clock.probe)
            traced_from = time.perf_counter_ns()
        build_datum = scalarverma.rootdata.build_datum
        HermitianCase = scalarverma.rootdata.HermitianCase
        for case in cases:
            build_datum(HermitianCase(case.tag, **case.kwargs))

    runs = []
    if not args.setup_only:
        check_fn = check if tracer is None else tracer.wrap("bench.check", check)
        cli_main = scalarverma.cli.main
        for req in reqs:
            if tracer is not None:
                tracer.request += 1
            runs.append(run_request(cli_main, req, reference, clock, check_fn))
    traced_to = time.perf_counter_ns()
    clock.stop()
    clock.sample()
    clock.smooth()

    result = {"setup": setup.seconds()}
    if not args.setup_only:
        result["requests"] = [r["timer"].seconds() + [r["bytes"]] for r in runs]
        result["problems"] = [
            f"{req.case.label} {req.kind}: {r['problem']}"
            for req, r in zip(reqs, runs)
            if r["problem"] is not None
        ]
    if tracer is not None:
        probes = sum(e - s for name, s, e, _, _ in tracer.spans if name == "bench.probe")
        result["trace"] = {
            "wall_s": clock.reference_s(traced_from, traced_to, traced_to - traced_from - probes),
            "layer_self_s": tracer.layer_self(clock.reference_s),
            "spans": len(tracer.spans),
            "layers": tracer.layer_metrics(clock.reference_s),
            "counts": tracer.exact_counts(),
        }
        tracer.write(args.trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
