"""Spans and exact counts around the package's public functions.

The tracer replaces chosen functions by wrappers in the namespace of every
package module that holds them: where they are defined, and every module
that imported them by name.  Calls between modules and calls inside one
module (for example `reflect` calling `pairing`) therefore both go through
the wrappers.  Nothing in the package itself changes.

A span is `[name, start_ns, end_ns, parent_index, request_id]`.  Spans
are kept in memory and written out once, when the traced pass ends.  A
span's self time is its duration minus the durations of its direct
children; all traced work runs on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Functions timed as spans, by module: (module, attribute).
SPANNED = (
    ("cli", "main"),
    ("rootdata", "build_datum"),
    ("jantzen", "classify_scalar"),
    ("jantzen", "jantzen_support"),
    ("weyl", "normalize"),
    ("ehw", "special_line"),
    ("ehw", "line_offset"),
    ("ehw", "abc_constants"),
    ("ehw", "abc_verdict"),
    ("ehw", "closed_form_reducible"),
)
# Fraction arithmetic primitives: counted, not timed.
COUNTED = (("ratvec", "pairing"), ("ratvec", "inner"), ("ratvec", "reflect"))
MODULES = ("cli", "ehw", "jantzen", "weyl", "rootdata", "ratvec")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.calls = defaultdict(int)
        self.normalize_steps: list[int] = []
        self.wall_hits = 0
        self.support_sizes: list[int] = []
        self.data: dict = {}

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Swap the traced functions for wrappers across the package's modules."""
        modules = {name: getattr(package, name) for name in MODULES}
        observers = {
            "weyl.normalize": self._on_normalize,
            "jantzen.jantzen_support": self._on_support,
            "rootdata.build_datum": self._on_datum,
        }
        swap = {}
        for mod, attr in SPANNED:
            name = f"{mod}.{attr}"
            fn = getattr(modules[mod], attr)
            swap[id(fn)] = self.wrap(name, fn, observers.get(name))
        for mod, attr in COUNTED:
            fn = getattr(modules[mod], attr)
            swap[id(fn)] = self._counted(f"{mod}.{attr}", fn)
        for module in list(modules.values()) + [package]:
            for key, value in list(vars(module).items()):
                wrapper = swap.get(id(value))
                if wrapper is not None:
                    setattr(module, key, wrapper)

    def wrap(self, name, fn, observe=None):
        """fn, recording a span named `name` around each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.request]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def _on_normalize(self, form) -> None:
        if form.is_regular:
            self.normalize_steps.append(form.steps)
        else:
            self.wall_hits += 1

    def _on_support(self, support) -> None:
        self.support_sizes.append(len(support))

    def _on_datum(self, datum) -> None:
        self.data[datum.case] = (len(datum.positive_roots), len(datum.nilradical_roots))

    # -- results ------------------------------------------------------------

    def times(self, to_seconds) -> tuple[dict, dict]:
        """(inclusive, self) seconds per span name, without the probes inside.

        to_seconds(start_ns, end_ns, net_ns) converts one span, where net_ns
        is its duration less the host-speed probes that interrupted it.
        """
        spans = self.spans
        probed = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if name == "bench.probe":
                while parent >= 0:
                    probed[parent] += end - start
                    parent = spans[parent][3]
        incl = [
            0.0 if name == "bench.probe" else to_seconds(start, end, end - start - probed[i])
            for i, (name, start, end, _, _) in enumerate(spans)
        ]
        child = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                child[rec[3]] += incl[i]
        total, own = defaultdict(float), defaultdict(float)
        for i, rec in enumerate(spans):
            total[rec[0]] += incl[i]
            own[rec[0]] += incl[i] - child[i]
        return total, own

    def layer_self(self, to_seconds) -> dict:
        """Self seconds per layer: the part of the span name before the dot."""
        out = defaultdict(float)
        for name, seconds in self.times(to_seconds)[1].items():
            out[name.split(".")[0]] += seconds
        return dict(out)

    def exact_counts(self) -> dict:
        """Counts that must repeat identically for the same inputs."""
        calls = self.normalize_steps
        return {
            "ratvec.pairing_calls": self.calls["ratvec.pairing"],
            "ratvec.inner_calls": self.calls["ratvec.inner"],
            "ratvec.reflect_calls": self.calls["ratvec.reflect"],
            "weyl.normalize_calls": len(calls) + self.wall_hits,
            "weyl.descent_steps": sum(calls),
            "weyl.descent_steps_max": max(calls, default=0),
            "weyl.wall_hits": self.wall_hits,
            "jantzen.support_terms": sum(self.support_sizes),
            "ehw.closed_form_calls": sum(
                1 for s in self.spans if s[0] == "ehw.closed_form_reducible"
            ),
            "rootdata.positive_roots": sum(p for p, _ in self.data.values()),
            "rootdata.nilradical_roots": sum(n for _, n in self.data.values()),
        }

    def layer_metrics(self, to_seconds) -> dict:
        total, own = self.times(to_seconds)
        normalize_calls = len(self.normalize_steps) + self.wall_hits
        supports = self.support_sizes
        return {
            "rootdata.build_s": own["rootdata.build_datum"],
            "weyl.normalize_s": own["weyl.normalize"],
            "weyl.regular_frac": len(self.normalize_steps) / normalize_calls
            if normalize_calls else 0.0,
            "jantzen.support_s": own["jantzen.jantzen_support"],
            "jantzen.nonempty_frac": sum(1 for n in supports if n) / len(supports)
            if supports else 0.0,
            "jantzen.oracle_s": total["jantzen.classify_scalar"],
            "jantzen.oracle_self_s": own["jantzen.classify_scalar"],
            "ehw.screen_s": sum(v for k, v in own.items() if k.startswith("ehw.")),
            "cli.main_s": total["cli.main"],
            "cli.self_s": own["cli.main"],
        }

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
