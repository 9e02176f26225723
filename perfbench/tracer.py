"""Spans and counters recorded around the package's module boundaries.

The traced run swaps selected module attributes of ``fading_capacity`` for
wrappers while one operation runs, then puts the originals back. A wrapper
records a span (name, start, end, parent span) and, through an optional count
function, the work the call did. Nothing under ``src/`` is changed: every
wrapper is installed from here.

A plain function is patched in every package module that holds it (so a call
from ``optimizer`` to ``kkt_scan`` and a call from ``cli`` to ``kkt_scan`` are
both seen); a method is patched on its class. Module globals are looked up at
call time, so calls made inside the defining module are seen as well.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PACKAGE = "fading_capacity"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _written_bytes(args, kwargs, result):
    path = Path(_arg(args, kwargs, 0, "out_dir")) / _arg(args, kwargs, 1, "name")
    return {"cli.write_bytes": path.stat().st_size}


def _solve_rows(args, kwargs, result):
    b = _arg(args, kwargs, 1, "b")
    return {"channel.solve_rows": b.shape[1] if b.ndim == 2 else 1}


@dataclass(frozen=True)
class Boundary:
    """One wrapped name: span name, defining module, attribute, counter hook."""

    span: str
    module: str
    attr: str
    count: Callable | None = None


BOUNDARIES = (
    Boundary("estimate.mix", "estimate", "_weighted_mix",
             lambda a, k, r: {"estimate.mix_elems": a[0].size,
                              "estimate.mix_bytes": a[0].nbytes}),
    Boundary("estimate.stream", "estimate", "_ConditionalLaws.stream_stats",
             lambda a, k, r: {"estimate.stream_samples":
                              _arg(a, k, 3, "cfg").samples}),
    Boundary("estimate.mi", "estimate", "mutual_information"),
    Boundary("estimate.shell", "estimate", "shell_probability",
             lambda a, k, r: {"estimate.shell_samples": r.samples}),
    Boundary("channel.cov", "channel", "conditional_covariance"),
    Boundary("channel.solve", "channel", "solve_triangular", _solve_rows),
    Boundary("channel.rng", "channel", "_complex_standard_normals",
             lambda a, k, r: {"channel.rng_draws": r.shape[0] * r.shape[1]}),
    Boundary("measure.build", "measure", "DiscreteMeasure.__init__"),
    Boundary("kkt.scan", "kkt", "kkt_scan",
             lambda a, k, r: {"kkt.scan_points": len(r.points) + len(r.support)}),
    Boundary("optimizer.evaluator_build", "optimizer", "_SupportEvaluator.__init__"),
    Boundary("optimizer.cross_means", "optimizer", "_SupportEvaluator.cross_means"),
    Boundary("optimizer.weight_solve", "optimizer", "_multiplicative_solve"),
    Boundary("optimizer.match_power", "optimizer", "_match_power"),
    Boundary("optimizer.move", "optimizer", "_move_radii",
             lambda a, k, r: {"optimizer.move_accepted": int(bool(r[1]))}),
    Boundary("optimizer.insert", "optimizer", "_insertion_candidate",
             lambda a, k, r: {"optimizer.insert_accepted": int(r is not None)}),
    Boundary("fano.find_k", "fano", "find_sufficient_K",
             lambda a, k, r: {"fano.k_doublings": round(math.log2(r)) - 1}),
    Boundary("fano.report", "fano", "detection_report"),
    Boundary("cli.run", "cli", "run"),
    Boundary("cli.write", "cli", "_write_json", _written_bytes),
    Boundary("cli.write", "cli", "_write_csv", _written_bytes),
)


class Tracer:
    """In-memory spans, per-name call counts, self times and counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, span: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.spans[frame[0]] = (span, start, end, parent)
                tracer.calls[span] += 1
                tracer.self_time[span] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                tracer.counts.update(count(args, kwargs, result))
            return result

        return traced


def package_modules(package: str = PACKAGE) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def installed(tracer: Tracer, boundaries=BOUNDARIES, package: str = PACKAGE):
    """Patch every boundary for the duration of the block.

    A boundary whose attribute no longer exists raises (AttributeError or
    KeyError), so a refactor that renames a wrapped name cannot make its layer read zero.
    """
    patches = []
    try:
        for b in boundaries:
            module = importlib.import_module(f"{package}.{b.module}")
            owner_name, _, attr = b.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                target = vars(owner)[attr]
                owners = [owner]
            else:
                target = getattr(module, attr)
                owners = [m for m in package_modules(package)
                          if getattr(m, attr, None) is target]
            wrapped = tracer.wrap(b.span, target, b.count)
            for owner in owners:
                patches.append((owner, attr, target))
                setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
