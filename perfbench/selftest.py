#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py [--oracle]

Checks that the tracing wrappers count a known call sequence exactly, that
they put back every module and class attribute they replaced (also after an
exception), that every boundary still exists in the package, and that the
metric and workload names agree with BENCHMARK.json and match
[A-Za-z0-9_.-]+. With --oracle it also recomputes the scalar-curve
supports, weights, multipliers and capacities with tests/oracles.py (about 11 s).
Exits 1 with a message on the first failure.
"""

import json
import re
import sys
import types

import run  # sets the BLAS thread count before numpy loads

run._check_layout()

import fading_capacity as fc  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _fake_package():
    """fakepkg.b.leaf(n) returns n; fakepkg.a.middle(n) calls leaf 1..n via its own name."""
    pkg = types.ModuleType("perfbench_fakepkg")
    a = types.ModuleType("perfbench_fakepkg.a")
    b = types.ModuleType("perfbench_fakepkg.b")

    def leaf(n):
        return n

    def middle(n):
        return sum(a.leaf(i) for i in range(1, n + 1))

    class Box:
        def size(self):
            return a.middle(2)

    b.leaf = leaf
    a.leaf = leaf
    a.middle = middle
    a.Box = Box
    for m in (pkg, a, b):
        sys.modules[m.__name__] = m
    return a, b


def _snapshot(modules):
    state = {}
    for m in modules:
        for key, value in vars(m).items():
            state[(m.__name__, key)] = value
            if isinstance(value, type):
                for ck, cv in vars(value).items():
                    state[(m.__name__, key, ck)] = cv
    return state


def check_known_sequence():
    a, b = _fake_package()
    before = _snapshot([a, b])
    boundaries = (
        tr.Boundary("b.leaf", "b", "leaf", lambda args, kw, r: {"b.items": r}),
        tr.Boundary("a.middle", "a", "middle"),
        tr.Boundary("a.box", "a", "Box.size"),
    )
    t = tr.Tracer()
    with tr.installed(t, boundaries, package="perfbench_fakepkg"):
        assert a.Box().size() == 3
        assert a.middle(3) == 6
    assert t.calls == {"b.leaf": 5, "a.middle": 2, "a.box": 1}, t.calls
    assert t.counts == {"b.items": 9}, t.counts
    assert len(t.spans) == 8 and None not in t.spans
    names = [s[0] for s in t.spans]
    assert names == ["a.box", "a.middle", "b.leaf", "b.leaf",
                     "a.middle", "b.leaf", "b.leaf", "b.leaf"], names
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1, -1, 4, 4, 4]
    # self times partition each top-level span
    top = sum(end - start for _, start, end, parent in t.spans if parent == -1)
    assert abs(sum(t.self_time.values()) - top) < 1e-9
    assert all(v >= 0.0 for v in t.self_time.values())
    assert _snapshot([a, b]) == before, "fake attributes not restored"

    t = tr.Tracer()
    try:
        with tr.installed(t, boundaries[:2], package="perfbench_fakepkg"):
            a.middle("boom")
    except TypeError:
        pass
    assert t.calls == {"a.middle": 1}, t.calls
    assert _snapshot([a, b]) == before, "attributes not restored after an exception"

    # A boundary that no longer exists stops the traced run, after the
    # boundaries patched before it are put back.
    gone = boundaries + (tr.Boundary("a.gone", "a", "no_such_function"),)
    try:
        with tr.installed(tr.Tracer(), gone, package="perfbench_fakepkg"):
            raise AssertionError("a missing boundary was not reported")
    except AttributeError:
        pass
    assert _snapshot([a, b]) == before, "attributes not restored after a missing boundary"


def check_real_package():
    modules = tr.package_modules()
    before = _snapshot(modules)
    model = fc.ChannelModel.isotropic(1, 1, 1.0, 1.0)
    mu = fc.DiscreteMeasure([[0j], [1.0 + 0j]], [0.5, 0.5])
    t = tr.Tracer()
    with tr.installed(t):
        fc.mutual_information(model, mu, fc.McConfig(200, seed=3))
    assert t.calls["estimate.mi"] == 1
    assert t.calls["estimate.stream"] == 2 and t.counts["estimate.stream_samples"] == 400
    assert t.calls["estimate.mix"] == 2 and t.counts["estimate.mix_elems"] == 800
    assert t.counts["estimate.mix_bytes"] == 6400
    assert t.calls["channel.cov"] == 2  # one conditional entropy per atom
    assert _snapshot(modules) == before, "package attributes not restored"


def check_names():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layer == {k: v[0] for k, v in run.PER_LAYER.items()}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    for name in names:
        assert NAME_RE.fullmatch(name), f"bad metric name {name!r}"
    wl = tuple(w["name"] for w in spec["workloads"])
    assert wl == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS), wl
    spans = {b.span for b in tr.BOUNDARIES}
    for unit, kind, *src in run.PER_LAYER.values():
        if kind in ("calls", "self"):
            assert src[0] in spans, src
        if kind == "ratio":
            assert src[1] in spans, src


def check_oracle():
    sys.path.append(str(run.ROOT / "tests"))
    from oracles import ScalarRadialOracle
    oracle = ScalarRadialOracle(1.0, 1.0)
    for label, (a, ts, ws, gamma, capacity) in workloads.ScalarCurve.points.items():
        cap2, ts2, ws2, gamma2 = oracle.capacity(a)
        assert all(abs(x - y) <= 1e-4 for x, y in zip(ws2, ws)), (label, ws2, ws)
        assert abs(cap2 - capacity) <= 1e-6 * capacity, (label, cap2, capacity)
        assert abs(gamma2 - gamma) <= 1e-4 * gamma, (label, gamma2, gamma)
        assert len(ts2) == len(ts) and all(
            abs(x - y) <= 1e-4 * (1.0 + y) for x, y in zip(ts2, ts)), (label, ts2, ts)


def main():
    if not __debug__:
        print("selftest: the checks are assert statements; run without -O", file=sys.stderr)
        return 1
    checks = [check_known_sequence, check_real_package, check_names]
    if "--oracle" in sys.argv[1:]:
        checks.append(check_oracle)
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            print(f"selftest: {check.__name__} failed: {exc}", file=sys.stderr)
            return 1
        print(f"selftest: {check.__name__} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
