"""Per-layer tracing of one ccakit CLI task, from outside the package.

Run as a child process of the benchmark:

    python3 perfbench/spans.py SPANS_FILE -- <ccakit cli arguments>

It wraps the public functions of each layer (see ``TARGETS``), calls
``ccakit.cli.main(argv)`` and, when main returns, writes the recorded spans
and counters to SPANS_FILE as JSON.  A wrapped function is replaced in every
ccakit module that holds a reference to it, so a by-name import such as
``from .groups import closure`` in engine, cli, bipartite and speclang is
traced as well.  ``layer_metrics`` turns the written files into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from itertools import combinations
from math import comb
from time import perf_counter

# Per-layer metrics in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("cli.self_s", "s"),
    ("speclang.elaborate.self_s", "s"),
    ("speclang.elaborate.calls", "count"),
    ("groups.closure.self_s", "s"),
    ("groups.closure.calls", "count"),
    ("groups.closure.order_sum", "count"),
    ("groups.closure.products_computed", "count"),
    ("groups.FiniteGroup.self_s", "s"),
    ("groups.constructors.self_s", "s"),
    ("groups.automorphisms.self_s", "s"),
    ("groups.automorphisms.count", "count"),
    ("groups.generates.calls", "count"),
    ("groups.generates.true_ratio", "ratio"),
    ("perm.compose.calls", "count"),
    ("kernels.search.self_s", "s"),
    ("kernels.search.calls", "count"),
    ("kernels.search.nodes", "count"),
    ("kernels.search.found", "count"),
    ("kernels.search.found_per_node", "ratio"),
    ("engine.colour_preserving_automorphisms.self_s", "s"),
    ("engine.colour_preserving_automorphisms.generators", "count"),
    ("engine.is_affine.self_s", "s"),
    ("engine.is_affine.calls", "count"),
    ("engine.is_cca_graph.self_s", "s"),
    ("engine.is_cca_graph.calls", "count"),
    ("engine.is_cca_group.self_s", "s"),
    ("engine.is_cca_group.subsets_computed", "count"),
    ("engine.is_cca_group.examined_ratio", "ratio"),
    ("engine.is_complete_colour_pair.self_s", "s"),
    ("engine.arc_lift_harness.self_s", "s"),
    ("engine.is_colour_preserving.self_s", "s"),
    ("engine.is_colour_preserving.calls", "count"),
    ("engine.replay_witness.self_s", "s"),
    ("graphs.cayley_graph.self_s", "s"),
    ("graphs.cayley_graph.calls", "count"),
    ("graphs.is_connected.self_s", "s"),
    ("bipartite.knn_actors.self_s", "s"),
    ("bipartite.double_dihedral.self_s", "s"),
    ("labeling.arc_labeling.self_s", "s"),
    ("labeling.cayley_form.self_s", "s"),
    ("labeling.induced_vertex_map.self_s", "s"),
    ("labeling.induced_vertex_map.calls", "count"),
    ("report.confirm_witness.self_s", "s"),
    ("report.to_json.self_s", "s"),
    ("report.render_dot.self_s", "s"),
    ("report.write_outputs.self_s", "s"),
    ("report.bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

_CONSTRUCTORS = ("cyclic", "dihedral", "generalized_dihedral",
                 "generalized_dicyclic", "quaternion", "direct_product",
                 "wreath_c2", "left_regular")


# ---- counters taken from arguments and results -----------------------------

def _count_closure(c, args, result):
    c["groups.closure.order_sum"] += result.order
    # the table is |G| x |G| products; computed from the order, not counted
    c["groups.closure.products_computed"] += result.order ** 2


def _count_automorphisms(c, args, result):
    if result is not None:
        c["groups.automorphisms.count"] += len(result)


def _count_search(c, args, result):
    images, nodes = result
    c["kernels.search.nodes"] += nodes
    c["kernels.search.found"] += len(images)


def _count_generators(c, args, result):
    c["engine.colour_preserving_automorphisms.generators"] += \
        len(result.generators)


def _count_report_bytes(c, args, result):
    c["report.bytes"] += len(result.encode())


def subsets_computed(k: int, witness_classes: list[int] | None) -> int:
    """Subsets of k inverse classes that is_cca_group walks through.

    The walk goes by size, then in ``combinations`` order, and stops at the
    witness subset when there is one; otherwise it covers all 2^k - 1.
    """
    if witness_classes is None:
        return 2 ** k - 1
    size = len(witness_classes)
    rank = sum(comb(k, s) for s in range(1, size))
    for combo in combinations(range(k), size):
        rank += 1
        if list(combo) == witness_classes:
            return rank
    raise ValueError("witness classes are not a subset of the classes")


def _count_cca_group(c, args, result):
    from ccakit.groups import inverse_classes

    classes = inverse_classes(args[0])
    witness = None
    if "connection" in result.data:
        conn = set(result.data["connection"])
        witness = [k for k, cls in enumerate(classes) if cls[0] in conn]
    c["engine.is_cca_group.subsets_computed"] += \
        subsets_computed(len(classes), witness)
    for check in result.checks:
        if check.name == "connection-sets-examined":
            c["engine.is_cca_group.examined"] += int(check.detail)


# (span name, module, attribute, counter hook or None)
TARGETS = [
    ("cli", "ccakit.cli", "main", None),
    ("speclang.elaborate", "ccakit.speclang", "elaborate", None),
    ("groups.closure", "ccakit.groups", "closure", _count_closure),
    ("groups.FiniteGroup", "ccakit.groups", "FiniteGroup.__init__", None),
    *[("groups.constructors", "ccakit.groups", name, None)
      for name in _CONSTRUCTORS],
    ("groups.automorphisms", "ccakit.groups", "automorphisms",
     _count_automorphisms),
    ("kernels.search", "ccakit.kernels", "search", _count_search),
    ("engine.colour_preserving_automorphisms", "ccakit.engine",
     "colour_preserving_automorphisms", _count_generators),
    ("engine.is_affine", "ccakit.engine", "is_affine", None),
    ("engine.is_cca_graph", "ccakit.engine", "is_cca_graph", None),
    ("engine.is_cca_group", "ccakit.engine", "is_cca_group",
     _count_cca_group),
    ("engine.is_complete_colour_pair", "ccakit.engine",
     "is_complete_colour_pair", None),
    ("engine.arc_lift_harness", "ccakit.engine", "arc_lift_harness", None),
    ("engine.is_colour_preserving", "ccakit.engine", "is_colour_preserving",
     None),
    ("engine.replay_witness", "ccakit.engine", "replay_witness", None),
    ("graphs.cayley_graph", "ccakit.graphs", "cayley_graph", None),
    ("graphs.is_connected", "ccakit.graphs", "is_connected", None),
    ("bipartite.knn_actors", "ccakit.bipartite", "knn_actors", None),
    ("bipartite.double_dihedral", "ccakit.bipartite", "double_dihedral",
     None),
    ("labeling.arc_labeling", "ccakit.labeling", "arc_labeling", None),
    ("labeling.cayley_form", "ccakit.labeling", "cayley_form", None),
    ("labeling.induced_vertex_map", "ccakit.labeling", "induced_vertex_map",
     None),
    ("report.confirm_witness", "ccakit.report", "confirm_witness", None),
    ("report.to_json", "ccakit.report", "to_json", _count_report_bytes),
    ("report.render_dot", "ccakit.report", "render_dot",
     _count_report_bytes),
    ("report.write_outputs", "ccakit.report", "write_outputs", None),
]

# Hot, cheap calls are counted without a span to keep the overhead low.
COUNTED = [
    ("perm.compose", "ccakit.perm", "compose"),
    ("groups.generates", "ccakit.groups", "FiniteGroup.generates"),
]


class Recorder:
    """Spans and counters of one task, kept in memory until the task ends.

    A span is (name, start, end, parent index); -1 marks a root span.  The
    dump names the task once for all of its spans.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.current = -1
        self.missing: list[str] = []

    def span(self, name, fn, hook):
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent)
                self.current = parent
            if hook is not None:
                hook(self.counters, args, result)
            return result
        return wrapper

    def count(self, name, fn):
        counters = self.counters
        calls = name + ".calls"
        trues = name + ".true"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[calls] += 1
            if result is True:
                counters[trues] += 1
            return result
        return wrapper

    def dump(self, task: str) -> dict:
        return {"task": task, "spans": self.spans,
                "counters": dict(self.counters), "missing": self.missing}


def install(rec: Recorder) -> list[str]:
    """Wrap every target that exists; returns the ones that do not.

    A function the package no longer has reads 0 in every metric instead of
    failing the traced run.
    """
    import ccakit.cli  # noqa: F401  (loads every layer module)

    plan = [(mod, attr, lambda fn, n=name, h=hook: rec.span(n, fn, h))
            for name, mod, attr, hook in TARGETS]
    plan += [(mod, attr, lambda fn, n=name: rec.count(n, fn))
             for name, mod, attr in COUNTED]
    modules = [m for name, m in sys.modules.items()
               if name == "ccakit" or name.startswith("ccakit.")]
    missing = []
    for mod, attr, make in plan:
        owner = importlib.import_module(mod)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            missing.append(f"{mod}.{attr}")
            continue
        wrapper = make(original)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


# ---- turning span files into metrics ----------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the tasks whose dumps are given.

    ``trace.overhead_s`` is not a property of the spans; the caller sets it.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, int] = defaultdict(int)
    for dump in dumps:
        spans = dump["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            self_s[name] += own
            calls[name] += 1
        for key, value in dump["counters"].items():
            counters[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s[base]
        elif kind == "calls" and base in calls:
            out[metric] = calls[base]
        else:
            out[metric] = counters.get(metric, 0)
    out["groups.generates.true_ratio"] = ratio(
        counters["groups.generates.true"], counters["groups.generates.calls"])
    out["kernels.search.found_per_node"] = ratio(
        counters["kernels.search.found"], counters["kernels.search.nodes"])
    out["engine.is_cca_group.examined_ratio"] = ratio(
        counters["engine.is_cca_group.examined"],
        counters["engine.is_cca_group.subsets_computed"])
    out["trace.overhead_s"] = 0.0
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS_FILE -- <ccakit cli arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    rec = Recorder()
    rec.missing = install(rec)
    import ccakit.cli

    try:
        code = ccakit.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(rec.dump(" ".join(cli_argv)), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
