"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper in every
``unrectify`` module that holds it, so calls the library makes between its
own modules are recorded too, and wraps ``apply`` on every element class.
A span is (id, name, parent id, start, end); spans stay in memory and are
written out once, when the run ends.  Parents follow a per-thread stack,
and items that ``parallel_map`` runs on worker threads take its span as
their parent.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

# span name -> the functions it covers, as (module, function) where defined
TRACED = {
    "graph.forward_batch": [("graph", "forward_batch")],
    "graph.forward": [("graph", "forward")],
    "basis.pattern": [("basis", "cpwl_piece_ids"), ("basis", "pool_ids")],
    "partition.partition_stats": [("partition", "partition_stats")],
    "partition.check_refinement": [("partition", "check_refinement")],
    "partition.region_code": [("partition", "region_code")],
    "partition.affine_piece": [("partition", "affine_piece")],
    "partition.count_regions_2d": [("partition", "count_regions_2d")],
    "partition.max_pairwise_distance": [("partition", "max_pairwise_distance")],
    "parallel.parallel_map": [("parallel", "parallel_map")],
    "stability.certify": [("stability", "certify")],
    "stability.level_sums": [("stability", "level_sums")],
    "stability.spectral_norm": [("stability", "spectral_norm")],
    "stability.rescale_to_stability": [("stability", "rescale_to_stability")],
    "stability.empirical_gain": [("stability", "empirical_gain")],
    "netio.load_network": [("netio", "load_network")],
    "idx.load_idx": [("idx", "load_idx")],
    "builders.build_lenet5": [("builders", "build_lenet5")],
    "builders.conv2d_affine": [("builders", "conv2d_affine")],
    "builders.build_fusion_stack": [("builders", "build_fusion_stack")],
}

# Reported per traced pass; see the README for what each should move.
METRICS = {
    "graph.forward_batch.s": "s",
    "graph.forward_batch.rows": "rows",
    "graph.forward_batch.calls": "count",
    "graph.forward.s": "s",
    "elements.apply.s": "s",
    "elements.apply.calls": "count",
    "basis.pattern.s": "s",
    "basis.pattern.calls": "count",
    "basis.pattern.useful_ratio": "ratio",
    "partition.partition_stats.s": "s",
    "partition.partition_stats.self_s": "s",
    "partition.partition_stats.calls": "count",
    "partition.check_refinement.s": "s",
    "partition.check_refinement.self_s": "s",
    "partition.check_refinement.calls": "count",
    "partition.region_code.s": "s",
    "partition.region_code.calls": "count",
    "partition.affine_piece.s": "s",
    "partition.count_regions_2d.s": "s",
    "partition.count_regions_2d.self_s": "s",
    "partition.count_regions_2d.points": "points",
    "partition.max_pairwise_distance.s": "s",
    "partition.max_pairwise_distance.calls": "count",
    "partition.max_pairwise_distance.pairs": "pairs",
    "partition.max_pairwise_distance.subsampled": "count",
    "parallel.parallel_map.s": "s",
    "parallel.parallel_map.items": "count",
    "parallel.parallel_map.busy_ratio": "ratio",
    "stability.certify.s": "s",
    "stability.certify.calls": "count",
    "stability.level_sums.s": "s",
    "stability.spectral_norm.s": "s",
    "stability.spectral_norm.calls": "count",
    "stability.spectral_norm.entries": "count",
    "stability.spectral_norm.useful_ratio": "ratio",
    "stability.rescale_to_stability.s": "s",
    "stability.empirical_gain.s": "s",
    "stability.empirical_gain.pairs": "pairs",
    "netio.load_network.s": "s",
    "netio.load_network.bytes": "bytes",
    "idx.load_idx.s": "s",
    "idx.load_idx.bytes": "bytes",
    "builders.build_lenet5.s": "s",
    "builders.conv2d_affine.s": "s",
    "builders.conv2d_affine.calls": "count",
    "builders.build_fusion_stack.s": "s",
    "trace.overhead_s": "s",
}

# region-labelling calls: (argument naming the sample batch, arguments naming nodes)
LABELLING = {
    "partition.partition_stats": ("samples", ("node_id",)),
    "partition.check_refinement": ("samples", ("fine_node", "coarse_node")),
    "partition.region_code": (None, ("node_id",)),
    "partition.affine_piece": (None, ("node_id",)),
    "partition.count_regions_2d": (None, ("node_id",)),
}


def merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.phase = ""
        self.spans: list[tuple] = []
        self.all_spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self.begin_pass()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def enter(self, phase: str) -> None:
        """Trace the named pass phase; the empty name stops tracing."""
        self.phase = phase
        self.enabled = bool(phase)

    def begin_pass(self) -> None:
        self.spans = []
        self.counts: dict[str, float] = defaultdict(float)
        self.matrices: set[int] = set()
        self.needed: dict[tuple, set] = defaultdict(set)
        self.analysis_patterns = 0
        self.fresh = itertools.count()
        self.busy = 0.0
        self.worker_wall = 0.0
        self._subgraph_arcs: dict[tuple, frozenset] = {}

    def _span(self, name, fn, args, kwargs, after=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else getattr(self._local, "parent", None)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, t0, t1))
        if after is not None:
            with self._lock:  # counters also run on parallel_map's workers
                after(sid, result)
        return result

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "parallel.parallel_map":
                return self._parallel_map(fn, bound.arguments)
            after = None
            if counter is not None:
                after = lambda sid, result: counter(sid, bound.arguments, result)
            if self.phase == "analyse":
                if name in LABELLING:
                    self._register_needed(name, bound.arguments)
                elif name == "basis.pattern":
                    self.analysis_patterns += 1
            return self._span(name, fn, args, kwargs, after)

        return wrapper

    def _parallel_map(self, fn, arguments):
        """Span the whole map; items run on worker threads take it as parent."""
        item_fn, items = arguments["fn"], list(arguments["items"])
        threads: set[int] = set()
        busy: list[float] = []
        self.counts["parallel.parallel_map.items"] += len(items)
        caller = self._stack()

        def call():
            parent = caller[-1]

            def run_item(item):
                on_worker = not self._stack()
                if on_worker:
                    self._local.parent = parent
                t0 = time.perf_counter()
                try:
                    return item_fn(item)
                finally:
                    busy.append(time.perf_counter() - t0)
                    threads.add(threading.get_ident())
                    if on_worker:
                        self._local.parent = None

            return fn(run_item, items)

        t0 = time.perf_counter()
        result = self._span("parallel.parallel_map", call, (), {})
        self.busy += sum(busy)
        self.worker_wall += (time.perf_counter() - t0) * len(threads)
        return result

    # -- per-call counts: _count_<span name, dots as underscores> gets the
    # -- span id, the bound arguments and the result of each traced call

    def _count_graph_forward_batch(self, sid, a, result):
        self.counts["graph.forward_batch.rows"] += len(a["xs"])

    def _count_partition_count_regions_2d(self, sid, a, result):
        self.counts["partition.count_regions_2d.points"] += a["grid_n"] ** 2
        if self.phase != "analyse":
            return
        blocks = sum(1 for s in self.spans if s[2] == sid and s[1] == "graph.forward_batch")
        arcs = self._arcs_of(a["dag"], a["node_id"])
        self.needed[("grid", next(self.fresh))] = {(b, arc) for b in range(blocks) for arc in arcs}

    def _count_partition_max_pairwise_distance(self, sid, a, result):
        g = len(a["points"])
        _, subsampled = result
        self.counts["partition.max_pairwise_distance.pairs"] += (
            a["pair_cap"] if subsampled else g * (g - 1) // 2
        )
        self.counts["partition.max_pairwise_distance.subsampled"] += bool(subsampled)

    def _count_stability_spectral_norm(self, sid, a, result):
        w = a["w"]
        self.counts["stability.spectral_norm.entries"] += int(w.shape[0]) * int(w.shape[1])
        self.matrices.add(id(w))

    def _count_stability_empirical_gain(self, sid, a, result):
        self.counts["stability.empirical_gain.pairs"] += result.pairs_used

    def _count_netio_load_network(self, sid, a, result):
        self.counts["netio.load_network.bytes"] += os.path.getsize(a["path"])

    def _count_idx_load_idx(self, sid, a, result):
        self.counts["idx.load_idx.bytes"] += os.path.getsize(a["images_path"]) + os.path.getsize(
            a["labels_path"]
        )

    def _arcs_of(self, dag, node):
        """Activation arcs of a node's computable sub-graph, from the graph."""
        activation_of = self.package.elements.activation_of
        node = dag.output_node if node is None else node
        key = (id(dag), node)
        if key not in self._subgraph_arcs:
            keep, frontier = {node}, [node]
            while frontier:
                v = frontier.pop()
                for arc in dag.arcs:
                    if arc.dst == v and arc.src not in keep:
                        keep.add(arc.src)
                        frontier.append(arc.src)
            self._subgraph_arcs[key] = frozenset(
                arc.id
                for arc in dag.arcs
                if arc.src in keep and arc.dst in keep and activation_of(arc.elem) is not None
            )
        return self._subgraph_arcs[key]

    def _register_needed(self, name, a):
        """Record which (activation arc, input batch) patterns an analysis
        call needs.  The query phase is left out of the ratio: a single-point
        query needs each of its patterns once by construction.

        A sample array passed to several calls is one batch; a single-point
        call is its own batch; count_regions_2d's row blocks are counted
        when the call returns.  affine_piece derives pattern ids only for
        its pool arcs (rectifiers use slopes), so only those count there.
        """
        if name == "partition.count_regions_2d":
            return
        activation_of = self.package.elements.activation_of
        batch_arg, node_args = LABELLING[name]
        dag = a["dag"]
        arcs = set()
        for node_arg in node_args:
            arcs |= self._arcs_of(dag, a[node_arg])
        if name == "partition.affine_piece":
            pool = self.package.PoolSpec
            arcs = {aid for aid in arcs if isinstance(activation_of(dag.arcs[aid].elem), pool)}
        key = (id(dag), id(a[batch_arg])) if batch_arg else ("point", next(self.fresh))
        self.needed[key] |= arcs

    # -- install ----------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        modules = [m for n, m in sys.modules.items() if n == "unrectify" or n.startswith("unrectify.")]
        for name, targets in TRACED.items():
            for mod_name, attr in targets:
                orig = getattr(getattr(pkg, mod_name), attr)
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    if getattr(mod, attr, None) is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for cls in vars(pkg.elements).values():
            if inspect.isclass(cls) and cls.__module__ == pkg.elements.__name__ and "apply" in vars(cls):
                orig = vars(cls)["apply"]
                self._restore.append((cls, "apply", orig))
                setattr(cls, "apply", self._wrap_method(orig))

    def _wrap_method(self, fn):
        @functools.wraps(fn)
        def apply(elem, values):
            if not self.enabled:
                return fn(elem, values)
            return self._span("elements.apply", fn, (elem, values), {})

        return apply

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def end_pass(self, index: int) -> dict:
        """Per-layer metrics of the pass just traced; keeps its spans."""
        by_name: dict[str, list] = defaultdict(list)
        children: dict[int, list] = defaultdict(list)
        for sid, name, parent, t0, t1 in self.spans:
            by_name[name].append((sid, t0, t1))
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for name in {m.rsplit(".", 1)[0] for m in METRICS}:
            spans = by_name.get(name, [])
            out[name + ".s"] = sum(t1 - t0 for _, t0, t1 in spans)
            out[name + ".calls"] = len(spans)
            out[name + ".self_s"] = sum(
                (t1 - t0) - merged_length(children.get(sid, []), t0, t1) for sid, t0, t1 in spans
            )
        out.update(self.counts)
        needed = sum(len(v) for v in self.needed.values())
        out["basis.pattern.useful_ratio"] = needed / self.analysis_patterns if self.analysis_patterns else 0.0
        calls = out["stability.spectral_norm.calls"]
        out["stability.spectral_norm.useful_ratio"] = len(self.matrices) / calls if calls else 0.0
        out["parallel.parallel_map.busy_ratio"] = self.busy / self.worker_wall if self.worker_wall else 0.0
        self.all_spans.extend((index,) + s for s in self.spans)
        return {m: out.get(m, 0.0) for m in METRICS if m != "trace.overhead_s"}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["pass", "id", "name", "parent", "start", "end"],
                    "spans": self.all_spans,
                },
                fh,
            )


def median_metrics(passes: list[dict]) -> dict:
    """Times as the median over passes; counts must repeat exactly."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if METRICS[name] in ("s", "ratio"):
            out[name] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            print(f"# warning: {name} differs between passes: {values}", file=sys.stderr)
        out[name] = int(statistics.median(values))
    return out
