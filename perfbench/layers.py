"""Per-layer timing from outside the program.

The traced child process installs :class:`LayerTimer` wrappers around
the entry functions of each module of ``repro`` and runs the command as
usual.  Each wrapper charges its call to one *layer* and keeps a stack
of open calls, so a layer's figure is its **self time**: the call's
duration minus the wrapped calls made inside it.  Self times of all
layers therefore never overlap, and together with the time no wrapper
saw (``cli.unaccounted_s``) they add up to the traced wall time.

Nothing here edits the program: wrappers replace module and class
attributes in the child process only, and the program's own spans and
counters (``--trace``, ``report.trace``, ``last_batch_trace``) are read
after the run by :func:`span_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

#: ``(module, attribute, layer)``: the entry functions each layer is
#: charged through.  ``Class.method`` attributes patch the class.
TARGETS = (
    ("repro.datasets.io", "load_points", "io.load_s"),
    ("repro.engine.arrays", "PointArray.from_points", "arrays.to_columns_s"),
    ("repro.engine.planner", "array_rcj", "planner.materialize_s"),
    ("repro.engine.planner", "array_parallel_rcj", "planner.materialize_s"),
    ("repro.engine.kernels", "knn_candidate_blocks", "kernels.candidate_s"),
    ("repro.engine.kernels", "halfplane_prune_window", "kernels.prune_s"),
    ("repro.engine.kernels", "halfplane_prune_pairs", "kernels.prune_s"),
    ("repro.engine.kernels", "cone_cover", "kernels.prune_s"),
    ("repro.engine.kernels", "verify_rings_batch", "kernels.verify_s"),
    ("repro.parallel.costmodel", "choose_plan", "costmodel.plan_s"),
    ("repro.parallel.costmodel", "choose_topk_plan", "costmodel.plan_s"),
    ("repro.parallel.costmodel", "choose_dynamic_backend", "costmodel.plan_s"),
    ("repro.parallel.pool", "parallel_rcj_pair_indices", "pool.wall_s"),
    ("repro.engine.streaming", "topk_array", "topk.run_s"),
    ("repro.engine.planner", "make_dynamic", "dynamic.build_s"),
    ("repro.engine.streaming", "DynamicArrayRCJ.apply_batch", "dynamic.apply_batch_s"),
    ("repro.core.dynamic", "DynamicRCJ.apply_batch", "dynamic.apply_batch_s"),
    ("repro.bench.runner", "build_workload", "rtree.build_s"),
    ("repro.core.bij", "bij", "core.join_s"),
    ("repro.core.inj", "inj", "core.join_s"),
    ("repro.rtree.tree", "RTree.read_node", "rtree.read_node_s"),
    ("repro.calibration.observations", "record_observation", "calibration.record_s"),
    ("repro.calibration.observations", "record_planned_run", "calibration.record_s"),
    ("repro.cli", "_write_pairs", "cli.write_s"),
    ("repro.obs.export", "write_jsonl", "obs.export_s"),
)

#: Every self-time layer, in report order.  With ``cli.import_s`` and
#: ``cli.unaccounted_s`` these partition the traced wall time.
SELF_LAYERS = ("cli.import_s",) + tuple(
    dict.fromkeys(layer for _m, _a, layer in TARGETS)
)


class LayerTimer:
    """Self-time accounting over nested wrapped calls (one thread)."""

    def __init__(self):
        self.self_s = dict.fromkeys(SELF_LAYERS, 0.0)
        self._open: list[list[float]] = []

    def charge(self, layer: str, seconds: float) -> None:
        """Charge time measured outside any wrapper (the imports)."""
        self.self_s[layer] += seconds

    def wrap(self, layer: str, fn):
        open_calls = self._open
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner = [0.0]
            open_calls.append(inner)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_calls.pop()
                self_s[layer] += dt - inner[0]
                if open_calls:
                    open_calls[-1][0] += dt

        return timed

    def install(self) -> None:
        """Import every target module and wrap its entry functions.

        A function imported by name into other modules
        (``from repro.engine.kernels import verify_rings_batch``) is
        replaced there too, so every caller goes through the wrapper.
        """
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    bound = getattr(owner, method)
                    setattr(owner, method, staticmethod(self.wrap(layer, bound)))
                else:
                    setattr(owner, method, self.wrap(layer, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, name, wrapped)


def _median(values):
    return statistics.median(values) if values else 0.0


def span_metrics(roots) -> dict:
    """Layer figures read from the program's own span trees.

    ``roots`` are the :class:`repro.obs.trace.Span` trees of one run:
    the join/top-k root written by ``--trace``, or every
    ``last_batch_trace`` of a stream run.
    """
    from repro.obs.trace import counter_totals, stage_totals

    counters: dict = {}
    stages: dict = {}
    for root in roots:
        for key, value in counter_totals(root).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in stage_totals(root).items():
            stages[key] = stages.get(key, 0.0) + value
    shard_spans = [s for r in roots for s in r.find("shard")]
    shards = [s.seconds for s in shard_spans]
    shard_stages: dict = {}
    for shard in shard_spans:
        for key, value in stage_totals(shard).items():
            shard_stages[key] = shard_stages.get(key, 0.0) + value
    startup = [s.seconds for r in roots for s in r.find("pool-startup")]
    candidates = counters.get("candidates", 0)
    # Batch and pipeline kernels count verified pairs; the dynamic
    # backend counts the pairs its verify stage added.
    verified = counters.get("verified", counters.get("added", 0))
    return {
        "counters": counters,
        "stages": stages,
        "pool.startup_s": sum(startup),
        "pool.shard_cpu_s": sum(shards),
        "pool.shard_skew": max(shards) / _median(shards) if shards else 0.0,
        "pool.bytes_shipped": counters.get("bytes-shipped", 0),
        "pool.shard_candidate_s": shard_stages.get("candidate", 0.0),
        "pool.shard_prune_s": shard_stages.get("prune", 0.0),
        "pool.shard_verify_s": shard_stages.get("verify", 0.0),
        "kernels.candidates": candidates,
        "kernels.verify_yield": verified / candidates if candidates else 0.0,
    }
