"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join-uniform --seed 1 --seconds 20 --trace 0

Each repetition starts a fresh process that runs the user-facing
command (:mod:`child`) and is timed from spawn to exit while this
harness waits idle.  Repetitions run one at a time until ``--seconds``
is spent; every figure is the median over them.  ``--trace 0`` prints
the end-to-end metrics of untraced runs.  ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics; the layer
times come from the traced run with the median wall time.

Every repetition is checked against an oracle computed once per seed,
and a failed check counts as a failed operation.  The last line of
standard output is the JSON result; see ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: A repetition that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150

#: Address-space cap of each measured process and its pool workers: an
#: input that makes the program allocate without bound fails the
#: repetition (a counted failure) instead of exhausting the host.
CHILD_MEMORY_CAP = 2 << 30

#: Fewest repetitions of each kind a run makes, whatever ``--seconds``.
MIN_CYCLES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "obs.traced_wall_s": "s",
    "obs.overhead_frac": "ratio",
    "obs.export_s": "s",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "cli.unaccounted_s": "s",
    "io.load_s": "s",
    "arrays.to_columns_s": "s",
    "planner.materialize_s": "s",
    "kernels.candidate_s": "s",
    "kernels.prune_s": "s",
    "kernels.verify_s": "s",
    "kernels.candidates": "count",
    "kernels.verify_yield": "ratio",
    "costmodel.plan_s": "s",
    "costmodel.candidate_error": "ratio",
    "pool.wall_s": "s",
    "pool.startup_s": "s",
    "pool.shard_cpu_s": "s",
    "pool.shard_skew": "ratio",
    "pool.bytes_shipped": "bytes",
    "pool.shard_candidate_s": "s",
    "pool.shard_prune_s": "s",
    "pool.shard_verify_s": "s",
    "topk.run_s": "s",
    "topk.bands": "count",
    "topk.candidates": "count",
    "dynamic.build_s": "s",
    "dynamic.apply_batch_s": "s",
    "dynamic.kill_s": "s",
    "dynamic.probe_s": "s",
    "dynamic.verify_s": "s",
    "dynamic.rebuild_s": "s",
    "dynamic.rebuilds": "count",
    "dynamic.candidates_per_update": "ratio",
    "rtree.build_s": "s",
    "core.join_s": "s",
    "rtree.read_node_s": "s",
    "rtree.node_accesses": "count",
    "storage.page_faults": "count",
    "storage.hit_ratio": "ratio",
    "calibration.record_s": "s",
    "stream.updates_per_s": "1/s",
    "stream.batch_p50_ms": "ms",
    "stream.batch_p95_ms": "ms",
    "stream.batches": "count",
}


#: Per-layer metrics read from the program's own spans (:func:`layers.span_metrics`).
SPAN_LAYERS = (
    "pool.startup_s", "pool.shard_cpu_s", "pool.shard_skew",
    "pool.bytes_shipped", "pool.shard_candidate_s", "pool.shard_prune_s",
    "pool.shard_verify_s", "kernels.candidates", "kernels.verify_yield",
)


def host_fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def hermetic_env(caldir: str, traced: bool) -> dict:
    """The environment of a measured process.

    Every ``REPRO_*`` knob (dynamic-backend thresholds, memory budget)
    is dropped so that only the inputs decide the plan; the calibration
    store is a fresh empty directory, so a profile fitted earlier on
    this host cannot change ``auto`` plans and the observation log does
    not grow from run to run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_TRACE"] = "1" if traced else "0"
    env["REPRO_CALIBRATION_DIR"] = caldir
    return env


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_CAP, CHILD_MEMORY_CAP))


class Rep:
    """One measured process and what it left behind."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall = 0.0
        self.setup = 0.0
        self.rss_mb = 0.0
        self.marks: dict = {}
        self.digest = ""
        self.trace_roots: list = []
        self.error: str | None = None


def run_rep(workload, inputs, traced: bool, workers: int) -> Rep:
    from workloads import gate, read_pairs, top_k

    rep = Rep(traced)
    folder = tempfile.mkdtemp(dir=WORK, prefix="rep-")
    try:
        caldir = os.path.join(folder, "calibration")
        os.mkdir(caldir)
        out = os.path.join(folder, "out.txt")
        marks = os.path.join(folder, "marks.json")
        trace = os.path.join(folder, "trace.jsonl")
        fields = {
            "{P}": inputs.path_p,
            "{Q}": inputs.path_q,
            "{OUT}": out,
            "{W}": str(workers),
            "{BATCHES}": inputs.path_batches,
        }
        if workload.k_share:
            fields["{K}"] = str(top_k(workload, inputs))
        command = [fields.get(arg, arg) for arg in workload.command]
        argv = [sys.executable, os.path.join(HERE, "child.py"), marks]
        if traced:
            argv.append("--traced")
        if workload.ready == "stream":
            argv += ["stream", *command]
        else:
            argv += ["--ready", workload.ready, "cli", *command]
            if traced:
                argv += ["--trace", trace]
        with open(os.path.join(folder, "stderr.txt"), "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                argv,
                env=hermetic_env(caldir, traced),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=folder,
                preexec_fn=_cap_memory,
                start_new_session=True,
            )
            # The child leads its own process group, so a kill also
            # reaches the pool workers it started.
            kill = functools.partial(os.killpg, proc.pid, signal.SIGKILL)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                raise
            finally:
                watchdog.cancel()
            rep.wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        rep.rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            with open(os.path.join(folder, "stderr.txt")) as err:
                tail = err.read().strip().splitlines()[-1:]
            rep.error = f"exit code {proc.returncode}: {' '.join(tail)}"
            return rep
        with open(marks) as f:
            rep.marks = json.load(f)
        rep.setup = rep.marks["ready"] - t0
        with open(out, "rb") as f:
            rep.digest = hashlib.sha256(f.read()).hexdigest()
        rep.error = gate(workload, inputs, read_pairs(out))
        if traced and os.path.exists(trace):
            from repro.obs.export import read_jsonl

            rep.trace_roots = read_jsonl(trace)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    return rep



def measure(workload, inputs, seconds: float, trace: bool, workers: int):
    """Repetitions, one process at a time, until ``seconds`` are spent
    (and at least :data:`MIN_CYCLES` of each kind)."""
    kinds = (False, True) if trace else (False,)
    reps: list[Rep] = []
    start = time.monotonic()
    cycles = 0
    while True:
        for traced in kinds:
            reps.append(run_rep(workload, inputs, traced, workers))
        cycles += 1
        elapsed = time.monotonic() - start
        if cycles >= MIN_CYCLES and elapsed + elapsed / cycles > seconds:
            return reps


def counter_gate(workload, reps: list[Rep]) -> None:
    """Pin the R-tree cost counters: every repetition of one input must
    report exactly the node accesses and page faults of the first."""
    if workload.ready != "rtree":
        return
    counted = [r for r in reps if r.error is None]
    if not counted:
        return
    first = counted[0].marks["report"]
    for rep in counted[1:]:
        got = rep.marks["report"]
        for key in ("node_accesses", "page_faults"):
            if got[key] != first[key]:
                rep.error = f"{key} {got[key]} != {first[key]} of the first run"


def identity_gate(reps: list[Rep]) -> None:
    """A traced run must write byte-identical output to untraced runs."""
    plain = {r.digest for r in reps if not r.traced and r.error is None}
    for rep in reps:
        if rep.traced and rep.error is None and plain and rep.digest not in plain:
            rep.error = "traced output differs from the untraced output"


def _pct(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end_metrics(reps: list[Rep]) -> dict:
    ok = [r for r in reps if not r.traced and r.error is None]
    return {
        "wall_s": statistics.median(r.wall for r in ok),
        "setup_s": statistics.median(r.setup for r in ok),
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
    }


def layer_metrics(workload, reps: list[Rep]) -> dict:
    """Per-layer figures of the median traced run (see the module doc)."""
    from layers import span_metrics

    plain = [r for r in reps if not r.traced and r.error is None]
    traced = sorted(
        (r for r in reps if r.traced and r.error is None), key=lambda r: r.wall
    )
    rep = traced[(len(traced) - 1) // 2]
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(rep.marks["self_s"])
    m["obs.traced_wall_s"] = rep.wall
    m["cli.unaccounted_s"] = rep.wall - sum(rep.marks["self_s"].values())
    m["obs.overhead_frac"] = (
        statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in plain)
        - 1.0
    )
    spans = (
        rep.marks["spans"]
        if workload.ready == "stream"
        else span_metrics(rep.trace_roots)
    )
    for key in SPAN_LAYERS:
        m[key] = spans[key]
    if workload.ready == "stream":
        latencies = sorted(s for r in plain for s in r.marks["latencies_s"])
        events = sum(r.marks["events"] for r in plain)
        m["stream.updates_per_s"] = events / sum(latencies)
        m["stream.batch_p50_ms"] = 1e3 * _pct(latencies, 0.50)
        m["stream.batch_p95_ms"] = 1e3 * _pct(latencies, 0.95)
        m["stream.batches"] = len(latencies)
        for stage in ("kill", "probe", "verify", "rebuild"):
            m[f"dynamic.{stage}_s"] = spans["stages"].get(stage, 0.0)
        m["dynamic.rebuilds"] = spans["counters"].get("rebuilds", 0)
        m["dynamic.candidates_per_update"] = (
            spans["counters"].get("candidates", 0) / rep.marks["events"]
        )
        return m
    report = rep.marks["report"]
    if workload.ready == "rtree":
        m["rtree.node_accesses"] = report["node_accesses"]
        m["storage.page_faults"] = report["page_faults"]
        hits = report["buffer_hits"]
        m["storage.hit_ratio"] = hits / max(1, hits + report["page_faults"])
        m["kernels.verify_yield"] = report["pairs"] / max(1, report["candidates"])
        return m
    if workload.k_share:
        m["topk.bands"] = spans["counters"].get("bands", 0)
        m["topk.candidates"] = spans["kernels.candidates"]
    m["costmodel.candidate_error"] = report["est_candidates"] / max(
        1, report["candidates"]
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for self-tests"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import POOL_WORKERS, WORKLOADS, build_inputs

    # A terminated harness unwinds like an interrupted one: it kills the
    # measured process group and removes its scratch folders.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)
    inputs = build_inputs(workload, args.seed, args.tiny, os.path.join(WORK, "inputs"))
    workers = min(POOL_WORKERS, os.cpu_count() or 1)
    print("host: " + json.dumps(host_fingerprint(), sort_keys=True))
    reps = measure(workload, inputs, args.seconds, bool(args.trace), workers)
    counter_gate(workload, reps)
    identity_gate(reps)
    failed = [r for r in reps if r.error is not None]
    for rep in failed:
        print(f"failed: {rep.error}", file=sys.stderr)
    measured = {r.traced for r in reps if r.error is None}
    if measured != {False, bool(args.trace)}:
        values = {}
    elif args.trace:
        values = layer_metrics(workload, reps)
    else:
        values = end_to_end_metrics(reps)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
