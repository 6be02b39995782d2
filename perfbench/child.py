"""One measured process: the CLI command or the stream replay.

Usage (always started by ``run.py``, with ``PYTHONPATH`` at the
checkout's ``src``)::

    python3 perfbench/child.py MARKS.json [--traced] [--ready load|rtree] cli ARGS...
    python3 perfbench/child.py MARKS.json [--traced] stream P Q BATCHES OUT

``cli`` runs ``repro.cli.main(ARGS)``, the code ``python -m repro``
runs.  ``stream`` replays pre-generated update batches through the
public dynamic API (``make_dynamic`` + ``apply_batch``), timing each
batch, and writes the final pair keys to ``OUT``.

The untraced child only records when its inputs became resident (the
``--ready`` boundary), reading the clock once per boundary; the traced
child also wraps every layer (:mod:`layers`).  Both write their
``time.monotonic`` marks and counters to ``MARKS.json`` before exit.
"""

from __future__ import annotations

import json
import pickle
import sys
import time

_T_START = time.monotonic()


def _capture_report(fn, sink: dict):
    """Wrap a planner entry point to keep the counters of its report.

    ``est_candidates`` is the plan's estimate on ``auto`` runs and 0
    when the command pins its engine (no plan is made).
    """

    def captured(*args, **kwargs):
        report = fn(*args, **kwargs)
        plan = report.plan
        sink["report"] = {
            "est_candidates": plan.est_candidates if plan is not None else 0,
            "candidates": report.candidate_count,
            "node_accesses": report.node_accesses,
            "page_faults": report.page_faults,
            "buffer_hits": report.buffer_hits,
            "pairs": len(report.pairs),
        }
        return report

    return captured


def _mark_after(fn, marks: list):
    """Wrap ``fn`` to record the monotonic time it returns."""

    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append(time.monotonic())
        return result

    return marked


def _run_cli(argv, ready: str, out: dict) -> int:
    import repro.cli as cli
    import repro.engine as engine

    out["import_s"] = time.monotonic() - _T_START
    marks: list = []
    if ready == "rtree":
        import repro.bench.runner as runner

        runner.build_workload = _mark_after(runner.build_workload, marks)
    else:
        cli.load_points = _mark_after(cli.load_points, marks)
    cli.run_join = _capture_report(cli.run_join, out)
    engine.run_topk = _capture_report(engine.run_topk, out)
    rc = cli.main(argv)
    out["ready"] = marks[-1]
    return rc


def _run_stream(argv, traced: bool, out: dict) -> int:
    from repro.datasets.io import load_points
    from repro.engine import planner
    from repro.geometry.point import Point

    path_p, path_q, path_batches, path_out = argv
    out["import_s"] = time.monotonic() - _T_START
    points_p = load_points(path_p)
    points_q = load_points(path_q)
    with open(path_batches, "rb") as f:
        raw = pickle.load(f)
    batches = [
        (
            [(Point(x, y, oid), side) for side, oid, x, y in inserts],
            [(Point(x, y, oid), side) for side, oid, x, y in deletes],
            events,
        )
        for events, inserts, deletes in raw["batches"]
    ]
    dyn = planner.make_dynamic(
        points_p, points_q, backend="auto", batch_size=raw["batch_size"]
    )
    out["ready"] = time.monotonic()
    latencies = []
    roots = []
    clock = time.perf_counter
    for inserts, deletes, _events in batches:
        t0 = clock()
        dyn.apply_batch(inserts, deletes)
        latencies.append(clock() - t0)
        if traced and dyn.last_batch_trace is not None:
            roots.append(dyn.last_batch_trace)
    with open(path_out, "w") as f:
        f.writelines(f"{p} {q}\n" for p, q in sorted(dyn.pair_keys()))
    out["latencies_s"] = latencies
    out["events"] = sum(events for _i, _d, events in batches)
    if traced:
        from layers import span_metrics

        out["spans"] = span_metrics(roots)
    return 0


def main(argv) -> int:
    marks_path, *rest = argv
    traced = False
    ready = "load"
    while rest[0].startswith("--"):
        flag = rest.pop(0)
        if flag == "--traced":
            traced = True
        elif flag == "--ready":
            ready = rest.pop(0)
        else:
            raise SystemExit(f"unknown flag {flag}")
    mode, *args = rest
    out: dict = {}
    timer = None
    if traced:
        from layers import LayerTimer

        timer = LayerTimer()
        timer.install()
    if mode == "cli":
        rc = _run_cli(args, ready, out)
    elif mode == "stream":
        rc = _run_stream(args, traced, out)
    else:
        raise SystemExit(f"unknown mode {mode}")
    if timer is not None:
        timer.charge("cli.import_s", out["import_s"])
        out["self_s"] = timer.self_s
    with open(marks_path, "w") as f:
        json.dump(out, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
