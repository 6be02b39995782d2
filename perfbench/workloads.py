"""The five workloads: seeded inputs, untimed oracles, commands, gates.

Inputs come from ``repro.datasets.synthetic`` and
``repro.workloads.moving`` and are a pure function of the seed.  They
and their oracles are written once per seed under the work directory
and reused by every later run with that seed; nothing here is timed.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

#: Oids of side Q start here so the two sides never share an oid.
Q_START_OID = 1_000_000

#: Worker processes of the pooled workload (capped at the core count).
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in ``BENCHMARK.json``."""

    name: str
    #: ``uniform`` | ``clustered`` | ``paper`` | ``fleet``: the input set.
    inputs: str
    n: int
    tiny_n: int
    #: The child's command after ``cli``/``stream``; the ``{...}`` fields
    #: are filled in per run.
    command: tuple[str, ...]
    #: Which boundary ends set-up: ``load`` (both pointsets parsed),
    #: ``rtree`` (R-trees bulk-loaded) or ``stream`` (``make_dynamic``).
    ready: str = "load"
    #: ``k`` of the top-k workload, as a share of the full join result.
    k_share: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "join-uniform",
            "uniform", 20_000, 1_500,
            ("join", "{P}", "{Q}", "--engine", "array", "-o", "{OUT}"),
        ),
        Workload(
            "join-uniform-auto",
            "uniform", 20_000, 1_500,
            ("join", "{P}", "{Q}", "--engine", "auto", "--workers", "{W}",
             "-o", "{OUT}"),
        ),
        Workload(
            "topk-clustered",
            "clustered", 20_000, 1_500,
            ("topk", "{P}", "{Q}", "-k", "{K}", "--engine", "auto",
             "-o", "{OUT}"),
            k_share=0.4,
        ),
        Workload(
            "paper-rtree",
            "paper", 600, 120,
            ("join", "{P}", "{Q}", "--method", "obj", "-o", "{OUT}"),
            ready="rtree",
        ),
        Workload(
            "stream-fleet",
            "fleet", 1_500, 200,
            ("{P}", "{Q}", "{BATCHES}", "{OUT}"),
            ready="stream",
        ),
    )
}

#: Raw events per stream batch, and simulator ticks per stream run.
STREAM_BATCH = 64
STREAM_TICKS = 3


@dataclass
class Inputs:
    """Files of one input set plus its oracle.

    ``oracle`` holds the expected ``(p_oid, q_oid)`` rows: for joins in
    canonical ``(d², p, q)`` order, for the stream the final pair set
    in ``(p, q)`` order.
    """

    path_p: str
    path_q: str
    oracle: np.ndarray
    path_batches: str | None = None


def _canonical_rows(pairs) -> np.ndarray:
    """RCJ pairs as ``(p_oid, q_oid)`` rows in ascending ``(d², p, q)``."""
    keyed = []
    for pair in pairs:
        dx = pair.p.x - pair.q.x
        dy = pair.p.y - pair.q.y
        keyed.append((dx * dx + dy * dy, pair.p.oid, pair.q.oid))
    keyed.sort()
    return np.array([(p, q) for _d, p, q in keyed], dtype=np.int64).reshape(-1, 2)


#: Seeds of the cluster centres of sides P and Q.  They are fixed, and
#: ``--seed`` draws only the points around them: with seeded centres
#: the layout, and with it the result size and the run time, changed by
#: up to 25% from seed to seed at 20k points.
CENTRE_SEEDS = (1, 2)


def clusters(
    n: int, w: int, seed: int, side: int, clamp: bool, start_oid: int = 0
) -> list:
    """``n`` points in ``w`` equal-size Gaussian clusters around fixed centres.

    The draws follow :func:`repro.datasets.synthetic.gaussian_clusters`
    (uniform centres, per-dimension ``CLUSTER_STD``, equal-size
    clusters), but the centres come from ``CENTRE_SEEDS[side]``.
    ``clamp`` keeps the paper's clamp of points to ``[0, 10000]²``;
    without it points that fall outside stay where they fell.  Clamping
    piles thousands of points onto the domain's edges and corners, and
    on such inputs the array engine's memory grows past 2 GB on some
    seeds (see ``README.md``, "Known defects").
    """
    import random

    from repro.datasets.synthetic import CLUSTER_STD, DOMAIN
    from repro.geometry.point import Point

    lo, hi = DOMAIN
    placer = random.Random(CENTRE_SEEDS[side])
    centers = [(placer.uniform(lo, hi), placer.uniform(lo, hi)) for _ in range(w)]
    rng = random.Random(seed)
    points = []
    for i in range(n):
        cx, cy = centers[i % w]
        x = rng.gauss(cx, CLUSTER_STD)
        y = rng.gauss(cy, CLUSTER_STD)
        if clamp:
            x = min(max(x, lo), hi)
            y = min(max(y, lo), hi)
        points.append(Point(x, y, start_oid + i))
    return points


def _fleet_inputs(n: int, seed: int, folder: str) -> tuple[list, list, np.ndarray]:
    from repro.engine import run_join
    from repro.workloads.moving import FleetSimulator

    sim = FleetSimulator(fleet=n, depots=n, seed=seed)
    points_p, points_q = sim.initial_points()
    batches = [
        (
            b.events,
            [(side, p.oid, p.x, p.y) for p, side in b.inserts],
            [(side, p.oid, p.x, p.y) for p, side in b.deletes],
        )
        for b in sim.batch_stream(STREAM_BATCH, STREAM_TICKS)
    ]
    with open(os.path.join(folder, "batches.pkl"), "wb") as f:
        pickle.dump({"batch_size": STREAM_BATCH, "batches": batches}, f)
    final_p, final_q = sim.current_points()
    keys = sorted(run_join(final_p, final_q, algorithm="gabriel").pair_keys())
    return points_p, points_q, np.array(keys, dtype=np.int64).reshape(-1, 2)


def build_inputs(workload: Workload, seed: int, tiny: bool, root: str) -> Inputs:
    """Generate (or reuse) the inputs and oracle of ``workload``."""
    from repro.core.gabriel import gabriel_rcj
    from repro.datasets.io import save_points
    from repro.datasets.synthetic import uniform

    n = workload.tiny_n if tiny else workload.n
    kind = workload.inputs
    if kind == "fleet":
        kind += f"-b{STREAM_BATCH}-t{STREAM_TICKS}"
    folder = os.path.join(root, f"{kind}-{n}-{seed}")
    inputs = Inputs(
        os.path.join(folder, "p.txt"),
        os.path.join(folder, "q.txt"),
        np.empty((0, 2), np.int64),
        os.path.join(folder, "batches.pkl") if workload.inputs == "fleet" else None,
    )
    oracle_path = os.path.join(folder, "oracle.npy")
    if os.path.exists(oracle_path):
        inputs.oracle = np.load(oracle_path)
        return inputs
    os.makedirs(folder, exist_ok=True)
    base = seed * 1000
    if workload.inputs == "fleet":
        points_p, points_q, oracle = _fleet_inputs(n, base + 7, folder)
    else:
        if workload.inputs == "uniform":
            points_p = uniform(n, seed=base + 1)
            points_q = uniform(n, seed=base + 2, start_oid=Q_START_OID)
        elif workload.inputs == "clustered":
            points_p = clusters(n, 10, base + 3, 0, clamp=False)
            points_q = clusters(
                n, 10, base + 4, 1, clamp=False, start_oid=Q_START_OID
            )
        else:  # paper: Gaussian P against uniform Q
            points_p = clusters(n, 10, base + 5, 0, clamp=True)
            points_q = uniform(n, seed=base + 6, start_oid=Q_START_OID)
        oracle = _canonical_rows(gabriel_rcj(points_p, points_q))
    save_points(points_p, inputs.path_p)
    save_points(points_q, inputs.path_q)
    # The oracle is written last, under its final name only once
    # complete: its presence marks the whole input set as ready.
    np.save(oracle_path + ".tmp.npy", oracle)
    os.replace(oracle_path + ".tmp.npy", oracle_path)
    inputs.oracle = oracle
    return inputs


def top_k(workload: Workload, inputs: Inputs) -> int:
    """``k`` of a top-k workload: a fixed share of the full result."""
    return max(1, int(len(inputs.oracle) * workload.k_share))


def read_pairs(path: str) -> np.ndarray:
    """``(p_oid, q_oid)`` rows of an output file, in file order."""
    with open(path) as f:
        rows = [line.split(" ", 2)[:2] for line in f]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


def gate(workload: Workload, inputs: Inputs, rows: np.ndarray) -> str | None:
    """Why ``rows`` (one run's output) is wrong, or None when correct."""
    if workload.k_share:
        expected = inputs.oracle[: top_k(workload, inputs)]
        if rows.shape != expected.shape or not np.array_equal(rows, expected):
            return "top-k output differs from the oracle's first k pairs"
        return None
    expected = _sorted_rows(inputs.oracle)
    if rows.shape != expected.shape:
        return f"{len(rows)} pairs, oracle has {len(expected)}"
    if not np.array_equal(_sorted_rows(rows), expected):
        return "pair set differs from the oracle"
    return None
