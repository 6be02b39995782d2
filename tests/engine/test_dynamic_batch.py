"""Batched maintenance vs the per-event oracle.

``apply_batch`` must land on byte-identical pair sets to replaying the
same net events one at a time (deletes first, then inserts) — at
*every* batch boundary, for every backend, across batch sizes spanning
the lazy tiers' regimes (single-event through buffer-overflowing).
The per-event path is the oracle; a from-scratch ``run_join`` over the
population pins both against the static engines.  Besides uniform
churn, the batch generators cover the geometric corner cases of the
Voronoi probe: updates on the convex hull (unbounded cells),
cross-side coincident twins (the coincident-abort path and zero-radius
pairs), hubs whose partners lie beyond the first k-NN block, and
coordinates offset far from the origin (the touch slack's scaling).

Also pinned here: the batch validation contract (named ``KeyError`` /
``ValueError`` before *any* mutation), the strict tombstone- and
buffer-threshold boundaries, and trace-off equivalence.
"""

from __future__ import annotations

import math
import random

import pytest
from scipy.spatial import ConvexHull

from repro.core.dynamic import DynamicRCJ, validate_batch
from repro.engine.planner import run_join
from repro.engine.streaming import DynamicArrayRCJ
from repro.geometry.point import Point

BACKENDS = [DynamicArrayRCJ, DynamicRCJ]


def _uniform(
    rng: random.Random, n: int, start_oid: int, origin: float = 0.0
) -> list[Point]:
    return [
        Point(
            origin + rng.uniform(0, 1000),
            origin + rng.uniform(0, 1000),
            start_oid + i,
        )
        for i in range(n)
    ]


def _random_batch(rng, cur_p, cur_q, next_oid, size, origin=0.0):
    """One net update batch against the current population: a mix of
    plain deletes, moves (delete + insert of the same oid) and fresh
    inserts totalling ``size`` net events."""
    inserts, deletes = [], []
    budget = size
    populations = {"P": cur_p, "Q": cur_q}
    while budget > 0:
        kind = rng.choice(("delete", "move", "insert"))
        side = rng.choice(("P", "Q"))
        cur = populations[side]
        deleted = {pt.oid for pt, s in deletes if s == side}
        if kind in ("delete", "move"):
            avail = [o for o in sorted(cur) if o not in deleted]
            if not avail:
                kind = "insert"
        if kind == "delete":
            oid = rng.choice(avail)
            deletes.append((cur[oid], side))
            budget -= 1
        elif kind == "move":
            if budget < 2:
                continue
            oid = rng.choice(avail)
            old = cur[oid]
            deletes.append((old, side))
            inserts.append(
                (
                    Point(
                        old.x + rng.uniform(-40, 40),
                        old.y + rng.uniform(-40, 40),
                        oid,
                    ),
                    side,
                )
            )
            budget -= 2
        else:
            inserts.append(
                (
                    Point(
                        origin + rng.uniform(0, 1000),
                        origin + rng.uniform(0, 1000),
                        next_oid,
                    ),
                    side,
                )
            )
            next_oid += 1
            budget -= 1
    return inserts, deletes, next_oid


def _hull_batch(rng, cur_p, cur_q, next_oid, size):
    """Updates on the convex hull of the current union: hull vertices
    move outward (delete + insert of the same oid) and fresh points
    land on a ring around the data, nearly all outside the hull, so the
    probes have unbounded cells."""
    union = [(pt, "P") for pt in cur_p.values()]
    union += [(pt, "Q") for pt in cur_q.values()]
    hull = list(ConvexHull([(pt.x, pt.y) for pt, _ in union]).vertices)
    rng.shuffle(hull)
    inserts, deletes = [], []
    budget = size
    for v in hull:
        if budget < 2:
            break
        pt, side = union[v]
        grow = rng.uniform(1.0, 1.1)
        moved = Point(
            500 + grow * (pt.x - 500), 500 + grow * (pt.y - 500), pt.oid
        )
        deletes.append((pt, side))
        inserts.append((moved, side))
        budget -= 2
    for _ in range(budget):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(700, 800)
        inserts.append(
            (
                Point(
                    500 + radius * math.cos(angle),
                    500 + radius * math.sin(angle),
                    next_oid,
                ),
                rng.choice(("P", "Q")),
            )
        )
        next_oid += 1
    return inserts, deletes, next_oid


def _twin_batch(rng, cur_p, cur_q, next_oid, size):
    """Cross-side coincident twins: inserts land exactly on a live point
    of the other side (a zero-radius pair), and deletes take points
    whose coordinates another live point shares (the probe aborts on
    the coincident survivor)."""
    populations = {"P": cur_p, "Q": cur_q}
    at: dict[tuple[float, float], int] = {}
    for cur in (cur_p, cur_q):
        for pt in cur.values():
            at[(pt.x, pt.y)] = at.get((pt.x, pt.y), 0) + 1
    twinned = [
        (pt, side)
        for side, cur in populations.items()
        for pt in cur.values()
        if at[(pt.x, pt.y)] > 1
    ]
    rng.shuffle(twinned)
    deletes = twinned[: size // 2]
    inserts = []
    for _ in range(size - len(deletes)):
        side = rng.choice(("P", "Q"))
        other = populations["Q" if side == "P" else "P"]
        twin = other[rng.choice(sorted(other))]
        inserts.append((Point(twin.x, twin.y, next_oid), side))
        next_oid += 1
    return inserts, deletes, next_oid


def _wheel_batch(rng, cur_p, cur_q, next_oid, size):
    """Hubs whose partners lie beyond the first k-NN block.

    Each batch adds a wheel of ``size`` spokes (alternating sides, radii
    a hair apart, golden-angle spaced so the nearest spokes already
    bound a hub's cell), inserts a hub at the centre of the previous
    batch's wheel and deletes the previous hub.  Every opposite-side
    spoke is a partner of its hub, and the only probe that can find the
    pair is the hub's own, past its first block: the spokes were
    resident before the hub arrived.
    """
    wheels: set[int] = set()
    deletes = []
    for side, cur in (("P", cur_p), ("Q", cur_q)):
        for pt in cur.values():
            if pt.oid >= 900_000:
                deletes.append((pt, side))
            elif pt.oid >= 800_000:
                wheels.add((pt.oid - 800_000) // 1000)

    def centre(w):
        return 150 + 700 * (0.618 * w % 1), 150 + 700 * (0.414 * w % 1)

    inserts = []
    if wheels:
        hx, hy = centre(max(wheels))
        inserts.append((Point(hx, hy, 900_000 + next_oid), rng.choice("PQ")))
        next_oid += 1
    w = max(wheels, default=-1) + 1
    cx, cy = centre(w)
    for i in range(size):
        angle = i * math.pi * (3 - math.sqrt(5))
        radius = 20.0 * (1 + 1e-7 * i)
        spoke = Point(
            cx + radius * math.cos(angle),
            cy + radius * math.sin(angle),
            800_000 + 1000 * w + i,
        )
        inserts.append((spoke, "P" if i % 2 else "Q"))
    return inserts, deletes, next_oid


def _twin_population(rng, n):
    """Uniform P; half of Q placed exactly on P points."""
    pts_p = _uniform(rng, n, 0)
    pts_q = [
        Point(p.x, p.y, 50_000 + i) for i, p in enumerate(pts_p[: n // 2])
    ]
    pts_q += _uniform(rng, n - n // 2, 50_000 + n // 2)
    return pts_p, pts_q


#: scenario -> (initial population, batch generator)
SCENARIOS = {
    "uniform": (
        lambda rng, n: (_uniform(rng, n, 0), _uniform(rng, n, 50_000)),
        _random_batch,
    ),
    "hull": (
        lambda rng, n: (_uniform(rng, n, 0), _uniform(rng, n, 50_000)),
        _hull_batch,
    ),
    "twins": (_twin_population, _twin_batch),
    "wheel": (
        lambda rng, n: (_uniform(rng, n, 0), _uniform(rng, n, 50_000)),
        _wheel_batch,
    ),
    "offset": (
        lambda rng, n: (
            _uniform(rng, n, 0, origin=1e7),
            _uniform(rng, n, 50_000, origin=1e7),
        ),
        lambda *args: _random_batch(*args, origin=1e7),
    ),
}


def _apply_to_population(cur_p, cur_q, inserts, deletes):
    for pt, side in deletes:
        (cur_p if side == "P" else cur_q).pop(pt.oid)
    for pt, side in inserts:
        (cur_p if side == "P" else cur_q)[pt.oid] = pt


@pytest.mark.parametrize("backend_cls", BACKENDS)
@pytest.mark.parametrize(
    "batch_size,windows,resident,scenario",
    [
        pytest.param(1, 10, 25, "uniform", id="1-10-25"),
        pytest.param(7, 6, 30, "uniform", id="7-6-30"),
        pytest.param(64, 3, 60, "uniform", id="64-3-60"),
        pytest.param(512, 1, 220, "uniform", id="512-1-220"),
        pytest.param(16, 4, 120, "hull", id="hull-16-4-120"),
        pytest.param(12, 5, 40, "twins", id="twins-12-5-40"),
        pytest.param(200, 3, 60, "wheel", id="wheel-200-3-60"),
        pytest.param(64, 3, 60, "offset", id="offset-64-3-60"),
    ],
)
def test_batch_matches_sequential_at_every_boundary(
    backend_cls, batch_size, windows, resident, scenario
):
    rng = random.Random(97 * batch_size + windows)
    populate, make_batch = SCENARIOS[scenario]
    pts_p, pts_q = populate(rng, resident)
    batched = backend_cls(pts_p, pts_q)
    sequential = backend_cls(pts_p, pts_q)
    cur_p = {p.oid: p for p in pts_p}
    cur_q = {q.oid: q for q in pts_q}
    next_oid = 100_000
    for _ in range(windows):
        inserts, deletes, next_oid = make_batch(
            rng, cur_p, cur_q, next_oid, batch_size
        )
        batched.apply_batch(inserts, deletes)
        for pt, side in deletes:  # the oracle: deletes first, one event
            sequential.delete(pt, side)  # at a time, then inserts
        for pt, side in inserts:
            sequential.insert(pt, side)
        _apply_to_population(cur_p, cur_q, inserts, deletes)
        assert batched.pair_keys() == sequential.pair_keys()
        assert batched.pair_keys() == run_join(
            list(cur_p.values()), list(cur_q.values()), algorithm="gabriel"
        ).pair_keys()
    final = {
        p.key()
        for p in run_join(
            list(cur_p.values()), list(cur_q.values()), engine="array"
        ).pairs
    }
    assert batched.pair_keys() == final


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_batch_matches_across_backends(backend_cls):
    """Both backends replay the same windows onto identical pair sets."""
    rng = random.Random(5)
    pts_p = _uniform(rng, 40, 0)
    pts_q = _uniform(rng, 40, 50_000)
    dyn = backend_cls(pts_p, pts_q)
    other = (
        DynamicRCJ if backend_cls is DynamicArrayRCJ else DynamicArrayRCJ
    )(pts_p, pts_q)
    cur_p = {p.oid: p for p in pts_p}
    cur_q = {q.oid: q for q in pts_q}
    next_oid = 100_000
    for _ in range(5):
        inserts, deletes, next_oid = _random_batch(
            rng, cur_p, cur_q, next_oid, 16
        )
        dyn.apply_batch(inserts, deletes)
        other.apply_batch(inserts, deletes)
        _apply_to_population(cur_p, cur_q, inserts, deletes)
        assert dyn.pair_keys() == other.pair_keys()


@pytest.mark.parametrize("backend_cls", BACKENDS)
def test_move_in_one_batch(backend_cls):
    """delete + insert of the same oid in one batch is a legal move."""
    ps = [Point(0, 0, 0)]
    qs = [Point(100, 0, 0)]
    dyn = backend_cls(ps, qs)
    assert dyn.pair_keys() == {(0, 0)}
    dyn.apply_batch(
        inserts=[(Point(0, 50, 0), "P")], deletes=[(Point(0, 0, 0), "P")]
    )
    assert dyn.pair_keys() == {(0, 0)}


class TestValidation:
    """The shared ``validate_batch`` contract, through both backends."""

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_delete_absent_oid_raises_named_keyerror(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(KeyError, match="999"):
            dyn.apply_batch(deletes=[(Point(5, 5, 999), "P")])

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_insert_present_oid_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError, match="already present"):
            dyn.apply_batch(inserts=[(Point(5, 5, 0), "P")])

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_duplicate_delete_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError):
            dyn.apply_batch(
                deletes=[(Point(0, 0, 0), "P"), (Point(0, 0, 0), "P")]
            )

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_duplicate_insert_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError):
            dyn.apply_batch(
                inserts=[(Point(5, 5, 7), "P"), (Point(6, 6, 7), "P")]
            )

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_invalid_side_raises(self, backend_cls):
        dyn = backend_cls([Point(0, 0, 0)], [Point(100, 0, 0)])
        with pytest.raises(ValueError):
            dyn.apply_batch(inserts=[(Point(5, 5, 7), "R")])

    @pytest.mark.parametrize("backend_cls", BACKENDS)
    def test_validation_failure_mutates_nothing(self, backend_cls):
        """A rejected batch is atomic: good events before the bad one
        must not have been applied."""
        ps = [Point(0, 0, 0), Point(50, 0, 1)]
        qs = [Point(100, 0, 0)]
        dyn = backend_cls(ps, qs)
        before = dyn.pair_keys()
        with pytest.raises(KeyError):
            dyn.apply_batch(
                inserts=[(Point(10, 10, 7), "P")],
                deletes=[(ps[1], "P"), (Point(1, 1, 999), "Q")],
            )
        assert dyn.pair_keys() == before
        # the in-batch delete of ps[1] must not have been applied:
        # deleting it now must still succeed.
        dyn.apply_batch(deletes=[(ps[1], "P")])
        assert dyn.pair_keys() == {(0, 0)}

    def test_validate_batch_function(self):
        has = lambda side, oid: oid == 1  # noqa: E731
        validate_batch(
            [(Point(0, 0, 2), "P")], [(Point(0, 0, 1), "Q")], has
        )
        with pytest.raises(KeyError):
            validate_batch([], [(Point(0, 0, 5), "P")], has)
        with pytest.raises(ValueError):
            validate_batch([(Point(0, 0, 1), "P")], [], has)


class TestCompactionThresholds:
    """The lazy tiers' strict (``>``) compaction triggers."""

    def _grid_backend(self, n=20):
        ps = [Point(10.0 * i, 0.0, i) for i in range(n)]
        qs = [Point(10.0 * i, 500.0, 1000 + i) for i in range(n)]
        return DynamicArrayRCJ(ps, qs), ps, qs

    def test_tombstones_at_fraction_do_not_compact(self, monkeypatch):
        monkeypatch.setenv("REPRO_DYN_TOMBSTONE_FRAC", "0.25")
        monkeypatch.setenv("REPRO_DYN_BUFFER_CAP", "100000")
        dyn, ps, _qs = self._grid_backend(20)
        # 5 of 20 dead == exactly frac * main_n: strictly-greater test
        # must NOT trigger a rebuild.
        dyn.apply_batch(deletes=[(p, "P") for p in ps[:5]])
        assert dyn.stats["rebuilds"] == 0
        assert dyn._p.tombstones == 5

    def test_one_more_tombstone_compacts(self, monkeypatch):
        monkeypatch.setenv("REPRO_DYN_TOMBSTONE_FRAC", "0.25")
        monkeypatch.setenv("REPRO_DYN_BUFFER_CAP", "100000")
        dyn, ps, _qs = self._grid_backend(20)
        dyn.apply_batch(deletes=[(p, "P") for p in ps[:6]])
        assert dyn.stats["rebuilds"] == 1
        assert dyn._p.tombstones == 0
        assert dyn.maintenance_stats()["tombstones"] == 0

    def test_buffer_at_cap_does_not_flush(self, monkeypatch):
        monkeypatch.setenv("REPRO_DYN_TOMBSTONE_FRAC", "100.0")
        monkeypatch.setenv("REPRO_DYN_BUFFER_CAP", "4")
        dyn, _ps, _qs = self._grid_backend(20)
        dyn.apply_batch(
            inserts=[(Point(3.0 * i, 100.0, 5000 + i), "P") for i in range(4)]
        )
        assert dyn.stats["rebuilds"] == 0
        assert dyn._p.buffered == 4

    def test_buffer_past_cap_flushes(self, monkeypatch):
        monkeypatch.setenv("REPRO_DYN_TOMBSTONE_FRAC", "100.0")
        monkeypatch.setenv("REPRO_DYN_BUFFER_CAP", "4")
        dyn, _ps, _qs = self._grid_backend(20)
        dyn.apply_batch(
            inserts=[(Point(3.0 * i, 100.0, 5000 + i), "P") for i in range(5)]
        )
        assert dyn.stats["rebuilds"] == 1
        assert dyn._p.buffered == 0
        assert dyn._p.main_count == 25

    def test_tiny_thresholds_preserve_equivalence(self, monkeypatch):
        """Compacting nearly every batch lands on the same pair sets."""
        monkeypatch.setenv("REPRO_DYN_TOMBSTONE_FRAC", "0.05")
        monkeypatch.setenv("REPRO_DYN_BUFFER_CAP", "2")
        rng = random.Random(11)
        pts_p = _uniform(rng, 30, 0)
        pts_q = _uniform(rng, 30, 50_000)
        eager = DynamicArrayRCJ(pts_p, pts_q)
        lazy = DynamicArrayRCJ(pts_p, pts_q)
        cur_p = {p.oid: p for p in pts_p}
        cur_q = {q.oid: q for q in pts_q}
        next_oid = 100_000
        for _ in range(6):
            inserts, deletes, next_oid = _random_batch(
                rng, cur_p, cur_q, next_oid, 12
            )
            lazy.apply_batch(inserts, deletes)
            for pt, side in deletes:
                eager.delete(pt, side)
            for pt, side in inserts:
                eager.insert(pt, side)
            _apply_to_population(cur_p, cur_q, inserts, deletes)
            assert lazy.pair_keys() == eager.pair_keys()
        assert lazy.stats["rebuilds"] > 0


class TestBatchTracing:
    def test_trace_off_is_equivalent(self, monkeypatch):
        rng = random.Random(23)
        pts_p = _uniform(rng, 30, 0)
        pts_q = _uniform(rng, 30, 50_000)
        inserts = [(Point(rng.uniform(0, 1000), rng.uniform(0, 1000), 99_000 + i), "P") for i in range(4)]
        deletes = [(pts_q[i], "Q") for i in range(4)]

        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = DynamicArrayRCJ(pts_p, pts_q)
        traced.apply_batch(inserts, deletes)
        assert traced.last_batch_trace is not None
        names = {sp.name for sp in traced.last_batch_trace.walk()}
        assert "dynamic-batch" in names

        monkeypatch.setenv("REPRO_TRACE", "0")
        silent = DynamicArrayRCJ(pts_p, pts_q)
        silent.apply_batch(inserts, deletes)
        assert silent.last_batch_trace is None
        assert silent.pair_keys() == traced.pair_keys()

    def test_batch_stats_accumulate(self):
        dyn = DynamicArrayRCJ([Point(0, 0, 0)], [Point(100, 0, 0)])
        dyn.apply_batch(inserts=[(Point(50, 50, 1), "P")])
        dyn.apply_batch(deletes=[(Point(50, 50, 1), "P")])
        assert dyn.stats["batches"] == 2
        assert dyn.stats["events"] == 2
        stats = dyn.maintenance_stats()
        assert set(stats) >= {"batches", "events", "rebuilds", "tombstones", "buffered"}


def test_hull_probes_examine_a_fraction_of_the_union(monkeypatch):
    """Probes on the convex hull have unbounded Voronoi cells whose
    horizon never shrinks below the clip box; whole k-NN blocks must be
    rejected in bulk, so the clip examines a small fraction of the
    union per probe rather than every point."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    rng = random.Random(2000)
    pts_p = _uniform(rng, 1000, 0)
    pts_q = _uniform(rng, 1000, 50_000)
    batched = DynamicArrayRCJ(pts_p, pts_q)
    sequential = DynamicArrayRCJ(pts_p, pts_q)
    cur_p = {p.oid: p for p in pts_p}
    cur_q = {q.oid: q for q in pts_q}
    inserts, deletes, _ = _hull_batch(rng, cur_p, cur_q, 100_000, 32)
    batched.apply_batch(inserts, deletes)
    for pt, side in deletes:
        sequential.delete(pt, side)
    for pt, side in inserts:
        sequential.insert(pt, side)
    _apply_to_population(cur_p, cur_q, inserts, deletes)

    (probe,) = batched.last_batch_trace.find("probe")
    probes = len(inserts) + len(deletes)
    union = len(cur_p) + len(cur_q)
    assert probe.counters["examined"] / probes < 0.1 * union
    assert batched.pair_keys() == sequential.pair_keys()
    assert batched.pair_keys() == run_join(
        list(cur_p.values()), list(cur_q.values()), algorithm="gabriel"
    ).pair_keys()
