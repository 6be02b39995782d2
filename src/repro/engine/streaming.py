"""Columnar streaming layer: ordered browsing and dynamic RCJ over
:class:`~repro.engine.arrays.PointArray`.

The paper's two headline applications beyond the one-shot join are
*ordered browsing* of RCJ results (top-k by ring diameter) and
*decision support over changing data* (insertions and deletions).  This
module gives both an array-engine execution path so they dispatch
through the unified planner like the bulk join does:

:func:`stream_pairs_by_diameter`
    A lazy generator of **verified** RCJ pairs in ascending
    ring-diameter order.  Candidates are enumerated in blocked radius
    bands — one KD-tree ball query per probe block, with a *resume
    cursor* on the squared pair distance so each band picks up exactly
    where the previous one stopped — then Ψ−-pruned against each
    probe's nearest neighbours and batch-verified against the union
    KD-tree (:func:`~repro.engine.kernels.verify_rings_batch`).  All
    pairs of a band are sorted before emission and every pair with a
    smaller distance lives in the current or an earlier band, so the
    output order is globally correct without materializing the join.
    When a band would enumerate more candidates than the full
    vectorized join costs, the stream falls back to the full pipeline
    (Ψ−-prune, cone-cover certificates, Delaunay backstop and all) and
    emits the sorted tail — enumeration by radius is a small-k tool,
    and the fallback caps its worst case near one bulk join.

:class:`DynamicArrayRCJ`
    The columnar twin of :class:`repro.core.dynamic.DynamicRCJ`: the
    same insert/delete contract (the shared
    :class:`~repro.core.dynamic.DynamicBackend` protocol), with
    kill-sets computed by one vectorized evaluation of the exact ring
    predicate over endpoint columns (:class:`_RingColumns`, the
    columnar twin of the pair-circle grid), insertion partners from the
    batch candidate kernels, and all verification through
    :func:`~repro.engine.kernels.verify_rings_batch`.  Its
    ``apply_batch`` absorbs a whole update batch with *amortized*
    maintenance: deletes become lazy tombstones, inserts land in a
    small per-side buffer, one live-union view (a KD-tree over every
    live row) serves both the batch's Voronoi probes and its exact
    verification, and the one column compaction per side is deferred
    until a tombstone-fraction or buffer-size threshold trips
    (``REPRO_DYN_TOMBSTONE_FRAC`` / ``REPRO_DYN_BUFFER_CAP``) — at most
    once per batch, usually far less than once per batch.

Exactness
---------
Both paths keep the engine's contract: *filter conservative, verify
exact*.  The streamed candidates are a superset of the true pairs per
band (a ball query can only over-enumerate), Ψ− pruning evaluates the
oracle's own blocker predicate, and every emitted pair passed the exact
batch ring verification against the full union — so the stream's k-pair
prefix equals the first k entries of the sorted bulk-join result, and
the dynamic backend's state equals the from-scratch join after every
update.  Ordering uses the *squared* pair distance ``dx*dx + dy*dy``
(the same IEEE expression the R-tree distance-join heap orders by), so
the two top-k routes agree bit-for-bit about which pair is smaller;
ties are broken canonically by ``(p.oid, q.oid)``.
"""

from __future__ import annotations

import os
import time

import numpy as np
from scipy.spatial import cKDTree

from repro.core.dynamic import Side, validate_batch
from repro.core.pairs import RCJPair
from repro.engine.arrays import PointArray
from repro.engine.kernels import (
    halfplane_prune_pairs,
    knn_candidate_blocks,
    rcj_pair_indices,
    stage_timer,
    verify_rings_batch,
)
from repro.geometry.point import Point
from repro.geometry.polygon import box_polygon, clip_halfplane
from repro.geometry.rect import Rect
from repro.obs.trace import add_counter, set_attr, trace as obs_trace

#: Probe points per ball-query block of the band enumerator.
_STREAM_Q_BLOCK = 8192

#: Ψ− pruners per candidate in the streamed bands (the probe's nearest
#: ``P`` neighbours).
_STREAM_PRUNERS = 8

#: Growth factor of the expanding radius.
_RADIUS_GROWTH = 2.0

#: When the pairs enumerated by the next band would exceed this many
#: beyond what previous bands already covered, enumeration-by-radius
#: has lost to the full vectorized join: fall back to it for the tail.
_FALLBACK_BAND_PAIRS = 262_144

#: Relative inflation of the ball-query radius; band membership is
#: decided by the exact squared-distance cursor, the query only has to
#: never *miss* a band member to rounding.
_BAND_INFLATION = 1e-9


def pair_order_key(pair: RCJPair) -> tuple[float, int, int]:
    """The canonical ascending-diameter sort key of a result pair.

    ``dx*dx + dy*dy`` is the exact expression both the R-tree
    distance-join heap and the streamed bands order by (squared
    distance is monotone in diameter, with no square root to round),
    and ``(p.oid, q.oid)`` breaks exact ties deterministically.  Every
    top-k route sorts by this one key, which is what makes their
    prefixes comparable byte for byte.
    """
    dx = pair.p.x - pair.q.x
    dy = pair.p.y - pair.q.y
    return (dx * dx + dy * dy, pair.p.oid, pair.q.oid)


def sort_pairs_by_diameter(pairs: list[RCJPair]) -> list[RCJPair]:
    """Result pairs in canonical ascending-diameter order."""
    return sorted(pairs, key=pair_order_key)


# ----------------------------------------------------------------------
# streamed ordered enumeration (top-k)
# ----------------------------------------------------------------------

def _flatten_ball_lists(lists, count: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR-flatten ``query_ball_point`` output: ``(flat, counts)``."""
    counts = np.fromiter((len(lst) for lst in lists), np.int64, count=count)
    total = int(counts.sum())
    flat = np.empty(total, dtype=np.int64)
    pos = 0
    for lst in lists:
        n = len(lst)
        if n:
            flat[pos : pos + n] = lst
            pos += n
    return flat, counts


def stream_pairs_by_diameter(
    parr: PointArray,
    qarr: PointArray,
    k_hint: int = 1,
    exclude_same_oid: bool = False,
    stage_seconds: dict | None = None,
    counters: dict | None = None,
):
    """Yield verified ``(d_sq, p_index, q_index)`` in ascending order.

    ``k_hint`` sizes the first radius band (the distance within which at
    least ``min(k_hint, |Q|)`` candidate pairs are guaranteed); the
    stream itself is unbounded — consume as much of it as needed and
    drop it.  ``counters`` (when given) accumulates ``"candidates"``,
    the number of pairs that entered batch verification, and
    ``"bands"`` / ``"fallback"`` describing how the enumeration went.
    """
    n_p, n_q = len(parr), len(qarr)
    if n_p == 0 or n_q == 0:
        return
    if counters is None:
        counters = {}

    with stage_timer(stage_seconds, "candidate"):
        tree_p = cKDTree(parr.coords())
        tree_q = cKDTree(qarr.coords())
        # First band: the min(k, |Q|)-th smallest 1-NN distance — at
        # least that many candidate pairs land inside it.
        d1, _ = tree_p.query(qarr.coords(), k=1)
        take = min(max(k_hint, 1), n_q) - 1
        r = float(np.partition(d1, take)[take])
    scale = 1.0
    for arr in (parr.x, parr.y, qarr.x, qarr.y):
        if len(arr):
            scale = max(scale, float(np.abs(arr).max()))
    if r <= 0.0:
        r = 1e-9 * scale  # duplicate-riddled probes: start tiny, grow
    # No pair is farther apart than the union bounding-box diagonal.
    span_x = max(float(parr.x.max()), float(qarr.x.max())) - min(
        float(parr.x.min()), float(qarr.x.min())
    )
    span_y = max(float(parr.y.max()), float(qarr.y.max())) - min(
        float(parr.y.min()), float(qarr.y.min())
    )
    diag = float(np.hypot(span_x, span_y)) * (1.0 + 1e-9) + 1e-9 * scale

    with stage_timer(stage_seconds, "verify"):
        ux = np.concatenate((parr.x, qarr.x))
        uy = np.concatenate((parr.y, qarr.y))
        union_tree = cKDTree(np.column_stack((ux, uy)))

    cursor_sq = -np.inf  # resume cursor: pairs at or below it are done
    pairs_done = 0  # |pairs| (KD metric) inside the cursor radius
    while True:
        r = min(r, diag)
        with stage_timer(stage_seconds, "candidate"):
            within = int(tree_p.count_neighbors(tree_q, r))
        if within - pairs_done > _FALLBACK_BAND_PAIRS:
            # The band is denser than a whole vectorized join: run the
            # full pipeline once and emit the not-yet-streamed tail.
            counters["fallback"] = True
            set_attr(fallback=True)
            # (the kernel itself counts "candidates" on the trace)
            p_idx, q_idx, cand = rcj_pair_indices(
                parr,
                qarr,
                exclude_same_oid=exclude_same_oid,
                stage_seconds=stage_seconds,
            )
            counters["candidates"] = counters.get("candidates", 0) + cand
            dx = parr.x[p_idx] - qarr.x[q_idx]
            dy = parr.y[p_idx] - qarr.y[q_idx]
            d_sq = dx * dx + dy * dy
            fresh = d_sq > cursor_sq
            p_idx, q_idx, d_sq = p_idx[fresh], q_idx[fresh], d_sq[fresh]
            order = np.lexsort((qarr.oid[q_idx], parr.oid[p_idx], d_sq))
            for j in order:
                yield float(d_sq[j]), int(p_idx[j]), int(q_idx[j])
            return

        counters["bands"] = counters.get("bands", 0) + 1
        add_counter("bands")
        r_sq = r * r
        band_p: list[np.ndarray] = []
        band_q: list[np.ndarray] = []
        band_d: list[np.ndarray] = []
        with stage_timer(stage_seconds, "candidate"):
            r_query = r * (1.0 + _BAND_INFLATION)
            for bstart in range(0, n_q, _STREAM_Q_BLOCK):
                bend = min(bstart + _STREAM_Q_BLOCK, n_q)
                lists = tree_p.query_ball_point(
                    np.column_stack(
                        (qarr.x[bstart:bend], qarr.y[bstart:bend])
                    ),
                    r_query,
                    return_sorted=False,
                )
                flat, cnt = _flatten_ball_lists(lists, bend - bstart)
                if not flat.size:
                    continue
                rows = np.repeat(
                    np.arange(bstart, bend, dtype=np.int64), cnt
                )
                dx = parr.x[flat] - qarr.x[rows]
                dy = parr.y[flat] - qarr.y[rows]
                d_sq = dx * dx + dy * dy
                # The resume cursor: strictly new, within this band.
                mask = (d_sq > cursor_sq) & (d_sq <= r_sq)
                if exclude_same_oid:
                    mask &= parr.oid[flat] != qarr.oid[rows]
                band_p.append(flat[mask])
                band_q.append(rows[mask])
                band_d.append(d_sq[mask])

        if band_p:
            p_idx = np.concatenate(band_p)
            q_idx = np.concatenate(band_q)
            d_sq = np.concatenate(band_d)
        else:
            p_idx = np.empty(0, np.int64)
            q_idx = np.empty(0, np.int64)
            d_sq = np.empty(0, np.float64)

        if p_idx.size:
            with stage_timer(stage_seconds, "prune"):
                # Ψ− against each probe's nearest P neighbours — the
                # oracle's own blocker predicate, so a pruned pair is
                # certainly dead; survivors go to exact verification.
                k_pr = min(_STREAM_PRUNERS, n_p)
                probes = np.unique(q_idx)
                nd, ni = tree_p.query(
                    np.column_stack((qarr.x[probes], qarr.y[probes])),
                    k=k_pr,
                )
                if k_pr == 1:
                    ni = ni[:, None]
                pos = np.searchsorted(probes, q_idx)
                pruned = halfplane_prune_pairs(
                    parr.x[p_idx],
                    parr.y[p_idx],
                    parr.x[ni[pos]],
                    parr.y[ni[pos]],
                    qarr.x[q_idx],
                    qarr.y[q_idx],
                )
                keep = ~pruned
                p_idx, q_idx, d_sq = p_idx[keep], q_idx[keep], d_sq[keep]

        if p_idx.size:
            counters["candidates"] = counters.get("candidates", 0) + int(
                p_idx.size
            )
            add_counter("candidates", int(p_idx.size))
            with stage_timer(stage_seconds, "verify"):
                alive = verify_rings_batch(
                    parr.x[p_idx],
                    parr.y[p_idx],
                    qarr.x[q_idx],
                    qarr.y[q_idx],
                    union_tree,
                    ux,
                    uy,
                )
            n_alive = int(alive.sum())
            add_counter("verified", n_alive)
            add_counter("pruned", int(p_idx.size) - n_alive)
            p_idx, q_idx, d_sq = p_idx[alive], q_idx[alive], d_sq[alive]
            order = np.lexsort((qarr.oid[q_idx], parr.oid[p_idx], d_sq))
            for j in order:
                yield float(d_sq[j]), int(p_idx[j]), int(q_idx[j])

        if r >= diag:
            return  # every pair enumerated
        cursor_sq = r_sq
        pairs_done = within
        r *= _RADIUS_GROWTH


def topk_array(
    points_p,
    points_q,
    k: int,
    exclude_same_oid: bool = False,
    stage_seconds: dict | None = None,
) -> tuple[list[RCJPair], int]:
    """The ``k`` smallest-diameter RCJ pairs via the streamed engine.

    Same contract as :func:`repro.core.topk.top_k_rcj` — at most ``k``
    pairs, ascending diameter, original :class:`Point` identity
    preserved — computed by :func:`stream_pairs_by_diameter`.

    Returns ``(pairs, candidate_count)``.
    """
    if k <= 0:
        return [], 0
    points_p = list(points_p)
    points_q = list(points_q)
    parr = PointArray.from_points(points_p)
    qarr = PointArray.from_points(points_q)
    counters: dict = {}
    out: list[RCJPair] = []
    stream = stream_pairs_by_diameter(
        parr,
        qarr,
        k_hint=k,
        exclude_same_oid=exclude_same_oid,
        stage_seconds=stage_seconds,
        counters=counters,
    )
    for _d_sq, pi, qi in stream:
        out.append(RCJPair(points_p[pi], points_q[qi]))
        if len(out) == k:
            stream.close()  # stop enumerating: no band past the k-th
            break
    return out, int(counters.get("candidates", 0))


# ----------------------------------------------------------------------
# dynamic maintenance, columnar backend
# ----------------------------------------------------------------------

#: Env knob: fraction of tombstoned rows in a side's main columns
#: beyond which ``apply_batch`` compacts (strict: rebuild only when
#: ``dead > frac * main_rows``).
TOMBSTONE_FRAC_ENV = "REPRO_DYN_TOMBSTONE_FRAC"

#: Default tombstone-fraction threshold.
DEFAULT_TOMBSTONE_FRAC = 0.25

#: Env knob: rows a side's insert buffer may hold before the batch
#: merges it into the main columns (strict: rebuild when
#: ``buffered > cap``).
BUFFER_CAP_ENV = "REPRO_DYN_BUFFER_CAP"

#: Default insert-buffer row cap.
DEFAULT_BUFFER_CAP = 1024


def _tombstone_frac() -> float:
    try:
        return float(
            os.environ.get(TOMBSTONE_FRAC_ENV, DEFAULT_TOMBSTONE_FRAC)
        )
    except ValueError:
        return DEFAULT_TOMBSTONE_FRAC


def _buffer_cap() -> int:
    try:
        return int(os.environ.get(BUFFER_CAP_ENV, DEFAULT_BUFFER_CAP))
    except ValueError:
        return DEFAULT_BUFFER_CAP


#: Neighbours in the first k-NN block of a Voronoi probe; every later
#: block doubles it.
_PROBE_K0 = 32


class _UnionView:
    """The live union of both sides, frozen for one batch (or event).

    One KD-tree plus coordinate columns over every live row — main and
    buffered alike, tombstones left out — with P's rows first.  Both
    the Voronoi probes and the exact verification run against it, so
    neither needs a liveness mask or a second source.  ``span`` is the
    bounding box of the domain and the live data, computed once.
    """

    def __init__(self, p: _SideColumns, q: _SideColumns, bounds: Rect):
        rows_p, px, py = p.live_columns()
        rows_q, qx, qy = q.live_columns()
        self._cols = (p, q)
        self._rows = (rows_p, rows_q)
        self.n_p = len(rows_p)
        self.x = np.concatenate((px, qx))
        self.y = np.concatenate((py, qy))
        self.tree = cKDTree(np.column_stack((self.x, self.y)))
        self.span = (
            min(bounds.xmin, float(self.x.min())),
            min(bounds.ymin, float(self.y.min())),
            max(bounds.xmax, float(self.x.max())),
            max(bounds.ymax, float(self.y.max())),
        )

    def __len__(self) -> int:
        return len(self.x)

    def point(self, i: int) -> Point:
        """The :class:`Point` behind union row ``i``."""
        if i < self.n_p:
            return self._cols[0].point(self._rows[0][i])
        return self._cols[1].point(self._rows[1][i - self.n_p])


def _voronoi_neighborhood(
    x: float,
    y: float,
    view: _UnionView,
    stop_on_coincident: bool = True,
    first: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[int] | None, int]:
    """Clip the Voronoi cell of ``(x, y)`` against the union ``view``.

    Union points arrive in ascending distance as k-NN blocks of doubling
    size (``first``, when given, is the first block's ``(dist, idx)``
    row from a query the caller batched over many probes).  Streaming
    stops once the next point is beyond twice the farthest cell vertex:
    no remaining point can be a Delaunay neighbour, because the
    empty-circle centre witnessing adjacency lies inside the cell.  The
    starting cell is the view's span around the probe, expanded by its
    own size (any superset is safe — it only enlarges the starting
    horizon).  The emitted union rows are therefore a superset of the
    probe's Delaunay neighbours in the view.

    A point coinciding with the probe imposes no halfplane.  With
    ``stop_on_coincident`` (deletion semantics) it aborts the whole
    neighbourhood — a coincident twin survives, so every ring that
    contained the probe still contains the twin and nothing is freed —
    and the rows come back as None.  Otherwise (insertion probes) the
    coincident point is *emitted*: a zero-radius ring with it is a legal
    degenerate pair.

    Only points whose bisector reaches the current cell are emitted:
    one leaving every cell vertex strictly on the probe's side (by more
    than a float slack) can never share an edge or vertex with the
    final region, and its clip would be a no-op.  Each block after the
    first is tested against the current cell in one numpy pass of the
    same IEEE predicate ``(v - m) . n < -slack * d``; a point rejected
    there stays rejected, because every later cell is a subset of this
    one.  Only survivors run the Python clip, so a probe near the hull,
    whose unbounded cell keeps a box-sized horizon, costs a few array
    passes instead of one Python iteration per union point.

    Returns ``(rows, examined)``, ``examined`` being the points the
    Python clip tested.
    """
    lo_x, lo_y, hi_x, hi_y = view.span
    lo_x, lo_y = min(lo_x, x), min(lo_y, y)
    hi_x, hi_y = max(hi_x, x), max(hi_y, y)
    margin = max(hi_x - lo_x, hi_y - lo_y, 1.0)
    cell = box_polygon(
        lo_x - margin, lo_y - margin, hi_x + margin, hi_y + margin
    )
    # Touch slack: treat a bisector missing the cell by less than this
    # distance as touching, covering the accumulated float error of the
    # clipped cell vertices (scaled to the coordinate magnitude).
    slack = 1e-9 * max(abs(lo_x), abs(lo_y), abs(hi_x), abs(hi_y), 1.0)

    def horizon_of(cell) -> float:
        return 2.0 * max(
            ((vx - x) ** 2 + (vy - y) ** 2) ** 0.5 for vx, vy in cell
        )

    horizon = horizon_of(cell)
    n = len(view)
    out: list[int] = []
    examined = 0
    done = 0
    k = _PROBE_K0
    dist, idx = first if first is not None else (None, None)
    while True:
        kk = min(k, n)
        if dist is None:
            dist, idx = view.tree.query((x, y), k=kk)
            dist, idx = np.atleast_1d(dist), np.atleast_1d(idx)
        d, rows = dist[done:kk], idx[done:kk]
        # The horizon only shrinks: points beyond it now stay beyond.
        cut = int(np.searchsorted(d, horizon, side="right"))
        last = cut < len(d) or kk == n
        d, rows = d[:cut], rows[:cut]
        zx, zy = view.x[rows], view.y[rows]
        if done:
            # (The first block meets the unclipped box, which rejects
            # nothing.)  (v - m) . n has units length * d: compare
            # against -slack * d, as the scalar test below does.
            verts = np.array(cell)
            vx, vy = verts[:, :1], verts[:, 1:]
            nx, ny = zx - x, zy - y
            mx, my = (x + zx) / 2.0, (y + zy) / 2.0
            smax = ((vx - mx) * nx + (vy - my) * ny).max(axis=0)
            keep = ~(smax < -slack * d)
            d, rows, zx, zy = d[keep], rows[keep], zx[keep], zy[keep]
        for dj, row, zxj, zyj in zip(
            d.tolist(), rows.tolist(), zx.tolist(), zy.tolist()
        ):
            if dj > horizon:
                last = True
                break
            examined += 1
            if zxj == x and zyj == y:
                if stop_on_coincident:
                    return None, examined
                out.append(row)
                continue
            nx = zxj - x
            ny = zyj - y
            mx = (x + zxj) / 2.0
            my = (y + zyj) / 2.0
            smax = max((vx - mx) * nx + (vy - my) * ny for vx, vy in cell)
            if smax < -slack * dj:
                continue
            out.append(row)
            clipped = clip_halfplane(cell, mx, my, nx, ny)
            if clipped:
                cell = clipped
                horizon = horizon_of(cell)
            # else: the cell collapsed numerically — keep the previous
            # (larger) horizon and keep streaming; conservative.
        if last:
            return out, examined
        done = kk
        k *= 2
        dist = None


class _SideColumns:
    """One growable side of the dynamic join, columns plus objects.

    Two mutation tiers share the storage.  *Eager* ops (``insert`` /
    ``pop`` — the per-event oracle path) keep the columns dense:
    deletions swap-remove, and the :class:`PointArray` / KD-tree caches
    are invalidated per mutation and rebuilt lazily, exactly the
    pre-batch behaviour.  *Lazy* ops (``tombstone`` /
    ``buffer_insert`` — the ``apply_batch`` path) never touch the
    cached main array: a delete only marks its row dead, and an insert
    appends past ``_main_n`` into a side buffer; ``live_columns`` hands
    the batch path every live row.  ``flush`` merges the buffer and
    drops dead rows in one pass — the single compaction a batch may
    pay.  Eager ops flush first, so interleaving the two tiers stays
    correct.
    """

    def __init__(self, points):
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._points: list[Point] = []
        self._row_of: dict[int, int] = {}
        self._dead: set[int] = set()
        self._dead_main = 0  # tombstoned rows below _main_n
        self._main_n = 0  # rows [0, _main_n) are covered by _arr/_tree
        self._arr: PointArray | None = None
        self._tree: cKDTree | None = None
        for point in points:
            self.insert(point)

    def __len__(self) -> int:
        return len(self._row_of)

    def has(self, oid: int) -> bool:
        return oid in self._row_of

    # ------------------------------------------------------------------
    # eager tier (per-event path; dense columns)
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        self.flush()
        if point.oid in self._row_of:
            raise ValueError(f"duplicate oid {point.oid} on one side")
        self._row_of[point.oid] = len(self._points)
        self._xs.append(point.x)
        self._ys.append(point.y)
        self._points.append(point)
        self._main_n = len(self._points)
        self._arr = self._tree = None

    def pop(self, oid: int) -> Point | None:
        self.flush()
        row = self._row_of.pop(oid, None)
        if row is None:
            return None
        victim = self._points[row]
        last = len(self._points) - 1
        if row != last:
            mover = self._points[last]
            self._xs[row] = self._xs[last]
            self._ys[row] = self._ys[last]
            self._points[row] = mover
            self._row_of[mover.oid] = row
        del self._xs[last], self._ys[last], self._points[last]
        self._main_n = len(self._points)
        self._arr = self._tree = None
        return victim

    def array(self) -> PointArray:
        """The dense compacted array (flushes any lazy state)."""
        self.flush()
        return self._main_array()

    def tree(self) -> cKDTree | None:
        """KD-tree over the dense array (flushes any lazy state)."""
        self.flush()
        if self._main_n == 0:
            return None
        if self._tree is None:
            self._tree = cKDTree(self._main_array().coords())
        return self._tree

    # ------------------------------------------------------------------
    # lazy tier (apply_batch path; tombstones + insert buffer)
    # ------------------------------------------------------------------
    def tombstone(self, oid: int) -> Point | None:
        """Mark ``oid``'s row dead without disturbing the main caches."""
        row = self._row_of.pop(oid, None)
        if row is None:
            return None
        self._dead.add(row)
        if row < self._main_n:
            self._dead_main += 1
        return self._points[row]

    def buffer_insert(self, point: Point) -> None:
        """Append past the main rows; the stale tree stays valid."""
        if point.oid in self._row_of:
            raise ValueError(f"duplicate oid {point.oid} on one side")
        self._row_of[point.oid] = len(self._points)
        self._xs.append(point.x)
        self._ys.append(point.y)
        self._points.append(point)

    def live_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, x, y)`` of every live row, main and buffered."""
        main = self._main_array()
        n = len(self._points)
        xs, ys = main.x, main.y
        if n > self._main_n:
            m = n - self._main_n
            xs = np.concatenate(
                (xs, np.fromiter(self._xs[self._main_n :], np.float64, m))
            )
            ys = np.concatenate(
                (ys, np.fromiter(self._ys[self._main_n :], np.float64, m))
            )
        if not self._dead:
            return np.arange(n), xs, ys
        alive = np.ones(n, dtype=bool)
        alive[np.fromiter(self._dead, np.int64, len(self._dead))] = False
        rows = np.flatnonzero(alive)
        return rows, xs[rows], ys[rows]

    @property
    def main_count(self) -> int:
        return self._main_n

    @property
    def tombstones(self) -> int:
        return self._dead_main

    @property
    def buffered(self) -> int:
        return len(self._points) - self._main_n

    def needs_compaction(self, frac: float, cap: int) -> bool:
        """Whether the lazy state crossed a rebuild threshold (strict
        comparisons: sitting exactly *at* a threshold defers)."""
        return (
            self._dead_main > frac * self._main_n or self.buffered > cap
        )

    def flush(self) -> bool:
        """Compact: drop dead rows, merge the buffer, invalidate the
        caches.  Returns True when anything actually changed (the
        batch path's rebuild counter)."""
        if not self._dead and self._main_n == len(self._points):
            return False
        if self._dead:
            keep = [
                row
                for row in range(len(self._points))
                if row not in self._dead
            ]
            self._xs = [self._xs[row] for row in keep]
            self._ys = [self._ys[row] for row in keep]
            self._points = [self._points[row] for row in keep]
            self._row_of = {
                p.oid: row for row, p in enumerate(self._points)
            }
            self._dead.clear()
        self._dead_main = 0
        self._main_n = len(self._points)
        self._arr = self._tree = None
        return True

    # ------------------------------------------------------------------
    # shared internals
    # ------------------------------------------------------------------
    def point(self, row: int) -> Point:
        return self._points[row]

    def _main_array(self) -> PointArray:
        if self._arr is None:
            n = self._main_n
            self._arr = PointArray(
                np.fromiter(self._xs, np.float64, count=n),
                np.fromiter(self._ys, np.float64, count=n),
                np.fromiter(
                    (p.oid for p in self._points[:n]), np.int64, count=n
                ),
            )
        return self._arr


class _RingColumns:
    """Columnar twin of the pair-circle grid: endpoint columns of every
    live ring, answering "which rings strictly contain ``(x, y)``" with
    one vectorized evaluation of the **exact** dot predicate
    ``(x - px)(x - qx) + (y - py)(y - qy) < 0`` — term for term the
    IEEE expression of :meth:`repro.geometry.ring.Ring.contains_point`,
    so a containment decision here is the decision the object grid's
    confirm step would have made.  Where the grid buckets circle
    bounding boxes and rechecks a candidate superset per cell, the twin
    scans all live rings in one numpy pass — no superset, no recheck,
    and column compaction (swap-remove) keeps the scan dense.
    """

    def __init__(self):
        self._px: list[float] = []
        self._py: list[float] = []
        self._qx: list[float] = []
        self._qy: list[float] = []
        self._keys: list[tuple[int, int]] = []
        self._slot_of: dict[tuple[int, int], int] = {}
        self._cols: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, key: tuple[int, int], pair: RCJPair) -> None:
        self._slot_of[key] = len(self._keys)
        self._px.append(pair.p.x)
        self._py.append(pair.p.y)
        self._qx.append(pair.q.x)
        self._qy.append(pair.q.y)
        self._keys.append(key)
        self._cols = None

    def remove(self, key: tuple[int, int]) -> None:
        slot = self._slot_of.pop(key, None)
        if slot is None:
            return
        last = len(self._keys) - 1
        if slot != last:
            mover = self._keys[last]
            for col in (self._px, self._py, self._qx, self._qy):
                col[slot] = col[last]
            self._keys[slot] = mover
            self._slot_of[mover] = slot
        del (
            self._px[last],
            self._py[last],
            self._qx[last],
            self._qy[last],
            self._keys[last],
        )
        self._cols = None

    def _columns(self) -> tuple[np.ndarray, ...]:
        if self._cols is None:
            n = len(self._keys)
            self._cols = tuple(
                np.fromiter(col, np.float64, count=n)
                for col in (self._px, self._py, self._qx, self._qy)
            )
        return self._cols

    def keys_containing(self, x: float, y: float) -> list[tuple[int, int]]:
        """Keys of live rings strictly containing ``(x, y)``."""
        if not self._keys:
            return []
        px, py, qx, qy = self._columns()
        t = (x - px) * (x - qx) + (y - py) * (y - qy)
        return [self._keys[i] for i in np.nonzero(t < 0.0)[0]]

    def keys_involving(
        self, oid: int, side: Side
    ) -> list[tuple[int, int]]:
        """Keys of live rings with ``oid`` as their ``side`` endpoint."""
        slot = 0 if side == "P" else 1
        return [key for key in self._keys if key[slot] == oid]

    def keys_involving_any(
        self, oids, side: Side
    ) -> list[tuple[int, int]]:
        """Keys of live rings whose ``side`` endpoint is in ``oids`` —
        one pass over the columns for a whole batch of deletions."""
        if not oids:
            return []
        wanted = set(oids)
        slot = 0 if side == "P" else 1
        return [key for key in self._keys if key[slot] in wanted]

    def keys_containing_any(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> list[tuple[int, int]]:
        """Keys of live rings strictly containing *any* of the probe
        points — the batch kill-scan, chunked so the broadcast stays
        within a bounded temporary."""
        if not self._keys or not len(xs):
            return []
        px, py, qx, qy = self._columns()
        n = len(self._keys)
        hit = np.zeros(n, dtype=bool)
        chunk = max(1, (1 << 22) // n)
        for start in range(0, len(xs), chunk):
            cx = xs[start : start + chunk, None]
            cy = ys[start : start + chunk, None]
            t = (cx - px) * (cx - qx) + (cy - py) * (cy - qy)
            hit |= (t < 0.0).any(axis=0)
        return [self._keys[i] for i in np.nonzero(hit)[0]]


class DynamicArrayRCJ:
    """The RCJ result maintained under updates, columnar backend.

    Implements the same contract as
    :class:`repro.core.dynamic.DynamicRCJ` (the
    :class:`~repro.core.dynamic.DynamicBackend` protocol) and produces
    the exact same pair set after every update, but answers each update
    with batched kernel work over resident columns instead of pointwise
    R-tree traversals:

    - insertion kill-sets come from one vectorized ring-containment
      scan (:class:`_RingColumns`);
    - insertion partners come from the engine's candidate kernels
      (:func:`~repro.engine.kernels.knn_candidate_blocks` with the new
      point as the sole probe);
    - deletion's freed-pair candidates come from the same
      Voronoi-horizon argument as the object backend
      (:func:`_voronoi_neighborhood` over a :class:`_UnionView` of the
      live union: k-NN blocks of doubling size, whole blocks rejected
      against the current cell in numpy, survivors clipped) — crossed
      and filtered vectorized;
    - every candidate batch is settled by
      :func:`~repro.engine.kernels.verify_rings_batch` against the same
      live-union view, the engine's exact predicate.

    The per-side KD-trees serve the per-event ``insert`` only;
    ``apply_batch`` builds one live-union view per batch for both its
    probe and verify stages.

    Parameters mirror :class:`~repro.core.dynamic.DynamicRCJ`
    (``bounds`` seeds the Voronoi clip box; points outside remain
    legal).  ``oid`` values must be unique within each side.
    """

    def __init__(
        self,
        points_p=(),
        points_q=(),
        bounds: Rect | None = None,
    ):
        self.bounds = bounds if bounds is not None else Rect(0, 0, 10000, 10000)
        self._p = _SideColumns(points_p)
        self._q = _SideColumns(points_q)
        self._pairs: dict[tuple[int, int], RCJPair] = {}
        self._rings = _RingColumns()
        #: Lifetime maintenance accounting of the batch path.
        self.stats = {"batches": 0, "events": 0, "rebuilds": 0}
        #: Set by :func:`repro.engine.planner.make_dynamic` on planned
        #: (``backend="auto"``) instances: batches then feed the
        #: calibration observation log.
        self.record_calibration = False
        #: Root span of the last ``apply_batch`` (None when tracing is
        #: off) — the CLI's ``--trace`` sink reads it after each batch.
        self.last_batch_trace = None
        #: Per-stage wall seconds of the last ``apply_batch``.
        self.last_batch_stages: dict[str, float] = {}
        if len(self._p) and len(self._q):
            parr, qarr = self._p.array(), self._q.array()
            p_idx, q_idx, _ = rcj_pair_indices(parr, qarr)
            for pi, qi in zip(p_idx.tolist(), q_idx.tolist()):
                self._store(RCJPair(self._p.point(pi), self._q.point(qi)))

    # ------------------------------------------------------------------
    # result access (DynamicBackend)
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> list[RCJPair]:
        """The current RCJ result (unordered)."""
        return list(self._pairs.values())

    def pair_keys(self) -> set[tuple[int, int]]:
        """Identity set of the current result."""
        return set(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    # ------------------------------------------------------------------
    # updates (DynamicBackend)
    # ------------------------------------------------------------------
    def insert(self, point: Point, side: Side) -> None:
        """Add ``point`` to dataset ``side`` and repair the result."""
        own, other = self._sides(side)
        with obs_trace("dynamic-insert", backend="array", side=side):
            own.insert(point)
            # (i) Kill every pair whose ring strictly contains the
            # point: one vectorized exact-predicate scan over the ring
            # columns.
            killed = self._rings.keys_containing(point.x, point.y)
            for key in killed:
                self._drop(key)
            add_counter("killed", len(killed))
            # (ii) New pairs all involve the new point; partners come
            # from the batch candidate kernels with the point as the
            # sole probe (a superset of the true partners — blockers
            # drawn from the partner side only), verified exactly
            # against the live union.
            if not len(other):
                return
            other_arr = other.array()
            probe = PointArray(
                np.array([point.x]), np.array([point.y]), np.array([point.oid])
            )
            _q_idx, partner_idx = knn_candidate_blocks(
                other_arr, probe, tree_p=other.tree()
            )
            if not partner_idx.size:
                return
            zx = np.full(partner_idx.size, point.x)
            zy = np.full(partner_idx.size, point.y)
            ox = other_arr.x[partner_idx]
            oy = other_arr.y[partner_idx]
            if side == "P":
                px, py, qx, qy = zx, zy, ox, oy
            else:
                px, py, qx, qy = ox, oy, zx, zy
            view = _UnionView(self._p, self._q, self.bounds)
            alive = verify_rings_batch(
                px, py, qx, qy, view.tree, view.x, view.y
            )
            for row in partner_idx[alive].tolist():
                partner = other.point(row)
                pair = (
                    RCJPair(point, partner)
                    if side == "P"
                    else RCJPair(partner, point)
                )
                self._store(pair)
            add_counter("added", int(alive.sum()))

    def delete(self, point: Point, side: Side) -> bool:
        """Remove ``point`` from dataset ``side`` and repair the result.

        Raises a named ``KeyError`` (and changes nothing) when no point
        with that oid lives on ``side``; returns True on success.
        """
        own, _other = self._sides(side)
        if not own.has(point.oid):
            raise KeyError(
                f"no point with oid {point.oid} on side {side!r}"
            )
        with obs_trace("dynamic-delete", backend="array", side=side):
            victim = own.pop(point.oid)
            # (i) Pairs involving the departed point die.
            killed = self._rings.keys_involving(point.oid, side)
            for key in killed:
                self._drop(key)
            add_counter("killed", len(killed))
            if not len(self._p) or not len(self._q):
                return True
            # (ii) Pairs freed by the departure: both endpoints are
            # Delaunay neighbours of the departed point in the remaining
            # union.  One view serves both the probe and verification.
            view = _UnionView(self._p, self._q, self.bounds)
            candidates: dict[tuple[int, int], RCJPair] = {}
            self._probe_victim(victim, view, candidates)
            add_counter("freed", self._settle(candidates, view))
        return True

    # ------------------------------------------------------------------
    # batched updates (DynamicBackend)
    # ------------------------------------------------------------------
    def apply_batch(self, inserts=(), deletes=()) -> None:
        """Absorb one update batch with amortized maintenance.

        ``inserts`` / ``deletes`` are sequences of ``(point, side)``;
        deletes apply before inserts, so deleting and re-inserting one
        oid in a batch is a "move".  After validation
        (:func:`~repro.core.dynamic.validate_batch` — atomic, nothing
        mutates on a malformed batch) the whole batch is absorbed with
        *no* per-event column compaction or KD-tree rebuild:

        - deletes become lazy tombstones and inserts land in small
          per-side buffers;
        - one live-union view (:class:`_UnionView`: a KD-tree plus
          columns over every live row, buffers included, tombstones
          left out) is built for the whole batch, and the first k-NN
          block of every probe comes from one query over it;
        - freed-pair candidates come from each victim's Voronoi
          neighbourhood over the *final* union (for a ring freed by a
          deletion, both endpoints are Delaunay neighbours of the
          departed point in ``final ∪ {victim}`` — the witness circles
          lie inside the ring, empty of the final union), filtered by
          the exact "ring strictly contained the victim" predicate;
        - new-pair candidates come from each inserted point's Voronoi
          neighbourhood (opposite side);
        - one exact verification pass over the same view settles all
          candidates — byte-identical survivors to the per-event
          oracle;
        - at most one compaction per side runs at the end, and only
          past a tombstone-fraction or buffer-size threshold
          (``REPRO_DYN_TOMBSTONE_FRAC`` / ``REPRO_DYN_BUFFER_CAP``).

        The ``probe`` stage span counts ``examined``: the points the
        Python clip tested, summed over the batch's probes.
        """
        inserts = [(point, side) for point, side in inserts]
        deletes = [(point, side) for point, side in deletes]
        validate_batch(
            inserts,
            deletes,
            lambda side, oid: self._sides(side)[0].has(oid),
        )
        t0 = time.perf_counter()
        stages: dict[str, float] = {}
        with obs_trace(
            "dynamic-batch",
            backend="array",
            n_inserts=len(inserts),
            n_deletes=len(deletes),
        ) as root:
            self._apply_batch_inner(inserts, deletes, stages)
            if root is not None:
                root.add("pairs", len(self._pairs))
                root.set(
                    tombstones=self._p.tombstones + self._q.tombstones,
                    buffered=self._p.buffered + self._q.buffered,
                )
        self.stats["batches"] += 1
        self.stats["events"] += len(inserts) + len(deletes)
        self.last_batch_trace = root
        self.last_batch_stages = stages
        self._record_batch(
            len(inserts) + len(deletes), time.perf_counter() - t0, stages
        )

    def _apply_batch_inner(self, inserts, deletes, stages) -> None:
        # -- kill stage: tombstone victims, drop their pairs, buffer
        # the inserts, and kill pre-batch pairs an insert landed in.
        victims: list[tuple[Point, Side]] = []
        with stage_timer(stages, "kill"):
            dead_oids: dict[Side, list[int]] = {"P": [], "Q": []}
            for point, side in deletes:
                own, _other = self._sides(side)
                victims.append((own.tombstone(point.oid), side))
                dead_oids[side].append(point.oid)
            kill_set = 0
            for side in ("P", "Q"):
                keys = self._rings.keys_involving_any(dead_oids[side], side)
                kill_set += len(keys)
                for key in keys:
                    self._drop(key)
            for point, side in inserts:
                self._sides(side)[0].buffer_insert(point)
            if inserts:
                ix = np.fromiter(
                    (p.x for p, _ in inserts), np.float64, count=len(inserts)
                )
                iy = np.fromiter(
                    (p.y for p, _ in inserts), np.float64, count=len(inserts)
                )
                keys = self._rings.keys_containing_any(ix, iy)
                kill_set += len(keys)
                for key in keys:
                    self._drop(key)
            add_counter("killed", kill_set)
        # -- probe stage: freed-pair candidates per victim, new-pair
        # candidates per insert, all over one final-union view.
        if len(self._p) and len(self._q):
            candidates: dict[tuple[int, int], RCJPair] = {}
            with stage_timer(stages, "probe"):
                view = _UnionView(self._p, self._q, self.bounds)
                # The first k-NN block of every probe, in one query.
                probes = [(pt.x, pt.y) for pt, _side in victims + inserts]
                if probes:
                    dist, idx = view.tree.query(
                        probes, k=min(_PROBE_K0, len(view))
                    )
                    dist = dist.reshape(len(probes), -1)
                    idx = idx.reshape(len(probes), -1)
                examined = 0
                for j, (victim, _side) in enumerate(victims):
                    examined += self._probe_victim(
                        victim, view, candidates, (dist[j], idx[j])
                    )
                for j, (point, side) in enumerate(inserts, len(victims)):
                    examined += self._probe_insert(
                        point, side, view, candidates, (dist[j], idx[j])
                    )
                add_counter("examined", examined)
            add_counter("candidates", len(candidates))
            # -- verify stage: one exact pass settles every candidate.
            if candidates:
                with stage_timer(stages, "verify"):
                    add_counter("added", self._settle(candidates, view))
        # -- rebuild stage: at most one compaction per side.
        with stage_timer(stages, "rebuild"):
            self._maybe_compact()

    def _probe_victim(
        self, victim: Point, view: _UnionView, candidates, first=None
    ) -> int:
        """Freed-pair candidates of one deleted point: cross the P/Q
        split of its Voronoi neighbourhood in ``view``, keep rings it
        strictly blocked.  Returns the points the clip examined."""
        rows, examined = _voronoi_neighborhood(
            victim.x, victim.y, view, stop_on_coincident=True, first=first
        )
        if rows is None:
            # A coincident live point remains: every ring that contained
            # the victim still contains that point — nothing is freed.
            return examined
        rows = np.array(rows, dtype=np.int64)
        near_p, near_q = rows[rows < view.n_p], rows[rows >= view.n_p]
        if not near_p.size or not near_q.size:
            return examined
        pi = np.repeat(near_p, near_q.size)
        qi = np.tile(near_q, near_p.size)
        blocked = (victim.x - view.x[pi]) * (victim.x - view.x[qi]) + (
            victim.y - view.y[pi]
        ) * (victim.y - view.y[qi]) < 0.0
        for a, b in zip(pi[blocked].tolist(), qi[blocked].tolist()):
            p, q = view.point(a), view.point(b)
            key = (p.oid, q.oid)
            if key not in self._pairs and key not in candidates:
                candidates[key] = RCJPair(p, q)
        return examined

    def _probe_insert(
        self, point: Point, side: Side, view: _UnionView, candidates, first
    ) -> int:
        """New-pair candidates of one inserted point: its opposite-side
        Voronoi neighbours in ``view`` (a verified pair's ring is empty
        of the final union, so its endpoints are Delaunay neighbours
        there — the neighbourhood is a superset).  The point itself is
        in the view and comes back as a coincident own-side row.
        Returns the points the clip examined."""
        rows, examined = _voronoi_neighborhood(
            point.x, point.y, view, stop_on_coincident=False, first=first
        )
        for row in rows:
            if (row < view.n_p) == (side == "P"):
                continue
            z = view.point(row)
            p, q = (point, z) if side == "P" else (z, point)
            key = (p.oid, q.oid)
            if key not in self._pairs and key not in candidates:
                candidates[key] = RCJPair(p, q)
        return examined

    def _settle(self, candidates, view: _UnionView) -> int:
        """Verify candidate pairs exactly against ``view``; store the
        survivors and return how many there were."""
        if not candidates:
            return 0
        pairs = list(candidates.values())
        m = len(pairs)
        px = np.fromiter((pr.p.x for pr in pairs), np.float64, count=m)
        py = np.fromiter((pr.p.y for pr in pairs), np.float64, count=m)
        qx = np.fromiter((pr.q.x for pr in pairs), np.float64, count=m)
        qy = np.fromiter((pr.q.y for pr in pairs), np.float64, count=m)
        alive = verify_rings_batch(px, py, qx, qy, view.tree, view.x, view.y)
        for j in np.flatnonzero(alive).tolist():
            self._store(pairs[j])
        return int(alive.sum())

    def _maybe_compact(self) -> int:
        """Flush a side's lazy state when it crossed a threshold — the
        at-most-one compaction per side per batch."""
        frac = _tombstone_frac()
        cap = _buffer_cap()
        rebuilds = 0
        for cols in (self._p, self._q):
            if cols.needs_compaction(frac, cap) and cols.flush():
                rebuilds += 1
        self.stats["rebuilds"] += rebuilds
        add_counter("rebuilds", rebuilds)
        return rebuilds

    def maintenance_stats(self) -> dict:
        """Lifetime batch accounting plus the current lazy state."""
        return {
            **self.stats,
            "tombstones": self._p.tombstones + self._q.tombstones,
            "buffered": self._p.buffered + self._q.buffered,
        }

    def _record_batch(self, batch_size, seconds, stages) -> None:
        """Feed one batch to the calibration log (planned instances
        only; exception-fenced like every calibration hook)."""
        if not getattr(self, "record_calibration", False):
            return
        try:
            from repro.calibration.observations import record_observation
            from repro.parallel.costmodel import estimate_bytes

            n_p, n_q = len(self._p), len(self._q)
            record_observation(
                kind="dynamic",
                engine="array",
                workers=1,
                n_p=n_p,
                n_q=n_q,
                density_factor=1.0,
                est_candidates=batch_size,
                est_bytes=estimate_bytes(n_p, n_q, 1, 0),
                stage_seconds=dict(stages) or None,
                total_seconds=seconds,
            )
        except Exception:
            pass

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _sides(self, side: Side) -> tuple[_SideColumns, _SideColumns]:
        if side == "P":
            return self._p, self._q
        if side == "Q":
            return self._q, self._p
        raise ValueError(f"side must be 'P' or 'Q', got {side!r}")

    def _store(self, pair: RCJPair) -> None:
        key = pair.key()
        if key in self._pairs:
            return
        self._pairs[key] = pair
        self._rings.add(key, pair)

    def _drop(self, key: tuple[int, int]) -> None:
        if self._pairs.pop(key, None) is not None:
            self._rings.remove(key)

    def __repr__(self) -> str:
        return (
            f"DynamicArrayRCJ(|P|={len(self._p)}, |Q|={len(self._q)}, "
            f"pairs={len(self._pairs)})"
        )
