"""Synthetic stand-ins for the paper's real USGS datasets.

The paper evaluates on three pointsets from the U.S. Board on Geographic
Names: PP (Populated Places, 177,983), SC (Schools, 172,188) and LO
(Locales, 128,476).  Those files are not redistributable in this
offline reproduction, so seeded generators emulate their key structural
properties:

- *skewed, multi-scale clustering* — settlement locations follow many
  town/city clusters of varying size over a uniform rural background;
- *cross-dataset correlation* — schools and locales concentrate near
  populated places, so all datasets span the same geographic region
  with correlated local density (the paper requires that "data points
  of both datasets P and Q should span over the same geographical
  region");
- *matched cardinality ratios* — generated sizes keep the paper's
  PP : SC : LO proportions, scaled by ``scale`` (default 16) so the
  full experiment suite runs in minutes on a laptop; ``scale=1``
  restores the original cardinalities.
"""

from __future__ import annotations

import random

from repro.datasets.synthetic import DOMAIN
from repro.geometry.point import Point

#: Cardinalities of the paper's Table 2.
REAL_CARDINALITIES = {"PP": 177_983, "SC": 172_188, "LO": 128_476}

#: Default down-scaling factor applied to the paper's cardinalities.
DEFAULT_SCALE = 64

#: Number of town clusters in the PP stand-in (before scaling effects).
_PP_TOWNS = 300

#: Fraction of points drawn from the uniform rural background.
_BACKGROUND_FRACTION = 0.25


def _town_centers(rng: random.Random, n_towns: int) -> list[tuple[float, float, float]]:
    """Town centres with Zipf-like sizes: (x, y, weight)."""
    lo, hi = DOMAIN
    centers = []
    for rank in range(1, n_towns + 1):
        weight = 1.0 / rank**0.8  # heavy-tailed town sizes
        centers.append((rng.uniform(lo, hi), rng.uniform(lo, hi), weight))
    return centers


def _sample_clustered(
    rng: random.Random,
    n: int,
    centers: list[tuple[float, float, float]],
    spread: float,
    start_oid: int,
) -> list[Point]:
    lo, hi = DOMAIN
    weights = [c[2] for c in centers]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    def pick_center() -> tuple[float, float]:
        u = rng.random()
        # Linear scan is fine: len(centers) is a few hundred.
        for idx, threshold in enumerate(cumulative):
            if u <= threshold:
                return centers[idx][0], centers[idx][1]
        return centers[-1][0], centers[-1][1]

    points: list[Point] = []
    n_background = int(n * _BACKGROUND_FRACTION)
    for i in range(n):
        if i < n_background:
            x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        else:
            cx, cy = pick_center()
            x = min(max(rng.gauss(cx, spread), lo), hi)
            y = min(max(rng.gauss(cy, spread), lo), hi)
        points.append(Point(x, y, start_oid + i))
    return points


def populated_places(
    scale: int = DEFAULT_SCALE, seed: int = 7, start_oid: int = 0
) -> list[Point]:
    """Stand-in for the PP dataset (populated places)."""
    n = max(1, REAL_CARDINALITIES["PP"] // scale)
    rng = random.Random(seed)
    centers = _town_centers(rng, _PP_TOWNS)
    return _sample_clustered(rng, n, centers, spread=220.0, start_oid=start_oid)


def schools(
    scale: int = DEFAULT_SCALE, seed: int = 7, start_oid: int = 0
) -> list[Point]:
    """Stand-in for the SC dataset (schools): correlated with PP.

    Schools are sampled around the same town centres (same seed stream
    for the centres) with a slightly wider spread — schools serve
    residential sprawl around each settlement.
    """
    n = max(1, REAL_CARDINALITIES["SC"] // scale)
    rng = random.Random(seed)  # same centre layout as PP
    centers = _town_centers(rng, _PP_TOWNS)
    rng_points = random.Random(seed + 1)
    return _sample_clustered(
        rng_points, n, centers, spread=300.0, start_oid=start_oid
    )


def locales(
    scale: int = DEFAULT_SCALE, seed: int = 7, start_oid: int = 0
) -> list[Point]:
    """Stand-in for the LO dataset (locales): correlated, sparser and
    more spread out than PP (locales include rural named places)."""
    n = max(1, REAL_CARDINALITIES["LO"] // scale)
    rng = random.Random(seed)
    centers = _town_centers(rng, _PP_TOWNS)
    rng_points = random.Random(seed + 2)
    return _sample_clustered(
        rng_points, n, centers, spread=450.0, start_oid=start_oid
    )


#: The paper's join combinations (Table 3): name -> (Q dataset, P dataset).
_COMBINATIONS = {
    "SP": ("SC", "PP"),
    "SP'": ("PP", "SC"),
    "LP": ("LO", "PP"),
    "LP'": ("PP", "LO"),
}

_GENERATORS = {
    "PP": populated_places,
    "SC": schools,
    "LO": locales,
}


def join_combination(
    name: str, scale: int = DEFAULT_SCALE, seed: int = 7
) -> tuple[list[Point], list[Point]]:
    """Return ``(Q, P)`` for a paper join combination (Table 3).

    ``name`` is one of ``SP``, ``SP'``, ``LP``, ``LP'``; the first
    dataset plays the role of ``Q`` (outer, drives the loop) and the
    second of ``P`` (inner, probed), matching the paper's convention.
    """
    try:
        q_name, p_name = _COMBINATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown join combination {name!r}; expected one of "
            f"{sorted(_COMBINATIONS)}"
        ) from None
    q_points = _GENERATORS[q_name](scale=scale, seed=seed)
    p_points = _GENERATORS[p_name](scale=scale, seed=seed, start_oid=len(q_points))
    return q_points, p_points
