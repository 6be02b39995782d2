"""Workload generators and dataset I/O.

- :mod:`repro.datasets.synthetic` — the paper's synthetic workloads:
  uniform (UI) data and Gaussian clusters with the exact parameters of
  Section 5 (domain ``[0, 10000]²``, cluster σ = 1000);
- :mod:`repro.datasets.real` — seeded synthetic *stand-ins* for the
  USGS pointsets (PP, SC, LO) used by the paper, which are not
  redistributable here; they keep the skewed clustering, cross-dataset
  correlation and cardinality ratios the paper's results depend on;
- :mod:`repro.datasets.worstcase` — adversarial families (collinear,
  cocircular, lattice, dumbbell, coincident) for the result-size study;
- :mod:`repro.datasets.usgs` — loader for the real GNIS files (for
  users who hold the paper's actual USGS datasets);
- :mod:`repro.datasets.io` — simple text serialisation for pointsets.
"""

from repro.datasets.io import load_points, save_points
from repro.datasets.real import (
    REAL_CARDINALITIES,
    join_combination,
    locales,
    populated_places,
    schools,
)
from repro.datasets.synthetic import DOMAIN, gaussian_clusters, uniform
from repro.datasets.usgs import load_gnis, normalize
from repro.datasets.worstcase import (
    cocircular,
    coincident,
    collinear,
    lattice,
    split_alternating,
    two_clusters,
)

__all__ = [
    "DOMAIN",
    "REAL_CARDINALITIES",
    "gaussian_clusters",
    "join_combination",
    "load_points",
    "locales",
    "populated_places",
    "save_points",
    "schools",
    "uniform",
    "load_gnis",
    "normalize",
    "cocircular",
    "coincident",
    "collinear",
    "lattice",
    "split_alternating",
    "two_clusters",
]
