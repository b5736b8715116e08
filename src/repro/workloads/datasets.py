"""Synthetic datasets standing in for the paper's external data.

The paper's storage and query experiments use a VIRAT surveillance frame
(with YOLOv4 + LIME/D-RISE) and the IMDB ``title.basics`` / ``title.episode``
tables; neither is available offline.  These generators produce numeric
stand-ins with the properties the experiments actually exercise:

* the frame has a bright object blob for the synthetic detector to find;
* the IMDB-like tables have a sorted join key (``tconst``), a sorted
  ``startYear`` column and an unsorted low-cardinality ``isAdult`` column,
  which is what determines how well the columnar baselines compress the
  captured relational lineage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..capture.explain import synthetic_frame

__all__ = ["ImdbLike", "make_imdb_like", "synthetic_frame", "make_feature_matrix"]


@dataclass
class ImdbLike:
    """Synthetic stand-ins for IMDB title.basics and title.episode."""

    basics: np.ndarray  # columns: tconst, startYear, isAdult, runtime, genres_code
    episode: np.ndarray  # columns: tconst, parent_tconst, season, episode


def make_imdb_like(n_basics: int = 5000, n_episodes: int = 3000, seed: int = 0) -> ImdbLike:
    """Generate the two IMDB-like tables used by the relational workloads."""
    rng = np.random.default_rng(seed)
    tconst = np.arange(n_basics, dtype=np.float64)  # sorted identifier
    start_year = np.sort(rng.integers(1950, 2024, size=n_basics)).astype(np.float64)  # sorted
    is_adult = rng.integers(0, 2, size=n_basics).astype(np.float64)  # unsorted, binary
    runtime = rng.integers(20, 240, size=n_basics).astype(np.float64)
    genres = rng.integers(0, 28, size=n_basics).astype(np.float64)
    basics = np.stack([tconst, start_year, is_adult, runtime, genres], axis=1)

    episode_tconst = np.sort(rng.choice(n_basics, size=n_episodes, replace=True)).astype(np.float64)
    parent = rng.choice(n_basics, size=n_episodes, replace=True).astype(np.float64)
    season = rng.integers(1, 15, size=n_episodes).astype(np.float64)
    episode_no = rng.integers(1, 25, size=n_episodes).astype(np.float64)
    episode = np.stack([episode_tconst, parent, season, episode_no], axis=1)
    return ImdbLike(basics=basics, episode=episode)


def make_feature_matrix(rows: int = 1000, cols: int = 16, seed: int = 0) -> np.ndarray:
    """A machine-learning style feature matrix (rows of examples)."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, cols))
    # sprinkle NaNs so the relational pipeline's NaN filter has work to do
    mask = rng.uniform(size=data.shape) < 0.02
    data[mask] = np.nan
    return data
