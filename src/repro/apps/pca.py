"""PCA: row means and covariance matrix of a dense matrix.

Paper Table 1: "Matrix with dimension 960 x 960".  The Phoenix++ PCA
computes the principal-component inputs in *two* MapReduce iterations
(paper Sec. 7: "Kmeans and PCA have two MapReduce iterations"):

1. iteration 0 maps over row blocks and produces each row's mean;
2. iteration 1 maps over (i, j) row-pair blocks and produces the
   covariance entries cov(i, j) for i <= j.

Iteration 1 emits one key per matrix-pair -- thousands of keys -- which is
why the paper singles out PCA's "long Merge period" (Sec. 4.2) and why it
has the strongest bottleneck-core effect (Fig. 5): the merge funnel keeps
ever-fewer cores busy on a large sorted key space.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.apps import datasets
from repro.apps.base import AppProfile, BenchmarkApp
from repro.apps.calibration import PhaseShares
from repro.mapreduce.containers import Container, HashContainer
from repro.mapreduce.combiners import Combiner
from repro.mapreduce.job import Emit, JobConfig, MapReduceJob
from repro.mapreduce.splitter import chunk_indices

PROFILE = AppProfile(
    name="pca",
    label="PCA",
    paper_dataset="Matrix with dimension 960 x 960",
    iterations=2,
    l2_locality=0.2,
    has_merge=True,
    lib_init_weight=1.0,
    wall_shares=PhaseShares(lib_init=0.14, map=0.50, reduce=0.10, merge=0.26),
)


class ValueCombiner(Combiner):
    """Keeps the single computed statistic (each key emitted exactly once)."""

    def identity(self):
        return None

    def add(self, acc, value):
        if acc is not None:
            raise ValueError("PCA statistic emitted twice for one key")
        return value

    def merge(self, acc, other):
        if acc is not None and other is not None:
            raise ValueError("PCA statistic computed by two workers")
        return other if acc is None else acc

    def finalize(self, acc):
        if acc is None:
            raise ValueError("statistic never computed")
        return acc


class PcaJob(MapReduceJob):
    """Two-iteration PCA job: row means then covariance entries."""

    name = "pca"

    def __init__(self, matrix: np.ndarray, config: JobConfig):
        super().__init__(config)
        self.matrix = matrix
        self.row_means: Dict[int, float] = {}
        self._iteration = 0
        rows = matrix.shape[0]
        self._pairs: List[Tuple[int, int]] = [
            (i, j) for i in range(rows) for j in range(i, rows)
        ]

    def max_iterations(self) -> int:
        return 2

    def begin_iteration(self, iteration: int) -> bool:
        self._iteration = iteration
        return True

    def split(self, num_tasks: int) -> List[Tuple[str, int, int]]:
        if self._iteration == 0:
            ranges = chunk_indices(self.matrix.shape[0], num_tasks)
            return [("rows", lo, hi) for lo, hi in ranges]
        ranges = chunk_indices(len(self._pairs), num_tasks)
        return [("pairs", lo, hi) for lo, hi in ranges]

    def map(self, chunk: Tuple[str, int, int], emit: Emit) -> float:
        kind, lo, hi = chunk
        cols = self.matrix.shape[1]
        if kind == "rows":
            block = self.matrix[lo:hi]
            means = block.mean(axis=1)
            for offset, mean in enumerate(means):
                emit(("mean", lo + offset), float(mean))
            return (hi - lo) * cols / 8.0
        centered = self.matrix - np.array(
            [self.row_means[i] for i in range(self.matrix.shape[0])]
        ).reshape(-1, 1)
        for i, j in self._pairs[lo:hi]:
            cov = float(np.dot(centered[i], centered[j]) / (cols - 1))
            emit(("cov", i, j), cov)
        return (hi - lo) * cols / 8.0

    def combiner(self) -> ValueCombiner:
        return ValueCombiner()

    def make_container(self) -> Container:
        return HashContainer(self.combiner())

    def end_iteration(self, iteration: int, result: Dict[Hashable, float]) -> None:
        if iteration == 0:
            self.row_means = {key[1]: value for key, value in result.items()}
            if len(self.row_means) != self.matrix.shape[0]:
                raise RuntimeError(
                    f"iteration 0 produced {len(self.row_means)} means "
                    f"for {self.matrix.shape[0]} rows"
                )

    def final_result(self, last_result: Dict[Hashable, float]) -> np.ndarray:
        rows = self.matrix.shape[0]
        covariance = np.zeros((rows, rows))
        for key, value in last_result.items():
            _, i, j = key
            covariance[i, j] = value
            covariance[j, i] = value
        return covariance


class PcaApp(BenchmarkApp):
    """PCA (covariance computation) over a synthetic low-rank matrix."""

    profile = PROFILE

    BASE_DIMENSION = 64
    PAPER_DIMENSION = 960

    def __init__(self, scale: float = 1.0, seed: int = 7):
        super().__init__(scale, seed)
        self.dimension = max(24, int(self.BASE_DIMENSION * scale))

    @cached_property
    def _matrix(self) -> np.ndarray:
        return datasets.correlated_matrix(
            self.dimension, self.dimension, seed=self.component_seed("matrix")
        )

    def make_job(self) -> PcaJob:
        # Covariance work scales ~ N^3/2; use the MAC-volume ratio to reach
        # paper scale.
        volume_ratio = (self.PAPER_DIMENSION / self.dimension) ** 3
        config = JobConfig(
            instructions_per_map_unit=60.0,
            instructions_per_reduce_pair=250.0,
            instructions_per_merge_byte=6.0,
            bytes_per_pair=20.0,
            l1_mpki=1.6,
            l2_mpki=0.35,
            lib_init_instructions=PROFILE.lib_init_weight * 5.0e6,
            trace_scale=volume_ratio,
            tasks_per_worker=3.0,
        )
        return PcaJob(self._matrix, config)

    def verify_result(self, result: np.ndarray) -> None:
        centered = self._matrix - self._matrix.mean(axis=1, keepdims=True)
        expected = centered @ centered.T / (self._matrix.shape[1] - 1)
        assert result.shape == expected.shape
        assert np.allclose(result, expected, atol=1e-9), (
            "covariance matrix diverges from numpy reference"
        )
