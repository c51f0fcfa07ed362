"""Matrix Multiplication: C = A x B over dense square matrices.

Paper Table 1: "Matrix with dimension 999 x 999".  Phoenix++'s MM maps
over row blocks of A (each task computes full output rows), with the
output matrix as the value space.  Map work per task is perfectly uniform,
so core utilization is nearly homogeneous apart from the master core's
library-initialization work (output allocation) -- which is why MM is one
of the three applications needing the VFI 2 V/F reassignment (Sec. 4.2).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.apps import datasets
from repro.apps.base import AppProfile, BenchmarkApp
from repro.apps.calibration import PhaseShares
from repro.mapreduce.containers import ArrayContainer, Container
from repro.mapreduce.combiners import Combiner
from repro.mapreduce.job import Emit, JobConfig, MapReduceJob
from repro.mapreduce.splitter import chunk_indices

PROFILE = AppProfile(
    name="matrix_multiply",
    label="MM",
    paper_dataset="Matrix with dimension 999 x 999",
    iterations=1,
    l2_locality=0.2,
    has_merge=True,
    lib_init_weight=1.2,
    wall_shares=PhaseShares(lib_init=0.07, map=0.80, reduce=0.05, merge=0.08),
)


class RowCombiner(Combiner):
    """Keeps the single computed row vector (each row is emitted once)."""

    def identity(self):
        return None

    def add(self, acc, value):
        if acc is not None:
            raise ValueError("matrix row emitted twice")
        return value

    def merge(self, acc, other):
        if acc is not None and other is not None:
            raise ValueError("matrix row computed by two workers")
        return other if acc is None else acc

    def finalize(self, acc):
        if acc is None:
            raise ValueError("row never computed")
        return acc


class MatrixMultiplyJob(MapReduceJob):
    """MapReduce job computing C = A x B by row blocks."""

    name = "matrix_multiply"

    def __init__(self, a: np.ndarray, b: np.ndarray, config: JobConfig):
        super().__init__(config)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
        self.a = a
        self.b = b

    def split(self, num_tasks: int) -> List[Tuple[int, int]]:
        return [tuple(r) for r in chunk_indices(self.a.shape[0], num_tasks)]

    def map(self, chunk: Tuple[int, int], emit: Emit) -> float:
        row_lo, row_hi = chunk
        block = self.a[row_lo:row_hi] @ self.b
        for offset, row in enumerate(block):
            emit(row_lo + offset, tuple(row))
        # One multiply-add per (row, col, k) triple; expressed in units of
        # 8 MACs to keep work numbers in the same range as the other apps.
        return (row_hi - row_lo) * self.a.shape[1] * self.b.shape[1] / 8.0

    def combiner(self) -> RowCombiner:
        return RowCombiner()

    def make_container(self) -> Container:
        return ArrayContainer(self.combiner(), self.a.shape[0])

    def final_result(self, last_result: Dict[int, tuple]) -> np.ndarray:
        rows = self.a.shape[0]
        output = np.zeros((rows, self.b.shape[1]))
        for row, values in last_result.items():
            output[row] = values
        return output


class MatrixMultiplyApp(BenchmarkApp):
    """Dense matrix product over synthetic random matrices."""

    profile = PROFILE

    BASE_DIMENSION = 128
    PAPER_DIMENSION = 999

    def __init__(self, scale: float = 1.0, seed: int = 7):
        super().__init__(scale, seed)
        # Keep the row count a multiple of the task count so every map
        # task computes the same number of rows (homogeneous utilization).
        self.dimension = max(64, (int(self.BASE_DIMENSION * scale) // 64) * 64)

    @cached_property
    def _a(self) -> np.ndarray:
        return datasets.dense_matrix(
            self.dimension, self.dimension, seed=self.component_seed("a")
        )

    @cached_property
    def _b(self) -> np.ndarray:
        return datasets.dense_matrix(
            self.dimension, self.dimension, seed=self.component_seed("b")
        )

    def make_job(self) -> MatrixMultiplyJob:
        # MAC-count ratio between the paper's 999^3 and our functional run.
        volume_ratio = (self.PAPER_DIMENSION / self.dimension) ** 3
        config = JobConfig(
            instructions_per_map_unit=40.0,
            instructions_per_reduce_pair=300.0,
            instructions_per_merge_byte=2.5,
            bytes_per_pair=float(self.dimension * 8 + 8),
            l1_mpki=4.5,
            l2_mpki=0.45,
            lib_init_instructions=PROFILE.lib_init_weight * 5.0e6,
            trace_scale=volume_ratio,
            # One row block per core: Phoenix++ MM divides rows evenly.
            tasks_per_worker=2.0,
        )
        return MatrixMultiplyJob(self._a, self._b, config)

    def verify_result(self, result: np.ndarray) -> None:
        expected = self._a @ self._b
        assert result.shape == expected.shape
        assert np.allclose(result, expected, atol=1e-9), (
            "matrix product diverges from numpy reference"
        )
