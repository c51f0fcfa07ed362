"""Linear Regression: least-squares fit of y = a*x + b over point samples.

Paper Table 1: "Medium (100 MB)".  Phoenix++ implements LR with a single
global accumulator of sufficient statistics (n, Sx, Sy, Sxx, Syy, Sxy) --
a one-bucket container -- so there is exactly one key, a trivial Reduce,
and *no Merge phase*; the paper also notes LR "has very little library
initialization period" (Sec. 4.2) and the highest traffic injection rate
with near-core-heavy communication (Sec. 7.3), which is why its profile
carries the highest ``l2_locality``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Hashable, List, Tuple

import numpy as np

from repro.apps import datasets
from repro.apps.base import AppProfile, BenchmarkApp
from repro.apps.calibration import PhaseShares
from repro.mapreduce.containers import Container, OneBucketContainer
from repro.mapreduce.combiners import Combiner
from repro.mapreduce.job import Emit, JobConfig, MapReduceJob
from repro.mapreduce.splitter import split_evenly

PROFILE = AppProfile(
    name="linear_regression",
    label="LR",
    paper_dataset="Medium (100 MB)",
    iterations=1,
    l2_locality=0.5,
    has_merge=False,
    lib_init_weight=0.05,
    wall_shares=PhaseShares(lib_init=0.02, map=0.95, reduce=0.03, merge=0.0),
)

Stats = Tuple[float, float, float, float, float, float]


class StatsCombiner(Combiner):
    """Sums (n, Sx, Sy, Sxx, Syy, Sxy) sufficient-statistic tuples."""

    def identity(self) -> Stats:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def add(self, acc: Stats, value: Stats) -> Stats:
        return tuple(a + v for a, v in zip(acc, value))

    def merge(self, acc: Stats, other: Stats) -> Stats:
        return tuple(a + o for a, o in zip(acc, other))


def fit_from_stats(stats: Stats) -> Tuple[float, float]:
    """Closed-form least-squares (slope, intercept) from sufficient stats."""
    n, sx, sy, sxx, _syy, sxy = stats
    if n <= 1:
        raise ValueError(f"need at least 2 samples, have {n}")
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValueError("degenerate sample: all x identical")
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return slope, intercept


class LinearRegressionJob(MapReduceJob):
    """MapReduce job accumulating regression sufficient statistics."""

    name = "linear_regression"

    def __init__(self, samples: np.ndarray, config: JobConfig):
        super().__init__(config)
        self.samples = samples

    def split(self, num_tasks: int) -> List[np.ndarray]:
        return split_evenly(self.samples, num_tasks)

    def map(self, chunk: np.ndarray, emit: Emit) -> float:
        x, y = chunk[:, 0], chunk[:, 1]
        emit(
            0,
            (
                float(len(chunk)),
                float(x.sum()),
                float(y.sum()),
                float((x * x).sum()),
                float((y * y).sum()),
                float((x * y).sum()),
            ),
        )
        return float(len(chunk))

    def combiner(self) -> StatsCombiner:
        return StatsCombiner()

    def make_container(self) -> Container:
        return OneBucketContainer(self.combiner())

    def merge_enabled(self) -> bool:
        return False

    def final_result(self, last_result: Dict[Hashable, Stats]) -> Tuple[float, float]:
        return fit_from_stats(last_result[0])


class LinearRegressionApp(BenchmarkApp):
    """Least-squares fit over synthetic noisy linear samples."""

    profile = PROFILE

    BASE_NUM_SAMPLES = 120_000
    #: 100 MB of (x, y) sample records ~ 6.5e6 samples (16 B each).
    PAPER_EQUIVALENT_SAMPLES = 6.5e6
    TRUE_SLOPE = 2.5
    TRUE_INTERCEPT = -1.0

    def __init__(self, scale: float = 1.0, seed: int = 7):
        super().__init__(scale, seed)
        self.num_samples = max(5_000, int(self.BASE_NUM_SAMPLES * scale))

    @cached_property
    def _samples(self) -> np.ndarray:
        return datasets.linear_samples(
            self.num_samples,
            slope=self.TRUE_SLOPE,
            intercept=self.TRUE_INTERCEPT,
            seed=self.component_seed("samples"),
        )

    def make_job(self) -> LinearRegressionJob:
        config = JobConfig(
            instructions_per_map_unit=25.0,
            instructions_per_reduce_pair=200.0,
            instructions_per_merge_byte=3.0,
            bytes_per_pair=48.0,
            # Highest memory-traffic intensity of the six apps (paper:
            # "LR has the greatest core interaction rate").
            l1_mpki=9.5,
            l2_mpki=0.8,
            lib_init_instructions=PROFILE.lib_init_weight * 5.0e6,
            trace_scale=self.PAPER_EQUIVALENT_SAMPLES / self.num_samples,
            # 100 MB at LR's finer record granularity -> ~288 map tasks (the
            # odd half-task per worker is what splits LR's cores into the
            # two utilization levels behind Table 2's 1.0/0.9 islands).
            tasks_per_worker=4.5,
        )
        return LinearRegressionJob(self._samples, config)

    def verify_result(self, result: Tuple[float, float]) -> None:
        slope, intercept = result
        x, y = self._samples[:, 0], self._samples[:, 1]
        design = np.column_stack([x, np.ones_like(x)])
        expected, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(slope - expected[0]) < 1e-6, (
            f"slope {slope} != reference {expected[0]}"
        )
        assert abs(intercept - expected[1]) < 1e-6, (
            f"intercept {intercept} != reference {expected[1]}"
        )
