"""Histogram: per-intensity pixel counts over an image (paper Table 1:
"Medium (399 MB)").

Phoenix++ implements histogram with a fixed 256-entry array container --
the key space is the 8-bit intensity.  Map work is perfectly uniform per
pixel, which is why the paper finds HIST's core utilization "nearly
homogeneous" apart from the master bottleneck (Sec. 4.2) and why it needs
the V/F reassignment of VFI 2.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List

import numpy as np

from repro.apps import datasets
from repro.apps.base import AppProfile, BenchmarkApp
from repro.apps.calibration import PhaseShares
from repro.mapreduce.containers import ArrayContainer, Container
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import Emit, JobConfig, MapReduceJob
from repro.mapreduce.splitter import split_evenly

PROFILE = AppProfile(
    name="histogram",
    label="HIST",
    paper_dataset="Medium (399 MB)",
    iterations=1,
    l2_locality=0.2,
    has_merge=True,
    lib_init_weight=1.6,
    wall_shares=PhaseShares(lib_init=0.08, map=0.83, reduce=0.07, merge=0.02),
)

NUM_BINS = 256


class HistogramJob(MapReduceJob):
    """MapReduce job building a 256-bin intensity histogram."""

    name = "histogram"

    def __init__(self, pixels: np.ndarray, config: JobConfig):
        super().__init__(config)
        self.pixels = pixels

    def split(self, num_tasks: int) -> List[np.ndarray]:
        return split_evenly(self.pixels, num_tasks)

    def map(self, chunk: np.ndarray, emit: Emit) -> float:
        # Vectorized per-chunk binning; emission per occupied bin with the
        # bin's count keeps the functional engine fast while the *work*
        # charged reflects the true per-pixel cost.
        counts = np.bincount(chunk, minlength=NUM_BINS)
        for bin_index in np.nonzero(counts)[0]:
            emit(int(bin_index), float(counts[bin_index]))
        return float(chunk.size)

    def combiner(self) -> SumCombiner:
        return SumCombiner()

    def make_container(self) -> Container:
        return ArrayContainer(self.combiner(), NUM_BINS)


class HistogramApp(BenchmarkApp):
    """Histogram over a synthetic mixture-of-Gaussians image."""

    profile = PROFILE

    BASE_NUM_PIXELS = 400_000
    #: 399 MB of RGB pixels ~ 4.2e8 byte-channels (paper dataset).
    PAPER_EQUIVALENT_PIXELS = 4.2e8

    def __init__(self, scale: float = 1.0, seed: int = 7):
        super().__init__(scale, seed)
        self.num_pixels = max(10_000, int(self.BASE_NUM_PIXELS * scale))

    @cached_property
    def _pixels(self) -> np.ndarray:
        return datasets.pixel_image(
            self.num_pixels, seed=self.component_seed("image")
        )

    def make_job(self) -> HistogramJob:
        config = JobConfig(
            instructions_per_map_unit=18.0,
            instructions_per_reduce_pair=150.0,
            instructions_per_merge_byte=3.0,
            bytes_per_pair=12.0,
            l1_mpki=4.8,
            l2_mpki=0.5,
            lib_init_instructions=PROFILE.lib_init_weight * 5.0e6,
            trace_scale=self.PAPER_EQUIVALENT_PIXELS / self.num_pixels,
            # 399 MB at Phoenix++ chunk granularity -> ~400 map tasks.
            tasks_per_worker=6.0,
        )
        return HistogramJob(self._pixels, config)

    def verify_result(self, result: Dict[int, float]) -> None:
        reference = np.bincount(self._pixels, minlength=NUM_BINS)
        for bin_index, count in result.items():
            assert count == reference[bin_index], (
                f"bin {bin_index}: got {count}, want {reference[bin_index]}"
            )
        assert sum(result.values()) == self.num_pixels
