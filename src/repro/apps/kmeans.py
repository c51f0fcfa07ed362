"""Kmeans: iterative clustering of high-dimensional vectors.

Paper Table 1: "Vectors with dimension of 512"; paper Sec. 4.2: Kmeans runs
*two* MapReduce iterations on the studied dataset and shows highly
non-homogeneous core utilization because "fewer cores are expected to be
more active in the second MapReduce stage as the data partitioned in
various groups start to achieve convergence".

The mechanism is reproduced faithfully:

* points are generated contiguously by cluster with unequal cluster sizes
  and per-cluster spreads, so map chunks are cluster-correlated;
* the second iteration applies distance-bound pruning (Elkan-style): a
  point whose assigned centroid barely moved costs a fraction of the full
  K x dim distance computation;
* clusters converge at different rates, so second-iteration map work
  varies strongly across chunks -- and therefore across cores.
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

PROFILE = AppProfile(
    name="kmeans",
    label="Kmeans",
    paper_dataset="Vectors with dimension of 512",
    iterations=2,
    l2_locality=0.1,
    has_merge=True,
    lib_init_weight=0.5,
    wall_shares=PhaseShares(lib_init=0.07, map=0.82, reduce=0.08, merge=0.03),
)

#: Relative cost of a pruned (converged-cluster) point in iteration 2.
PRUNED_WORK_FRACTION = 0.02
#: Iteration-2 cost multiplier for points of unconverged clusters:
#: boundary points thrash between moving centroids, forcing full distance
#: sweeps plus reassignment work.
UNCONVERGED_WORK_FACTOR = 2.5
#: Miss-intensity weights: unconverged clusters sweep all centroids with
#: poor cache reuse; converged clusters run out of the pruning cache.
UNCONVERGED_MISS_WEIGHT = 1.6
CONVERGED_MISS_WEIGHT = 0.35
#: Centroid movement below this threshold marks a cluster as converged
#: (relative to the unit-scale synthetic point cloud).
CONVERGENCE_TOL = 0.25


class CentroidCombiner(Combiner):
    """Accumulates (vector_sum, count) pairs for centroid computation."""

    def identity(self) -> Tuple[float, int]:
        return (0.0, 0)

    def add(self, acc, value):
        return (acc[0] + value[0], acc[1] + value[1])

    def merge(self, acc, other):
        return (acc[0] + other[0], acc[1] + other[1])

    def finalize(self, acc):
        vector_sum, count = acc
        if count == 0:
            raise ValueError("empty centroid accumulator")
        return tuple(np.asarray(vector_sum, dtype=float) / count)


class KmeansJob(MapReduceJob):
    """Two-iteration k-means as a MapReduce job.

    Each map task assigns its points to the nearest current centroid and
    emits per-cluster partial sums; Reduce averages them into the new
    centroids; ``end_iteration`` installs the new centroids and records
    which clusters converged (driving the iteration-2 pruning).
    """

    name = "kmeans"

    def __init__(
        self,
        points: np.ndarray,
        num_clusters: int,
        initial_centroids: np.ndarray,
        config: JobConfig,
    ):
        super().__init__(config)
        self.points = points
        self.num_clusters = num_clusters
        self.centroids = np.array(initial_centroids, dtype=float)
        if self.centroids.shape != (num_clusters, points.shape[1]):
            raise ValueError(
                f"initial centroids shape {self.centroids.shape} does not "
                f"match ({num_clusters}, {points.shape[1]})"
            )
        self.cluster_converged = np.zeros(num_clusters, dtype=bool)
        self.centroid_history: List[np.ndarray] = [self.centroids.copy()]
        self._iteration = 0

    def max_iterations(self) -> int:
        return 2

    def begin_iteration(self, iteration: int) -> bool:
        self._iteration = iteration
        return True

    def split(self, num_tasks: int) -> List[np.ndarray]:
        from repro.mapreduce.splitter import split_evenly

        return split_evenly(self.points, num_tasks)

    def map(self, chunk: np.ndarray, emit: Emit) -> float:
        distances = np.linalg.norm(
            chunk[:, None, :] - self.centroids[None, :, :], axis=2
        )
        assignment = np.argmin(distances, axis=1)
        dimension = chunk.shape[1]
        full_cost = float(self.num_clusters * dimension) / 8.0
        work = 0.0
        converged_points = 0
        for cluster in np.unique(assignment):
            members = chunk[assignment == cluster]
            emit(int(cluster), (members.sum(axis=0), len(members)))
            if self._iteration > 0 and self.cluster_converged[cluster]:
                work += len(members) * full_cost * PRUNED_WORK_FRACTION
                converged_points += len(members)
            elif self._iteration > 0:
                work += len(members) * full_cost * UNCONVERGED_WORK_FACTOR
            else:
                work += len(members) * full_cost
        # Unconverged clusters walk the full centroid set with poor reuse
        # (high miss intensity); converged ones hit the pruning cache.
        converged_share = converged_points / len(chunk)
        miss_weight = CONVERGED_MISS_WEIGHT * converged_share + (
            UNCONVERGED_MISS_WEIGHT * (1.0 - converged_share)
        )
        if self._iteration == 0:
            miss_weight = 1.0
        return work, miss_weight

    def combiner(self) -> CentroidCombiner:
        return CentroidCombiner()

    def make_container(self) -> Container:
        return HashContainer(self.combiner())

    def end_iteration(self, iteration: int, result: Dict[Hashable, tuple]) -> None:
        new_centroids = self.centroids.copy()
        for cluster, centroid in result.items():
            new_centroids[cluster] = np.asarray(centroid, dtype=float)
        movement = np.linalg.norm(new_centroids - self.centroids, axis=1)
        self.cluster_converged = movement < CONVERGENCE_TOL
        self.centroids = new_centroids
        self.centroid_history.append(new_centroids.copy())

    def final_result(self, last_result: Dict[Hashable, tuple]) -> np.ndarray:
        return self.centroids


class KmeansApp(BenchmarkApp):
    """K-means over contiguously clustered synthetic vectors."""

    profile = PROFILE

    BASE_NUM_POINTS = 4096
    BASE_DIMENSION = 32
    NUM_CLUSTERS = 16
    #: Paper-equivalent volume: dimension-512 vectors, ~64k of them.
    PAPER_EQUIVALENT_UNITS = 65536 * 512

    def __init__(self, scale: float = 1.0, seed: int = 7):
        super().__init__(scale, seed)
        self.num_points = max(512, int(self.BASE_NUM_POINTS * scale))
        self.dimension = self.BASE_DIMENSION

    @cached_property
    def _dataset(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(points, true labels, initial centroids)``, built together
        on first use."""
        points, labels = datasets.clustered_points(
            self.num_points,
            self.dimension,
            self.NUM_CLUSTERS,
            seed=self.component_seed("points"),
        )
        # Vary per-cluster tightness so convergence rates differ (this is
        # what makes iteration-2 work non-homogeneous; see module docstring).
        rng = np.random.default_rng(self.component_seed("spread"))
        for cluster in range(self.NUM_CLUSTERS):
            mask = labels == cluster
            center = points[mask].mean(axis=0)
            factor = rng.uniform(0.3, 4.0)
            points[mask] = center + (points[mask] - center) * factor
        return points, labels, self._choose_initial_centroids(points, labels)

    def _choose_initial_centroids(
        self, points: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """k-means++-style seeding: one sample point per true cluster.

        Good seeding makes most clusters converge after one Lloyd step --
        the paper's premise that "the data partitioned in various groups
        start to achieve convergence" in the second iteration, leaving
        only the loose/overlapping clusters active.
        """
        rng = np.random.default_rng(self.component_seed("init"))
        centroids = np.empty((self.NUM_CLUSTERS, self.dimension))
        for cluster in range(self.NUM_CLUSTERS):
            members = np.nonzero(labels == cluster)[0]
            sample_size = max(5, len(members) // 4)
            sample = rng.choice(members, size=min(sample_size, len(members)), replace=False)
            centroids[cluster] = points[sample].mean(axis=0)
        return centroids + rng.normal(
            0.0, 1e-3, size=(self.NUM_CLUSTERS, self.dimension)
        )

    def make_job(self) -> KmeansJob:
        config = JobConfig(
            instructions_per_map_unit=110.0,
            instructions_per_reduce_pair=900.0,
            instructions_per_merge_byte=2.0,
            bytes_per_pair=float(self.dimension * 8 + 16),
            l1_mpki=10.0,
            l2_mpki=0.9,
            lib_init_instructions=PROFILE.lib_init_weight * 5.0e6,
            trace_scale=self.PAPER_EQUIVALENT_UNITS
            / float(self.num_points * self.dimension),
            tasks_per_worker=3.0,
        )
        points, _, centroids = self._dataset
        return KmeansJob(points, self.NUM_CLUSTERS, centroids, config)

    def verify_result(self, result: np.ndarray) -> None:
        expected = self._reference_centroids()
        assert result.shape == expected.shape, (
            f"centroid shape {result.shape} != {expected.shape}"
        )
        assert np.allclose(
            np.sort(result, axis=0), np.sort(expected, axis=0), atol=1e-8
        ), "k-means centroids diverge from the reference implementation"

    def _reference_centroids(self) -> np.ndarray:
        """Plain-numpy two-iteration Lloyd reference."""
        points, _, centroids = self._dataset
        centroids = centroids.copy()
        for _ in range(2):
            distances = np.linalg.norm(
                points[:, None, :] - centroids[None, :, :], axis=2
            )
            assignment = np.argmin(distances, axis=1)
            new_centroids = centroids.copy()
            for cluster in range(self.NUM_CLUSTERS):
                members = points[assignment == cluster]
                if len(members):
                    new_centroids[cluster] = members.mean(axis=0)
            centroids = new_centroids
        return centroids
