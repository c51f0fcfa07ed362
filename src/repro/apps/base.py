"""Base classes for benchmark applications.

A :class:`BenchmarkApp` bundles a synthetic dataset, the MapReduce job that
processes it, and an :class:`AppProfile` carrying the per-application
architectural characteristics that the paper relies on (Secs. 4.2 and 7.3):
traffic locality, iteration count, merge behaviour, library-init weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.apps.calibration import PhaseShares, rebalance_trace
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import run_job
from repro.mapreduce.scheduler import StealingPolicy
from repro.mapreduce.trace import JobTrace
from repro.utils.rng import spawn_seed
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class AppProfile:
    """Architectural character of an application.

    Attributes
    ----------
    name:
        Canonical short name (``wordcount``, ``histogram``, ``kmeans``,
        ``linear_regression``, ``matrix_multiply``, ``pca``).
    label:
        Paper label (WC, HIST, Kmeans, LR, MM, PCA).
    paper_dataset:
        The paper's Table 1 dataset description.
    iterations:
        MapReduce iterations (2 for Kmeans and PCA, else 1).
    l2_locality:
        Fraction of L2 accesses served by the local / nearby bank rather
        than the address-interleaved uniform S-NUCA distribution.  LR is
        the most local ("exchanges large data units with nearer cores");
        WC and Kmeans are the least (distant-core key traffic).
    has_merge:
        Whether the app has a Merge phase (LR does not).
    lib_init_weight:
        Relative weight of the serial library-init period (PCA/HIST/MM
        "have notable library initialization periods"; LR has "very
        little").
    wall_shares:
        Target idealized wall-time split between phases on the baseline
        NVFI system, used by :func:`repro.apps.calibration.rebalance_trace`
        to undo the phase distortion of functional scale-down (Fig. 7
        profile shapes).
    """

    name: str
    label: str
    paper_dataset: str
    iterations: int
    l2_locality: float
    has_merge: bool
    lib_init_weight: float
    wall_shares: PhaseShares

    def __post_init__(self) -> None:
        check_positive("iterations", self.iterations)
        check_in_range("l2_locality", self.l2_locality, 0.0, 1.0)
        check_positive("lib_init_weight", self.lib_init_weight, allow_zero=True)


class BenchmarkApp:
    """One benchmark application: dataset + job factory + profile.

    Construction only records the recipe: each app builds its dataset
    on first use (``make_job`` / ``verify_result``), from seeds derived
    per component, so an app rebuilt from a stored study to read its
    profile never generates data it does not need.

    Parameters
    ----------
    scale:
        Functional dataset scale in (0, 1]; 1.0 is the library default
        size (already reduced from the paper's multi-hundred-MB inputs --
        the job's ``trace_scale`` re-inflates the recorded costs so that
        normalized results are unchanged; see DESIGN.md).
    seed:
        Top-level seed; per-component streams are derived from it.
    """

    profile: AppProfile

    def __init__(self, scale: float = 1.0, seed: int = 7):
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale!r}")
        self.scale = scale
        self.seed = int(seed)

    # ------------------------------------------------------------------ #

    def make_job(self) -> MapReduceJob:
        """Build a fresh job instance over the app's dataset."""
        raise NotImplementedError

    def verify_result(self, result: Any) -> None:
        """Check functional correctness; raise ``AssertionError`` if wrong."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def run(
        self,
        num_workers: int = 64,
        policy: Optional[StealingPolicy] = None,
        calibrate: bool = True,
    ) -> JobTrace:
        """Run the app functionally, verify the answer, return the trace.

        With ``calibrate`` (default) the trace is phase-share rebalanced to
        the application's paper profile; see
        :mod:`repro.apps.calibration`.
        """
        job = self.make_job()
        result, trace = run_job(job, num_workers, policy=policy)
        self.verify_result(result)
        if calibrate:
            trace = rebalance_trace(trace, self.profile.wall_shares)
        return trace

    def component_seed(self, *labels: str) -> int:
        """Deterministic child seed for a named component of this app."""
        return spawn_seed(self.seed, self.profile.name, *labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(scale={self.scale}, seed={self.seed})"
