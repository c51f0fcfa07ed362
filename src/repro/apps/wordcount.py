"""Word Count: count occurrences of each unique word (paper Sec. 3.1).

Keys are words, values are counts.  The paper's workload is a 100 MB text
("Large"); the Phoenix++ scheduler creates 100 map tasks for it on 64
cores, which is the configuration its Sec. 4.3 task-stealing case study
analyzes -- we reproduce the 100-task decomposition exactly.

Architectural character (paper Sec. 7.3): high key cardinality, heavy
distant-core key/value traffic (low ``l2_locality``), non-homogeneous core
utilization, no V/F reassignment needed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List

from repro.apps import datasets
from repro.apps.base import AppProfile, BenchmarkApp
from repro.apps.calibration import PhaseShares
from repro.mapreduce.containers import Container, HashContainer
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import Emit, JobConfig, MapReduceJob
from repro.mapreduce.splitter import split_evenly

PROFILE = AppProfile(
    name="wordcount",
    label="WC",
    paper_dataset="Large (100 MB)",
    iterations=1,
    l2_locality=0.1,
    has_merge=True,
    lib_init_weight=0.4,
    wall_shares=PhaseShares(lib_init=0.04, map=0.72, reduce=0.16, merge=0.08),
)


class WordCountJob(MapReduceJob):
    """MapReduce job counting word occurrences."""

    name = "wordcount"

    def __init__(self, words: List[str], config: JobConfig):
        super().__init__(config)
        self.words = words

    def split(self, num_tasks: int) -> List[List[str]]:
        return split_evenly(self.words, num_tasks)

    def map(self, chunk: List[str], emit: Emit) -> float:
        work = 0.0
        for word in chunk:
            emit(word, 1)
            # Tokenising/hashing cost grows with word length, so chunk work
            # depends on content, not just element count.
            work += 1.0 + 0.25 * len(word)
        # Chunks dominated by a few hot words run out of a tiny working
        # set (low miss intensity); rare-word-heavy chunks walk cold hash
        # buckets.  This is the content-dependent IPC heterogeneity that
        # makes WC's core utilization non-homogeneous (paper Sec. 4.2).
        unique_ratio = len(set(chunk)) / max(len(chunk), 1)
        miss_weight = 0.25 + 4.0 * unique_ratio
        return work, miss_weight

    def combiner(self) -> SumCombiner:
        return SumCombiner()

    def make_container(self) -> Container:
        return HashContainer(self.combiner())


class WordCountApp(BenchmarkApp):
    """Word Count over a synthetic Zipf-distributed text."""

    profile = PROFILE

    #: Functional token count at scale=1.0; trace_scale re-inflates costs
    #: to the paper's 100 MB (~1.7e7 words) equivalent.
    BASE_NUM_WORDS = 60_000
    PAPER_EQUIVALENT_WORDS = 1.7e7

    def __init__(self, scale: float = 1.0, seed: int = 7):
        super().__init__(scale, seed)
        self.num_words = max(1000, int(self.BASE_NUM_WORDS * scale))

    @cached_property
    def _words(self) -> List[str]:
        return datasets.zipf_text(
            self.num_words,
            vocabulary_size=5000,
            num_segments=40,
            seed=self.component_seed("text"),
        )

    def make_job(self) -> WordCountJob:
        config = JobConfig(
            instructions_per_map_unit=90.0,
            instructions_per_reduce_pair=260.0,
            instructions_per_merge_byte=5.0,
            bytes_per_pair=24.0,
            l1_mpki=7.5,
            l2_mpki=0.75,
            lib_init_instructions=PROFILE.lib_init_weight * 5.0e6,
            trace_scale=self.PAPER_EQUIVALENT_WORDS / self.num_words,
            # Phoenix++ creates 100 map tasks for the 100 MB input on 64
            # cores (paper Sec. 4.3).
            tasks_per_worker=100.0 / 64.0,
        )
        return WordCountJob(self._words, config)

    def verify_result(self, result: Dict[str, float]) -> None:
        reference: Dict[str, int] = {}
        for word in self._words:
            reference[word] = reference.get(word, 0) + 1
        assert len(result) == len(reference), (
            f"word count key mismatch: {len(result)} != {len(reference)}"
        )
        for word, count in reference.items():
            assert result[word] == count, (
                f"count for {word!r}: got {result[word]}, want {count}"
            )
