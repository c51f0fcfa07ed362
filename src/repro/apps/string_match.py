"""String Match: count occurrences of fixed search keys in a text.

Part of the original Phoenix benchmark suite (Yoo et al., IISWC'09); the
DAC'15 paper evaluates six of the Phoenix++ applications, and we include
String Match as a seventh to demonstrate the library is not limited to
the paper's set.  Map scans its text chunk for each of a handful of
search keys and emits per-key hit counts; the key space is tiny, so an
array container with a sum combiner suffices and the Reduce/Merge phases
are featherweight -- architecturally, String Match behaves like a more
compute-bound Histogram.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List

from repro.apps import datasets
from repro.apps.base import AppProfile, BenchmarkApp
from repro.apps.calibration import PhaseShares
from repro.mapreduce.containers import ArrayContainer, Container
from repro.mapreduce.combiners import SumCombiner
from repro.mapreduce.job import Emit, JobConfig, MapReduceJob
from repro.mapreduce.splitter import split_evenly

PROFILE = AppProfile(
    name="string_match",
    label="SM",
    paper_dataset="(beyond paper) Large text, 4 search keys",
    iterations=1,
    l2_locality=0.35,
    has_merge=True,
    lib_init_weight=0.3,
    wall_shares=PhaseShares(lib_init=0.04, map=0.9, reduce=0.05, merge=0.01),
)

#: Fixed search keys, as in the original Phoenix string_match.
SEARCH_KEYS = ("helloworld", "howareyou", "ferrari", "whotheman")


class StringMatchJob(MapReduceJob):
    """MapReduce job counting occurrences of each search key."""

    name = "string_match"

    def __init__(self, words: List[str], config: JobConfig):
        super().__init__(config)
        self.words = words
        self._keys = {key: index for index, key in enumerate(SEARCH_KEYS)}

    def split(self, num_tasks: int) -> List[List[str]]:
        return split_evenly(self.words, num_tasks)

    def map(self, chunk: List[str], emit: Emit) -> float:
        hits = [0] * len(SEARCH_KEYS)
        work = 0.0
        for word in chunk:
            # the scan compares against every key (Phoenix's brute match)
            work += len(SEARCH_KEYS) * (1.0 + 0.1 * len(word))
            index = self._keys.get(word)
            if index is not None:
                hits[index] += 1
        for index, count in enumerate(hits):
            if count:
                emit(index, float(count))
        return work

    def combiner(self) -> SumCombiner:
        return SumCombiner()

    def make_container(self) -> Container:
        return ArrayContainer(self.combiner(), len(SEARCH_KEYS))


class StringMatchApp(BenchmarkApp):
    """String Match over a synthetic text salted with the search keys."""

    profile = PROFILE

    BASE_NUM_WORDS = 60_000
    PAPER_EQUIVALENT_WORDS = 1.7e7
    #: One word in KEY_PERIOD is replaced by a (cycling) search key.
    KEY_PERIOD = 97

    def __init__(self, scale: float = 1.0, seed: int = 7):
        super().__init__(scale, seed)
        self.num_words = max(1000, int(self.BASE_NUM_WORDS * scale))

    @cached_property
    def _words(self) -> List[str]:
        words = datasets.zipf_text(
            self.num_words, vocabulary_size=4000, seed=self.component_seed("text")
        )
        for position in range(0, len(words), self.KEY_PERIOD):
            words[position] = SEARCH_KEYS[
                (position // self.KEY_PERIOD) % len(SEARCH_KEYS)
            ]
        return words

    def make_job(self) -> StringMatchJob:
        config = JobConfig(
            instructions_per_map_unit=30.0,
            instructions_per_reduce_pair=150.0,
            instructions_per_merge_byte=3.0,
            bytes_per_pair=12.0,
            l1_mpki=4.0,
            l2_mpki=0.4,
            lib_init_instructions=PROFILE.lib_init_weight * 5.0e6,
            trace_scale=self.PAPER_EQUIVALENT_WORDS / self.num_words,
            tasks_per_worker=3.0,
        )
        return StringMatchJob(self._words, config)

    def verify_result(self, result: Dict[int, float]) -> None:
        for index, key in enumerate(SEARCH_KEYS):
            expected = self._words.count(key)
            got = result.get(index, 0.0)
            assert got == expected, (
                f"key {key!r}: got {got}, want {expected}"
            )
