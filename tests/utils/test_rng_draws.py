"""``RawDraws`` against the ``numpy.random.Generator`` calls it stands in for.

A reader over a PCG64 generator must return what a twin generator's
``integers(n)`` / ``random()`` return in the same order -- rejections
of the Lemire draw and the buffered 32-bit half included -- and leave
the generator in the twin's exact state: the PCG64 state, ``has_uint32``
and the (possibly stale) ``uinteger``, also when the block raises.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mapping.thread_mapping import communication_aware_mapping
from repro.noc.topology import GridGeometry
from repro.utils import rng as rng_module
from repro.utils.rng import RawDraws
from repro.vfi.clustering import ClusteringProblem, solve_simulated_annealing
from repro.vfi.islands import VfiLayout

#: Bounds with no rejection, some, and about one in two (2**31 + 11);
#: 2**32 takes a raw 32-bit half, 1 draws nothing.
BOUNDS = (1, 2, 3, 7, 16, 64, 100, 255, 256, 1000, 2**31 + 11, 2**32 - 1, 2**32)

#: A call sequence: a bound stands for ``below(bound)``, ``None`` for
#: ``uniform()``.
CALLS = st.lists(st.one_of(st.sampled_from(BOUNDS), st.none()), max_size=200)


class _Stop(Exception):
    pass


def _twin_values(twin, calls):
    return [
        twin.random() if bound is None else int(twin.integers(bound))
        for bound in calls
    ]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    half_used=st.booleans(),
    calls=CALLS,
    chunk=st.sampled_from((1, 2, 7, 512)),
    stop=st.one_of(st.none(), st.integers(0, 200)),
)
@example(seed=0, half_used=True, calls=[None] * 3 + [2**32] * 3, chunk=1, stop=None)
@example(seed=1, half_used=False, calls=[2**31 + 11] * 40, chunk=2, stop=17)
def test_reader_matches_the_generator_calls(seed, half_used, calls, chunk, stop):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_used:
        # Leave the high half of a word buffered in both generators.
        rng.integers(5), twin.integers(5)
        assert rng.bit_generator.state["has_uint32"] == 1
    values = []
    # Short reads make short call sequences cross read boundaries.
    with mock.patch.object(rng_module, "_CHUNK_WORDS", chunk):
        try:
            with RawDraws(rng) as draws:
                for index, bound in enumerate(calls):
                    if index == stop:
                        raise _Stop
                    values.append(
                        draws.uniform() if bound is None else draws.below(bound)
                    )
        except _Stop:
            pass
    assert values == _twin_values(twin, calls[: len(values)])
    assert rng.bit_generator.state == twin.bit_generator.state


def test_reader_crosses_many_default_reads():
    rng, twin = np.random.default_rng(2026), np.random.default_rng(2026)
    calls = [BOUNDS[i % len(BOUNDS)] if i % 3 else None for i in range(5000)]
    with RawDraws(rng) as draws:
        values = [
            draws.uniform() if bound is None else draws.below(bound)
            for bound in calls
        ]
    assert values == _twin_values(twin, calls)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_an_unused_reader_leaves_the_generator_alone():
    rng = np.random.default_rng(4)
    rng.integers(9)
    before = rng.bit_generator.state
    with RawDraws(rng):
        pass
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("bound", [0, -1, 2**32 + 1])
def test_bounds_outside_one_to_two_to_the_32_are_refused(bound):
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with RawDraws(rng) as draws:
        with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
            draws.below(bound)
    assert rng.bit_generator.state == before


def _tiny_problem():
    traffic = np.random.default_rng(0).random((8, 8))
    return traffic, ClusteringProblem(traffic, np.linspace(0.1, 1.0, 8), 2)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_other_bit_generators_are_refused(bit_generator):
    name = bit_generator.__name__

    def generator():
        return np.random.Generator(bit_generator(3))

    with pytest.raises(TypeError, match=name) as refused:
        RawDraws(generator())
    assert "\n" not in str(refused.value)
    traffic, problem = _tiny_problem()
    with pytest.raises(TypeError, match=name):
        solve_simulated_annealing(problem, seed=generator())
    layout = VfiLayout(GridGeometry(2, 4), (0, 0, 0, 0, 1, 1, 1, 1))
    with pytest.raises(TypeError, match=name):
        communication_aware_mapping(
            (0, 1) * 4, layout, traffic, seed=generator()
        )
