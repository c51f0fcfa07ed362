"""Lockstep predecessor walks: validation, ordering, block equivalence.

The all-pairs table builders trust :mod:`repro.noc.pathwalk` for two
contracts: the forward walk visits each route's hops in src -> dst
order (float accumulation bit-equality), and broken predecessor data
fails loudly -- before any step reaches a consumer, with the offending
cycle spelled out.
"""

import numpy as np
import pytest

from repro.noc.pathwalk import forward_steps, walk_steps_block

from tests.noc.table_oracles import walk_steps


def _line_pred_row(src: int, n: int) -> np.ndarray:
    """Predecessor row for a 0-1-2-...-(n-1) line graph rooted at *src*.

    On a line the hop into ``d`` always comes from the neighbor on the
    source side: ``d - 1`` when ``d > src``, ``d + 1`` when ``d < src``.
    """
    pred = np.empty(n, dtype=np.int64)
    for d in range(n):
        if d == src:
            pred[d] = src
        elif d > src:
            pred[d] = d - 1
        else:
            pred[d] = d + 1
    return pred


def _hops_per_route(step_iter, src=None):
    """Collect each route's forward hop list from a walk's steps."""
    hops = {}
    for step in step_iter:
        if src is None:
            rows, dst, prev, cur = step
            for r, d, p, c in zip(rows, dst, prev, cur):
                hops.setdefault((int(r), int(d)), []).append((int(p), int(c)))
        else:
            dst, prev, cur = step
            for d, p, c in zip(dst, prev, cur):
                hops.setdefault((src, int(d)), []).append((int(p), int(c)))
    return hops


class TestWalkSteps:
    def test_visits_every_hop_in_backward_order(self):
        n = 5
        hops = _hops_per_route(walk_steps(_line_pred_row(0, n), 0, n), src=0)
        # Route 0 -> d on a line is d hops; step k carries the k-th hop
        # counted backward from the destination.
        for d in range(1, n):
            assert hops[(0, d)] == [(k - 1, k) for k in range(d, 0, -1)]

    def test_cycle_raises_at_call_not_first_step(self):
        # pred 1 <-> 2: every chain toward src 0 falls into the 2-cycle.
        pred = np.array([0, 2, 1, 2])
        with pytest.raises(RuntimeError, match="do not terminate"):
            walk_steps(pred, 0, 4)  # eager: raises before any step leaks

    def test_cycle_report_names_the_cycle(self):
        pred = np.array([0, 2, 1, 2])
        with pytest.raises(RuntimeError, match=r"cycle \[1 -> 2 -> 1\]"):
            walk_steps(pred, 0, 4)

    def test_cycle_report_counts_hops_into_cycle(self):
        # dst 3 is one hop outside the 1 <-> 2 cycle; once routes 1 and
        # 2 are the report target the hop context is still spelled out.
        pred = np.array([0, 2, 1, 2])
        with pytest.raises(RuntimeError, match=r"hop\(s\) before"):
            walk_steps(pred, 0, 4)

    def test_unroutable_destination_raises_with_route(self):
        pred = _line_pred_row(0, 4)
        pred[2] = -1  # breaks routes to 2 and (transitively) 3
        with pytest.raises(RuntimeError, match=r"no route from 0"):
            walk_steps(pred, 0, 4)

    def test_consumer_never_sees_partial_walk(self):
        # A long valid prefix before the break: eager validation means
        # the consumer's accumulator is never touched.
        n = 6
        pred = _line_pred_row(0, n)
        pred[5] = -1
        acc = np.zeros(n)
        with pytest.raises(RuntimeError):
            for dst, prev, cur in walk_steps(pred, 0, n):
                acc[dst] += 1.0
        assert not acc.any()


class TestWalkStepsBlock:
    def test_matches_per_source_walks(self):
        n = 7
        srcs = np.array([1, 3, 6])
        pred_rows = np.stack([_line_pred_row(int(s), n) for s in srcs])
        block_hops = _hops_per_route(walk_steps_block(pred_rows, srcs, n))
        for row, src in enumerate(srcs):
            scalar = _hops_per_route(
                walk_steps(pred_rows[row], int(src), n), src=int(src)
            )
            for d in range(n):
                if d == src:
                    continue
                assert block_hops[(row, d)] == scalar[(int(src), d)]

    def test_pairs_unique_within_step(self):
        n = 6
        srcs = np.arange(3)
        pred_rows = np.stack([_line_pred_row(int(s), n) for s in srcs])
        for rows, dst, prev, cur in walk_steps_block(pred_rows, srcs, n):
            pairs = list(zip(rows.tolist(), dst.tolist()))
            assert len(pairs) == len(set(pairs))  # fancy += is safe

    def test_cycle_raises_with_route_context(self):
        pred = np.array([0, 2, 1, 2])
        pred_rows = np.stack([pred, _line_pred_row(1, 4)])
        with pytest.raises(RuntimeError, match="do not terminate"):
            for _ in walk_steps_block(pred_rows, np.array([0, 1]), 4):
                pass

    def test_no_route_raises_with_pairs(self):
        pred = _line_pred_row(0, 4)
        pred[3] = -1
        pred_rows = pred[None, :]
        with pytest.raises(RuntimeError, match=r"no route for \(src, dst\)"):
            for _ in walk_steps_block(pred_rows, np.array([0]), 4):
                pass

    def test_empty_block(self):
        pred_rows = np.empty((0, 4), dtype=np.int64)
        assert list(walk_steps_block(pred_rows, np.empty(0, dtype=int), 4)) == []


class TestForwardSteps:
    def test_hops_in_path_order_longest_first(self):
        n = 5
        srcs = np.array([0, 2])
        pred_rows = np.stack([_line_pred_row(int(s), n) for s in srcs])
        walk = forward_steps(pred_rows, srcs, n)
        order = walk.order
        hops = {}
        for u, v in walk.steps():
            for route, a, b in zip(order[: len(u)].tolist(), u.tolist(), v.tolist()):
                hops.setdefault(route, []).append((a, b))
        for row, src in enumerate(srcs.tolist()):
            for d in range(n):
                step = 1 if d > src else -1
                expected = [(k, k + step) for k in range(src, d, step)]
                assert hops.get(row * n + d, []) == expected
        lengths = [len(hops.get(route, [])) for route in order.tolist()]
        assert lengths == sorted(lengths, reverse=True)
        assert sorted(order.tolist()) == list(range(len(srcs) * n))
        # The walk replays: a second pass yields the same hops.
        again = [(u.tolist(), v.tolist()) for u, v in walk.steps()]
        assert again == [(u.tolist(), v.tolist()) for u, v in walk.steps()]

    def test_cycle_raises_at_call_not_first_step(self):
        pred = np.array([0, 2, 1, 2])
        pred_rows = np.stack([_line_pred_row(1, 4), pred])
        with pytest.raises(RuntimeError, match=r"cycle \[1 -> 2 -> 1\]"):
            forward_steps(pred_rows, np.array([1, 0]), 4)
