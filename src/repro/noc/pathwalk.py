"""Vectorized route walks behind every all-pairs NoC table.

The all-pairs tables -- head latency, raw bottleneck and resource usage
(:class:`repro.noc.dense.DenseLatencyModel`), per-pair energy
(:class:`repro.noc.dense.PairwiseEnergy`), flow usage
(:meth:`repro.noc.fabric.Fabric.flow_usage`) and the calibration
channel loads (:func:`repro.noc.calibration.channel_utilizations`) --
all come from one walk over a routing table's predecessor matrix, which
the fabric takes once per routing and replays for every table
(:meth:`repro.noc.fabric.Fabric.walks`).
Sources are taken in blocks: :func:`walk_steps_block` advances every
(src, dst) route of a block one predecessor hop per step, and
:func:`forward_steps` turns that backward walk into each route's hops
in src -> dst order (a :class:`ForwardWalk`).  Per block that is
~diameter numpy steps instead of ``block * n`` Python path walks.

Forward order is what keeps float sums exact: a consumer that adds a
hop's terms per step, in the order a Python loop over
``routing.path(src, dst)`` would, gets that loop's float64 bits.
``NocParams.dense_block_nodes`` picks the block size and float32
storage (:func:`table_layout`); unset, every source walks in one block
and tables store float64.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.noc.topology import LinkKind


def edge_resource_tables(model) -> Tuple[np.ndarray, np.ndarray]:
    """Dense per-edge resource-column lookups for *model*'s topology.

    Returns ``(link_col, chan_col)``, both ``(n, n)`` int32:
    ``link_col[u, v]`` is the directed-link resource column for the hop
    ``u -> v`` (``2 * index + direction``, the layout of
    :meth:`FlowNetworkModel.apply_resource_load`), ``chan_col[u, v]`` the
    shared wireless-channel column for wireless hops; ``-1`` where the
    nodes are not adjacent (or the hop is wired, for ``chan_col``).
    """
    topology = model.topology
    n = topology.num_nodes
    num_links = len(topology.links)
    link_col = np.full((n, n), -1, dtype=np.int32)
    chan_col = np.full((n, n), -1, dtype=np.int32)
    for index, link in enumerate(topology.links):
        link_col[link.a, link.b] = 2 * index
        link_col[link.b, link.a] = 2 * index + 1
        if link.kind is LinkKind.WIRELESS:
            column = 2 * num_links + link.channel
            chan_col[link.a, link.b] = column
            chan_col[link.b, link.a] = column
    return link_col, chan_col


def _describe_cycle(pred_row: np.ndarray, src: int, dst: int, n: int) -> str:
    """Human-readable report of the cycle a predecessor walk fell into.

    Retraces the chain from *dst* toward *src*, recording every node
    until one repeats, and formats the closed cycle plus the hop count at
    which the walk entered it.
    """
    seen = {int(dst): 0}
    path = [int(dst)]
    node = int(dst)
    for _ in range(2 * n + 1):
        node = int(pred_row[node])
        if node < 0:
            return f"chain from {dst} hits unroutable node after {len(path)} hops"
        if node == src:
            return f"chain from {dst} terminates (no cycle found)"
        if node in seen:
            cycle = path[seen[node]:] + [node]
            arrows = " -> ".join(str(c) for c in reversed(cycle))
            return (
                f"route {src} -> {dst} enters the cycle [{arrows}] "
                f"{len(path) - len(cycle) + 1} hop(s) before {dst}"
            )
        seen[node] = len(path)
        path.append(node)
    return f"chain from {dst} exceeds {2 * n} hops without repeating"


def walk_steps_block(
    pred_rows: np.ndarray, srcs: np.ndarray, n: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Walk every (src, dst) route of a whole source block in lockstep.

    ``pred_rows`` holds the predecessor rows of the block's sources
    (``pred[srcs]``, shape ``(len(srcs), n)``).  Yields
    ``(rows, dst, prev, cur)`` per step, flattened over the block:
    ``rows`` indexes into *srcs*, and for each still-walking route the
    step contributes the hop ``prev -> cur`` (forward direction).  Step
    ``k`` carries the ``k``-th hop counted backward from each
    destination -- the same per-route order as the single-source walk
    kept in ``tests/noc/table_oracles.py`` -- and within one step every
    (src, dst) pair appears at most once, so consumers may accumulate
    with plain fancy-indexed ``+=``.

    Validation here is per step; a cycle raises with the offending route
    spelled out.  :func:`forward_steps` runs a block's walk to its end
    before yielding, so the table builders still fail before they
    accumulate anything.
    """
    srcs = np.asarray(srcs)
    block = len(srcs)
    rows = np.repeat(np.arange(block), n)
    dst = np.tile(np.arange(n), block)
    cur = dst.copy()
    keep = cur != srcs[rows]
    rows, dst, cur = rows[keep], dst[keep], cur[keep]
    steps = 0
    while rows.size:
        steps += 1
        if steps > 2 * n:
            row = int(rows[0])
            raise RuntimeError(
                f"predecessor chains do not terminate for {rows.size} "
                f"route(s) in source block {srcs[0]}..{srcs[-1]}: "
                f"{_describe_cycle(pred_rows[row], int(srcs[row]), int(dst[0]), n)}"
            )
        prev = pred_rows[rows, cur]
        if (prev < 0).any():
            bad = prev < 0
            pairs = list(zip(srcs[rows[bad]][:8].tolist(), dst[bad][:8].tolist()))
            raise RuntimeError(
                f"no route for (src, dst) pair(s) {pairs}"
                f"{'...' if bad.sum() > 8 else ''}: predecessor chain "
                f"breaks {steps} hop(s) before the destination"
            )
        yield rows, dst, prev, cur
        keep = prev != srcs[rows]
        rows, dst, cur = rows[keep], dst[keep], prev[keep]


class ForwardWalk:
    """Every route of a source block, hop by hop in src -> dst order,
    replayable.

    ``order`` lists the block's routes -- ``row * n + dst``, ``row``
    indexing the block's sources -- longest first, so the routes still
    walking at any step are a prefix of it.  :meth:`steps` yields
    ``(u, v)`` per step: step ``j`` carries the ``j``-th hop ``u -> v``
    of routes ``order[:len(u)]``.  A consumer keeps one slot per route
    in ``order``'s order, adds step ``j``'s terms to the first
    ``len(u)`` slots, and scatters the slots back through ``order`` at
    the end (:func:`unsort`); zero-hop routes (``src == dst``) fill the
    tail slots and appear in no step.

    The walk stores each step's destination nodes in the narrowest type
    that holds a node id (one byte per hop up to 256 nodes), so every
    per-clock table can replay it instead of walking the routing again.
    """

    def __init__(self, order: np.ndarray, first: np.ndarray, hops):
        self.order = order
        self._first = first
        self._hops = hops

    def steps(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        u = self._first
        for v in self._hops:
            yield u[: len(v)], v
            u = v


def forward_steps(pred_rows: np.ndarray, srcs: np.ndarray, n: int) -> ForwardWalk:
    """The :class:`ForwardWalk` of a source block's routes.

    The block's backward walk (:func:`walk_steps_block`) runs to its end
    before this returns, so a broken predecessor chain raises before a
    consumer has accumulated anything.  The walk keeps one padded
    table: the node each backward step reached; route ``r``'s forward
    hop ``j`` ends at the node its backward walk reached at step
    ``hops[r] - 1 - j``.  Route indices are int32, which holds a
    one-block walk of any die below ~46k nodes.
    """
    srcs = np.asarray(srcs)
    num_routes = len(srcs) * n
    node_type = np.min_scalar_type(n - 1)
    hops = np.zeros(num_routes, dtype=np.int32)
    reached = []
    for step, (rows, dst, _prev, cur) in enumerate(
        walk_steps_block(pred_rows, srcs, n)
    ):
        route = rows * n + dst
        nodes = np.empty(num_routes, dtype=node_type)
        nodes[route] = cur
        reached.append(nodes)
        hops[route] = step + 1
    order = np.argsort(-hops, kind="stable").astype(np.int32)
    walking = num_routes - np.cumsum(np.bincount(hops, minlength=1))
    # An index into the flattened table that moves back one row per
    # forward step.
    reached = np.concatenate(reached) if reached else np.empty(0, node_type)
    last = (hops[order] - 1).astype(np.intp) * num_routes + order
    forward = [
        reached[last[:count] - j * num_routes]
        for j, count in enumerate(walking[:-1])
    ]
    return ForwardWalk(order, srcs[order // n].astype(node_type), forward)


def table_layout(params, n: int) -> Tuple[int, type]:
    """``(block, dtype)`` of the all-pairs tables under *params*.

    ``NocParams.dense_block_nodes`` picks both: unset, all *n* sources
    walk in one block and tables store float64; set, sources walk in
    blocks of that many nodes and tables store float32, which bounds
    peak memory on large dies.
    """
    if params.dense_block_nodes is None:
        return n, np.float64
    return params.dense_block_nodes, np.float32


def unsort(slots: np.ndarray, order: np.ndarray, n: int) -> np.ndarray:
    """Per-route *slots* in walk order, scattered back to ``(rows, n)``."""
    out = np.empty_like(slots)
    out[order] = slots
    return out.reshape(-1, n)


def usage_block(rows, cols, num_routes: int, num_resources: int, dtype):
    """One block's ``(num_routes, num_resources)`` usage csr.

    *rows* and *cols* are lists of per-step entry arrays; duplicate
    (route, column) entries sum, encoding how often a route crosses a
    resource.
    """
    from scipy.sparse import csr_matrix

    if rows:
        rows, cols = np.concatenate(rows), np.concatenate(cols)
    else:
        rows = cols = np.empty(0, dtype=np.int32)
    return csr_matrix(
        (np.ones(len(rows), dtype=dtype), (rows, cols)),
        shape=(num_routes, num_resources),
    )


def stack_usage(parts):
    """The all-pairs usage csr from per-block parts, in source order.

    Stacking per-block csr parts means no full-size coo intermediate
    (whose sort and dedup copies dominate peak memory) ever exists.
    """
    from scipy.sparse import vstack

    return vstack(parts, format="csr")
