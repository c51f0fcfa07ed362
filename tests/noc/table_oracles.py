"""Reference builders for the all-pairs NoC tables.

These are the builders the simulator used before every table came from
one forward route walk (:mod:`repro.noc.pathwalk`): a per-pair Python
loop over the per-packet path walk (``PathModel._path`` of
``tests/noc/path_oracle.py``) producing float64 tables, and a blocked
lockstep builder producing float32 tables for dies with
``NocParams.dense_block_nodes`` set, plus the ``add_flow`` loop the
wireless-routing calibration used for its channel loads.  After them
came the one-walk builders (:func:`one_walk_dense_static`,
:func:`one_walk_pairwise`, :func:`one_walk_flow_usage`), which walked a
network's routing afresh for every table set, clocks and clock-free
terms together, before the fabric (:mod:`repro.noc.fabric`) split them.
All are kept verbatim as oracles: ``tests/noc/test_table_oracles.py``
asserts the simulator's fabric-derived tables equal theirs bit for bit.
The single-source lockstep walk the blocked walk generalizes
(:func:`walk_steps`) is kept here too, for ``tests/noc/test_pathwalk.py``.

The load-dependent matrices a refresh used to build in full -- the
per-link utilization loop, the zero-payload latency matrix and the
effective-capacity matrix (:func:`zero_payload_latency`,
:func:`bottleneck_matrix`) -- are kept as references for the pieces
that replaced them and for ``tests/sim/kv_oracle.py``.  So are the
per-call forms the per-phase views replaced: flow registration over a
fresh copy of the pairs' usage rows (:func:`add_flows_rows`), the path
capacity gather located anew per call (:func:`path_capacity_rows`), the
serialization matrix recomputed per refresh (:func:`latency_uncached`)
and the calibration's channel loads from a throwaway network's usage
csr (:func:`usage_channel_utilizations`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np
from scipy.sparse import csr_matrix, vstack

from repro.noc.network import FlowNetworkModel, NocParams
from repro.noc.pathwalk import (
    _describe_cycle,
    edge_resource_tables,
    forward_steps,
    stack_usage,
    table_layout,
    unsort,
    usage_block,
    walk_steps_block,
)
from repro.noc.topology import LinkKind

from tests.noc.path_oracle import PathModel


def _resource_constants(model: FlowNetworkModel):
    """Per-resource service time, raw capacity and buffer bound."""
    links = model.topology.links
    num_links = len(links)
    num_channels = max(model.wireless.num_channels, 1)
    num_resources = 2 * num_links + num_channels
    service = np.zeros(num_resources)
    capacity = np.zeros(num_resources)
    buffer_flits = np.zeros(num_resources)
    node_freq = model._node_freq
    params = model.params
    for index, link in enumerate(links):
        if link.kind is LinkKind.WIRELESS:
            continue  # wireless hops bill against their channel
        f_link = min(node_freq[link.a], node_freq[link.b])
        cap = params.flit_bits * f_link / params.link_traversal_cycles
        for direction in (0, 1):
            resource = 2 * index + direction
            service[resource] = params.link_traversal_cycles / f_link
            capacity[resource] = cap
            buffer_flits[resource] = params.wire_buffer_flits
    for channel in range(num_channels):
        resource = 2 * num_links + channel
        service[resource] = params.flit_bits / model.wireless.bandwidth_bps
        capacity[resource] = model.wireless.bandwidth_bps
        buffer_flits[resource] = params.wi_buffer_flits
    return num_resources, service, capacity, buffer_flits


# ---------------------------------------------------------------------- #
# DenseLatencyModel static tables
# ---------------------------------------------------------------------- #


def dense_static(model: FlowNetworkModel, bulk: bool) -> Dict:
    """The pre-walk dispatch: per-pair float64 unless blocking is set."""
    if model.params.dense_block_nodes is not None:
        return blocked_dense_static(model, bulk, model.params.dense_block_nodes)
    return per_pair_dense_static(model, bulk)


def per_pair_dense_static(model: FlowNetworkModel, bulk: bool) -> Dict:
    n = model.topology.num_nodes
    num_links = len(model.topology.links)
    num_resources, service, capacity, buffer_flits = _resource_constants(model)
    node_freq = model._node_freq
    params = model.params
    paths = PathModel(model)

    # Static head latency and path resource membership per pair.
    head = np.zeros((n, n))
    rows: List[int] = []
    cols: List[int] = []
    resources_per_pair: List[np.ndarray] = []
    for src in range(n):
        for dst in range(n):
            pair = src * n + dst
            if src == dst:
                head[src, dst] = params.router_pipeline_cycles / node_freq[src]
                resources_per_pair.append(np.empty(0, dtype=np.int64))
                continue
            pair_resources: List[int] = []
            t = 0.0
            node = src
            path_links, directions = paths._path(src, dst, bulk=bulk)
            for link, direction in zip(path_links, directions):
                peer = link.other(node)
                t += params.router_pipeline_cycles / node_freq[node]
                index = paths._link_index[link.key]
                if link.kind is LinkKind.WIRELESS:
                    t += (
                        model.wireless.propagation_s
                        + model.wireless.token_overhead_s
                    )
                    resource = 2 * num_links + link.channel
                else:
                    f_link = min(node_freq[node], node_freq[peer])
                    t += params.link_traversal_cycles / f_link
                    resource = 2 * index + direction
                pair_resources.append(resource)
                if model.clusters[node] != model.clusters[peer]:
                    t += params.domain_sync_cycles / min(
                        node_freq[node], node_freq[peer]
                    )
                node = peer
            t += params.router_pipeline_cycles / node_freq[dst]
            head[src, dst] = t
            unique = np.array(sorted(set(pair_resources)), dtype=np.int64)
            resources_per_pair.append(unique)
            rows.extend([pair] * len(pair_resources))
            cols.extend(pair_resources)
    usage = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(n * n, num_resources),
    )
    # Deduplicated membership (a pair that crosses one channel twice
    # still meets it once for min/max reductions).
    binary_rows = np.concatenate(
        [np.full(len(r), pair, dtype=np.int64)
         for pair, r in enumerate(resources_per_pair)]
        or [np.empty(0, dtype=np.int64)]
    )
    binary_cols = np.concatenate(resources_per_pair or [np.empty(0, dtype=np.int64)])
    binary_usage = csr_matrix(
        (np.ones(len(binary_rows)), (binary_rows, binary_cols)),
        shape=(n * n, num_resources),
    )
    # Raw per-pair line rate (load independent): min capacity on path.
    raw_bottleneck = np.full(n * n, np.inf)
    for pair, resources in enumerate(resources_per_pair):
        if len(resources):
            raw_bottleneck[pair] = capacity[resources].min()
    return {
        "node_freq": node_freq.copy(),
        "num_resources": num_resources,
        "service": service,
        "capacity": capacity,
        "buffer_flits": buffer_flits,
        "head": head,
        "usage": usage,
        "binary_usage": binary_usage,
        "raw_bottleneck": raw_bottleneck.reshape(n, n),
    }


def assemble_blocked_csr(block_entries, n: int, block: int, num_resources: int):
    """Per-block float32 csr parts from ``block_entries``, stacked."""
    parts = []
    for start in range(0, n, block):
        end = min(start + block, n)
        rows, cols = block_entries(start, end)
        parts.append(
            csr_matrix(
                (
                    np.ones(len(rows), dtype=np.float32),
                    (rows - np.int32(start * n), cols),
                ),
                shape=((end - start) * n, num_resources),
            )
        )
    if not parts:
        return csr_matrix((n * n, num_resources), dtype=np.float32)
    return vstack(parts, format="csr")


def blocked_dense_static(model: FlowNetworkModel, bulk: bool, block: int) -> Dict:
    n = model.topology.num_nodes
    links = model.topology.links
    num_resources, service, capacity, buffer_flits = _resource_constants(model)
    node_freq = model._node_freq
    params = model.params

    # Dense per-edge tables: head-latency contribution, billed resource
    # column and raw capacity of each adjacent hop u -> v.
    link_col, chan_col = edge_resource_tables(model)
    billed_col = np.where(chan_col >= 0, chan_col, link_col)
    pipeline_s = params.router_pipeline_cycles / node_freq
    hop_head = np.zeros((n, n))
    hop_cap = np.zeros((n, n))
    clusters = np.asarray(model.clusters)
    for link in links:
        for u, v in ((link.a, link.b), (link.b, link.a)):
            t = pipeline_s[u]
            if link.kind is LinkKind.WIRELESS:
                t += (
                    model.wireless.propagation_s
                    + model.wireless.token_overhead_s
                )
                cap = model.wireless.bandwidth_bps
            else:
                f_link = min(node_freq[u], node_freq[v])
                t += params.link_traversal_cycles / f_link
                cap = params.flit_bits * f_link / params.link_traversal_cycles
            if clusters[u] != clusters[v]:
                t += params.domain_sync_cycles / min(
                    node_freq[u], node_freq[v]
                )
            hop_head[u, v] = t
            hop_cap[u, v] = cap

    routing = model.bulk_routing if bulk else model.routing
    pred = routing.predecessor_matrix()
    head = np.zeros((n, n), dtype=np.float32)
    raw_bottleneck = np.full((n, n), np.inf, dtype=np.float32)

    def block_entries(start, end):
        srcs = np.arange(start, end)
        base = (srcs * n).astype(np.int32)
        acc_head = np.zeros((end - start, n))
        acc_cap = np.full((end - start, n), np.inf)
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        for rows, dst, prev, cur in walk_steps_block(
            pred[start:end], srcs, n
        ):
            acc_head[rows, dst] += hop_head[prev, cur]
            acc_cap[rows, dst] = np.minimum(
                acc_cap[rows, dst], hop_cap[prev, cur]
            )
            rows_parts.append(base[rows] + dst.astype(np.int32))
            cols_parts.append(billed_col[prev, cur])
        acc_head += pipeline_s
        head[start:end] = acc_head
        raw_bottleneck[start:end] = acc_cap
        if not rows_parts:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        return np.concatenate(rows_parts), np.concatenate(cols_parts)

    usage = assemble_blocked_csr(block_entries, n, block, num_resources)
    binary_usage = csr_matrix(
        (np.ones_like(usage.data), usage.indices, usage.indptr),
        shape=usage.shape,
    )
    return {
        "node_freq": node_freq.copy(),
        "num_resources": num_resources,
        "service": service,
        "capacity": capacity,
        "buffer_flits": buffer_flits,
        "head": head,
        "usage": usage,
        "binary_usage": binary_usage,
        "raw_bottleneck": raw_bottleneck,
    }


# ---------------------------------------------------------------------- #
# one-walk builders (a fresh walk of the routing per table set)
# ---------------------------------------------------------------------- #


def route_blocks(model, bulk: bool = False):
    """``(start, end, order, steps)`` per source block of *model*'s routes."""
    n = model.topology.num_nodes
    routing = model.bulk_routing if bulk else model.routing
    pred = routing.predecessor_matrix()
    block, _ = table_layout(model.params, n)
    for start in range(0, n, block):
        end = min(start + block, n)
        walk = forward_steps(pred[start:end], np.arange(start, end), n)
        yield start, end, walk.order, walk.steps()


def one_walk_dense_static(model: FlowNetworkModel, bulk: bool) -> Dict:
    n = model.topology.num_nodes
    links = model.topology.links
    num_links = len(links)
    num_channels = max(model.wireless.num_channels, 1)
    num_resources = 2 * num_links + num_channels
    _, dtype = table_layout(model.params, n)

    # Per-resource service time, raw capacity and buffer bound.
    service = np.zeros(num_resources)
    capacity = np.zeros(num_resources)
    buffer_flits = np.zeros(num_resources)
    node_freq = model._node_freq
    params = model.params
    for index, link in enumerate(links):
        if link.kind is LinkKind.WIRELESS:
            continue  # wireless hops bill against their channel
        f_link = min(node_freq[link.a], node_freq[link.b])
        cap = params.flit_bits * f_link / params.link_traversal_cycles
        for direction in (0, 1):
            resource = 2 * index + direction
            service[resource] = params.link_traversal_cycles / f_link
            capacity[resource] = cap
            buffer_flits[resource] = params.wire_buffer_flits
    for channel in range(num_channels):
        resource = 2 * num_links + channel
        service[resource] = params.flit_bits / model.wireless.bandwidth_bps
        capacity[resource] = model.wireless.bandwidth_bps
        buffer_flits[resource] = params.wi_buffer_flits

    # Per-hop terms over adjacent nodes u -> v: the billed resource
    # column (whose ``capacity`` is the hop's raw line rate), the
    # link term (wireless propagation + token, or wire traversal at
    # the slower clock) and the island-crossing synchronizer (0
    # inside an island).
    link_col, chan_col = edge_resource_tables(model)
    wireless = chan_col >= 0
    billed_col = np.where(wireless, chan_col, link_col)
    f_hop = np.minimum.outer(node_freq, node_freq)
    link_s = np.where(
        wireless,
        model.wireless.propagation_s + model.wireless.token_overhead_s,
        params.link_traversal_cycles / f_hop,
    )
    clusters = np.asarray(model.clusters)
    sync_s = np.where(
        clusters[:, None] != clusters[None, :],
        params.domain_sync_cycles / f_hop,
        0.0,
    )
    pipeline_s = params.router_pipeline_cycles / node_freq

    head = np.empty((n, n), dtype=dtype)
    raw_bottleneck = np.empty((n, n), dtype=dtype)
    parts = []
    for start, end, order, steps in route_blocks(model, bulk):
        # One slot per route in walk order.  Each hop adds its router
        # pipeline, link and synchronizer terms in path order, so the
        # float64 sums are exactly those of a per-path loop.
        t = np.zeros(len(order))
        line_rate = np.full(len(order), np.inf)
        rows, cols = [], []
        for u, v in steps:
            walking = slice(len(u))
            billed = billed_col[u, v]
            t[walking] += pipeline_s[u]
            t[walking] += link_s[u, v]
            t[walking] += sync_s[u, v]
            np.minimum(line_rate[walking], capacity[billed], out=line_rate[walking])
            rows.append(order[walking])
            cols.append(billed)
        # Ejection pipeline at the destination; a zero-hop route is
        # just the local port traversal.
        head[start:end] = unsort(t, order, n) + pipeline_s
        raw_bottleneck[start:end] = unsort(line_rate, order, n)
        parts.append(usage_block(rows, cols, len(order), num_resources, dtype))
    usage = stack_usage(parts)
    # Deduplicated membership (a pair that crosses one channel twice
    # still meets it once for min/max reductions): the csr already
    # summed duplicates, so its structure with unit data is exactly
    # that; share indices/indptr with ``usage`` instead of copying.
    binary_usage = csr_matrix(
        (np.ones_like(usage.data), usage.indices, usage.indptr),
        shape=usage.shape,
    )
    return {
        "node_freq": node_freq.copy(),
        "num_resources": num_resources,
        "service": service,
        "capacity": capacity,
        "buffer_flits": buffer_flits,
        "head": head,
        "usage": usage,
        "binary_usage": binary_usage,
        "raw_bottleneck": raw_bottleneck,
    }


def one_walk_pairwise(model: FlowNetworkModel, bulk: bool):
    n = model.topology.num_nodes
    params = model.energy.params
    _, dtype = table_layout(model.params, n)
    # Per-hop energy beyond the hop's router, and wireless hops.
    hop_pj = np.zeros((n, n))
    hop_wireless = np.zeros((n, n))
    for link in model.topology.links:
        if link.kind is LinkKind.WIRELESS:
            pj, wireless = params.wireless_pj_per_bit, 1.0
        else:
            pj = params.wire_pj_per_bit_per_mm * link.length_mm
            wireless = 0.0
        hop_pj[link.a, link.b] = hop_pj[link.b, link.a] = pj
        hop_wireless[link.a, link.b] = hop_wireless[link.b, link.a] = wireless
    energy_per_bit = np.empty((n, n), dtype=dtype)  # joules per bit
    hops = np.empty((n, n), dtype=dtype)
    wireless_links = np.empty((n, n), dtype=dtype)  # wireless hops on path
    for start, end, order, steps in route_blocks(model, bulk):
        pj_per_bit = np.full(len(order), params.router_pj_per_bit)  # ejection
        route_hops = np.zeros(len(order))
        route_wireless = np.zeros(len(order))
        for u, v in steps:
            walking = slice(len(u))
            pj_per_bit[walking] += params.router_pj_per_bit
            pj_per_bit[walking] += hop_pj[u, v]
            route_hops[walking] += 1.0
            route_wireless[walking] += hop_wireless[u, v]
        pj_per_bit[route_hops == 0] = 0.0  # src == dst moves nothing
        energy_per_bit[start:end] = unsort(pj_per_bit * 1e-12, order, n)
        hops[start:end] = unsort(route_hops, order, n)
        wireless_links[start:end] = unsort(route_wireless, order, n)
    return energy_per_bit, hops, wireless_links


def one_walk_flow_usage(model: FlowNetworkModel, bulk: bool):
    n = model.topology.num_nodes
    num_resources = 2 * len(model.topology.links) + model.load.channel_load.shape[0]
    _, dtype = table_layout(model.params, n)
    link_col, chan_col = edge_resource_tables(model)
    parts = []
    for _, _, order, steps in route_blocks(model, bulk):
        rows, cols = [], []
        for u, v in steps:
            route = order[: len(u)]
            rows.append(route)
            cols.append(link_col[u, v])
            channel = chan_col[u, v]
            on_channel = channel >= 0
            rows.append(route[on_channel])
            cols.append(channel[on_channel])
        parts.append(usage_block(rows, cols, len(order), num_resources, dtype))
    return stack_usage(parts)


# ---------------------------------------------------------------------- #
# DenseLatencyModel load-dependent matrices
# ---------------------------------------------------------------------- #


def utilization(dense) -> np.ndarray:
    """Per-resource utilization, one link at a time."""
    model = dense.model
    load = np.zeros(dense.num_resources)
    link_load = model.load.link_load
    for index, link in enumerate(model.topology.links):
        if link.kind is LinkKind.WIRELESS:
            continue
        load[2 * index] = link_load[index, 0]
        load[2 * index + 1] = link_load[index, 1]
    channels = model.load.channel_load
    num_links = len(model.topology.links)
    load[2 * num_links : 2 * num_links + len(channels)] = channels
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(dense._capacity > 0, load / dense._capacity, 0.0)
    return np.minimum(rho, model.params.max_utilization)


def zero_payload_latency(dense) -> np.ndarray:
    """All-pairs latency of a zero-bit packet under the current load:
    the full-matrix evaluation a refresh kept as the bulk base latency."""
    n = dense.num_nodes
    rho = utilization(dense)
    queue_per_resource = np.minimum(
        dense._service * rho / (2.0 * (1.0 - rho)),
        np.maximum(dense._buffer_flits - 1, 0) * dense._service,
    )
    queue = np.asarray(dense._usage @ queue_per_resource).reshape(n, n)
    bottleneck = dense._raw_bottleneck
    head = dense._head + queue
    return head + np.where(np.isinf(bottleneck), 0.0, 0.0 / bottleneck)


def bottleneck_matrix(dense) -> np.ndarray:
    """Effective per-pair path capacity (bits/s) under the current load,
    for every pair: a segmented max of inverse capacities over every
    row of the deduplicated usage csr."""
    rho = utilization(dense)
    effective = dense._capacity * (1.0 - rho)
    inverse = np.zeros(dense.num_resources)
    used = effective > 0
    inverse[used] = 1.0 / effective[used]
    usage = dense._binary_usage
    worst = np.zeros(usage.shape[0])
    if len(usage.indices):
        data = inverse[usage.indices]
        indptr = usage.indptr
        starts = np.minimum(indptr[:-1], len(data) - 1)
        worst = np.maximum.reduceat(data, starts)
        worst[indptr[:-1] == indptr[1:]] = 0.0
    n = dense.num_nodes
    bottleneck = np.full(n * n, np.inf)
    nonzero = worst > 0
    bottleneck[nonzero] = 1.0 / worst[nonzero]
    return bottleneck.reshape(n, n)


# ---------------------------------------------------------------------- #
# PairwiseEnergy tables
# ---------------------------------------------------------------------- #


def pairwise_static(model: FlowNetworkModel, bulk: bool):
    if model.params.dense_block_nodes is not None:
        return blocked_pairwise(model, bulk)
    return per_pair_pairwise(model, bulk)


def per_pair_pairwise(model: FlowNetworkModel, bulk: bool):
    n = model.topology.num_nodes
    params = model.energy.params
    energy_per_bit = np.zeros((n, n))  # joules per bit
    hops = np.zeros((n, n))
    wireless_links = np.zeros((n, n))  # wireless hops on path
    paths = PathModel(model)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            links, _ = paths._path(src, dst, bulk=bulk)
            pj_per_bit = params.router_pj_per_bit  # ejection router
            wireless = 0
            for link in links:
                pj_per_bit += params.router_pj_per_bit
                if link.kind is LinkKind.WIRELESS:
                    pj_per_bit += params.wireless_pj_per_bit
                    wireless += 1
                else:
                    pj_per_bit += (
                        params.wire_pj_per_bit_per_mm * link.length_mm
                    )
            energy_per_bit[src, dst] = pj_per_bit * 1e-12
            hops[src, dst] = len(links)
            wireless_links[src, dst] = wireless
    return energy_per_bit, hops, wireless_links


def blocked_pairwise(model: FlowNetworkModel, bulk: bool):
    n = model.topology.num_nodes
    params = model.energy.params
    hop_pj = np.zeros((n, n))
    hop_wireless = np.zeros((n, n))
    for link in model.topology.links:
        if link.kind is LinkKind.WIRELESS:
            pj = params.router_pj_per_bit + params.wireless_pj_per_bit
            wireless = 1.0
        else:
            pj = (
                params.router_pj_per_bit
                + params.wire_pj_per_bit_per_mm * link.length_mm
            )
            wireless = 0.0
        for u, v in ((link.a, link.b), (link.b, link.a)):
            hop_pj[u, v] = pj
            hop_wireless[u, v] = wireless
    routing = model.bulk_routing if bulk else model.routing
    pred = routing.predecessor_matrix()
    energy_per_bit = np.zeros((n, n), dtype=np.float32)
    hops = np.zeros((n, n), dtype=np.float32)
    wireless_links = np.zeros((n, n), dtype=np.float32)
    block = model.params.dense_block_nodes or n
    for start in range(0, n, block):
        end = min(start + block, n)
        srcs = np.arange(start, end)
        acc_pj = np.zeros((end - start, n))
        acc_hops = np.zeros((end - start, n))
        acc_wireless = np.zeros((end - start, n))
        for rows, dst, prev, cur in walk_steps_block(
            pred[start:end], srcs, n
        ):
            acc_pj[rows, dst] += hop_pj[prev, cur]
            acc_hops[rows, dst] += 1.0
            acc_wireless[rows, dst] += hop_wireless[prev, cur]
        acc_pj[acc_hops > 0] += params.router_pj_per_bit
        energy_per_bit[start:end] = acc_pj * 1e-12
        hops[start:end] = acc_hops
        wireless_links[start:end] = acc_wireless
    return energy_per_bit, hops, wireless_links


# ---------------------------------------------------------------------- #
# FlowNetworkModel._flow_usage and calibration channel loads
# ---------------------------------------------------------------------- #


def flow_usage(model: FlowNetworkModel, bulk: bool):
    num_links = len(model.topology.links)
    num_channels = model.load.channel_load.shape[0]
    block = model.params.dense_block_nodes
    if block is not None:
        return blocked_flow_usage(model, bulk, block, 2 * num_links + num_channels)
    return per_pair_flow_usage(model, bulk)


def per_pair_flow_usage(model: FlowNetworkModel, bulk: bool):
    n = model.topology.num_nodes
    num_links = len(model.topology.links)
    num_channels = model.load.channel_load.shape[0]
    rows: List[int] = []
    cols: List[int] = []
    paths = PathModel(model)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            pair = src * n + dst
            for link, direction in zip(*paths._path(src, dst, bulk=bulk)):
                index = paths._link_index[link.key]
                rows.append(pair)
                cols.append(2 * index + direction)
                if link.kind is LinkKind.WIRELESS:
                    rows.append(pair)
                    cols.append(2 * num_links + link.channel)
    return csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(n * n, 2 * num_links + num_channels),
    )


def blocked_flow_usage(model, bulk: bool, block: int, num_resources: int):
    n = model.topology.num_nodes
    routing = model.bulk_routing if bulk else model.routing
    pred = routing.predecessor_matrix()
    link_col, chan_col = edge_resource_tables(model)

    def block_entries(start, end):
        srcs = np.arange(start, end)
        base = (srcs * n).astype(np.int32)
        rows_parts = []
        cols_parts = []
        for rows, dst, prev, cur in walk_steps_block(pred[start:end], srcs, n):
            pair = base[rows] + dst.astype(np.int32)
            rows_parts.append(pair)
            cols_parts.append(link_col[prev, cur])
            wireless = chan_col[prev, cur]
            on_channel = wireless >= 0
            if on_channel.any():
                rows_parts.append(pair[on_channel])
                cols_parts.append(wireless[on_channel])
        if not rows_parts:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty
        return np.concatenate(rows_parts), np.concatenate(cols_parts)

    return assemble_blocked_csr(block_entries, n, block, num_resources)


def add_flows_full(model: FlowNetworkModel, src, dst, rate, bulk: bool):
    """Per-resource load of a flow batch by the full mat-vec: every
    pair's accumulated rate in one ``n * n`` vector times the whole
    usage matrix."""
    n = model.topology.num_nodes
    src, dst = np.asarray(src), np.asarray(dst)
    rate = np.asarray(rate, dtype=float)
    active = (src != dst) & (rate > 0)
    rate_by_pair = np.zeros(n * n)
    np.add.at(rate_by_pair, src[active] * n + dst[active], rate[active])
    return model.fabric.flow_usage(bulk).T @ rate_by_pair


def add_flows_rows(model: FlowNetworkModel, src, dst, rate, bulk: bool):
    """Per-resource load of a flow batch as ``add_flows`` computed it
    before per-phase views: the distinct active pairs by ``np.unique``,
    their rates by ``np.add.at``, and the mat-vec over a fancy-indexed
    copy of their flow-usage rows, all redone on every call."""
    n = model.topology.num_nodes
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    rate = np.asarray(rate, dtype=float)
    active = (src != dst) & (rate > 0)
    resources = model.fabric.num_resources
    if not active.any():
        return np.zeros(resources)
    pairs, row = np.unique(src[active] * n + dst[active], return_inverse=True)
    rate_by_pair = np.zeros(len(pairs))
    np.add.at(rate_by_pair, row, rate[active])
    usage = model.fabric.flow_usage(bulk)[pairs]
    return usage.T @ rate_by_pair


def path_capacity_rows(dense, inverse, src, dst) -> np.ndarray:
    """Effective path capacity of each ``(src[i], dst[i])`` pair as
    ``DenseLatencyModel.path_capacity`` computed it before per-phase
    views: the pairs' entries of the deduplicated usage csr located
    anew on every call."""
    usage = dense._binary_usage
    pairs = np.asarray(src) * dense.num_nodes + np.asarray(dst)
    starts = usage.indptr[pairs]
    counts = usage.indptr[pairs + 1] - starts
    offsets = np.cumsum(counts) - counts
    entries = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
    data = inverse[usage.indices[entries]]
    worst = np.zeros(len(pairs))
    routed = counts > 0
    if routed.any():
        worst[routed] = np.maximum.reduceat(data, offsets[routed])
    capacity = np.full(len(pairs), np.inf)
    positive = worst > 0
    capacity[positive] = 1.0 / worst[positive]
    return capacity


def latency_uncached(dense, head: np.ndarray, payload_bits: float) -> np.ndarray:
    """``DenseLatencyModel.latency`` with its serialization matrix
    recomputed on every call, as every refresh did before it was kept."""
    bottleneck = dense._raw_bottleneck
    return head + np.where(np.isinf(bottleneck), 0.0, payload_bits / bottleneck)


def usage_channel_utilizations(
    topology,
    routing,
    clusters,
    cluster_frequencies_hz,
    traffic_rate_bps: np.ndarray,
    wireless,
    params: NocParams = NocParams(),
) -> np.ndarray:
    """Per-channel utilization as the calibration priced each candidate
    routing before it read the platform fabric's walk: in a throwaway
    default-``NocParams`` network, by ``np.bincount`` over the rows of
    the flow-usage csr."""
    model = FlowNetworkModel(
        topology=topology,
        routing=routing,
        clusters=list(clusters),
        cluster_frequencies_hz=list(cluster_frequencies_hz),
        params=params,
        wireless=wireless,
    )
    n = topology.num_nodes
    channels = model.fabric.flow_usage()[:, 2 * len(topology.links):]
    crossings = channels.data.astype(np.intp)
    pairs = np.repeat(np.arange(n * n), np.diff(channels.indptr))
    rate = traffic_rate_bps.ravel()
    rate = np.where(rate > 0, rate, 0.0)
    load = np.bincount(
        np.repeat(channels.indices, crossings),
        weights=np.repeat(rate[pairs], crossings),
        minlength=channels.shape[1],
    )
    return load / wireless.bandwidth_bps


def add_flow_channel_utilizations(
    topology,
    routing,
    clusters,
    cluster_frequencies_hz,
    traffic_rate_bps: np.ndarray,
    wireless,
    params: NocParams = NocParams(),
) -> np.ndarray:
    """Per-channel utilization by one ``add_flow`` per (src, dst) pair."""
    model = PathModel(FlowNetworkModel(
        topology=topology,
        routing=routing,
        clusters=list(clusters),
        cluster_frequencies_hz=list(cluster_frequencies_hz),
        params=params,
        wireless=wireless,
    ))
    n = topology.num_nodes
    for src in range(n):
        for dst in range(n):
            rate = traffic_rate_bps[src, dst]
            if rate > 0 and src != dst:
                model.add_flow(src, dst, rate)
    return model.load.channel_load / wireless.bandwidth_bps


# ---------------------------------------------------------------------- #
# single-source predecessor walk
# ---------------------------------------------------------------------- #


def walk_steps(
    pred_row: np.ndarray, src: int, n: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Walk all destinations' routes back toward *src* in lockstep.

    Yields ``(dst, prev, cur)`` index arrays per step: for every
    still-walking destination ``dst``, the route's hop ``prev -> cur``
    (in forward, src-to-dst direction).  Iterating to exhaustion visits
    every hop of every route exactly once.

    The walk is validated eagerly: a predecessor cycle or an unroutable
    destination raises *before the first step is yielded*, so a consumer
    accumulating per-destination sums is never left holding a partially
    consumed walk.  The error names the offending route and the exact
    cycle the chain fell into.
    """
    steps = []
    destinations = np.arange(n)
    current = destinations.copy()
    alive = current != src
    count = 0
    while alive.any():
        count += 1
        dst = destinations[alive]
        cur = current[alive]
        if count > 2 * n:
            broken = int(dst[0])
            raise RuntimeError(
                f"predecessor chains from {src} do not terminate "
                f"({alive.sum()} destination(s) affected): "
                f"{_describe_cycle(pred_row, src, broken, n)}"
            )
        prev = pred_row[cur]
        if (prev < 0).any():
            missing = dst[prev < 0]
            raise RuntimeError(
                f"no route from {src} to destination(s) "
                f"{missing[:8].tolist()}"
                f"{'...' if len(missing) > 8 else ''}: predecessor chain "
                f"breaks {count} hop(s) before the destination"
            )
        steps.append((dst, prev, cur))
        current[alive] = prev
        alive = current != src
    return iter(steps)
