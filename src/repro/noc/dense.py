"""The all-pairs NoC tables: latency, capacity and transfer energy.

These tables are the flow model's evaluation (:mod:`repro.noc.network`
states the formulas).  The system simulator needs all-pairs latencies
for several packet classes at every phase relaxation, which per-packet
path walks would turn into ~10^4 walks per refresh.
:class:`DenseLatencyModel` holds the load-independent pieces (router
pipeline, wire traversal, synchronizers, wireless propagation and token
overhead) per (src, dst) pair, and reduces the load-dependent pieces to
one sparse mat-vec (queueing) plus a ragged min (bottleneck capacity)
over shared *resources* -- directed wire links and wireless channels.
:class:`PairwiseEnergy` prices a transfer's energy per pair the same
way.

Both are views over the network's :class:`repro.noc.fabric.Fabric`,
which holds one forward route walk per routing and everything that does
not depend on clocks: the resource usage csr, the flow usage and the
pairwise energy tables.  On top of it, the per-clock tables -- each
resource's service time, capacity and buffer bound, the static head
latency and the raw bottleneck -- are built here once per distinct
clock vector (:func:`_resource_terms`, :func:`_clocked_tables`) by
replaying the fabric's walk, adding each hop's terms in path order, and
kept in the fabric, so every platform over it -- re-clocked, capped or
throttled -- builds only its own clocks' tables, once.
``NocParams.dense_block_nodes`` picks the source block size and float32
storage (:func:`repro.noc.pathwalk.table_layout`).
``tests/noc/test_table_oracles.py`` asserts the tables equal those of
the per-pair, blocked and one-walk reference builders bit for bit, and
``tests/noc/test_dense.py`` checks every pair's loaded latency, path
capacity and transfer energy against the per-packet path walk of
``tests/noc/path_oracle.py``.  Tables are keyed by routing, not by
message class (:meth:`repro.noc.fabric.Fabric.routing_key`): where the
bulk class routes like the latency class (every mesh), both share one
set.

A load refresh is split into the pieces its consumers read --
:meth:`DenseLatencyModel.utilization`,
:meth:`~DenseLatencyModel.queue_per_resource`,
:meth:`~DenseLatencyModel.loaded_head`, :meth:`~DenseLatencyModel.latency`
(whose load-independent serialization matrix is kept per payload size)
and :meth:`~DenseLatencyModel.inverse_capacity` -- so a caller computes
each once; effective path capacity is gathered only at the pairs asked
for, by a :class:`PairCapacity` that locates their usage entries once
and is priced again under every new load.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.noc.network import FlowNetworkModel
from repro.noc.pathwalk import unsort
from repro.noc.topology import LinkKind


class DenseLatencyModel:
    """All-pairs latency under load, vectorized over path resources.

    With ``bulk=True`` the model evaluates the wire-preferring bulk
    message class (see :class:`repro.noc.network.FlowNetworkModel`).
    Its per-clock tables are keyed by the network's ``clock_key``."""

    def __init__(self, model: FlowNetworkModel, bulk: bool = False):
        self.model = model
        self.bulk = bulk
        fabric = model.fabric
        self.num_nodes = fabric.num_nodes
        self._num_links = fabric.num_links
        self.num_resources = fabric.num_resources
        self._usage, self._binary_usage = fabric.usage(bulk)
        self._service, self._capacity, self._buffer_flits = fabric.product(
            ("resources", model.clock_key), lambda: _resource_terms(model)
        )
        self._head, self._raw_bottleneck = fabric.product(
            ("head", fabric.routing_key(bulk), model.clock_key),
            lambda: _clocked_tables(model, bulk, self._capacity),
        )
        self._serialization: Dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------ #

    def utilization(self) -> np.ndarray:
        """Per-resource utilization (capped at the model's maximum).

        Resource ``2 * i + d`` is direction ``d`` of link ``i``, so the
        link loads copy over in one ravel; wireless links bill against
        their channel instead, and their zero-capacity link columns read
        zero utilization."""
        load = self.model.load
        resource_load = np.concatenate((load.link_load.ravel(), load.channel_load))
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(self._capacity > 0, resource_load / self._capacity, 0.0)
        return np.minimum(rho, self.model.params.max_utilization)

    def queue_per_resource(self, rho: np.ndarray) -> np.ndarray:
        """M/D/1 wait per resource at utilization *rho*, bounded by the
        port buffer.  Resources are the fabric's, so both message
        classes share one vector."""
        return np.minimum(
            self._service * rho / (2.0 * (1.0 - rho)),
            np.maximum(self._buffer_flits - 1, 0) * self._service,
        )

    def loaded_head(self, queue: np.ndarray) -> np.ndarray:
        """All-pairs head latency under the per-resource waits *queue*:
        the static head plus each path's queueing -- everything but
        serialization, i.e. the zero-payload latency.

        With a tracer installed, records each wireless channel's access
        wait (token acquisition + queueing), one observation per call."""
        model = self.model
        if model._tracer.enabled and model._wireless_channels:
            token = model.wireless.token_overhead_s
            for channel in model._wireless_channels:
                model._tracer.histogram_record(
                    f"noc.token_wait_s/{model.trace_label}",
                    token + queue[2 * self._num_links + channel],
                )
        n = self.num_nodes
        return self._head + np.asarray(self._usage @ queue).reshape(n, n)

    def latency(self, head: np.ndarray, payload_bits: float) -> np.ndarray:
        """All-pairs latency of a *payload_bits* packet given the loaded
        *head*: serialization runs at the raw bottleneck line rate
        (contention is already in the queueing term; see
        :mod:`repro.noc.network`).  The serialization matrix does not
        depend on load, so it is computed once per payload size, in the
        bottleneck table's dtype."""
        serialization = self._serialization.get(payload_bits)
        if serialization is None:
            bottleneck = self._raw_bottleneck
            serialization = self._serialization[payload_bits] = np.where(
                np.isinf(bottleneck), 0.0, payload_bits / bottleneck
            )
        return head + serialization

    def latency_matrices(
        self, payload_bits: Sequence[float]
    ) -> Dict[float, np.ndarray]:
        """All-pairs latency for each payload size, under current load."""
        head = self.loaded_head(self.queue_per_resource(self.utilization()))
        return {bits: self.latency(head, bits) for bits in payload_bits}

    def raw_bottleneck_matrix(self) -> np.ndarray:
        """Load-independent per-pair bottleneck line rate (bits/s)."""
        return self._raw_bottleneck

    def inverse_capacity(self, rho: np.ndarray) -> np.ndarray:
        """Per-resource inverse effective capacity (s/bit) at utilization
        *rho*; zero for resources without capacity.  All effective
        capacities of routed resources are positive because utilization
        is capped below 1."""
        effective = self._capacity * (1.0 - rho)
        inverse = np.zeros(self.num_resources)
        used = effective > 0
        inverse[used] = 1.0 / effective[used]
        return inverse

    def pair_capacity(self, src: np.ndarray, dst: np.ndarray) -> "PairCapacity":
        """The :class:`PairCapacity` gather of ``(src[i], dst[i])``: called
        with per-resource inverse capacities, each pair's effective path
        capacity (bits/s)."""
        pairs = np.asarray(src) * self.num_nodes + np.asarray(dst)
        return PairCapacity(self._binary_usage, pairs)


class PairCapacity:
    """Effective path capacity of fixed pairs, gathered per load.

    The min over a pair's path resources is the reciprocal of the max
    of their inverse capacities.  The pairs' entries of the
    deduplicated usage csr are located once -- the resource of every
    (pair, path resource) entry, pairs in order, and where each routed
    pair's run starts -- so pricing the pairs under a new load is one
    gather and one ``np.maximum.reduceat``, O(pairs x path length),
    never O(n^2).  A pair whose path crosses no resource
    (``src == dst``) has infinite capacity.
    """

    def __init__(self, binary_usage, pairs: np.ndarray):
        starts = binary_usage.indptr[pairs]
        counts = binary_usage.indptr[pairs + 1] - starts
        offsets = np.cumsum(counts) - counts
        entries = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
        self._resources = binary_usage.indices[entries]
        self._routed = counts > 0
        self._offsets = offsets[self._routed]
        self.num_pairs = len(pairs)

    def __call__(self, inverse: np.ndarray) -> np.ndarray:
        """Per-pair capacity (bits/s) under the per-resource *inverse*
        capacities (s/bit)."""
        worst = np.zeros(self.num_pairs)
        if len(self._offsets):
            worst[self._routed] = np.maximum.reduceat(
                inverse[self._resources], self._offsets
            )
        capacity = np.full(self.num_pairs, np.inf)
        positive = worst > 0
        capacity[positive] = 1.0 / worst[positive]
        return capacity


class PairwiseEnergy:
    """Load-independent per-pair transfer energy, hops and wireless share.

    Path energy per bit never depends on load, so the fabric precomputes
    it for every (src, dst) pair (:meth:`repro.noc.fabric.Fabric.pairwise`);
    a transfer's increments are then a few table gathers, which fold
    into the model's :class:`repro.noc.energy.NocEnergyModel` counters.
    """

    def __init__(self, model: FlowNetworkModel, bulk: bool = False):
        self.model = model
        self.bulk = bulk
        # Path energies depend only on the fabric and the energy
        # constants, never on clocks or load.
        self.energy_per_bit, self.hops, self.wireless_links = (
            model.fabric.pairwise(bulk, model.energy.params)
        )

    def increments(self, src: np.ndarray, dst: np.ndarray, bits: np.ndarray):
        """``(energy_j, bits, bit_hops, wireless_bits)`` increments of
        moving ``bits[i]`` from ``src[i]`` to ``dst[i]``, one per
        transfer, for :meth:`repro.noc.energy.NocEnergyModel.fold`.

        Products are taken in the table dtype, as a table scalar times a
        Python float is under NEP 50 (float32 tables multiply in
        float32); a transfer with ``src == dst`` or no bits adds
        nothing."""
        bits = np.asarray(bits, dtype=float)
        if (bits < 0).any():
            raise ValueError(f"bits must be >= 0, got {bits[bits < 0][0]}")
        moved = (src != dst) & (bits > 0)
        table_bits = np.where(moved, bits, 0.0).astype(self.energy_per_bit.dtype)
        return (
            self.energy_per_bit[src, dst] * table_bits,
            np.where(moved, bits, 0.0),
            table_bits * self.hops[src, dst],
            table_bits * self.wireless_links[src, dst],
        )

    def count_flits(self, src: np.ndarray, dst: np.ndarray, bits: np.ndarray) -> None:
        """Telemetry: each moving transfer's per-link and per-medium flit
        counters, transfer by transfer.

        A pair's directed-link columns of its flow-usage row are one per
        hop on link ``col // 2``."""
        usage = self.model.fabric.flow_usage(self.bulk)
        n = self.model.topology.num_nodes
        links = self.model.topology.links
        wired = 2 * len(links)
        for s, d, b in zip(src.tolist(), dst.tolist(), bits.tolist()):
            if s == d or b == 0:
                continue
            pair = s * n + d
            self.model._count_flits([
                links[col // 2]
                for col in usage.indices[usage.indptr[pair]:usage.indptr[pair + 1]]
                if col < wired
            ], b)


def _resource_terms(model: FlowNetworkModel):
    """Per-resource service time, raw capacity and buffer bound at
    *model*'s clocks."""
    fabric = model.fabric
    num_links = fabric.num_links
    service = np.zeros(fabric.num_resources)
    capacity = np.zeros(fabric.num_resources)
    buffer_flits = np.zeros(fabric.num_resources)
    node_freq = model._node_freq
    params = model.params
    for index, link in enumerate(fabric.topology.links):
        if link.kind is LinkKind.WIRELESS:
            continue  # wireless hops bill against their channel
        f_link = min(node_freq[link.a], node_freq[link.b])
        cap = params.flit_bits * f_link / params.link_traversal_cycles
        for direction in (0, 1):
            resource = 2 * index + direction
            service[resource] = params.link_traversal_cycles / f_link
            capacity[resource] = cap
            buffer_flits[resource] = params.wire_buffer_flits
    for channel in range(fabric.num_resources - 2 * num_links):
        resource = 2 * num_links + channel
        service[resource] = params.flit_bits / model.wireless.bandwidth_bps
        capacity[resource] = model.wireless.bandwidth_bps
        buffer_flits[resource] = params.wi_buffer_flits
    return service, capacity, buffer_flits


def _clocked_tables(model: FlowNetworkModel, bulk: bool, capacity: np.ndarray):
    """``(head, raw_bottleneck)`` of a message class at *model*'s clocks,
    from a replay of the fabric's forward walk.

    Per hop ``u -> v`` the head adds the router pipeline, the link term
    (wireless propagation + token, or wire traversal at the slower
    clock) and the island-crossing synchronizer (0 inside an island),
    in path order, so the float64 sums are exactly those of a per-path
    loop; the raw bottleneck is the minimum line rate of the billed
    resources (wire direction, or the wireless hop's channel)."""
    fabric = model.fabric
    n = fabric.num_nodes
    params = model.params
    node_freq = model._node_freq
    link_col, chan_col = fabric.edge_columns()
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
    head = np.empty((n, n), dtype=fabric.dtype)
    raw_bottleneck = np.empty((n, n), dtype=fabric.dtype)
    for start, end, walk in fabric.walks(bulk):
        order = walk.order
        t = np.zeros(len(order))
        line_rate = np.full(len(order), np.inf)
        for u, v in walk.steps():
            walking = slice(len(u))
            t[walking] += pipeline_s[u]
            t[walking] += link_s[u, v]
            t[walking] += sync_s[u, v]
            np.minimum(
                line_rate[walking], capacity[billed_col[u, v]],
                out=line_rate[walking],
            )
        # Ejection pipeline at the destination; a zero-hop route is
        # just the local port traversal.
        head[start:end] = unsort(t, order, n) + pipeline_s
        raw_bottleneck[start:end] = unsort(line_rate, order, n)
    return head, raw_bottleneck
