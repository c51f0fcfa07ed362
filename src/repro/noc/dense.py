"""The all-pairs NoC tables: latency, capacity and transfer energy.

These tables are the flow model's evaluation (:mod:`repro.noc.network`
states the formulas).  The system simulator needs all-pairs latencies
for several packet classes at every phase relaxation, which per-packet
path walks would turn into ~10^4 walks per refresh.
:class:`DenseLatencyModel` precomputes the load-independent pieces
(router pipeline, wire traversal, synchronizers, wireless propagation and
token overhead) per (src, dst) pair once, and reduces the load-dependent
pieces to one sparse mat-vec (queueing) plus a ragged min (bottleneck
capacity) over shared *resources* -- directed wire links and wireless
channels.  :class:`PairwiseEnergy` prices a transfer's energy per pair
the same way.

Both classes build their tables in one pass of the forward route walk
(:func:`repro.noc.pathwalk.route_blocks`), adding each hop's terms in
path order; ``NocParams.dense_block_nodes`` picks the source block size
and float32 storage (:func:`repro.noc.pathwalk.table_layout`).
``tests/noc/test_table_oracles.py`` asserts the tables equal those of
the per-pair and blocked reference builders bit for bit, and
``tests/noc/test_dense.py`` checks every pair's loaded latency, path
capacity and transfer energy against the per-packet path walk of
``tests/noc/path_oracle.py``.  Tables are keyed by routing, not by
message class (:meth:`repro.noc.network.FlowNetworkModel.routing_key`):
where the bulk class routes like the latency class (every mesh), both
share one set.

A load refresh is split into the pieces its consumers read --
:meth:`DenseLatencyModel.utilization`,
:meth:`~DenseLatencyModel.queue_per_resource`,
:meth:`~DenseLatencyModel.loaded_head`, :meth:`~DenseLatencyModel.latency`
and :meth:`~DenseLatencyModel.inverse_capacity` -- so a caller computes
each once; effective path capacity is gathered only at the pairs asked
for (:meth:`~DenseLatencyModel.path_capacity`).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from repro.noc.network import FlowNetworkModel
from repro.noc.pathwalk import (
    edge_resource_tables, route_blocks, stack_usage, table_layout, unsort,
    usage_block,
)
from repro.noc.topology import LinkKind


class DenseLatencyModel:
    """All-pairs latency under load, vectorized over path resources.

    With ``bulk=True`` the model evaluates the wire-preferring bulk
    message class (see :class:`repro.noc.network.FlowNetworkModel`)."""

    def __init__(self, model: FlowNetworkModel, bulk: bool = False):
        self.model = model
        self.bulk = bulk
        self.num_nodes = model.topology.num_nodes
        self._num_links = len(model.topology.links)
        # Everything below is load-independent; share it across rebuilt
        # networks of the same platform (same fabric and clocks) through
        # the network's static cache.  The frequency fingerprint guards
        # against a stale cache being handed to a re-clocked network.
        key = (
            "dense_static",
            model.routing_key(bulk),
            model.topology.epoch,
            len(model.topology.links),
        )
        static = model.static_cache.get(key)
        if static is None or not np.array_equal(
            static["node_freq"], model._node_freq
        ):
            static = self._build_static(model, bulk)
            model.static_cache[key] = static
        self.num_resources = static["num_resources"]
        self._service = static["service"]
        self._capacity = static["capacity"]
        self._buffer_flits = static["buffer_flits"]
        self._head = static["head"]
        self._usage = static["usage"]
        self._binary_usage = static["binary_usage"]
        self._raw_bottleneck = static["raw_bottleneck"]

    @staticmethod
    def _build_static(model: FlowNetworkModel, bulk: bool) -> Dict:
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
        :mod:`repro.noc.network`)."""
        bottleneck = self._raw_bottleneck
        return head + np.where(
            np.isinf(bottleneck), 0.0, payload_bits / bottleneck
        )

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

    def path_capacity(
        self, inverse: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> np.ndarray:
        """Effective path capacity (bits/s) of each ``(src[i], dst[i])``
        pair under the per-resource *inverse* capacities.

        The min over the pair's path resources is the reciprocal of the
        max of their inverse capacities, gathered straight off the
        pair's row of the deduplicated usage csr; a pair whose path
        crosses no resource (``src == dst``) has infinite capacity.
        Only the requested rows are read, so pricing a phase's pulls
        costs O(pairs x path length), not O(n^2)."""
        usage = self._binary_usage
        pairs = np.asarray(src) * self.num_nodes + np.asarray(dst)
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


class PairwiseEnergy:
    """Load-independent per-pair transfer energy, hops and wireless share.

    Path energy per bit never depends on load, so it is precomputed for
    every (src, dst) pair; recording a transfer is then O(1) and feeds
    the model's :class:`repro.noc.energy.NocEnergyModel` counters.
    """

    def __init__(self, model: FlowNetworkModel, bulk: bool = False):
        self.model = model
        self.bulk = bulk
        # Path energies depend only on the fabric, never on clocks or
        # load; share the tables across rebuilt networks of one platform.
        key = (
            "pairwise_static",
            model.routing_key(bulk),
            model.topology.epoch,
            len(model.topology.links),
        )
        static = model.static_cache.get(key)
        if static is None:
            static = self._build_static(model, bulk)
            model.static_cache[key] = static
        self.energy_per_bit, self.hops, self.wireless_links = static

    @staticmethod
    def _build_static(model: FlowNetworkModel, bulk: bool):
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

    def record(self, src: int, dst: int, bits: float) -> float:
        """Account the energy (J) of moving *bits* from *src* to *dst*."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        if src == dst or bits == 0:
            return 0.0
        energy = self.energy_per_bit[src, dst] * bits
        counters = self.model.energy
        counters.dynamic_joules += energy
        counters.bits_moved += bits
        counters.bit_hops += bits * self.hops[src, dst]
        counters.wireless_bits += bits * self.wireless_links[src, dst]
        if self.model._tracer.enabled:
            # The pair's directed-link columns of its flow-usage row, one
            # per hop on link ``col // 2``; with the default NullTracer
            # this costs one attribute check.
            usage = self.model._flow_usage(self.bulk)
            pair = src * self.model.topology.num_nodes + dst
            links = self.model.topology.links
            self.model._count_flits([
                links[col // 2]
                for col in usage.indices[usage.indptr[pair]:usage.indptr[pair + 1]]
                if col < 2 * len(links)
            ], bits)
        return energy

    def record_aggregate(
        self,
        energy_j: float,
        bits: float,
        bit_hops: float,
        wireless_bits: float,
    ) -> float:
        """Feed pre-expected aggregates (e.g. bank-distribution averages)
        into the energy counters."""
        counters = self.model.energy
        counters.dynamic_joules += energy_j
        counters.bits_moved += bits
        counters.bit_hops += bit_hops
        counters.wireless_bits += wireless_bits
        tracer = self.model._tracer
        if tracer.enabled:
            # Aggregates have no single path; attribute expected (possibly
            # fractional) flit-hops to the medium-level counters only.
            flit_bits = self.model.params.flit_bits
            label = self.model.trace_label
            tracer.counter_add(
                "noc.flits.wireless", wireless_bits / flit_bits, key=label
            )
            tracer.counter_add(
                "noc.flits.wired", (bit_hops - wireless_bits) / flit_bits,
                key=label,
            )
        return energy_j
