"""Memory-system model: S-NUCA L2 banks, directory traffic, DRAM.

Every L1 miss becomes NoC traffic (paper Sec. 7: MOESI_CMP_directory with
a 512 KB L2 bank behind every core):

* a control packet from the requesting core to the home L2 bank (plus
  the directory's extra control messages, folded in as a multiplier);
* a data packet (64-byte line) back to the requester;
* on an L2 miss, an additional round trip from the bank to its nearest
  memory controller plus the DRAM access time.

Message classes use different routes (separate request/response virtual
networks, as directory protocols require for deadlock freedom anyway):
small *control* packets take the latency-optimal class, where a wireless
hop is a win; 17-flit *data* responses take the wire-preferring bulk
class, because serializing a cache line through a shared 16 Gbps token
channel would cost more than the hops it saves.

The home-bank distribution is where application *locality* enters: with
probability ``locality`` an access hits the core's own bank (private
data, near-core sharing -- LR's behaviour), otherwise the
address-interleaved uniform S-NUCA distribution applies (WC/Kmeans's
distant key traffic).

One load refresh (:meth:`MemorySystem.refresh_latencies`) computes
each NoC quantity once: one per-resource utilization and queueing
vector for both classes, the control and data latency matrices the
bank-distribution expectations read, the bulk class's loaded head
(which is its zero-payload latency) and the bulk class's per-resource
inverse capacities.  Effective path capacity is gathered only at the
(src, dst) pairs a barrier phase prices (a
:class:`repro.noc.dense.PairCapacity` over
:attr:`MemorySystem.bulk_inverse_capacity`), never as an n x n matrix.
On a fabric where both classes share one routing (every mesh) they
share one table set, and the loaded head is computed once.

A memory system builds nothing that does not depend on its clocks.
The NoC tables come from the platform's :class:`repro.noc.fabric.Fabric`
through :class:`DenseLatencyModel` and :class:`PairwiseEnergy` (the
per-clock ones once per clock vector), and the home-bank distribution,
the per-node miss-usage rows and the per-access energy expectations are
fabric products keyed by (locality, memory params[, NoC energy
params]).  So every platform over one fabric -- the three meshes of a
study, a governor's re-clocked views, a throttled fault view -- and
every simulation on it share them; a new memory system at a platform
switch costs the bank service times and one load refresh.
"""

from __future__ import annotations

import numpy as np

from repro.noc.dense import DenseLatencyModel, PairwiseEnergy
from repro.noc.packets import control_bits, data_bits
from repro.sim.platform import Platform
from repro.utils.validation import check_probability


class MemorySystem:
    """Latency/energy/flow accounting for the cache hierarchy."""

    def __init__(self, platform: Platform, locality: float):
        check_probability("locality", locality)
        self.platform = platform
        self.locality = locality
        self.num_nodes = platform.num_cores
        mem = platform.memory_params
        self._ctrl_bits = control_bits() * mem.coherence_control_factor
        self._data_bits = float(data_bits())
        network = platform.network
        self.dense = DenseLatencyModel(network)
        self.dense_bulk = DenseLatencyModel(network, bulk=True)
        self.pairwise = PairwiseEnergy(network)
        self.pairwise_bulk = PairwiseEnergy(network, bulk=True)
        # Both classes route on the latency routing, so they hold the
        # very same tables (Fabric.routing_key).
        self._one_routing = not network.fabric.routing_key(bulk=True)
        # Clock-free products of this (locality, memory params), kept in
        # the fabric: every platform over it reuses them.
        fabric = network.fabric
        self.bank_prob, self.controller_of_bank, self._miss_usage = fabric.product(
            ("memory", locality, mem), self._build_miss_usage
        )
        (self._e_l2, self._h_l2, self._w_l2,
         self._e_mem, self._h_mem, self._w_mem) = fabric.product(
            ("memory_energy", locality, mem, network.energy.params),
            self._build_energy_expectations,
        )
        # Bank service time at the bank island's clock (static).
        freqs = np.array(
            [
                platform.vf_points[platform.layout.cluster_of(bank)].frequency_hz
                for bank in range(self.num_nodes)
            ]
        )
        self._bank_service_s = mem.l2_bank_cycles / freqs
        n = self.num_nodes
        self._l2_round_trip: np.ndarray = np.zeros(n)
        self._mem_extra: np.ndarray = np.zeros(n)
        #: Bulk-class all-pairs matrices for key-value streaming, refreshed
        #: with the miss latencies (see :meth:`refresh_latencies`).
        self.bulk_base_latency_s: np.ndarray = np.zeros((n, n))
        self.bulk_raw_bottleneck_bps: np.ndarray = self.dense_bulk.raw_bottleneck_matrix()
        self._bulk_inverse_capacity = np.zeros(self.dense_bulk.num_resources)
        self.refresh_latencies()

    # ------------------------------------------------------------------ #
    # latency
    # ------------------------------------------------------------------ #

    def refresh_latencies(self) -> None:
        """Recompute expected miss latencies under the current NoC load.

        One utilization and queueing vector serves both message classes.
        The control and data latency matrices feed the home-bank
        expectations below; the bulk class's loaded head (head +
        queueing, everything but serialization) is kept as the
        key-value pulls' zero-payload latency, and its per-resource
        inverse capacities as the input of path-capacity gathers
        (:attr:`bulk_inverse_capacity`).  When both classes share one
        routing, the loaded head is computed once."""
        dense, bulk = self.dense, self.dense_bulk
        rho = dense.utilization()
        queue = dense.queue_per_resource(rho)
        head = dense.loaded_head(queue)
        bulk_head = head if self._one_routing else bulk.loaded_head(queue)
        l_ctrl = dense.latency(head, self._ctrl_bits)
        l_data = bulk.latency(bulk_head, self._data_bits)
        self.bulk_base_latency_s = bulk_head
        self._bulk_inverse_capacity = bulk.inverse_capacity(rho)
        n = self.num_nodes
        # Expected L2 round trip per requesting node (request to bank,
        # bank service, response back) and expected extra L2-miss time
        # (bank <-> controller + DRAM), both expectations over the
        # home-bank distribution.  Requester rows are independent, so
        # they evaluate in row blocks (NocParams.dense_block_nodes);
        # the default single block is the exact legacy computation.
        mem = self.platform.memory_params
        mc = self.controller_of_bank
        banks = np.arange(n)
        bank_to_mc = l_ctrl[banks, mc] + l_data[mc, banks]
        extra_per_bank = bank_to_mc + mem.dram_latency_s
        block = self.platform.noc_params.dense_block_nodes or n
        l2_round_trip = np.empty(n)
        mem_extra = np.empty(n)
        for start in range(0, n, block):
            end = min(start + block, n)
            round_trip = (
                l_ctrl[start:end]
                + self._bank_service_s[None, :]
                + l_data.T[start:end]
            )
            prob = self.bank_prob[start:end]
            l2_round_trip[start:end] = (prob * round_trip).sum(axis=1)
            mem_extra[start:end] = (prob * extra_per_bank[None, :]).sum(axis=1)
        self._l2_round_trip = l2_round_trip
        self._mem_extra = mem_extra

    @property
    def bulk_inverse_capacity(self) -> np.ndarray:
        """Bulk-class per-resource inverse effective capacities (s/bit)
        under the last refresh's load: the input of a
        :class:`repro.noc.dense.PairCapacity` gather (view, do not
        mutate)."""
        return self._bulk_inverse_capacity

    def l2_round_trip_all_s(self) -> np.ndarray:
        """Per-node expected L1-miss service times (view, do not mutate)."""
        return self._l2_round_trip

    def memory_extra_all_s(self) -> np.ndarray:
        """Per-node expected extra L2-miss times (view, do not mutate)."""
        return self._mem_extra

    # ------------------------------------------------------------------ #
    # flows and energy
    # ------------------------------------------------------------------ #

    def _build_miss_usage(self):
        """``(bank_prob, controller_of_bank, miss_usage)``.

        ``bank_prob[node, bank]`` is the home-bank distribution.  S-NUCA
        interleaves cache lines by address, so the bulk of it is uniform
        over all banks; a fraction ``locality`` of accesses instead hits
        the core's neighborhood (own bank and banks within a few hops,
        with exponentially decaying weight) -- modeling the share of
        hits to locally cached/forwarded data, largest for LR
        ("exchanges large data units with nearer cores").
        ``controller_of_bank`` is each bank's nearest memory controller.

        Row ``node`` of ``miss_usage`` is the NoC resource load (bits/s
        per directed link / wireless channel) produced by one miss
        access per second issued at ``node``: control packets to every
        home bank over the latency class, data responses back over the
        bulk class, weighted by the home-bank distribution.
        Registering miss traffic is then one mat-vec over these rows
        (:meth:`add_miss_flows_batch`) instead of 2 * banks per-pair
        path walks per node."""
        from scipy.sparse import csr_matrix

        platform = self.platform
        geometry = platform.layout.geometry
        n = self.num_nodes
        nodes = np.arange(n)
        cols = nodes % geometry.columns
        rows = nodes // geometry.columns
        hops = (
            np.abs(cols[:, None] - cols[None, :])
            + np.abs(rows[:, None] - rows[None, :])
        ).astype(float)
        kernel = np.where(hops <= 3, np.exp(-hops / 0.9), 0.0)
        kernel /= kernel.sum(axis=1, keepdims=True)
        bank_prob = self.locality * kernel + (1.0 - self.locality) / n
        controllers = platform.memory_params.controller_nodes
        controller_of_bank = np.array(
            [
                min(controllers, key=lambda c: (geometry.manhattan_hops(bank, c), c))
                for bank in range(n)
            ]
        )
        fabric = platform.network.fabric
        usage_ctrl = fabric.flow_usage(bulk=False)
        usage_data = fabric.flow_usage(bulk=True)
        num_resources = usage_ctrl.shape[1]
        # Issuer rows are independent, so the rate-matrix products run in
        # row blocks (NocParams.dense_block_nodes) to bound the sparse
        # matmul workspace on large dies; the default single block is the
        # legacy all-rows computation.
        block = platform.noc_params.dense_block_nodes or n
        miss_usage = np.empty((n, num_resources))
        for start in range(0, n, block):
            end = min(start + block, n)
            issuers = np.repeat(np.arange(start, end), n)
            banks = np.tile(np.arange(n), end - start)
            prob = bank_prob[start:end].ravel()
            # (node, node*n + bank) -> ctrl bits/s; (node, bank*n + node)
            # -> data bits/s.  Pair columns follow the flow-usage
            # convention; rows are offset into the block.
            ctrl_rates = csr_matrix(
                (prob * self._ctrl_bits, (issuers - start, issuers * n + banks)),
                shape=(end - start, n * n),
            )
            data_rates = csr_matrix(
                (prob * self._data_bits, (issuers - start, banks * n + issuers)),
                shape=(end - start, n * n),
            )
            miss_usage[start:end] = np.asarray(
                (ctrl_rates @ usage_ctrl + data_rates @ usage_data).todense()
            )
        return bank_prob, controller_of_bank, miss_usage

    def add_miss_flows_batch(self, accesses_per_s: np.ndarray) -> None:
        """Register every core's sustained miss traffic in one mat-vec.

        ``accesses_per_s`` holds one rate per node (zeros allowed);
        equivalent to registering each node's row on its own
        (``tests/sim/kv_oracle.py`` keeps that per-node form)."""
        accesses_per_s = np.asarray(accesses_per_s, dtype=float)
        if accesses_per_s.shape != (self.num_nodes,):
            raise ValueError(
                f"expected {self.num_nodes} per-node rates, "
                f"got shape {accesses_per_s.shape}"
            )
        if (accesses_per_s < 0).any():
            raise ValueError("accesses_per_s must be >= 0")
        if not accesses_per_s.any():
            return
        self.platform.network.apply_resource_load(
            accesses_per_s @ self._miss_usage
        )

    def miss_increments(
        self, nodes: np.ndarray, l2_accesses: np.ndarray, memory_accesses: np.ndarray
    ):
        """``(energy_j, bits, bit_hops, wireless_bits)`` increments of
        tasks' miss traffic issued at *nodes*, one per task, for
        :meth:`repro.noc.energy.NocEnergyModel.fold`.

        Uses the precomputed expectations over the home-bank
        distribution, so each task costs a few multiply-adds."""
        l2 = np.asarray(l2_accesses, dtype=float)
        mem = np.asarray(memory_accesses, dtype=float)
        if (l2 < 0).any() or (mem < 0).any():
            raise ValueError("access counts must be >= 0")
        round_trip_bits = self._ctrl_bits + self._data_bits
        return (
            l2 * self._e_l2[nodes] + mem * self._e_mem[nodes],
            l2 * round_trip_bits + mem * round_trip_bits,
            l2 * self._h_l2[nodes] + mem * self._h_mem[nodes],
            l2 * self._w_l2[nodes] + mem * self._w_mem[nodes],
        )

    def count_miss_flits(self, bit_hops: np.ndarray, wireless_bits: np.ndarray) -> None:
        """Telemetry: expected (possibly fractional) flit-hops of miss
        traffic, per task, onto the medium-level counters only --
        aggregates have no single path."""
        network = self.pairwise.model
        tracer = network._tracer
        flit_bits = network.params.flit_bits
        label = network.trace_label
        for hops, wireless in zip(bit_hops.tolist(), wireless_bits.tolist()):
            tracer.counter_add("noc.flits.wireless", wireless / flit_bits, key=label)
            tracer.counter_add(
                "noc.flits.wired", (hops - wireless) / flit_bits, key=label
            )

    def _build_energy_expectations(self):
        """Expected per-access energy/hops/wireless-bits per source node:
        ``(e_l2, h_l2, w_l2, e_mem, h_mem, w_mem)``.

        Control packets bill against the latency-class paths, data
        responses against the bulk-class paths."""
        pe = self.pairwise
        pb = self.pairwise_bulk
        p = self.bank_prob
        n = self.num_nodes
        ctrl, data = self._ctrl_bits, self._data_bits
        # Memory extra: ctrl bank->controller, data controller->bank.
        mc = self.controller_of_bank
        banks = np.arange(n)
        e_extra = (
            ctrl * pe.energy_per_bit[banks, mc] + data * pb.energy_per_bit[mc, banks]
        )
        h_extra = ctrl * pe.hops[banks, mc] + data * pb.hops[mc, banks]
        w_extra = (
            ctrl * pe.wireless_links[banks, mc]
            + data * pb.wireless_links[mc, banks]
        )
        # L2 round trip: ctrl node->bank (latency class), data bank->node
        # (bulk class).  Requester rows are independent, so the (n, n)
        # expectation products evaluate in row blocks
        # (NocParams.dense_block_nodes); the default single block is the
        # exact legacy computation.
        block = self.platform.noc_params.dense_block_nodes or n
        expectations = tuple(np.empty(n) for _ in range(6))
        e_l2, h_l2, w_l2, e_mem, h_mem, w_mem = expectations
        for start in range(0, n, block):
            end = min(start + block, n)
            rows = slice(start, end)
            prob = p[rows]
            e_round = ctrl * pe.energy_per_bit[rows] + data * pb.energy_per_bit.T[rows]
            h_round = ctrl * pe.hops[rows] + data * pb.hops.T[rows]
            w_round = ctrl * pe.wireless_links[rows] + data * pb.wireless_links.T[rows]
            e_l2[rows] = (prob * e_round).sum(axis=1)
            h_l2[rows] = (prob * h_round).sum(axis=1)
            w_l2[rows] = (prob * w_round).sum(axis=1)
            e_mem[rows] = (prob * e_extra[None, :]).sum(axis=1)
            h_mem[rows] = (prob * h_extra[None, :]).sum(axis=1)
            w_mem[rows] = (prob * w_extra[None, :]).sum(axis=1)
        return expectations
