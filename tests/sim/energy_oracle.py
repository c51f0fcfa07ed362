"""Reference energy fold: the per-call loop.

Before a committed phase's NoC energy folded in one ordered pass
(``SystemSimulator._fold_phase_energy``), each task's committed work
and expected miss energy were recorded one call at a time, and a
barrier phase's key-value transfers one call per transfer, interleaved
per record: each task's miss traffic, then its transfers.  Every call
added its increments to the four ``NocEnergyModel`` counters with
Python ``+=``.  The loop and the per-call recorders it used are kept
verbatim as the oracle: ``tests/sim/test_energy_fold.py`` asserts the
one-pass fold leaves the same counter values and types, the same
``_committed`` array and the same traced flit counters after every
phase.
"""

from __future__ import annotations

import numpy as np


def record_aggregate(network, energy_j, bits, bit_hops, wireless_bits):
    """Feed pre-expected aggregates into *network*'s energy counters."""
    counters = network.energy
    counters.dynamic_joules += energy_j
    counters.bits_moved += bits
    counters.bit_hops += bit_hops
    counters.wireless_bits += wireless_bits
    tracer = network._tracer
    if tracer.enabled:
        flit_bits = network.params.flit_bits
        label = network.trace_label
        tracer.counter_add(
            "noc.flits.wireless", wireless_bits / flit_bits, key=label
        )
        tracer.counter_add(
            "noc.flits.wired", (bit_hops - wireless_bits) / flit_bits, key=label
        )
    return energy_j


def record_miss_energy(memory, node, l2_accesses, memory_accesses):
    """One task's expected miss energy, folded as the per-call
    ``MemorySystem.record_miss_energy`` did."""
    if l2_accesses < 0 or memory_accesses < 0:
        raise ValueError("access counts must be >= 0")
    energy = l2_accesses * memory._e_l2[node] + memory_accesses * memory._e_mem[node]
    bits = (
        l2_accesses * (memory._ctrl_bits + memory._data_bits)
        + memory_accesses * (memory._ctrl_bits + memory._data_bits)
    )
    bit_hops = (
        l2_accesses * memory._h_l2[node] + memory_accesses * memory._h_mem[node]
    )
    wireless = (
        l2_accesses * memory._w_l2[node] + memory_accesses * memory._w_mem[node]
    )
    return record_aggregate(memory.pairwise.model, energy, bits, bit_hops, wireless)


def record_transfer(pairwise, src, dst, bits):
    """One transfer's energy, folded as the per-call
    ``PairwiseEnergy.record`` did."""
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if src == dst or bits == 0:
        return 0.0
    energy = pairwise.energy_per_bit[src, dst] * bits
    counters = pairwise.model.energy
    counters.dynamic_joules += energy
    counters.bits_moved += bits
    counters.bit_hops += bits * pairwise.hops[src, dst]
    counters.wireless_bits += bits * pairwise.wireless_links[src, dst]
    if pairwise.model._tracer.enabled:
        usage = pairwise.model.fabric.flow_usage(pairwise.bulk)
        pair = src * pairwise.model.topology.num_nodes + dst
        links = pairwise.model.topology.links
        pairwise.model._count_flits([
            links[col // 2]
            for col in usage.indices[usage.indptr[pair]:usage.indptr[pair + 1]]
            if col < 2 * len(links)
        ], bits)
    return energy


def fold_phase_energy(simulator, workers, instructions, l2, mem, plan=None):
    """Drop-in for ``SystemSimulator._fold_phase_energy``: the per-call
    loop of map and lib-init phases (``_record_task_energy`` per task)
    and of barrier phases (``_record_kv_phase_energy``)."""
    memory = simulator.memory
    if plan is None:
        for worker, task_instructions, task_l2, task_mem in zip(
            workers, instructions, l2, mem
        ):
            simulator._committed[worker] += task_instructions
            node = simulator.platform.node_of_worker(worker)
            record_miss_energy(memory, node, task_l2, task_mem)
        return
    np.add.at(simulator._committed, workers, plan.instructions)
    bounds = plan.kv_bounds.tolist()
    srcs, bits = plan.kv_src.tolist(), plan.kv_bits.tolist()
    for i, node in enumerate(simulator._worker_nodes[workers].tolist()):
        record_miss_energy(memory, node, plan.l2[i], plan.mem[i])
        for f in range(bounds[i], bounds[i + 1]):
            record_transfer(simulator._bulk_energy, srcs[f], node, bits[f])
