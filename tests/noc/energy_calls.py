"""Single transfers and single tasks through the batch energy API.

The simulator accounts NoC energy in batches: per-transfer increments
(:meth:`repro.noc.dense.PairwiseEnergy.increments`,
:meth:`repro.sim.memory.MemorySystem.miss_increments`) folded into the
four counters in one ordered pass
(:meth:`repro.noc.energy.NocEnergyModel.fold`).  Unit tests that
account one transfer at a time drive that same API with a batch of one.
"""

import numpy as np


def fold_transfer(pairwise, src, dst, bits) -> float:
    """Fold one transfer of *bits* from *src* to *dst*; its energy (J).

    With a tracer enabled, its flit counters are emitted too."""
    src_a, dst_a = np.array([src]), np.array([dst])
    energy, moved, bit_hops, wireless = pairwise.increments(src_a, dst_a, [bits])
    pairwise.model.energy.fold(energy, moved, bit_hops, wireless)
    if pairwise.model._tracer.enabled:
        pairwise.count_flits(src_a, dst_a, moved)
    return float(energy[0])


def fold_miss(memory, node, l2_accesses, memory_accesses) -> float:
    """Fold one task's expected miss traffic issued at *node*; its
    energy (J)."""
    increments = memory.miss_increments(
        np.array([node]), [l2_accesses], [memory_accesses]
    )
    memory.pairwise.model.energy.fold(*increments)
    return float(increments[0][0])
