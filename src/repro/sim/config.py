"""Simulation configuration: core, memory-hierarchy and solver parameters.

Defaults reflect the paper's GEM5 setup (Sec. 7): x86-class cores, 64 KB
private L1s, a 32 MB shared L2 distributed as one 512 KB S-NUCA bank per
core, MOESI directory coherence, four memory controllers at the die
corners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# Imported from the leaf module (not the ``repro.faults`` package) so the
# faults engine can in turn import the platform without a cycle.
from repro.faults.spec import FaultPlan
from repro.power.spec import PowerCapSpec
from repro.sim.adaptive import VfSchedule
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CoreParams:
    """Core microarchitecture abstraction."""

    #: Sustained instructions per cycle on compute-bound code.
    ipc: float = 1.8
    #: Issue width; the paper's utilization metric is committed
    #: instructions per cycle normalized by issue width (Sec. 4.1).
    issue_width: float = 2.0
    #: Memory-level parallelism: how many outstanding misses overlap, i.e.
    #: the divisor applied to raw miss round-trip time when charging
    #: stall cycles.
    mlp_overlap: float = 3.0

    def __post_init__(self) -> None:
        check_positive("ipc", self.ipc)
        check_positive("issue_width", self.issue_width)
        check_positive("mlp_overlap", self.mlp_overlap)
        if self.ipc > self.issue_width:
            raise ValueError(
                f"ipc {self.ipc} cannot exceed issue width {self.issue_width}"
            )


@dataclass(frozen=True)
class MemoryParams:
    """Cache/memory hierarchy parameters."""

    #: L2 bank access time (cycles at the bank's island clock).
    l2_bank_cycles: float = 12.0
    #: DRAM access time at the memory controller (seconds; off-chip,
    #: frequency independent).
    dram_latency_s: float = 50e-9
    #: MOESI directory overhead: average extra control messages per miss
    #: (invalidations, acks, forwards), as a multiplier on control bits.
    coherence_control_factor: float = 1.4
    #: Memory-controller nodes (die corners on the 8x8 grid).
    controller_nodes: Tuple[int, ...] = (0, 7, 56, 63)

    def __post_init__(self) -> None:
        check_positive("l2_bank_cycles", self.l2_bank_cycles)
        check_positive("dram_latency_s", self.dram_latency_s)
        check_positive("coherence_control_factor", self.coherence_control_factor)
        if not self.controller_nodes:
            raise ValueError("need at least one memory controller node")


@dataclass(frozen=True)
class SimulationParams:
    """Solver knobs.

    Phase relaxation (durations -> flows -> latencies) iterates until the
    phase end time changes by at most ``relaxation_rtol`` relative to the
    phase duration, bounded by ``max_relaxation_iterations`` rounds; the
    converged schedule is committed directly -- no extra scheduling
    pass.
    """

    #: KV stream chunking granularity (bytes per packet payload).
    kv_chunk_bytes: float = 256.0
    #: Relative tolerance on the phase end time for relaxation.
    relaxation_rtol: float = 1e-5
    #: Upper bound on relaxation rounds (safety net for oscillating
    #: fixed points).
    max_relaxation_iterations: int = 10
    #: Timed degradation events injected into the run; ``None`` (or an
    #: empty plan) is the bit-identical fault-free simulator.
    fault_plan: Optional[FaultPlan] = None
    #: Runtime power budget the cap governor enforces at phase
    #: boundaries; ``None`` (or the unbounded spec) is the bit-identical
    #: uncapped simulator.
    power_cap: Optional[PowerCapSpec] = None
    #: Per-phase island V/F schedule (:mod:`repro.sim.adaptive`) applied
    #: at phase boundaries; ``None`` keeps the platform's assignment.  It
    #: does not combine with a non-empty fault plan or a bounded cap.
    vf_schedule: Optional[VfSchedule] = None

    def __post_init__(self) -> None:
        check_positive("kv_chunk_bytes", self.kv_chunk_bytes)
        if self.relaxation_rtol is None:
            raise ValueError("relaxation_rtol must be a float > 0, got None")
        check_positive("relaxation_rtol", self.relaxation_rtol)
        check_positive("max_relaxation_iterations", self.max_relaxation_iterations)
