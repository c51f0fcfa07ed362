"""Full-system performance and energy simulation.

Replays a platform-independent :class:`repro.mapreduce.trace.JobTrace` on
a :class:`repro.sim.platform.Platform` (cores + VFI islands + NoC) with a
discrete-event scheduler:

* cores execute tasks at their island's frequency; per-task time is
  compute (instructions / IPC / f) plus memory stalls (L1-miss traffic to
  distributed S-NUCA L2 banks over the NoC, with MLP overlap) plus
  explicit key-value pull streams in Reduce/Merge;
* the Map phase honors Phoenix++ task stealing -- default greedy or the
  paper's Eq. (3)-capped policy -- with steal decisions driven by
  simulated completion times;
* network latencies come from the contention-aware flow model
  (:mod:`repro.noc.network`); each phase is relaxed to a fixed point
  (durations -> flows -> latencies -> durations);
* energy integrates McPAT-style core power over busy/idle time per
  island V/F plus per-bit NoC transfer energy and switch leakage;
* phase boundaries run the runtime controls: a fault plan, a power
  cap, or a per-phase V/F schedule (``SimulationParams.vf_schedule``).

The result object carries everything the paper's figures need: phase
times (Fig. 7), per-core utilization (Figs. 2, 5), full-system and
network-only EDP (Figs. 4, 6, 8).
"""

from repro.sim.adaptive import VfSchedule, phase_adaptive_schedule
from repro.sim.config import CoreParams, MemoryParams, SimulationParams
from repro.sim.memory import MemorySystem
from repro.sim.platform import Platform
from repro.sim.stats import PhaseStats, SimulationResult
from repro.sim.system import SystemSimulator, simulate

__all__ = [
    "VfSchedule",
    "phase_adaptive_schedule",
    "CoreParams",
    "MemoryParams",
    "SimulationParams",
    "MemorySystem",
    "Platform",
    "SystemSimulator",
    "simulate",
    "SimulationResult",
    "PhaseStats",
]
