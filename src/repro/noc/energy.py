"""NoC energy model.

Per-flit energies follow the paper's methodology: switch energy from a
synthesized 65-nm RTL netlist, wireline energy from HSPICE per unit
length, wireless energy from the mm-wave transceiver characterization of
the companion work (Deb et al., IEEE TC 2013).  We use per-*bit* constants
so flit width is a free parameter:

* router traversal (buffering + crossbar + arbitration): ~0.35 pJ/bit/hop;
* wireline traversal: ~1.2 pJ/bit/mm (65-nm global wire with repeaters);
* wireless transmission (TX + RX): ~2.3 pJ/bit regardless of distance
  (Deb et al. report 2.3 pJ/bit for the mm-wave transceiver pair).

The crossover is what the WiNoC exploits: beyond one ~2.5 mm mesh hop the
wire path costs more energy than one wireless transmission, so every
long-range transfer moved onto a wireless shortcut saves energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class NocEnergyParams:
    router_pj_per_bit: float = 0.35
    wire_pj_per_bit_per_mm: float = 1.2
    wireless_pj_per_bit: float = 2.3
    #: Static power per switch (leakage + clock), scaled by V^2 at runtime.
    switch_leakage_w: float = 4.0e-3

    def __post_init__(self) -> None:
        check_positive("router_pj_per_bit", self.router_pj_per_bit)
        check_positive("wire_pj_per_bit_per_mm", self.wire_pj_per_bit_per_mm)
        check_positive("wireless_pj_per_bit", self.wireless_pj_per_bit)
        check_positive("switch_leakage_w", self.switch_leakage_w, allow_zero=True)


class NocEnergyModel:
    """Dynamic NoC energy counters and the switch leakage model.

    Dynamic energy of moving *bits* along a path is the sum of a router
    traversal per hop (plus the ejection router) and the link-specific
    transport term; :class:`repro.noc.dense.PairwiseEnergy` prices it per
    pair and :meth:`fold` accumulates it into these counters.  Static
    energy is charged per switch over the elapsed simulated time by
    :meth:`static_energy`.
    """

    def __init__(self, params: NocEnergyParams = NocEnergyParams()):
        self.params = params
        self.dynamic_joules = 0.0
        self.bits_moved = 0.0
        self.bit_hops = 0.0
        self.wireless_bits = 0.0

    def fold(
        self,
        energy_j: np.ndarray,
        bits: np.ndarray,
        bit_hops: np.ndarray,
        wireless_bits: np.ndarray,
        python_bits: bool = False,
    ) -> None:
        """Add per-transfer increments to the four counters, in order.

        Each argument holds one float64 increment per transfer, in the
        order the transfers are accounted.  Each counter takes one
        ``np.add.accumulate`` seeded with its current value -- a
        strictly sequential float64 recurrence -- so its total carries
        the bits of ``counter += increment`` per transfer.  A total
        holds a numpy float64 once a numpy increment was added; with
        *python_bits* every bits increment stands for a Python float (a
        task cost's), so a Python-float bits total stays one.
        """
        self.dynamic_joules = _accumulate(self.dynamic_joules, energy_j)
        self.bits_moved = _accumulate(self.bits_moved, bits, python_bits)
        self.bit_hops = _accumulate(self.bit_hops, bit_hops)
        self.wireless_bits = _accumulate(self.wireless_bits, wireless_bits)

    def static_energy(
        self, num_switches: int, elapsed_s: float, voltage_scale: float = 1.0
    ) -> float:
        """Leakage/clock energy of the switch fabric over *elapsed_s*."""
        if elapsed_s < 0:
            raise ValueError(f"elapsed_s must be >= 0, got {elapsed_s}")
        return (
            self.params.switch_leakage_w
            * voltage_scale**2
            * num_switches
            * elapsed_s
        )


def _accumulate(total, increments: np.ndarray, python: bool = False):
    """*total* plus every increment in order, as the sequential loop
    ``total += increment`` computes it (the loop's result type too)."""
    if not len(increments):
        return total
    seeded = np.empty(len(increments) + 1)
    seeded[0] = total
    seeded[1:] = increments
    value = np.add.accumulate(seeded)[-1]
    if python and type(total) is float:
        return float(value)
    return value
