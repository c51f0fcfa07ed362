"""Memory guard: blocked dense tables on the 256-core die.

The all-pairs static layers (dense latency tables, pairwise energy,
flow-usage matrices, memory-system expectations) are the simulator's
peak-RSS driver at large core counts.  ``NocParams.dense_block_nodes``
walks sources in blocks and stores the tables as float32; this benchmark
measures the additional allocation peak (tracemalloc) of constructing
every static table -- a :class:`repro.sim.memory.MemorySystem`, which
builds its network and triggers the dense latency/bulk tables, both
pairwise-energy tables, both flow-usage matrices, the miss-usage table
and the latency refresh -- on a 256-core die, blocked and unblocked.
Each side is its own platform (``dataclasses.replace`` with the table
layout's ``NocParams``), so it holds the fabric of its own layout.

Acceptance: the blocked peak must sit at least ``MIN_RATIO`` (4x) below
``LEGACY_UNBLOCKED_PEAK_MB``, the unblocked peak of the per-pair Python
builders the forward route walk replaced.  That keeps the blocked peak
under the same ceiling (~51.7 MB) it had beside them.  Today's
unblocked peak is measured and recorded too: the walk builds it without
per-pair Python lists, so it no longer makes a 4x reference.  The
committed ``results/memory_blocked_dense.json`` records every side.
"""

import json
import tracemalloc
from dataclasses import replace

from conftest import write_result

from repro.core.geometry import DieGeometry
from repro.core.platforms import LARGE_DIE_BLOCK_NODES, build_nvfi_mesh
from repro.noc.network import NocParams
from repro.sim.memory import MemorySystem

NUM_CORES = 256
MIN_RATIO = 4.0
#: Unblocked 256-core peak (MB) of the per-pair float64 builders, as
#: committed in ``results/memory_blocked_dense.json`` before the walk.
LEGACY_UNBLOCKED_PEAK_MB = 206.991108
RESULT_NAME = "memory_blocked_dense.json"


def _static_table_peak(block_nodes) -> float:
    """Peak additional bytes while building every static table."""
    params = (
        NocParams() if block_nodes is None
        else replace(NocParams(), dense_block_nodes=block_nodes)
    )
    platform = replace(
        build_nvfi_mesh(DieGeometry.for_cores(NUM_CORES)), noc_params=params
    )
    tracemalloc.start()
    try:
        MemorySystem(platform, locality=0.6)
        return float(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def test_blocked_dense_memory_footprint(results_dir):
    blocked = _static_table_peak(LARGE_DIE_BLOCK_NODES)
    unblocked = _static_table_peak(None)
    ratio = LEGACY_UNBLOCKED_PEAK_MB * 1e6 / blocked
    write_result(results_dir, RESULT_NAME, json.dumps({
        "num_cores": NUM_CORES,
        "block_nodes": LARGE_DIE_BLOCK_NODES,
        "blocked_peak_mb": blocked / 1e6,
        "unblocked_peak_mb": unblocked / 1e6,
        "legacy_unblocked_peak_mb": LEGACY_UNBLOCKED_PEAK_MB,
        "ratio": ratio,
        "unblocked_ratio": unblocked / blocked,
        "min_ratio": MIN_RATIO,
    }, indent=2))
    assert ratio >= MIN_RATIO, (
        f"blocked static tables peak at {blocked / 1e6:.1f} MB, only "
        f"{ratio:.2f}x below the legacy unblocked "
        f"{LEGACY_UNBLOCKED_PEAK_MB:.1f} MB (need >= {MIN_RATIO}x)"
    )
