#!/usr/bin/env python
"""Scalability beyond the paper: 16- to 128-core platforms.

The paper evaluates a single 64-core system.  The whole stack is now
parametric in :class:`repro.core.geometry.DieGeometry` -- mesh shape,
island tiling, wireless-overlay sizing and memory-controller placement
all derive from the die -- so we can ask how the VFI + WiNoC benefit
scales with core count: larger meshes mean longer average paths, which
is precisely where the small-world + wireless fabric earns its keep.

Core counts need not be square: 128 resolves to a 16x8 die
(``DieGeometry.for_cores(128)``), and an 8-island 128-core die is
``DieGeometry.for_cores(128, num_islands=8)``.  Dies above 64 cores
automatically build the dense NoC tables in 64-source blocks with
float32 storage (``NocParams.dense_block_nodes``, see
``noc_params_for``), which keeps the 256-core platform's static-table
peak near 46 MB (measured by
``benchmarks/test_memory_blocked_dense.py``).

Run:  python examples/scalability.py
"""

from repro.analysis.tables import format_table
from repro.core.geometry import DieGeometry
from repro.core.sweep import size_sweep

APP = "wordcount"
#: 128 is rectangular (16x8) -- the sweep resolves it via
#: DieGeometry.for_cores, same as every builder.
SIZES = (16, 36, 64, 128)
#: Large dies at full dataset scale take minutes; trim the datasets so
#: the example stays interactive.
SCALE = 0.3


def main() -> None:
    print(f"Scaling the {APP} study over die sizes (each size runs the "
          "full pipeline)...\n")
    for size in SIZES:
        die = DieGeometry.for_cores(size)
        print(f"  {size:3d} cores -> {die.columns}x{die.rows} die, "
              f"{die.num_islands} islands of "
              f"{die.island_width}x{die.island_height}")
    print()

    sweep = size_sweep(APP, sizes=SIZES, scale=SCALE, seed=7)
    rows = []
    for size, configs in sorted(sweep.rows.items()):
        for config, metrics in configs.items():
            rows.append(
                {
                    "cores": size,
                    "config": config,
                    "time vs NVFI": f"{metrics['time']:.3f}",
                    "EDP vs NVFI": f"{metrics['edp']:.3f}",
                }
            )
    print(format_table(rows))

    print("\nReading: the WiNoC's EDP advantage over the VFI mesh should")
    print("grow with the die size -- average mesh hop count scales with")
    print("the side length while the small-world diameter stays nearly")
    print("flat, so bigger dies leave more latency/energy for the WiNoC")
    print("to recover.")
    for size in sorted(sweep.rows):
        mesh = sweep.rows[size]["vfi2_mesh"]["edp"]
        winoc = sweep.rows[size]["vfi2_winoc"]["edp"]
        print(f"  {size:3d} cores: WiNoC saves {100 * (mesh - winoc):.1f} "
              "EDP points over the VFI mesh")


if __name__ == "__main__":
    main()
