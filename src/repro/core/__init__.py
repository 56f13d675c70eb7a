"""The paper's contribution: Split-Parallel Switch + HBM switch + PFI.

Layout mirrors Fig. 1 (package level) and Fig. 3 (switch level):

- :mod:`fiber_split` / :mod:`sps` -- the top-level Split-Parallel Switch:
  passive fiber splitting across H independent HBM switches.
- :mod:`frames` -- batches (4 KB) and frames (512 KB): PFI's aggregation
  units, held by a switch as rows of a batch table and a frame table.
- :mod:`crossbar` -- the N x N cyclical crossbar (and the SDM-mesh
  alternative) that stripes batch slices across SRAM modules with no
  scheduling.
- :mod:`input_port` / :mod:`tail_sram` / :mod:`head_sram` /
  :mod:`output_port` -- the six-stage pipeline of Fig. 3.
- :mod:`address` -- the no-bookkeeping HBM FIFO region addressing.
- :mod:`pfi` -- the Parallel Frame Interleaving engine: write/read phase
  alternation, staggered bank interleaving, padding and bypass.
- :mod:`ingest` -- the array-native arrival cursor: arrivals stay numpy
  arrays and are never heap events.
- :mod:`hbm_switch` -- the discrete-event simulation wiring it together.
"""

from .address import FrameAddress, HBMAddressMap, OutputRegionFifo
from .crossbar import CyclicalCrossbar, SDMMesh
from .fiber_split import (
    ContiguousSplitter,
    FiberSplitter,
    PseudoRandomSplitter,
    per_switch_loads,
    split_imbalance,
)
from .frames import Batch, BatchAssembler, BatchTable, Frame, FrameAssembler, FrameTable
from .hbm_switch import HBMSwitch, SwitchReport
from .pfi import PFIEngine, PFIOptions
from .sps import SplitParallelSwitch, RouterReport

__all__ = [
    "Batch",
    "BatchAssembler",
    "BatchTable",
    "Frame",
    "FrameAssembler",
    "FrameTable",
    "FrameAddress",
    "OutputRegionFifo",
    "HBMAddressMap",
    "CyclicalCrossbar",
    "SDMMesh",
    "FiberSplitter",
    "ContiguousSplitter",
    "PseudoRandomSplitter",
    "per_switch_loads",
    "split_imbalance",
    "PFIOptions",
    "PFIEngine",
    "HBMSwitch",
    "SwitchReport",
    "SplitParallelSwitch",
    "RouterReport",
]
