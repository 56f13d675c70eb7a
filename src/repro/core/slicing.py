"""Module-level tail/head SRAM model (Fig. 3's N physical modules).

The event simulation tracks batches and frames *logically*; the physical
design stores every batch as N slices across N SRAM modules, striped by
the cyclical crossbar, with per-output queues inside every module.  This
module models that physical organisation so tests can verify the
structural claims of SS 3.2 step 2:

- every batch contributes exactly one k/N-byte slice to every module;
- each module's per-output queue depth equals the logical queue depth
  (the modules stay in lockstep, "all modules doing so for the same
  frame in a staggered way");
- a frame slice is K/N bytes in each module, and the per-module
  occupancy is always exactly 1/N of the logical tail occupancy.

:class:`SlicedTailModel` consumes the same batch/frame event stream as
the logical :class:`~repro.core.tail_sram.TailSRAM` (it can shadow a
live simulation via the trace hook or be driven directly) and exposes
the per-module state for assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..config import HBMSwitchConfig
from ..errors import ConfigError, SimulationError
from .crossbar import CyclicalCrossbar
from .frames import Batch, Frame


@dataclass
class ModuleState:
    """One physical SRAM module: per-output slice queues."""

    index: int
    slice_bytes: int
    queues: Dict[int, int] = field(default_factory=dict)  # output -> slices
    frame_slices: int = 0  # completed frame slices awaiting a write phase

    @property
    def pending_bytes(self) -> int:
        """Bytes in not-yet-promoted batch slices."""
        return sum(self.queues.values()) * self.slice_bytes

    def slices_for(self, output: int) -> int:
        return self.queues.get(output, 0)


class SlicedTailModel:
    """The N-module physical view of the tail SRAM."""

    def __init__(self, config: HBMSwitchConfig):
        self.config = config
        self.crossbar = CyclicalCrossbar(config.n_ports)
        self.slice_bytes = config.slice_bytes
        self.modules: List[ModuleState] = [
            ModuleState(index=m, slice_bytes=config.slice_bytes)
            for m in range(config.n_ports)
        ]
        self._slot = 0
        self.batches_seen = 0
        self.frames_formed = 0

    # -- event intake ------------------------------------------------------------

    def on_batch(self, batch: Batch) -> None:
        """A batch crossed the crossbar: one slice lands in every module.

        The slot-level schedule (slice s at the slot where the input
        faces module s) is compressed to its end state here; the
        contention-freedom of the schedule itself is the crossbar
        permutation property, unit-tested separately.
        """
        if batch.size_bytes != self.config.batch_bytes:
            raise ConfigError(
                f"batch of {batch.size_bytes} B in a {self.config.batch_bytes}-B design"
            )
        for module in self.modules:
            module.queues[batch.output] = module.queues.get(batch.output, 0) + 1
        self.batches_seen += 1
        self._slot += self.config.n_ports  # one batch = N slice slots

    def on_frame(self, frame: Frame) -> None:
        """A frame completed: every module promotes K/k slices in lockstep."""
        per_frame = self.config.batches_per_frame
        for module in self.modules:
            have = module.queues.get(frame.output, 0)
            if have < len(frame.batches):
                raise SimulationError(
                    f"module {module.index} holds {have} slices for output "
                    f"{frame.output}, frame needs {len(frame.batches)}"
                )
            module.queues[frame.output] = have - len(frame.batches)
            module.frame_slices += 1
        self.frames_formed += 1

    def on_frame_written(self) -> None:
        """A write phase consumed one frame slice from every module."""
        for module in self.modules:
            if module.frame_slices <= 0:
                raise SimulationError(
                    f"module {module.index} has no frame slice to write"
                )
            module.frame_slices -= 1

    # -- invariants ---------------------------------------------------------------

    def assert_lockstep(self) -> None:
        """All modules hold identical per-output queue depths."""
        reference = self.modules[0].queues
        for module in self.modules[1:]:
            if module.queues != reference:
                raise SimulationError(
                    f"module {module.index} diverged: {module.queues} != {reference}"
                )

    def per_module_share(self, logical_pending_bytes: int) -> float:
        """Each module's pending bytes over the logical total (should be 1/N)."""
        self.assert_lockstep()
        module_bytes = sum(self.modules[0].queues.values()) * self.slice_bytes
        if logical_pending_bytes == 0:
            return 0.0
        return module_bytes / logical_pending_bytes

    def frame_slice_bytes(self) -> int:
        """Size of one module's share of a frame: K/N."""
        return self.config.frame_bytes // self.config.n_ports
