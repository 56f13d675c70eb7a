"""The Parallel Frame Interleaving engine (Design 6 / SS 3.2 steps 3-5).

PFI alternates HBM **write phases** and **read phases**.  Each write
phase moves one frame (the head of the tail SRAM's shared FIFO) into the
HBM across all T channels with staggered bank interleaving; each read
phase moves one frame out, cycling over the N outputs.  Because the
memory bandwidth is twice the aggregate line rate, one frame written and
one read per cycle exactly sustains 100% load.

Optional behaviours (the SS 4 latency optimisations and ablation knobs):

- ``padding``: when a write phase finds no full frame, the output with
  the oldest pending batch is flushed as a padded frame [33, 37].
- ``bypass``: when a read phase's output has nothing in the HBM, the
  tail SRAM sends its head-of-line (possibly padded) frame directly to
  the head SRAM, skipping the memory round-trip.
- ``work_conserving_reads``: instead of the paper's strict cycle, skip
  to the next output that has a frame (ablation; strict is the default).
- ``validate_hbm_timing``: check the real command schedule of every
  phase on the timing-checked controller -- any violation raises, at
  the latest when the engine stops.

Frames are ids into the switch's :class:`~repro.core.frames.FrameTable`.
The write phase, the read phase, a frame landing in the HBM and a
frame's delivery to the head SRAM are each one bound method taken
once and queued again (:meth:`~repro.sim.engine.Engine.schedule`);
the frames landing and being delivered wait in FIFOs of ids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ..config import HBMSwitchConfig
from ..constants import HBM4_PHASE_TRANSITION_FRACTION
from ..errors import ConfigError
from ..hbm.controller import HBMController
from ..hbm.interleaving import first_legal_start
from ..hbm.commands import Op
from ..hbm.timing import HBMTiming
from ..sim.engine import Engine
from .address import HBMAddressMap
from .tail_sram import TailSRAM


@dataclass(frozen=True)
class PFIOptions:
    """Behavioural knobs of the PFI engine.

    ``padding_max_wait_ns`` guards *write-phase* padding: a partial frame
    is only padded and written once its oldest batch has waited this
    long.  ``None`` (the default) auto-derives one strict-cyclic service
    round (N x cycle): padding then acts as a latency deadline without
    flooding the HBM with mostly-filler frames at load -- a padded frame
    written during load burns future read slots of its output, whereas a
    *bypass* pad is free (it uses a read slot that would otherwise be
    wasted), so bypass pads unconditionally.
    """

    padding: bool = False
    bypass: bool = False
    work_conserving_reads: bool = False
    validate_hbm_timing: bool = False
    transition_fraction: float = HBM4_PHASE_TRANSITION_FRACTION
    padding_max_wait_ns: Optional[float] = None


@dataclass
class PFICounters:
    """Observable phase statistics."""

    frames_written: int = 0
    frames_read: int = 0
    padded_frames: int = 0
    bypassed_frames: int = 0
    idle_write_phases: int = 0
    wasted_read_slots: int = 0
    write_phases: int = 0
    read_phases: int = 0
    payload_written_bytes: int = 0
    padding_written_bytes: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The counters as a plain dict, in field order."""
        # Every attribute of an instance is one of the fields above.
        return dict(vars(self))


class PFIEngine:
    """Drives the alternating write/read phases of one HBM switch."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        engine: Engine,
        tail: TailSRAM,
        deliver: Callable[[int, float], None],
        address_map: Optional[HBMAddressMap] = None,
        options: PFIOptions = PFIOptions(),
        timing: Optional[HBMTiming] = None,
        controller: Optional[HBMController] = None,
        trace=None,
        faults=None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.engine = engine
        self.tail = tail
        self.frames = tail.frames
        self.deliver = deliver
        self.options = options
        #: Optional :class:`~repro.faults.schedule.SwitchFaultView`.  Lost
        #: HBM channels stretch every phase by T / (T - lost) -- the frame
        #: still stripes over the survivors, just more slowly -- and a
        #: switch with zero surviving channels makes no memory progress.
        self.faults = faults
        self.timing = timing if timing is not None else HBMTiming()
        self.address_map = (
            address_map if address_map is not None else HBMAddressMap(config)
        )
        # Each output's region FIFO, looked up once.
        self._regions = [self.address_map.region(j) for j in range(config.n_ports)]
        if options.validate_hbm_timing:
            if config.speedup != 1.0:
                raise ConfigError(
                    "command-level validation assumes the physical HBM rate; "
                    "it is only meaningful at speedup 1.0"
                )
            self.controller = (
                controller
                if controller is not None
                else HBMController(config.stack, config.n_stacks, self.timing)
            )
        else:
            self.controller = controller
        self.counters = PFICounters()
        self.trace = trace
        #: Optional :class:`~repro.telemetry.SwitchTelemetry` -- records
        #: per-phase spans, per-bank-group histograms and per-channel
        #: byte counters (buffered, folded in bulk); ``None`` costs one
        #: pointer check per phase.
        self.telemetry = telemetry
        #: Ids of the frames readable in the HBM, per output.
        self._hbm_content: List[Deque[int]] = [
            deque() for _ in range(config.n_ports)
        ]
        # The recurring actions (bound once, so queueing one allocates
        # only its heap entry), and the frames (ids) the land and
        # deliver actions act on, in the order they were queued.
        self._write_action = self._write_phase
        self._read_action = self._read_phase
        self._land_action = self._land_frame
        self._deliver_action = self._deliver_frame
        self._landing: Deque[int] = deque()
        self._delivering: Deque[int] = deque()
        # Incremental occupancy: the switch polls these per batch/frame,
        # so they are maintained at enqueue/dequeue time rather than
        # recomputed by scanning every per-output queue.
        #: Frames readable in the HBM (the switch samples it per batch).
        self.hbm_frames = 0
        self._hbm_payload = 0
        self._read_ptr = 0
        self._stopped = False
        # Phase geometry: with speedup s the memory moves a frame in
        # frame_time/s; each phase is followed by a transition gap.
        self.phase_duration = config.frame_write_time_ns / config.speedup
        self.transition = self.phase_duration * options.transition_fraction
        if options.padding_max_wait_ns is None:
            # Auto: several natural frame-fill times (K/P is how long a
            # fully loaded output takes to fill a frame).  Below this
            # age the frame would have filled by itself at moderate
            # load, and padding it early would burn read slots on
            # filler; above it, the output is genuinely light and
            # padding is the right latency cut.
            from ..units import rate_to_bytes_per_ns

            fill_time = config.frame_bytes / rate_to_bytes_per_ns(config.port_rate_bps)
            self.padding_wait_ns = max(
                config.n_ports * self.cycle_duration, 4.0 * fill_time
            )
        else:
            self.padding_wait_ns = options.padding_max_wait_ns

    # -- lifecycle -----------------------------------------------------------

    def start(self, at: float = 0.0) -> None:
        """Schedule the first write phase."""
        start = max(at, first_legal_start(self.timing))
        self.engine.schedule(start, self._write_action)

    def stop(self) -> None:
        """Stop scheduling further phases (end of simulation).

        A validated run checks its last queued phases here.
        """
        self._stopped = True
        if self.options.validate_hbm_timing:
            self.controller.flush()

    @property
    def cycle_duration(self) -> float:
        """One full write+read cycle including transitions."""
        return 2.0 * (self.phase_duration + self.transition)

    def hbm_payload_bytes(self) -> int:
        return self._hbm_payload

    def _memory_stretch(self, now: float) -> Optional[float]:
        """Phase-duration multiplier under channel loss.

        1.0 with no channel faults (bit-identical to the unfaulted
        arithmetic); T / (T - lost) while ``lost`` channels are down;
        ``None`` when no channel survives (the memory is offline and the
        phase moves no data, though the cadence keeps ticking so
        recovery is observed).
        """
        if self.faults is None or not self.faults.has_channel_faults:
            return 1.0
        fraction = self.faults.channel_fraction(now)
        if fraction <= 0.0:
            return None
        return 1.0 / fraction

    def _striped_channels(self, now: float) -> int:
        """Channels a frame stripes over at ``now`` (survivors only)."""
        total = self.config.total_channels
        if self.faults is None or not self.faults.has_channel_faults:
            return total
        return max(1, total - self.faults.channels_lost(now))

    # -- write phase -------------------------------------------------------------

    def _write_phase(self) -> None:
        if self._stopped:
            return
        now = self.engine.now
        self.counters.write_phases += 1
        stretch = self._memory_stretch(now)
        frame = None
        if stretch is not None:
            frame = self.tail.pop_frame(now)
            if frame is None and self.options.padding:
                frame = self._pad_oldest_output(now)
        if frame is not None:
            self._write_frame(frame, now, stretch)
        else:
            self.counters.idle_write_phases += 1
            if self.trace is not None:
                self.trace.record(now, "pfi", "idle_write")
        pace = stretch if stretch is not None else 1.0
        self.engine.schedule(
            now + self.phase_duration * pace + self.transition * pace,
            self._read_action,
        )

    def _pad_oldest_output(self, now: float) -> Optional[int]:
        """Padding policy: flush the output whose pending batch is oldest."""
        oldest = self.tail.oldest_pending()
        if oldest is None:
            return None
        oldest_output, oldest_time = oldest
        if now - oldest_time < self.padding_wait_ns:
            return None
        frame = self.tail.padded_frame_for(oldest_output, now)
        if frame is not None:
            self.counters.padded_frames += 1
        return frame

    def _write_frame(self, frame: int, now: float, stretch: float = 1.0) -> None:
        frames = self.frames
        output = frames.output[frame]
        payload = frames.payload[frame]
        address = self._regions[output].push()
        if self.options.validate_hbm_timing:
            self._execute_schedule(Op.WR, address, now)
        counters = self.counters
        counters.frames_written += 1
        counters.payload_written_bytes += payload
        counters.padding_written_bytes += frames.frame_bytes - payload
        if self.telemetry is not None:
            self.telemetry.hbm_phase(
                True, self.phase_duration * stretch, address.group.index,
                frames.frame_bytes, self._striped_channels(now),
            )
        if self.trace is not None:
            self.trace.record(
                now, "pfi", "write",
                output=output, frame=frames.index[frame],
                group=address.group.index, row=address.row,
                payload=payload,
            )
        # Content becomes readable when the write phase completes.
        self._landing.append(frame)
        self.engine.schedule(now + self.phase_duration * stretch, self._land_action)

    def _land_frame(self) -> None:
        """Write phase completed: the oldest frame written is now
        readable in the HBM."""
        frame = self._landing.popleft()
        self._hbm_content[self.frames.output[frame]].append(frame)
        self.hbm_frames += 1
        self._hbm_payload += self.frames.payload[frame]

    def _deliver_frame(self) -> None:
        """Read phase (or bypass) completed: the oldest frame read
        reaches the head SRAM."""
        self.deliver(self._delivering.popleft(), self.engine.now)

    # -- read phase --------------------------------------------------------------

    def _read_phase(self) -> None:
        if self._stopped:
            return
        now = self.engine.now
        self.counters.read_phases += 1
        stretch = self._memory_stretch(now)
        output = self._select_read_output()
        served = False
        if output is not None:
            served = self._serve_output(output, now, stretch)
        if not served:
            self.counters.wasted_read_slots += 1
            if self.trace is not None:
                self.trace.record(now, "pfi", "wasted_read", output=output)
        pace = stretch if stretch is not None else 1.0
        self.engine.schedule(
            now + self.phase_duration * pace + self.transition * pace,
            self._write_action,
        )

    def _select_read_output(self) -> Optional[int]:
        """Strict cyclic pointer, or first ready output when work-conserving."""
        n = self.config.n_ports
        if not self.options.work_conserving_reads:
            output = self._read_ptr
            self._read_ptr = (self._read_ptr + 1) % n
            return output
        for offset in range(n):
            candidate = (self._read_ptr + offset) % n
            if self._hbm_content[candidate] or (
                self.options.bypass and self.tail.has_data_for(candidate)
            ):
                self._read_ptr = (candidate + 1) % n
                return candidate
        self._read_ptr = (self._read_ptr + 1) % n
        return None

    def _serve_output(
        self, output: int, now: float, stretch: Optional[float] = 1.0
    ) -> bool:
        # stretch None = memory offline: the HBM cannot be read, but the
        # bypass path (tail -> head, no memory round-trip) still can.
        if stretch is not None and self._hbm_content[output]:
            frame = self._hbm_content[output].popleft()
            frames = self.frames
            self.hbm_frames -= 1
            self._hbm_payload -= frames.payload[frame]
            # Writes push and reads pop the region FIFO exactly once per
            # frame, so the popped address is this frame's by induction.
            address = self._regions[output].pop()
            if self.options.validate_hbm_timing:
                self._execute_schedule(Op.RD, address, now)
            self.counters.frames_read += 1
            if self.telemetry is not None:
                self.telemetry.hbm_phase(
                    False, self.phase_duration * stretch, address.group.index,
                    frames.frame_bytes, self._striped_channels(now),
                )
            if self.trace is not None:
                self.trace.record(
                    now, "pfi", "read",
                    output=output, frame=frames.index[frame],
                    group=address.group.index, row=address.row,
                )
            self._delivering.append(frame)
            self.engine.schedule(now + self.phase_duration * stretch, self._deliver_action)
            return True
        if self.options.bypass:
            return self._bypass(output, now)
        return False

    def _bypass(self, output: int, now: float) -> bool:
        """HBM bypass (SS 4): tail sends directly to head for this output."""
        frame = self.tail.pop_frame_for(output, now)
        if frame is None and self.options.padding:
            frame = self.tail.padded_frame_for(output, now)
            if frame is not None:
                self.counters.padded_frames += 1
        if frame is None:
            return False
        frames = self.frames
        frames.bypassed[frame] = True
        self.counters.bypassed_frames += 1
        if self.telemetry is not None:
            self.telemetry.bypassed(self.phase_duration)
        if self.trace is not None:
            self.trace.record(
                now, "pfi", "bypass", output=output, frame=frames.index[frame],
                payload=frames.payload[frame],
            )
        self._delivering.append(frame)
        self.engine.schedule(now + self.phase_duration, self._deliver_action)
        return True

    # -- command-level validation ---------------------------------------------------

    def _execute_schedule(self, op: Op, address, now: float) -> None:
        """Queue this phase's real command schedule on the checked controller.

        The controller checks queued phases a block at a time, and at
        the latest when the engine stops, so a violation surfaces at a
        flush -- before the switch returns its report.
        """
        n_channels = self.controller.n_channels
        if self.faults is not None and self.faults.has_channel_faults:
            # Stripe only over the surviving channels (at least one; the
            # fully offline case never reaches a data phase).
            n_channels = max(1, n_channels - self.faults.channels_lost(now))
        self.controller.queue_frame(
            op,
            n_channels,
            address.group,
            address.row,
            data_start=max(now, first_legal_start(self.timing)),
            segment_bytes=self.config.segment_bytes,
        )
