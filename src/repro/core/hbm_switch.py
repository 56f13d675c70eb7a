"""The HBM switch: a discrete-event simulation of Fig. 3's pipeline.

Stages and their timing:

1. Packets arrive at input ports (O/E already done); batches form.
   Arrivals are numpy blocks read by the switch's ingest cursor
   (:mod:`repro.core.ingest`), never one event each.
2. Each port sends one batch per batch-time over the cyclical crossbar;
   a batch lands in the tail SRAM one batch-time after it leaves, and
   the port sends its next batch at that instant -- one heap entry per
   batch, queuing the port's one crossing event again.
3. The tail SRAM aggregates frames; the PFI engine alternates HBM write
   and read phases (one frame each way per cycle).
4. Read frames land in the head SRAM and drain onto the output line at
   port rate, in FIFO order; padding is discarded before the wire.

Batches and frames are columns, not objects: rows of the switch's
:class:`~repro.core.frames.BatchTable` and
:class:`~repro.core.frames.FrameTable`, named by integer ids that every
stage queues and passes on, and freed when the frame is on the wire.  A
port has at most one batch in flight, so the crossing event of each
port is built once and the batch it carries waits in a per-port slot.

The simulation conserves bytes exactly: offered = delivered + dropped +
residual (still queued), which :meth:`HBMSwitch.audit` verifies and the
integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..config import HBMSwitchConfig
from ..errors import ConfigError, SimulationError
from ..hbm.timing import HBMTiming
from ..sim.engine import Engine
from ..sim.stats import LatencyRecorder, nan_to_none
from ..traffic.packet import Packet
from ..traffic.stream import ArrivalBlock, arrival_order
from ..units import bytes_per_ns_to_rate
from .address import HBMAddressMap
from .frames import BatchTable, FrameTable
from .head_sram import HeadSRAM
from .ingest import Ingest
from .input_port import InputPort
from .output_port import FlowIndex, OutputPort
from .pfi import PFICounters, PFIEngine, PFIOptions
from .tail_sram import TailSRAM


@dataclass
class SwitchReport:
    """Everything a bench needs from one simulation run."""

    duration_ns: float
    offered_bytes: int
    offered_packets: int
    delivered_bytes: int
    delivered_packets: int
    dropped_bytes: int
    residual_bytes: int
    throughput_bps: float
    capacity_bps: float
    latency: Dict[str, float]
    latency_breakdown: Dict[str, float]
    ordering_violations: int
    pfi: PFICounters
    input_sram_peak_bytes: int
    tail_sram_peak_bytes: int
    head_sram_peak_bytes: int
    hbm_peak_frames: int
    drops_by_reason: Dict[str, int] = field(default_factory=dict)
    #: Serialised per-switch :class:`~repro.telemetry.MetricsRegistry`
    #: dump (``None`` when the run was not instrumented).  A plain dict
    #: so reports stay picklable across the process pool.
    telemetry: Optional[Dict] = None

    @property
    def normalized_throughput(self) -> float:
        """Delivered rate over aggregate port capacity."""
        if self.capacity_bps <= 0:
            return 0.0
        return self.throughput_bps / self.capacity_bps

    @property
    def delivery_fraction(self) -> float:
        """Delivered bytes over offered bytes (1.0 = lossless + drained)."""
        if self.offered_bytes <= 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-safe dict: every field in field order
        (the two latency dicts with NaN as ``None``), then the two
        derived fractions.  The telemetry dump is shared, not copied:
        it is already plain JSON data."""
        return {
            "duration_ns": self.duration_ns,
            "offered_bytes": self.offered_bytes,
            "offered_packets": self.offered_packets,
            "delivered_bytes": self.delivered_bytes,
            "delivered_packets": self.delivered_packets,
            "dropped_bytes": self.dropped_bytes,
            "residual_bytes": self.residual_bytes,
            "throughput_bps": self.throughput_bps,
            "capacity_bps": self.capacity_bps,
            "latency": nan_to_none(self.latency),
            "latency_breakdown": nan_to_none(self.latency_breakdown),
            "ordering_violations": self.ordering_violations,
            "pfi": self.pfi.to_dict(),
            "input_sram_peak_bytes": self.input_sram_peak_bytes,
            "tail_sram_peak_bytes": self.tail_sram_peak_bytes,
            "head_sram_peak_bytes": self.head_sram_peak_bytes,
            "hbm_peak_frames": self.hbm_peak_frames,
            "drops_by_reason": dict(self.drops_by_reason),
            "telemetry": self.telemetry,
            "normalized_throughput": self.normalized_throughput,
            "delivery_fraction": self.delivery_fraction,
        }


class HBMSwitch:
    """One N x N shared-memory HBM switch running PFI."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        options: PFIOptions = PFIOptions(),
        timing: Optional[HBMTiming] = None,
        input_sram_capacity: Optional[int] = None,
        tail_sram_capacity: Optional[int] = None,
        n_egress_fibers: int = 4,
        n_egress_wavelengths: int = 16,
        address_map=None,
        trace=None,
        fib=None,
        faults=None,
        telemetry=None,
        latency_sample_cap: Optional[int] = None,
    ) -> None:
        self.config = config
        self.options = options
        self.timing = timing if timing is not None else HBMTiming()
        self.engine = Engine()
        #: Every batch and frame in the switch, as columns (ids).
        self.batches = BatchTable(config.batch_bytes)
        self.frames = FrameTable(self.batches, config.frame_bytes)
        self.inputs = [
            InputPort(config, i, input_sram_capacity, self.batches)
            for i in range(config.n_ports)
        ]
        self.tail = TailSRAM(config, tail_sram_capacity, self.frames)
        self.head = HeadSRAM(config, self.frames)
        #: Optional :class:`~repro.telemetry.SwitchTelemetry` -- every
        #: instrumented call site guards on ``self.telemetry is not
        #: None``, so a run without telemetry pays one pointer check.
        self.telemetry = telemetry
        self._batch_time_ns = config.batch_time_ns
        self._batch_bytes = config.batch_bytes
        #: Bound on retained latency samples per output recorder
        #: (seeded reservoir; see :class:`~repro.sim.stats.LatencyRecorder`).
        #: ``None`` -- the default everywhere -- keeps every sample and
        #: the historical bit-exact statistics; internet-scale streaming
        #: runs (10^7+ packets) set it to keep memory flat.
        self._latency_sample_cap = latency_sample_cap
        #: Flow interning, egress lanes and flow-order state, shared
        #: by the output ports.
        self.flows = FlowIndex(config.n_ports, n_egress_fibers, n_egress_wavelengths)
        self.outputs = [
            OutputPort(
                config, j, n_egress_fibers, n_egress_wavelengths, telemetry,
                latency_sample_cap=latency_sample_cap, flows=self.flows,
                frames=self.frames,
            )
            for j in range(config.n_ports)
        ]
        # Static per-output regions by default; pass a
        # DynamicPageAllocator for the SS 3.2 dynamic-paging option.
        self.address_map = address_map if address_map is not None else HBMAddressMap(config)
        self.trace = trace
        #: Optional FIB: when set, the input-port processing chiplet
        #: classifies each packet by destination address (SS 3.2 step 1)
        #: instead of trusting the pre-set output.
        self.fib = fib
        #: Optional :class:`~repro.faults.schedule.SwitchFaultView` --
        #: this switch's slice of a fault schedule.  ``None`` (or a
        #: trivial view) keeps every stage on the exact unfaulted path.
        self.faults = faults if faults is not None and not faults.is_trivial else None
        if self.faults is not None and self.faults.has_oeo_faults:
            for output in self.outputs:
                output.rate_factor_fn = self.faults.oeo_rate_factor
        self.pfi = PFIEngine(
            config=config,
            engine=self.engine,
            tail=self.tail,
            deliver=self._deliver_frame,
            address_map=self.address_map,
            options=options,
            timing=self.timing,
            trace=trace,
            faults=self.faults,
            telemetry=telemetry,
        )
        self._draining = [False] * config.n_ports
        # Per port: the batch (id) on the crossbar, and the actions that
        # start its drain and land its crossing, built once.
        self._inflight = [-1] * config.n_ports
        self._drain_actions = [partial(self._drain, p) for p in range(config.n_ports)]
        self._cross_actions = [partial(self._cross, p) for p in range(config.n_ports)]
        #: The arrival cursor the engine reads (no heap event per arrival).
        self._ingest = Ingest(self)
        self.engine.attach_arrivals(self._ingest)
        self._rows_offered = 0
        self._inflight_batch_payload = 0
        self._offered_bytes = 0
        self._offered_packets = 0
        self._hbm_peak_frames = 0
        # Incremental residual: payload accepted into the switch but not
        # yet on the wire.  Maintained at the three points where payload
        # crosses the switch boundary (accept, drop, transmit) so the
        # drain loop does not rescan every queue per iteration.
        self._residual_payload = 0

    # -- stage plumbing -------------------------------------------------------

    def _record_drop(self, reason: str, port: int, output: int, size: int, now: float) -> None:
        """Telemetry/trace for one dropped arrival."""
        if self.telemetry is not None:
            self.telemetry.dropped(reason, size, now)
        if self.trace is not None:
            self.trace.record(
                now, "switch", "drop",
                reason=reason, input=port, output=output, size=size,
            )

    def _emit(self, port_index: int, batches, now: float) -> bool:
        """Queue batches (ids) an arrival completed; True when this
        starts the port's crossbar drain (an internal event at ``now``)."""
        port = self.inputs[port_index]
        if self.telemetry is not None:
            self.telemetry.batches_formed(self.batches, batches)
        for batch in batches:
            port.enqueue(batch)
            if self.trace is not None:
                self.trace.record(
                    now, "switch", "batch_formed",
                    input=port_index, output=self.batches.output[batch],
                    payload=self.batches.payload[batch],
                    packets=self.batches.count[batch],
                )
        if self._draining[port_index]:
            return False
        self._schedule_drain(port_index, now)
        return True

    def _schedule_drain(self, port_index: int, at: float) -> None:
        self._draining[port_index] = True
        self.engine.schedule(at, self._drain_actions[port_index])

    def _drain(self, port_index: int) -> None:
        """Send the port's next batch across the crossbar, or stop
        draining when its FIFO is empty."""
        now = self.engine.now
        batch = self.inputs[port_index].pop_batch(now, self._ingest.occupancy(port_index))
        if batch is None:
            self._draining[port_index] = False
            return
        self._ingest.moved(port_index, -self._batch_bytes)
        self._inflight[port_index] = batch
        self._inflight_batch_payload += self.batches.payload[batch]
        self.engine.schedule(now + self._batch_time_ns, self._cross_actions[port_index])

    def _cross(self, port_index: int) -> None:
        """One batch time after it left, the port's batch lands in the
        tail SRAM, then the port sends its next one.

        One event for both steps: they share a timestamp, and as two
        events they took adjacent sequence numbers, so nothing could
        fire between them.  The ``repro_engine_events`` gauge still
        counts a crossing as two events.
        """
        if self.telemetry is not None:
            self.telemetry.crossings += 1
        batch = self._inflight[port_index]
        batches = self.batches
        payload = batches.payload[batch]
        output = batches.output[batch]
        self._inflight_batch_payload -= payload
        now = self.engine.now
        if self.trace is not None:
            self.trace.record(now, "switch", "batch", output=output, payload=payload)
        tail = self.tail
        dropped_before = tail.drops.dropped_bytes
        frame = tail.on_batch(batch, now)
        dropped = tail.drops.dropped_bytes - dropped_before
        if dropped:
            self._residual_payload -= dropped
            if self.telemetry is not None:
                self.telemetry.dropped("tail-sram-overflow", dropped, now)
            if self.trace is not None:
                self.trace.record(
                    now, "switch", "drop",
                    reason="tail-sram-overflow", output=output,
                    size=dropped,
                )
        elif frame is not None and self.trace is not None:
            self.trace.record(
                now, "switch", "frame_formed",
                output=output, frame=self.frames.index[frame],
                payload=self.frames.payload[frame],
            )
        peak = self.pfi.hbm_frames
        if peak > self._hbm_peak_frames:
            self._hbm_peak_frames = peak
        self._drain(port_index)

    def _deliver_frame(self, frame: int, at: float) -> None:
        """Read-phase (or bypass) completion: frame reaches the head SRAM."""
        frames = self.frames
        output = frames.output[frame]
        self.head.on_frame(frame, at)
        queued = self.head.pop_frame(output, at)
        if queued is None:
            raise SimulationError("head SRAM lost a frame it just accepted")
        finish = self.outputs[output].transmit_frame(queued, at)
        self._residual_payload -= frames.payload[queued]
        if self.trace is not None:
            self.trace.record(
                at, "switch", "deliver",
                output=output, frame=frames.index[frame],
                bypassed=frames.bypassed[frame], wire_done=finish,
            )
        frames.release(queued)

    # -- accounting --------------------------------------------------------------

    @property
    def tracked_residual_bytes(self) -> int:
        """O(1) incremental residual, maintained at accept/drop/transmit.

        Equals :meth:`residual_payload_bytes` whenever the engine is at
        an event boundary; the full rescan stays the audit ground truth.
        """
        return self._residual_payload

    def residual_payload_bytes(self) -> int:
        """Payload still inside the switch (queues + flight), by rescan."""
        for port in self.inputs:
            port.position = self._ingest.position
        input_bytes = sum(p.partial_bytes for p in self.inputs)
        payload = self.batches.payload
        input_fifo = sum(payload[batch] for p in self.inputs for batch in p.fifo)
        tail_pending = sum(
            payload[batch]
            for assembler in self.tail._assemblers
            for batch in assembler.pending
        )
        tail_fifo = sum(self.frames.payload[frame] for frame in self.tail.frame_fifo)
        hbm = self.pfi.hbm_payload_bytes()
        head = self.head.payload_backlog_bytes()
        return (
            input_bytes
            + input_fifo
            + self._inflight_batch_payload
            + tail_pending
            + tail_fifo
            + hbm
            + head
        )

    def dropped_bytes(self) -> int:
        return sum(p.drops.dropped_bytes for p in self.inputs) + self.tail.drops.dropped_bytes

    def audit(self) -> Dict[str, int]:
        """Byte-conservation snapshot: offered = delivered + dropped + residual."""
        delivered = sum(o.throughput.total_bytes for o in self.outputs)
        snapshot = {
            "offered": self._offered_bytes,
            "delivered": delivered,
            "dropped": self.dropped_bytes(),
            "residual": self.residual_payload_bytes(),
        }
        snapshot["balance"] = (
            snapshot["offered"]
            - snapshot["delivered"]
            - snapshot["dropped"]
            - snapshot["residual"]
        )
        return snapshot

    # -- the run loop -------------------------------------------------------------

    def run(
        self,
        packets: Sequence[Packet],
        duration_ns: float,
        drain: bool = True,
    ) -> SwitchReport:
        """Simulate ``packets`` over ``[0, duration_ns)`` and report.

        With ``drain=True`` the simulation keeps running (no new
        arrivals) until the switch empties or the drain deadline passes,
        so latency statistics cover every delivered packet.

        The Packet-list entry point: the list becomes one
        :class:`~repro.traffic.stream.ArrivalBlock` (arrivals stably
        sorted by time) and runs as a one-block stream.  Each delivered
        packet gets its ``departure_ns`` and egress ``fiber`` /
        ``wavelength`` written back once the run ends.
        """
        ordered = [packets[k] for k in arrival_order(packets)]
        departures = np.zeros(len(ordered))
        lanes = np.full(len(ordered), -1, dtype=np.int64)
        for output in self.outputs:
            output.record = (departures, lanes)
        self.stream_begin()
        self.stream_offer(ArrivalBlock.from_packets(ordered, duration_ns), duration_ns)
        report = self.stream_finish(duration_ns, drain)
        for output in self.outputs:
            output.record = None
        wavelengths = self.flows.ecmp.n_wavelengths
        for packet, departure, lane in zip(ordered, departures.tolist(), lanes.tolist()):
            if lane >= 0:
                packet.departure_ns = departure
                packet.fiber, packet.wavelength = divmod(lane, wavelengths)
        return report

    # -- streaming ingest ---------------------------------------------------------

    def stream_begin(self) -> None:
        """Start the PFI engine ahead of the first ``stream_offer``.

        Arrivals outrank the PFI's internal events at equal timestamps,
        so offering after the start fires the same events in the same
        order as offering before it would.
        """
        self.pfi.start()

    def stream_offer(self, block: ArrivalBlock, duration_ns: float) -> None:
        """Queue one block's arrivals (those inside ``[0, duration_ns)``).

        Blocks must be fed in time order; an arrival before the
        engine's current time raises
        :class:`~repro.errors.SimulationError`, and a port outside the
        switch's N ports :class:`~repro.errors.ConfigError`.
        """
        n = len(block)
        positions = np.arange(self._rows_offered, self._rows_offered + n)
        self._rows_offered += n
        if n and block.times[-1] >= duration_ns:
            keep = block.times < duration_ns
            block = block.select(keep)
            positions = positions[keep]
        if not len(block):
            return
        n_ports = self.config.n_ports
        if block.inputs.max() >= n_ports or (
            self.fib is None and block.outputs.max() >= n_ports
        ):
            raise ConfigError(
                f"arrival ports must be below the switch's {n_ports} ports, got "
                f"input {int(block.inputs.max())} / output {int(block.outputs.max())}"
            )
        if block.times[0] < self.engine.now:
            raise SimulationError(
                f"arrival at t={block.times[0]:.3f} ns offered after the "
                f"engine reached {self.engine.now:.3f} ns"
            )
        self._offered_bytes += block.total_bytes
        self._offered_packets += len(block)
        self._ingest.offer(block, positions)

    def stream_advance(self, until: float) -> None:
        """Run the pipeline up to -- but excluding -- ``until``.

        Events at exactly ``until`` stay queued: the next block may
        carry arrivals at that instant, and they must be ingested
        before the boundary's internal events fire.
        """
        self.engine.run(until=until, inclusive=False)

    def stream_finish(self, duration_ns: float, drain: bool = True) -> SwitchReport:
        """Final boundary: fire events at ``duration_ns``, drain, report."""
        self.engine.run(until=duration_ns)
        if drain:
            self._run_drain(duration_ns)
        self.pfi.stop()
        # Let already-scheduled deliveries and transfers land.
        self.engine.run()
        return self._report(duration_ns)

    def run_stream(
        self, blocks, duration_ns: float, drain: bool = True
    ) -> SwitchReport:
        """Simulate a stream of arrival blocks; byte-identical to :meth:`run`.

        ``blocks`` is any iterable of
        :class:`~repro.traffic.stream.ArrivalBlock` (typically
        ``source.blocks(duration_ns)``).  Each block is offered and the
        engine advanced to the block boundary before the next block is
        pulled, so at most one block of arrivals is held at a time --
        the bounded-memory ingest path.
        """
        self.stream_begin()
        for block in blocks:
            self.stream_offer(block, duration_ns)
            self.stream_advance(min(block.end_ns, duration_ns))
        return self.stream_finish(duration_ns, drain)

    def _run_drain(self, duration_ns: float) -> None:
        if self.options.padding:
            for port in self.inputs:
                batches = port.flush_partials(self.engine.now)
                self._ingest.moved(
                    port.port,
                    sum(self._batch_bytes - self.batches.payload[b] for b in batches),
                )
                if batches and not self._draining[port.port]:
                    self._schedule_drain(port.port, self.engine.now)
        # Worst case the whole backlog drains at the slowest stage; a
        # generous deadline that still terminates.
        deadline = duration_ns + (50.0 * duration_ns + 1e6)
        check_every = self._drain_check_interval()
        while self.engine.now < deadline and self._residual_payload > 0:
            before = self._residual_payload
            self.engine.run(until=self.engine.now + check_every)
            if self._residual_payload == before and not self.options.padding:
                # Without padding, sub-frame residue can never drain.
                break

    def _drain_check_interval(self) -> float:
        """How often the drain loop re-checks the residual.

        A few PFI cycles / batch times; guarded against degenerate
        configurations whose cycle durations collapse to zero (the loop
        would otherwise spin at a fixed ``engine.now`` forever).
        """
        interval = max(self.pfi.cycle_duration * 4, self.config.batch_time_ns * 8)
        if interval <= 0.0:
            return 1.0
        return interval

    def _report(self, duration_ns: float) -> SwitchReport:
        # Unbounded recorders absorb into an unbounded roll-up exactly
        # as the historical per-sample loop did; when a sample cap is
        # set, the capped roll-up keeps count/mean/max exact via the
        # running accumulators and estimates percentiles from the
        # merged reservoir.
        latency = LatencyRecorder(capacity=self._latency_sample_cap)
        delivered_packets = 0
        for output in self.outputs:
            latency.absorb(output.latency)
            delivered_packets += len(output.latency)
        # Count-weighted mean of each pipeline-stage component.  Only
        # outputs with samples contribute (an empty recorder's mean is
        # NaN); a stage with no samples anywhere reports NaN, not a
        # fake 0.0.
        breakdown: Dict[str, float] = {}
        for stage in ("batch_fill", "frame_fill", "hbm_wait", "egress"):
            total = sum(
                o.breakdown[stage].mean * len(o.breakdown[stage])
                for o in self.outputs
                if len(o.breakdown[stage])
            )
            count = sum(len(o.breakdown[stage]) for o in self.outputs)
            breakdown[stage] = total / count if count else float("nan")
        delivered_bytes = sum(o.throughput.total_bytes for o in self.outputs)
        drops_by_reason: Dict[str, int] = {}
        for port in self.inputs:
            for reason, count in port.drops.by_reason.items():
                drops_by_reason[reason] = drops_by_reason.get(reason, 0) + count
        for reason, count in self.tail.drops.by_reason.items():
            drops_by_reason[reason] = drops_by_reason.get(reason, 0) + count
        if self.telemetry is not None:
            self._publish_occupancy_gauges()
        return SwitchReport(
            duration_ns=duration_ns,
            offered_bytes=self._offered_bytes,
            offered_packets=self._offered_packets,
            delivered_bytes=delivered_bytes,
            delivered_packets=delivered_packets,
            dropped_bytes=self.dropped_bytes(),
            residual_bytes=self.residual_payload_bytes(),
            throughput_bps=bytes_per_ns_to_rate(delivered_bytes / duration_ns)
            if duration_ns > 0
            else 0.0,
            capacity_bps=self.config.aggregate_port_rate_bps,
            latency=latency.summary(),
            latency_breakdown=breakdown,
            ordering_violations=sum(o.ordering_violations for o in self.outputs),
            pfi=self.pfi.counters,
            input_sram_peak_bytes=int(max(p.occupancy.peak for p in self.inputs)),
            tail_sram_peak_bytes=int(self.tail.occupancy.peak),
            head_sram_peak_bytes=int(self.head.occupancy.peak),
            hbm_peak_frames=self._hbm_peak_frames,
            drops_by_reason=drops_by_reason,
        )

    def _publish_occupancy_gauges(self) -> None:
        """End-of-run high-water marks (gauges merge by max)."""
        registry = self.telemetry.registry
        label = str(self.telemetry.switch)
        peaks = {
            "input_sram": max(p.occupancy.peak for p in self.inputs),
            "tail_sram": self.tail.occupancy.peak,
            "head_sram": self.head.occupancy.peak,
        }
        for stage, peak in peaks.items():
            registry.gauge(
                "repro_sram_peak_bytes", "peak SRAM occupancy per stage",
                stage=stage, switch=label,
            ).set(float(peak))
        registry.gauge(
            "repro_hbm_peak_frames", "peak frames resident in the HBM",
            switch=label,
        ).set(float(self._hbm_peak_frames))
        # Each ingested arrival counts as one event, so the gauge does
        # not depend on how arrivals reach the switch; a crossing (one
        # event: land the batch, pop the next) counts as two.
        registry.gauge(
            "repro_engine_events", "discrete events fired by this switch's engine",
            switch=label,
        ).set(
            float(
                self.engine.events_fired
                + self.telemetry.crossings
                + self._ingest.ingested
            )
        )
        if self.pfi.controller is not None:
            self.pfi.controller.publish_telemetry(registry, label)
