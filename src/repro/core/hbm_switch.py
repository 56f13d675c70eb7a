"""The HBM switch: a discrete-event simulation of Fig. 3's pipeline.

Stages and their timing:

1. Packets arrive at input ports (O/E already done); batches form.
2. Each port sends one batch per batch-time over the cyclical crossbar;
   a batch lands in the tail SRAM one batch-time after it leaves.
3. The tail SRAM aggregates frames; the PFI engine alternates HBM write
   and read phases (one frame each way per cycle).
4. Read frames land in the head SRAM and drain onto the output line at
   port rate, in FIFO order; padding is discarded before the wire.

The simulation conserves bytes exactly: offered = delivered + dropped +
residual (still queued), which :meth:`HBMSwitch.audit` verifies and the
integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..config import HBMSwitchConfig
from ..errors import SimulationError
from ..hbm.timing import HBMTiming
from ..sim.engine import Engine
from ..sim.stats import LatencyRecorder
from ..traffic.packet import Packet
from ..units import bytes_per_ns_to_rate, rate_to_bytes_per_ns
from .address import HBMAddressMap
from .frames import Frame
from .head_sram import HeadSRAM
from .input_port import InputPort
from .output_port import OutputPort
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
        self.inputs = [
            InputPort(config, i, input_sram_capacity) for i in range(config.n_ports)
        ]
        self.tail = TailSRAM(config, tail_sram_capacity)
        self.head = HeadSRAM(config)
        #: Optional :class:`~repro.telemetry.SwitchTelemetry` -- every
        #: instrumented call site guards on ``self.telemetry is not
        #: None``, so a run without telemetry pays one pointer check.
        self.telemetry = telemetry
        #: Bound on retained latency samples per output recorder
        #: (seeded reservoir; see :class:`~repro.sim.stats.LatencyRecorder`).
        #: ``None`` -- the default everywhere -- keeps every sample and
        #: the historical bit-exact statistics; internet-scale streaming
        #: runs (10^7+ packets) set it to keep memory flat.
        self._latency_sample_cap = latency_sample_cap
        self.outputs = [
            OutputPort(
                config, j, n_egress_fibers, n_egress_wavelengths, telemetry,
                latency_sample_cap=latency_sample_cap,
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
        # O/E serialisation time per byte at the port rate: the one
        # conversion each packet pays on its way into the switch.
        self._oeo_ns_per_byte = 1.0 / rate_to_bytes_per_ns(config.port_rate_bps)
        self._draining = [False] * config.n_ports
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

    def _on_packet(self, packet: Packet) -> None:
        now = self.engine.now
        if self.faults is not None and self.faults.dead_at(now):
            # The switch is down: the arrival is lost at the (dead)
            # input port.  Recorded as a drop, never as residual, so
            # offered = delivered + dropped + residual still holds.
            self.inputs[packet.input_port].drops.record(
                packet.size_bytes, reason="switch-dead"
            )
            self._observe_drop("switch-dead", packet, now)
            return
        if self.fib is not None:
            output = self.fib.classify(packet)
            if output is None or not 0 <= output < self.config.n_ports:
                self.inputs[packet.input_port].drops.record(
                    packet.size_bytes, reason="no-route"
                )
                self._observe_drop("no-route", packet, now)
                return
            packet.output_port = output
        port = self.inputs[packet.input_port]
        dropped_before = port.drops.dropped_bytes
        emitted = port.on_packet(packet, now)
        if port.drops.dropped_bytes == dropped_before:
            self._residual_payload += packet.size_bytes
            if self.telemetry is not None:
                self.telemetry.packets_in.inc()
                self.telemetry.bytes_in.inc(packet.size_bytes)
                # One O/E conversion per packet: serialisation at the
                # port rate (the SPS single-conversion property).
                self.telemetry.oeo.observe(
                    packet.size_bytes * self._oeo_ns_per_byte
                )
                self.telemetry.win_bytes_in.observe(now, packet.size_bytes)
                self.telemetry.win_occupancy.observe(now, self._residual_payload)
        else:
            self._observe_drop("input-sram-overflow", packet, now)
        for batch in emitted:
            if self.telemetry is not None:
                # Batch aggregation wait: first completing packet's
                # arrival to batch emission (0 for pure-straddle batches
                # that complete no packet).
                wait = now - batch.completing[0].arrival_ns if batch.completing else 0.0
                self.telemetry.batch.observe(max(0.0, wait))
            if self.trace is not None:
                self.trace.record(
                    now, "switch", "batch_formed",
                    input=packet.input_port, output=batch.output,
                    payload=batch.payload_bytes, packets=len(batch.completing),
                )
        if emitted and not self._draining[packet.input_port]:
            self._schedule_drain(packet.input_port, now)

    def _observe_drop(self, reason: str, packet: Packet, now: float) -> None:
        """Telemetry/trace for one dropped packet (cold path)."""
        if self.telemetry is not None:
            self.telemetry.drop(reason, packet.size_bytes)
            self.telemetry.win_dropped.observe(now, packet.size_bytes)
        if self.trace is not None:
            self.trace.record(
                now, "switch", "drop",
                reason=reason, input=packet.input_port,
                output=packet.output_port, size=packet.size_bytes,
            )

    def _schedule_drain(self, port_index: int, at: float) -> None:
        self._draining[port_index] = True
        self.engine.schedule(at, lambda: self._drain(port_index))

    def _drain(self, port_index: int) -> None:
        """Send one batch across the crossbar; self-reschedules."""
        now = self.engine.now
        port = self.inputs[port_index]
        batch = port.pop_batch(now)
        if batch is None:
            self._draining[port_index] = False
            return
        self._inflight_batch_payload += batch.payload_bytes
        arrival = now + self.config.batch_time_ns
        self.engine.schedule(arrival, lambda: self._batch_arrives(batch))
        self.engine.schedule(arrival, lambda: self._drain(port_index))

    def _batch_arrives(self, batch) -> None:
        self._inflight_batch_payload -= batch.payload_bytes
        now = self.engine.now
        if self.telemetry is not None:
            # Cyclical-crossbar traversal: every batch crosses in
            # exactly one batch time (the crossbar is non-blocking).
            self.telemetry.stripe.observe(self.config.batch_time_ns)
        if self.trace is not None:
            self.trace.record(
                now, "switch", "batch",
                output=batch.output, payload=batch.payload_bytes,
            )
        dropped_before = self.tail.drops.dropped_bytes
        frame = self.tail.on_batch(batch, now)
        dropped = self.tail.drops.dropped_bytes - dropped_before
        if dropped:
            self._residual_payload -= dropped
            if self.telemetry is not None:
                self.telemetry.drop("tail-sram-overflow", dropped)
                self.telemetry.win_dropped.observe(now, dropped)
            if self.trace is not None:
                self.trace.record(
                    now, "switch", "drop",
                    reason="tail-sram-overflow", output=batch.output,
                    size=dropped,
                )
        elif frame is not None and self.trace is not None:
            self.trace.record(
                now, "switch", "frame_formed",
                output=frame.output, frame=frame.index,
                payload=frame.payload_bytes,
            )
        peak = self.pfi.hbm_occupancy_frames()
        if peak > self._hbm_peak_frames:
            self._hbm_peak_frames = peak

    def _deliver_frame(self, frame: Frame, at: float) -> None:
        """Read-phase (or bypass) completion: frame reaches the head SRAM."""
        self.head.on_frame(frame, at)
        queued = self.head.pop_frame(frame.output, at)
        if queued is None:
            raise SimulationError("head SRAM lost a frame it just accepted")
        finish = self.outputs[frame.output].transmit_frame(queued, at)
        self._residual_payload -= queued.payload_bytes
        if self.trace is not None:
            self.trace.record(
                at, "switch", "deliver",
                output=frame.output, frame=frame.index,
                bypassed=frame.bypassed, wire_done=finish,
            )

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
        input_bytes = sum(p.partial_bytes for p in self.inputs)
        input_fifo = sum(
            batch.payload_bytes for p in self.inputs for batch in p.fifo
        )
        tail_pending = sum(
            batch.payload_bytes
            for assembler in self.tail._assemblers
            for batch in assembler._pending
        )
        tail_fifo = sum(frame.payload_bytes for frame in self.tail.frame_fifo)
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
        max_drain_ns: Optional[float] = None,
    ) -> SwitchReport:
        """Simulate ``packets`` over ``[0, duration_ns)`` and report.

        With ``drain=True`` the simulation keeps running (no new
        arrivals) until the switch empties or ``max_drain_ns`` passes,
        so latency statistics cover every delivered packet.

        The eager path is a one-block stream: begin, offer every
        arrival, finish -- the streaming calls, so both paths fire the
        same events in the same order.
        """
        self.stream_begin()
        self.stream_offer(packets, duration_ns)
        return self.stream_finish(duration_ns, drain, max_drain_ns)

    # -- streaming ingest ---------------------------------------------------------

    def stream_begin(self) -> None:
        """Start the PFI engine ahead of the first ``stream_offer``.

        Arrivals outrank the PFI's internal events at equal timestamps
        (priority classes), so offering after the start fires the same
        events in the same order as offering before it would.
        """
        self.pfi.start()

    def stream_offer(self, packets: Sequence[Packet], duration_ns: float) -> None:
        """Schedule one block's arrivals (those inside ``[0, duration_ns)``).

        Blocks must be fed in time order; an arrival before the
        engine's current time raises
        :class:`~repro.errors.SimulationError`.
        """
        for packet in packets:
            if packet.arrival_ns >= duration_ns:
                continue
            self._offered_bytes += packet.size_bytes
            self._offered_packets += 1
            self.engine.schedule_arrival(
                packet.arrival_ns, lambda p=packet: self._on_packet(p)
            )

    def stream_advance(self, until: float) -> None:
        """Run the pipeline up to -- but excluding -- ``until``.

        Events at exactly ``until`` stay queued: the next block may
        carry arrivals at that instant, and they must enter the heap
        before the boundary's internal events fire so priority ordering
        matches the eager run.
        """
        self.engine.run(until=until, inclusive=False)

    def stream_finish(
        self,
        duration_ns: float,
        drain: bool = True,
        max_drain_ns: Optional[float] = None,
    ) -> SwitchReport:
        """Final boundary: fire events at ``duration_ns``, drain, report."""
        self.engine.run(until=duration_ns)
        if drain:
            self._run_drain(duration_ns, max_drain_ns)
        self.pfi.stop()
        # Let already-scheduled deliveries and transfers land.
        self.engine.run()
        return self._report(duration_ns)

    def run_stream(
        self,
        blocks,
        duration_ns: float,
        drain: bool = True,
        max_drain_ns: Optional[float] = None,
    ) -> SwitchReport:
        """Simulate a stream of arrival blocks; byte-identical to :meth:`run`.

        ``blocks`` is any iterable of
        :class:`~repro.traffic.stream.ArrivalBlock` (typically
        ``source.blocks(duration_ns)``).  Each block's packets are
        scheduled and the engine advanced to the block boundary before
        the next block is pulled, so at most one block of arrivals is
        ever materialized -- the bounded-memory ingest path.
        """
        self.stream_begin()
        for block in blocks:
            self.stream_offer(block.to_packets(), duration_ns)
            self.stream_advance(min(block.end_ns, duration_ns))
        return self.stream_finish(duration_ns, drain, max_drain_ns)

    def _run_drain(self, duration_ns: float, max_drain_ns: Optional[float]) -> None:
        if max_drain_ns is None:
            # Worst case the whole backlog drains at the slowest stage;
            # a generous default that still terminates.
            max_drain_ns = 50.0 * duration_ns + 1e6
        if self.options.padding:
            for port in self.inputs:
                batches = port.flush_partials(self.engine.now)
                if batches and not self._draining[port.port]:
                    self._schedule_drain(port.port, self.engine.now)
        deadline = duration_ns + max_drain_ns
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
        registry.gauge(
            "repro_engine_events", "discrete events fired by this switch's engine",
            switch=label,
        ).set(float(self.engine.events_fired))
        if self.pfi.controller is not None:
            self.pfi.controller.publish_telemetry(registry, label)
