"""Output port (Fig. 3, stage 6).

Received batches are cut back into variable-length packets, converted to
optical signals, and hashed across the ribbon's alpha fibers x W
wavelengths by flow 5-tuple, as in ECMP/LAG (SS 3.2 step 6).

Transmission is modelled analytically: the port is a single server at
the line rate; a frame's packets depart back-to-back in batch order
(padding is discarded in the cut-back step and consumes no wire time).
Frames are ids into the switch's :class:`~repro.core.frames.FrameTable`.
Packets are recorded as arrays: a port buffers the row ranges and batch
finish times of its transmitted frames as flat columns and settles them
in one numpy pass -- departures, latencies and their
stage breakdown, lane bytes, the flow-order check -- every
:data:`SETTLE_PACKETS` packets and whenever a statistic is read, in
transmission order, so the figures are those of a per-packet loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import HBMSwitchConfig
from ..errors import OrderingViolation
from ..sim.stats import LatencyRecorder, ThroughputMeter
from ..traffic.ecmp import EcmpSelector
from ..units import rate_to_bytes_per_ns
from .frames import BatchTable, FrameTable, gather_rows

#: Transmitted packets an output port buffers before recording them in
#: one pass (see :meth:`OutputPort.settle`).
SETTLE_PACKETS = 1_024


class FlowIndex:
    """Per-switch flow state: egress lane and flow-order bookkeeping.

    Flows arrive as blocks' flow tables; :meth:`intern` maps each
    distinct :class:`~repro.traffic.flows.FiveTuple` to a switch-wide
    id once, hashes its egress lane once, and gives every (flow,
    output) pair an order key whose last delivered pid
    (:attr:`last_pid`, -1 before any) the output ports check.  A flow
    is known by its packed header (:meth:`FiveTuple.packed`, equal
    exactly when the tuples are), not by the tuple: a streamed run
    meets a new flow every few packets and keeps them all, so the
    13-byte key is most of what its memory grows by.
    """

    def __init__(self, n_ports: int, n_fibers: int = 4, n_wavelengths: int = 16):
        self.n_ports = n_ports
        self.ecmp = EcmpSelector(n_fibers, n_wavelengths)
        self._ids: Dict[bytes, int] = {}
        self._lanes = np.empty(64, dtype=np.int64)
        self._keys: Dict[int, int] = {}
        self.last_pid = np.full(64, -1, dtype=np.int64)

    def intern(self, flows: Sequence, flow_ids: np.ndarray, outputs: np.ndarray):
        """``(lanes, order_keys)`` for packets whose flows are
        ``flows[flow_ids]`` and whose outputs are ``outputs``."""
        used, inverse = np.unique(flow_ids, return_inverse=True)
        ids = self._ids
        used_flows = [flows[k] for k in used.tolist()]
        headers = [flow.packed() for flow in used_flows]
        fresh = []
        for flow, header in zip(used_flows, headers):
            if header not in ids:
                ids[header] = len(ids)
                fresh.append((flow, header))
        if len(ids) > self._lanes.size:
            self._lanes = np.resize(self._lanes, 2 * len(ids))
        for flow, header in fresh:
            self._lanes[ids[header]] = self.ecmp.lane_index(flow)
        gids = np.fromiter(map(ids.__getitem__, headers), np.int64, used.size)
        flow_gids = gids[inverse]
        keys = flow_gids * self.n_ports + outputs
        unique_keys, key_inverse = np.unique(keys, return_inverse=True)
        table = self._keys
        key_ids = np.fromiter(
            (table.setdefault(k, len(table)) for k in unique_keys.tolist()),
            np.int64,
            unique_keys.size,
        )
        if len(table) > self.last_pid.size:
            grown = np.full(2 * len(table), -1, dtype=np.int64)
            grown[: self.last_pid.size] = self.last_pid
            self.last_pid = grown
        return self._lanes[flow_gids], key_ids[key_inverse]


class OutputPort:
    """One of the N output ports of an HBM switch."""

    def __init__(
        self,
        config: HBMSwitchConfig,
        port: int,
        n_fibers: int = 4,
        n_wavelengths: int = 16,
        telemetry=None,
        latency_sample_cap=None,
        flows: FlowIndex = None,
        frames: Optional[FrameTable] = None,
    ):
        self.config = config
        self.port = port
        #: The frame table (and batch table) the transmitted ids index.
        self.frames = (
            frames if frames is not None
            else FrameTable(BatchTable(config.batch_bytes), config.frame_bytes)
        )
        #: Optional :class:`~repro.telemetry.SwitchTelemetry`; each
        #: transmitted frame's batch finish times and sizes are handed
        #: to it when attached (drain spans, egress bytes and windows).
        self.telemetry = telemetry
        self._rate = rate_to_bytes_per_ns(config.port_rate_bps)
        self._busy_until = 0.0
        #: Flow ids, lanes and order state, shared by a switch's ports.
        self.flows = (
            flows if flows is not None
            else FlowIndex(config.n_ports, n_fibers, n_wavelengths)
        )
        self.ecmp = self.flows.ecmp
        self.throughput = ThroughputMeter()
        #: ``latency_sample_cap`` bounds the retained latency samples
        #: (seeded reservoir) for internet-scale streaming runs; the
        #: default ``None`` keeps every sample, bit-identical to the
        #: historical recorder.
        self._latency = LatencyRecorder(capacity=latency_sample_cap)
        # Where the nanoseconds go, per delivered packet: time to fill
        # its batch, to fill its frame, the HBM round-trip wait, and the
        # egress drain.  Components sum to the total latency.
        self._breakdown = {
            "batch_fill": LatencyRecorder(capacity=latency_sample_cap),
            "frame_fill": LatencyRecorder(capacity=latency_sample_cap),
            "hbm_wait": LatencyRecorder(capacity=latency_sample_cap),
            "egress": LatencyRecorder(capacity=latency_sample_cap),
        }
        #: Optional ``sink(departures_ns, sizes)`` fed the aligned
        #: departure times and sizes of delivered packets, in
        #: transmission order, one settled chunk at a time -- the
        #: streaming degradation path bins delivered bytes here.
        self.departure_sink = None
        #: Optional ``(departures, lanes)`` arrays indexed by ingest row:
        #: when set, each delivered packet's departure time and egress
        #: lane are written there (the Packet-list entry point's
        #: write-back).
        self.record = None
        #: Optional fault hook (:mod:`repro.faults`): maps a timestamp to
        #: the egress-rate factor in (0, 1] -- OEO/laser degradation.
        #: ``None`` keeps the exact nominal-rate path.
        self.rate_factor_fn = None
        self.padding_discarded_bytes = 0
        self._violations = 0
        self._lane_bytes = np.zeros(self.ecmp.n_lanes, dtype=np.int64)
        # Transmitted frames whose packets are not yet recorded, as flat
        # columns: per frame with packets, its creation and head-SRAM
        # times and packet count; per batch with packets, its finish on
        # the wire, cut time and packet count; per row range, its block
        # and bounds.  And how many packets they complete.
        self._frame_created: List[float] = []
        self._frame_ready: List[float] = []
        self._frame_packets: List[int] = []
        self._finishes: List[float] = []
        self._created: List[float] = []
        self._counts: List[int] = []
        self._blocks: List = []
        self._los: List[int] = []
        self._his: List[int] = []
        self._pending_packets = 0

    @property
    def latency(self) -> LatencyRecorder:
        """Per delivered packet: departure minus arrival."""
        self.settle()
        return self._latency

    @property
    def breakdown(self) -> Dict[str, LatencyRecorder]:
        """Where the nanoseconds go, per delivered packet: time to fill
        its batch, to fill its frame, the HBM round-trip wait, and the
        egress drain.  Components sum to the total latency."""
        self.settle()
        return self._breakdown

    @property
    def ordering_violations(self) -> int:
        """Delivered packets whose flow had already delivered a later pid."""
        self.settle()
        return self._violations

    @property
    def lane_bytes(self) -> Dict[Tuple[int, int], int]:
        """Bytes sent per (fiber, wavelength) egress lane -- the ECMP
        spreading that E10/SS 4 relies on, observable per port."""
        self.settle()
        wavelengths = self.ecmp.n_wavelengths
        return {
            divmod(lane, wavelengths): int(self._lane_bytes[lane])
            for lane in np.flatnonzero(self._lane_bytes).tolist()
        }

    def transmit_frame(self, frame: int, ready_ns: float) -> float:
        """Send a frame's payload onto the wire; returns its finish time.

        Packets depart at the instant their batch's last byte leaves.
        Padding (batch filler and missing batches of padded frames) is
        dropped at the cut-back step and takes no wire time.
        """
        frames = self.frames
        table = frames.batches
        payloads = table.payload
        columns = table.columns
        earlier = table.earlier
        start = cursor = max(ready_ns, self._busy_until)
        rate = self._rate
        factor = self.rate_factor_fn
        finishes = self._finishes
        created = self._created
        counts = self._counts
        blocks = self._blocks
        los = self._los
        his = self._his
        members = frames.members[frame]
        with_packets = len(finishes)
        # Finish time and payload of every batch that carries payload.
        sent = []
        sizes = []
        packets = 0
        for batch in members:
            payload = payloads[batch]
            if payload > 0:
                if factor is not None:
                    # Degraded OEO: the factor is sampled at batch start
                    # (a batch is the atomic wire unit; windows are >>
                    # one batch time).
                    rate = self._rate * factor(cursor)
                cursor = cursor + payload / rate
                sent.append(cursor)
                sizes.append(payload)
                block = columns[batch]
                before = earlier[batch]
                if block is not None or before is not None:
                    finishes.append(cursor)
                    created.append(table.created[batch])
                    count = table.count[batch]
                    counts.append(count)
                    packets += count
                    if before is not None:
                        for segment in before:
                            blocks.append(segment[0])
                            los.append(segment[1])
                            his.append(segment[2])
                    if block is not None:
                        blocks.append(block)
                        los.append(table.lo[batch])
                        his.append(table.hi[batch])
        # Batch filler, and whole missing batches of a padded frame.
        payload = sum(sizes)
        batch_bytes = len(members) * table.batch_bytes
        self.padding_discarded_bytes += batch_bytes - payload + max(
            0, frames.frame_bytes - batch_bytes
        )
        self._busy_until = cursor
        if sent:
            self.throughput.record_many(payload, len(sent), sent[0], cursor)
            if self.telemetry is not None:
                self.telemetry.transmitted(start, sent, sizes)
        if len(finishes) > with_packets:
            self._frame_created.append(frames.created[frame])
            self._frame_ready.append(ready_ns)
            self._frame_packets.append(packets)
            self._pending_packets += packets
            if self._pending_packets >= SETTLE_PACKETS:
                self.settle()
        return cursor

    def settle(self) -> None:
        """Record the departures of every transmitted frame not yet
        recorded, in transmission order, as one set of array operations.

        Reading any per-packet statistic settles first, so the figures
        are those of recording each frame as it leaves.
        """
        if not self._frame_packets:
            return
        per_frame = self._frame_packets
        frame_created = self._frame_created
        frame_ready = self._frame_ready
        finishes = self._finishes
        created = self._created
        counts = self._counts
        blocks = self._blocks
        los = self._los
        his = self._his
        self._frame_packets = []
        self._frame_created = []
        self._frame_ready = []
        self._finishes = []
        self._created = []
        self._counts = []
        self._blocks = []
        self._los = []
        self._his = []
        self._pending_packets = 0
        fields = ("times", "sizes", "lanes", "okeys", "pids")
        if self.record is not None:
            fields += ("rows",)
        arrivals, sizes, lanes, keys, pids, *rows = gather_rows(blocks, los, his, *fields)
        departures = np.repeat(finishes, counts)
        # Stage boundaries are the timestamps the ids carry: batch
        # completion, frame completion, arrival at the head SRAM
        # (``ready_ns``) and wire departure -- clamped at zero for the
        # bypass/padding paths where a later stage's timestamp precedes
        # an earlier one's bookkeeping time.
        t_batch = np.maximum(np.repeat(created, counts), arrivals)
        t_frame = np.maximum(np.repeat(frame_created, per_frame), t_batch)
        t_ready = np.maximum(np.repeat(frame_ready, per_frame), t_frame)
        self._latency.record_many(departures - arrivals)
        self._breakdown["batch_fill"].record_many(t_batch - arrivals)
        self._breakdown["frame_fill"].record_many(t_frame - t_batch)
        self._breakdown["hbm_wait"].record_many(t_ready - t_frame)
        self._breakdown["egress"].record_many(np.maximum(0.0, departures - t_ready))
        self._lane_bytes += np.bincount(
            lanes, weights=sizes, minlength=self._lane_bytes.size
        ).astype(np.int64)
        self._check_order(keys, pids)
        if self.telemetry is not None:
            self.telemetry.packets_out.inc(departures.size)
        if self.departure_sink is not None:
            self.departure_sink(departures, sizes)
        if self.record is not None:
            record_departures, record_lanes = self.record
            record_departures[rows[0]] = departures
            record_lanes[rows[0]] = lanes


    def _check_order(self, keys: np.ndarray, pids: np.ndarray) -> None:
        """Flows must not reorder: pids within a flow are monotonic.

        A packet is out of order when its pid is below the largest pid
        its flow delivered before it (the per-packet running-max check,
        evaluated per flow group at once).
        """
        last = self.flows.last_pid
        order = keys.argsort(kind="stable")
        keys = keys[order]
        pids = pids[order]
        new_group = np.empty(keys.size, dtype=bool)
        new_group[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
        starts = np.flatnonzero(new_group)
        seeds = last[keys[starts]]
        # Shift every group above the one before it so one running max
        # serves all groups; +1 lifts the "no pid yet" seed of -1 to 0.
        span = int(max(pids.max(), seeds.max())) + 2
        group = np.cumsum(new_group) - 1
        offset = group * span
        shifted = pids + 1 + offset
        previous = np.empty_like(shifted)
        previous[0] = 0
        np.maximum.accumulate(shifted[:-1], out=previous[1:])
        np.maximum(previous, seeds[group] + 1 + offset, out=previous)
        self._violations += int(np.count_nonzero(shifted < previous))
        last[keys[starts]] = np.maximum(seeds, np.maximum.reduceat(pids, starts))

    def raise_on_reorder(self) -> None:
        """Escalate recorded reorderings (used by integration tests)."""
        if self.ordering_violations:
            raise OrderingViolation(
                f"output {self.port} saw {self.ordering_violations} reordered packets"
            )
