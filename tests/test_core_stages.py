"""Pipeline stages: input port, tail SRAM, head SRAM, output port."""

import numpy as np
import pytest

from repro.core.frames import ArrivalColumns
from repro.core.head_sram import HeadSRAM
from repro.core.input_port import InputPort
from repro.core.output_port import OutputPort
from repro.core.tail_sram import TailSRAM
from repro.errors import ConfigError
from tests.test_traffic_basics import make_packet

K = 1024


@pytest.fixture
def config(small_switch):
    return small_switch


def offer_one(port, pid, size, dst, t=0.0):
    """Offer one packet to ``port`` as a block of its own; returns the
    batches it completes (tail-dropped when the SRAM is full)."""
    port.load(np.array([0]), np.array([size]))
    emitted = []
    if size > port.sram_capacity_bytes - port.occupancy_at(0):
        port.drop(size)
        port.drops.record(size, reason="input-sram-overflow")
    else:
        columns = ArrivalColumns([t], [size], [pid], [0], [0], [0])
        assembler = port.assemblers[dst]
        if assembler.load(columns, 0, np.array([0]), np.array([size])) is not None:
            for batch in assembler.complete(t):
                port.enqueue(batch)
                emitted.append(batch)
    port.close_block(t)
    return emitted


class TestInputPort:
    def test_packet_accumulates_then_emits_batch(self, config):
        port = InputPort(config, 0)
        for i in range(3):
            assert offer_one(port, pid=i, size=256, dst=1) == []
        emitted = offer_one(port, pid=3, size=256, dst=1, t=1.0)
        assert len(emitted) == 1
        assert len(port.fifo) == 1
        assert port.fifo_bytes == K

    def test_outputs_have_independent_queues(self, config):
        port = InputPort(config, 0)
        offer_one(port, pid=0, size=512, dst=0)
        offer_one(port, pid=1, size=512, dst=1)
        # Neither queue is full: no batch.
        assert len(port.fifo) == 0
        assert port.partial_bytes == 1024

    def test_overflow_drops_whole_packet(self, config):
        port = InputPort(config, 0, sram_capacity_bytes=1024)
        offer_one(port, pid=0, size=800, dst=0)
        offer_one(port, pid=1, size=800, dst=1)
        assert port.drops.dropped_items == 1
        assert port.drops.dropped_bytes == 800
        assert port.partial_bytes == 800

    def test_pop_batch_fifo_order(self, config):
        port = InputPort(config, 0)
        offer_one(port, pid=0, size=K, dst=0)
        offer_one(port, pid=1, size=K, dst=1, t=1.0)
        first = port.pop_batch(2.0)
        second = port.pop_batch(2.0)
        assert port.batches.output[first] == 0 and port.batches.output[second] == 1
        assert port.pop_batch(2.0) is None

    def test_flush_partials_pads_everything(self, config):
        port = InputPort(config, 0)
        offer_one(port, pid=0, size=100, dst=0)
        offer_one(port, pid=1, size=200, dst=2)
        flushed = port.flush_partials(5.0)
        assert len(flushed) == 2
        assert port.partial_bytes == 0
        assert all(port.batches.view(b).padding_bytes > 0 for b in flushed)

    def test_occupancy_peak_recorded(self, config):
        port = InputPort(config, 0)
        offer_one(port, pid=0, size=900, dst=0)
        assert port.occupancy.peak == 900


def completing(port, packets):
    """The segment naming ``packets`` as a batch's completing packets,
    laid out the way a switch lays out a block for ``port``."""
    flows = [p.flow for p in packets]
    lanes, okeys = port.flows.intern(
        flows, np.arange(len(packets)), np.array([p.output_port for p in packets])
    )
    columns = ArrivalColumns(
        [p.arrival_ns for p in packets],
        [p.size_bytes for p in packets],
        [p.pid for p in packets],
        okeys,
        lanes,
        np.arange(len(packets)),
    )
    return [(columns, 0, len(packets))]


def make_batch(stage, output, seq=0, payload=K, created=0.0, completing=()):
    """A batch (its id) in ``stage``'s batch table, completing the
    packets of ``completing`` (one segment at most)."""
    for columns, lo, hi in completing:
        return stage.frames.batches.add(
            output, seq, payload, created, hi - lo, columns, lo, hi
        )
    return stage.frames.batches.add(output, seq, payload, created)


class TestTailSRAM:
    def test_frame_forms_at_batch_count(self, config):
        tail = TailSRAM(config)
        per_frame = config.batches_per_frame
        for i in range(per_frame - 1):
            assert tail.on_batch(make_batch(tail, 2, i), float(i)) is None
        frame = tail.on_batch(make_batch(tail, 2, per_frame - 1), 99.0)
        assert frame is not None
        assert tail.frames.output[frame] == 2
        assert len(tail.frame_fifo) == 1

    def test_pop_frame_fifo(self, config):
        tail = TailSRAM(config)
        for output in (1, 3):
            for i in range(config.batches_per_frame):
                tail.on_batch(make_batch(tail, output, i), 0.0)
        first = tail.pop_frame(1.0)
        second = tail.pop_frame(1.0)
        assert (tail.frames.output[first], tail.frames.output[second]) == (1, 3)
        assert tail.pop_frame(1.0) is None

    def test_pop_frame_for_output_preserves_others(self, config):
        tail = TailSRAM(config)
        for output in (1, 3):
            for i in range(config.batches_per_frame):
                tail.on_batch(make_batch(tail, output, i), 0.0)
        frame = tail.pop_frame_for(3, 1.0)
        assert tail.frames.output[frame] == 3
        assert tail.pop_frame_for(3, 1.0) is None
        assert tail.frames.output[tail.frame_fifo[0]] == 1

    def test_padded_frame_flushes_partial(self, config):
        tail = TailSRAM(config)
        tail.on_batch(make_batch(tail, 0), 0.0)
        frame = tail.frames.view(tail.padded_frame_for(0, 5.0))
        assert frame.size_bytes == config.frame_bytes
        assert frame.payload_bytes == K
        assert tail.padded_frame_for(0, 6.0) is None

    def test_has_data_for(self, config):
        tail = TailSRAM(config)
        assert not tail.has_data_for(0)
        tail.on_batch(make_batch(tail, 0), 0.0)
        assert tail.has_data_for(0)
        assert not tail.has_data_for(1)

    def test_overflow_drops_batch(self, config):
        tail = TailSRAM(config, capacity_bytes=K)
        tail.on_batch(make_batch(tail, 0, 0), 0.0)
        tail.on_batch(make_batch(tail, 0, 1), 0.0)
        assert tail.drops.dropped_items == 1

    def test_output_bounds(self, config):
        with pytest.raises(ConfigError):
            TailSRAM(config).validate_output(config.n_ports)


def make_frame(stage, config, output, payload_batches=None, payloads=None, created=0.0):
    """A frame (its id) in ``stage``'s frame table, of full batches
    (``payload_batches`` of them) or of batches carrying ``payloads``."""
    n = config.batches_per_frame if payload_batches is None else payload_batches
    if payloads is None:
        payloads = [K] * n
    batches = [make_batch(stage, output, i, payload) for i, payload in enumerate(payloads)]
    return stage.frames.add(output, 0, created, batches)


def frame_of(stage, config, batches):
    """A frame (its id) of ``batches`` (ids) for output 0."""
    return stage.frames.add(0, 0, 0.0, batches[: config.batches_per_frame])


class TestHeadSRAM:
    def test_frame_queue_fifo(self, config):
        head = HeadSRAM(config)
        head.on_frame(make_frame(head, config, 1), 0.0)
        head.on_frame(make_frame(head, config, 1, created=1.0), 1.0)
        assert head.queued_frames(1) == 2
        first = head.pop_frame(1, 2.0)
        assert head.frames.created[first] == 0.0
        assert head.queued_frames(1) == 1

    def test_pop_empty_is_none(self, config):
        assert HeadSRAM(config).pop_frame(0, 0.0) is None

    def test_backlog_counts_payload_only(self, config):
        head = HeadSRAM(config)
        frame = make_frame(head, config, 0, payload_batches=2)
        head.on_frame(frame, 0.0)
        assert head.payload_backlog_bytes() == 2 * K
        assert head.occupancy_bytes == config.frame_bytes

    def test_bounds(self, config):
        with pytest.raises(ConfigError):
            HeadSRAM(config).pop_frame(99, 0.0)


class TestOutputPort:
    def test_full_frame_transmits_at_line_rate(self, config):
        port = OutputPort(config, 0)
        frame = make_frame(port, config, 0)
        finish = port.transmit_frame(frame, ready_ns=100.0)
        expected = 100.0 + config.frame_bytes / (config.port_rate_bps / 8e9)
        assert finish == pytest.approx(expected)
        assert port.throughput.total_bytes == config.frame_bytes

    def test_padding_takes_no_wire_time(self, config):
        port = OutputPort(config, 0)
        # Two full batches, then pure filler.
        payloads = [K, K] + [0] * (config.batches_per_frame - 2)
        frame = make_frame(port, config, 0, payloads=payloads)
        finish = port.transmit_frame(frame, 0.0)
        expected = 2 * K / (config.port_rate_bps / 8e9)
        assert finish == pytest.approx(expected)
        assert port.padding_discarded_bytes == (config.batches_per_frame - 2) * K

    def test_busy_port_queues_next_frame(self, config):
        port = OutputPort(config, 0)
        end1 = port.transmit_frame(make_frame(port, config, 0), 0.0)
        end2 = port.transmit_frame(make_frame(port, config, 0), 0.0)
        assert end2 == pytest.approx(2 * end1)

    def test_packets_get_departure_and_lane(self, config):
        port = OutputPort(config, 0, n_fibers=2, n_wavelengths=4)
        packet = make_packet(pid=0, size=K, dst=0)
        batch = make_batch(port, 0, completing=completing(port, [packet]))
        frame = frame_of(port, config, [batch])
        departures, lanes = np.full(1, np.nan), np.full(1, -1)
        port.record = (departures, lanes)
        port.transmit_frame(frame, 10.0)
        port.settle()
        assert departures[0] >= 10.0
        fiber, wavelength = divmod(int(lanes[0]), 4)
        assert 0 <= fiber < 2
        assert 0 <= wavelength < 4
        assert len(port.latency) == 1

    def test_reordering_detected(self, config):
        port = OutputPort(config, 0)
        early = make_packet(pid=5, size=256, dst=0, t=0.0)
        late = make_packet(pid=3, size=256, dst=0, t=0.0)
        batch1 = make_batch(port, 0, 0, completing=completing(port, [early]))
        batch2 = make_batch(port, 0, 1, completing=completing(port, [late]))
        frame = frame_of(port, config, [batch1, batch2])
        port.transmit_frame(frame, 0.0)
        assert port.ordering_violations == 1
        with pytest.raises(Exception):
            port.raise_on_reorder()


class TestEgressLanes:
    def test_lane_bytes_recorded(self, config):
        port = OutputPort(config, 0, n_fibers=2, n_wavelengths=2)
        packet = make_packet(pid=0, size=K, dst=0)
        batch = make_batch(port, 0, completing=completing(port, [packet]))
        frame = frame_of(port, config, [batch])
        port.transmit_frame(frame, 0.0)
        assert sum(port.lane_bytes.values()) == K
        assert set(port.lane_bytes) <= {(f, w) for f in range(2) for w in range(2)}

    def test_many_flows_spread_over_lanes(self, config):
        from repro.traffic import FlowGenerator
        from repro.traffic.packet import Packet

        port = OutputPort(config, 0, n_fibers=4, n_wavelengths=4)
        flows = FlowGenerator(flows_per_pair=512)
        packets = [
            Packet(i, 256, 0, 0, flows.flow_for(0, 0, i), 0.0) for i in range(512)
        ]
        batches = [
            make_batch(port, 0, i, completing=completing(port, [p]))
            for i, p in enumerate(packets)
        ]
        frame = frame_of(port, config, batches)
        port.transmit_frame(frame, 0.0)
        # Multiple lanes used even within one frame's worth of flows.
        assert len(port.lane_bytes) > 1
