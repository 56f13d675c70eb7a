"""Batch and frame assembly: byte conservation, straddling, padding."""

import numpy as np
import pytest

from repro.core.frames import (
    ArrivalColumns,
    Batch,
    BatchAssembler,
    Frame,
    FrameAssembler,
    first_arrivals,
    segment_rows,
)
from repro.errors import ConfigError

K = 1024  # batch size used throughout


def assembler(output=1):
    return BatchAssembler(output=output, batch_bytes=K)


def completing_pids(batch):
    """Pids of the packets ``batch`` completes, in arrival order."""
    return segment_rows(batch.completing, "pids")[0].tolist()


def offer(asm, sizes, times=None, pids=None):
    """Feed one block of arrivals for the assembler's pair on its own;
    returns the batches they complete, in order."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n = sizes.size
    times = np.zeros(n) if times is None else np.asarray(times, dtype=np.float64)
    pids = np.arange(n) if pids is None else np.asarray(pids)
    zeros = np.zeros(n, dtype=np.int64)
    columns = ArrivalColumns(times, sizes, pids, zeros, zeros, np.arange(n))
    emitted = []
    position = asm.load(columns, 0, np.arange(n), sizes)
    while position is not None:
        emitted += asm.complete(float(times[position]))
        position = asm.next_completion()
    asm.close_block()
    return emitted


class TestBatchAssembler:
    def test_small_packets_fill_one_batch(self):
        asm = assembler()
        emitted = offer(asm, [256] * 4, times=[0.0, 1.0, 2.0, 3.0])
        assert len(emitted) == 1
        batch = emitted[0]
        assert batch.size_bytes == K
        assert batch.payload_bytes == K
        assert batch.padding_bytes == 0
        assert completing_pids(batch) == [0, 1, 2, 3]

    def test_packet_straddles_two_batches(self):
        asm = assembler()
        first = offer(asm, [800], times=[0.0], pids=[0])
        assert first == []
        # 800 + 800 = 1600: first batch closes at 1024, the second packet
        # straddles and completes in the (still partial) second batch.
        second = offer(asm, [800], times=[1.0], pids=[1])
        assert len(second) == 1
        assert completing_pids(second[0]) == [0]
        assert asm.fill_bytes == 1600 - K

    def test_packet_exactly_filling_batch_completes_in_it(self):
        asm = assembler()
        emitted = offer(asm, [K])
        assert len(emitted) == 1
        assert completing_pids(emitted[0]) == [0]
        assert asm.fill_bytes == 0

    def test_giant_packet_spans_many_batches(self):
        asm = assembler()
        emitted = offer(asm, [3 * K + 100])
        assert len(emitted) == 3
        # The packet completes only in the batch holding its last byte,
        # which is still forming.
        assert all(completing_pids(b) == [] for b in emitted)
        assert asm.fill_bytes == 100

    def test_flush_pads_partial(self):
        asm = assembler()
        offer(asm, [300])
        batch = asm.flush(5.0)
        assert batch is not None
        assert batch.payload_bytes == 300
        assert batch.padding_bytes == K - 300
        assert asm.fill_bytes == 0

    def test_flush_empty_returns_none(self):
        assert assembler().flush(0.0) is None

    def test_sequence_numbers_increment(self):
        asm = assembler()
        batches = offer(asm, [2 * K])
        assert [b.seq for b in batches] == [0, 1]
        assert asm.batches_emitted == 2

    def test_byte_conservation(self):
        asm = assembler()
        sizes = [137, 964, 2000, 41, 1024, 333]
        batches = offer(asm, sizes)
        total_emitted = sum(b.payload_bytes for b in batches)
        assert total_emitted + asm.fill_bytes == sum(sizes)


class TestBatch:
    def test_slice_bytes(self):
        batch = Batch(0, 0, 1024, 1024, [], 0.0)
        assert batch.slice_bytes(4) == 256

    def test_unsliceable_rejected(self):
        batch = Batch(0, 0, 1000, 1000, [], 0.0)
        with pytest.raises(ConfigError):
            batch.slice_bytes(3)


def first_arrival_loop(batch):
    """Reference: the first admitted row of the first segment that has one."""
    for columns, lo, hi in batch.completing:
        for row in range(lo, hi):
            if columns.admitted is None or columns.admitted[row]:
                return float(columns.times[row])
    return None


class TestFirstArrivals:
    def columns(self, n, seed, dropped=()):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 1_000.0, n))
        zeros = np.zeros(n, dtype=np.int64)
        columns = ArrivalColumns(times, np.full(n, 64), np.arange(n), zeros, zeros, np.arange(n))
        for row in dropped:
            columns.drop(row)
        return columns

    def test_matches_the_per_batch_loop(self):
        rng = np.random.default_rng(7)
        blocks = [
            self.columns(40, 1),
            self.columns(40, 2, dropped=range(5, 25)),
            self.columns(40, 3, dropped=range(40)),
        ]
        batches = []
        for seq in range(300):
            segments = []
            for _ in range(int(rng.integers(0, 4))):
                columns = blocks[int(rng.integers(0, len(blocks)))]
                lo = int(rng.integers(0, 40))
                segments.append((columns, lo, int(rng.integers(lo, 41))))
            batches.append(Batch(0, seq, K, K, segments, 2_000.0))
        expected = [first_arrival_loop(batch) for batch in batches]
        got = first_arrivals(batches)
        assert [None if np.isnan(t) else t for t in got.tolist()] == expected
        assert any(t is None for t in expected) and any(t is not None for t in expected)

    def test_no_batches_and_no_segments(self):
        assert first_arrivals([]).size == 0
        assert np.isnan(first_arrivals([Batch(0, 0, K, K, [], 0.0)])).all()


class TestFrameAssembler:
    def make_batches(self, count, output=0):
        asm = BatchAssembler(output, K)
        return offer(asm, [K] * count, times=[float(pid) for pid in range(count)])

    def test_frame_completes_at_exact_batch_count(self):
        fasm = FrameAssembler(0, K, batches_per_frame=4)
        batches = self.make_batches(4)
        results = [fasm.add(b, float(i)) for i, b in enumerate(batches)]
        assert results[:3] == [None, None, None]
        frame = results[3]
        assert isinstance(frame, Frame)
        assert frame.size_bytes == 4 * K
        assert frame.payload_bytes == 4 * K
        assert frame.completing_count == 4

    def test_flush_builds_padded_frame(self):
        fasm = FrameAssembler(0, K, 4)
        for batch in self.make_batches(2):
            fasm.add(batch, 0.0)
        frame = fasm.flush(9.0)
        assert frame.size_bytes == 4 * K
        assert frame.payload_bytes == 2 * K
        assert frame.padding_bytes == 2 * K

    def test_flush_empty_is_none(self):
        assert FrameAssembler(0, K, 4).flush(0.0) is None

    def test_indices_increment(self):
        fasm = FrameAssembler(0, K, 2)
        frames = []
        for batch in self.make_batches(4):
            frame = fasm.add(batch, 0.0)
            if frame:
                frames.append(frame)
        assert [f.index for f in frames] == [0, 1]

    def test_wrong_output_rejected(self):
        fasm = FrameAssembler(0, K, 4)
        bad = Batch(3, 0, K, K, [], 0.0)
        with pytest.raises(ConfigError):
            fasm.add(bad, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FrameAssembler(0, K, 0)
        with pytest.raises(ConfigError):
            BatchAssembler(0, 0)
