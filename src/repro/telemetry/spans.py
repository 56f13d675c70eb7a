"""Span taxonomy: the stages a packet crosses through the SPS pipeline.

A *span* is one traversal of one pipeline stage, recorded as a latency
observation in that stage's histogram.  The taxonomy mirrors Fig. 3 /
SS 3.2 end to end:

==========  =================================================================
stage       what the span measures
==========  =================================================================
oeo         O/E conversion serialisation of one packet at the port rate
split       passive fiber-split assignment (0 ns -- the split is passive;
            the per-switch *count* is the observable: the load balance)
batch       batch aggregation wait -- packet arrival to batch emission
stripe      cyclical-crossbar traversal of one batch (one batch time)
hbm_write   HBM write phase of one frame (stretched under channel faults)
hbm_read    HBM read phase of one frame
bypass      tail-to-head direct path of one bypassed frame
drain       output-port wire time of one batch's payload
==========  =================================================================

``hbm_write``/``hbm_read`` also record per-bank-group phase histograms
(``repro_hbm_phase_ns``) and per-channel byte counters
(``repro_hbm_channel_bytes_total``), exposing the striping that PFI's
peak-rate claim rests on.

:class:`SwitchTelemetry` pre-binds every instrument at construction.
What a switch observes per arrival, batch, frame, phase and drop is
buffered and folded into the instruments in bulk -- every
:data:`FOLD_EVERY` observations and before any read (flush on read) --
so the simulation hot path appends to a list; the disabled path
(``telemetry is None`` at each call site) is one pointer comparison.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.frames import first_arrivals
from ..units import rate_to_bytes_per_ns
from .registry import Counter, Histogram, MetricsRegistry

#: Every pipeline stage, in traversal order.
STAGES = (
    "oeo",
    "split",
    "batch",
    "stripe",
    "hbm_write",
    "hbm_read",
    "bypass",
    "drain",
)

#: Metric names (one place, so exporters/tests/docs agree).
STAGE_LATENCY = "repro_stage_latency_ns"
HBM_PHASE = "repro_hbm_phase_ns"
CHANNEL_BYTES = "repro_hbm_channel_bytes_total"
PACKETS = "repro_pipeline_packets_total"
BYTES = "repro_pipeline_bytes_total"
FRAMES = "repro_pipeline_frames_total"
DROPS = "repro_pipeline_dropped_bytes_total"

#: Windowed time-series names (fixed-width-ns windows; see
#: :mod:`repro.telemetry.timeseries`).
WINDOW_BYTES = "repro_window_bytes"
WINDOW_DROPPED = "repro_window_dropped_bytes"
WINDOW_OCCUPANCY = "repro_window_occupancy_bytes"
SPLIT_WINDOW_BYTES = "repro_split_window_bytes"

_HELP = {
    "oeo": "O/E conversion serialisation time per packet",
    "split": "passive fiber-split assignment (0 ns; count = per-switch load)",
    "batch": "batch aggregation wait, packet arrival to batch emission",
    "stripe": "cyclical-crossbar traversal of one batch",
    "hbm_write": "HBM write phase per frame",
    "hbm_read": "HBM read phase per frame",
    "bypass": "tail-to-head bypass per frame",
    "drain": "output-port wire time per batch",
}


#: Buffered observations a :class:`SwitchTelemetry` holds before it
#: folds them in (reads fold at once); bounds the buffers' memory.
FOLD_EVERY = 8_192


class SwitchTelemetry:
    """All instruments of one HBM switch, bound once, labeled ``switch=h``.

    Instruments are plain attributes (``oeo``, ``batch``, ...) and
    pre-sized lists (``write_group``, ``channel_bytes``).  The switch
    records what it sees into buffers -- each block's admitted arrivals
    (:meth:`arrived`), and per batch, frame, phase and drop
    (:meth:`batches_formed`, :attr:`crossings`, :meth:`transmitted`,
    :meth:`hbm_phase`, :meth:`bypassed`, :meth:`dropped`,
    :meth:`stripe_frame_bytes`) -- and :meth:`settle` folds them in
    bulk, in the order they were made: histogram sums add sequentially
    and byte counters and windows add integers, so every dump is the
    one per-observation updates would give.  Any read of the registry
    or of a buffered instrument settles first.
    """

    __slots__ = (
        "registry",
        "switch",
        "oeo",
        "batch",
        "stripe",
        "hbm_write",
        "hbm_read",
        "bypass",
        "drain",
        "write_group",
        "read_group",
        "channel_bytes",
        "packets_in",
        "packets_out",
        "bytes_in",
        "bytes_out",
        "frames_written",
        "frames_read",
        "frames_bypassed",
        "win_bytes_in",
        "win_bytes_out",
        "win_dropped",
        "win_occupancy",
        "_drops",
        "crossings",
        "_buffer",
        "_pending",
        "_crossed",
        "_batch_time_ns",
        "_oeo_ns_per_byte",
    )

    def __init__(self, registry: MetricsRegistry, config, switch: int = 0) -> None:
        self.registry = registry
        self.switch = switch
        label = str(switch)

        def stage(name: str) -> Histogram:
            return registry.histogram(
                STAGE_LATENCY, _HELP[name], stage=name, switch=label
            )

        self.oeo = stage("oeo")
        self.batch = stage("batch")
        self.stripe = stage("stripe")
        self.hbm_write = stage("hbm_write")
        self.hbm_read = stage("hbm_read")
        self.bypass = stage("bypass")
        self.drain = stage("drain")
        self.write_group: List[Histogram] = [
            registry.histogram(
                HBM_PHASE, "HBM phase time by op and bank group",
                op="write", group=str(g), switch=label,
            )
            for g in range(config.n_bank_groups)
        ]
        self.read_group: List[Histogram] = [
            registry.histogram(
                HBM_PHASE, "HBM phase time by op and bank group",
                op="read", group=str(g), switch=label,
            )
            for g in range(config.n_bank_groups)
        ]
        self.channel_bytes: List[Counter] = [
            registry.counter(
                CHANNEL_BYTES, "frame bytes striped onto each HBM channel",
                channel=str(c), switch=label,
            )
            for c in range(config.total_channels)
        ]
        self.packets_in = registry.counter(
            PACKETS, "packets crossing the stage", point="ingress", switch=label
        )
        self.packets_out = registry.counter(
            PACKETS, "packets crossing the stage", point="egress", switch=label
        )
        self.bytes_in = registry.counter(
            BYTES, "bytes crossing the stage", point="ingress", switch=label
        )
        self.bytes_out = registry.counter(
            BYTES, "bytes crossing the stage", point="egress", switch=label
        )
        self.frames_written = registry.counter(
            FRAMES, "frames by disposition", disposition="written", switch=label
        )
        self.frames_read = registry.counter(
            FRAMES, "frames by disposition", disposition="read", switch=label
        )
        self.frames_bypassed = registry.counter(
            FRAMES, "frames by disposition", disposition="bypassed", switch=label
        )
        self.win_bytes_in = registry.timeseries(
            WINDOW_BYTES, "bytes per window by crossing point",
            point="ingress", switch=label,
        )
        self.win_bytes_out = registry.timeseries(
            WINDOW_BYTES, "bytes per window by crossing point",
            point="egress", switch=label,
        )
        self.win_dropped = registry.timeseries(
            WINDOW_DROPPED, "dropped bytes per window", switch=label
        )
        self.win_occupancy = registry.timeseries(
            WINDOW_OCCUPANCY, "in-switch payload high-water per window",
            agg="max", switch=label,
        )
        self._drops: Dict[str, Counter] = {}
        # O/E serialisation time per byte at the port rate: the one
        # conversion each packet pays on its way into the switch.
        self._oeo_ns_per_byte = 1.0 / rate_to_bytes_per_ns(config.port_rate_bps)
        self._buffer = _Buffer()
        self._pending = 0
        #: Batches that have crossed the crossbar.  Each crosses in
        #: exactly one batch time (the crossbar is non-blocking), so the
        #: ``stripe`` stage folds from this count.
        self.crossings = 0
        self._crossed = 0
        self._batch_time_ns = config.batch_time_ns
        settle = self.settle
        registry.add_settler(settle)
        for instrument in (
            self.oeo, self.packets_in, self.bytes_in, self.win_bytes_in,
            self.win_occupancy, self.batch, self.stripe, self.hbm_write, self.hbm_read,
            self.bypass, self.drain, *self.write_group, *self.read_group,
            *self.channel_bytes, self.bytes_out, self.frames_written,
            self.frames_read, self.frames_bypassed, self.win_bytes_out,
            self.win_dropped,
        ):
            instrument._settle = settle

    def drop(self, reason: str, n_bytes: int) -> None:
        """Count dropped bytes by reason (lazily labeled)."""
        counter = self._drops.get(reason)
        if counter is None:
            counter = self.registry.counter(
                DROPS, "dropped bytes by reason",
                reason=reason, switch=str(self.switch),
            )
            counter._settle = self.settle
            self._drops[reason] = counter
        counter.inc(n_bytes)

    # -- buffered observations -----------------------------------------------
    #
    # Each recorder appends to its buffer and counts the observations
    # pending; past FOLD_EVERY they fold at once.

    def arrived(self, times: np.ndarray, sizes: np.ndarray, residual: np.ndarray) -> None:
        """One block's admitted arrivals, in arrival order: their
        times, sizes, and the in-switch payload after each (packet and
        byte counters, O/E spans, ingress and occupancy windows)."""
        buffer = self._buffer
        buffer.arrivals.append((times, sizes, residual))
        self._pending += len(times)
        if self._pending >= FOLD_EVERY:
            self.settle()

    def batches_formed(self, table, batches) -> None:
        """Batches (ids into ``table``) queued at an input when they
        were cut: batch aggregation wait, first completing packet's
        arrival to batch emission (0 for pure-straddle batches that
        complete no packet).  Their cut times and row ranges are copied
        out, as the ids are reused once the batches leave."""
        buffer = self._buffer
        created = buffer.formed_created
        owners = buffer.formed_owners
        blocks = buffer.formed_blocks
        los = buffer.formed_los
        his = buffer.formed_his
        for batch in batches:
            owner = len(created)
            created.append(table.created[batch])
            earlier = table.earlier[batch]
            if earlier is not None:
                for block, lo, hi in earlier:
                    owners.append(owner)
                    blocks.append(block)
                    los.append(lo)
                    his.append(hi)
            block = table.columns[batch]
            if block is not None:
                owners.append(owner)
                blocks.append(block)
                los.append(table.lo[batch])
                his.append(table.hi[batch])
        self._pending += len(batches)
        if self._pending >= FOLD_EVERY:
            self.settle()

    def transmitted(self, start_ns: float, finishes: List[float], sizes: List[int]) -> None:
        """One frame on the wire from ``start_ns``: its payload batches
        finished at ``finishes`` carrying ``sizes`` bytes (output drain
        spans, egress bytes and their windows)."""
        buffer = self._buffer
        buffer.frame_starts.append(start_ns)
        buffer.frame_batches.append(len(finishes))
        buffer.finishes.extend(finishes)
        buffer.sizes.extend(sizes)
        self._pending += len(finishes)
        if self._pending >= FOLD_EVERY:
            self.settle()

    def hbm_phase(
        self, write: bool, span_ns: float, group: int, frame_bytes: int, channels_used: int
    ) -> None:
        """One frame written to (or read from) the HBM in ``span_ns``,
        on bank group ``group``, striped over ``channels_used`` channels
        (see :meth:`stripe_frame_bytes`)."""
        buffer = self._buffer
        spans, groups = buffer.writes if write else buffer.reads
        spans.append(span_ns)
        groups.append(group)
        key = (frame_bytes, channels_used)
        buffer.striped[key] = buffer.striped.get(key, 0) + 1
        self._pending += 1
        if self._pending >= FOLD_EVERY:
            self.settle()

    def bypassed(self, span_ns: float) -> None:
        """One frame sent tail to head, skipping the HBM."""
        self._buffer.bypasses.append(span_ns)
        self._pending += 1
        if self._pending >= FOLD_EVERY:
            self.settle()

    def dropped(self, reason: str, n_bytes: int, t_ns: float) -> None:
        """``n_bytes`` dropped at ``t_ns`` for ``reason``."""
        buffer = self._buffer
        buffer.drop_reasons.append(reason)
        buffer.drop_bytes.append(n_bytes)
        buffer.drop_times.append(t_ns)
        self._pending += 1
        if self._pending >= FOLD_EVERY:
            self.settle()

    def stripe_frame_bytes(self, frame_bytes: int, channels_used: int) -> None:
        """Attribute one frame's bytes across the channels it striped over.

        PFI stripes every frame evenly over the (surviving) channels, so
        each of the first ``channels_used`` channels moves an equal
        share.  Integer division keeps the counters exact in aggregate:
        the remainder goes to channel 0.
        """
        striped = self._buffer.striped
        key = (frame_bytes, channels_used)
        striped[key] = striped.get(key, 0) + 1
        self._pending += 1
        if self._pending >= FOLD_EVERY:
            self.settle()

    def settle(self) -> None:
        """Fold every buffered observation into its instrument."""
        crossed = self.crossings - self._crossed
        if crossed:
            self._crossed += crossed
            self.stripe.observe_many(np.full(crossed, self._batch_time_ns))
        if not self._pending:
            return
        self._pending = 0
        buffer, self._buffer = self._buffer, _Buffer()
        if buffer.arrivals:
            times, sizes, residual = (
                np.concatenate(column) for column in zip(*buffer.arrivals)
            )
            self.packets_in.inc(times.size)
            self.bytes_in.inc(int(sizes.sum()))
            # One O/E conversion per packet: serialisation at the port
            # rate (the SPS single-conversion property).
            self.oeo.observe_many(sizes * self._oeo_ns_per_byte)
            self.win_bytes_in.observe_many(times, sizes)
            self.win_occupancy.observe_many(times, residual)
        if buffer.formed_created:
            created = np.array(buffer.formed_created, dtype=np.float64)
            firsts = first_arrivals(
                created.size, buffer.formed_owners, buffer.formed_blocks,
                buffer.formed_los, buffer.formed_his,
            )
            waits = np.where(np.isnan(firsts), 0.0, created - firsts)
            self.batch.observe_many(np.maximum(0.0, waits))
        if buffer.finishes:
            self._fold_egress(buffer)
        for (spans, groups), histogram, by_group, frames in (
            (buffer.writes, self.hbm_write, self.write_group, self.frames_written),
            (buffer.reads, self.hbm_read, self.read_group, self.frames_read),
        ):
            if spans:
                spans = np.array(spans)
                groups = np.array(groups)
                histogram.observe_many(spans)
                for g in np.unique(groups).tolist():
                    by_group[g].observe_many(spans[groups == g])
                frames.inc(spans.size)
        if buffer.bypasses:
            self.bypass.observe_many(buffer.bypasses)
            self.frames_bypassed.inc(len(buffer.bypasses))
        # Every frame adds integers to the channel counters, so one add
        # per (frame size, channel count) gives the per-frame totals.
        for (frame_bytes, channels), n in buffer.striped.items():
            if channels <= 0:
                continue
            share, remainder = divmod(frame_bytes, channels)
            for c in range(channels):
                self.channel_bytes[c].inc(share * n)
            if remainder:
                self.channel_bytes[0].inc(remainder * n)
        if buffer.drop_reasons:
            totals: Dict[str, int] = {}
            for reason, n_bytes in zip(buffer.drop_reasons, buffer.drop_bytes):
                totals[reason] = totals.get(reason, 0) + n_bytes
            for reason, n_bytes in totals.items():
                self.drop(reason, n_bytes)
            self.win_dropped.observe_many(buffer.drop_times, buffer.drop_bytes)

    def _fold_egress(self, buffer: "_Buffer") -> None:
        finishes = np.array(buffer.finishes)
        sizes = np.array(buffer.sizes, dtype=np.int64)
        # Each batch's wire time starts where the previous batch of its
        # frame finished, or at the frame's start.
        starts = np.empty_like(finishes)
        starts[1:] = finishes[:-1]
        counts = np.array(buffer.frame_batches)
        starts[np.cumsum(counts) - counts] = buffer.frame_starts
        self.drain.observe_many(finishes - starts)
        self.bytes_out.inc(int(sizes.sum()))
        self.win_bytes_out.observe_many(finishes, sizes)


class _Buffer:
    """One :class:`SwitchTelemetry`'s pending observations, as flat
    lists of scalars in the order they were made."""

    __slots__ = (
        "arrivals", "formed_created", "formed_owners", "formed_blocks",
        "formed_los", "formed_his", "frame_starts", "frame_batches", "finishes", "sizes",
        "writes", "reads", "bypasses", "drop_reasons", "drop_bytes",
        "drop_times", "striped",
    )

    def __init__(self) -> None:
        self.arrivals: List = []  # (times, sizes, residual) arrays per block
        # Per batch queued at an input: its cut time; per row range it
        # completes, the batch's position here, the block and bounds.
        self.formed_created: List[float] = []
        self.formed_owners: List[int] = []
        self.formed_blocks: List = []
        self.formed_los: List[int] = []
        self.formed_his: List[int] = []
        self.frame_starts: List[float] = []  # per frame sent: wire start,
        self.frame_batches: List[int] = []  # and its payload batches
        self.finishes: List[float] = []  # per payload batch: finish time
        self.sizes: List[int] = []  # and payload bytes
        self.writes = ([], [])  # (spans, bank groups) of HBM write phases
        self.reads = ([], [])  # and of read phases
        self.bypasses: List[float] = []  # span per bypassed frame
        self.drop_reasons: List[str] = []
        self.drop_bytes: List[int] = []
        self.drop_times: List[float] = []
        self.striped: Dict = {}  # frames per (frame bytes, channels)


def stage_summaries(registry: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    """Per-stage latency roll-up across every switch of a registry.

    Returns ``{stage: {count, mean_ns, p50_ns, p99_ns}}`` for each stage
    that recorded at least one span (absent stages are reported with
    zero count, so consumers always see the full taxonomy).  Percentiles
    are bucket-interpolated estimates; byte-exact determinism comes from
    the underlying bucket counts, which sum exactly across switches.
    """
    merged: Dict[str, Histogram] = {}
    for metric in registry.series(STAGE_LATENCY):
        labels = dict(metric.labels)
        name = labels.get("stage")
        if name is None:
            continue
        rollup = merged.get(name)
        if rollup is None:
            rollup = Histogram(STAGE_LATENCY, "", (), bounds=metric.bounds)
            merged[name] = rollup
        rollup._merge(metric)
    summaries: Dict[str, Dict[str, float]] = {}
    for name in STAGES:
        rollup = merged.get(name)
        if rollup is None:
            summaries[name] = {
                "count": 0.0, "mean_ns": 0.0, "p50_ns": 0.0, "p99_ns": 0.0
            }
        else:
            summaries[name] = {
                "count": float(rollup.count),
                "mean_ns": rollup.mean,
                "p50_ns": rollup.quantile(0.50),
                "p99_ns": rollup.quantile(0.99),
            }
    return summaries
