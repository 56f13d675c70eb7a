"""Outside-in per-layer tracing: wrappers around repro's public callables.

:class:`Tracer` replaces each target in :data:`LAYERS` -- a class
attribute or a module-level function -- with a timing wrapper, and also
rebinds every ``repro.*`` module attribute that holds the same function
object, so names imported elsewhere (``from .scenario import
execute_scenario``) are caught too.  Nothing under ``src/`` changes.

Each wrapper pushes a frame on one shared stack; a layer's self time is
its calls' duration minus the time spent in wrapped callees.  Time in
no wrapper at all is ``unattributed``, so layer self times plus
``unattributed`` add up to the op's wall time.  Per-call timings fold
into per-layer counters; only op-, block-, ``Engine.run``- and
cell-level spans are kept as records (see :meth:`Tracer.write_spans`).

A target missing from the code (renamed, moved, deleted) is reported as
``absent`` and its layer reads 0 calls, so refactors leave the table
readable instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

_clock = time.perf_counter_ns

#: Wrapper kinds: ``call`` times a call; ``materialize`` also counts the
#: packets returned; ``blocks`` times each ``next()`` of the returned
#: iterator and keeps a span per block; ``engine`` keeps a span per
#: ``Engine.run`` and counts the events it fired; ``cell`` keeps a span
#: per scenario execution.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str, str], ...]], ...] = (
    ("traffic.gen", (
        ("repro.traffic.generators", "TrafficGenerator.materialize", "materialize"),
        ("repro.traffic.generators", "TrafficGenerator.blocks", "blocks"),
        ("repro.traffic.stream", "HeavyTailSource.blocks", "blocks"),
    )),
    ("traffic.to_packets", (
        ("repro.traffic.stream", "ArrivalBlock.to_packets", "call"),
    )),
    ("split.assign", (
        ("repro.core.sps", "assign_fibers", "call"),
    )),
    ("split.partition", (
        ("repro.core.sps", "SplitParallelSwitch.partition_packets", "call"),
    )),
    ("split.router", (
        ("repro.core.sps", "SplitParallelSwitch.run", "call"),
        ("repro.core.sps", "SplitParallelSwitch.run_stream", "call"),
    )),
    ("engine.schedule", (
        ("repro.sim.engine", "Engine.schedule", "call"),
        ("repro.sim.engine", "Engine.schedule_arrival", "call"),
        ("repro.sim.engine", "Engine.schedule_after", "call"),
    )),
    ("engine.loop", (
        ("repro.sim.engine", "Engine.run", "engine"),
    )),
    ("switch.offer", (
        ("repro.core.hbm_switch", "HBMSwitch.stream_offer", "call"),
    )),
    ("switch.input", (
        ("repro.core.input_port", "InputPort.on_packet", "call"),
        ("repro.core.input_port", "InputPort.pop_batch", "call"),
        ("repro.core.input_port", "InputPort.flush_partials", "call"),
    )),
    ("switch.output", (
        ("repro.core.output_port", "OutputPort.transmit_frame", "call"),
    )),
    ("switch.tail", (
        ("repro.core.tail_sram", "TailSRAM.on_batch", "call"),
        ("repro.core.tail_sram", "TailSRAM.pop_frame", "call"),
        ("repro.core.tail_sram", "TailSRAM.pop_frame_for", "call"),
        ("repro.core.tail_sram", "TailSRAM.padded_frame_for", "call"),
    )),
    ("switch.head", (
        ("repro.core.head_sram", "HeadSRAM.on_frame", "call"),
        ("repro.core.head_sram", "HeadSRAM.pop_frame", "call"),
    )),
    ("switch.finish", (
        ("repro.core.hbm_switch", "HBMSwitch.stream_finish", "call"),
    )),
    ("hbm", (
        ("repro.hbm.controller", "HBMController.execute", "call"),
        ("repro.hbm.controller", "HBMController.peak_open_banks", "call"),
    )),
    ("telemetry", (
        ("repro.telemetry.registry", "Counter.inc", "call"),
        ("repro.telemetry.registry", "Histogram.observe", "call"),
        ("repro.telemetry.registry", "Histogram.observe_n", "call"),
        ("repro.telemetry.timeseries", "TimeSeries.observe", "call"),
        ("repro.telemetry.registry", "MetricsRegistry.to_dict", "call"),
        ("repro.telemetry.registry", "MetricsRegistry.merge_dict", "call"),
    )),
    ("faults", (
        ("repro.faults.schedule", "FaultSchedule.fiber_cut_active", "call"),
        ("repro.faults.schedule", "FaultSchedule.switch_view", "call"),
    )),
    ("report", (
        ("repro.reporting.export", "report_to_dict", "call"),
        ("repro.faults.report", "DegradationReport.to_dict", "call"),
    )),
    ("flow", (
        ("repro.flow.engine", "simulate_flow_router", "call"),
        ("repro.flow.engine", "simulate_flow_switch", "call"),
    )),
    ("control", (
        ("repro.control.loop", "ControlLoop.tick", "call"),
        ("repro.control.loop", "ControlLoop.finish", "call"),
    )),
    ("fabric", (
        ("repro.fabric.engine", "simulate_fabric", "call"),
    )),
    ("runtime.digest", (
        ("repro.runtime.scenario", "Scenario.digest", "call"),
    )),
    ("runtime.cache", (
        ("repro.runtime.cache", "ResultCache.load", "call"),
        ("repro.runtime.cache", "ResultCache.store", "call"),
    )),
    ("runtime.dispatch", (
        ("repro.runtime.runtime", "Runtime.map", "call"),
        ("repro.runtime.scenario", "execute_scenario", "cell"),
    )),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Span record names per kept kind.
_SPAN_NAMES = {"blocks": "block", "engine": "engine.run", "cell": "cell"}


class Tracer:
    """Installs the layer wrappers and folds their timings per op."""

    def __init__(self) -> None:
        n = len(LAYERS)
        self.calls: List[int] = [0] * n
        self.self_ns: List[int] = [0] * n
        # Child-time accumulator per open frame; [0] is the op itself.
        self._stack: List[int] = [0]
        # Ids of the open kept spans (None = no enclosing span).
        self._open: List = [None]
        self._next_id = 0
        self._op = -1
        #: Kept spans: (id, parent, name, start_ns, end_ns, op).
        self.spans: List[tuple] = []
        self.events = 0
        self.packets = 0
        self.blocks = 0
        #: "module:qualname" -> "ok" | "absent".
        self.targets: Dict[str, str] = {}
        self._patches: List[tuple] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable target; idempotent until :meth:`uninstall`."""
        if self._patches:
            return
        for index, (_, targets) in enumerate(LAYERS):
            for module_name, qualname, kind in targets:
                key = f"{module_name}:{qualname}"
                resolved = _resolve(module_name, qualname)
                if resolved is None:
                    self.targets[key] = "absent"
                    continue
                owner, attr, original = resolved
                wrapper = self._wrap(original, index, kind)
                self._patch(owner, attr, original, wrapper)
                for module in _repro_modules():
                    if module is owner:
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
                self.targets[key] = "ok"

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- measuring -------------------------------------------------------------

    @contextmanager
    def op(self):
        """Span one op; resets the per-op counters first.

        Yields a dict that holds ``wall_ns`` once the block exits.
        """
        self.calls[:] = [0] * len(LAYERS)
        self.self_ns[:] = [0] * len(LAYERS)
        self.events = self.packets = self.blocks = 0
        self._op += 1
        self._stack[:] = [0]
        span_id = self._new_id()
        self._open[:] = [span_id]
        result = {}
        start = _clock()
        try:
            yield result
        finally:
            end = _clock()
            self._open[:] = [None]
            self.spans.append((span_id, None, "op", start, end, self._op))
            result["wall_ns"] = end - start
            result["wrapped_ns"] = self._stack[0]

    def layer_metrics(self, wall_ns: int, wrapped_ns: int) -> Dict[str, float]:
        """Per-layer metrics of the op just measured by :meth:`op`."""
        metrics: Dict[str, float] = {}
        for index, name in enumerate(LAYER_NAMES):
            self_s = self.self_ns[index] / 1e9
            metrics[f"{name}.calls"] = self.calls[index]
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.share"] = self.self_ns[index] / wall_ns
        metrics["unattributed.self_s"] = (wall_ns - wrapped_ns) / 1e9
        metrics["engine.events"] = self.events
        metrics["engine.events_per_pkt"] = (
            self.events / self.packets if self.packets else 0.0
        )
        metrics["traffic.packets"] = self.packets
        metrics["traffic.blocks"] = self.blocks
        return metrics

    def write_spans(self, path) -> None:
        """Write the kept spans as JSONL, one object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, op in self.spans:
                handle.write(
                    json.dumps({
                        "id": span_id, "parent": parent, "name": name,
                        "start_ns": start, "end_ns": end, "op": op,
                    }) + "\n"
                )

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, index: int, kind: str):
        if kind == "blocks":
            return self._wrap_blocks(fn, index)
        # Closure locals, not attribute lookups: every wrapped call pays
        # for these, and some layers see a million calls per op.
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        keep = kind in _SPAN_NAMES
        span_name = _SPAN_NAMES.get(kind)
        open_spans = self._open
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if keep:
                span_id = tracer._new_id()
                parent = open_spans[-1]
                open_spans.append(span_id)
            stack.append(0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                elapsed = end - start
                self_ns[index] += elapsed - stack.pop()
                calls[index] += 1
                stack[-1] += elapsed
                if keep:
                    open_spans.pop()
                    spans.append((span_id, parent, span_name, start, end, tracer._op))
            if kind == "materialize":
                tracer.packets += len(result)
            elif kind == "engine":
                tracer.events += result
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_blocks(self, fn, index: int):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._traced_blocks(iter(fn(*args, **kwargs)), index)

        return functools.wraps(fn)(wrapper)

    def _traced_blocks(self, inner, index: int):
        stack = self._stack
        while True:
            span_id = self._new_id()
            parent = self._open[-1]
            stack.append(0)
            start = _clock()
            try:
                block = next(inner)
            except StopIteration:
                block = None
            finally:
                end = _clock()
                elapsed = end - start
                self.self_ns[index] += elapsed - stack.pop()
                self.calls[index] += 1
                stack[-1] += elapsed
            if block is None:
                return
            self.spans.append((span_id, parent, "block", start, end, self._op))
            self.blocks += 1
            self.packets += len(block)
            yield block


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, function) for a target, or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not inspect.isfunction(original):
        return None
    return owner, attr, original


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
