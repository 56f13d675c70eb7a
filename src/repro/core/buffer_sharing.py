"""Shared-buffer management policies (SS 5, *Buffer management*).

"The assumption that 'buffer size is not keeping up with the increase in
switch capacity' may no longer hold.  Thus, the memory glut may also
impact buffer management and buffer-sharing algorithms [ABM, Reverie],
reducing the need for complex algorithms to address memory scarcity."

This module makes that argument executable.  A shared buffer of ``B``
bytes feeds N output queues; three classic admission policies compete:

- :class:`StaticPartition` -- each output owns B/N (no sharing);
- :class:`CompleteSharing` -- admit while the pool has room (a hog can
  starve everyone);
- :class:`DynamicThreshold` -- Choudhury-Hahne: admit while the queue is
  below ``alpha x`` the *remaining free space* (the classic compromise
  modern datacenter schemes refine).

:class:`SharedBufferSim` replays a bursty arrival trace under a policy
and reports per-output loss.  Sweeping ``B`` shows the paper's point:
under scarcity the policies differ sharply; at HBM-glut sizes they all
converge to zero loss -- the algorithm stops mattering (bench A6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..units import rate_to_bytes_per_ns


class SharingPolicy(ABC):
    """Admission control for one arriving packet."""

    @abstractmethod
    def admits(
        self,
        queue_bytes: float,
        total_bytes: float,
        buffer_bytes: float,
        n_queues: int,
        packet_bytes: int,
    ) -> bool:
        """Whether the packet may enter its output queue."""

    @property
    def name(self) -> str:
        return type(self).__name__


class StaticPartition(SharingPolicy):
    """Each output owns exactly B/N; no borrowing."""

    def admits(self, queue_bytes, total_bytes, buffer_bytes, n_queues, packet_bytes):
        return queue_bytes + packet_bytes <= buffer_bytes / n_queues


class CompleteSharing(SharingPolicy):
    """First come, first buffered: admit while the pool has room."""

    def admits(self, queue_bytes, total_bytes, buffer_bytes, n_queues, packet_bytes):
        return total_bytes + packet_bytes <= buffer_bytes


class DynamicThreshold(SharingPolicy):
    """Choudhury-Hahne: queue may hold up to alpha x free space."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha

    def admits(self, queue_bytes, total_bytes, buffer_bytes, n_queues, packet_bytes):
        free = buffer_bytes - total_bytes
        if packet_bytes > free:
            return False
        return queue_bytes + packet_bytes <= self.alpha * free

    @property
    def name(self) -> str:
        return f"DynamicThreshold(alpha={self.alpha:g})"


@dataclass
class SharingResult:
    """Loss accounting for one policy run."""

    policy: str
    buffer_bytes: int
    offered_bytes: int
    dropped_bytes: int
    per_output_dropped: List[int]
    peak_total_bytes: float

    @property
    def loss_fraction(self) -> float:
        if self.offered_bytes == 0:
            return 0.0
        return self.dropped_bytes / self.offered_bytes


class SharedBufferSim:
    """N output queues draining a shared buffer at the line rate."""

    def __init__(self, n_outputs: int, port_rate_bps: float, buffer_bytes: int):
        if n_outputs <= 0:
            raise ConfigError(f"n_outputs must be positive, got {n_outputs}")
        if port_rate_bps <= 0:
            raise ConfigError(f"port rate must be positive, got {port_rate_bps}")
        if buffer_bytes <= 0:
            raise ConfigError(f"buffer must be positive, got {buffer_bytes}")
        self.n = n_outputs
        self.rate = rate_to_bytes_per_ns(port_rate_bps)
        self.buffer_bytes = buffer_bytes

    def run(
        self,
        arrivals: Sequence[Tuple[float, int, int]],
        policy: SharingPolicy,
    ) -> SharingResult:
        """Replay ``(time_ns, output, size_bytes)`` arrivals under a policy.

        Queues drain fluidly at the port rate between events; the policy
        decides admissions; refused packets are dropped whole.
        """
        levels = np.zeros(self.n)
        last_time = 0.0
        offered = 0
        dropped = 0
        per_output_dropped = [0] * self.n
        peak = 0.0
        for time_ns, output, size in arrivals:
            if time_ns < last_time:
                raise ConfigError("arrivals must be time-sorted")
            if not 0 <= output < self.n:
                raise ConfigError(f"output {output} out of range")
            # Fluid drain since the previous event.
            drained = self.rate * (time_ns - last_time)
            np.subtract(levels, drained, out=levels)
            np.maximum(levels, 0.0, out=levels)
            last_time = time_ns
            offered += size
            total = float(levels.sum())
            if policy.admits(float(levels[output]), total, self.buffer_bytes, self.n, size):
                levels[output] += size
                peak = max(peak, float(levels.sum()))
            else:
                dropped += size
                per_output_dropped[output] += size
        return SharingResult(
            policy=policy.name,
            buffer_bytes=self.buffer_bytes,
            offered_bytes=offered,
            dropped_bytes=dropped,
            per_output_dropped=per_output_dropped,
            peak_total_bytes=peak,
        )


def hotspot_burst_trace(
    n_outputs: int,
    port_rate_bps: float,
    duration_ns: float,
    hog_output: int = 0,
    hog_overload: float = 3.0,
    background_load: float = 0.6,
    packet_bytes: int = 1500,
    seed: int = 0,
) -> List[Tuple[float, int, int]]:
    """A hog output offered ``hog_overload`` x its line rate while the
    others carry ``background_load`` -- the scenario buffer-sharing
    algorithms exist for (one queue must not eat the pool).
    """
    if hog_overload <= 0 or not 0 <= background_load <= 1:
        raise ConfigError("bad trace parameters")
    rng = np.random.default_rng(seed)
    rate = rate_to_bytes_per_ns(port_rate_bps)
    events: List[Tuple[float, int, int]] = []
    for output in range(n_outputs):
        load = hog_overload if output == hog_output else background_load
        mean_gap = packet_bytes / (load * rate)
        t = float(rng.exponential(mean_gap))
        while t < duration_ns:
            events.append((t, output, packet_bytes))
            t += float(rng.exponential(mean_gap))
    events.sort()
    return events
