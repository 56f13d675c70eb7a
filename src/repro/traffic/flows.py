"""Flows and their 5-tuples.

The output port hashes packets "across the available waveguides and
wavelengths using their flow 5-tuples," as in ECMP or LAG (SS 3.2 step 6).
The hash must be (a) deterministic per flow so a flow never reorders
across lanes, and (b) well mixed so lanes load evenly -- we use CRC32
over the packed tuple, which is what commodity switch ASICs approximate.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class FiveTuple:
    """Classic flow identity: addresses, ports and protocol."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = 6  # TCP

    def __post_init__(self) -> None:
        if not 0 <= self.src_ip < 2**32 or not 0 <= self.dst_ip < 2**32:
            raise ValueError("IPs must be 32-bit unsigned values")
        if not 0 <= self.src_port < 2**16 or not 0 <= self.dst_port < 2**16:
            raise ValueError("ports must be 16-bit unsigned values")
        if not 0 <= self.protocol < 2**8:
            raise ValueError("protocol must be an 8-bit value")

    def packed(self) -> bytes:
        """Canonical byte encoding (network order) for hashing."""
        return struct.pack(
            "!IIHHB", self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol
        )

    def stable_hash(self, salt: int = 0) -> int:
        """Deterministic 32-bit hash of the flow (CRC32 with a salt).

        Unlike Python's builtin ``hash``, this does not vary between
        interpreter runs, so lane selection is reproducible.
        """
        return zlib.crc32(self.packed() + struct.pack("!I", salt & 0xFFFFFFFF))


class FlowGenerator:
    """Generates random distinct flows with a seeded RNG.

    ``flows_per_pair`` controls how many concurrent flows exist between
    an (input, output) pair -- more flows means smoother ECMP spreading,
    fewer means lumpier lane loads (the E10 knob).
    """

    def __init__(self, rng: Optional[np.random.Generator] = None, flows_per_pair: int = 64):
        if flows_per_pair <= 0:
            raise ValueError(f"flows_per_pair must be positive, got {flows_per_pair}")
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._flows_per_pair = flows_per_pair
        self._cache: dict = {}

    def flow_for(self, input_port: int, output_port: int, index: Optional[int] = None) -> FiveTuple:
        """A flow between a port pair; ``index`` picks one of the pool,
        otherwise a random member is chosen."""
        if index is None:
            index = int(self._rng.integers(self._flows_per_pair))
        key = (input_port, output_port, index % self._flows_per_pair)
        flow = self._cache.get(key)
        if flow is None:
            flow = FiveTuple(
                src_ip=(10 << 24) | (input_port << 16) | key[2],
                dst_ip=(192 << 24) | (output_port << 16) | key[2],
                src_port=1024 + key[2],
                dst_port=443,
            )
            self._cache[key] = flow
        return flow

    def flows_for_batch(self, inputs, outputs) -> Tuple[np.ndarray, tuple]:
        """Flows for aligned arrays of port pairs, one RNG draw total.

        Vectorized counterpart of per-packet :meth:`flow_for`: the flow
        *indices* for all packets are drawn in a single ``integers``
        call.  Returns ``(flow_ids, table)``: ``table`` holds each
        distinct flow once (built through the same cache, so every
        packet still gets a deterministic member of its pair's pool)
        and ``flow_ids[k]`` indexes packet k's flow in it.
        """
        n = len(inputs)
        if n == 0:
            return np.empty(0, dtype=np.int64), ()
        indices = self._rng.integers(self._flows_per_pair, size=n)
        inputs = np.asarray(inputs, dtype=np.int64)
        outputs = np.asarray(outputs, dtype=np.int64)
        n_outputs = int(outputs.max()) + 1
        keys = (inputs * n_outputs + outputs) * self._flows_per_pair + indices
        unique, flow_ids = np.unique(keys, return_inverse=True)
        flow_for = self.flow_for
        table = tuple(
            flow_for(int(pair // n_outputs), int(pair % n_outputs), int(index))
            for pair, index in zip(
                (unique // self._flows_per_pair).tolist(),
                (unique % self._flows_per_pair).tolist(),
            )
        )
        return flow_ids.astype(np.int64, copy=False), table

    def all_flows(self, input_port: int, output_port: int) -> Iterator[FiveTuple]:
        """Every flow in the (input, output) pool, in index order."""
        for index in range(self._flows_per_pair):
            yield self.flow_for(input_port, output_port, index)
