"""Typed attack strategies: adversaries as first-class workload generators.

Challenge 4 / Idea 4 of the paper argue that the SPS's pseudo-random
fiber-to-switch assignment defeats both a hostile operator (who loads
the first fibers first) and an attacker who targets one internal switch.
This module makes those adversaries executable: each strategy produces a
per-fiber / per-pair workload -- normalized per-ribbon fiber weights for
the analytic helpers of :mod:`repro.core.fiber_split`, plus an arrival
block and explicit fiber choices that drive the full SPS -> PFI -> HBM
pipeline through :meth:`repro.core.sps.SplitParallelSwitch.run_stream`.

The threat model (docs/adversary.md) fixes what each adversary knows:

- :class:`KnownAssignmentAttack` knows the *published design* -- the
  contiguous fiber -> switch pattern every datasheet would document --
  and concentrates its flows on the fibers that pattern says feed one
  victim switch.  With ``oracle=True`` it instead knows the deployed
  device's *actual* assignment (a leaked manufacturing seed): the upper
  bound that shows secrecy, not randomness alone, is the defense.
- :class:`ObliviousProbeAttack` knows nothing but can send probe loads
  and observe end-to-end loss.  It infers which fibers share a switch
  from pairwise overload feedback over a bounded probe budget
  (:func:`probe_loss`), then concentrates on the discovered groups --
  the adaptive attacker Tiny Tera-style worst-case methodology warns
  about.
- :class:`OperatorSkew` is not malicious at all: an operator populating
  fibers in rack order, so load decays geometrically from fiber 0 --
  Challenge 4's "first fibers connected first" skew.
- :class:`BurstSynchronizedAttack` aligns ON/OFF bursts across every
  ribbon (where honest ON/OFF sources have independent random phases),
  so the victim switch sees the whole package's burst at once.

Every strategy is a frozen dataclass: picklable for the campaign's
process pool, hashable for memoised sweeps, and printable in reports.
All randomness is drawn from PRNGs seeded by explicit fields, so a
strategy run twice -- in any process -- produces the identical workload.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import RouterConfig
from ..core.fiber_split import (
    ContiguousSplitter,
    FiberSplitter,
    overload_loss_fraction,
    per_switch_port_loads,
)
from ..errors import ConfigError
from ..traffic import (
    ArrivalProcess,
    FixedSize,
    FiveTuple,
    TrafficGenerator,
    uniform_matrix,
)
from ..traffic.generators import fiber_load_profile
from ..traffic.stream import ArrivalBlock
from ..units import rate_to_bytes_per_ns

#: Capacity (in single-fiber units) used by the probe oracle: two fibers
#: colliding on one switch port offer 2.0, a lone fiber offers 1.0, so a
#: threshold between them turns per-port overload loss into a collision
#: bit the attacker can read off end-to-end.
PROBE_PORT_CAPACITY = 1.5


def probe_loss(splitter: FiberSplitter, ribbon: int, fibers: Sequence[int]) -> float:
    """Loss feedback for one probe: load ``fibers`` of ``ribbon`` at one
    fiber-unit each, capacity :data:`PROBE_PORT_CAPACITY` per port.

    This is the only visibility the oblivious attacker has: it cannot
    read the assignment, only send traffic and measure what fraction was
    lost (:func:`~repro.core.fiber_split.overload_loss_fraction`).
    """
    profile = np.zeros(splitter.n_fibers)
    for f in fibers:
        if not 0 <= f < splitter.n_fibers:
            raise ConfigError(f"probe fiber {f} out of range")
        profile[f] += 1.0
    profiles = [np.zeros(splitter.n_fibers)] * ribbon + [profile]
    port_loads = per_switch_port_loads(splitter, profiles)
    return overload_loss_fraction(port_loads[:, ribbon], PROBE_PORT_CAPACITY)


def _mix_with_background(
    targeted: np.ndarray, attack_fraction: float
) -> np.ndarray:
    """Blend an attack profile with uniform background traffic.

    The attacker controls ``attack_fraction`` of the offered load; the
    rest is ordinary ECMP-hashed traffic spread evenly over all fibers.
    """
    n = targeted.size
    uniform = np.full(n, 1.0 / n)
    total = targeted.sum()
    normalized = targeted / total if total > 0 else uniform
    return (1.0 - attack_fraction) * uniform + attack_fraction * normalized


def weighted_fibers(
    block: ArrivalBlock, fiber_weights: Sequence[np.ndarray]
) -> np.ndarray:
    """Deterministic byte-weighted fiber choice (smooth weighted
    round-robin): ribbon r's bytes land on fiber f in proportion
    ``fiber_weights[r][f]``, with no sampling noise.

    Each ribbon keeps per-fiber credit that grows by ``weight * size``
    on every arrival of ``block``; the arrival takes the fiber with the
    most credit and pays its size back.  The running deviation from the
    exact weighted split stays bounded by one packet per fiber, so the
    analytic per-switch loads of :mod:`repro.core.fiber_split` and the
    simulated per-switch offered bytes agree to within a packet.
    Returns one fiber per arrival.
    """
    credits = [np.zeros(len(w), dtype=np.float64) for w in fiber_weights]
    fibers = np.empty(len(block), dtype=np.int64)
    for i, (ribbon, size) in enumerate(
        zip(block.inputs.tolist(), block.sizes.tolist())
    ):
        credit = credits[ribbon]
        credit += fiber_weights[ribbon] * size
        fiber = int(np.argmax(credit))
        credit[fiber] -= size
        fibers[i] = fiber
    return fibers


def _carrier_block(
    config: RouterConfig,
    load: float,
    duration_ns: float,
    seed: int,
    packet_bytes: int,
    workload: Optional[str],
) -> ArrivalBlock:
    """The carrier traffic an attack rides on, as one whole-run block:
    the historical fixed-size Poisson stream, or -- when ``workload`` is
    given -- a :func:`~repro.traffic.stream.workload_source` family."""
    port_rate_bps = config.fibers_per_ribbon * config.per_fiber_rate_bps
    if workload is not None:
        from ..traffic.stream import workload_source

        source = workload_source(
            workload,
            n_ports=config.n_ribbons,
            port_rate_bps=port_rate_bps,
            load=load,
            seed=seed,
            duration_ns=duration_ns,
            packet_bytes=packet_bytes,
        )
    else:
        source = TrafficGenerator(
            n_ports=config.n_ribbons,
            port_rate_bps=port_rate_bps,
            matrix=uniform_matrix(config.n_ribbons, load),
            size_dist=FixedSize(packet_bytes),
            process=ArrivalProcess.POISSON,
            seed=seed,
            flows_per_pair=256,
        )
    (block,) = source.blocks(duration_ns, block_ns=duration_ns)
    return block


@dataclass(frozen=True)
class AttackStrategy(ABC):
    """One adversarial workload: fiber weights + a packet stream.

    ``attack_fraction`` is the share of the total offered load the
    adversary controls; the remaining ``1 - attack_fraction`` is honest
    uniform background traffic (an attacker rarely owns the whole
    ingress).  Subclasses define where the attack share lands.
    """

    attack_fraction: float = 0.6

    #: CLI / report identifier; overridden per subclass.
    name = "abstract"

    def __post_init__(self) -> None:
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ConfigError(
                f"attack_fraction must be in [0, 1], got {self.attack_fraction}"
            )

    # -- the two contracts -------------------------------------------------

    @abstractmethod
    def attack_profile(
        self, splitter: FiberSplitter, ribbon: int
    ) -> np.ndarray:
        """Unnormalized per-fiber attack weights for one ribbon.

        ``splitter`` is the *deployed* splitter; strategies may only use
        it through their declared knowledge (the known-assignment
        attacker ignores it unless ``oracle``; the prober touches it
        only via :func:`probe_loss`).
        """

    def victim_switch(self, splitter: FiberSplitter) -> Optional[int]:
        """The switch this strategy aims at, or ``None`` when the gain
        should be read off the worst-loaded switch instead."""
        return None

    # -- derived workload --------------------------------------------------

    def fiber_weights(
        self, splitter: FiberSplitter, n_ribbons: int
    ) -> List[np.ndarray]:
        """Normalized per-ribbon fiber weights (each sums to 1),
        background included -- the input to
        :func:`~repro.core.fiber_split.per_switch_loads`."""
        return [
            _mix_with_background(
                np.asarray(self.attack_profile(splitter, r), dtype=np.float64),
                self.attack_fraction,
            )
            for r in range(n_ribbons)
        ]

    def build_workload(
        self,
        config: RouterConfig,
        splitter: FiberSplitter,
        load: float,
        duration_ns: float,
        seed: int,
        packet_bytes: int = 1500,
        workload: Optional[str] = None,
    ) -> Tuple[ArrivalBlock, np.ndarray]:
        """``(block, fibers)`` driving the full router pipeline: the
        whole run's arrivals as one
        :class:`~repro.traffic.stream.ArrivalBlock` and each arrival's
        fiber within its ribbon.

        The default builds an admissible uniform ribbon-level matrix at
        ``load`` (the attack redistributes traffic across *fibers*, not
        ribbons, so the matrix stays admissible) and assigns fibers by
        the deterministic byte-weighted round-robin -- all randomness
        comes from the seeded generator, so identical inputs give the
        identical workload in any process.  ``workload`` swaps the
        carrier traffic for a streaming family
        (:func:`~repro.traffic.stream.workload_source` spec) -- the
        attack's fiber weighting applies unchanged.
        """
        block = _carrier_block(
            config, load, duration_ns, seed, packet_bytes, workload
        )
        weights = self.fiber_weights(splitter, config.n_ribbons)
        return block, weighted_fibers(block, weights)

    def describe(self) -> str:
        return f"{self.name}(attack_fraction={self.attack_fraction:g})"


@dataclass(frozen=True)
class KnownAssignmentAttack(AttackStrategy):
    """Concentrate flows on the fibers feeding one victim switch.

    Without ``oracle`` the attacker reads the *published* contiguous
    pattern (fiber f -> switch f // alpha) -- exactly right against
    :class:`~repro.core.fiber_split.ContiguousSplitter`, systematically
    wrong against a seeded pseudo-random split.  With ``oracle`` the
    attacker reads the deployed assignment itself, the leaked-seed upper
    bound.
    """

    victim: int = 0
    oracle: bool = False

    name = "known-assignment"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.victim < 0:
            raise ConfigError(f"victim must be >= 0, got {self.victim}")

    def attack_profile(self, splitter: FiberSplitter, ribbon: int) -> np.ndarray:
        if self.victim >= splitter.n_switches:
            raise ConfigError(
                f"victim switch {self.victim} out of range "
                f"(H={splitter.n_switches})"
            )
        believed = (
            splitter
            if self.oracle
            else ContiguousSplitter(splitter.n_fibers, splitter.n_switches)
        )
        profile = np.zeros(splitter.n_fibers)
        profile[believed.fibers_to(ribbon, self.victim)] = 1.0
        return profile

    def victim_switch(self, splitter: FiberSplitter) -> Optional[int]:
        return self.victim

    def describe(self) -> str:
        kind = "oracle" if self.oracle else "design-knowledge"
        return (
            f"{self.name}({kind}, victim={self.victim}, "
            f"attack_fraction={self.attack_fraction:g})"
        )


@dataclass(frozen=True)
class ObliviousProbeAttack(AttackStrategy):
    """Infer the fiber grouping from loss feedback, then concentrate.

    Per ribbon, the attacker anchors on the fiber the published design
    says feeds the victim, then spends ``probe_rounds`` pairwise probes
    (:func:`probe_loss`) discovering which other fibers collide with the
    anchor on the same switch.  Against a contiguous split this recovers
    the victim's whole alpha-block; against a pseudo-random split it
    recovers (budget permitting) the anchor's *actual* group -- but each
    ribbon's group feeds a different, unpredictable switch, so the
    per-ribbon decorrelation of Idea 4 caps the cross-ribbon pile-up
    even for an adaptive prober.
    """

    victim: int = 0
    probe_rounds: int = 24
    probe_seed: int = 0

    name = "oblivious-probe"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.victim < 0:
            raise ConfigError(f"victim must be >= 0, got {self.victim}")
        if self.probe_rounds < 0:
            raise ConfigError(
                f"probe_rounds must be >= 0, got {self.probe_rounds}"
            )

    def _anchor(self, splitter: FiberSplitter) -> int:
        if self.victim >= splitter.n_switches:
            raise ConfigError(
                f"victim switch {self.victim} out of range "
                f"(H={splitter.n_switches})"
            )
        return self.victim * splitter.alpha

    def discovered_fibers(
        self, splitter: FiberSplitter, ribbon: int
    ) -> List[int]:
        """The anchor plus every fiber a probe found colliding with it."""
        anchor = self._anchor(splitter)
        rng = np.random.default_rng((self.probe_seed, ribbon))
        candidates = [f for f in range(splitter.n_fibers) if f != anchor]
        rng.shuffle(candidates)
        found = [anchor]
        for g in candidates[: self.probe_rounds]:
            if probe_loss(splitter, ribbon, [anchor, g]) > 0.0:
                found.append(g)
            if len(found) == splitter.alpha:
                break
        return sorted(found)

    def attack_profile(self, splitter: FiberSplitter, ribbon: int) -> np.ndarray:
        profile = np.zeros(splitter.n_fibers)
        profile[self.discovered_fibers(splitter, ribbon)] = 1.0
        return profile

    def victim_switch(self, splitter: FiberSplitter) -> Optional[int]:
        # The attacker piles onto whichever switch actually serves its
        # anchor group; ribbon 0's anchor stands in for "the" victim
        # (under a contiguous split this is exactly `victim`).
        return int(splitter.assignment_array(0)[self._anchor(splitter)])

    def describe(self) -> str:
        return (
            f"{self.name}(victim={self.victim}, rounds={self.probe_rounds}, "
            f"attack_fraction={self.attack_fraction:g})"
        )


@dataclass(frozen=True)
class OperatorSkew(AttackStrategy):
    """Challenge 4's hostile-by-accident operator: fibers populated in
    rack order, so fiber 0 carries ``skew`` times fiber F-1's load.

    ``attack_fraction`` here is the share of load following rack order
    (1.0 = every tenant was provisioned first-fiber-first).
    """

    skew: float = 4.0
    attack_fraction: float = 1.0

    name = "operator-skew"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.skew > 0:  # also catches NaN
            raise ConfigError(f"skew must be positive, got {self.skew}")

    def attack_profile(self, splitter: FiberSplitter, ribbon: int) -> np.ndarray:
        return fiber_load_profile(
            splitter.n_fibers, "first-connected", total_load=1.0, skew=self.skew
        )

    def describe(self) -> str:
        return (
            f"{self.name}(skew={self.skew:g}, "
            f"attack_fraction={self.attack_fraction:g})"
        )


@dataclass(frozen=True)
class BurstSynchronizedAttack(AttackStrategy):
    """Align ON/OFF bursts across every ribbon onto the victim's fibers.

    Honest bursty sources have independent phases (the ON/OFF process of
    :class:`~repro.traffic.generators.TrafficGenerator` draws a random
    phase per pair, deliberately decorrelating them).  This attacker
    synchronises: during each ON window of ``duty * period_ns`` every
    ribbon blasts the victim-targeted fibers at ``attack_fraction * load
    / duty`` of its line rate, so the victim switch absorbs the whole
    package's burst at once while the time-averaged load stays at
    ``load``.  Targeting uses the published contiguous pattern (compose
    with :class:`KnownAssignmentAttack` semantics).
    """

    victim: int = 0
    period_ns: float = 2_000.0
    duty: float = 0.5

    name = "burst-sync"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.victim < 0:
            raise ConfigError(f"victim must be >= 0, got {self.victim}")
        if self.period_ns <= 0:
            raise ConfigError(
                f"period_ns must be positive, got {self.period_ns}"
            )
        if not 0.0 < self.duty <= 1.0:
            raise ConfigError(f"duty must be in (0, 1], got {self.duty}")

    def attack_profile(self, splitter: FiberSplitter, ribbon: int) -> np.ndarray:
        if self.victim >= splitter.n_switches:
            raise ConfigError(
                f"victim switch {self.victim} out of range "
                f"(H={splitter.n_switches})"
            )
        believed = ContiguousSplitter(splitter.n_fibers, splitter.n_switches)
        profile = np.zeros(splitter.n_fibers)
        profile[believed.fibers_to(ribbon, self.victim)] = 1.0
        return profile

    def victim_switch(self, splitter: FiberSplitter) -> Optional[int]:
        return self.victim

    def build_workload(
        self,
        config: RouterConfig,
        splitter: FiberSplitter,
        load: float,
        duration_ns: float,
        seed: int,
        packet_bytes: int = 1500,
        workload: Optional[str] = None,
    ) -> Tuple[ArrivalBlock, np.ndarray]:
        """Background traffic plus synchronized burst trains.

        The burst ON rate is ``attack_fraction * load / duty`` of the
        ribbon line rate, clamped to the line rate (an attacker cannot
        exceed its physical ingress), identical windows on every ribbon.
        ``workload`` swaps the background for a streaming family; the
        crafted bursts are unchanged.  Background and bursts merge by a
        stable sort on arrival time (background first at equal times)
        and take fresh pids in that order.
        """
        attack_load = self.attack_fraction * load
        if attack_load / self.duty > 1.0 + 1e-9:
            raise ConfigError(
                f"burst ON rate {attack_load / self.duty:g} exceeds the line "
                f"rate; raise duty (>= {attack_load:g}) or lower the load"
            )
        background_load = load - attack_load
        n_ribbons = config.n_ribbons
        # (times, sizes, inputs, outputs, flow_ids) per part: the
        # background first, then each window's burst train, merged by
        # one stable sort below.
        flows: List[FiveTuple] = []
        empty = np.empty(0, dtype=np.int64)
        parts = [(np.empty(0), empty, empty, empty, empty)]
        if background_load > 0:
            carrier = _carrier_block(
                config, background_load, duration_ns, seed, packet_bytes,
                workload,
            )
            flows.extend(carrier.flows)
            parts.append((
                carrier.times, carrier.sizes, carrier.inputs,
                carrier.outputs, carrier.flow_ids,
            ))

        ribbon_rate = rate_to_bytes_per_ns(
            config.fibers_per_ribbon * config.per_fiber_rate_bps
        )
        on_rate = min(1.0, attack_load / self.duty) * ribbon_rate
        if attack_load > 0 and on_rate > 0:
            gap_ns = packet_bytes / on_rate
            on_ns = self.duty * self.period_ns
            per_window = max(int(on_ns / gap_ns), 1)
            ribbons = np.arange(n_ribbons, dtype=np.int64)
            window = 0
            while window * self.period_ns < duration_ns:
                start = window * self.period_ns
                ks = np.arange(per_window)
                arrivals = start + ks * gap_ns
                sent = arrivals < min(start + on_ns, duration_ns)
                ks, arrivals = ks[sent], arrivals[sent]
                parts.append((
                    np.repeat(arrivals, n_ribbons),
                    np.full(ks.size * n_ribbons, packet_bytes, dtype=np.int64),
                    np.tile(ribbons, ks.size),
                    (ribbons[None, :] + window + ks[:, None]).ravel() % n_ribbons,
                    np.tile(ribbons + len(flows), ks.size),
                ))
                # One crafted flow per (ribbon, window): bursts are
                # deliberately flow-dense and synchronized.
                flows.extend(
                    FiveTuple(
                        src_ip=(172 << 24) | (ribbon << 16) | (window & 0xFFFF),
                        dst_ip=(203 << 24) | (self.victim << 16),
                        src_port=1024 + (window % 60_000),
                        dst_port=179,
                    )
                    for ribbon in range(n_ribbons)
                )
                window += 1

        times, sizes, inputs, outputs, flow_ids = (
            np.concatenate(column) for column in zip(*parts)
        )
        order = np.argsort(times, kind="stable")
        block = ArrivalBlock(
            times[order],
            sizes[order],
            inputs[order],
            outputs[order],
            flows,
            0.0,
            duration_ns,
            flow_ids=flow_ids[order],
        )
        weights = self.fiber_weights(splitter, config.n_ribbons)
        return block, weighted_fibers(block, weights)

    def describe(self) -> str:
        return (
            f"{self.name}(victim={self.victim}, period={self.period_ns:g} ns, "
            f"duty={self.duty:g}, attack_fraction={self.attack_fraction:g})"
        )


#: CLI name -> strategy class.
STRATEGIES = {
    KnownAssignmentAttack.name: KnownAssignmentAttack,
    ObliviousProbeAttack.name: ObliviousProbeAttack,
    OperatorSkew.name: OperatorSkew,
    BurstSynchronizedAttack.name: BurstSynchronizedAttack,
}


def make_strategy(name: str, **kwargs) -> AttackStrategy:
    """Instantiate a strategy by its CLI name."""
    cls = STRATEGIES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown attack strategy {name!r} "
            f"(expected one of {sorted(STRATEGIES)})"
        )
    return cls(**kwargs)
