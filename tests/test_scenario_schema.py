"""The ``Scenario`` field table: digests, kind fields and value rules.

``Scenario.digest()`` keys every on-disk cache entry, so the digests of
one cell per kind (plus closed-loop, streamed-workload, faulted fabric
and attack cells) are pinned here: a digest changes only with a
declared change to what a scenario means.  The value rules reject bad
inputs at construction with :class:`~repro.errors.ConfigError`, never
later with a bare exception from deep inside an engine.
"""

from __future__ import annotations

import math

import pytest

from repro import ConfigError, scaled_router
from repro.adversary import BurstSynchronizedAttack, KnownAssignmentAttack
from repro.control import ControlConfig
from repro.fabric import ClosTopology, RotationTopology
from repro.faults import FaultSchedule, SwitchFailure, parse_fault_specs
from repro.runtime import Scenario
from repro.runtime.scenario import KIND_FIELDS

_SCHEDULE = FaultSchedule(
    [SwitchFailure(switch=1, start_ns=2_000.0, end_ns=6_000.0)]
)


def _cells():
    router = scaled_router()
    switch = router.switch
    return {
        "switch": Scenario(kind="switch", config=switch, load=0.7, seed=3),
        "router": Scenario(
            kind="router", config=router, load=0.6, duration_ns=20_000.0,
            packet_size=64, process="onoff", schedule=_SCHEDULE,
        ),
        "degradation": Scenario(
            kind="degradation", config=router, schedule=_SCHEDULE,
            n_intervals=4, bypass=False,
        ),
        "fault_cell": Scenario(
            kind="fault_cell", config=router, schedule=_SCHEDULE, tag=2,
            fidelity="flow",
        ),
        "attack": Scenario(
            kind="attack", config=router, splitter_kind="contiguous",
            strategy=KnownAssignmentAttack(victim=1), tag=0,
        ),
        "fabric": Scenario(
            kind="fabric", config=router,
            topology=ClosTopology(k=2, stages=2),
        ),
        "router_closed_loop": Scenario(
            kind="router", config=router, schedule=_SCHEDULE,
            telemetry=True, control=ControlConfig(tick_ns=500.0),
            mode="parallel", workers=2,
        ),
        "router_workload": Scenario(
            kind="router", config=router, load=0.7, workload="lognormal",
            packet_size=1500,
        ),
        "fabric_faulted": Scenario(
            kind="fabric", config=router,
            topology=RotationTopology(n_routers=4, slot_ns=500.0),
            routing="vlb", pattern="hotspot", link_delay_ns=25.0,
            schedule=parse_fault_specs(["router:1@1-3"]),
            fidelity="flow", drain=False,
        ),
        "attack_closed_loop": Scenario(
            kind="attack", config=router, splitter_kind="pseudo-random",
            splitter_seed=5, strategy=BurstSynchronizedAttack(victim=2),
            traffic_seed=9, tag=3, workload="pareto",
            control=ControlConfig(), telemetry=True,
        ),
    }


#: Recorded before the field table replaced the hand-written
#: validation and ``describe()``; they must never move.
PINNED_DIGESTS = {
    "switch": "5956d6f872374e669a035932ba835e12060a272a8d6ed8ae754f8db55ff75dca",
    "router": "b4c35f7ab01b1cd57fd07cb514ca3a608218c44482a886b80b0f2acda94bd4a6",
    "degradation": "420ff9d02c5a84250ecda8e92878d1d1981f7d085706ad6bd271a1a3eb5a9b04",
    "fault_cell": "da9ac68d98230733499d1f838ba8bb982d6f4434c1de24bdbba381d627880acb",
    "attack": "b8b5da1b25eba282f4d2545f99c5d0d02a2358b28621165cfca3ef8a5eed434a",
    "fabric": "33c772f673f87d4b1e2fc8d0668b3e7288840804431d8b6e3f606ba19acdc53b",
    "router_closed_loop": "4b2a92f064b2726a4d8e72f8bb40c47792e6640d21c12dbc97ff0f4bbe79705b",
    "router_workload": "c9419f0762888afae57ab7f73c06e29d8930c47d775ec139b01f7dba067b0429",
    "fabric_faulted": "866c4e18cdac27f0f1213aea2d69b40fc3e914e3f613dba68a1ee1b559af1181",
    "attack_closed_loop": "222342648af4905f16e7df4031d129963de103804a4620ff474e7fbee03bef09",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_scenario_digest_pinned(name):
    assert _cells()[name].digest() == PINNED_DIGESTS[name]


def test_kind_fields_derive_from_the_table():
    # The per-kind field lists as they were written out by hand before
    # the table existed.
    assert {kind: set(names) for kind, names in KIND_FIELDS.items()} == {
        "switch": {
            "packet_size", "process", "padding", "bypass", "drain",
            "telemetry", "workload",
        },
        "router": {
            "packet_size", "process", "padding", "bypass", "schedule",
            "drain", "telemetry", "workload", "control",
        },
        "degradation": {
            "padding", "bypass", "schedule", "n_intervals", "telemetry",
            "workload", "control",
        },
        "fault_cell": {
            "padding", "bypass", "schedule", "n_intervals", "workload",
            "control", "tag",
        },
        "attack": {
            "schedule", "splitter_kind", "splitter_seed", "strategy",
            "traffic_seed", "telemetry", "workload", "control", "tag",
        },
        "fabric": {
            "schedule", "drain", "telemetry", "topology", "routing",
            "pattern", "link_delay_ns",
        },
    }


def _router(**kwargs):
    return Scenario(kind="router", config=scaled_router(), **kwargs)


class TestBadValuesFailAtConstruction:
    @pytest.mark.parametrize("duration_ns", [math.inf, math.nan, -1.0])
    def test_duration_must_be_finite_and_positive(self, duration_ns):
        with pytest.raises(ConfigError, match="duration_ns"):
            _router(duration_ns=duration_ns)

    def test_link_delay_must_be_finite(self):
        with pytest.raises(ConfigError, match="link_delay_ns"):
            Scenario(
                kind="fabric", config=scaled_router(),
                topology=ClosTopology(k=2, stages=2), link_delay_ns=math.nan,
            )

    def test_process_must_be_known(self):
        with pytest.raises(ConfigError, match="process"):
            _router(process="bogus")

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="seed"):
            _router(seed=-1)

    @pytest.mark.parametrize("load", [1.5, -0.1, math.nan])
    def test_load_must_be_a_fraction(self, load):
        with pytest.raises(ConfigError, match="load"):
            _router(load=load)

    @pytest.mark.parametrize(
        "field, value",
        [("mode", "turbo"), ("workers", 0), ("padding", "yes")],
    )
    def test_value_sets(self, field, value):
        with pytest.raises(ConfigError, match=field):
            _router(**{field: value})

    def test_unknown_kind_names_the_kinds(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            Scenario(kind="nope", config=scaled_router())

    def test_trace_workloads_pass_the_prefix_rule(self):
        assert _router(workload="trace:x.csv").workload == "trace:x.csv"

    def test_control_tick_must_be_finite(self):
        with pytest.raises(ConfigError, match="tick_ns"):
            ControlConfig(tick_ns=math.nan)
