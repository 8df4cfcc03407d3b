"""Unit tests for lifecycle scenario generators."""

import pytest

from repro.common.config import SystemConfig
from repro.core.system import Machine
from repro.workloads.lifecycle import (LifecycleEvent, build_churn,
                                       build_migration,
                                       build_shootdown_storm)
from repro.workloads.trace import merge_order, validate_stream


def global_order(streams):
    merged = merge_order(streams)
    return [merged.at(position) for position in range(len(merged.order))]


class TestLifecycleEvent:
    def test_unknown_kind_rejected(self):
        event = LifecycleEvent(position=0, kind="hibernate", vm_id=1)
        machine = Machine(SystemConfig(num_cores=1), scheme="pom")
        with pytest.raises(ValueError, match="hibernate"):
            event.apply(machine)

    def test_destroy_dispatch(self):
        machine = Machine(SystemConfig(num_cores=1), scheme="pom")
        machine.touch(3, 1, 0x1000)
        LifecycleEvent(position=0, kind="destroy_vm", vm_id=3).apply(machine)
        assert 3 not in machine.host.vms


class TestBuildChurn:
    def test_rejects_empty_and_bad_generations(self):
        with pytest.raises(ValueError):
            build_churn([])
        with pytest.raises(ValueError):
            build_churn(["gups"], generations=0)

    def test_generations_get_fresh_vm_ids(self):
        wl = build_churn(["gups", "mcf"], generations=3, refs_per_core=50,
                         scale=0.03)
        assert {s.vm_id for s in wl.streams} == set(range(1, 7))
        assert wl.boots == wl.teardowns == 6
        assert len(wl.events) == 6
        assert all(e.kind == "destroy_vm" for e in wl.events)

    def test_streams_stay_valid_after_icount_shift(self):
        wl = build_churn(["gups"], generations=3, refs_per_core=50,
                         scale=0.03)
        for stream in wl.streams:
            validate_stream(stream)

    def test_teardown_fires_right_after_vm_last_reference(self):
        wl = build_churn(["gups", "mcf"], generations=2, refs_per_core=50,
                         scale=0.03)
        order = global_order(wl.streams)
        for event in wl.events:
            # Every reference before the event position belongs to a
            # stream whose VM is this one or still running; crucially the
            # event's VM has no references AT or past the position.
            later = order[event.position:]
            assert all(s.vm_id != event.vm_id for s, _i in later), \
                "destroy_vm scheduled before its VM finished"

    def test_generation_footprints_identical(self):
        # Same per-slot seed: gen 2 replays gen 1's vaddrs exactly.
        wl = build_churn(["gups"], generations=2, refs_per_core=50,
                         scale=0.03)
        first, second = wl.streams
        assert [r.vaddr for r in first.references] == \
            [r.vaddr for r in second.references]


class TestBuildMigration:
    def test_bursts_target_live_vms(self):
        wl = build_migration(["gups", "mcf"], refs_per_core=100,
                             scale=0.03, bursts=3)
        assert wl.kind == "migration"
        assert 0 < len(wl.events) <= 3
        order = global_order(wl.streams)
        for event in wl.events:
            earlier = order[:event.position]
            later = order[event.position:]
            assert any(s.vm_id == event.vm_id for s, _i in earlier), \
                "migration burst before the VM booted"
            assert any(s.vm_id == event.vm_id for s, _i in later), \
                "migration burst after the VM already finished (churn)"

    def test_zero_bursts(self):
        wl = build_migration(["gups"], refs_per_core=50, scale=0.03,
                             bursts=0)
        assert wl.events == []


class TestBuildShootdownStorm:
    def test_rate_zero_is_control(self):
        wl = build_shootdown_storm("gups", num_cores=2, refs_per_core=100,
                                   scale=0.03, per_1k_refs=0.0)
        assert wl.events == []
        assert wl.warmup_references > 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            build_shootdown_storm("gups", per_1k_refs=-1.0)

    def test_events_target_recently_replayed_pages(self):
        wl = build_shootdown_storm("gups", num_cores=2, refs_per_core=200,
                                   scale=0.03, per_1k_refs=50.0)
        assert wl.events, "expected storm events at this rate"
        order = global_order(wl.streams)
        for event in wl.events:
            stream, index = order[event.position - 1]
            ref = stream.references[index]
            assert event.vaddr == ref.vaddr
            assert event.vm_id == stream.vm_id
            assert event.asid == stream.asid

    def test_storm_positions_past_warmup(self):
        wl = build_shootdown_storm("gups", num_cores=2, refs_per_core=200,
                                   scale=0.03, per_1k_refs=50.0)
        warmup_total = sum(wl.warmup_by_core.values()) or \
            wl.warmup_references
        assert all(e.position > warmup_total for e in wl.events)
