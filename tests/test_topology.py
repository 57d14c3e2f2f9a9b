"""Tests for repro.cpu.topology."""

import dataclasses

import pytest

from repro.cpu.topology import DEFAULT_LINE_SIZE, LatencySpec, MachineSpec
from repro.errors import ConfigError


class TestLatencySpec:
    def test_defaults_follow_paper(self):
        lat = LatencySpec()
        assert lat.l1 == 3
        assert lat.l2 == 14
        assert lat.l3 == 75
        assert lat.remote_same_chip == 127

    def test_most_distant_dram_matches_paper(self):
        # Paper: 336 cycles to the most distant DRAM bank (2 hops).
        lat = LatencySpec()
        assert lat.dram_base + 2 * lat.dram_hop == 336

    def test_validate_rejects_negative(self):
        with pytest.raises(ConfigError):
            LatencySpec(l1=-1).validate()

    def test_validate_rejects_inverted_levels(self):
        with pytest.raises(ConfigError):
            LatencySpec(l1=20, l2=10).validate()


class TestMachineSpec:
    def test_amd16_shape(self):
        spec = MachineSpec.amd16()
        assert spec.n_cores == 16
        assert spec.n_chips == 4
        assert spec.freq_hz == 2e9

    def test_onchip_bytes_matches_paper_16mb(self):
        # Paper: 16 MB = four 2 MB L3 caches + sixteen 512 KB L2 caches.
        spec = MachineSpec.amd16()
        assert spec.onchip_bytes == 16 * 1024 * 1024

    def test_line_counts(self):
        spec = MachineSpec.amd16()
        assert spec.l2_lines == 512 * 1024 // 64
        assert spec.l1_lines * spec.line_size == spec.l1_bytes

    def test_per_core_budget(self):
        spec = MachineSpec.amd16()
        assert spec.per_core_budget_bytes == 512 * 1024 + 2 * 1024 * 1024 // 4

    def test_chip_of(self):
        spec = MachineSpec.amd16()
        assert spec.chip_of(0) == 0
        assert spec.chip_of(3) == 0
        assert spec.chip_of(4) == 1
        assert spec.chip_of(15) == 3

    def test_cores_of_chip(self):
        spec = MachineSpec.amd16()
        assert list(spec.cores_of_chip(2)) == [8, 9, 10, 11]

    def test_square_interconnect_distances(self):
        spec = MachineSpec.amd16()
        assert spec.chip_distance(0, 0) == 0
        # Square corners: 0-3 and 1-2 are diagonals (two hops).
        assert spec.chip_distance(0, 3) == 2
        assert spec.chip_distance(1, 2) == 2
        assert spec.chip_distance(0, 1) == 1
        assert spec.chip_distance(2, 3) == 1

    def test_chip_distance_symmetric(self):
        spec = MachineSpec.amd16()
        for a in range(4):
            for b in range(4):
                assert spec.chip_distance(a, b) == spec.chip_distance(b, a)

    def test_single_chip_distance(self):
        spec = MachineSpec(n_chips=1, cores_per_chip=4)
        assert spec.chip_distance(0, 0) == 0

    def test_ring_fallback_for_other_chip_counts(self):
        spec = MachineSpec(n_chips=8, cores_per_chip=2)
        assert spec.chip_distance(0, 4) == 4
        assert spec.chip_distance(0, 7) == 1

    def test_seconds_cycles_roundtrip(self):
        spec = MachineSpec.amd16()
        assert spec.seconds(2e9) == pytest.approx(1.0)
        assert spec.seconds(1e9) == pytest.approx(0.5)

    def test_validate_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            MachineSpec(n_chips=0).validate()

    def test_validate_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            MachineSpec(line_size=96).validate()

    def test_validate_rejects_cache_smaller_than_line(self):
        with pytest.raises(ConfigError):
            MachineSpec(l1_bytes=32).validate()

    def test_scaled_shrinks_capacities_and_migration(self):
        base = MachineSpec.amd16()
        scaled = MachineSpec.scaled(8)
        assert scaled.l2_bytes == base.l2_bytes // 8
        assert scaled.l3_bytes == base.l3_bytes // 8
        assert scaled.migration_cost == base.migration_cost // 8
        # Latencies do not scale: they are properties of the hardware.
        assert scaled.latency.l2 == base.latency.l2

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ConfigError):
            MachineSpec.scaled(0)

    def test_scaled_accepts_overrides(self):
        spec = MachineSpec.scaled(8, migration_cost=777)
        assert spec.migration_cost == 777

    def test_future_preset(self):
        spec = MachineSpec.future()
        assert spec.n_cores == 64
        assert spec.migration_cost < MachineSpec.amd16().migration_cost
        assert spec.latency.dram_occupancy > \
            MachineSpec.amd16().latency.dram_occupancy

    def test_spec_is_frozen(self):
        spec = MachineSpec.amd16()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n_chips = 8

    def test_default_line_size(self):
        assert MachineSpec().line_size == DEFAULT_LINE_SIZE
