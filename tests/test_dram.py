"""Tests for repro.mem.dram (bandwidth model)."""

from repro.cpu.topology import MachineSpec
from repro.mem.dram import (UTILISATION_CAP, Dram, MemoryController)


def spec():
    return MachineSpec.amd16()


class TestMemoryController:
    def test_idle_controller_adds_no_queueing(self):
        controller = MemoryController(0, occupancy=8)
        latency = controller.service(now=1000, transfer_latency=230)
        assert latency == 230 + controller.queued_cycles
        assert controller.queued_cycles <= 8  # near-zero at first touch

    def test_saturation_inflates_latency(self):
        controller = MemoryController(0, occupancy=8)
        quiet = controller.service(0, 100)
        # Hammer the controller at one request per cycle — far beyond
        # its 1-line-per-8-cycles capacity.
        for t in range(2000):
            busy = controller.service(t, 100)
        assert busy > quiet

    def test_queue_delay_bounded_by_cap(self):
        controller = MemoryController(0, occupancy=8)
        for t in range(5000):
            latency = controller.service(t, 0)
        max_delay = 8 * UTILISATION_CAP / (1 - UTILISATION_CAP) * 0.5
        assert latency <= max_delay + 1

    def test_demand_decays_when_idle(self):
        controller = MemoryController(0, occupancy=8)
        for t in range(1000):
            controller.service(t, 0)
        hot = controller.service(1000, 0)
        cool = controller.service(200_000, 0)
        assert cool < hot

    def test_time_skew_does_not_explode(self):
        """A request 'from the past' (cross-core clock skew) must not see
        queueing proportional to the skew — the bug the decayed-load model
        exists to avoid."""
        controller = MemoryController(0, occupancy=8)
        controller.service(1_000_000, 100)
        late = controller.service(10, 100)   # way behind the other core
        assert late < 1000

    def test_counters(self):
        controller = MemoryController(0, occupancy=8)
        controller.service(0, 10)
        controller.service(1, 10)
        assert controller.lines_served == 2


class TestDram:
    def test_lines_interleave_across_banks(self):
        dram = Dram(spec())
        for line in range(8):
            dram.load(line, from_chip=0, now=0, sequential=False)
        assert [c.lines_served for c in dram.controllers] == [2, 2, 2, 2]

    def test_stream_cheaper_than_random(self):
        # Fresh models each, so both fetches meet an idle controller.
        line = 0  # bank 0
        random_cost = Dram(spec()).load(line, from_chip=0, now=0,
                                        sequential=False)
        stream_cost = Dram(spec()).load(line, from_chip=0, now=0,
                                        sequential=True)
        assert stream_cost < random_cost

    def test_distance_penalty(self):
        near = Dram(spec()).load(0, from_chip=0, now=0,
                                 sequential=False)  # bank 0
        far = Dram(spec()).load(3, from_chip=0, now=0,
                                sequential=False)   # bank 3
        assert far > near

    def test_most_distant_access_is_paper_336(self):
        machine_spec = spec()
        dram = Dram(machine_spec)
        # Bank 3 is two hops from chip 0 on the square.
        cost = dram.load(3, from_chip=0, now=0, sequential=False)
        assert cost >= 336
        assert cost <= 336 + 16  # only queueing on top

    def test_totals(self):
        dram = Dram(spec())
        dram.load(0, 0, 0, False)
        dram.load(1, 0, 0, False)
        assert dram.total_lines_served == 2
