"""Tests for repro.workloads.popularity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.rng import make_rng
from repro.workloads.popularity import (OscillatingPopularity,
                                        UniformPopularity, ZipfPopularity,
                                        popularity_for_spec)


class TestUniform:
    def test_in_range(self):
        pop = UniformPopularity(10)
        rng = make_rng(0)
        assert all(0 <= pop.pick(rng, 0) < 10 for _ in range(200))

    def test_covers_all(self):
        pop = UniformPopularity(4)
        rng = make_rng(0)
        seen = {pop.pick(rng, 0) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            UniformPopularity(0)


class TestOscillating:
    def test_square_wave_phases(self):
        pop = OscillatingPopularity(32, period_cycles=1000, shrink=16)
        assert pop.active_window(0) == (0, 32)
        assert pop.active_window(999) == (0, 32)
        assert pop.active_window(1000) == (0, 2)
        assert pop.active_window(2000) == (0, 32)

    def test_contracted_picks_stay_in_window(self):
        pop = OscillatingPopularity(32, period_cycles=1000, shrink=16)
        rng = make_rng(1)
        picks = {pop.pick(rng, 1500) for _ in range(100)}
        assert picks <= {0, 1}

    def test_rotation_moves_the_window(self):
        pop = OscillatingPopularity(32, period_cycles=1000, shrink=16,
                                    rotate=True)
        first = pop.active_window(1000)
        second = pop.active_window(3000)
        assert first[1] == second[1] == 2
        assert first[0] != second[0]

    def test_rotation_wraps(self):
        pop = OscillatingPopularity(4, period_cycles=10, shrink=2,
                                    rotate=True)
        rng = make_rng(2)
        for phase in range(20):
            index = pop.pick(rng, phase * 10)
            assert 0 <= index < 4

    def test_paper_shrink_is_sixteenth(self):
        pop = OscillatingPopularity(640, period_cycles=100)
        assert pop.small == 40

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            OscillatingPopularity(0, 100)
        with pytest.raises(ConfigError):
            OscillatingPopularity(4, 1)
        with pytest.raises(ConfigError):
            OscillatingPopularity(4, 100, shrink=0)


class TestZipf:
    def test_in_range(self):
        pop = ZipfPopularity(20, s=1.0)
        rng = make_rng(3)
        assert all(0 <= pop.pick(rng, 0) < 20 for _ in range(500))

    def test_skew_concentrates_mass(self):
        pop = ZipfPopularity(50, s=1.2, seed=0)
        rng = make_rng(4)
        counts = {}
        for _ in range(5000):
            index = pop.pick(rng, 0)
            counts[index] = counts.get(index, 0) + 1
        top = max(counts.values())
        assert top / 5000 > 3 / 50            # far above uniform share

    def test_rank_shuffle_depends_on_seed(self):
        a = ZipfPopularity(30, s=1.0, seed=1)
        b = ZipfPopularity(30, s=1.0, seed=2)
        assert a._order != b._order


class TestFactory:
    def test_kinds(self):
        assert isinstance(popularity_for_spec("uniform", 4),
                          UniformPopularity)
        assert isinstance(popularity_for_spec("oscillating", 4,
                                              period_cycles=100),
                          OscillatingPopularity)
        assert isinstance(popularity_for_spec("zipf", 4, zipf_s=1.0),
                          ZipfPopularity)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            popularity_for_spec("exponential", 4)


@settings(max_examples=30)
@given(n=st.integers(min_value=1, max_value=100),
       now=st.integers(min_value=0, max_value=10**9),
       seed=st.integers(min_value=0, max_value=1000))
def test_every_distribution_picks_in_range(n, now, seed):
    rng = make_rng(seed)
    for pop in (UniformPopularity(n),
                OscillatingPopularity(n, period_cycles=1000, rotate=True),
                ZipfPopularity(n, s=1.1, seed=seed)):
        for _ in range(5):
            assert 0 <= pop.pick(rng, now) < n
