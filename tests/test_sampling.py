from collections import Counter

import pytest
from hypothesis import given, strategies as st

from simulmob.model import LayoutError, ZoneLayout
from simulmob.sampling import Pcg32, Sampler, SamplerConfig, validate

LAYOUT_1 = ZoneLayout(0, 374, 376, 750, 375)
LAYOUT_2 = ZoneLayout(50, 99, 101, 150, 100)


def _no_draw():
    raise AssertionError("drew from the generator")


class TestPcg32:
    def test_reference_vector(self):
        # First outputs of the pcg_basic demo for seed 42, sequence 54.
        # Pins bit-for-bit stability across interpreter versions.
        gen = Pcg32(42, 54)
        assert [gen._next_u32() for _ in range(6)] == [
            0xA15C02B7, 0x7B47F409, 0xBA1D3330,
            0x83D2F293, 0xBFA4784B, 0xCBED606E,
        ]

    def test_same_seed_same_sequence(self):
        a = Pcg32(123, 7)
        b = Pcg32(123, 7)
        assert [a.randint(0, 50) for _ in range(100)] == [
            b.randint(0, 50) for _ in range(100)]

    def test_streams_differ(self):
        a = Pcg32(123, 0)
        b = Pcg32(123, 1)
        assert [a.randint(0, 50) for _ in range(20)] != [
            b.randint(0, 50) for _ in range(20)]

    @given(st.integers(0, 2**64 - 1), st.integers(0, 1000),
           st.integers(-50, 50), st.integers(0, 100))
    def test_randint_stays_in_bounds(self, seed, stream, lo, width):
        gen = Pcg32(seed, stream)
        hi = lo + width
        for _ in range(20):
            assert lo <= gen.randint(lo, hi) <= hi

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Pcg32(0).randint(5, 4)

    def test_randint_rejects_range_wider_than_a_draw(self, monkeypatch):
        # No u32 draw reaches the threshold of a range above 2**32, so the
        # range must be refused before the rejection loop draws anything.
        gen = Pcg32(0)
        monkeypatch.setattr(gen, "_next_u32", _no_draw)
        for lo, hi in ((0, 2**32), (-5, 2**40)):
            with pytest.raises(ValueError, match="at most 2"):
                gen.randint(lo, hi)

    def test_randint_full_u32_range_takes_every_draw(self):
        # Threshold (1 << 32) % 2**32 is 0, so each call returns its draw.
        gen, twin = Pcg32(9, 3), Pcg32(9, 3)
        assert [gen.randint(0, 2**32 - 1) for _ in range(5)] == [
            twin._next_u32() for _ in range(5)]
        assert [gen.randint(7, 7 + 2**32 - 1) for _ in range(5)] == [
            7 + twin._next_u32() for _ in range(5)]

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Pcg32(-1)
        with pytest.raises(ValueError):
            Pcg32(1 << 64)
        with pytest.raises(ValueError):
            Pcg32(0, -1)


class TestSampler:
    def test_deterministic_from_config(self):
        config = SamplerConfig(99, 50, LAYOUT_1)
        a = Sampler(config, stream=3)
        b = Sampler(config, stream=3)
        assert [a.draw_step() for _ in range(50)] == [
            b.draw_step() for _ in range(50)]
        assert a.draw_init_positions() == b.draw_init_positions()

    def test_stream_is_pure_function_of_seed_and_index(self):
        # Drawing from stream 0 first must not disturb stream 5.
        config = SamplerConfig(7, 50, LAYOUT_1)
        warmup = Sampler(config, stream=0)
        for _ in range(100):
            warmup.draw_step()
        fresh = Sampler(config, stream=5)
        direct = Sampler(config, stream=5)
        assert [fresh.draw_step() for _ in range(50)] == [
            direct.draw_step() for _ in range(50)]

    def test_step_bounds(self):
        sampler = Sampler(SamplerConfig(1, 50, LAYOUT_1))
        for _ in range(1000):
            assert 0 <= sampler.draw_step() <= 50

    def test_zero_max_step(self):
        sampler = Sampler(SamplerConfig(1, 0, LAYOUT_1))
        assert [sampler.draw_step() for _ in range(20)] == [0] * 20

    def test_init_positions_stay_in_zones(self):
        sampler = Sampler(SamplerConfig(2, 50, LAYOUT_2))
        for _ in range(1000):
            p0, p1 = sampler.draw_init_positions()
            assert 50 <= p0 <= 99
            assert 101 <= p1 <= 150

    def test_singleton_zone(self):
        layout = ZoneLayout(5, 5, 9, 9, 7)
        sampler = Sampler(SamplerConfig(3, 1, layout))
        assert sampler.draw_init_positions() == (5, 9)

    def test_step_distribution_uniform(self):
        # 10^6 draws over [0, 50]: the mean sits at 25 and every value
        # lands close to frequency 1/51.
        sampler = Sampler(SamplerConfig(2024, 50, LAYOUT_1))
        n = 1_000_000
        counts = Counter(sampler.draw_step() for _ in range(n))
        mean = sum(v * c for v, c in counts.items()) / n
        assert 24.9 <= mean <= 25.1
        assert set(counts) == set(range(51))
        for value in range(51):
            assert abs(counts[value] / n - 1 / 51) < 0.002

    def test_init_distribution_uniform(self):
        # Mean of uniform 0..374 is 187.
        sampler = Sampler(SamplerConfig(11, 50, LAYOUT_1))
        n = 1_000_000
        total = 0
        for _ in range(n):
            p0, _ = sampler.draw_init_positions()
            total += p0
        assert 186.5 <= total / n <= 187.5


class TestValidate:
    def test_clean_config_has_no_warnings(self):
        assert validate(SamplerConfig(0, 49, LAYOUT_1)) == ()

    def test_wide_step_range_warns_but_passes(self):
        # A step bound covering a whole zone is flagged, never rejected.
        warnings = validate(SamplerConfig(0, 50, LAYOUT_2))
        assert len(warnings) == 1
        assert warnings[0].startswith("step range >= zone width")

    def test_one_position_zone_is_singular(self):
        layout = ZoneLayout(99, 99, 101, 150, 100)
        assert validate(SamplerConfig(0, 50, layout))[0].endswith(
            "(narrowest zone holds 1 position)")

    def test_preset1_width_also_warns(self):
        assert len(validate(SamplerConfig(0, 400, LAYOUT_1))) == 1

    def test_bad_layout_raises(self):
        with pytest.raises(LayoutError):
            SamplerConfig(0, 50, ZoneLayout(0, 100, 90, 200, 95))

    def test_negative_max_step_raises(self):
        with pytest.raises(ValueError):
            SamplerConfig(0, -1, LAYOUT_1)

    def test_bad_seed_raises(self):
        with pytest.raises(ValueError):
            SamplerConfig(-1, 50, LAYOUT_1)
        with pytest.raises(ValueError):
            SamplerConfig(2**64, 50, LAYOUT_1)

    def test_step_range_wider_than_a_draw_raises(self):
        assert validate(SamplerConfig(0, 2**32 - 1, LAYOUT_1))
        with pytest.raises(ValueError, match="max_step must be below 2"):
            SamplerConfig(0, 2**32, LAYOUT_1)

    def test_zone_wider_than_a_draw_raises(self):
        top = 2**32
        SamplerConfig(0, 5, ZoneLayout(0, top - 1, top + 1, 2 * top, top))
        with pytest.raises(ValueError, match="zone 0 holds"):
            SamplerConfig(0, 5, ZoneLayout(-1, top - 1, top + 1, top + 9, top))
        with pytest.raises(ValueError, match="zone 1 holds"):
            SamplerConfig(0, 5, ZoneLayout(0, 9, 11, top + 11, 10))
