import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from simulmob.datasets import load_dataset
from simulmob.model import LayoutError, Outcome, ZoneLayout
from simulmob.sampling import Sampler, SamplerConfig
from simulmob.scenarios import (
    IndependentTrialConfig,
    SequentialConfig,
    preset,
    run_independent_scenario,
    run_sequential_scenario,
)
from simulmob.stats import (
    METRIC_KEYS,
    METRIC_LABELS,
    Tally,
    average_step_length,
    exact_crossing_probability,
    expected_crossings,
    expected_steps_to_cross,
    replay_independent,
    tally,
)
from test_scenarios import _shifted

LAYOUT_1 = ZoneLayout(0, 374, 376, 750, 375)
LAYOUT_2 = ZoneLayout(50, 99, 101, 150, 100)
LAYOUT_3 = ZoneLayout(0, 249, 251, 500, 250)

counts = st.integers(0, 1000)


class TestTally:
    def test_table5_counts(self):
        ds = load_dataset("table-5")
        total = replay_independent(ds.rows, ds.layout)
        assert total == Tally(mn0_only=8, mn1_only=2, simultaneous=5,
                              no_overlap=15)
        assert total.mn0_handover == 13
        assert total.mn1_handover == 7
        assert total.trials == 30
        assert total.overlap_events == 15

    def test_table3_counts(self):
        ds = load_dataset("table-3")
        total = replay_independent(ds.rows, ds.layout)
        assert total.mn0_handover == 1
        assert total.mn1_handover == 2

    def test_empty_batch(self):
        assert tally([]) == Tally()
        assert tally([]).trials == 0

    def test_counter(self):
        outcomes = [Outcome.MN0_OVERLAP, Outcome.NO_OVERLAP,
                    Outcome.SIMULTANEOUS_OVERLAP, Outcome.MN0_OVERLAP]
        assert tally(outcomes) == Tally(mn0_only=2, simultaneous=1,
                                        no_overlap=1)

    @given(counts, counts, counts, counts)
    def test_identities(self, a, b, c, d):
        t = Tally(mn0_only=a, mn1_only=b, simultaneous=c, no_overlap=d)
        assert t.mn0_handover == a + c
        assert t.mn1_handover == b + c
        assert t.trials == a + b + c + d
        assert t.overlap_events == a + b + c

    @given(counts, counts, counts, counts, counts, counts, counts, counts)
    def test_addition(self, a, b, c, d, e, f, g, h):
        left = Tally(a, b, c, d)
        right = Tally(e, f, g, h)
        assert left + right == Tally(a + e, b + f, c + g, d + h)

    def test_columns_follow_labels(self):
        t = Tally(mn0_only=8, mn1_only=2, simultaneous=5, no_overlap=15)
        assert len(METRIC_LABELS) == 7
        counts = [t.as_dict()[key] for key in METRIC_KEYS]
        assert counts == [8, 13, 2, 7, 5, 15, 5]


class TestAverageStepLength:
    def test_constant_batch(self):
        assert average_step_length([5, 5, 5, 5]) == 5.0

    def test_fractional_batch(self):
        # 15 x 20.1 + 15 x 22.44 sums to 638.1.
        steps = [20.1] * 15 + [22.44] * 15
        assert abs(average_step_length(steps) - 21.27) < 1e-9

    def test_table5_mean_exact(self):
        assert average_step_length(load_dataset("table-5").steps) == 21.5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            average_step_length([])


class TestEstimators:
    def test_wide_zone(self):
        assert abs(expected_steps_to_cross(374, 22) - 17.0) < 0.01

    def test_narrow_zone(self):
        assert abs(expected_steps_to_cross(49, 21.5) - 2.279) < 0.01

    def test_walk_zone(self):
        assert abs(expected_steps_to_cross(249, 22) - 11.318) < 0.01

    def test_zero_avg_rejected(self):
        with pytest.raises(ValueError):
            expected_steps_to_cross(374, 0)

    def test_expected_crossings_values(self):
        assert abs(expected_crossings(30, 49, 21.5) - 13.163) < 0.01
        assert abs(expected_crossings(30, 374, 22) - 1.765) < 0.01
        assert expected_crossings(0, 374, 22) == 0

    def test_expected_crossings_zero_divisors_rejected(self):
        with pytest.raises(ValueError):
            expected_crossings(30, 0, 22)
        with pytest.raises(ValueError):
            expected_crossings(30, 374, 0)

    @given(st.integers(0, 10_000),
           st.floats(0.5, 1e6, allow_nan=False),
           st.floats(0.5, 1e6, allow_nan=False))
    def test_algebraic_identity(self, trials, span, avg):
        via_steps = trials / expected_steps_to_cross(span, avg)
        direct = expected_crossings(trials, span, avg)
        assert math.isclose(direct, via_steps, rel_tol=1e-12)
        assert math.isclose(direct, trials * avg / span, rel_tol=1e-12)


def grid_walk_probability(layout: ZoneLayout, max_step: int, node: int) -> Fraction:
    """Reference route: walk every (init, step) pair and count the crossings.

    O(width x max_step), so only for small layouts; it shares no arithmetic
    with the closed form in ``exact_crossing_probability``.
    """
    if node == 0:
        inits = range(layout.zone0_lo, layout.zone0_hi + 1)
    else:
        inits = range(layout.zone1_lo, layout.zone1_hi + 1)
    favorable = 0
    total = 0
    for init in inits:
        for step in range(max_step + 1):
            total += 1
            if node == 0:
                if init + step >= layout.brink:
                    favorable += 1
            else:
                if init - step <= layout.brink:
                    favorable += 1
    return Fraction(favorable, total)


def per_init_probability(layout: ZoneLayout, max_step: int, node: int) -> Fraction:
    """Reference route: per-init favorable step counts, summed."""
    if node == 0:
        inits = range(layout.zone0_lo, layout.zone0_hi + 1)
        distances = (layout.brink - i for i in inits)
        width = layout.zone0_width
    else:
        inits = range(layout.zone1_lo, layout.zone1_hi + 1)
        distances = (i - layout.brink for i in inits)
        width = layout.zone1_width
    favorable = sum(
        max(0, min(max_step + 1, max_step - d + 1)) for d in distances)
    return Fraction(favorable, width * (max_step + 1))


@st.composite
def layouts(draw):
    """Small valid layouts; unequal gaps put the brink off-centre."""
    lo = draw(st.integers(-50, 50))
    w0, w1 = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    g0, g1 = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    return ZoneLayout(lo, lo + w0, lo + w0 + g0 + g1,
                      lo + w0 + g0 + g1 + w1, lo + w0 + g0)


def mirrored(layout: ZoneLayout) -> ZoneLayout:
    """The layout reflected about its brink, x -> 2 * brink - x."""
    b2 = 2 * layout.brink
    return ZoneLayout(b2 - layout.zone1_hi, b2 - layout.zone1_lo,
                      b2 - layout.zone0_hi, b2 - layout.zone0_lo, layout.brink)


class TestExactProbability:
    def test_narrow_zone_is_even_odds(self):
        p = exact_crossing_probability(LAYOUT_2, 50, 0)
        assert p == Fraction(1275, 2550)
        assert p == Fraction(1, 2)

    def test_wide_zone(self):
        p = exact_crossing_probability(LAYOUT_1, 50, 0)
        assert p == Fraction(1275, 19125)
        assert 1.9 <= 30 * float(p) <= 2.1

    def test_walk_zone(self):
        assert exact_crossing_probability(LAYOUT_3, 50, 0) == Fraction(1, 10)
        assert exact_crossing_probability(LAYOUT_3, 50, 1) == Fraction(1, 10)

    def test_zero_step_bound(self):
        assert exact_crossing_probability(LAYOUT_1, 0, 0) == 0
        assert exact_crossing_probability(LAYOUT_1, 0, 1) == 0

    def test_errors(self):
        with pytest.raises(LayoutError):
            exact_crossing_probability(ZoneLayout(0, 10, 5, 20, 8), 5, 0)
        with pytest.raises(ValueError, match="max_step"):
            exact_crossing_probability(LAYOUT_1, -1, 0)
        with pytest.raises(ValueError, match="node"):
            exact_crossing_probability(LAYOUT_1, 5, 2)

    def test_matches_closed_form_on_presets(self):
        for layout in (LAYOUT_1, LAYOUT_2, LAYOUT_3):
            for node in (0, 1):
                p = exact_crossing_probability(layout, 50, node)
                assert p == per_init_probability(layout, 50, node)
                assert p == grid_walk_probability(layout, 50, node)

    # The explicit examples put max_step at, above and far above the zone
    # width and the farthest brink distance.
    @example(ZoneLayout(0, 3, 5, 8, 4), 4, 0)
    @example(ZoneLayout(0, 3, 5, 8, 4), 9, 1)
    @example(ZoneLayout(0, 0, 3, 3, 1), 150, 0)
    @example(ZoneLayout(0, 0, 3, 3, 1), 150, 1)
    @given(layouts(), st.integers(0, 150), st.sampled_from([0, 1]))
    def test_matches_closed_form_everywhere(self, layout, max_step, node):
        p = exact_crossing_probability(layout, max_step, node)
        assert p == per_init_probability(layout, max_step, node)
        assert p == grid_walk_probability(layout, max_step, node)

    @given(layouts(), st.integers(0, 150))
    def test_mirror_swaps_nodes(self, layout, max_step):
        image = mirrored(layout)
        for node in (0, 1):
            assert exact_crossing_probability(image, max_step, node) == \
                exact_crossing_probability(layout, max_step, 1 - node)

    @settings(max_examples=50)
    @given(layouts(), st.integers(0, 150), st.integers(-2**40, 2**40),
           st.integers(0, 2**64 - 1))
    def test_translation_leaves_probabilities_and_tallies(
            self, layout, max_step, c, seed):
        config = IndependentTrialConfig(SamplerConfig(seed, max_step, layout),
                                        runs_per_sample=20, samples=2)
        moved = _shifted(config, c)
        for node in (0, 1):
            assert exact_crossing_probability(
                moved.sampler.layout, max_step, node) == \
                exact_crossing_probability(layout, max_step, node)
        assert [r.tally for r in run_independent_scenario(moved)] == \
            [r.tally for r in run_independent_scenario(config)]

    @pytest.mark.parametrize("scenario_id", [1, 2, 3])
    def test_monte_carlo_agreement(self, scenario_id):
        # Empirical crossing frequency lands within 3 standard errors of
        # the exact probability at 10^5 draws.
        config = preset(scenario_id, seed=22).sampler
        layout, max_step = config.layout, config.max_step
        n = 100_000
        sampler = Sampler(config, stream=0)
        hits0 = hits1 = 0
        for _ in range(n):
            p0, p1 = sampler.draw_init_positions()
            step = sampler.draw_step()
            hits0 += p0 + step >= layout.brink
            hits1 += p1 - step <= layout.brink
        for node, hits in ((0, hits0), (1, hits1)):
            p = float(exact_crossing_probability(layout, max_step, node))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(hits / n - p) <= 3 * se

    # Every zone and step draw of the heavy layout, width W = 3 * 2**30,
    # rejects the outputs below 2**32 % W = 2**30, a quarter of them, so
    # this case guards against a kernel that skips rejection: one that
    # took every output reads z = -137 for node 0 there. A width of
    # 2**31 + 1 would not show it: skipping rejection biases only 2 of its
    # 2**31 values.
    @pytest.mark.parametrize("layout, max_step", [
        (LAYOUT_1, 50),
        (LAYOUT_2, 50),
        (ZoneLayout(60, 89, 101, 180, 100), 40),  # exact 31/82 and 1/4
        (ZoneLayout(0, 3 * 2**30 - 1, 3 * 2**30 + 1, 6 * 2**30, 3 * 2**30),
         3 * 2**30 - 1),
        # The paper's symmetric positions: exact 26/51 for both nodes.
        (ZoneLayout(75, 75, 125, 125, 100), 50),
    ], ids=["preset-1", "preset-2", "asymmetric", "heavy-rejection",
            "mirrored-one-position"])
    def test_runner_tallies_in_distribution(self, layout, max_step):
        # 200 samples x 1,000 trials at seed 11, chosen once. Each node's
        # pooled crossing count is within 4 SE of the exact probability,
        # and the dispersion chi-square of the 200 per-sample counts (200
        # degrees of freedom, SD 20) is within 4 SD of its mean. A failure
        # is a finding, not a reason to pick another seed.
        config = IndependentTrialConfig(SamplerConfig(11, max_step, layout),
                                        runs_per_sample=1000, samples=200)
        tallies = [r.tally for r in run_independent_scenario(config)]
        n, samples = config.runs_per_sample, config.samples
        for node, crossings in ((0, [t.mn0_handover for t in tallies]),
                                (1, [t.mn1_handover for t in tallies])):
            p = float(exact_crossing_probability(layout, max_step, node))
            var = n * p * (1 - p)
            z = (sum(crossings) - samples * n * p) / math.sqrt(samples * var)
            chi2 = sum((c - n * p) ** 2 for c in crossings) / var
            assert abs(z) <= 4, (node, z)
            assert 120 <= chi2 <= 280, (node, chi2)
        # Nodes mirrored about the brink cross together or not at all.
        if layout.zone0_width == layout.zone1_width == 1 and \
                layout.zone0_lo + layout.zone1_lo == 2 * layout.brink:
            assert not any(t.mn0_only or t.mn1_only for t in tallies)


def walk_counts(config):
    """A sequential scenario's tally and its Walks counts."""
    total, walks = run_sequential_scenario(config)
    return total, (walks.moves, walks.step_sum)


@st.composite
def walk_configs(draw, d0=None, d1=None, max_step=None):
    """Sequential configs of up to 300 walks (more than one chunk of
    lanes), starting ``d0`` and ``d1`` from the brink when given."""
    d0 = draw(st.integers(1, 80)) if d0 is None else d0
    d1 = draw(st.integers(1, 80)) if d1 is None else d1
    max_step = draw(st.integers(0, 60)) if max_step is None else max_step
    brink = draw(st.integers(-50, 50))
    layout = ZoneLayout(brink - d0 - draw(st.integers(0, 20)),
                        brink - draw(st.integers(1, d0)),
                        brink + draw(st.integers(1, d1)),
                        brink + d1 + draw(st.integers(0, 20)), brink)
    sampler = SamplerConfig(draw(st.integers(0, 2**64 - 1)), max_step, layout)
    return SequentialConfig(sampler, brink - d0, brink + d1,
                            runs=draw(st.sampled_from([1, 40, 300])),
                            max_steps_cap=draw(st.integers(1, 40)))


@st.composite
def far_apart_walks(draw):
    """Walks whose brink distances differ by at least max_step."""
    max_step = draw(st.integers(0, 60))
    near = draw(st.integers(1, 80))
    far = near + max_step + draw(st.integers(0, 10))
    d0, d1 = (near, far) if draw(st.booleans()) else (far, near)
    return draw(walk_configs(d0, d1, max_step))


class TestWalkMetamorphic:
    """A walk draws only its steps, so these hold for every seed, not only
    in distribution."""

    @settings(max_examples=40, deadline=None)
    @given(walk_configs())
    @example(preset(3, seed=11))
    def test_mirror_swaps_nodes(self, config):
        b2 = 2 * config.sampler.layout.brink
        image = config._replace(
            sampler=config.sampler._replace(
                layout=mirrored(config.sampler.layout)),
            mn0_start=b2 - config.mn1_start, mn1_start=b2 - config.mn0_start)
        total, counts = walk_counts(config)
        image_total, image_counts = walk_counts(image)
        assert image_counts == counts
        assert image_total == Tally(total.mn1_only, total.mn0_only,
                                    total.simultaneous, total.no_overlap)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 80).flatmap(lambda d: walk_configs(d, d)))
    def test_equal_distances_cross_together(self, config):
        total, _ = walk_counts(config)
        assert total.mn0_only == total.mn1_only == 0

    # Preset 3's MN_1 starts 250 from the brink, with max_step 50: an MN_0
    # start of 50 leaves a gap of 50, and one of 40 a gap of 40.
    @settings(max_examples=40, deadline=None)
    @given(far_apart_walks())
    @example(preset(3, seed=11)._replace(mn0_start=50, runs=300))
    def test_gap_of_max_step_never_crosses_together(self, config):
        assert walk_counts(config)[0].simultaneous == 0

    def test_gap_below_max_step_can_cross_together(self):
        config = preset(3, seed=11)._replace(mn0_start=40, runs=300)
        assert walk_counts(config)[0].simultaneous > 0
