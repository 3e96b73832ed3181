import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from evtpr import (
    EventStream,
    InvalidInputError,
    build_tpr,
    build_voxel_grid,
    tpr_granularity,
)

from conftest import random_stream


def one_event_stream(t, p=1, x=1, y=2, w=4, h=4, t_begin=0, t_end=1000):
    return EventStream(sensor_width=w, sensor_height=h, t_begin=t_begin,
                       t_end=t_end, t=[t], x=[x], y=[y], p=[p])


class TestVoxelGrid:
    def test_event_at_bin_center(self):
        # M=4 over [0, 1000]: bin k center at tau=k, i.e. t=(k+0.5)*250
        stream = one_event_stream(t=375)  # tau = 1.0 exactly
        grid = build_voxel_grid(stream, 4, 0, 1000)
        assert grid.data[1, 2, 1] == pytest.approx(1.0)
        assert np.count_nonzero(grid.data) == 1

    def test_event_midway_between_centers(self):
        stream = one_event_stream(t=500)  # tau = 1.5
        grid = build_voxel_grid(stream, 4, 0, 1000)
        # bilinear weight formula: 1 - |1.5 - k| for k in {1, 2}
        assert grid.data[1, 2, 1] == pytest.approx(0.5)
        assert grid.data[2, 2, 1] == pytest.approx(0.5)

    def test_mass_conservation(self, rng):
        stream = random_stream(rng, n=300)
        grid = build_voxel_grid(stream, 5, 20_000, 80_000)
        in_window = (stream.t >= 20_000) & (stream.t <= 80_000)
        assert grid.data.sum() == pytest.approx(float(stream.p[in_window].sum()),
                                                rel=1e-6, abs=1e-9)

    def test_events_outside_window_ignored(self):
        stream = one_event_stream(t=900)
        grid = build_voxel_grid(stream, 4, 0, 500)
        assert np.all(grid.data == 0)

    def test_invalid_inputs(self, rng):
        stream = random_stream(rng, n=10)
        with pytest.raises(InvalidInputError):
            build_voxel_grid(stream, 0, 0, 100)
        with pytest.raises(InvalidInputError):
            build_voxel_grid(stream, 4, 100, 100)

    @pytest.mark.parametrize("t0,t1", [
        (-math.inf, 5000), (math.inf, 5000), (math.nan, 5000),
        (0, -math.inf), (0, math.inf), (0, math.nan),
    ])
    def test_non_finite_window_bounds_rejected(self, rng, t0, t1):
        stream = random_stream(rng, n=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            with pytest.raises(InvalidInputError, match="finite"):
                build_voxel_grid(stream, 4, t0, t1)


class TestTemporalPyramid:
    def test_seven_level_two_moment_shape(self, rng):
        stream = random_stream(rng, h=6, w=5, n=100)
        pyr = build_tpr(stream, 50_000, 20_000, 7, 2, 3.0)
        assert pyr.data.shape == (7, 2, 6, 5)

    def test_event_outside_coarsest_window_absent(self):
        stream = one_event_stream(t=900, t_end=2000)
        # coarsest level window is half_window / r = 100 around the center
        pyr = build_tpr(stream, 500, 300, 2, 3, 3.0)
        assert np.all(pyr.data == 0)

    def test_event_at_center_in_all_levels(self):
        stream = one_event_stream(t=500, t_end=2000)
        pyr = build_tpr(stream, 500, 300, 3, 4, 2.0)
        for level in range(3):
            assert pyr.data[level].sum() == pytest.approx(1.0)

    def test_nesting_and_per_level_mass(self, rng):
        stream = random_stream(rng, n=500)
        center, half = 50_000, 40_000
        r = 3.0
        pyr = build_tpr(stream, center, half, 4, 3, r)
        prev_count = None
        for level in range(1, 5):
            h = half / r ** level
            mask = np.abs(stream.t - center) <= h
            assert pyr.data[level - 1].sum() == pytest.approx(
                float(stream.p[mask].sum()), rel=1e-6, abs=1e-9)
            count = int(mask.sum())
            if prev_count is not None:
                assert count <= prev_count  # nested windows
            prev_count = count

    def test_degenerate_window_rejected(self, rng):
        stream = random_stream(rng, n=10)
        with pytest.raises(InvalidInputError):
            build_tpr(stream, 500, 10, 7, 2, 3.0)  # 2*10/3^7 << 1 us

    def test_ratio_power_beyond_float_range_rejected(self, rng):
        # 3.0 ** 10**9 overflows a float; r^L that large is a degenerate window
        stream = random_stream(rng, n=10)
        with pytest.raises(InvalidInputError):
            build_tpr(stream, 500, 1000.0, 10 ** 9, 2, 3.0)


    @pytest.mark.parametrize("args,message", [
        ((0, 2, 3.0, 300), "levels must be >= 1"),
        ((2, 0, 3.0, 300), "moments_per_level must be >= 1"),
        ((2, 2, 1.0, 300), "attenuation r"),
        ((2, 2, math.inf, 300), "attenuation r"),
        ((2, 2, 3.0, 0), "half_window"),
        ((2, 2, 3.0, math.nan), "half_window"),
        ((2, 2, 3.0, math.inf), "half_window"),
    ], ids=["L-0", "Mp-0", "r-1", "r-inf", "half-window-0", "half-window-nan",
            "half-window-inf"])
    def test_bad_arguments_rejected(self, args, message):
        levels, moments, r, half = args
        with pytest.raises(InvalidInputError, match=message):
            build_tpr(one_event_stream(t=500), 500, half, levels, moments, r)

    def test_level_window(self, rng):
        stream = random_stream(rng, n=300, t_end=1000)
        pyr = build_tpr(stream, 500, 300, 3, 2, 2.0)
        windows = [pyr.level_window(level) for level in (1, 2, 3)]
        assert windows == [(350.0, 650.0), (425.0, 575.0), (462.5, 537.5)]
        for level, (t0, t1) in enumerate(windows):
            assert np.array_equal(pyr.data[level],
                                  build_voxel_grid(stream, 2, t0, t1).data)
        for level in (0, 4):
            with pytest.raises(InvalidInputError, match="level out of range"):
                pyr.level_window(level)


class TestGranularity:
    @pytest.mark.parametrize("levels,moments,expected", [
        (3, 3, Fraction(1, 81)),
        (5, 3, Fraction(1, 729)),
        (7, 3, Fraction(1, 6561)),
        (7, 9, Fraction(1, 19683)),
        (7, 18, Fraction(1, 39366)),
    ])
    def test_captured_moment_table(self, levels, moments, expected):
        spec = tpr_granularity(Fraction(1, 2), levels, moments, 3)
        assert spec.delta_t == expected

    def test_worked_example_beats_millisecond(self):
        spec = tpr_granularity(Fraction(1, 2), 7, 2, 3)
        assert spec.delta_t == Fraction(1, 4374)
        assert spec.delta_t < Fraction(1, 1000)

    def test_monotone_refinement(self):
        prev = None
        for levels in range(1, 9):
            d = tpr_granularity(Fraction(1, 2), levels, 3, 3).delta_t
            if prev is not None:
                assert d * 3 == prev
            prev = d

    def test_float_ratio_stays_exact(self):
        spec = tpr_granularity(0.5, 2, 2, 2.5)
        assert spec.delta_t == Fraction(1) / (2 * Fraction(5, 2) ** 2)
        assert float(spec.delta_t) == pytest.approx(1.0 / (2 * 2.5 ** 2))

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            tpr_granularity(Fraction(1, 2), 3, 3, 1)
        with pytest.raises(InvalidInputError):
            tpr_granularity(0, 3, 3, 3)

    @pytest.mark.parametrize("levels,moments", [(0, 2), (3, 0)], ids=["L-0", "Mp-0"])
    def test_levels_and_moments_below_one(self, levels, moments):
        with pytest.raises(InvalidInputError, match="must be >= 1"):
            tpr_granularity(Fraction(1, 2), levels, moments, 3)

    def test_digit_bound_counts_every_term(self):
        # r^332 takes 332 * 40 bits, the half window 1/2 three and the factor
        # 2 one; M_p = 4 (3 bits) keeps the result within 4000 digits, and
        # M_p = 8 (4 bits) is the one bit that carries it past
        r = Fraction("1.000000000001")
        spec = tpr_granularity(Fraction(1, 2), 332, 4, r)
        assert spec.delta_t == 1 / (4 * r ** 332)
        with pytest.raises(InvalidInputError, match="--half-window and --Mp"):
            tpr_granularity(Fraction(1, 2), 332, 8, r)

    @pytest.mark.parametrize("levels,ratio", [(13, 3), (1, Fraction(10 ** 400))],
                             ids=["levels", "ratio-beyond-float"])
    def test_finest_window_below_microsecond(self, levels, ratio):
        # as build_tpr: 2 * 0.5 s / 3^13 is 0.63 us, below the timestamp
        # clock; r = 10^400 is beyond the float range, and so is r^L
        with pytest.raises(InvalidInputError):
            tpr_granularity(Fraction(1, 2), levels, 2, ratio)
