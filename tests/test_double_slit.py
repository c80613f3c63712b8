"""Two-slit amplitudes, fringe extrema, momentum detection, screen sampling."""
import cmath
import math
import warnings

import numpy as np
import pytest

from hangon import NotFarField, SingularPoint
from hangon.rng import RngStream
from hangon.scenarios import (
    SlitGeometry,
    default_geometry,
    double_slit_amplitude,
    fringe_extrema,
    geometry_from_config,
    grid_extrema_indices,
    histogram_from_positions,
    momentum_detector_probabilities,
    nearest_bins,
    oscillation_fit,
    path_difference,
    sample_momentum_clicks,
    sample_screen_hits,
    screen_density,
    slit_wave_arrays,
    visibility,
    visibility_stderr,
)
from hangon.scenarios.eraser import fringe_phase


def brute_amplitude(g: SlitGeometry, x: float) -> complex:
    """Independent oracle: evaluate the two spherical waves from scratch."""
    d1 = math.hypot(x - g.slit_upper[0], g.screen_distance - g.slit_upper[1])
    d2 = math.hypot(x - g.slit_lower[0], g.screen_distance - g.slit_lower[1])
    return cmath.exp(1j * g.wavenumber * d1) / d1 + cmath.exp(1j * g.wavenumber * d2) / d2


class TestAmplitude:
    def test_matches_direct_evaluation(self):
        g = default_geometry()
        for x in (-17.3, -2.0, 0.0, 0.31, 24.9):
            assert abs(double_slit_amplitude(g, x) - brute_amplitude(g, x)) < 1e-12

    def test_equidistant_point_is_maximal(self):
        # Zero path difference: both terms equal, and the density beats all
        # nearby samples.
        g = default_geometry()
        center = abs(double_slit_amplitude(g, 0.0)) ** 2
        for dx in (0.3, 0.7, 1.2, 1.9, 2.5):
            assert center > abs(double_slit_amplitude(g, dx)) ** 2

    def test_half_wavelength_path_difference_is_minimal(self):
        # Locate the first half-integer path difference numerically and check
        # it sits at a local minimum of the density.
        g = default_geometry()
        _, minima = fringe_extrema(g)
        x0 = float(minima[np.argmin(np.abs(minima))])
        here = abs(double_slit_amplitude(g, x0)) ** 2
        assert here < abs(double_slit_amplitude(g, x0 - 1.2)) ** 2
        assert here < abs(double_slit_amplitude(g, x0 + 1.2)) ** 2
        assert abs(abs(path_difference(g, x0)) % g.wavelength - g.wavelength / 2) < 1e-9

    def test_one_wavelength_path_difference_is_maximal(self):
        g = default_geometry()
        maxima, _ = fringe_extrema(g)
        off_center = maxima[np.argsort(np.abs(maxima))[1]]
        x0 = float(off_center)
        here = abs(double_slit_amplitude(g, x0)) ** 2
        assert here > abs(double_slit_amplitude(g, x0 - 1.2)) ** 2
        assert here > abs(double_slit_amplitude(g, x0 + 1.2)) ** 2

    def test_singular_point(self):
        g = SlitGeometry(
            slit_upper=(0.5, 0.0),
            slit_lower=(-0.5, 0.0),
            wavenumber=10.0,
            screen_distance=0.0,
            screen_positions=np.linspace(-5, 5, 32),
            detector_position=(0.0, 500.0),
        )
        with pytest.raises(SingularPoint):
            double_slit_amplitude(g, 0.5)


class TestExtremaLaw:
    def test_at_least_twenty_extrema_within_one_bin(self):
        g = default_geometry()
        maxima, minima = fringe_extrema(g)
        assert len(maxima) + len(minima) >= 20
        dens = screen_density(g)
        gmax, gmin = grid_extrema_indices(dens)
        xs = g.screen_positions
        for x in maxima:
            assert np.min(np.abs(xs[gmax] - x)) <= g.bin_width
        for x in minima:
            assert np.min(np.abs(xs[gmin] - x)) <= g.bin_width

    def test_maxima_at_integer_minima_at_half_integer_wavelengths(self):
        g = default_geometry()
        maxima, minima = fringe_extrema(g)
        lam = g.wavelength
        for x in maxima:
            m = path_difference(g, x) / lam
            assert abs(m - round(m)) < 1e-9
        for x in minima:
            m = path_difference(g, x) / lam - 0.5
            assert abs(m - round(m)) < 1e-9


class TestMomentumDetectors:
    def test_symmetric_placement_is_half_half(self):
        p1, p2 = momentum_detector_probabilities(default_geometry())
        assert p1 == pytest.approx(0.5, abs=1e-12)
        assert p2 == pytest.approx(0.5, abs=1e-12)

    def test_asymmetric_detector_inverse_square_weights(self):
        # Off-axis detector, still far-field: probabilities follow 1/d^2.
        g = default_geometry()
        geom = SlitGeometry(
            slit_upper=g.slit_upper,
            slit_lower=g.slit_lower,
            wavenumber=g.wavenumber,
            screen_distance=g.screen_distance,
            screen_positions=g.screen_positions,
            detector_position=(40.0, 300.0),
        )
        p1, p2 = momentum_detector_probabilities(geom)
        d1 = math.hypot(40.0 - 0.5, 300.0)
        d2 = math.hypot(40.0 + 0.5, 300.0)
        expected = (1 / d1**2) / (1 / d1**2 + 1 / d2**2)
        assert p1 == pytest.approx(expected, abs=1e-12)
        assert p1 > 0.5 > p2

    def test_double_distance_weights_give_80_20(self):
        # 1/d^2 at distances (d, 2d) is 0.8 / 0.2 exactly. A realizable
        # geometry cannot reach that ratio inside the far-field regime, so
        # the weight formula is checked directly.
        from hangon.scenarios.geometry import momentum_weights

        p1, p2 = momentum_weights(137.0, 274.0)
        assert p1 == pytest.approx(0.8, abs=1e-12)
        assert p2 == pytest.approx(0.2, abs=1e-12)

    def test_near_field_rejected(self):
        g = default_geometry()
        geom = SlitGeometry(
            slit_upper=g.slit_upper,
            slit_lower=g.slit_lower,
            wavenumber=g.wavenumber,
            screen_distance=g.screen_distance,
            screen_positions=g.screen_positions,
            detector_position=(0.0, 50.0),
        )
        with pytest.raises(NotFarField):
            momentum_detector_probabilities(geom)

    def test_sampled_frequencies(self):
        g = default_geometry()
        n = 100_000
        n_up, n_low = sample_momentum_clicks(g, n, RngStream(7))
        assert n_up + n_low == n
        se = math.sqrt(0.25 / n)
        assert abs(n_up / n - 0.5) < 3 * se

    def test_coincident_slits_rejected_by_type(self):
        with pytest.raises(ValueError):
            SlitGeometry(
                slit_upper=(0.0, 0.0),
                slit_lower=(0.0, 0.0),
                wavenumber=1.0,
                screen_distance=10.0,
                screen_positions=np.linspace(-1, 1, 8),
                detector_position=(0.0, 500.0),
            )


_GOOD_GEOMETRY = dict(
    slit_upper=(0.5, 0.0),
    slit_lower=(-0.5, 0.0),
    wavenumber=10.0,
    screen_distance=10.0,
    screen_positions=np.linspace(-1, 1, 8),
    detector_position=(0.0, 500.0),
)


class TestGeometryValues:
    def test_three_coordinate_point_rejected(self):
        with pytest.raises(ValueError):
            SlitGeometry(**{**_GOOD_GEOMETRY, "slit_upper": (0.5, 0.0, 9.0)})

    def test_points_become_float_pairs(self):
        g = SlitGeometry(**{**_GOOD_GEOMETRY, "slit_upper": [1, 0], "detector_position": np.array([0, 500])})
        assert g.slit_upper == (1.0, 0.0) and type(g.slit_upper[0]) is float
        assert g.detector_position == (0.0, 500.0) and type(g.detector_position[1]) is float

    @pytest.mark.parametrize(
        "field, value",
        [
            ("wavenumber", math.nan),
            ("wavenumber", math.inf),
            ("screen_distance", math.nan),
            ("screen_distance", -math.inf),
            ("slit_upper", (math.nan, 0.0)),
            ("slit_lower", (-0.5, math.inf)),
            ("detector_position", (0.0, math.inf)),
            ("screen_positions", np.array([-1.0, 0.0, math.inf])),
            ("screen_positions", np.array([-math.inf, 0.0, 1.0])),
        ],
    )
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SlitGeometry(**{**_GOOD_GEOMETRY, field: value})

    def test_nan_wavenumber_config_rejected(self):
        # It used to build a geometry whose screen density was NaN everywhere.
        with pytest.raises(ValueError, match="finite"):
            geometry_from_config({"wavenumber": math.nan})

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"screen_max": math.inf}, "finite"),
            ({"screen_min": math.nan}, "finite"),
            ({"screen_min": -1e308, "screen_max": 1e308}, "finite"),
            ({"bins": math.inf}, "bins must be an integer"),
            ({"bins": 2.7}, "bins must be an integer"),
            ({"bins": 1}, "bins must be an integer"),
            ({"slit_upper": "12"}, "'geometry.slit_upper'"),
            ({"wavenumber": "125.6"}, "'geometry.wavenumber'"),
            ({"screen_distance": True}, "'geometry.screen_distance'"),
            ({"detector_position": [0.0]}, "'geometry.detector_position'"),
            ({"slit_lower": [-0.5, False]}, "'geometry.slit_lower'"),
            ({"screen_max": 10**400}, "'geometry.screen_max'"),
            ({"bins": True}, "'geometry.bins'"),
            ({"wavenumbr": 125.6}, "'geometry.wavenumbr'"),
            ({"screen_min": 5, "screen_max": -5}, "'geometry.screen_min'.*below"),
            ({"wavenumber": 0}, "'geometry.wavenumber'.*positive"),
            ({"slit_upper": [1, 2], "slit_lower": [1.0, 2.0]}, "'geometry.slit_upper'.*distinct"),
        ],
        ids=[
            "inf-max", "nan-min", "span-overflows", "inf-bins", "fractional-bins", "one-bin",
            "string-point", "string-number", "bool-number", "short-point", "bool-coordinate",
            "huge-int", "bool-bins", "unknown-field", "reversed-screen", "zero-wavenumber",
            "coincident-slits",
        ],
    )
    def test_bad_screen_config_rejected_before_linspace(self, cfg, message):
        # np.linspace used to warn on the first six, and then the screen was
        # called "not strictly increasing" instead of non-finite. float()
        # and tuple() used to accept the next three, "12" as the point
        # (1.0, 2.0). SlitGeometry refused the last three without naming
        # the field.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                geometry_from_config(cfg)

    def test_screen_span_too_small_for_its_bins_is_named(self):
        # linspace repeats positions here; SlitGeometry used to refuse the
        # screen as "not strictly increasing" without naming a field.
        with pytest.raises(ValueError, match="'geometry.screen_min' and 'geometry.screen_max'.*too small for 3"):
            geometry_from_config({"screen_min": 0.0, "screen_max": 5e-324, "bins": 3})

    def test_singular_point_named_on_the_whole_screen(self):
        g = SlitGeometry(**{**_GOOD_GEOMETRY, "screen_distance": 0.0, "screen_positions": np.linspace(-0.5, 0.5, 5)})
        with pytest.raises(SingularPoint, match="screen position -0.5 "):
            slit_wave_arrays(g)
        with pytest.raises(SingularPoint, match="screen position 0.5 "):
            double_slit_amplitude(g, 0.5)


class TestScreenSampling:
    def test_sampled_visibility_matches_analytic(self):
        g = default_geometry()
        maxima, minima = fringe_extrema(g)
        max_bins, min_bins = nearest_bins(g, maxima), nearest_bins(g, minima)
        hist = histogram_from_positions(g, sample_screen_hits(g, 100_000, RngStream(11)))
        v_analytic = visibility(screen_density(g), max_bins, min_bins)
        v_sampled = visibility(hist.counts, max_bins, min_bins)
        se = visibility_stderr(hist.counts, max_bins, min_bins)
        assert abs(v_sampled - v_analytic) < 3 * se

    def test_single_slit_has_no_fringes(self):
        # Born-sample the upper slit's wave alone, through the same draw path
        # as sample_screen_hits.
        g = default_geometry()
        upper = np.abs(slit_wave_arrays(g)[0]) ** 2
        hits = g.screen_positions[RngStream(12).sample_indices(upper, 100_000)]
        hist = histogram_from_positions(g, hits)
        amp, sigma = oscillation_fit(hist.counts, upper, fringe_phase(g))
        assert amp < 3 * sigma

    def test_one_sample_lands_on_screen(self):
        g = default_geometry()
        (x,) = sample_screen_hits(g, 1, RngStream(3))
        assert g.screen_positions[0] <= x <= g.screen_positions[-1]

    def test_deterministic_per_seed(self):
        g = default_geometry()
        a = sample_screen_hits(g, 1000, RngStream(5))
        b = sample_screen_hits(g, 1000, RngStream(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 5000])
    def test_nearest_bins_sends_nan_and_outliers_to_the_edge_bins(self, n):
        # n = 5000 is enough keys for the bucket table over 513 edges.
        g = default_geometry()
        hits = sample_screen_hits(g, n, RngStream(8))
        positions = np.concatenate([hits, [np.nan, -np.inf, np.inf, -1e9, 1e9]])
        got, last = nearest_bins(g, positions), len(g.screen_positions) - 1
        assert list(got[-5:]) == [last, 0, last, 0, last]
        want = np.clip(np.searchsorted(g.bin_edges, positions) - 1, 0, last)
        np.testing.assert_array_equal(got, want)
