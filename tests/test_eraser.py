"""Quantum eraser: discrete state, joint densities, runs, identities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from hangon import ConfigError, Subsystem, make_state, outcome_probability, tensor
from hangon.engine import force_observe
from hangon.rng import RngStream
from hangon.scenarios import eraser as eraser_module
from hangon.scenarios import (
    DETECTORS,
    EraserConfig,
    analytic_joint_by_perspective,
    branch_amplitudes,
    build_eraser_universe,
    chi_square_two_sample,
    d0_marginal_density,
    default_geometry,
    detector_conditional_given_bin,
    detector_envelope,
    detector_observable,
    eraser_state,
    fringe_extrema,
    fringe_phase,
    joint_density,
    nearest_bins,
    no_signaling_check,
    oscillation_fit,
    path_observable,
    run_eraser,
    run_eraser_trace,
    slit_mode_vectors,
    visibility,
    visibility_stderr,
)
from hangon.scenarios.eraser import _eraser_state_with_record, eraser_schedule
from hangon.scenarios.geometry import random_geometry

EIGHTH = 1.0 / (2.0 * math.sqrt(2.0))

# The variant that keeps D2 in phase with D1 on both paths. It breaks the
# pairwise fringe cancellation, so it is a counterexample, not a device.
IN_PHASE_AMPLITUDES = {
    ("D1", "U"): EIGHTH,
    ("D1", "L"): EIGHTH,
    ("D2", "U"): EIGHTH,
    ("D2", "L"): EIGHTH,
    ("D3", "L"): 0.5,
    ("D4", "U"): 0.5,
}


def hex_terms(state):
    """Every amplitude, in stored order, by the bits of its two parts."""
    return [(k, v.real.hex(), v.imag.hex()) for k, v in state.terms.items()]


def fresh_eraser_state(bs):
    subs = [Subsystem("detector", DETECTORS), Subsystem("path", ("U", "L"))]
    return make_state(subs, list(branch_amplitudes(bs).items()))


def fresh_ready_record():
    return make_state([Subsystem("signal_record", ("ready", "U", "L"))], [(("ready",), 1.0)])


def in_phase_joint_density(g) -> np.ndarray:
    psi = dict(zip(("U", "L"), slit_mode_vectors(g)))
    rho = np.zeros((len(DETECTORS), len(g.screen_positions)))
    for i, det in enumerate(DETECTORS):
        wave = sum(a * psi[p] for (d, p), a in IN_PHASE_AMPLITUDES.items() if d == det)
        rho[i] = np.abs(wave) ** 2
    return rho / rho.sum()


def reference_joint_counts(bs, perspective, g, n, seed):
    """Joint counts by plain inverse-CDF sampling over the nested cdf of the
    perspective's own factorisation: block i of the flat cdf runs from the
    first factor's cdf at i - 1 to its cdf at i, split by row i of the
    second factor's cdf; ``divmod`` of the flat cell gives the two factors'
    cells."""
    rho = joint_density(bs, g)
    if perspective == "idler_first":
        first, second = rho.sum(axis=1), rho
    else:
        first, second = d0_marginal_density(g), (rho / rho.sum(axis=0)).T
    outer = np.cumsum(first)
    outer /= outer[-1]
    lo = np.concatenate(([0.0], outer[:-1]))
    inner = np.cumsum(second, axis=1)
    inner /= inner[:, -1:]
    cdf = np.minimum(lo[:, None] + (outer - lo)[:, None] * inner, outer[:, None])
    cdf[:, -1] = outer
    cell = np.minimum(np.searchsorted(cdf.ravel(), RngStream(seed).randoms(n), side="right"), cdf.size - 1)
    i, j = divmod(cell, second.shape[1])
    dets, pos = (i, j) if perspective == "idler_first" else (j, i)
    want = np.zeros(rho.shape, dtype=int)
    np.add.at(want, (dets, pos), 1)
    return want


class TestDiscreteState:
    def test_with_beam_splitter_branches(self):
        s = eraser_state(True)
        assert abs(s.amplitude(("D1", "U")) - EIGHTH) < 1e-15
        assert abs(s.amplitude(("D1", "L")) - EIGHTH) < 1e-15
        assert abs(s.amplitude(("D2", "U")) - EIGHTH) < 1e-15
        assert abs(s.amplitude(("D2", "L")) + EIGHTH) < 1e-15  # anti-phased
        assert abs(s.amplitude(("D3", "L")) - 0.5) < 1e-15
        assert abs(s.amplitude(("D4", "U")) - 0.5) < 1e-15
        assert s.amplitude(("D3", "U")) == 0j
        assert s.amplitude(("D4", "L")) == 0j

    def test_without_beam_splitter_branches(self):
        s = eraser_state(False)
        for det, path in (("D1", "U"), ("D2", "L"), ("D3", "L"), ("D4", "U")):
            assert abs(s.amplitude((det, path)) - 0.5) < 1e-15
        assert s.term_count() == 4

    @pytest.mark.parametrize("bs", [True, False])
    def test_detector_marginal_is_uniform(self, bs):
        s = eraser_state(bs)
        for det in DETECTORS:
            p = outcome_probability(s, detector_observable(), det)
            assert p == pytest.approx(0.25, abs=1e-12)


class TestSharedStates:
    """One eraser state per truth value of the beam-splitter flag and one
    ready record per process; the with-record product is built per call."""

    def test_one_state_per_truth_value(self):
        assert eraser_state(True) is eraser_state(True)
        assert eraser_state(False) is eraser_state(False)
        assert eraser_state(False) is not eraser_state(True)
        for bs in (1, 0):
            with pytest.raises(TypeError, match="bs_present"):
                eraser_state(bs)
        assert eraser_module._ready_record() is eraser_module._ready_record()

    @pytest.mark.parametrize(
        "cached, fresh",
        [
            (lambda: eraser_state(True), lambda: fresh_eraser_state(True)),
            (lambda: eraser_state(False), lambda: fresh_eraser_state(False)),
            (eraser_module._ready_record, fresh_ready_record),
        ],
        ids=["bs", "no-bs", "ready-record"],
    )
    def test_shared_state_equals_a_fresh_one(self, cached, fresh):
        s, f = cached(), fresh()
        assert s is not f
        assert s.subsystems == f.subsystems
        assert hex_terms(s) == hex_terms(f)

    @pytest.mark.parametrize("bs", [True, False])
    def test_with_record_is_a_new_product_on_each_call(self, bs):
        first, second = _eraser_state_with_record(bs), _eraser_state_with_record(bs)
        assert first is not second
        want = tensor(fresh_eraser_state(bs), fresh_ready_record())
        for s in (first, second):
            assert s.subsystems == want.subsystems
            assert hex_terms(s) == hex_terms(want)


class TestHangOnBranches:
    def test_fresh_observer_detector_distribution(self):
        u = build_eraser_universe(True)
        o = u.register_observer("alice")
        probs = u.branch_probabilities(o, detector_observable())
        for det in DETECTORS:
            assert probs[det] == pytest.approx(0.25, abs=1e-12)

    def test_d4_branch_pins_the_path(self):
        u = build_eraser_universe(True)
        o = u.register_observer("alice")
        force_observe(u, o, detector_observable(), "D4")
        assert u.branch_probabilities(o, path_observable()) == pytest.approx(
            {"U": 1.0, "L": 0.0}, abs=1e-12
        )

    def test_d1_branch_keeps_path_superposed(self):
        u = build_eraser_universe(True)
        o = u.register_observer("alice")
        force_observe(u, o, detector_observable(), "D1")
        probs = u.branch_probabilities(o, path_observable())
        assert probs["U"] == pytest.approx(0.5, abs=1e-12)
        assert probs["L"] == pytest.approx(0.5, abs=1e-12)

    def test_no_bs_every_detector_pins_the_path(self):
        u = build_eraser_universe(False)
        pins = {"D1": "U", "D2": "L", "D3": "L", "D4": "U"}
        for det, path in pins.items():
            o = u.register_observer(f"alice_{det}")
            force_observe(u, o, detector_observable(), det)
            assert u.branch_probabilities(o, path_observable())[path] == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("bs", [True, False])
    def test_asking_for_the_record_gives_the_closed_form_joint(self, bs):
        # Over (detector, reply): the reply is the path the detector's
        # branch carries, and the record never answers "ready".
        if bs:
            expected = {("D1", "U"): 0.125, ("D1", "L"): 0.125, ("D2", "U"): 0.125,
                        ("D2", "L"): 0.125, ("D3", "L"): 0.25, ("D4", "U"): 0.25}
        else:
            expected = {("D1", "U"): 0.25, ("D2", "L"): 0.25, ("D3", "L"): 0.25, ("D4", "U"): 0.25}
        joint = eraser_schedule(bs).joint()
        assert set(joint) == {(d, r) for d in DETECTORS for r in ("ready", "U", "L")}
        for cell, p in joint.items():
            assert p == pytest.approx(expected.get(cell, 0.0), abs=1e-12)


class TestJointDensity:
    def test_sums_to_one(self):
        for bs in (True, False):
            rho = joint_density(bs, default_geometry())
            assert rho.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pi_shift_cancellation_pointwise(self):
        # D1+D2 with the beam splitter equals D1+D2 without it, bin by bin,
        # and equals half the unconditioned marginal.
        g = default_geometry()
        rho_bs = joint_density(True, g)
        rho_no = joint_density(False, g)
        d12_bs = rho_bs[0] + rho_bs[1]
        d12_no = rho_no[0] + rho_no[1]
        assert np.max(np.abs(d12_bs - d12_no)) <= 1e-12
        assert np.max(np.abs(d12_bs - rho_bs.sum(axis=0) / 2)) <= 1e-12

    def test_d1_d2_densities_are_anti_phased(self):
        # At the central fringe maximum D1 dominates; D2 picks up the slack
        # exactly where D1 dips.
        g = default_geometry()
        rho = joint_density(True, g)
        maxima, minima = fringe_extrema(g)
        center_max = nearest_bins(g, maxima)[np.argmin(np.abs(maxima))]
        center_min = nearest_bins(g, minima)[np.argmin(np.abs(minima))]
        assert rho[0][center_max] > 5 * rho[1][center_max]
        assert rho[1][center_min] > 5 * rho[0][center_min]

    def test_printed_equation_breaks_the_cancellation(self):
        # Keeping D1 and D2 in phase makes their union show fringes, which
        # would let the screen alone reveal the beam-splitter choice.
        g = default_geometry()
        rho_printed = in_phase_joint_density(g)
        rho_no = joint_density(False, g)
        residual = np.max(np.abs(rho_printed[0] + rho_printed[1] - (rho_no[0] + rho_no[1])))
        assert residual > 1e-6

    def test_no_signaling_default_geometry(self):
        assert no_signaling_check(default_geometry()) <= 1e-12

    def test_no_signaling_random_geometries(self):
        rng = RngStream(314)
        for _ in range(25):
            assert no_signaling_check(random_geometry(rng)) <= 1e-12

    def test_modes_computed_once_give_the_same_arrays(self):
        # The no-signaling check and the signal-first joint compute the slit
        # modes once; each must equal the build that computes them per call.
        rng = RngStream(2718)
        for g in [default_geometry()] + [random_geometry(rng) for _ in range(16)]:
            with_bs = joint_density(True, g).sum(axis=0)
            without = joint_density(False, g).sum(axis=0)
            assert no_signaling_check(g) == float(np.max(np.abs(with_bs - without)))
            for bs in (True, False):
                cond = detector_conditional_given_bin(bs, g)
                want = (cond * d0_marginal_density(g)[:, None]).T
                assert np.array_equal(analytic_joint_by_perspective(bs, g, "signal_first"), want)

    def test_single_branch_degenerate_state_trivially_signals_nothing(self):
        # One detector, one path: both configurations collapse to the same
        # single-envelope density.
        g = default_geometry()
        psi = d0_marginal_density(g)
        assert psi.sum() == pytest.approx(1.0, abs=1e-12)


class TestPerspectives:
    def test_analytic_joints_identical(self):
        g = default_geometry()
        for bs in (True, False):
            ji = analytic_joint_by_perspective(bs, g, "idler_first")
            js = analytic_joint_by_perspective(bs, g, "signal_first")
            assert np.max(np.abs(ji - js)) <= 1e-12

    def test_sampled_perspectives_agree_by_chi_square(self):
        n = 40_000
        ra = run_eraser(EraserConfig(True, "idler_first", n, default_geometry(), 21))
        rb = run_eraser(EraserConfig(True, "signal_first", n, default_geometry(), 22))
        _, _, p = chi_square_two_sample(ra.joint_counts, rb.joint_counts)
        assert p >= 0.001

    def test_bad_perspective_rejected(self):
        with pytest.raises(ConfigError):
            EraserConfig(True, "gods_point_of_view", 10, default_geometry(), 0)
        with pytest.raises(ConfigError):
            analytic_joint_by_perspective(True, default_geometry(), "gods_point_of_view")

    def test_bad_photon_count_rejected(self):
        with pytest.raises(ConfigError):
            EraserConfig(True, "idler_first", 0, default_geometry(), 0)

    @pytest.mark.parametrize("bs", ["false", "true", 0, 1, None, np.True_], ids=repr)
    def test_bs_present_must_be_a_bool(self, bs):
        """A string, a number or a numpy bool is refused: ``"false"`` is
        truthy, so taking it would sample the beam-splitter-in run."""
        with pytest.raises(TypeError, match="bs_present"):
            EraserConfig(bs, "idler_first", 10, default_geometry(), 0)

    @pytest.mark.parametrize(
        "call",
        [eraser_state, build_eraser_universe, lambda bs: build_eraser_universe(bs, record=True),
         eraser_schedule, lambda bs: run_eraser_trace(1, bs)],
        ids=["eraser_state", "build_eraser_universe", "with-record", "eraser_schedule", "run_eraser_trace"],
    )
    @pytest.mark.parametrize("bs", ["no", 1, None, np.True_], ids=repr)
    def test_every_entry_point_refuses_a_bs_present_that_is_not_a_bool(self, call, bs):
        """``run_eraser_trace(1, "no")`` would run with the beam splitter in."""
        with pytest.raises(TypeError, match="bs_present"):
            call(bs)

    @pytest.mark.parametrize("seed", [3.9, 3.0, "3", True], ids=repr)
    def test_seed_must_be_an_integer(self, seed):
        """Refused when the config is built, not later in ``run_eraser``."""
        with pytest.raises(TypeError):
            EraserConfig(True, "idler_first", 10, default_geometry(), seed)


class TestChiSquareTwoSample:
    def test_unpooled_table_matches_scipy(self):
        a = np.array([40, 25, 31, 12, 18])
        b = np.array([35, 30, 20, 15, 22])
        stat, dof, p = chi_square_two_sample(a, b)
        want = chi2_contingency(np.vstack([a, b]), correction=False)
        assert stat == pytest.approx(want.statistic, rel=1e-12)
        assert dof == want.dof == 4
        assert p == pytest.approx(want.pvalue, rel=1e-12)

    def test_cells_under_ten_are_pooled(self):
        # Combined counts 50, 50, 7, 3: the last two cells pool into one
        # remainder cell (5 against 5). With 55 counts per sample each of the
        # first two cells adds (55*30 - 55*20)^2 / (55*55*50) = 2 and the
        # remainder adds 0, so the statistic is 4 on 3 - 1 = 2 degrees of
        # freedom, whose survival function is exp(-4/2).
        stat, dof, p = chi_square_two_sample(np.array([30, 20, 3, 2]), np.array([20, 30, 4, 1]))
        assert stat == pytest.approx(4.0, rel=1e-12)
        assert dof == 2
        assert p == pytest.approx(math.exp(-2.0), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 20).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(0, 300), min_size=n, max_size=n)] * 2)
        )
    )
    def test_statistic_equals_the_cell_loop(self, tables):
        """The array form gives the cell-by-cell loop's statistic and degrees
        of freedom bit for bit. Each cell's n_b*a - n_a*b stays below 2**26
        here, so its square is exact under both the loop's ``x ** 2`` (libm
        ``pow``, not always correctly rounded) and numpy's ``x * x``."""
        a, b = (np.array(t, dtype=float) for t in tables)
        big = a + b >= 10
        cells = [(x, y) for x, y in zip(a[big].tolist(), b[big].tolist())]
        if not big.all():
            cells.append((float(a[~big].sum()), float(b[~big].sum())))
        n_a, n_b = sum(x for x, _ in cells), sum(y for _, y in cells)
        if n_a == 0 or n_b == 0:
            with pytest.raises(ValueError, match="at least one count"):
                chi_square_two_sample(a, b)
            return
        want, used = 0.0, 0
        for x, y in cells:
            if x + y > 0:
                used += 1
                want += (n_b * x - n_a * y) ** 2 / (n_a * n_b * (x + y))
        stat, dof, _ = chi_square_two_sample(a, b)
        assert stat.hex() == want.hex()
        assert dof == max(used - 1, 1)


class TestRuns:
    def test_histogram_bookkeeping(self):
        n = 5000
        run = run_eraser(EraserConfig(True, "idler_first", n, default_geometry(), 3))
        assert run.n_photons == n
        assert run.histograms["total"].total == n
        for det in DETECTORS:
            assert run.histograms[det].total == run.detector_counts[det]
        assert (
            run.histograms["D1+D2"].total
            == run.detector_counts["D1"] + run.detector_counts["D2"]
        )

    def test_deterministic_per_seed(self):
        cfg = EraserConfig(True, "signal_first", 2000, default_geometry(), 12)
        a, b = run_eraser(cfg), run_eraser(cfg)
        np.testing.assert_array_equal(a.joint_counts, b.joint_counts)

    def test_d1_fringes_and_d3_d4_flat_with_bs(self):
        g = default_geometry()
        cfg = EraserConfig(True, "idler_first", 100_000, g, 7)
        run = run_eraser(cfg)
        maxima, minima = fringe_extrema(g)
        max_bins, min_bins = nearest_bins(g, maxima), nearest_bins(g, minima)
        v_analytic = visibility(run.analytic_joint[0], max_bins, min_bins)
        v_sampled = visibility(run.histograms["D1"].counts, max_bins, min_bins)
        se = visibility_stderr(run.histograms["D1"].counts, max_bins, min_bins)
        assert abs(v_sampled - v_analytic) < 3 * se
        assert v_analytic > 0.9

        phase = fringe_phase(g)
        for det in ("D3", "D4"):
            amp, sigma = oscillation_fit(
                run.histograms[det].counts, detector_envelope(True, g, det), phase
            )
            assert amp < 3 * sigma
        # Positive control: D1 itself shows an unmistakable oscillation.
        amp, sigma = oscillation_fit(
            run.histograms["D1"].counts, detector_envelope(True, g, "D1"), phase
        )
        assert amp > 10 * sigma

    def test_all_flat_without_bs(self):
        g = default_geometry()
        cfg = EraserConfig(False, "signal_first", 100_000, g, 9)
        run = run_eraser(cfg)
        phase = fringe_phase(g)
        for det in DETECTORS:
            amp, sigma = oscillation_fit(
                run.histograms[det].counts, detector_envelope(False, g, det), phase
            )
            assert amp < 3 * sigma

    def test_no_bs_splits_evenly_per_path_class(self):
        # Without the beam splitter, U-path photons divide evenly between D1
        # and D4, L-path photons between D2 and D3.
        rho = joint_density(False, default_geometry())
        masses = rho.sum(axis=1)
        for m in masses:
            assert m == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("perspective", ["idler_first", "signal_first"])
    @pytest.mark.parametrize("bs", [True, False])
    def test_one_joint_density_per_run(self, monkeypatch, perspective, bs):
        """Both orders sample from the one joint the run reports; the
        signal-first detector conditional is built from it, not again."""
        calls = [0]
        real_joint_density = eraser_module.joint_density

        def counting_joint_density(*args, **kwargs):
            calls[0] += 1
            return real_joint_density(*args, **kwargs)

        monkeypatch.setattr(eraser_module, "joint_density", counting_joint_density)
        run = run_eraser(EraserConfig(bs, perspective, 500, default_geometry(), 4))
        assert calls[0] == 1
        np.testing.assert_array_equal(run.analytic_joint, real_joint_density(bs, default_geometry()))
        cond = detector_conditional_given_bin(bs, default_geometry())
        assert calls[0] == 2
        np.testing.assert_array_equal(cond, (run.analytic_joint / run.analytic_joint.sum(axis=0)).T)

    @pytest.mark.parametrize("perspective", ["idler_first", "signal_first"])
    def test_slit_waves_evaluated_once_per_run(self, monkeypatch, perspective):
        """The joint and the signal-first marginal share one evaluation of
        the slit waves, and give the values of their public calls."""
        calls = [0]
        real_slit_wave_arrays = eraser_module.slit_wave_arrays

        def counting_slit_wave_arrays(*args, **kwargs):
            calls[0] += 1
            return real_slit_wave_arrays(*args, **kwargs)

        monkeypatch.setattr(eraser_module, "slit_wave_arrays", counting_slit_wave_arrays)
        g = default_geometry()
        modes = eraser_module.slit_mode_vectors(g)
        np.testing.assert_array_equal(joint_density(True, g, _modes=modes), joint_density(True, g))
        np.testing.assert_array_equal(d0_marginal_density(g, _modes=modes), d0_marginal_density(g))
        calls[0] = 0
        run_eraser(EraserConfig(True, perspective, 500, g, 4))
        assert calls[0] == 1

    @pytest.mark.parametrize("bins", [512, 4096])
    @pytest.mark.parametrize("perspective", ["idler_first", "signal_first"])
    @pytest.mark.parametrize("bs", [True, False])
    def test_joint_counts_equal_binary_search_reference(self, bs, perspective, bins):
        """The same photons as plain inverse-CDF sampling with
        ``np.searchsorted`` over the nested cdf and ``np.add.at`` from the
        same seed."""
        g, n, seed = default_geometry(bins), 100_000, 17
        run = run_eraser(EraserConfig(bs, perspective, n, g, seed))
        want = reference_joint_counts(bs, perspective, g, n, seed)
        assert run.joint_counts.dtype == want.dtype
        np.testing.assert_array_equal(run.joint_counts, want)

    @pytest.mark.parametrize("n", [1, 1_000, 70_000])
    @pytest.mark.parametrize("bs", [True, False])
    def test_idler_first_equals_binary_search_reference_at_any_size(self, bs, n):
        """Fewer photons than the 4 x 16,384 buckets of a 4096-bin screen's
        nested cdf take ``np.searchsorted``; 70,000 take the bucket table.
        Both give the photons of the reference."""
        g, seed = default_geometry(4096), 29
        run = run_eraser(EraserConfig(bs, "idler_first", n, g, seed))
        want = reference_joint_counts(bs, "idler_first", g, n, seed)
        assert run.joint_counts.dtype == want.dtype
        np.testing.assert_array_equal(run.joint_counts, want)

    @pytest.mark.parametrize("bins", [512, 4096])
    @pytest.mark.parametrize("perspective", ["idler_first", "signal_first"])
    def test_first_factor_equals_sample_indices(self, perspective, bins):
        """Each photon's first cell (the detector idler-first, the screen bin
        signal-first) is exactly the one ``sample_indices`` draws over the
        first factor from the same seed."""
        g, n = default_geometry(bins), 70_000
        for seed in (1, 17, 29, 4242):
            for bs in (True, False):
                run = run_eraser(EraserConfig(bs, perspective, n, g, seed))
                if perspective == "idler_first":
                    first, got = joint_density(bs, g).sum(axis=1), run.joint_counts.sum(axis=1)
                else:
                    first, got = d0_marginal_density(g), run.joint_counts.sum(axis=0)
                want = np.bincount(RngStream(seed).sample_indices(first, n), minlength=first.size)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bins", [512, 4096])
    def test_signal_first_screen_totals_do_not_depend_on_the_beam_splitter(self, bins):
        g = default_geometry(bins)
        for seed in (3, 17, 4242):
            with_bs = run_eraser(EraserConfig(True, "signal_first", 100_000, g, seed))
            without = run_eraser(EraserConfig(False, "signal_first", 100_000, g, seed))
            np.testing.assert_array_equal(with_bs.histograms["total"].counts, without.histograms["total"].counts)
            assert not np.array_equal(with_bs.joint_counts, without.joint_counts)

    @pytest.mark.parametrize("perspective", ["idler_first", "signal_first"])
    def test_a_run_draws_one_double_per_photon(self, monkeypatch, perspective):
        streams = []

        class RecordingStream(RngStream):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

        monkeypatch.setattr(eraser_module, "RngStream", RecordingStream)
        n, seed = 70_000, 8
        run_eraser(EraserConfig(True, perspective, n, default_geometry(4096), seed))
        assert len(streams) == 1
        assert streams[0].randoms(1)[0] == RngStream(seed).randoms(n + 1)[-1]

    def test_single_photon_run(self):
        run = run_eraser(EraserConfig(True, "idler_first", 1, default_geometry(), 1))
        assert run.n_photons == 1
