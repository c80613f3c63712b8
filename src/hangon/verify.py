"""The verification suite behind ``hangon verify``.

One check per acceptance criterion, each comparing analytic values against
sampled statistics at fixed tolerances. Every check names the invariant it
instantiates, consumes seeds derived from one master seed, and contributes
only deterministic content to the canonical report: wall-clock runtimes are
kept off to the side so repeated runs with the same master seed produce
byte-identical reports (itself the final criterion, checked by a full
second pass).
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import (
    Advance,
    Observe,
    Schedule,
    born_joint_distribution,
    l1_distance,
    sequential_joint_distribution,
)
from .engine import _AnswerTable
from .events import Proposition, Truth
from .rng import RngStream
from .states import (
    Observable,
    StateVector,
    Subsystem,
    label_observable,
    make_state,
    outcome_probability,
)
from .scenarios import (
    DETECTORS,
    ORDERS,
    EraserConfig,
    analytic_joint_by_perspective,
    chi_square_two_sample,
    default_geometry,
    detector_envelope,
    detector_observable,
    epr_joint_distribution,
    eraser_state,
    fringe_extrema,
    fringe_phase,
    joint_density,
    momentum_detector_probabilities,
    no_signaling_check,
    oscillation_fit,
    partial_pair_joint_distribution,
    run_epr,
    run_eraser,
    run_needle_narrative,
    run_partial_pair,
    sample_momentum_clicks,
    sample_screen_hits,
    screen_density,
    screen_visibility,
)
from .scenarios.epr import epr_schedule
from .scenarios.eraser import eraser_schedule
from .scenarios.fringes import histogram_from_positions
from .scenarios.geometry import grid_extrema_indices, momentum_weights, random_geometry
from .scenarios.narrative import MONDAY_NOON

DEFAULT_MASTER_SEED = 7

ANALYTIC_TOL = 1e-12
ORACLE_L1_TOL = 1e-10
CHI2_SIGNIFICANCE = 0.001


@dataclass
class CheckResult:
    name: str
    invariant: str
    passed: bool
    analytic: dict
    sampled: dict
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    master_seed: int
    results: list[CheckResult] = field(default_factory=list)
    # Wall-clock seconds per check; never serialized into the report.
    runtimes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_canonical_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "master_seed": self.master_seed,
                "passed": self.passed,
                "checks": [asdict(r) for r in self.results],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def format_table(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.results), default=10)
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            rt = self.runtimes.get(r.name)
            rt_s = f" [{rt:6.2f}s]" if rt is not None else ""
            lines.append(f"{mark}  {r.name:<{width}}{rt_s}  {r.detail}")
            for side, values in (("analytic", r.analytic), ("sampled", r.sampled)):
                if values:
                    body = json.dumps(values, sort_keys=True, default=str)
                    lines.append(f"        {side}: {body}")
        lines.append(f"{'PASS' if self.passed else 'FAIL'}  suite={self.suite} seed={self.master_seed}")
        return "\n".join(lines)


# --- criterion 1 ----------------------------------------------------------


def check_momentum_detectors(seed: int, fast: bool) -> CheckResult:
    g = default_geometry()
    p_up, p_low = momentum_detector_probabilities(g)
    w80, w20 = momentum_weights(137.0, 274.0)
    ok = (
        abs(p_up - 0.5) <= ANALYTIC_TOL
        and abs(p_low - 0.5) <= ANALYTIC_TOL
        and abs(w80 - 0.8) <= ANALYTIC_TOL
        and abs(w20 - 0.2) <= ANALYTIC_TOL
    )
    analytic = {"p_upper": p_up, "p_lower": p_low, "double_distance_weight": w80}
    sampled: dict = {}
    if not fast:
        n = 100_000
        n_up, _ = sample_momentum_clicks(g, n, RngStream(seed))
        z = (n_up / n - 0.5) / math.sqrt(0.25 / n)
        sampled = {"n": n, "freq_upper": n_up / n, "abs_z": abs(z)}
        ok = ok and abs(z) <= 3.0
    return CheckResult(
        "momentum_detectors",
        "symmetric far-field momentum detectors click with probability 1/2 each",
        ok,
        analytic,
        sampled,
        f"p=({p_up:.12f},{p_low:.12f})",
    )


# --- criterion 2 ----------------------------------------------------------


def check_double_slit_fringes(seed: int, fast: bool) -> CheckResult:
    g = default_geometry()
    maxima, minima = fringe_extrema(g)
    density = screen_density(g)
    gmax, gmin = grid_extrema_indices(density)
    xs = g.screen_positions
    worst = 0.0
    for grid, exact in ((gmax, maxima), (gmin, minima)):
        for x in exact:
            worst = max(worst, float(np.min(np.abs(xs[grid] - x))))
    n_extrema = len(maxima) + len(minima)
    ok = n_extrema >= 20 and worst <= g.bin_width
    analytic = {
        "n_extrema": n_extrema,
        "worst_offset_bins": worst / g.bin_width,
    }
    sampled: dict = {}
    if not fast:
        hist = histogram_from_positions(g, sample_screen_hits(g, 100_000, RngStream(seed)))
        v_analytic, v_sampled, se = screen_visibility(g, maxima, minima, density, hist.counts)
        z = (v_sampled - v_analytic) / se
        sampled = {
            "n": 100_000,
            "visibility_analytic": v_analytic,
            "visibility_sampled": v_sampled,
            "abs_z": abs(z),
        }
        ok = ok and abs(z) <= 3.0
    return CheckResult(
        "double_slit_fringes",
        "density extrema sit at integer/half-integer path differences; sampled visibility matches analytic",
        ok,
        analytic,
        sampled,
        f"{n_extrema} extrema, worst offset {worst / g.bin_width:.3f} bins",
    )


# --- criterion 3 ----------------------------------------------------------


def check_epr(seed: int, fast: bool) -> CheckResult:
    analytic, sampled = {}, {}
    ok = True
    for i, order in enumerate(ORDERS):
        joint = epr_joint_distribution(order)
        analytic[order] = {f"{a}{b}": p for (a, b), p in sorted(joint.items())}
        ok = ok and abs(joint[("+", "-")] - 0.5) <= ANALYTIC_TOL
        ok = ok and abs(joint[("-", "+")] - 0.5) <= ANALYTIC_TOL
        ok = ok and joint[("+", "+")] == 0.0 and joint[("-", "-")] == 0.0
        if fast:
            continue
        n = 10_000
        run = run_epr(order, n, seed + i)
        plus_trials = run.counts[("+", "-")] + run.counts[("+", "+")]
        sampled[order] = {
            "n": n,
            "same_sign": run.same_sign_count,
            "plus_trials": plus_trials,
            "plus_replied_minus": run.counts[("+", "-")],
        }
        ok = ok and run.same_sign_count == 0
        ok = ok and run.counts[("+", "-")] == plus_trials
    return CheckResult(
        "epr_anticorrelation",
        "singlet runs never produce same-sign joint outcomes in either order; a '+' always hears '-'",
        ok,
        analytic,
        sampled,
        "joint {+-:0.5, -+:0.5}, zero same-sign",
    )


# --- criterion 4 ----------------------------------------------------------


def check_partial_pair(seed: int, fast: bool) -> CheckResult:
    joint = partial_pair_joint_distribution()
    p_x = joint[("X", "a")] + joint[("X", "b")]
    p_y = joint[("Y", "a")] + joint[("Y", "b")]
    p_a_given_x = joint[("X", "a")] / p_x
    p_a_given_y = joint[("Y", "a")] / p_y
    ok = (
        abs(p_x - 2.0 / 3.0) <= ANALYTIC_TOL
        and abs(p_y - 1.0 / 3.0) <= ANALYTIC_TOL
        and abs(p_a_given_x - 0.5) <= ANALYTIC_TOL
        and abs(p_a_given_y - 1.0) <= ANALYTIC_TOL
        and joint[("Y", "b")] == 0.0
    )
    analytic = {
        "p_x": p_x,
        "p_y": p_y,
        "p_a_given_x": p_a_given_x,
        "p_a_given_y": p_a_given_y,
        "p_yb": joint[("Y", "b")],
    }
    sampled: dict = {}
    if not fast:
        n = 30_000
        run = run_partial_pair(n, seed)
        n_x = run.counts[("X", "a")] + run.counts[("X", "b")]
        z_x = (n_x / n - 2 / 3) / math.sqrt((2 / 3) * (1 / 3) / n)
        z_ax = (run.counts[("X", "a")] / n_x - 0.5) / math.sqrt(0.25 / n_x)
        sampled = {
            "n": n,
            "yb_count": run.counts[("Y", "b")],
            "abs_z_x": abs(z_x),
            "abs_z_a_given_x": abs(z_ax),
        }
        ok = ok and run.counts[("Y", "b")] == 0
        ok = ok and abs(z_x) <= 3.0 and abs(z_ax) <= 3.0
    return CheckResult(
        "partial_pair",
        "first measurement leaves the partner undecided on one branch, pinned on the other; the empty branch never fires",
        ok,
        analytic,
        sampled,
        f"P(X)={p_x:.12f}, P(a|Y)={p_a_given_y:.12f}",
    )


# --- criterion 5 ----------------------------------------------------------


def check_eraser_uniformity(seed: int, fast: bool) -> CheckResult:
    analytic = {}
    ok = True
    for bs in (True, False):
        state = eraser_state(bs)
        probs = {
            det: outcome_probability(state, detector_observable(), det)
            for det in DETECTORS
        }
        analytic["with_bs" if bs else "without_bs"] = probs
        ok = ok and all(abs(p - 0.25) <= ANALYTIC_TOL for p in probs.values())
    return CheckResult(
        "eraser_uniformity",
        "each idler detector carries exactly a quarter of the probability, with or without the beam splitter",
        ok,
        analytic,
        {},
        "all eight marginals at 0.25",
    )


# --- criterion 6 ----------------------------------------------------------


def check_eraser_fringes(seed: int, fast: bool) -> CheckResult:
    g = default_geometry()
    rho_bs = joint_density(True, g)
    rho_no = joint_density(False, g)
    pair_residual = float(np.max(np.abs((rho_bs[0] + rho_bs[1]) - (rho_no[0] + rho_no[1]))))
    half_total_residual = float(np.max(np.abs((rho_bs[0] + rho_bs[1]) - rho_bs.sum(axis=0) / 2)))
    ok = pair_residual <= ANALYTIC_TOL and half_total_residual <= ANALYTIC_TOL
    analytic = {
        "pair_sum_residual": pair_residual,
        "half_total_residual": half_total_residual,
    }
    sampled: dict = {}
    if not fast:
        phase = fringe_phase(g)
        run_bs = run_eraser(EraserConfig(True, "idler_first", 100_000, g, seed))
        maxima, minima = fringe_extrema(g)
        v_analytic, v_sampled, se = screen_visibility(
            g, maxima, minima, rho_bs[0], run_bs.histograms["D1"].counts
        )
        z = (v_sampled - v_analytic) / se
        run_no = run_eraser(EraserConfig(False, "idler_first", 100_000, g, seed + 1))
        flat_ratios = {}
        fits = (
            ("", run_bs, ("D3", "D4")),
            ("no_bs_", run_no, DETECTORS),
        )
        for prefix, run, detectors in fits:
            for det in detectors:
                envelope = detector_envelope(run.config.bs_present, g, det)
                amp, sigma = oscillation_fit(run.histograms[det].counts, envelope, phase)
                flat_ratios[prefix + det] = amp / sigma
        sampled = {
            "n": 100_000,
            "d1_visibility_analytic": v_analytic,
            "d1_visibility_sampled": v_sampled,
            "d1_abs_z": abs(z),
            "flat_fit_ratios": flat_ratios,
        }
        ok = ok and abs(z) <= 3.0 and all(r < 3.0 for r in flat_ratios.values())
    return CheckResult(
        "eraser_fringes",
        "post-selected fringe patterns cancel pairwise; which-path detectors and the no-splitter runs stay fringe-free",
        ok,
        analytic,
        sampled,
        f"pair residual {pair_residual:.2e}",
    )


# --- criterion 7 ----------------------------------------------------------


def check_no_signaling(seed: int, fast: bool) -> CheckResult:
    worst = no_signaling_check(default_geometry())
    n_geoms = 10 if fast else 100
    rng = RngStream(seed)
    for i in range(n_geoms):
        worst = max(worst, no_signaling_check(random_geometry(rng.derive(i))))
    ok = worst <= ANALYTIC_TOL
    return CheckResult(
        "no_signaling",
        "screen marginal is identical with and without the beam splitter, pointwise, on any geometry",
        ok,
        {"n_geometries": n_geoms + 1, "worst_residual": worst},
        {},
        f"worst residual {worst:.2e} over {n_geoms + 1} geometries",
    )


# --- criterion 8 ----------------------------------------------------------


def check_perspective_equivalence(seed: int, fast: bool) -> CheckResult:
    g = default_geometry()
    worst = 0.0
    for bs in (True, False):
        ji = analytic_joint_by_perspective(bs, g, "idler_first")
        js = analytic_joint_by_perspective(bs, g, "signal_first")
        worst = max(worst, float(np.max(np.abs(ji - js))))
    ok = worst <= ANALYTIC_TOL
    analytic = {"worst_joint_residual": worst}
    sampled: dict = {}
    if not fast:
        n = 100_000
        run_idler = run_eraser(EraserConfig(True, "idler_first", n, g, seed))
        run_signal = run_eraser(EraserConfig(True, "signal_first", n, g, seed + 1))
        stat, dof, p = chi_square_two_sample(run_idler.joint_counts, run_signal.joint_counts)
        sampled = {"n": n, "chi2": stat, "dof": dof, "p_value": p}
        ok = ok and p >= CHI2_SIGNIFICANCE
    return CheckResult(
        "perspective_equivalence",
        "measuring idlers first or signals first yields the same joint distribution, analytically and by sample",
        ok,
        analytic,
        sampled,
        f"analytic residual {worst:.2e}",
    )


# --- criterion 9 ----------------------------------------------------------


def _conflict_trial(
    schedule: Schedule, record_obs: Observable, rng: RngStream, answers: _AnswerTable | None = None
) -> tuple[tuple[str, ...], str, int]:
    """Run the schedule, ask for the record, then check the reply against
    the asker's whole path. Returns the sampled outcomes, the reply and the
    number of violations."""
    u, asker, outcomes = schedule.run(rng, _answers=answers)
    prior = asker.path_selectors()
    pre_probs = u.branch_probabilities(asker, record_obs)
    determined = [cls for cls, p in pre_probs.items() if p >= 1.0 - 1e-9]
    reply = u.communicate(asker, record_obs, rng)
    violations = 0
    if determined and reply != determined[0]:
        violations += 1
    for obs, outcome in prior:
        if abs(u.branch_probabilities(asker, obs)[outcome] - 1.0) > 1e-9:
            violations += 1
    return outcomes, reply, violations


def _conflict_kinds() -> tuple[tuple[Schedule, Observable], ...]:
    """The four (schedule, record observable) pairs that trials cycle
    through: each asking program up to its last step, which asks for the
    record."""
    epr = epr_schedule("bob_record_first")
    programs = (epr, epr, eraser_schedule(True), eraser_schedule(False))
    return tuple((Schedule(p.initial, p.steps[:-1]), p.steps[-1].obs) for p in programs)


def check_no_conflict(seed: int, fast: bool) -> CheckResult:
    n_trials = 1_000 if fast else 10_000
    kinds = _conflict_kinds()
    # Each trial runs on its own universe; the trials draw from one stream in
    # turn, and the four schedules share one answer table, so each branch is
    # premeasured and projected once.
    rng = RngStream(seed)
    answers = _AnswerTable()
    violations = 0
    for i in range(n_trials):
        schedule, record_obs = kinds[i % 4]
        violations += _conflict_trial(schedule, record_obs, rng, answers)[2]
    return CheckResult(
        "no_conflict",
        "a reply is always consistent with every selector already on the asker's path",
        violations == 0,
        {},
        {"n_trials": n_trials, "violations": violations},
        f"{violations} violations in {n_trials} trials",
    )


# --- criterion 10 ---------------------------------------------------------


def _random_state(rng: RngStream, subs: list[Subsystem]) -> StateVector:
    """Every label tuple in ``itertools.product`` order, with real and
    imaginary amplitude parts drawn uniform on [-1, 1)."""
    keys = itertools.product(*(s.labels for s in subs))
    return make_state(subs, [(k, complex(rng.random() * 2 - 1, rng.random() * 2 - 1)) for k in keys])


def _random_state_and_observables(rng: RngStream):
    n_subs = 2 + int(rng.random() * 3)  # 2..4
    subs = []
    for i in range(n_subs):
        n_labels = 2 + int(rng.random() * 2)  # 2..3
        subs.append(Subsystem(f"s{i}", tuple(f"l{j}" for j in range(n_labels))))

    state = _random_state(rng, subs)

    observables = []
    for s in subs:
        if len(s.labels) == 3 and rng.random() < 0.3:
            # Degenerate observable: two labels share one outcome class.
            classes = {"merged": s.labels[:2], s.labels[2]: (s.labels[2],)}
            observables.append(Observable(s, classes, name=f"{s.name}_deg"))
        else:
            observables.append(label_observable(s))
    return state, observables


def check_oracle_equivalence(seed: int, fast: bool) -> CheckResult:
    n_states = 60 if fast else 500
    rng = RngStream(seed)
    worst = 0.0
    for _ in range(n_states):
        state, observables = _random_state_and_observables(rng)
        chain = sequential_joint_distribution(state, observables)
        oracle = born_joint_distribution(state, observables)
        worst = max(worst, l1_distance(chain, oracle))
    return CheckResult(
        "oracle_equivalence",
        "sequential hanging-on joint distribution equals brute-force Born enumeration",
        worst <= ORACLE_L1_TOL,
        {},
        {"n_states": n_states, "worst_l1": worst},
        f"worst L1 {worst:.2e} over {n_states} states",
    )


# --- criterion 11 ---------------------------------------------------------


def _random_ledger_schedule(rng: RngStream) -> int:
    """One random observation schedule, drawn whole and then run; returns
    truth monotonicity violations."""
    n_labels = 2 + int(rng.random() * 2)
    subs = [Subsystem(f"s{i}", tuple(f"l{j}" for j in range(n_labels))) for i in range(2)]
    state = _random_state(rng, subs)
    steps, clock = [], 0
    for _ in range(5):
        clock += int(rng.random() * 4)
        sub = subs[int(rng.random() * 2)]
        t_hap = int(rng.random() * (clock + 1))  # never after its determination
        steps += (Advance(clock), Observe(label_observable(sub), t_hap))
        clock += 1  # an observation takes one tick
    u, o, _ = Schedule(state, tuple(steps)).run(rng)
    horizon = u.clock + 2
    violations = 0
    slots = {(r.proposition.subsystem, r.proposition.t_happened) for r in o.ledger.records}
    for sub_name, t_hap in slots:
        for outcome in ("l0", "l1", "l2"):
            prop = Proposition(sub_name, outcome, t_hap)
            prev = None
            for t in range(horizon):
                cur = o.ledger.truth_value(prop, t)
                if prev is not None and prev is not Truth.INDEFINITE and cur is not prev:
                    violations += 1
                prev = cur
    return violations


def check_event_ledger(seed: int, fast: bool) -> CheckResult:
    story = run_needle_narrative(seed)
    prop = story.needle_proposition()
    before_ok = all(
        story.ledger.truth_value(prop, t) is Truth.INDEFINITE for t in range(0, MONDAY_NOON)
    )
    after_ok = all(
        story.ledger.truth_value(prop, t) is Truth.TRUE
        for t in range(story.t_complete, story.t_complete + 20)
    )
    # The position the narrative did not land on: a ledger that never
    # answers FALSE would pass the two checks above.
    rival = Proposition(prop.subsystem, "down" if prop.outcome == "up" else "up", prop.t_happened)
    rival_ok = all(
        story.ledger.truth_value(rival, t) is Truth.FALSE
        for t in range(story.t_complete, story.t_complete + 20)
    )
    n_schedules = 100 if fast else 1_000
    rng = RngStream(seed)
    violations = 0
    for _ in range(n_schedules):
        violations += _random_ledger_schedule(rng)
    ok = before_ok and after_ok and rival_ok and violations == 0
    return CheckResult(
        "event_ledger",
        "a past-dated fact is indefinite until the conversation that determines it, then true forever",
        ok,
        {"indefinite_before": before_ok, "true_after": after_ok, "rival_false_after": rival_ok},
        {"n_schedules": n_schedules, "monotonicity_violations": violations},
        f"needle fact determined at t={story.ledger.determination_time(prop)}",
    )


# --- engine invariant: repeated measurement -------------------------------


def check_repeat_measurement(seed: int, fast: bool) -> CheckResult:
    n_trials = 500 if fast else 10_000
    rng = RngStream(seed)
    mismatches = 0
    for _ in range(n_trials):
        n_labels = 2 + int(rng.random() * 2)
        sub = Subsystem("s", tuple(f"l{j}" for j in range(n_labels)))
        obs = label_observable(sub)
        schedule = Schedule(_random_state(rng, [sub]), (Observe(obs), Observe(obs)))
        first, again = schedule.run(rng)[2]
        if first != again:
            mismatches += 1
    return CheckResult(
        "repeat_measurement",
        "repeating a measurement immediately reproduces its result with certainty",
        mismatches == 0,
        {},
        {"n_trials": n_trials, "mismatches": mismatches},
        f"{mismatches} mismatches in {n_trials} trials",
    )


# --- criterion 12 ---------------------------------------------------------

CHECKS = [
    check_momentum_detectors,
    check_double_slit_fringes,
    check_epr,
    check_partial_pair,
    check_eraser_uniformity,
    check_eraser_fringes,
    check_no_signaling,
    check_perspective_equivalence,
    check_no_conflict,
    check_oracle_equivalence,
    check_event_ledger,
    check_repeat_measurement,
]

# Stable per-check seed offsets; check k runs on master_seed * 1009 + offset.
_SEED_STRIDE = 1009


def _check_seed(master_seed: int, index: int) -> int:
    return master_seed * _SEED_STRIDE + 17 * (index + 1)


def _run_checks(master_seed: int, fast: bool, runtimes: dict) -> list[CheckResult]:
    results = []
    for i, fn in enumerate(CHECKS):
        t0 = time.perf_counter()
        results.append(fn(_check_seed(master_seed, i), fast))
        runtimes[results[-1].name] = time.perf_counter() - t0
    return results


def check_determinism(master_seed: int, first_pass: list[CheckResult]) -> CheckResult:
    """Re-run every check in full with the same master seed and compare report bytes."""
    second_pass = _run_checks(master_seed, False, {})
    a = json.dumps([asdict(r) for r in first_pass], sort_keys=True)
    b = json.dumps([asdict(r) for r in second_pass], sort_keys=True)
    return CheckResult(
        "determinism",
        "the same master seed reproduces the whole report byte-for-byte",
        a == b,
        {},
        {"report_bytes": len(a), "identical": a == b},
        "second full pass compared byte-for-byte",
    )


def run_suite(suite: str = "all", master_seed: int = DEFAULT_MASTER_SEED) -> SuiteReport:
    """Run the verification suite: ``fast`` keeps only analytic-grade checks,
    ``all`` adds the sampled statistics and the determinism double-run."""
    if suite not in ("all", "fast"):
        raise ValueError("suite must be 'all' or 'fast'")
    fast = suite == "fast"
    report = SuiteReport(suite=suite, master_seed=master_seed)
    report.results = _run_checks(master_seed, fast, report.runtimes)
    if not fast:
        t0 = time.perf_counter()
        report.results.append(check_determinism(master_seed, report.results))
        report.runtimes["determinism"] = time.perf_counter() - t0
    return report
