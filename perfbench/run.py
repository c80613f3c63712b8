"""hangon benchmark: one process, one thread, hangon's public API.

Run from the repository root:

    python3 perfbench/run.py --workload shallow-trials --seed 1 --seconds 25 --trace 0

hangon is imported from ./src, as the tier-1 tests do. Every workload
repeats whole rounds until --seconds have passed. A round runs the same
five phases in every workload: sampled single-pair trials, exact joint
distributions, deep observer histories, a ledger truth sweep and the
vectorised eraser. The workload sets how much of each a round holds, so
every run reports every end-to-end metric while its own phases take most of
the time. A fixed reference job runs between units of work, and each unit's
time is scaled to the reference job's nominal speed (see Timeline and
README.md). Rates are medians over rounds of operations per scaled second.
Outputs are checked against perfbench/oracles.py after each round, outside
the timed units. With --trace 1, rounds alternate untraced and traced; the
traced ones record spans around hangon's public functions and give the
per-layer metrics. The last stdout line is one JSON object.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import math
import os
import resource
import statistics
import sys
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Round make-up per workload. trials: single-pair trials per kind (four
# kinds); joint_passes: passes over the pool of small states; histories:
# deep-history units; truth_stride: ticks between ledger query times;
# photons: per eraser run (four runs: beam splitter in and out, both
# perspectives), with screen bins, double-slit hits and no-signaling
# geometries.
WORKLOADS = {
    "shallow-trials": dict(trials=1500, joint_passes=4, histories=1, truth_stride=39,
                           photons=20_000, bins=512, hits=20_000, geometries=4),
    "deep-history": dict(trials=150, joint_passes=1, histories=3, truth_stride=13,
                         photons=20_000, bins=512, hits=20_000, geometries=4),
    "eraser-batch": dict(trials=150, joint_passes=1, histories=1, truth_stride=39,
                         photons=600_000, bins=4096, hits=600_000, geometries=16),
}

# Small states for exact joints: (labels per subsystem, degenerate
# observables, amplitudes may be zero). The shapes are fixed so that every
# seed asks for the same amount of enumeration.
JOINT_SHAPES = [
    ((2, 2), 0, False),
    ((2, 3), 1, False),
    ((3, 3), 0, True),
    ((2, 2, 3), 1, True),
    ((3, 3, 3), 1, False),
    ((2, 3, 2, 3), 1, False),
    ((3, 3, 3, 3), 2, False),
]

# Deep history: subsystems of one shared state, its support size, and the
# observation count of each observer. One observer passes depth 400.
HISTORY_SHAPE = (3, 3, 3, 2, 2)
HISTORY_TERMS = 48
HISTORY_LENGTHS = (420, 100)
HISTORY_T_HAPPENED_SLOTS = 24

ANALYTIC_TOL = 1e-10
SIGMAS = 5.0
CHI2_MIN_P = 0.001
NO_SIGNALING_TOL = 1e-12
# Round index of the seeds for a chi-square redraw; no run gets this far.
RETEST_ROUND = 10**6

# Typical duration of _reference_job on the machine the reference figures in
# README.md were taken on; times are reported at that speed (see Timeline).
REF_NOMINAL_S = 0.006
# Each history and truth sweep is timed in this many pieces, with the
# reference job between them.
SEGMENTS = 4

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "joints_per_s": "1/s",
    "observations_per_s": "1/s",
    "truth_queries_per_s": "1/s",
    "photons_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PHASES = ("trials", "joints", "history", "truth", "eraser")
RATE_OF_PHASE = {
    "trials": "trials_per_s",
    "joints": "joints_per_s",
    "history": "observations_per_s",
    "truth": "truth_queries_per_s",
    "eraser": "photons_per_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Failures:
    """Collects failed output checks by name; any entry makes correct false."""

    def __init__(self):
        self.items: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.items.append(what)


class Bench:
    """Inputs, phases and checks of one workload run."""

    def __init__(self, workload: str, seed: int):
        import numpy as np

        from hangon import analysis, engine, events, rng, states
        from hangon.scenarios import epr, eraser, fringes, geometry

        import oracles

        self.np, self.analysis, self.engine, self.events = np, analysis, engine, events
        self.rng, self.states, self.epr, self.eraser = rng, states, epr, eraser
        self.fringes, self.geometry, self.oracles = fringes, geometry, oracles
        self.seed = seed
        self.size = WORKLOADS[workload]
        self.fail = Failures()
        gen = np.random.default_rng([seed, 0])
        self._build_trials()
        self._build_joints(gen)
        self._build_history(gen)
        self.screen = geometry.default_geometry(self.size["bins"])
        self.sample_counts = {}  # (kind, outcome pair) -> count, over all rounds
        self.detector_counts = {True: [0, 0, 0, 0], False: [0, 0, 0, 0]}
        self.chi2_samples = None

    # --- inputs -----------------------------------------------------------

    def round_seed(self, round_index: int, stream: int) -> int:
        ss = self.np.random.SeedSequence([self.seed, round_index, stream])
        return int(ss.generate_state(1)[0])

    def _build_trials(self):
        epr, eraser, states = self.epr, self.eraser, self.states
        self.a_spin, self.b_spin = epr.a_spin(), epr.b_spin()
        epr_record = epr.build_epr_universe(with_record=True).subsystem("bob_record")
        self.epr_record = epr_record
        self.epr_record_obs = states.label_observable(epr_record, name="bob_record")
        signal_record = eraser.build_eraser_universe(True, record=True).subsystem("signal_record")
        self.signal_record = signal_record
        self.signal_record_obs = states.label_observable(signal_record, name="signal_record")
        self.path_obs, self.detector_obs = eraser.path_observable(), eraser.detector_observable()

    def _make_state(self, gen, shape, support=None):
        """A random state as (dense amplitudes, program StateVector)."""
        np, states = self.np, self.states
        subs = [
            states.Subsystem(f"s{i}", tuple(f"l{j}" for j in range(n)))
            for i, n in enumerate(shape)
        ]
        amps = gen.uniform(-1, 1, shape) + 1j * gen.uniform(-1, 1, shape)
        if support is not None:
            amps = amps * support
        terms = [
            (tuple(s.labels[k] for s, k in zip(subs, idx)), complex(amps[idx]))
            for idx in np.ndindex(*shape)
            if amps[idx] != 0
        ]
        return subs, amps, states.make_state(subs, terms)

    def _observable(self, sub, degenerate: bool):
        """(program Observable, outcome class -> labels)."""
        if degenerate:
            classes = {"merged": sub.labels[:2], sub.labels[2]: (sub.labels[2],)}
            return self.states.Observable(sub, classes, name=f"{sub.name}_deg"), classes
        classes = {lab: (lab,) for lab in sub.labels}
        return self.states.label_observable(sub), classes

    def _build_joints(self, gen):
        self.joint_pool = []
        for shape, n_degenerate, sparse in JOINT_SHAPES:
            support = None
            if sparse:
                support = (gen.random(shape) >= 1 / 3).astype(float)
                support.flat[gen.integers(support.size)] = 1.0
            subs, amps, state = self._make_state(gen, shape, support)
            three = [i for i, n in enumerate(shape) if n == 3]
            degenerate = set(gen.permutation(three)[:n_degenerate].tolist())
            order = gen.permutation(len(shape)).tolist()
            program_obs, spec = [], []
            for i in order:
                obs, classes = self._observable(subs[i], i in degenerate)
                program_obs.append(obs)
                spec.append((i, classes))
            dense = self.oracles.DenseState([s.labels for s in subs], amps)
            self.joint_pool.append((state, program_obs, spec, dense))

    def _build_history(self, gen):
        np, events = self.np, self.events
        size = int(np.prod(HISTORY_SHAPE))
        support = np.zeros(size)
        support[gen.choice(size, HISTORY_TERMS, replace=False)] = 1.0
        subs, amps, state = self._make_state(gen, HISTORY_SHAPE, support.reshape(HISTORY_SHAPE))
        self.history_state = state
        self.history_dense = self.oracles.DenseState([s.labels for s in subs], amps)
        self.history_subs = subs
        observables = {}
        for i, s in enumerate(subs):
            observables[(i, False)] = self._observable(s, False)
            if len(s.labels) == 3:
                observables[(i, True)] = self._observable(s, True)
        # Round-robin over the observers still observing. The universe clock
        # ticks once per observation, so step j happens at clock j; it dates
        # its fact to a time from 0 to min(j, 23), never after it happens.
        schedule = []
        remaining = list(HISTORY_LENGTHS)
        last = [None] * len(remaining)
        while any(remaining):
            for k in range(len(remaining)):
                if not remaining[k]:
                    continue
                remaining[k] -= 1
                j = len(schedule)
                if last[k] is not None and gen.random() < 0.1:
                    key = last[k]  # an immediate repeat
                else:
                    i = int(gen.integers(len(subs)))
                    key = (i, len(subs[i].labels) == 3 and gen.random() < 0.3)
                last[k] = key
                t_hap = int(gen.integers(0, min(j, HISTORY_T_HAPPENED_SLOTS - 1) + 1))
                schedule.append((k, key, t_hap))
        self.history_observables = observables
        self.history_schedule = schedule
        self.history_calls = [(k, observables[key][0], t_hap) for k, key, t_hap in schedule]
        horizon = len(schedule) + 2
        plan = []
        for k in range(len(HISTORY_LENGTHS)):
            slots = sorted({(key[0], t) for kk, key, t in schedule if kk == k})
            for i, t_hap in slots:
                for label in subs[i].labels:
                    prop = events.Proposition(subs[i].name, label, t_hap)
                    for q in range(0, horizon, self.size["truth_stride"]):
                        plan.append((k, prop, q))
        self.truth_plan = plan

    # --- units of work: each returns (operations, result) ----------------

    def epr_trials(self, r: int, order: str, stream: int):
        n = self.size["trials"]
        return n, self.epr.run_epr(order, n, self.round_seed(r, stream))

    def pair_trials(self, r: int):
        n = self.size["trials"]
        return n, self.epr.run_partial_pair(n, self.round_seed(r, 3))

    def communicate_trials(self, r: int):
        """Fresh EPR (record entangled before or after the asker's own
        measurement) and eraser (beam splitter in or out) universes; the
        asker then asks for the partner's record."""
        epr, n = self.epr, self.size["trials"]
        stream = self.rng.RngStream(self.round_seed(r, 4))
        replies = []
        a_spin, b_spin = self.a_spin, self.b_spin
        for i in range(n):
            kind = i % 4
            if kind < 2:
                u = epr.build_epr_universe(with_record=True)
                alice = u.register_observer("alice")
                if kind == 0:
                    u.entangle_step(b_spin, self.epr_record, {"+": "+", "-": "-"})
                    mine = u.observe(alice, a_spin, stream)
                else:
                    mine = u.observe(alice, a_spin, stream)
                    u.entangle_step(b_spin, self.epr_record, {"+": "+", "-": "-"})
                reply = u.communicate(alice, self.epr_record_obs, stream)
            else:
                u = self.eraser.build_eraser_universe(kind == 2, record=True)
                alice = u.register_observer("alice")
                u.entangle_step(self.path_obs, self.signal_record, {"U": "U", "L": "L"})
                mine = u.observe(alice, self.detector_obs, stream)
                reply = u.communicate(alice, self.signal_record_obs, stream)
            replies.append((kind, mine, reply))
        return n, replies

    def joint_pass(self):
        """Both of hangon's routes to the exact joint of every pool state."""
        seq, born = self.analysis.sequential_joint_distribution, self.analysis.born_joint_distribution
        out = [(seq(state, observables), born(state, observables)) for state, observables, _, _ in self.joint_pool]
        return 2 * len(out), out

    def history_start(self, r: int, h: int):
        """A fresh universe over the history state with its observers."""
        u = self.engine.Universe(self.history_state)
        observers = [u.register_observer(f"o{k}") for k in range(len(HISTORY_LENGTHS))]
        return u, observers, [], self.rng.RngStream(self.round_seed(r, 10 + h))

    def history_segment(self, unit, lo: int, hi: int):
        u, observers, outcomes, stream = unit
        for k, obs, t in self.history_calls[lo:hi]:
            outcomes.append(u.observe(observers[k], obs, stream, t_happened=t))
        return hi - lo, None

    def truth_segment(self, unit, lo: int, hi: int):
        ledgers = [o.ledger for o in unit[1]]
        return hi - lo, [ledgers[k].truth_value(prop, q) for k, prop, q in self.truth_plan[lo:hi]]

    def eraser_run(self, r: int, bs: bool, perspective: str):
        eraser = self.eraser
        stream = 20 + 2 * (not bs) + eraser.PERSPECTIVES.index(perspective)
        cfg = eraser.EraserConfig(bs, perspective, self.size["photons"], self.screen,
                                  self.round_seed(r, stream))
        return cfg.n_photons, eraser.run_eraser(cfg)

    def screen_hits(self, r: int):
        n, g = self.size["hits"], self.screen
        hits = self.geometry.sample_screen_hits(g, n, self.rng.RngStream(self.round_seed(r, 30)))
        return n, self.fringes.histogram_from_positions(g, hits)

    def no_signaling(self, r: int):
        draws = self.rng.RngStream(self.round_seed(r, 31))
        geometry, check = self.geometry, self.eraser.no_signaling_check
        return 0, [check(geometry.random_geometry(draws.derive(i))) for i in range(self.size["geometries"])]

    def ops_per_round(self) -> int:
        s = self.size
        return (
            4 * s["trials"]
            + 2 * s["joint_passes"] * len(self.joint_pool)
            + s["histories"] * (len(self.history_calls) + len(self.truth_plan))
            + 5 + s["geometries"]
        )

    def observes_per_round(self) -> int:
        """engine.observe calls a round's schedule implies: two per sampled
        trial (the communicate reply is an observe), two forced steps in each
        analytic walk inside run_epr and run_partial_pair, one per positive
        prefix of every exact joint, one per history step; none in the
        eraser phase."""
        s = self.size
        joints = sum(dense.positive_prefixes(spec) for _, _, spec, dense in self.joint_pool)
        return 2 * 4 * s["trials"] + 3 * 2 + s["joint_passes"] * joints + s["histories"] * len(self.history_calls)

    # --- checks -----------------------------------------------------------

    def check_trials(self, results):
        ok = self.fail.check
        runs, replies = results
        for run in runs[:2]:
            ok(run.same_sign_count == 0, f"EPR {run.order}: {run.same_sign_count} same-sign outcomes")
            self._tally(f"epr:{run.order}", run.counts)
        pair = runs[2]
        y_b = pair.counts[("Y", "b")]
        ok(self.oracles.within_sigmas(y_b, pair.n, self.oracles.PAIR_P_Y_B), f"eq9: (Y,b) fired {y_b} times")
        self._tally("eq9", pair.counts)
        allowed = self.oracles.ERASER_PATHS
        for kind, mine, reply in replies:
            if kind < 2:
                good = reply == ("-" if mine == "+" else "+")
            else:
                good = reply in allowed[kind == 2][mine]
            ok(good, f"communicate kind {kind}: reply {reply!r} conflicts with {mine!r}")

    def _tally(self, key, counts):
        acc = self.sample_counts.setdefault(key, {})
        for pair, c in counts.items():
            acc[pair] = acc.get(pair, 0) + c

    def check_joints(self, results):
        ok = self.fail.check
        for n, (seq, born) in enumerate(results):
            _, _, spec, dense = self.joint_pool[n % len(self.joint_pool)]
            expected = dense.joint(spec)
            for name, got in (("sequential", seq), ("born", born)):
                err = max(abs(got.get(k, 0.0) - p) for k, p in expected.items())
                ok(set(got) <= set(expected) and err <= ANALYTIC_TOL,
                   f"{name} joint of pool state {n % len(self.joint_pool)} off by {err:.3e}")
                ok(abs(sum(got.values()) - 1.0) <= ANALYTIC_TOL, f"{name} joint does not sum to 1")

    def check_history(self, units, answers):
        ok = self.fail.check
        Truth = self.events.Truth
        subs, dense = self.history_subs, self.history_dense
        for (u, observers, outcomes, _), truths in zip(units, answers):
            allowed = [[set(s.labels) for s in subs] for _ in observers]
            first = [{} for _ in observers]  # (sub, t_hap) -> (t_determined, label) of fine records
            mixed = [set() for _ in observers]  # slots that a degenerate record touched
            for j, ((k, key, t_hap), outcome) in enumerate(zip(self.history_schedule, outcomes)):
                i, degenerate = key
                classes = self.history_observables[key][1]
                possible = [c for c, labels in classes.items() if allowed[k][i] & set(labels)]
                if len(possible) == 1:
                    ok(outcome == possible[0], f"history step {j}: repeat gave {outcome!r}, not {possible[0]!r}")
                allowed[k][i] &= set(classes[outcome])
                ok(bool(allowed[k][i]), f"history step {j}: outcome {outcome!r} contradicts the path")
                slot = (subs[i].name, t_hap)
                if degenerate:
                    mixed[k].add(slot)
                else:
                    first[k].setdefault(slot, (j, outcome))
            for k, o in enumerate(observers):
                product = 1.0
                for entry in u.trace:
                    if entry.observer == o.id:
                        product *= entry.probability
                weight = dense.weight(allowed[k])
                ok(abs(product - weight) <= 1e-9 * max(weight, 1e-300),
                   f"observer {o.id}: trace product {product:.6e} vs Born weight {weight:.6e}")
            for (k, prop, q), got in zip(self.truth_plan, truths):
                slot = (prop.subsystem, prop.t_happened)
                if slot in mixed[k] or slot not in first[k]:
                    continue  # degenerate slots: truth can revert there (see CHANGES.md)
                t_det, label = first[k][slot]
                if q < t_det:
                    want = Truth.INDEFINITE
                else:
                    want = Truth.TRUE if prop.outcome == label else Truth.FALSE
                ok(got is want, f"ledger {k}: {prop} at t={q} is {got}, expected {want}")

    def check_eraser(self, results, first_round: bool):
        ok = self.fail.check
        runs, hist, residuals = results
        n = self.size["photons"]
        for run in runs:
            cfg = run.config
            tag = f"eraser bs={cfg.bs_present} {cfg.perspective}"
            ok(int(run.joint_counts.sum()) == n, f"{tag}: joint counts total {run.joint_counts.sum()}")
            ok(run.histograms["total"].total == n, f"{tag}: histogram total {run.histograms['total'].total}")
            dets = [run.detector_counts[d] for d in self.eraser.DETECTORS]
            ok(sum(dets) == n, f"{tag}: detector counts total {sum(dets)}")
            ok(all(run.histograms[d].total == c for d, c in zip(self.eraser.DETECTORS, dets)),
               f"{tag}: per-detector histograms disagree with detector counts")
            acc = self.detector_counts[cfg.bs_present]
            for d in range(4):
                acc[d] += dets[d]
        ok(hist.total == self.size["hits"], f"double slit: histogram total {hist.total}")
        worst = max(residuals)
        ok(worst <= NO_SIGNALING_TOL, f"no-signaling residual {worst:.3e}")
        if first_round:
            self.chi2_samples = {bs: (runs[2 * b].joint_counts, runs[2 * b + 1].joint_counts)
                                 for b, bs in enumerate((True, False))}

    def final_checks(self):
        ok, o = self.fail.check, self.oracles
        for order in ("alice_first", "bob_record_first"):
            c = self.sample_counts[f"epr:{order}"]
            n = sum(c.values())
            ok(o.within_sigmas(c[("+", "-")], n, o.EPR_P_ANTI, SIGMAS), f"EPR {order}: P(+-) off 1/2")
        c = self.sample_counts["eq9"]
        n = sum(c.values())
        n_x = c[("X", "a")] + c[("X", "b")]
        ok(o.within_sigmas(n_x, n, o.PAIR_P_X, SIGMAS), f"eq9: P(X)={n_x / n:.5f} off 2/3")
        ok(o.within_sigmas(c[("X", "a")], n_x, o.PAIR_P_A_GIVEN_X, SIGMAS), "eq9: P(a|X) off 1/2")
        g = self.screen
        overlap = o.slit_overlap(self.np.asarray(g.screen_positions, dtype=float), g.slit_upper,
                                 g.slit_lower, g.wavenumber, g.screen_distance)
        for bs, counts in self.detector_counts.items():
            n = sum(counts)
            want = o.eraser_detector_frequencies(bs, overlap)
            for d, c in zip(self.eraser.DETECTORS, counts):
                ok(o.within_sigmas(c, n, want[d], SIGMAS), f"eraser bs={bs}: {d} at {c / n:.5f}, want {want[d]:.5f}")
            if bs:
                ok(o.within_sigmas(counts[0] + counts[1], n, 0.5, SIGMAS), "eraser: D1+D2 off 1/2")
        self._check_perspectives()

    def _check_perspectives(self):
        """Two-sample chi-square between idler-first and signal-first joint
        counts of the first round. On a correct program one seed in a
        thousand per setting falls below p = 0.001, so such a sample is
        redrawn once from an independent stream; a real difference between
        the perspectives fails both draws."""
        eraser, chi2 = self.eraser, self.oracles.two_sample_chi_square_p
        for b, bs in enumerate((True, False)):
            p = chi2(*self.chi2_samples[bs])
            if p < CHI2_MIN_P:
                retest = []
                for q, perspective in enumerate(eraser.PERSPECTIVES):
                    cfg = eraser.EraserConfig(bs, perspective, self.size["photons"], self.screen,
                                              self.round_seed(RETEST_ROUND, 2 * b + q))
                    retest.append(eraser.run_eraser(cfg).joint_counts)
                p = chi2(*retest)
            self.fail.check(p >= CHI2_MIN_P, f"eraser bs={bs}: perspectives differ, chi-square p={p:.2e}")


def _reference_job() -> float:
    """Fixed pure-Python work shaped like the engine's: tuple-keyed dicts of
    complex amplitudes, filtered and summed. Its duration tracks the speed
    the host gives this process at the moment."""
    terms = {(str(i % 7), str(i % 5), str(i % 3)): complex(i, 1.0) for i in range(210)}
    total = 0.0
    for k in range(160):
        kept = {key: a for key, a in terms.items() if key[k % 3] != "0"}
        total += math.fsum(a.real * a.real + a.imag * a.imag for a in kept.values())
    return total


def _reference_seconds() -> float:
    t = time.perf_counter()
    _reference_job()
    return time.perf_counter() - t


class Timeline:
    """Times units of work, running the reference job between every two.

    A unit's reference-speed time is its duration scaled by
    REF_NOMINAL_S / (mean of the reference runs just before and after it).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.refs = [_reference_seconds()]
        # phase -> [operations, seconds, reference-speed seconds]
        self.phases = {phase: [0, 0.0, 0.0] for phase in PHASES}

    def unit(self, phase: str, fn, *args):
        with self.tracer.span(f"bench.{phase}") if self.tracer else nullcontext():
            t = time.perf_counter()
            n, result = fn(*args)
            dt = time.perf_counter() - t
        self.refs.append(_reference_seconds())
        acc = self.phases[phase]
        acc[0] += n
        acc[1] += dt
        acc[2] += dt * REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2.0)
        return result


def _segments(n: int, parts: int = SEGMENTS):
    edges = [n * i // parts for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def run_round(bench: Bench, r: int, tracer=None) -> Timeline:
    """One whole round, timed unit by unit, then checked."""
    tl = Timeline(tracer)
    unit = tl.unit
    trials = (
        (unit("trials", bench.epr_trials, r, "alice_first", 1),
         unit("trials", bench.epr_trials, r, "bob_record_first", 2),
         unit("trials", bench.pair_trials, r)),
        unit("trials", bench.communicate_trials, r),
    )
    joints = [res for _ in range(bench.size["joint_passes"]) for res in unit("joints", bench.joint_pass)]
    units = []
    for h in range(bench.size["histories"]):
        units.append(bench.history_start(r, h))
        for lo, hi in _segments(len(bench.history_calls)):
            unit("history", bench.history_segment, units[-1], lo, hi)
    answers = []
    for u in units:
        answers.append([])
        for lo, hi in _segments(len(bench.truth_plan)):
            answers[-1].extend(unit("truth", bench.truth_segment, u, lo, hi))
    erased = (
        [unit("eraser", bench.eraser_run, r, bs, p) for bs in (True, False) for p in bench.eraser.PERSPECTIVES],
        unit("eraser", bench.screen_hits, r),
        unit("eraser", bench.no_signaling, r),
    )

    bench.check_trials(trials)
    bench.check_joints(joints)
    bench.check_history(units, answers)
    bench.check_eraser(erased, first_round=(r == 0))
    return tl


def per_layer_metrics(table, bench: Bench, traced_rounds: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds."""
    us, ms, ns = 1e6, 1e3, 1e9
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for fn in ("make_state", "tensor", "project", "premeasure", "outcome_probability"):
        name = f"states.{fn}"
        put(f"{name}.us_per_call", table.mean(name) * us, "us")
        put(f"{name}.calls_per_round", table.calls(name) / traced_rounds, "count")
        put(f"{name}.terms_per_call", table.mean(name, "aux"), "count")
    bounds = (("depth_1", 0, 10), ("depth_10", 10, 100), ("depth_100", 100, 400), ("depth_400", 400, 10**9))
    for label, lo, hi in bounds:
        put(f"engine.observe.us_per_call.{label}",
            table.mean("engine.observe", where=lambda d, lo=lo, hi=hi: (d >= lo) & (d < hi)) * us, "us")
    put("engine.observe.calls_per_round", table.calls("engine.observe") / traced_rounds, "count")
    for fn in ("conditional_state", "branch_probabilities", "entangle_step", "force_observe"):
        put(f"engine.{fn}.us_per_call", table.mean(f"engine.{fn}") * us, "us")
    trials = traced_rounds * 4 * bench.size["trials"]
    put("engine.universes_per_trial", table.calls("engine.Universe", "bench.trials") / trials, "count")
    put("events.record.us_per_call", table.mean("events.record") * us, "us")
    put("events.truth_value.us_per_call", table.mean("events.truth_value") * us, "us")
    for length in HISTORY_LENGTHS:
        put(f"events.truth_value.us_per_call.len_{length}",
            table.mean("events.truth_value", where=lambda a, n=length: a == n) * us, "us")
    put("rng.random.ns_per_draw", table.mean("rng.random") * ns, "ns")
    put("rng.draws_per_trial", table.calls("rng.random", "bench.trials") / trials, "count")
    for fn in ("randoms", "sample_indices"):
        name = f"rng.{fn}"
        put(f"{name}.ns_per_draw", table.total(name) / table.total(name, "aux") * ns, "ns")
    for fn in ("sequential_joint_distribution", "born_joint_distribution"):
        put(f"analysis.{fn}.ms_per_state", table.mean(f"analysis.{fn}") * ms, "ms")
    put("analysis.combinations_per_state", table.mean("analysis.sequential_joint_distribution", "aux"), "count")
    for fn in ("run_epr", "run_partial_pair"):
        name = f"scenarios.epr.{fn}"
        put(f"{name}.self_us_per_trial", table.total(name, "self") / table.total(name, "aux") * us, "us")
    for name in ("scenarios.eraser.joint_density", "scenarios.eraser.d0_marginal_density",
                 "scenarios.eraser.detector_conditional_given_bin", "scenarios.geometry.slit_wave_arrays",
                 "scenarios.fringes.histogram_from_positions"):
        put(f"{name}.ms_per_call", table.mean(name) * ms, "ms")
    name = "scenarios.eraser.run_eraser"
    put(f"{name}.self_ns_per_photon", table.total(name, "self") / table.total(name, "aux") * ns, "ns")
    name = "scenarios.geometry.sample_screen_hits"
    put(f"{name}.ns_per_hit", table.total(name) / table.total(name, "aux") * ns, "ns")
    put("trace.overhead", overhead, "ratio")
    return m


def span_summary(table) -> dict:
    out = {}
    for name, i in sorted(table.ids.items()):
        mask = table.names == i
        out[name] = {
            "calls": int(mask.sum()),
            "total_s": float(table.dur[mask].sum()),
            "self_s": float(table.self_time[mask].sum()),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hangon", "__init__.py")):
        print(f"perfbench: no hangon source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    bench = Bench(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    warm = run_round(bench, 0)  # lazy imports and first-call paths; checked, not timed
    refs = list(warm.refs)
    rounds = []  # (traced, {phase: [operations, seconds, reference-speed seconds]})
    attempted = 0
    expected_observes = bench.observes_per_round() if tracer else None
    start = time.perf_counter()
    r = 0
    while True:
        r += 1
        traced = tracer is not None and r % 2 == 0
        if traced:
            tracer.install()
            lo = tracer.mark()
        try:
            tl = run_round(bench, r, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            seen = tracer.count("engine.observe", lo)
            bench.fail.check(seen == expected_observes,
                             f"round {r}: traced {seen} engine.observe calls, schedule implies {expected_observes}")
        attempted += bench.ops_per_round()
        refs.extend(tl.refs)
        rounds.append((traced, tl.phases))
        if time.perf_counter() - start >= args.seconds and (tracer is None or r >= 2):
            break
    bench.final_checks()

    untraced = [phases for traced, phases in rounds if not traced]
    raw_rates = {RATE_OF_PHASE[p]: statistics.median(ph[p][0] / ph[p][1] for ph in untraced) for p in PHASES}
    if tracer is None:
        metrics = {RATE_OF_PHASE[p]: statistics.median(ph[p][0] / ph[p][2] for ph in untraced) for p in PHASES}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END.items()}
        detail = {}
    else:
        table = tracer.table()
        round_time = {t: statistics.median(sum(v[2] for v in ph.values()) for tr, ph in rounds if tr == t)
                      for t in (False, True)}
        metrics = per_layer_metrics(table, bench, sum(1 for t, _ in rounds if t), round_time[True] / round_time[False])
        detail = {"spans": span_summary(table), "span_count": len(table.dur),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    correct = not bench.fail.items
    result = {"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    report = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  setup_wall_s=setup_s, reference_median_s=statistics.median(refs), wall_clock_rates=raw_rates,
                  rounds=[{"traced": t, "phases": ph} for t, ph in rounds],
                  check_failures=bench.fail.items[:50], **detail)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    for name, v in metrics.items():
        print(f"{name:60s} {v['value']:.6g} {v['unit']}")
    for item in bench.fail.items[:20]:
        print(f"CHECK FAILED: {item}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
