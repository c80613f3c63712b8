"""Command-line harness: run scenarios, export traces, verify.

Subcommands:
  run {eraser,epr,eq9,double-slit}  sample a scenario, write data + report
  verify {all,fast}                 run the verification suite
  trace {needle,eraser,empty}       export a branch trace / ledger demo

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
All randomness flows from --seed; data files and reports are byte-identical
for identical seed and config.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NotFarField, SimulationError, SingularPoint
from .scenarios import (
    DETECTORS,
    ORDERS,
    PERSPECTIVES,
    EraserConfig,
    fringe_extrema,
    geometry_from_config,
    histogram_from_positions,
    momentum_detector_probabilities,
    no_signaling_check,
    run_empty_trace,
    run_epr,
    run_eraser,
    run_eraser_trace,
    run_needle_narrative,
    run_partial_pair,
    sample_screen_hits,
    screen_density,
    screen_visibility,
)
from .rng import RngStream
from .verify import DEFAULT_MASTER_SEED, run_suite

@dataclass
class RunReport:
    """Config echo, analytic vs sampled values, and named invariant checks."""

    scenario: str
    config: dict
    analytic: dict = field(default_factory=dict)
    sampled: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add_check(self, name: str, invariant: str, passed: bool) -> None:
        self.checks.append({"name": name, "invariant": invariant, "passed": bool(passed)})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "passed": self.passed}, sort_keys=True, indent=2)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: line {e.lineno}: {e.msg}")
    except (OSError, ValueError) as e:
        # Unreadable paths (directories, permissions), bytes that are not
        # UTF-8, integer literals past the digit limit.
        raise ConfigError(f"config file {path}: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    return doc


def _require_int(name: str, value, minimum: int) -> int:
    """``value`` if it is a JSON integer (a bool is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {name!r}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"field {name!r}: must be >= {minimum}, got {value}")
    return value


def _require_seed(value) -> int:
    """A seed for ``run``, ``verify`` or ``trace``: an integer in [0, 2**64)."""
    seed = _require_int("seed", value, 0)
    if seed >= 2**64:
        raise ConfigError(f"field 'seed': must be < 2**64, got {seed}")
    return seed


def _geometry(geo_cfg, given: dict):
    """Screen geometry from the ``geometry`` field, checked by
    ``geometry_from_config``. A ``bins`` in ``given`` (a flag or a top-level
    field) must agree with ``geometry.bins`` when both are given."""
    if not isinstance(geo_cfg, dict):
        raise ConfigError(f"field 'geometry': expected an object, got {geo_cfg!r}")
    if "bins" in given:
        bins = _require_int("bins", given["bins"], 2)
        geo_cfg = {"bins": bins, **geo_cfg}
        if geo_cfg["bins"] != bins:
            raise ConfigError(
                f"field 'bins' is {bins} but field 'geometry.bins' is {geo_cfg['bins']!r}"
            )
    try:
        return geometry_from_config(geo_cfg)
    except ValueError as e:
        raise ConfigError(str(e))


# The fields each `run` scenario reads, with their defaults; ``bins`` and
# ``geometry`` default to the geometry's own. A report echoes exactly these.
_READS = {
    "eraser": {
        "bs_present": True, "perspective": "idler_first", "n": 100_000, "seed": 0,
        "bins": None, "geometry": {},
    },
    "epr": {"order": "alice_first", "n": 10_000, "seed": 0},
    "eq9": {"n": 30_000, "seed": 0},
    "double-slit": {"n": 100_000, "seed": 0, "bins": None, "geometry": {}},
}
# The fields each `trace` story reads, with their defaults.
_TRACE_READS = {"needle": {"seed": 0}, "eraser": {"seed": 0, "bs_present": True}, "empty": {}}
# The field each flag sets, for `run` and `trace` alike.
_FLAG_FIELDS = {
    "bs": "bs_present", "perspective": "perspective", "order": "order",
    "n": "n", "seed": "seed", "bins": "bins",
}
# The scenarios that write a counts file, in the format `--out` names.
_COUNTS = ("epr", "eq9")


def _settings(reads: dict, config: dict, args, reader: str) -> dict:
    """The row ``reads``'s defaults, then the config file's fields, then the
    flags given, checked. A field or flag outside the row is refused by
    name: a flag as it was spelt."""
    unread = sorted(set(config) - set(reads))
    if unread:
        raise ConfigError(f"field {unread[0]!r}: {reader} does not read it")
    given = dict(config)
    for flag, name in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if name not in reads:
            spelt = "--no-bs" if value is False else f"--{flag}"
            raise ConfigError(f"flag {spelt!r}: {reader} does not read it")
        given[name] = value.replace("-", "_") if isinstance(value, str) else value
    settings = {**reads, **given}
    if "n" in settings:
        _require_int("n", settings["n"], 1)
    if "seed" in settings:
        _require_seed(settings["seed"])
    if not isinstance(settings.get("bs_present", False), bool):
        raise ConfigError(
            f"field 'bs_present': expected true or false, got {settings['bs_present']!r}"
        )
    if "geometry" in settings:
        settings["geometry"] = _geometry(settings["geometry"], given)
        settings["bins"] = len(settings["geometry"].screen_positions)
    return settings


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _histogram_csv(edges: np.ndarray, columns: dict) -> str:
    """One row per screen bin: its edges, then one count per named column."""
    lines = ["bin_left,bin_right," + ",".join(columns)]
    for j in range(len(edges) - 1):
        cells = [f"{edges[j]:.17g}", f"{edges[j + 1]:.17g}"]
        cells += [str(int(counts[j])) for counts in columns.values()]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# Each scenario fills in its report from the checked settings and returns
# the data files to write, by file name; cmd_run adds the report file.


def _run_eraser(report: RunReport, s: dict, out_format: str) -> dict:
    geometry = s["geometry"]
    run = run_eraser(EraserConfig(s["bs_present"], s["perspective"], s["n"], geometry, s["seed"]))
    report.analytic = {
        "detector_marginals": {d: 0.25 for d in DETECTORS},
        "no_signaling_residual": no_signaling_check(geometry),
    }
    report.sampled = {"detector_counts": run.detector_counts}
    report.add_check(
        "no_signaling",
        "screen marginal identical with and without the beam splitter",
        report.analytic["no_signaling_residual"] <= 1e-12,
    )
    report.add_check(
        "photon_conservation",
        "histogram totals equal the photon count",
        run.histograms["total"].total == s["n"],
    )
    columns = {f"count_{d}": run.joint_counts[i] for i, d in enumerate(DETECTORS)}
    columns["count_total"] = run.joint_counts.sum(axis=0)
    return {"eraser_hist.csv": _histogram_csv(geometry.bin_edges, columns)}


def _counts_run(report: RunReport, run, out_format: str) -> dict:
    """Report values and counts file shared by the sampled pair scenarios."""
    report.analytic = {f"{a}{b}": p for (a, b), p in sorted(run.analytic.items())}
    counts = {f"{a}{b}": int(v) for (a, b), v in sorted(run.counts.items())}
    report.sampled = {"counts": counts}
    if out_format == "csv":
        payload = "outcome,count\n" + "".join(f"{k},{v}\n" for k, v in counts.items())
    else:
        payload = json.dumps(counts, sort_keys=True, indent=2) + "\n"
    return {f"{report.scenario}_counts.{out_format}": payload}


def _run_epr(report: RunReport, s: dict, out_format: str) -> dict:
    run = run_epr(s["order"], s["n"], s["seed"])
    report.add_check(
        "anticorrelation",
        "no same-sign joint outcomes in any run",
        run.same_sign_count == 0,
    )
    return _counts_run(report, run, out_format)


def _run_eq9(report: RunReport, s: dict, out_format: str) -> dict:
    run = run_partial_pair(s["n"], s["seed"])
    report.add_check(
        "empty_branch_never_fires",
        "the unsupported joint outcome (Y,b) never occurs",
        run.counts[("Y", "b")] == 0,
    )
    return _counts_run(report, run, out_format)


def _run_double_slit(report: RunReport, s: dict, out_format: str) -> dict:
    geometry = s["geometry"]
    # The analytic values first, so a geometry they refuse is refused
    # before anything is sampled.
    maxima, minima = fringe_extrema(geometry)
    p_up, p_low = momentum_detector_probabilities(geometry)
    density = screen_density(geometry)
    hist = histogram_from_positions(
        geometry, sample_screen_hits(geometry, s["n"], RngStream(s["seed"]))
    )
    v_analytic, v_sampled, se = screen_visibility(geometry, maxima, minima, density, hist.counts)
    report.analytic = {
        "visibility": v_analytic,
        "n_extrema": len(maxima) + len(minima),
        "momentum_probabilities": [p_up, p_low],
    }
    report.sampled = {"visibility": v_sampled, "visibility_se": se}
    report.add_check(
        "visibility",
        "sampled fringe visibility within 3 standard errors of analytic",
        abs(v_sampled - v_analytic) <= 3 * se,
    )
    csv = _histogram_csv(geometry.bin_edges, {"count": hist.counts})
    return {"double_slit_hist.csv": csv}


_SCENARIOS = {
    "eraser": _run_eraser,
    "epr": _run_epr,
    "eq9": _run_eq9,
    "double-slit": _run_double_slit,
}


def cmd_run(args) -> int:
    # Everything the run reads is checked before anything is sampled or written.
    config = _load_config(args.config)
    declared = config.pop("scenario", args.scenario)
    if declared != args.scenario:
        raise ConfigError(f"config file is for scenario {declared!r}, not {args.scenario!r}")
    reader = f"scenario {args.scenario!r}"
    if args.out is not None and args.scenario not in _COUNTS:
        raise ConfigError(f"flag '--out': {reader} does not read it")
    settings = _settings(_READS[args.scenario], config, args, reader)
    report = RunReport(scenario=args.scenario, config={"scenario": args.scenario, **settings})
    if "geometry" in settings:
        report.config["geometry"] = settings["geometry"].to_config()
    try:
        files = _SCENARIOS[args.scenario](report, settings, args.out or "json")
    except (NotFarField, SingularPoint) as e:
        # A geometry the scenario cannot use is a config error, not a failed check.
        raise ConfigError(f"field 'geometry': {e}")
    files[f"{args.scenario.replace('-', '_')}_report.json"] = report.to_json() + "\n"
    for name, text in files.items():
        _write(Path(args.out_dir) / name, text)
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    report = run_suite(args.suite, master_seed=_require_seed(args.seed))
    print(report.format_table())
    if args.report is not None:
        _write(Path(args.report), report.to_canonical_json() + "\n")
    return 0 if report.passed else 1


def cmd_trace(args) -> int:
    s = _settings(_TRACE_READS[args.scenario], {}, args, f"trace story {args.scenario!r}")
    if args.scenario == "empty":
        universe, ledger = run_empty_trace(), ""
    else:
        if args.scenario == "needle":
            story = run_needle_narrative(s["seed"])
        else:
            story = run_eraser_trace(s["seed"], bs_present=s["bs_present"])
        universe, ledger = story.universe, story.ledger.to_json_lines()
    trace = universe.trace_json()
    payload = trace + ("\n" if trace else "")
    if args.out is not None:
        _write(Path(args.out), payload)
        if ledger:
            _write(Path(args.out).with_suffix(".ledger.jsonl"), ledger + "\n")
    sys.stdout.write(payload if payload else "(root-only trace)\n")
    if ledger:
        print("--- ledger ---")
        print(ledger)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hangon",
        description="Observer-relative quantum measurement simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sample a scenario and write data files")
    run_p.add_argument("scenario", choices=list(_SCENARIOS))
    run_p.add_argument("--bs", action=argparse.BooleanOptionalAction, default=None,
                       help="beam splitter present (--bs / --no-bs)")
    for key, values in (("perspective", PERSPECTIVES), ("order", ORDERS)):
        run_p.add_argument(f"--{key}", choices=sorted(v.replace("_", "-") for v in values), default=None)
    run_p.add_argument("--n", type=int, default=None, help="number of runs/photons")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--bins", type=int, default=None, help="screen bins")
    run_p.add_argument("--out", choices=["csv", "json"], default=None,
                       help="format of the counts artifact (epr, eq9; default json)")
    run_p.add_argument("--config", default=None, help="JSON config file")
    run_p.add_argument("--out-dir", default=".", help="output directory")
    run_p.set_defaults(fn=cmd_run)

    verify_p = sub.add_parser("verify", help="run the verification suite")
    verify_p.add_argument("suite", choices=["all", "fast"])
    verify_p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed")
    verify_p.add_argument("--report", default=None, help="write the canonical report here")
    verify_p.set_defaults(fn=cmd_verify)

    trace_p = sub.add_parser("trace", help="export a branch trace")
    trace_p.add_argument("scenario", choices=list(_TRACE_READS))
    trace_p.add_argument("--seed", type=int, default=None)
    trace_p.add_argument("--bs", action=argparse.BooleanOptionalAction, default=None)
    trace_p.add_argument("--out", default=None, help="write the trace here")
    trace_p.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except SimulationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
