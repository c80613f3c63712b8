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

from .errors import ConfigError, SimulationError
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


def _merged_settings(args, config: dict) -> dict:
    """Flags override config-file entries; both override defaults."""
    declared = config.get("scenario")
    if declared is not None and declared != args.scenario:
        raise ConfigError(
            f"config file is for scenario {declared!r}, not {args.scenario!r}"
        )
    merged = dict(config)
    for key in ("n", "seed", "bins"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "bs", None) is not None:
        merged["bs_present"] = args.bs
    for key in ("perspective", "order"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value.replace("-", "_")
    return merged


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


def _geometry(settings: dict):
    """Screen geometry from the ``geometry`` field, checked by
    ``geometry_from_config``. A ``bins`` flag or top-level field must agree
    with ``geometry.bins`` when both are given."""
    geo_cfg = settings.get("geometry", {})
    if not isinstance(geo_cfg, dict):
        raise ConfigError(f"field 'geometry': expected an object, got {geo_cfg!r}")
    geo_cfg = dict(geo_cfg)
    if "bins" in settings:
        bins = _require_int("bins", settings["bins"], 2)
        if geo_cfg.setdefault("bins", bins) != bins:
            raise ConfigError(
                f"field 'bins' is {bins} but field 'geometry.bins' is {geo_cfg['bins']!r}"
            )
    try:
        return geometry_from_config(geo_cfg)
    except ValueError as e:
        raise ConfigError(str(e))


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


def _counts_payload(counts: dict) -> dict:
    return {f"{a}{b}": int(v) for (a, b), v in sorted(counts.items())}


# Each scenario maps (settings, seed, counts format) to its report and the
# data files to write, by file name; cmd_run adds the report file.


def _run_eraser(settings: dict, seed: int, out_format: str) -> tuple[RunReport, dict]:
    n = _require_int("n", settings.get("n", 100_000), 1)
    geometry = _geometry(settings)
    perspective = settings.get("perspective", "idler_first")
    bs_present = settings.get("bs_present", True)
    if not isinstance(bs_present, bool):
        raise ConfigError(f"field 'bs_present': expected true or false, got {bs_present!r}")
    run = run_eraser(EraserConfig(bs_present, perspective, n, geometry, seed))
    geo_cfg = geometry.to_config()
    report = RunReport(
        scenario="eraser",
        config={
            "scenario": "eraser",
            "bs_present": bs_present,
            "perspective": perspective,
            "n": n,
            "seed": seed,
            "bins": geo_cfg["bins"],
            "geometry": geo_cfg,
        },
    )
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
        run.histograms["total"].total == n,
    )
    columns = {f"count_{d}": run.joint_counts[i] for i, d in enumerate(DETECTORS)}
    columns["count_total"] = run.joint_counts.sum(axis=0)
    return report, {"eraser_hist.csv": _histogram_csv(geometry.bin_edges, columns)}


def _counts_run(scenario: str, config: dict, run, out_format: str) -> tuple[RunReport, dict]:
    """Report and counts file shared by the sampled pair scenarios."""
    report = RunReport(scenario=scenario, config={"scenario": scenario, **config})
    report.analytic = {f"{a}{b}": p for (a, b), p in sorted(run.analytic.items())}
    counts = _counts_payload(run.counts)
    report.sampled = {"counts": counts}
    if out_format == "csv":
        payload = "outcome,count\n" + "".join(f"{k},{v}\n" for k, v in counts.items())
    else:
        payload = json.dumps(counts, sort_keys=True, indent=2) + "\n"
    return report, {f"{scenario}_counts.{out_format}": payload}


def _run_epr(settings: dict, seed: int, out_format: str) -> tuple[RunReport, dict]:
    n = _require_int("n", settings.get("n", 10_000), 1)
    order = settings.get("order", "alice_first")
    run = run_epr(order, n, seed)
    report, files = _counts_run("epr", {"order": order, "n": n, "seed": seed}, run, out_format)
    report.add_check(
        "anticorrelation",
        "no same-sign joint outcomes in any run",
        run.same_sign_count == 0,
    )
    return report, files


def _run_eq9(settings: dict, seed: int, out_format: str) -> tuple[RunReport, dict]:
    n = _require_int("n", settings.get("n", 30_000), 1)
    run = run_partial_pair(n, seed)
    report, files = _counts_run("eq9", {"n": n, "seed": seed}, run, out_format)
    report.add_check(
        "empty_branch_never_fires",
        "the unsupported joint outcome (Y,b) never occurs",
        run.counts[("Y", "b")] == 0,
    )
    return report, files


def _run_double_slit(settings: dict, seed: int, out_format: str) -> tuple[RunReport, dict]:
    n = _require_int("n", settings.get("n", 100_000), 1)
    geometry = _geometry(settings)
    hits = sample_screen_hits(geometry, n, RngStream(seed))
    hist = histogram_from_positions(geometry, hits)
    maxima, minima = fringe_extrema(geometry)
    v_analytic, v_sampled, se = screen_visibility(
        geometry, maxima, minima, screen_density(geometry), hist.counts
    )
    p_up, p_low = momentum_detector_probabilities(geometry)
    geo_cfg = geometry.to_config()
    report = RunReport(
        scenario="double-slit",
        config={
            "scenario": "double-slit",
            "n": n,
            "seed": seed,
            "bins": geo_cfg["bins"],
            "geometry": geo_cfg,
        },
    )
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
    return report, {"double_slit_hist.csv": csv}


_SCENARIOS = {
    "eraser": _run_eraser,
    "epr": _run_epr,
    "eq9": _run_eq9,
    "double-slit": _run_double_slit,
}


def cmd_run(args) -> int:
    config = _load_config(args.config)
    settings = _merged_settings(args, config)
    seed = _require_seed(settings.get("seed", 0))
    report, files = _SCENARIOS[args.scenario](settings, seed, args.out)
    # A scenario echoes every field it reads; refuse the others before
    # anything is written.
    unread = sorted(set(config) - set(report.config))
    if unread:
        raise ConfigError(f"field {unread[0]!r}: scenario {args.scenario!r} does not read it")
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
    seed = _require_seed(args.seed)
    if args.scenario == "empty":
        universe, ledger = run_empty_trace(), ""
    else:
        if args.scenario == "needle":
            story = run_needle_narrative(seed)
        else:
            story = run_eraser_trace(seed, bs_present=args.bs if args.bs is not None else True)
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
    run_p.add_argument("--out", choices=["csv", "json"], default="json",
                       help="format of the counts artifact")
    run_p.add_argument("--config", default=None, help="JSON config file")
    run_p.add_argument("--out-dir", default=".", help="output directory")
    run_p.set_defaults(fn=cmd_run)

    verify_p = sub.add_parser("verify", help="run the verification suite")
    verify_p.add_argument("suite", choices=["all", "fast"])
    verify_p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED, help="master seed")
    verify_p.add_argument("--report", default=None, help="write the canonical report here")
    verify_p.set_defaults(fn=cmd_verify)

    trace_p = sub.add_parser("trace", help="export a branch trace")
    trace_p.add_argument("scenario", choices=["needle", "eraser", "empty"])
    trace_p.add_argument("--seed", type=int, default=0)
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
