"""CLI harness: subcommands, files, exit codes, reproducibility."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hangon.cli import main
from hangon.scenarios import ORDERS, PERSPECTIVES


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRunEraser:
    def test_writes_histogram_and_report(self, tmp_path, capsys):
        code = run_cli(
            "run", "eraser", "--bs", "--perspective", "idler-first",
            "--n", "5000", "--seed", "7", "--out-dir", str(tmp_path),
        )
        assert code == 0
        hist = (tmp_path / "eraser_hist.csv").read_text()
        assert hist.splitlines()[0] == (
            "bin_left,bin_right,count_D1,count_D2,count_D3,count_D4,count_total"
        )
        report = json.loads((tmp_path / "eraser_report.json").read_text())
        assert report["passed"] is True
        assert report["config"]["seed"] == 7
        assert sum(report["sampled"]["detector_counts"].values()) == 5000

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000, "seed": 1, "bs_present": False}))
        code = run_cli(
            "run", "eraser", "--config", str(cfg), "--seed", "2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "eraser_report.json").read_text())
        assert report["config"]["n"] == 1000  # from config
        assert report["config"]["seed"] == 2  # flag wins
        assert report["config"]["bs_present"] is False

    def test_config_echo_reproduces_the_run(self, tmp_path):
        # The echoed config alone must be enough to reproduce the run.
        first = tmp_path / "first"
        assert run_cli(
            "run", "eraser", "--no-bs", "--perspective", "signal-first",
            "--n", "1500", "--seed", "9", "--bins", "128", "--out-dir", str(first),
        ) == 0
        echoed = json.loads((first / "eraser_report.json").read_text())["config"]
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(echoed))
        second = tmp_path / "second"
        assert run_cli("run", "eraser", "--config", str(cfg), "--out-dir", str(second)) == 0
        assert (first / "eraser_hist.csv").read_bytes() == (second / "eraser_hist.csv").read_bytes()
        assert (first / "eraser_report.json").read_bytes() == (second / "eraser_report.json").read_bytes()

    def test_config_for_wrong_scenario_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "epr"}))
        assert run_cli("run", "eraser", "--config", str(cfg)) == 2


class TestRunDeterminism:
    @pytest.mark.parametrize(
        "argv, names",
        [
            pytest.param(
                ["eraser", "--no-bs", "--perspective", "signal-first", "--n", "2000"],
                ["eraser_hist.csv", "eraser_report.json"],
                id="eraser",
            ),
            pytest.param(["epr", "--n", "500"], ["epr_counts.json", "epr_report.json"], id="epr-json"),
            pytest.param(
                ["epr", "--order", "bob-record-first", "--n", "500", "--out", "csv"],
                ["epr_counts.csv", "epr_report.json"],
                id="epr-csv",
            ),
            pytest.param(["eq9", "--n", "500"], ["eq9_counts.json", "eq9_report.json"], id="eq9"),
            pytest.param(
                ["double-slit", "--n", "20000", "--bins", "256"],
                ["double_slit_hist.csv", "double_slit_report.json"],
                id="double-slit",
            ),
        ],
    )
    def test_same_seed_byte_identical_outputs(self, tmp_path, argv, names):
        for sub in ("a", "b"):
            assert run_cli("run", *argv, "--seed", "5", "--out-dir", str(tmp_path / sub)) == 0
            assert sorted(p.name for p in (tmp_path / sub).iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestBinsAgreement:
    @pytest.mark.parametrize("scenario", ["eraser", "double-slit"])
    @pytest.mark.parametrize("bins", ["64", "256"])
    def test_bins_flag_disagreeing_with_geometry_is_config_error(
        self, tmp_path, capsys, scenario, bins
    ):
        # The echoed config carries geometry.bins = 128; a --bins flag that
        # disagrees must be refused before anything is written.
        first = tmp_path / "first"
        run_cli("run", scenario, "--n", "500", "--bins", "128", "--out-dir", str(first))
        cfg = tmp_path / "echo.json"
        echoed = json.loads((first / f"{scenario.replace('-', '_')}_report.json").read_text())["config"]
        cfg.write_text(json.dumps(echoed))
        capsys.readouterr()
        code = run_cli(
            "run", scenario, "--config", str(cfg), "--bins", bins,
            "--out-dir", str(tmp_path / "second"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert bins in err and "128" in err
        assert not (tmp_path / "second").exists()

    def test_geometry_bins_alone_sets_the_histogram(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2000, "geometry": {"bins": 128}}))
        run_cli("run", "double-slit", "--config", str(cfg), "--out-dir", str(tmp_path))
        lines = (tmp_path / "double_slit_hist.csv").read_text().splitlines()
        assert len(lines) == 129
        report = json.loads((tmp_path / "double_slit_report.json").read_text())
        assert report["config"]["bins"] == report["config"]["geometry"]["bins"] == 128


class TestRunEprAndPair:
    def test_epr_counts_json(self, tmp_path):
        code = run_cli(
            "run", "epr", "--order", "alice-first", "--n", "3000",
            "--seed", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        counts = json.loads((tmp_path / "epr_counts.json").read_text())
        assert counts["++"] == 0 and counts["--"] == 0
        assert counts["+-"] + counts["-+"] == 3000

    def test_epr_counts_csv(self, tmp_path):
        code = run_cli(
            "run", "epr", "--order", "bob-record-first", "--n", "500",
            "--seed", "1", "--out", "csv", "--out-dir", str(tmp_path),
        )
        assert code == 0
        text = (tmp_path / "epr_counts.csv").read_text()
        assert text.splitlines()[0] == "outcome,count"

    def test_partial_pair_counts(self, tmp_path):
        code = run_cli("run", "eq9", "--n", "2000", "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        counts = json.loads((tmp_path / "eq9_counts.json").read_text())
        assert counts["Yb"] == 0
        assert sum(counts.values()) == 2000

    def test_eq9_report_bytes(self, tmp_path, capsys):
        # Pins the report format: two-space indent, sorted keys, trailing newline.
        assert run_cli("run", "eq9", "--n", "300", "--seed", "3", "--out-dir", str(tmp_path)) == 0
        expected = (
            "{\n"
            '  "analytic": {\n'
            '    "Xa": 0.3333333333333335,\n'
            '    "Xb": 0.3333333333333335,\n'
            '    "Ya": 0.3333333333333334,\n'
            '    "Yb": 0.0\n'
            "  },\n"
            '  "checks": [\n'
            "    {\n"
            '      "invariant": "the unsupported joint outcome (Y,b) never occurs",\n'
            '      "name": "empty_branch_never_fires",\n'
            '      "passed": true\n'
            "    }\n"
            "  ],\n"
            '  "config": {\n'
            '    "n": 300,\n'
            '    "scenario": "eq9",\n'
            '    "seed": 3\n'
            "  },\n"
            '  "passed": true,\n'
            '  "sampled": {\n'
            '    "counts": {\n'
            '      "Xa": 95,\n'
            '      "Xb": 107,\n'
            '      "Ya": 98,\n'
            '      "Yb": 0\n'
            "    }\n"
            "  },\n"
            '  "scenario": "eq9"\n'
            "}\n"
        )
        assert (tmp_path / "eq9_report.json").read_text() == expected
        assert capsys.readouterr().out == expected

    def test_double_slit(self, tmp_path):
        code = run_cli(
            "run", "double-slit", "--n", "20000", "--seed", "5",
            "--bins", "256", "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "double_slit_hist.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 257


@pytest.mark.parametrize(
    "scenario, flag, key, values",
    [("eraser", "--perspective", "perspective", PERSPECTIVES), ("epr", "--order", "order", ORDERS)],
)
def test_every_scenario_value_has_its_dashed_flag(tmp_path, capsys, scenario, flag, key, values):
    """Each value of the scenario's tuple is one flag spelling, ``_`` read as ``-``."""
    bins = ["--bins", "16"] if scenario == "eraser" else []  # epr reads no bins
    for value in values:
        argv = ["run", scenario, flag, value.replace("_", "-"), "--n", "200", *bins]
        assert run_cli(*argv, "--out-dir", str(tmp_path)) == 0
        assert json.loads(capsys.readouterr().out)["config"][key] == value
    assert run_cli("run", scenario, flag, values[0]) == 2


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli("run", "eraser", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("run", "eraser", "--config", str(bad))
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize(
        "make_config",
        [
            # json.load refuses integer literals past the digit limit.
            lambda p: p.write_text('{"n": ' + "9" * 5000 + "}"),
            lambda p: p.write_bytes(b"\xff\xfe{"),
            lambda p: p.mkdir(),
        ],
        ids=["integer-too-long", "not-utf8", "directory"],
    )
    def test_unreadable_config(self, tmp_path, capsys, make_config):
        cfg = tmp_path / "cfg.json"
        make_config(cfg)
        code = run_cli("run", "eq9", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert str(cfg) in capsys.readouterr().err
        assert not list(tmp_path.glob("eq9_*"))

    def test_bad_field_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "many"}))
        code = run_cli("run", "eraser", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert "'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_boolean_bs_present(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "bs_present": value}))
        code = run_cli("run", "eraser", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert "'bs_present'" in capsys.readouterr().err
        assert not (tmp_path / "eraser_report.json").exists()

    @pytest.mark.parametrize(
        "scenario, settings, name",
        [
            ("eraser", {"scenario": "eraser", "n_photons": 10}, "'n_photons'"),
            ("epr", {"n": 100, "bins": 64}, "'bins'"),
            ("eq9", {"n": 100, "order": "alice_first"}, "'order'"),
            ("double-slit", {"n": 100, "perspective": "idler_first"}, "'perspective'"),
        ],
    )
    def test_config_field_the_scenario_does_not_read(self, tmp_path, capsys, scenario, settings, name):
        # A misspelt or foreign field used to be ignored: the first case ran
        # the default 100,000 photons.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "out"
        code = run_cli("run", scenario, "--config", str(cfg), "--out-dir", str(out))
        assert code == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["epr", "eq9", "eraser", "double-slit"])
    def test_echoed_config_reads_every_field(self, tmp_path, scenario):
        first = tmp_path / "first"
        assert run_cli("run", scenario, "--n", "300", "--seed", "4", "--out-dir", str(first)) == 0
        report = first / f"{scenario.replace('-', '_')}_report.json"
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(json.loads(report.read_text())["config"]))
        second = tmp_path / "second"
        assert run_cli("run", scenario, "--config", str(cfg), "--out-dir", str(second)) == 0
        assert report.read_bytes() == (second / report.name).read_bytes()

    @pytest.mark.parametrize("scenario", ["eraser", "double-slit"])
    @pytest.mark.parametrize("geometry", [[1, 2], "wide", 3])
    def test_geometry_not_an_object(self, tmp_path, capsys, scenario, geometry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "geometry": geometry}))
        code = run_cli("run", scenario, "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert "'geometry'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, settings, name",
        [
            ("eq9", {"n": 2.7}, "'n'"),
            ("eq9", {"n": True}, "'n'"),
            ("epr", {"n": "100"}, "'n'"),
            ("eq9", {"n": 100, "seed": True}, "'seed'"),
            ("eq9", {"n": 100, "seed": 3.0}, "'seed'"),
            ("double-slit", {"n": 100, "bins": 64.0}, "'bins'"),
            ("double-slit", {"n": 100, "geometry": {"bins": 64.9}}, "'geometry.bins'"),
            ("eraser", {"n": 100, "geometry": {"bins": 128.0}}, "'geometry.bins'"),
        ],
    )
    def test_non_integer_field(self, tmp_path, capsys, scenario, settings, name):
        # Only a JSON integer passes; int() would truncate or coerce these.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        code = run_cli("run", scenario, "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert name in capsys.readouterr().err
        assert not list(tmp_path.glob("*_report.json"))

    @pytest.mark.parametrize(
        "scenario, geometry, name",
        [
            ("double-slit", {"wavenumber": "125.6"}, "'geometry.wavenumber'"),
            ("double-slit", {"screen_distance": True}, "'geometry.screen_distance'"),
            ("double-slit", {"screen_max": False}, "'geometry.screen_max'"),
            ("eraser", {"wavenumber": float("nan")}, "'geometry.wavenumber'"),
            ("eraser", {"screen_distance": float("inf")}, "'geometry.screen_distance'"),
            ("eraser", {"screen_min": float("-inf")}, "'geometry.screen_min'"),
            ("eraser", {"detector_position": [0.0]}, "'geometry.detector_position'"),
            ("double-slit", {"slit_lower": [-0.5, 0.0, 1.0]}, "'geometry.slit_lower'"),
            ("double-slit", {"slit_upper": [0.5, "0"]}, "'geometry.slit_upper'"),
            ("eraser", {"slit_upper": [0.5, float("nan")]}, "'geometry.slit_upper'"),
            ("double-slit", {"screen_min": 5, "screen_max": -5}, "'geometry.screen_min'"),
            ("eraser", {"wavenumber": -125.6}, "'geometry.wavenumber'"),
            ("double-slit", {"slit_upper": [0, 0], "slit_lower": [0, 0]}, "'geometry.slit_upper'"),
        ],
    )
    def test_bad_geometry_value(self, tmp_path, capsys, scenario, geometry, name):
        # Only finite JSON numbers pass; float() would coerce strings and
        # booleans, and a short point or a NaN used to crash the run.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "geometry": geometry}))
        code = run_cli("run", scenario, "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 2
        assert name in capsys.readouterr().err
        assert not list(tmp_path.glob("*_report.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "fast", "--seed", "-1"),
            ("verify", "fast", "--seed", str(2**64)),
            ("trace", "needle", "--seed", "-1"),
            ("trace", "eraser", "--seed", str(2**64)),
            ("run", "eq9", "--n", "10", "--seed", str(2**64)),
            ("run", "eq9", "--n", "10", "--seed", str(2**128)),
        ],
    )
    def test_seed_out_of_range(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)  # where a run that wrongly succeeds writes
        assert run_cli(*argv) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_largest_seed_accepted(self, capsys):
        assert run_cli("trace", "needle", "--seed", str(2**64 - 1)) == 0

    def test_unknown_flag_value(self, capsys):
        assert run_cli("run", "eraser", "--perspective", "sideways") == 2

    def test_unknown_scenario(self, capsys):
        assert run_cli("run", "teleporter") == 2


# Each flag of `run` and the scenarios that read it.
_RUN_FLAG_READERS = [
    (["--bs"], {"eraser"}),
    (["--no-bs"], {"eraser"}),
    (["--perspective", "signal-first"], {"eraser"}),
    (["--order", "bob-record-first"], {"epr"}),
    (["--bins", "16"], {"eraser", "double-slit"}),
    (["--out", "csv"], {"epr", "eq9"}),
]
_SCENARIO_NAMES = ["eraser", "epr", "eq9", "double-slit"]


class TestUnreadInputs:
    """A flag or config field that a scenario or trace story does not read
    is refused by name before anything is sampled or written."""

    @pytest.mark.parametrize(
        "scenario, flag",
        [
            pytest.param(scenario, flag, id=f"{scenario}{flag[0]}")
            for flag, readers in _RUN_FLAG_READERS
            for scenario in _SCENARIO_NAMES
            if scenario not in readers
        ],
    )
    def test_run_flag_the_scenario_does_not_read(self, tmp_path, capsys, scenario, flag):
        out = tmp_path / "out"
        code = run_cli("run", scenario, *flag, "--n", "100", "--out-dir", str(out))
        assert code == 2
        assert f"'{flag[0]}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "story, flag",
        [
            ("needle", ["--bs"]),
            ("needle", ["--no-bs"]),
            ("empty", ["--bs"]),
            ("empty", ["--no-bs"]),
            ("empty", ["--seed", "5"]),
        ],
        ids=["needle-bs", "needle-no-bs", "empty-bs", "empty-no-bs", "empty-seed"],
    )
    def test_trace_flag_the_story_does_not_read(self, tmp_path, capsys, story, flag):
        out = tmp_path / "trace.jsonl"
        assert run_cli("trace", story, *flag, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"'{flag[0]}'" in captured.err and captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario", _SCENARIO_NAMES)
    def test_every_flag_a_scenario_reads_is_echoed(self, tmp_path, capsys, scenario):
        # --bs and --no-bs set one field, so only --bs is given.
        argv = [a for flag, readers in _RUN_FLAG_READERS
                if scenario in readers and flag != ["--no-bs"] for a in flag]
        assert run_cli("run", scenario, *argv, "--n", "300", "--seed", "2", "--out-dir", str(tmp_path)) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        geometry = config.pop("geometry", None)
        assert (geometry is not None) == (scenario in ("eraser", "double-slit"))
        assert config == {
            "eraser": {"bs_present": True, "perspective": "signal_first", "bins": 16},
            "epr": {"order": "bob_record_first"},
            "eq9": {},
            "double-slit": {"bins": 16},
        }[scenario] | {"scenario": scenario, "n": 300, "seed": 2}

    @pytest.mark.parametrize(
        "settings, flags, name",
        [
            ({"n_photons": 10}, [], "'n_photons'"),
            ({"n": 10}, ["--order", "alice-first"], "'--order'"),
            ({"n": 10}, ["--out", "json"], "'--out'"),
        ],
        ids=["field", "flag", "out-flag"],
    )
    def test_refused_input_never_reaches_the_scenario(
        self, tmp_path, monkeypatch, capsys, settings, flags, name
    ):
        def sampled(*args, **kwargs):
            raise AssertionError("the eraser was sampled")

        monkeypatch.setattr("hangon.cli.run_eraser", sampled)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "out"
        assert run_cli("run", "eraser", "--config", str(cfg), *flags, "--out-dir", str(out)) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestUnusableGeometry:
    """A geometry that passes the config checks but that a scenario cannot
    use is a config error (exit 2), not a failed check (exit 1)."""

    @pytest.mark.parametrize(
        "scenario, geometry, message",
        [
            ("double-slit", {"detector_position": [0, 20]}, "detector at distance 20"),
            (
                "double-slit",
                {"screen_distance": 0.0, "screen_min": -0.5, "screen_max": 0.5, "bins": 5},
                "coincides with a slit",
            ),
            (
                "eraser",
                {"screen_distance": 0.0, "screen_min": -0.5, "screen_max": 0.5, "bins": 5},
                "coincides with a slit",
            ),
        ],
        ids=["not-far-field", "double-slit-singular", "eraser-singular"],
    )
    def test_is_a_config_error(self, tmp_path, monkeypatch, capsys, scenario, geometry, message):
        def sampled(*args, **kwargs):
            raise AssertionError("the screen was sampled")

        # The double-slit run refuses the geometry before it samples.
        monkeypatch.setattr("hangon.cli.sample_screen_hits", sampled)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "geometry": geometry}))
        out = tmp_path / "out"
        assert run_cli("run", scenario, "--config", str(cfg), "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'geometry': ") and message in err
        assert not out.exists()


def test_cold_start_loads_no_scipy(tmp_path):
    # A fresh interpreter: this test process has scipy loaded by other tests.
    script = textwrap.dedent(
        """
        import sys
        import hangon, hangon.cli, hangon.scenarios, hangon.verify
        for scenario in ("epr", "eq9", "eraser"):
            argv = ["run", scenario, "--n", "200", "--out-dir", sys.argv[1]]
            assert hangon.cli.main(argv) == 0, scenario
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


class TestVerify:
    def test_fast_suite_passes(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli("verify", "fast", "--report", str(report_path))
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} >= {
            "momentum_detectors",
            "eraser_uniformity",
            "no_signaling",
        }
        for check in doc["checks"]:
            assert check["invariant"]

    def test_fast_suite_byte_identical(self, tmp_path):
        paths = []
        for sub in ("a", "b"):
            p = tmp_path / f"{sub}.json"
            assert run_cli("verify", "fast", "--seed", "11", "--report", str(p)) == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrace:
    def test_needle_trace_and_ledger(self, tmp_path, capsys):
        out = tmp_path / "needle.jsonl"
        code = run_cli("trace", "needle", "--seed", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        ledger_lines = (tmp_path / "needle.ledger.jsonl").read_text().splitlines()
        docs = [json.loads(l) for l in ledger_lines]
        needle = next(d for d in docs if d["subsystem"] == "needle")
        assert needle["t_happened"] < needle["t_determined"]

    def test_eraser_trace(self, capsys):
        code = run_cli("trace", "eraser", "--seed", "2")
        assert code == 0
        out = capsys.readouterr().out
        assert '"observable":"detector"' in out

    def test_empty_trace(self, capsys):
        code = run_cli("trace", "empty")
        assert code == 0
        assert "root-only" in capsys.readouterr().out
