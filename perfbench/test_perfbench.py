"""Quick check of the benchmark itself: every workload, traced and untraced,
at a small size. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SMALL = dict(trials=8, joint_passes=1, histories=1, truth_stride=97,
             photons=4000, bins=128, hits=4000, geometries=2)


def declared(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_checks_pass_and_prints_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, workload, SMALL)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0, out[-20:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "eraser-batch", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
