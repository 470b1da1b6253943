"""Smoke test of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e`` (not part of tier-1
``testpaths``).  Drives ``run.py --quick`` once — every workload, both
kinds of run — and checks what it emitted against ``BENCHMARK.json``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return out, json.loads((out / "results.json").read_text()), done.stdout


def test_declaration_shape():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_names_match_declaration_both_ways(results):
    _, data, _ = results
    declared = {m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert set(data["aggregate"]) == {w["name"] for w in DECLARED["workloads"]}
    for workload, row in data["aggregate"].items():
        assert set(row["metrics"]) == declared, workload
        assert row["ok"] and row["failed"] == 0 and row["attempted"] > 0


def test_every_metric_printed_with_its_unit(results):
    _, _, stdout = results
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        pattern = rf"^{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}$"
        assert re.search(pattern, stdout, re.M), metric["name"]
    assert re.search(r"^failed_op_share\s+0 ratio", stdout, re.M)


def test_untouched_layers_read_zero(results):
    _, data, _ = results
    for workload, row in data["aggregate"].items():
        idle = []
        if workload != "mix2k_cluster_batch":
            idle.append("engine.")
        if workload != "put1k_durable_batch":
            idle.append("durable.")
        if workload.startswith("hit"):
            idle.append("cluster.")
        for name, value in row["metrics"].items():
            if name.startswith(tuple(idle)):
                assert value == 0, (workload, name, value)
    assert data["aggregate"]["put1k_durable_batch"]["metrics"]["durable.commits_per_put"] > 0
    assert data["aggregate"]["mix2k_cluster_batch"]["metrics"]["engine.ops_per_round"] > 0


def test_layer_self_times_close(results):
    _, data, _ = results
    for workload, row in data["aggregate"].items():
        assert row["metrics"]["session.self_time_residual_share"] <= 0.01, workload


def test_artifacts(results):
    out, data, _ = results
    assert {"git_commit", "git_dirty", "python", "numpy", "nproc", "seed", "seconds",
            "cost_params_digest", "wall_date"} <= set(data["provenance"])
    assert all(set(row) == set(data["pass_columns"]) for row in data["passes"])
    for workload in data["aggregate"]:
        assert data["raw"][f"{workload}/untraced"]["wall_ms_per_request"]
        first = json.loads((out / f"spans-{workload}.jsonl").read_text().splitlines()[0])
        assert set(first) == {
            "id", "parent", "request", "layer", "name", "start_ns", "end_ns", "bytes"
        }
    assert not list(out.glob("detail-*.json"))
