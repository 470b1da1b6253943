"""Every experiment of ``repro.bench`` meets its acceptance bar.

One module-scoped fixture runs each experiment **once**, at the smallest
levels that show its bar; the tests are queries over those rows.  The
``durable``, ``migrate`` and ``reshard`` bars (and the ``batch``
``phase_breakdown`` check) used to live in ``ci.yml`` heredocs.
"""

import csv
import io
import json

import pytest

from repro.bench import EXPERIMENTS, render
from repro.bench.export import rows_to_csv, write_json
from repro.bench.harness import KB, MB, TABLE1_OPS
from repro.sgx.cost_model import CostParams

from tests.conftest import pin_compute

FIRST = object()  # pin compute to what the run's first call measured

#: experiment -> (levels, compute pin).  A pin is set wherever a bar
#: compares two compute-bearing runs (FIRST) or reads an absolute
#: threshold (the seconds one call costs at reference host speed).
RUNS = {
    "fig5a": (dict(sizes=[64], trials=1), None),
    "fig5b": (dict(sizes=[32 * KB], trials=1), FIRST),
    # Even a reduced ruleset (300 of the paper's 3,700 rules) puts
    # pattern matching firmly in the win regime.
    "fig5c": (dict(payload_sizes=[256], n_rules=300, trials=1), 4.0e-3),
    # 8000-word pages make the compute term dominate; the paper's
    # regime is ~3.7-4x there.
    "fig5d": (dict(word_counts=[8000], trials=2), FIRST),
    "table1": (dict(sizes=[KB, 64 * KB, MB], trials=1), None),
    "fig6": (dict(sizes=[KB, 256 * KB], ops=10), None),
    "a1": (dict(text_bytes=8 * KB), None),
    "a2": (dict(text_bytes=8 * KB), FIRST),
    "a3": (dict(n_entries=64, result_bytes=64 * KB, epc_usable=2 * MB), None),
    # The flood must exceed the store's 128-entry capacity for the
    # no-quota variant to evict honest entries.
    "a4": (dict(flood=200, honest=10), None),
    "a5": (dict(calls=20), None),
    "a6": (dict(n_entries=16, gets=32), None),
    "a7": (dict(sizes=[KB], ops=10), None),
    "e9": (dict(epochs=3, pages_per_epoch=8, churn=0.25), None),
    "e10": (dict(fractions=[0.0, 0.9], calls=10, text_bytes=8 * KB), 48e-3),
    "batch": (dict(batch_sizes=[1, 64], ops=64, execute_batch_sizes=[4], calls=8,
                   text_bytes=4 * KB), None),
    "cluster": (dict(shard_counts=[1, 4], ops=48), None),
    "pipeline": (dict(depths=[1, 8], shard_counts=[4], ops=48, duplicates=16), None),
    "durable": (dict(group_commits=[1, 8], log_lengths=[16, 64], ops=24), None),
    "migrate": (dict(ops=24, rounds=12), None),
    "adaptive": (dict(depths=[1, 8], ops=24, rounds=12), None),
    "reshard": (dict(joins=2, ops=24, rounds=12), None),
}


@pytest.fixture(scope="module")
def table():
    """``table(name)`` -> the experiment's rows, run on first use."""
    cache = {}

    def rows(name: str) -> list[dict]:
        if name not in cache:
            levels, pin = RUNS[name]
            with pytest.MonkeyPatch.context() as patch:
                if pin is not None:
                    charge = pin_compute(patch)
                    if pin is not FIRST:
                        charge(pin)
                cache[name] = EXPERIMENTS[name].rows(**levels)
        return cache[name]

    return rows


def pick(rows: list[dict], **where) -> dict:
    """The one row matching every ``key=value``."""
    (row,) = [r for r in rows if all(r[k] == v for k, v in where.items())]
    return row


def test_every_experiment_has_a_run():
    assert set(RUNS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_renders_with_its_declared_headers(table, name):
    experiment = EXPERIMENTS[name]
    text = render(experiment, table(name))
    blocks = text.split("\n\n")
    assert len(blocks) == len(experiment.tables)
    for block, (title, columns) in zip(blocks, experiment.tables):
        lines = block.splitlines()
        assert lines[0] == title.format(**experiment.full)
        headers = [cell.strip() for cell in lines[2].split(" | ")]
        assert headers == [c.header for c in columns if c.header]
        assert len(lines) == 4 + len(table(name))


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_exports_carry_every_declared_column(table, name, tmp_path):
    experiment, rows = EXPERIMENTS[name], table(name)
    declared = [c.key for c in experiment.columns]
    parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
    assert parsed[0] == declared
    assert len(parsed) == 1 + len(rows)
    document = json.loads(write_json({name: rows}, tmp_path / "rows.json").read_text())
    records = document["experiments"][name]
    assert len(records) == len(rows)
    assert all(list(record) == declared for record in records)


class TestFig5Runners:
    def test_fig5a_shape(self, table):
        (row,) = table("fig5a")
        assert row["speedup"] > 5          # SIFT is firmly in the win regime
        assert row["subsq_relative"] < 50
        assert row["sim_subsq_s"] < row["sim_baseline_s"]

    def test_fig5b_shape(self, table):
        (row,) = table("fig5b")
        assert 1.0 < row["speedup"] < 30   # the paper's "fast task" regime
        assert row["init_relative"] > 100  # storing adds overhead

    def test_fig5c_shape(self, table):
        (row,) = table("fig5c")
        assert row["speedup"] > 5

    def test_fig5d_shape(self, table):
        (row,) = table("fig5d")
        assert row["speedup"] > 1.3
        assert row["init_relative"] > 100

    def test_print_fig5_renders(self, table):
        text = render(EXPERIMENTS["fig5d"], table("fig5d"))
        assert text.startswith("Fig. 5(d): BoW computation\n")
        assert "speedup" in text and "8000w" in text


class TestTable1:
    def test_rows_and_monotonicity(self, table):
        rows = table("table1")
        assert [r["input_bytes"] for r in rows] == [KB, 64 * KB, MB]
        for small, large in zip(rows, rows[1:]):
            for op in TABLE1_OPS:
                assert large["sim_ms"][op] > small["sim_ms"][op]

    def test_enc_dec_cheaper_than_hashing_at_scale(self, table):
        # The paper's observation: result enc/dec are ~an order of
        # magnitude faster than tag generation for the same size.
        row = pick(table("table1"), input_bytes=MB)
        assert row["sim_ms"]["result_enc"] < row["sim_ms"]["tag_gen"]
        assert row["sim_ms"]["result_dec"] < row["sim_ms"]["tag_gen"]

    def test_print_table1(self, table):
        text = render(EXPERIMENTS["table1"], table("table1"))
        assert "Tag Gen." in text
        assert "Table I (simulated, ms)" in text and "Table I (measured wall, ms)" in text


class TestFig6:
    def test_sgx_slower_and_gap_narrows(self, table):
        rows = table("fig6")

        def sgx_cost(size):
            return (pick(rows, size_bytes=size, use_sgx=True)["get_total_sim_s"]
                    / pick(rows, size_bytes=size, use_sgx=False)["get_total_sim_s"])

        assert sgx_cost(KB) > 1.5                  # SGX clearly slower at 1 KB
        assert sgx_cost(256 * KB) < sgx_cost(KB)   # gap narrows with size

    def test_put_and_get_comparable_with_sgx(self, table):
        sgx = pick(table("fig6"), size_bytes=KB, use_sgx=True)
        assert 0.3 < sgx["put_total_sim_s"] / sgx["get_total_sim_s"] < 3.0


class TestAblations:
    def test_schemes_ordering(self, table):
        rows = table("a1")
        cross = pick(rows, scheme="cross-app (III-C)")
        single = pick(rows, scheme="single-key (III-B)")
        unic = pick(rows, scheme="UNIC plaintext [16]")
        assert cross["encrypted_at_rest"] and single["encrypted_at_rest"]
        assert not unic["encrypted_at_rest"]
        # Cross-app pays a little more than single-key (extra hash),
        # plaintext pays least.
        assert cross["sim_subsq_s"] >= single["sim_subsq_s"] >= unic["sim_subsq_s"]

    def test_async_put_cuts_latency(self, table):
        rows = table("a2")
        assert (pick(rows, mode="async PUT")["sim_init_latency_s"]
                < pick(rows, mode="sync PUT")["sim_init_latency_s"])

    def test_epc_blobs_inside_thrash(self, table):
        rows = table("a3")
        paper = pick(rows, design="metadata-only in EPC (paper)")
        naive = pick(rows, design="results inside EPC")
        assert paper["page_faults"] == 0
        assert naive["page_faults"] > 500
        assert naive["sim_total_s"] > paper["sim_total_s"]

    def test_oblivious_metadata_overhead(self, table):
        rows = table("a6")
        plain = pick(rows, design="plain dictionary (paper)")
        oram = pick(rows, design="Path ORAM metadata")
        assert oram["sim_total_s"] > plain["sim_total_s"]
        assert oram["oram_accesses"] == 16 + 32  # one path per PUT and GET
        assert plain["oram_accesses"] == 0

    def test_adaptive_suppresses_unprofitable_lookups(self, table):
        rows = table("a5")
        assert (pick(rows, policy="adaptive", workload="cheap+unique")["store_gets"]
                < pick(rows, policy="always-on", workload="cheap+unique")["store_gets"])
        assert (pick(rows, policy="adaptive", workload="slow+repetitive")["store_gets"]
                == pick(rows, policy="always-on", workload="slow+repetitive")["store_gets"])

    def test_switchless_calls_cut_transition_cost(self, table):
        rows = table("a7")
        classic = pick(rows, mode="classic ECALL/OCALL")["get_total_sim_s"]
        hot = pick(rows, mode="switchless (HotCalls)")["get_total_sim_s"]
        assert hot < classic
        # The saving equals the transition-cost delta exactly.
        params = CostParams()
        per_op_saving = 2 * (params.ecall_cycles - params.hotcall_cycles)
        expected = 10 * per_op_saving / params.cpu_freq_hz
        assert abs((classic - hot) - expected) < 1e-9

    def test_duplication_sweep_crossover(self, table):
        rows = table("e10")
        # No duplication: SPEED cannot win on the fast task.
        assert pick(rows, duplicate_fraction=0.0)["speedup"] < 1.2
        # Heavy duplication: it does.
        assert pick(rows, duplicate_fraction=0.9)["speedup"] > 1.0
        assert pick(rows, duplicate_fraction=0.9)["hit_rate"] > 0.7

    def test_incremental_hit_rate_converges(self, table):
        rows = table("e9")
        assert rows[0]["hit_rate"] == 0.0
        assert rows[1]["hit_rate"] >= 0.5
        assert rows[-1]["sim_epoch_s"] < rows[0]["sim_epoch_s"]

    def test_quota_contains_flood(self, table):
        rows = table("a4")
        assert pick(rows, policy="no quota")["honest_entries_surviving"] < 10
        protected = pick(rows, policy="quota: 32 entries/app")
        assert protected["accepted_from_attacker"] <= 32
        assert protected["honest_entries_surviving"] == 10


class TestBatch:
    def test_batch_sweep_meets_acceptance_targets(self, table):
        # The acceptance bar, at batch size 64 on the Fig. 6 GET regime:
        # >=10x fewer enclave transitions per call and >=2x the
        # simulated throughput of the unbatched baseline.
        rows = table("batch")
        base, batched = pick(rows, phase="get", batch_size=1), pick(rows, phase="get", batch_size=64)
        assert base["transitions_per_call"] / batched["transitions_per_call"] >= 10
        assert batched["sim_ops_per_s"] / base["sim_ops_per_s"] >= 2
        assert (pick(rows, phase="put", batch_size=64)["sim_ops_per_s"]
                > pick(rows, phase="put", batch_size=1)["sim_ops_per_s"])

    def test_batch_execute_matches_sequential(self, table):
        rows = table("batch")
        assert all(r["identical"] for r in rows)
        seq = pick(rows, phase="execute-seq", batch_size=1)
        best = pick(rows, phase="execute-batch", batch_size=8)
        assert best["transitions_per_call"] < seq["transitions_per_call"]
        assert best["sim_ops_per_s"] > seq["sim_ops_per_s"]

    def test_batch_rows_attribute_their_phases(self, table):
        rows = table("batch")
        assert all(row["phase_breakdown"] for row in rows)
        names = set().union(*(row["phase_breakdown"] for row in rows))
        assert {"rpc.call", "channel.encrypt", "store.get"} <= names

    def test_print_batch_renders(self, table):
        text = render(EXPERIMENTS["batch"], table("batch"))
        assert "trans/call" in text and "sim ops/s" in text

    def test_batch_rows_export_to_json(self, table):
        assert {"phase", "batch_size", "transitions_per_call",
                "sim_ops_per_s"} <= set(table("batch")[0])


class TestCluster:
    def test_cluster_sweep_meets_acceptance_targets(self, table):
        # The acceptance bar: >=2x simulated GET throughput at 4 shards
        # vs the single-store baseline, and a failover run where one
        # dead shard loses zero replicated results while read-repair
        # refills it after revival.
        rows = table("cluster")
        assert pick(rows, phase="get", n_shards=4, replication_factor=1)["speedup"] >= 2
        assert pick(rows, phase="get", n_shards=4, replication_factor=2)["speedup"] >= 2
        failover = pick(rows, phase="failover-get")
        assert failover["results_lost"] == 0
        assert failover["failovers"] > 0
        repair = pick(rows, phase="repair-get")
        assert repair["results_lost"] == 0
        assert repair["read_repairs"] > 0

    def test_cluster_rows_export_to_json(self, table):
        assert {"phase", "n_shards", "replication_factor", "sim_ops_per_s",
                "speedup", "results_lost"} <= set(table("cluster")[0])

    def test_print_cluster_renders(self, table):
        text = render(EXPERIMENTS["cluster"], table("cluster"))
        assert "speedup" in text and "failovers" in text


class TestPipeline:
    def test_pipeline_sweep_meets_acceptance_targets(self, table):
        # The acceptance bar: >=2x simulated ops/s over the serial path
        # at depth 8 on 4 shards (GET-heavy), byte-identical results,
        # unchanged hit/miss/degraded conservation totals, and a
        # K-duplicate burst taking exactly one store round trip.
        rows = table("pipeline")
        outcomes = ("hits", "misses", "degraded")
        serial = pick(rows, phase="get-heavy", depth=0)
        deep = pick(rows, phase="get-heavy", depth=8)
        assert deep["speedup"] >= 2.0
        assert deep["identical"]
        assert [deep[k] for k in outcomes] == [serial[k] for k in outcomes]
        co_serial = pick(rows, phase="coalesce", depth=0)
        co = pick(rows, phase="coalesce", depth=8)
        assert co["store_gets"] == 1
        assert co_serial["store_gets"] == co["ops"]
        assert co["coalesced"] == co["ops"] - 1
        assert co["identical"]
        assert [co[k] for k in outcomes] == [co_serial[k] for k in outcomes]

    def test_depth_one_pays_the_per_record_cost(self, table):
        # An unpipelined grouped round ships one record per op, losing
        # the batch AEAD amortization: depth 1 must not beat serial, and
        # deeper windows must monotonically improve on it.
        rows = table("pipeline")
        d1 = pick(rows, phase="get-heavy", depth=1)
        d8 = pick(rows, phase="get-heavy", depth=8)
        assert d1["speedup"] <= 1.0
        assert d8["speedup"] > d1["speedup"]
        assert d1["identical"] and d8["identical"]

    def test_pipeline_rows_export_to_json(self, table):
        assert {"phase", "n_shards", "depth", "sim_ops_per_s", "speedup",
                "identical", "coalesced", "store_gets"} <= set(table("pipeline")[0])

    def test_print_pipeline_renders(self, table):
        text = render(EXPERIMENTS["pipeline"], table("pipeline"))
        assert "speedup" in text and "coalesced" in text


class TestDurable:
    def test_wal_overhead_bound_at_the_default_group_commit(self, table):
        row = pick(table("durable"), phase="overhead", group_commit=8)
        assert row["overhead_pct"] <= 15.0

    def test_recovery_replays_the_whole_log_at_linear_cost(self, table):
        recovery = [r for r in table("durable") if r["phase"] == "recovery"]
        assert len(recovery) >= 2
        assert all(r["records_replayed"] == r["wal_records"] for r in recovery)
        assert all(r["entries_restored"] > 0 for r in recovery)
        per_record = [r["recovery_us_per_record"] for r in recovery]
        assert max(per_record) <= 2.0 * min(per_record)


class TestMigrate:
    def test_streaming_join_holds_the_foreground_bounds(self, table):
        rows = table("migrate")
        assert [r["phase"] for r in rows] == ["baseline", "streaming"]
        assert all(r["identical"] for r in rows)
        baseline, streaming = rows
        assert streaming["entries_moved"] > 0
        assert streaming["foreground_stalls"] == 0
        assert streaming["fg_throughput_ratio"] >= 0.70
        assert streaming["p99_round_s"] <= 3.0 * baseline["p99_round_s"]


class TestReshard:
    def test_one_planned_window_beats_serialized_windows(self, table):
        rows = table("reshard")
        assert [r["phase"] for r in rows] == [
            "baseline", "serialized", "planned", "weighted-ring"]
        serialized, planned = rows[1], rows[2]
        assert serialized["identical"] and planned["identical"]
        assert planned["windows"] == 1 and serialized["windows"] > 1
        assert planned["fg_throughput_ratio"] >= serialized["fg_throughput_ratio"]
        assert planned["dual_rounds"] <= serialized["dual_rounds"]
        assert serialized["foreground_stalls"] == 0 == planned["foreground_stalls"]
        assert pick(rows, phase="weighted-ring")["max_weight_err"] <= 0.10


class TestAdaptive:
    def test_adaptive_sweep_meets_acceptance_targets(self, table):
        # The acceptance bar: the auto row lands within 10% of the best
        # static depth, strictly beats the depth-1 anti-sweet-spot, and
        # stays byte-identical to the depth-1 replay throughout.
        rows = table("adaptive")
        sweep = [r for r in rows if r["phase"] == "get-heavy"]
        auto = pick(sweep, depth="auto")
        static = {r["depth"]: r for r in sweep if r["depth"] not in ("0", "auto")}
        best = min(r["elapsed_sim_s"] for r in static.values())
        assert auto["elapsed_sim_s"] <= 1.10 * best
        assert auto["elapsed_sim_s"] < static["1"]["elapsed_sim_s"]
        assert auto["depth_changes"] > 0
        assert all(r["identical"] for r in rows)

    def test_join_phase_holds_the_foreground_bound(self, table):
        # The streaming-migration bound under adaptive depth:
        # foreground throughput >= 0.70x of the no-join auto run, with
        # the migration window capping the depth and zero stalls.
        (join,) = [r for r in table("adaptive")
                   if r["phase"] == "join" and r["entries_moved"] > 0]
        assert join["vs_baseline"] >= 0.70
        assert join["foreground_stalls"] == 0
        assert join["depth_caps"] > 0
        assert join["identical"]

    def test_adaptive_rows_export_to_json(self, table):
        assert {"phase", "n_shards", "depth", "elapsed_sim_s",
                "vs_baseline", "depth_final", "depth_changes",
                "depth_caps", "entries_moved", "foreground_stalls",
                "identical"} <= set(table("adaptive")[0])

    def test_print_adaptive_renders(self, table):
        text = render(EXPERIMENTS["adaptive"], table("adaptive"))
        assert "vs baseline" in text and "caps" in text
