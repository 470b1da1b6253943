"""Every experiment of ``repro.bench`` meets its acceptance bar.

One module-scoped fixture runs each experiment **once**, at the smallest
levels that show its bar; the tests are queries over those rows.  The
``durable``, ``migrate`` and ``reshard`` bars (and the ``batch``
``phase_breakdown`` check) used to live in ``ci.yml`` heredocs.
"""

import csv
import hashlib
import io
import json

import pytest

from repro.bench import EXPERIMENTS, render
from repro.bench.export import rows_to_csv, write_json
from repro.bench.harness import KB, MB, TABLE1_OPS
from repro.sgx.cost_model import CostParams
from tests.schedule_reference import capture, violations

#: experiment -> the levels its one run uses.
RUNS = {
    "fig5a": dict(sizes=[64], trials=1),
    "fig5b": dict(sizes=[32 * KB], trials=1),
    # Even a reduced ruleset (300 of the paper's 3,700 rules) puts
    # pattern matching firmly in the win regime.
    "fig5c": dict(payload_sizes=[256], n_rules=300, trials=1),
    # 8000-word pages make the compute term dominate; the paper's
    # regime is ~3.7-4x there.
    "fig5d": dict(word_counts=[8000], trials=2),
    "table1": dict(sizes=[KB, 64 * KB, MB], trials=1),
    "fig6": dict(sizes=[KB, 256 * KB], ops=10),
    "a1": dict(text_bytes=8 * KB),
    "a2": dict(text_bytes=8 * KB),
    "a3": dict(n_entries=64, result_bytes=64 * KB, epc_usable=2 * MB),
    # The flood must exceed the store's 128-entry capacity for the
    # no-quota variant to evict honest entries.
    "a4": dict(flood=200, honest=10),
    "a5": dict(calls=20),
    "a6": dict(n_entries=16, gets=32),
    "a7": dict(sizes=[KB], ops=10),
    "e9": dict(epochs=3, pages_per_epoch=8, churn=0.25),
    "e10": dict(fractions=[0.0, 0.9], calls=10, text_bytes=8 * KB),
    "batch": dict(batch_sizes=[1, 64], ops=64, execute_batch_sizes=[4], calls=8,
                  text_bytes=4 * KB),
    "cluster": dict(shard_counts=[1, 4], ops=48),
    "pipeline": dict(depths=[1, 8], shard_counts=[4], ops=48, duplicates=16),
    "durable": dict(group_commits=[1, 8], log_lengths=[16, 64], ops=24),
    "migrate": dict(ops=24, rounds=12),
    "adaptive": dict(depths=[1, 8], ops=24, rounds=12),
    "reshard": dict(joins=2, ops=24, rounds=12),
}


@pytest.fixture(scope="module")
def table():
    """``table(name)`` -> the experiment's rows, run on first use;
    ``table.solved[name]`` -> every engine graph that run solved."""
    cache = {}

    def rows(name: str) -> list[dict]:
        if name not in cache:
            with pytest.MonkeyPatch.context() as patch:
                rows.solved[name] = capture(patch).solved
                cache[name] = EXPERIMENTS[name].rows(**RUNS[name])
        return cache[name]

    rows.solved = {}
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


def _without_wall(value):
    """``value`` less every ``wall*`` cell, at any depth (the ``wall_s``
    columns and the ``wall_seconds`` inside ``phase_breakdown``)."""
    if isinstance(value, dict):
        return {k: _without_wall(v) for k, v in value.items() if "wall" not in k}
    if isinstance(value, list):
        return [_without_wall(v) for v in value]
    return value


#: sha256 of each experiment's rows as the CSV export writes them (nine
#: significant digits), wall cells stripped.  Every virtual-clock charge,
#: compute included, is a pure function of the inputs, so every
#: experiment's export repeats run to run.  They pin "no bench number
#: moved" across refactors of the harness, and are not re-pinned.
ROW_DIGESTS = {
    "fig5a": "78d212a33f859cb197fcfc8edd8f8cdc52232228407d157877dacba8ef3711aa",
    "fig5b": "ff99129a80e4fad411a01d2c7c9b10b4a1be07104a754b180797d844a4c81411",
    "fig5c": "411bdb126484394acf6d8ae3246c9585eb88a9ca9d81a306a9304226e5ede8d8",
    "fig5d": "fb6811112c60d919ee9f2417802431ffeec05ba713ab63aebfb6223142f8dfa6",
    "fig6": "4ba0ccc73353aca26b89c8868a5b8940571f5c770eccfb13699a3048c9fea59c",
    "table1": "127b36bd575eb36198fd5c2623f2ff4682e8a58b303fe01ee0d9c39343a89201",
    "a1": "0299cc88423129466a4929008b74bba6e3a601d30e4e0d8af0628e512e2b3bb4",
    "a2": "857ca982191cc1f5befe843fc951fc08c8b4705c4bfc7b2fa1d0c2a3209cb4cf",
    "a3": "5e4a9fab69e91f1fdf9c3670356fed5e489aa0df3dea0da96d0a6669c4ed8dc5",
    "a4": "3e8227d804041e1be7ef707718970d028481ac9d9be5278f339381281425e74a",
    "a5": "ae1e7b18b3992861556b8d98fefc4f3423a3a21c71a7aacdf07037700b8c074a",
    "a6": "1eab65e75874c573e42d6c89b17a813a995caa33eedfc00f7a4196660e6a1e7a",
    "a7": "1cd853188a0d0094d9434e761b37dfbb86a3397d836ebd20882e7dbee7909e90",
    "e9": "33bce19131042ff53a4064010d0a5b7afbe42e6b58de89ed93429fb2774e86d6",
    "e10": "03ebd9bf3555a83834518afb00418549417e9a08727c6c2b7de50b1f2c451c27",
    # Re-pinned when Fig. 1 gained its router: phase_breakdown carries
    # router.* phases; without them the rows hash to 35f8ae0d...  Re-pinned
    # again when a lone call became a group of one: every request roots in
    # runtime.execute and call_batch traces router.get / router.put; with
    # the batched rows' three keys named back (runtime.execute_batch,
    # router.batch_get, router.batch_put) they hash to 09a815c7...
    "batch": "27dd7d00b7e2c32e4dca24197bf00bc1c1b0c523e2103d70b16708f1664ae678",
    "cluster": "c0c7786b7c06cd2cf4cb3735ef7b57d66929c0d927e779c9345993a84c16f55e",
    # The next four were re-pinned when the engine began accounting a
    # batch as one list schedule: only the columns derived from the
    # engine's makespan moved (elapsed_sim_s, sim_ops_per_s, speedup,
    # baseline_sim_s, vs_baseline, fg_ops_per_s, fg_throughput_ratio,
    # p50_round_s, p99_round_s).  With those dropped, the rows hash to
    # d3075d35... (pipeline), acbab21d... (migrate), f97fbec3...
    # (adaptive) and 5534583e... (reshard) before and after.  pipeline
    # was re-pinned again when its workers cell began printing the
    # attached engine's clamped lanes: only the depth-1 row moved (4 -> 1),
    # and with the workers column dropped the rows hash to 744a2cde...
    # before and after.  All four were re-pinned when `depth` became a
    # window of items in flight instead of a lock-step round: with the
    # makespan columns above dropped they hash to b512f296... (pipeline),
    # acbab21d..., f97fbec3... and 5534583e... before and after.
    "pipeline": "c5836aa73c0f91663000357b7e0c743b80fc3a97839d9c619717160b70bbb384",
    "durable": "ebb12c57723f9f837c891e7c946f73f0b609ea76563524ae115cdbb28f5fb660",
    "migrate": "65f7b93e41fd5f49a109e528e7f3d8ea4b6fa1e00d8aa0222d8b63bd2e95cd65",
    "adaptive": "c3064b3cd66dbff027adb65ebc583dfd60e8ad363576c498c5ad655406a7c2cd",
    "reshard": "9be28ed431562581207d27ecca484f568e025b9ca404ce9b805b61e1d8d91ab9",
}


@pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
def test_rows_are_pinned(table, name):
    exported = rows_to_csv(_without_wall(table(name)))
    assert hashlib.sha256(exported.encode()).hexdigest() == ROW_DIGESTS[name]


@pytest.mark.parametrize("name", ["pipeline", "migrate", "adaptive", "reshard"])
def test_every_engine_graph_holds_the_model(table, name):
    # Auto depth, drains, joins and migration windows: each batch the
    # engine solved is a valid schedule of its graph
    # (tests/schedule_reference.py).
    table(name)
    assert any(graph.groups for graph, _ in table.solved[name])
    for graph, starts in table.solved[name]:
        assert violations(graph, starts, sum(graph.costs)) == []


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
