"""The benchmark harness regenerates every artifact (small parameters)."""

import pytest

from repro.bench import harness
from repro.sgx.cost_model import SimClock


@pytest.fixture
def pinned_compute(monkeypatch):
    """``SimClock.charge_compute`` is fed *measured* wall time — the
    virtual clock's only host-timed input.  Charge every call what the
    first one measured, so runs of one function differ only in the
    modelled costs and a noisy host cannot flip a comparison of them.

    That steadies a comparison of two runs, not one against an absolute
    threshold: a host 1.7x faster than the one the threshold was written
    on still measures a 1.7x cheaper kernel.  For those, call the fixture
    with the seconds every call is to be charged — a stated constant, and
    the host clock is out of the test."""
    real = SimClock.charge_compute
    charged = []

    def pinned(self, wall_seconds, native_factor=1.0):
        if not charged:
            charged.append(wall_seconds)
        real(self, charged[0], native_factor)

    monkeypatch.setattr(SimClock, "charge_compute", pinned)
    return charged.append


class TestFig5Runners:
    def test_fig5a_shape(self):
        rows = harness.run_fig5a_sift(sizes=[64], trials=1)
        row = rows[0]
        assert row.speedup > 5          # SIFT is firmly in the win regime
        assert row.subsq_relative < 50
        assert row.sim_subsq_s < row.sim_baseline_s

    def test_fig5b_shape(self, pinned_compute):
        rows = harness.run_fig5b_compress(sizes=[32 * harness.KB], trials=1)
        row = rows[0]
        assert 1.0 < row.speedup < 30   # the paper's "fast task" regime
        assert row.init_relative > 100  # storing adds overhead

    def test_fig5c_shape(self, pinned_compute):
        # Even a reduced ruleset (300 of the paper's 3,700 rules) puts
        # pattern matching firmly in the win regime; the full-size run in
        # benchmarks/ reaches the paper's hundreds-fold speedups.
        pinned_compute(4.0e-3)  # 300 rules over 256 B at reference host speed
        rows = harness.run_fig5c_pattern(payload_sizes=[256], n_rules=300, trials=1)
        assert rows[0].speedup > 5

    def test_fig5d_shape(self, pinned_compute):
        # 8000-word pages make the compute term dominate measurement
        # noise; the paper's regime is ~3.7-4x there.
        rows = harness.run_fig5d_bow(word_counts=[8000], trials=2)
        row = rows[0]
        assert row.speedup > 1.3
        assert row.init_relative > 100

    def test_print_fig5_renders(self):
        rows = harness.run_fig5d_bow(word_counts=[1000], trials=1)
        text = harness.print_fig5("Fig. 5(d)", rows)
        assert "speedup" in text and "1000w" in text


class TestTable1:
    def test_rows_and_monotonicity(self):
        rows = harness.run_table1(sizes=[1024, 65536], trials=1)
        assert len(rows) == 2
        small, large = rows
        for op in harness.TABLE1_OPS:
            assert large.sim_ms[op] > small.sim_ms[op]

    def test_enc_dec_cheaper_than_hashing_at_scale(self):
        # The paper's observation: result enc/dec are ~an order of
        # magnitude faster than tag generation for the same size.
        row = harness.run_table1(sizes=[1024 * 1024], trials=1)[0]
        assert row.sim_ms["result_enc"] < row.sim_ms["tag_gen"]
        assert row.sim_ms["result_dec"] < row.sim_ms["tag_gen"]

    def test_print_table1(self):
        text = harness.print_table1(harness.run_table1(sizes=[1024], trials=1))
        assert "Tag Gen." in text and "simulated" in text


class TestFig6:
    def test_sgx_slower_and_gap_narrows(self):
        rows = harness.run_fig6(sizes=[1024, 256 * 1024], ops=10)
        by_key = {(r.size_bytes, r.use_sgx): r for r in rows}
        small_ratio = (
            by_key[(1024, True)].get_total_sim_s / by_key[(1024, False)].get_total_sim_s
        )
        large_ratio = (
            by_key[(256 * 1024, True)].get_total_sim_s
            / by_key[(256 * 1024, False)].get_total_sim_s
        )
        assert small_ratio > 1.5          # SGX clearly slower at 1 KB
        assert large_ratio < small_ratio  # gap narrows with size

    def test_put_and_get_comparable_with_sgx(self):
        rows = harness.run_fig6(sizes=[1024], ops=10)
        sgx = next(r for r in rows if r.use_sgx)
        assert 0.3 < sgx.put_total_sim_s / sgx.get_total_sim_s < 3.0


class TestAblations:
    def test_schemes_ordering(self):
        rows = harness.run_ablation_schemes(text_bytes=8 * harness.KB)
        by_name = {r.scheme: r for r in rows}
        cross = by_name["cross-app (III-C)"]
        single = by_name["single-key (III-B)"]
        unic = by_name["UNIC plaintext [16]"]
        assert cross.encrypted_at_rest and single.encrypted_at_rest
        assert not unic.encrypted_at_rest
        # Cross-app pays a little more than single-key (extra hash),
        # plaintext pays least.
        assert cross.sim_subsq_s >= single.sim_subsq_s >= unic.sim_subsq_s

    def test_async_put_cuts_latency(self, pinned_compute):
        rows = harness.run_ablation_async_put(text_bytes=8 * harness.KB)
        by_mode = {r.mode: r for r in rows}
        assert by_mode["async PUT"].sim_init_latency_s < by_mode["sync PUT"].sim_init_latency_s

    def test_epc_blobs_inside_thrash(self):
        rows = harness.run_ablation_epc(
            n_entries=64, result_bytes=64 * harness.KB, epc_usable=2 * harness.MB
        )
        by_design = {r.design: r for r in rows}
        paper = by_design["metadata-only in EPC (paper)"]
        naive = by_design["results inside EPC"]
        assert paper.page_faults == 0
        assert naive.page_faults > 500
        assert naive.sim_total_s > paper.sim_total_s

    def test_oblivious_metadata_overhead(self):
        rows = harness.run_ablation_oblivious(n_entries=16, gets=32)
        by_design = {r.design: r for r in rows}
        plain = by_design["plain dictionary (paper)"]
        oram = by_design["Path ORAM metadata"]
        assert oram.sim_total_s > plain.sim_total_s
        assert oram.oram_accesses == 16 + 32  # one path per PUT and GET
        assert plain.oram_accesses == 0

    def test_adaptive_suppresses_unprofitable_lookups(self):
        rows = harness.run_ablation_adaptive(calls=20)
        by_key = {(r.policy, r.workload): r for r in rows}
        assert (
            by_key[("adaptive", "cheap+unique")].store_gets
            < by_key[("always-on", "cheap+unique")].store_gets
        )
        assert (
            by_key[("adaptive", "slow+repetitive")].store_gets
            == by_key[("always-on", "slow+repetitive")].store_gets
        )

    def test_switchless_calls_cut_transition_cost(self):
        rows = harness.run_ablation_switchless(sizes=[1024], ops=10)
        by_mode = {r.mode: r for r in rows}
        classic = by_mode["classic ECALL/OCALL"].get_total_sim_s
        hot = by_mode["switchless (HotCalls)"].get_total_sim_s
        assert hot < classic
        # The saving equals the transition-cost delta exactly.
        from repro.sgx.cost_model import CostParams

        params = CostParams()
        per_op_saving = 2 * (params.ecall_cycles - params.hotcall_cycles)
        expected = 10 * per_op_saving / params.cpu_freq_hz
        assert abs((classic - hot) - expected) < 1e-9

    def test_duplication_sweep_crossover(self, pinned_compute):
        pinned_compute(48e-3)  # compressing 8 KiB at reference host speed
        rows = harness.run_duplication_sweep(
            fractions=[0.0, 0.9], calls=10, text_bytes=8 * harness.KB
        )
        by_fraction = {r.duplicate_fraction: r for r in rows}
        # No duplication: SPEED cannot win on the fast task.
        assert by_fraction[0.0].speedup < 1.2
        # Heavy duplication: it does.
        assert by_fraction[0.9].speedup > 1.0
        assert by_fraction[0.9].hit_rate > 0.7

    def test_incremental_hit_rate_converges(self):
        rows = harness.run_incremental(epochs=3, pages_per_epoch=8, churn=0.25)
        assert rows[0].hit_rate == 0.0
        assert rows[1].hit_rate >= 0.5
        assert rows[-1].sim_epoch_s < rows[0].sim_epoch_s

    def test_quota_contains_flood(self):
        # The flood must exceed the store's 128-entry capacity for the
        # no-quota variant to evict honest entries.
        rows = harness.run_ablation_quota(flood=200, honest=10)
        by_policy = {r.policy: r for r in rows}
        assert by_policy["no quota"].honest_entries_surviving < 10
        protected = by_policy["quota: 32 entries/app"]
        assert protected.accepted_from_attacker <= 32
        assert protected.honest_entries_surviving == 10


class TestBatch:
    def test_batch_sweep_meets_acceptance_targets(self):
        # The issue's acceptance bar, at batch size 64 on the Fig. 6 GET
        # regime: >=10x fewer enclave transitions per call and >=2x the
        # simulated throughput of the unbatched baseline.
        rows = harness.run_batch_store(batch_sizes=[1, 64], ops=64,
                                       size_bytes=harness.KB)
        gets = {r.batch_size: r for r in rows if r.phase == "get"}
        base, batched = gets[1], gets[64]
        assert base.transitions_per_call / batched.transitions_per_call >= 10
        assert batched.sim_ops_per_s / base.sim_ops_per_s >= 2
        puts = {r.batch_size: r for r in rows if r.phase == "put"}
        assert puts[64].sim_ops_per_s > puts[1].sim_ops_per_s

    def test_batch_execute_matches_sequential(self):
        rows = harness.run_batch_execute(batch_sizes=[4], calls=8,
                                         text_bytes=4 * harness.KB)
        assert all(r.identical for r in rows)
        by_phase = {(r.phase, r.batch_size): r for r in rows}
        seq = by_phase[("execute-seq", 1)]
        best = by_phase[("execute-batch", 8)]
        assert best.transitions_per_call < seq.transitions_per_call
        assert best.sim_ops_per_s > seq.sim_ops_per_s

    def test_print_batch_renders(self):
        rows = harness.run_batch_store(batch_sizes=[1, 4], ops=8)
        text = harness.print_batch(rows)
        assert "trans/call" in text and "sim ops/s" in text

    def test_batch_rows_export_to_json(self, tmp_path):
        from repro.bench.export import write_json
        import json

        rows = harness.run_batch_store(batch_sizes=[4], ops=8)
        path = write_json(rows, tmp_path / "BENCH_batch.json")
        records = json.loads(path.read_text())
        assert len(records) == len(rows)
        assert {"phase", "batch_size", "transitions_per_call",
                "sim_ops_per_s"} <= set(records[0])


class TestCluster:
    def test_cluster_sweep_meets_acceptance_targets(self):
        # The issue's acceptance bar: >=2x simulated GET throughput at 4
        # shards vs the single-store baseline, and a failover run where
        # one dead shard loses zero replicated results while read-repair
        # refills it after revival.
        rows = harness.run_cluster(shard_counts=[1, 4],
                                   replication_factors=[1, 2], ops=48)
        def pick(phase, n, rf):
            return next(r for r in rows if r.phase == phase
                        and r.n_shards == n and r.replication_factor == rf)

        assert pick("get", 4, 1).speedup >= 2
        assert pick("get", 4, 2).speedup >= 2
        failover = next(r for r in rows if r.phase == "failover-get")
        assert failover.results_lost == 0
        assert failover.failovers > 0
        repair = next(r for r in rows if r.phase == "repair-get")
        assert repair.results_lost == 0
        assert repair.read_repairs > 0

    def test_cluster_rows_export_to_json(self, tmp_path):
        import json

        from repro.bench.export import write_json

        rows = harness.run_cluster(shard_counts=[1, 2],
                                   replication_factors=[1], ops=16)
        path = write_json(rows, tmp_path / "BENCH_cluster.json")
        records = json.loads(path.read_text())
        assert len(records) == len(rows)
        assert {"phase", "n_shards", "replication_factor", "sim_ops_per_s",
                "speedup", "results_lost"} <= set(records[0])

    def test_print_cluster_renders(self):
        rows = harness.run_cluster(shard_counts=[1, 2],
                                   replication_factors=[1], ops=16)
        text = harness.print_cluster(rows)
        assert "speedup" in text and "failovers" in text


class TestPipeline:
    def test_pipeline_sweep_meets_acceptance_targets(self):
        # The issue's acceptance bar: >=2x simulated ops/s over the
        # serial path at depth 8 on 4 shards (GET-heavy), byte-identical
        # results, unchanged hit/miss/degraded conservation totals, and
        # a K-duplicate burst taking exactly one store round trip.
        rows = harness.run_pipeline(depths=[8], shard_counts=[4], ops=48)
        serial = next(r for r in rows
                      if r.phase == "get-heavy" and r.depth == 0)
        deep = next(r for r in rows
                    if r.phase == "get-heavy" and r.depth == 8)
        assert deep.speedup >= 2.0
        assert deep.identical
        assert (deep.hits, deep.misses, deep.degraded) == (
            serial.hits, serial.misses, serial.degraded
        )
        co_serial = next(r for r in rows
                         if r.phase == "coalesce" and r.depth == 0)
        co = next(r for r in rows if r.phase == "coalesce" and r.depth == 8)
        assert co.store_gets == 1
        assert co_serial.store_gets == co.ops
        assert co.coalesced == co.ops - 1
        assert co.identical
        assert (co.hits, co.misses, co.degraded) == (
            co_serial.hits, co_serial.misses, co_serial.degraded
        )

    def test_depth_one_pays_the_per_record_cost(self):
        # An unpipelined grouped round ships one record per op, losing
        # the batch AEAD amortization: depth 1 must not beat serial, and
        # deeper windows must monotonically improve on it.
        rows = harness.run_pipeline(depths=[1, 8], shard_counts=[4],
                                    ops=24, duplicates=4)
        d1 = next(r for r in rows
                  if r.phase == "get-heavy" and r.depth == 1)
        d8 = next(r for r in rows
                  if r.phase == "get-heavy" and r.depth == 8)
        assert d1.speedup <= 1.0
        assert d8.speedup > d1.speedup
        assert d1.identical and d8.identical

    def test_pipeline_rows_export_to_json(self, tmp_path):
        import json

        from repro.bench.export import write_json

        rows = harness.run_pipeline(depths=[8], shard_counts=[1],
                                    ops=12, duplicates=4)
        path = write_json(rows, tmp_path / "BENCH_pipeline.json")
        records = json.loads(path.read_text())
        assert len(records) == len(rows)
        assert {"phase", "n_shards", "depth", "sim_ops_per_s", "speedup",
                "identical", "coalesced", "store_gets"} <= set(records[0])

    def test_print_pipeline_renders(self):
        rows = harness.run_pipeline(depths=[8], shard_counts=[1],
                                    ops=12, duplicates=4)
        text = harness.print_pipeline(rows)
        assert "speedup" in text and "coalesced" in text


class TestAdaptive:
    def test_adaptive_sweep_meets_acceptance_targets(self):
        # The issue's acceptance bar: the auto row lands within 10% of
        # the best static depth, strictly beats the depth-1
        # anti-sweet-spot, and stays byte-identical to the depth-1
        # replay throughout.
        rows = harness.run_adaptive(depths=[1, 8], ops=24, rounds=12)
        sweep = [r for r in rows if r.phase == "get-heavy"]
        auto = next(r for r in sweep if r.depth == "auto")
        static = {r.depth: r for r in sweep if r.depth not in ("0", "auto")}
        best = min(r.elapsed_sim_s for r in static.values())
        assert auto.elapsed_sim_s <= 1.10 * best
        assert auto.elapsed_sim_s < static["1"].elapsed_sim_s
        assert auto.depth_changes > 0
        assert all(r.identical for r in rows)

    def test_join_phase_holds_the_foreground_bound(self):
        # The PR 8 streaming-migration bound, now under adaptive depth:
        # foreground throughput >= 0.70x of the no-join auto run, with
        # the migration window capping the depth and zero stalls.
        rows = harness.run_adaptive(depths=[1], ops=24, rounds=12)
        join = next(r for r in rows
                    if r.phase == "join" and r.entries_moved > 0)
        assert join.vs_baseline >= 0.70
        assert join.foreground_stalls == 0
        assert join.depth_caps > 0
        assert join.identical

    def test_adaptive_rows_export_to_json(self, tmp_path):
        import json

        from repro.bench.export import write_json

        rows = harness.run_adaptive(depths=[1, 8], ops=16, rounds=8)
        path = write_json(rows, tmp_path / "BENCH_adaptive.json")
        records = json.loads(path.read_text())
        assert len(records) == len(rows)
        assert {"phase", "n_shards", "depth", "elapsed_sim_s",
                "vs_baseline", "depth_final", "depth_changes",
                "depth_caps", "entries_moved", "foreground_stalls",
                "identical"} <= set(records[0])

    def test_print_adaptive_renders(self):
        rows = harness.run_adaptive(depths=[1], ops=16, rounds=8)
        text = harness.print_adaptive(rows)
        assert "vs baseline" in text and "caps" in text
