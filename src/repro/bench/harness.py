"""The experiments: one declaration and one runner per table or figure.

Each runner regenerates one artifact of the evaluation section (see
DESIGN.md §4 for the experiment index) and yields plain ``dict`` rows;
the ``@experiment`` declaration above it says what the table is called,
which columns it has and how each prints, and at which levels the full
and ``--quick`` runs sweep.  All runners are deterministic under their
seeds.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .probe import Delta, Probe, put_stream, timed
from .reporting import (
    Column,
    experiment,
    human_size,
    percent_cell,
    size_cell,
    times_cell,
    yes_cell,
)
from ..apps.registry import (
    CaseStudy,
    bow_case_study,
    compress_case_study,
    pattern_case_study,
    sift_case_study,
)
from ..baselines.presets import (
    no_dedup_runtime_config,
    single_key_runtime_config,
)
from ..baselines.unic import UnicRuntime, UnicStore
from ..cluster.migration import RangeMigrator
from ..cluster.ring import ShardRing, TopologyPlan
from ..core.description import TrustedLibraryRegistry
from ..core.runtime import RuntimeConfig
from ..core.scheme import CHALLENGE_SIZE, KEY_SIZE
from ..core.tag import derive_locking_hash, derive_tag
from ..crypto import gcm
from ..crypto.drbg import HmacDrbg
from ..deployment import ClusterDeployment, Deployment
from ..errors import SpeedError
from ..net.messages import GetRequest
from ..obs.tracer import Tracer
from ..sgx.cost_model import CostParams, SimClock
from ..store.resultstore import StoreConfig
from ..workloads import (
    generate_rules,
    packet_trace,
    synthetic_image,
    synthetic_text,
    synthetic_webpage,
    text_corpus,
)

KB = 1024
MB = 1024 * 1024

INF = float("inf")


def _ratio(numerator: str, denominator: str, undefined: float = 0.0):
    """Derived column ``row[numerator] / row[denominator]``; ``undefined``
    where the denominator measured nothing."""
    def formula(row: dict) -> float:
        if row[denominator] <= 0:
            return undefined
        return row[numerator] / row[denominator]
    return formula


def _case_app(case: CaseStudy, deployment, name: str,
              config: RuntimeConfig | None = None):
    """An application linking only ``case``'s trusted library."""
    libraries = TrustedLibraryRegistry()
    case.register_into(libraries)
    return deployment.create_application(name, libraries, config)


def _store_client(deployment, name: str, sgx: bool = True):
    """A raw store client in its own enclave (none when the store runs
    without SGX): the Fig. 6 regime bypasses ``DedupRuntime``."""
    enclave = (
        deployment.platform.create_enclave(name, f"{name}-code".encode())
        if sgx else None
    )
    return deployment.store.connect(f"{name}-addr", app_enclave=enclave), enclave


def _gets(puts: list) -> list[GetRequest]:
    return [GetRequest(tag=put.tag, app_id=put.app_id) for put in puts]


def _get_all(client, gets: list) -> None:
    for get in gets:
        if not client.call(get).found:
            raise SpeedError("a result stored by this run was not found")


# ---------------------------------------------------------------------------
# Fig. 5 — relative running time of the four applications
# ---------------------------------------------------------------------------
FIG5_COLUMNS = [
    Column("label", "input"),
    Column("sim_baseline_s", "base sim(s)"),
    Column("sim_init_s", "init sim(s)"),
    Column("sim_subsq_s", "subsq sim(s)"),
    # Init. Comp. running time relative to baseline (Fig. 5 y-axis).
    Column("init_relative", "init rel%",
           derive=lambda r: 100.0 * r["sim_init_s"] / r["sim_baseline_s"]),
    Column("subsq_relative", "subsq rel%",
           derive=lambda r: 100.0 * r["sim_subsq_s"] / r["sim_baseline_s"]),
    Column("speedup", "speedup", derive=_ratio("sim_baseline_s", "sim_subsq_s", INF)),
    Column("wall_baseline_s", "base wall(s)"),
    Column("wall_init_s"),
    Column("wall_subsq_s", "subsq wall(s)"),
]


def _measure_case(case: CaseStudy, input_value: Any, seed: bytes, trials: int) -> dict:
    """Mean baseline / initial / subsequent cost of one input."""
    records: dict[str, list] = {"baseline": [], "init": [], "subsq": []}

    def call(app):
        case.deduplicable(app)(input_value)
        return app.runtime.stats.records[-1]

    # Warm caches/JIT paths so wall-clock compute is comparable across
    # the baseline/init measurements (the compute term feeds the sim clock).
    case.func(input_value)

    for trial in range(trials):
        trial_seed = seed + trial.to_bytes(2, "big")

        # Baseline: without SPEED.
        d_base = Deployment(seed=trial_seed + b"/base")
        records["baseline"].append(call(_case_app(
            case, d_base, "baseline", no_dedup_runtime_config("baseline")
        )))

        # Initial computation: SPEED with an empty store, synchronous PUT
        # (the paper's Init. Comp. includes "the time for secure storing
        # [the] result").
        d = Deployment(seed=trial_seed + b"/speed")
        records["init"].append(call(_case_app(
            case, d, "app-initial",
            RuntimeConfig(app_id="app-initial", async_put=False),
        )))

        # Subsequent computation: a second application, same computation.
        record = call(_case_app(case, d, "app-subsq"))
        if not record.hit:
            raise SpeedError("subsequent computation unexpectedly missed the store")
        records["subsq"].append(record)

    return {
        f"{clock}_{phase}_s": sum(getattr(r, f"{clock}_seconds") for r in runs) / trials
        for phase, runs in records.items()
        for clock in ("sim", "wall")
    }


def _fig5_rows(case_factory: Callable[[], CaseStudy],
               labeled_inputs: list[tuple[str, Any]],
               trials: int, seed: bytes) -> Iterator[dict]:
    for label, value in labeled_inputs:
        yield {"label": label,
               **_measure_case(case_factory(), value, seed + label.encode(), trials)}


@experiment("fig5a", "Fig. 5(a): SIFT feature extraction", FIG5_COLUMNS,
            full=dict(sizes=[96, 128, 192, 256], trials=3),
            quick=dict(sizes=[64, 96], trials=1))
def run_fig5a_sift(sizes: list[int], trials: int, seed: int = 7):
    """Fig. 5(a): SIFT feature extraction under different image sizes."""
    inputs = [(f"{s}px", synthetic_image(s, seed=seed)) for s in sizes]
    return _fig5_rows(sift_case_study, inputs, trials, b"fig5a")


@experiment("fig5b", "Fig. 5(b): data compression", FIG5_COLUMNS,
            full=dict(sizes=[16 * KB, 64 * KB, 128 * KB, 256 * KB], trials=3),
            quick=dict(sizes=[16 * KB, 64 * KB], trials=1))
def run_fig5b_compress(sizes: list[int], trials: int, seed: int = 7):
    """Fig. 5(b): zlib-style compression under different text sizes."""
    inputs = [(human_size(s), synthetic_text(s, seed=seed)) for s in sizes]
    return _fig5_rows(compress_case_study, inputs, trials, b"fig5b")


@experiment("fig5c", "Fig. 5(c): pattern matching ({n_rules} rules)", FIG5_COLUMNS,
            full=dict(payload_sizes=[256, 512, 1024, 2048], n_rules=3700, trials=3),
            quick=dict(payload_sizes=[256, 512], n_rules=400, trials=1))
def run_fig5c_pattern(payload_sizes: list[int], n_rules: int, trials: int,
                      seed: int = 7):
    """Fig. 5(c): packet scanning against the full ruleset."""
    rules = generate_rules(n_rules, seed=seed)
    inputs = []
    for size in payload_sizes:
        payload = packet_trace(1, payload_size=size, duplicate_fraction=0.0, seed=seed + size)[0]
        inputs.append((human_size(len(payload)), payload))
    return _fig5_rows(lambda: pattern_case_study(rules), inputs, trials, b"fig5c")


@experiment("fig5d", "Fig. 5(d): BoW computation", FIG5_COLUMNS,
            full=dict(word_counts=[2000, 4000, 8000, 16000], trials=3),
            quick=dict(word_counts=[1000, 2000], trials=1))
def run_fig5d_bow(word_counts: list[int], trials: int, seed: int = 7):
    """Fig. 5(d): BoW computation under different page sizes."""
    inputs = [(f"{n}w", synthetic_webpage(n, seed=seed)) for n in word_counts]
    return _fig5_rows(bow_case_study, inputs, trials, b"fig5d")


# ---------------------------------------------------------------------------
# Table I — cryptographic operations in DedupRuntime
# ---------------------------------------------------------------------------
TABLE1_OPS = {
    "tag_gen": "Tag Gen.", "key_gen": "Key Gen.", "key_rec": "Key Rec.",
    "result_enc": "Res Enc.", "result_dec": "Res Dec.",
}


def _table1_columns(series: str) -> list[Column]:
    """One printed column per operation out of the row's ``series`` dict
    (exported whole: ``{op: ms}``)."""
    return [
        Column("input_bytes", "Input", cell=size_cell("input_bytes")),
        *(Column(header=header, cell=lambda r, op=op: r[series][op])
          for op, header in TABLE1_OPS.items()),
        Column(series),
    ]


@experiment("table1", "Table I (simulated, ms)", _table1_columns("sim_ms"),
            more_tables=[("Table I (measured wall, ms)", _table1_columns("wall_ms"))],
            full=dict(sizes=[1 * KB, 10 * KB, 100 * KB, 1 * MB], trials=3),
            quick=dict(sizes=[KB, 10 * KB], trials=1))
def run_table1(sizes: list[int], trials: int, seed: int = 11):
    """Table I: Tag Gen / Key Gen / Key Rec / Result Enc / Result Dec."""
    drbg = HmacDrbg(seed.to_bytes(4, "big"), b"table1")
    func_identity = drbg.generate(32)
    for size in sizes:
        data = drbg.generate(16) * (size // 16 + 1)
        data = data[:size]
        sim_acc = {op: 0.0 for op in TABLE1_OPS}
        wall_acc = {op: 0.0 for op in TABLE1_OPS}
        for _ in range(trials):
            clock = SimClock()

            def measure(name: str, fn: Callable[[], Any]) -> Any:
                out, sim, wall = timed(fn, clock)
                sim_acc[name] += sim
                wall_acc[name] += wall
                return out

            tag = measure("tag_gen", lambda: derive_tag(func_identity, data, clock))

            challenge = drbg.generate(CHALLENGE_SIZE)
            key = drbg.generate(KEY_SIZE)
            iv = drbg.generate(12)

            def key_gen():
                locking = derive_locking_hash(func_identity, data, challenge, clock)
                clock.charge_keygen()
                return bytes(a ^ b for a, b in zip(key, locking[:KEY_SIZE]))

            wrapped = measure("key_gen", key_gen)

            def key_rec():
                locking = derive_locking_hash(func_identity, data, challenge, clock)
                return bytes(a ^ b for a, b in zip(wrapped, locking[:KEY_SIZE]))

            if measure("key_rec", key_rec) != key:
                raise SpeedError("key recovery did not invert key generation")

            def result_enc():
                clock.charge_aead_encrypt(len(data))
                return gcm.seal(key, iv, data, aad=tag)

            sealed = measure("result_enc", result_enc)

            def result_dec():
                clock.charge_aead_decrypt(len(sealed))
                return gcm.open_(key, sealed, aad=tag)

            if measure("result_dec", result_dec) != data:
                raise SpeedError("result decryption did not invert encryption")
        yield dict(
            input_bytes=size,
            sim_ms={op: sim_acc[op] / trials * 1000 for op in TABLE1_OPS},
            wall_ms={op: wall_acc[op] / trials * 1000 for op in TABLE1_OPS},
        )


# ---------------------------------------------------------------------------
# Fig. 6 — ResultStore throughput (with and without SGX)
# ---------------------------------------------------------------------------
@experiment("fig6", "Fig. 6: ResultStore throughput", [
    Column("size_bytes", "size", cell=size_cell("size_bytes")),
    Column("use_sgx", "SGX", cell=lambda r: "yes" if r["use_sgx"] else "no"),
    Column("put_total_sim_s", "PUT total sim(s)", probe=lambda d: d["put"].app_s),
    Column("get_total_sim_s", "GET total sim(s)", probe=lambda d: d["get"].app_s),
    Column("put_total_wall_s", "PUT wall(s)", probe=lambda d: d["put"].wall_s),
    Column("get_total_wall_s", "GET wall(s)", probe=lambda d: d["get"].wall_s),
    Column("ops", "ops"),
], full=dict(sizes=[1 * KB, 10 * KB, 100 * KB, 1 * MB], ops=100),
   quick=dict(sizes=[KB, 10 * KB], ops=20))
def run_fig6(sizes: list[int], ops: int, seed: int = 13):
    """Fig. 6: time to process ``ops`` PUTs and GETs of each size, with
    the store enclave enabled and disabled ("the incoming data are all
    different")."""
    for use_sgx in (True, False):
        for size in sizes:
            label = bytes([use_sgx]) + size.to_bytes(4, "big")
            d = Deployment(
                seed=b"fig6" + label, store_config=StoreConfig(use_sgx=use_sgx),
            )
            client, enclave = _store_client(d, "fig6-client", sgx=use_sgx)
            drbg = HmacDrbg(seed.to_bytes(4, "big"), b"fig6")
            puts = put_stream(drbg, ops, size, b"fig6-tag" + label, "fig6")

            probe = Probe(d, client=client, enclave=enclave)
            for put in puts:
                client.call(put)
            put_delta = probe.delta()

            probe = Probe(d, client=client, enclave=enclave)
            _get_all(client, _gets(puts))
            yield dict(size_bytes=size, use_sgx=use_sgx, ops=ops,
                       probe={"put": put_delta, "get": probe.delta()})


# ---------------------------------------------------------------------------
# Ablation A1 — result-protection schemes
# ---------------------------------------------------------------------------
@experiment("a1", "Ablation A1: result-protection schemes", [
    Column("scheme", "scheme"),
    Column("sim_init_s", "init sim(s)"),
    Column("sim_subsq_s", "subsq sim(s)"),
    Column("encrypted_at_rest", "encrypted at rest", cell=yes_cell("encrypted_at_rest")),
], full=dict(text_bytes=64 * KB), quick=dict(text_bytes=16 * KB))
def run_ablation_schemes(text_bytes: int, seed: int = 17):
    """A1: cross-app RCE vs single-key (§III-B) vs UNIC plaintext."""
    from ..apps.compress import deflate

    data = synthetic_text(text_bytes, seed=seed)
    for name, config_factory in (
        ("cross-app (III-C)", lambda: RuntimeConfig(app_id="a", async_put=False)),
        ("single-key (III-B)", lambda: single_key_runtime_config("a")),
    ):
        case = compress_case_study()
        d = Deployment(seed=b"a1" + name.encode())
        sims = []
        for app_name in ("a1-app1", "a1-app2"):
            config = config_factory()
            config.async_put = False  # the initial computation includes its PUT
            app = _case_app(case, d, app_name, config)
            case.deduplicable(app)(data)
            sims.append(app.runtime.stats.records[-1].sim_seconds)
        yield dict(scheme=name, sim_init_s=sims[0], sim_subsq_s=sims[1],
                   encrypted_at_rest=True)

    # UNIC plaintext baseline.
    clock = SimClock()
    unic = UnicRuntime(
        UnicStore(mac_key=b"\x01" * 32), deflate,
        encode=lambda b: b, decode=lambda b: b,
        clock=clock, native_factor=300.0,
    )
    _, init, _ = timed(lambda: unic.call(data, data), clock)
    _, subsq, _ = timed(lambda: unic.call(data, data), clock)
    yield dict(scheme="UNIC plaintext [16]", sim_init_s=init, sim_subsq_s=subsq,
               encrypted_at_rest=False)


# ---------------------------------------------------------------------------
# Ablation A2 — synchronous vs asynchronous PUT
# ---------------------------------------------------------------------------
@experiment("a2", "Ablation A2: PUT on/off the critical path", [
    Column("mode", "mode"),
    Column("sim_init_latency_s", "init latency sim(s)"),
], full=dict(text_bytes=64 * KB), quick=dict(text_bytes=16 * KB))
def run_ablation_async_put(text_bytes: int, seed: int = 19):
    """A2: initial-computation latency with sync vs async PUT (§V-B)."""
    data = synthetic_text(text_bytes, seed=seed)
    for mode, async_put in (("sync PUT", False), ("async PUT", True)):
        case = compress_case_study()
        app = _case_app(
            case, Deployment(seed=b"a2" + mode.encode()), "a2-app",
            RuntimeConfig(app_id="a2-app", async_put=async_put),
        )
        case.deduplicable(app)(data)
        latency = app.runtime.stats.records[-1].sim_seconds
        app.runtime.flush_puts()
        yield dict(mode=mode, sim_init_latency_s=latency)


# ---------------------------------------------------------------------------
# Ablation A3 — metadata-outside vs results-inside EPC
# ---------------------------------------------------------------------------
@experiment("a3", "Ablation A3: EPC pressure (GET sweep)", [
    Column("design", "design"),
    Column("entries", "entries"),
    Column("result_bytes", "result size", cell=size_cell("result_bytes")),
    Column("page_faults", "page faults", probe=lambda d: d.faults),
    Column("sim_total_s", "GET total sim(s)", probe=lambda d: d.app_s),
], full=dict(n_entries=256, result_bytes=64 * KB), quick=dict(n_entries=128))
def run_ablation_epc(n_entries: int, result_bytes: int, epc_usable: int = 4 * MB,
                     seed: int = 23):
    """A3: why the paper stores ciphertexts outside the enclave.

    Fills a store whose EPC is deliberately small, then sweeps GETs; the
    blobs-in-EPC variant thrashes while the paper's design stays flat.
    """
    for design, blobs_in_epc in (("metadata-only in EPC (paper)", False),
                                 ("results inside EPC", True)):
        d = Deployment(
            seed=b"a3" + design.encode(),
            store_config=StoreConfig(use_sgx=True, blobs_in_epc=blobs_in_epc),
            epc_usable_bytes=epc_usable,
        )
        client, enclave = _store_client(d, "a3-client")
        drbg = HmacDrbg(seed.to_bytes(4, "big"), b"a3")
        puts = put_stream(drbg, n_entries, result_bytes, b"a3" + design.encode(),
                          "a3", block_bytes=1024)
        for put in puts:
            client.call(put)
        probe = Probe(d, client=client, enclave=enclave)
        _get_all(client, _gets(puts))
        yield dict(design=design, entries=n_entries, result_bytes=result_bytes,
                   probe=probe.delta())


# ---------------------------------------------------------------------------
# Ablation A4 — DoS quota under a PUT flood
# ---------------------------------------------------------------------------
@experiment("a4", "Ablation A4: PUT-flood DoS vs quota", [
    Column("policy", "policy"),
    Column("flood_puts", "flood PUTs"),
    Column("accepted_from_attacker", "accepted from attacker"),
    Column("honest_entries_surviving", "honest entries surviving"),
], full=dict(flood=200, honest=20))
def run_ablation_quota(flood: int, honest: int, seed: int = 29):
    """A4: a malicious app floods PUTs; quotas cap the damage (§III-D)."""
    from ..store.quota import QuotaPolicy

    for policy_name, quota in (
        ("no quota", None),
        ("quota: 32 entries/app", QuotaPolicy(max_entries_per_app=32)),
    ):
        d = Deployment(
            seed=b"a4" + policy_name.encode(),
            store_config=StoreConfig(
                use_sgx=True, capacity_entries=128, eviction="lru", quota=quota
            ),
        )
        honest_client, _ = _store_client(d, "a4-honest")
        attacker_client, _ = _store_client(d, "a4-attacker")
        drbg = HmacDrbg(seed.to_bytes(4, "big"), b"a4")
        kept = put_stream(drbg, honest, 256, b"a4-honest" + policy_name.encode(),
                          "honest")
        for put in kept:
            honest_client.call(put)
        for put in put_stream(drbg, flood, 256, b"a4-flood" + policy_name.encode(),
                              "attacker"):
            attacker_client.send_oneway(put)
        accepted = sum(
            1 for response in attacker_client.drain_responses()
            if getattr(response, "accepted", False)
        )
        yield dict(
            policy=policy_name, flood_puts=flood, accepted_from_attacker=accepted,
            honest_entries_surviving=sum(1 for p in kept if d.store.contains(p.tag)),
        )


# ---------------------------------------------------------------------------
# Ablation A5 — adaptive deduplication strategy (paper §VII future work)
# ---------------------------------------------------------------------------
@experiment("a5", "Ablation A5: adaptive deduplication strategy", [
    Column("policy", "policy"),
    Column("workload", "workload"),
    Column("calls", "calls"),
    Column("store_gets", "store GETs", probe=lambda d: d.counters["store.gets"]),
    Column("sim_total_s", "total sim(s)", probe=lambda d: d.app_s),
], full=dict(calls=40), quick=dict(calls=20))
def run_ablation_adaptive(calls: int, seed: int = 31):
    """A5: the adaptive policy suppresses lookups on workloads where
    deduplication does not pay, and leaves profitable workloads alone."""
    from ..core.adaptive import AdaptiveDedupPolicy

    workloads = {
        # A trivially fast function over all-unique inputs: dedup never pays.
        "cheap+unique": lambda i: synthetic_text(256, seed=seed + i),
        # An expensive function over a highly repetitive stream: dedup wins.
        "slow+repetitive": lambda i: synthetic_text(64 * KB, seed=seed + (i % 3)),
    }
    for policy_name, make_policy in (
        ("always-on", lambda: None),
        ("adaptive", lambda: AdaptiveDedupPolicy(min_observations=6, probe_interval=20)),
    ):
        for workload_name, make_input in workloads.items():
            case = compress_case_study()
            d = Deployment(seed=b"a5" + policy_name.encode() + workload_name.encode())
            app = _case_app(
                case, d, "a5-app",
                RuntimeConfig(app_id="a5-app", adaptive=make_policy()),
            )
            dedup = case.deduplicable(app)
            probe = Probe(d, runtime=app.runtime)
            for i in range(calls):
                dedup(make_input(i))
                app.runtime.flush_puts()
            yield dict(policy=policy_name, workload=workload_name, calls=calls,
                       probe=probe.delta())


# ---------------------------------------------------------------------------
# Ablation A6 — oblivious metadata access (Path ORAM, paper §III-D)
# ---------------------------------------------------------------------------
@experiment("a6", "Ablation A6: oblivious metadata access", [
    Column("design", "design"),
    Column("ops", "GET ops"),
    Column("sim_total_s", "total sim(s)", probe=lambda d: d.app_s),
    Column("oram_accesses", "ORAM path accesses"),
], full=dict(n_entries=64, gets=128), quick=dict(n_entries=32, gets=64))
def run_ablation_oblivious(n_entries: int, gets: int, seed: int = 37):
    """A6: the overhead of hiding the metadata access pattern.

    Fills a store and replays a GET workload against the plain dictionary
    and the Path-ORAM dictionary; the difference is the "extra overhead"
    the paper anticipated when discussing oblivious memory access.
    """
    for design, oblivious in (("plain dictionary (paper)", False),
                              ("Path ORAM metadata", True)):
        d = Deployment(
            seed=b"a6" + design.encode(),
            store_config=StoreConfig(
                oblivious_metadata=oblivious,
                oblivious_capacity=max(256, 2 * n_entries),
            ),
        )
        client, enclave = _store_client(d, "a6-client")
        drbg = HmacDrbg(seed.to_bytes(4, "big"), b"a6")
        puts = put_stream(drbg, n_entries, 1024, b"a6" + design.encode(), "a6")
        for put in puts:
            client.call(put)
        lookups = _gets(puts)
        probe = Probe(d, client=client, enclave=enclave)
        _get_all(client, [lookups[i % n_entries] for i in range(gets)])
        yield dict(design=design, ops=gets, probe=probe.delta(),
                   oram_accesses=d.store._dict.oram.accesses if oblivious else 0)


# ---------------------------------------------------------------------------
# Ablation A7 — switchless (hot) calls vs classic transitions
# ---------------------------------------------------------------------------
@experiment("a7", "Ablation A7: switchless calls (HotCalls/Eleos mitigation)", [
    Column("mode", "mode"),
    Column("size_bytes", "size", cell=size_cell("size_bytes")),
    Column("get_total_sim_s", "GET total sim(s)", probe=lambda d: d.app_s),
    Column("ops", "ops"),
], full=dict(ops=50), quick=dict(ops=20))
def run_ablation_switchless(ops: int, sizes: tuple[int, ...] = (1 * KB, 10 * KB),
                            seed: int = 47):
    """A7: the SS V-B mitigation — replace ECALL/OCALL transitions with
    HotCalls-style shared-buffer calls and re-measure the store's GET
    path (the Fig. 6 regime where transition cost dominates)."""
    for mode, switchless in (("classic ECALL/OCALL", False), ("switchless (HotCalls)", True)):
        for size in sizes:
            d = Deployment(
                seed=b"a7" + mode.encode() + size.to_bytes(4, "big"),
                cost_params=CostParams(switchless=switchless),
            )
            client, enclave = _store_client(d, "a7-client")
            drbg = HmacDrbg(seed.to_bytes(4, "big"), b"a7")
            # Stored results are whole 4 KiB blocks (the 10 KB level
            # stores 8 KiB): the figures were recorded that way, and the
            # transition saving under test does not depend on the size.
            stored = min(size, 4096) * max(1, size // 4096)
            puts = put_stream(
                drbg, ops, stored,
                b"a7" + bytes([switchless]) + size.to_bytes(4, "big"), "a7",
            )
            for put in puts:
                client.call(put)
            probe = Probe(d, client=client, enclave=enclave)
            _get_all(client, _gets(puts))
            yield dict(mode=mode, size_bytes=size, ops=ops, probe=probe.delta())


# ---------------------------------------------------------------------------
# E9 — incremental processing (the introduction's motivating workload)
# ---------------------------------------------------------------------------
@experiment("e9", "E9: incremental re-crawl processing", [
    Column("epoch", "epoch"),
    Column("pages", "pages"),
    Column("new_pages", "new pages"),
    Column("hit_rate", "hit rate", cell=percent_cell("hit_rate")),
    Column("sim_epoch_s", "epoch sim(s)", probe=lambda d: d.app_s),
], full=dict(epochs=4), quick=dict(epochs=3))
def run_incremental(epochs: int, pages_per_epoch: int = 12, churn: float = 0.25,
                    seed: int = 41):
    """E9: "incrementally updated datasets are constantly being processed
    by the same or similar computing tasks" (§I).  Re-crawl a page set
    whose content churns by ``churn`` per epoch; the hit rate climbs to
    ``1 - churn`` and the per-epoch cost collapses accordingly."""
    case = bow_case_study()
    d = Deployment(seed=b"e9-incremental")
    app = _case_app(case, d, "crawler")
    dedup = case.deduplicable(app)

    corpus = [synthetic_webpage(600, seed=seed + i) for i in range(pages_per_epoch)]
    next_fresh = pages_per_epoch
    for epoch in range(epochs):
        if epoch > 0:
            n_churn = max(1, int(churn * pages_per_epoch))
            for slot in range(n_churn):
                corpus[(epoch * 7 + slot) % pages_per_epoch] = synthetic_webpage(
                    600, seed=seed + next_fresh
                )
                next_fresh += 1
        probe = Probe(d, runtime=app.runtime)
        for page in corpus:
            dedup(page)
            app.runtime.flush_puts()
        delta = probe.delta()
        hits = delta.counters["runtime.hits"]
        yield dict(epoch=epoch, pages=pages_per_epoch,
                   new_pages=pages_per_epoch - hits,
                   hit_rate=hits / pages_per_epoch, probe=delta)


# ---------------------------------------------------------------------------
# E10 — speedup as a function of workload duplication ratio
# ---------------------------------------------------------------------------
@experiment("e10", "E10: speedup vs workload duplication ratio", [
    Column("duplicate_fraction", "dup fraction", cell=percent_cell("duplicate_fraction")),
    Column("calls", "calls"),
    Column("hit_rate", "hit rate", cell=percent_cell("hit_rate")),
    Column("sim_total_s", "SPEED sim(s)", probe=lambda d: d["speed"].app_s),
    Column("sim_baseline_s", "baseline sim(s)", probe=lambda d: d["base"].app_s),
    Column("speedup", "speedup", derive=_ratio("sim_baseline_s", "sim_total_s", INF)),
], full=dict(fractions=[0.0, 0.25, 0.5, 0.75, 0.9], calls=24, text_bytes=32 * KB),
   quick=dict(fractions=[0.0, 0.5, 0.9], calls=12, text_bytes=8 * KB))
def run_duplication_sweep(fractions: list[float], calls: int, text_bytes: int,
                          seed: int = 43):
    """E10: how much duplication a workload needs before SPEED pays.

    Generalises Fig. 5: instead of a guaranteed-hit second call, run a
    realistic stream whose duplicate fraction varies and report the
    end-to-end speedup over the no-SPEED baseline.
    """
    for fraction in fractions:
        corpus = text_corpus(calls, text_bytes, duplicate_fraction=fraction,
                             seed=seed)

        def run(config: RuntimeConfig):
            case = compress_case_study()
            d = Deployment(seed=b"e10-%d" % int(fraction * 100))
            app = _case_app(case, d, "app", config)
            dedup = case.deduplicable(app)
            probe = Probe(d, runtime=app.runtime)
            for doc in corpus:
                dedup(doc)
                app.runtime.flush_puts()
            return probe.delta(), app.runtime.stats.hit_rate()

        speed, hit_rate = run(RuntimeConfig(app_id="speed"))
        base, _ = run(no_dedup_runtime_config("base"))
        yield dict(duplicate_fraction=fraction, calls=calls, hit_rate=hit_rate,
                   probe={"speed": speed, "base": base})


# ---------------------------------------------------------------------------
# Batch — amortizing transitions/records across calls (the batched pipeline)
# ---------------------------------------------------------------------------
def _chunks(seq: list, size: int) -> list[list]:
    return [seq[i:i + size] for i in range(0, len(seq), size)]


@experiment("batch", "Batch: amortized transitions and records", [
    Column("phase", "phase"),
    Column("batch_size", "batch"),
    Column("ops", "ops"),
    Column("size_bytes", "size", cell=size_cell("size_bytes")),
    # Enclave crossings entered across the whole deployment (application
    # + store enclaves), and records the client sealed.
    Column("transitions", probe=lambda d: d.transitions),
    Column("channel_records", probe=lambda d: d.records),
    Column("sim_total_s", probe=lambda d: d.app_s),
    Column("wall_total_s", probe=lambda d: d.wall_s),
    Column("transitions_per_call", "trans/call", derive=_ratio("transitions", "ops")),
    Column("records_per_call", "rec/call", derive=_ratio("channel_records", "ops")),
    Column("sim_ops_per_s", "sim ops/s", derive=_ratio("ops", "sim_total_s", INF)),
    Column("wall_ops_per_s", "wall ops/s", derive=_ratio("ops", "wall_total_s", INF)),
    # True when the phase's results matched the sequential reference
    # bit-for-bit (the store-level phases check their own responses).
    Column("identical", "identical", cell=yes_cell("identical")),
    # {span name: {count, sim_s, wall_s}} attributed to this row's
    # request loop by the deployment's tracer.
    Column("phase_breakdown", probe=lambda d: d.phases),
], full=dict(batch_sizes=[1, 4, 16, 64, 128], ops=128,
             execute_batch_sizes=[8], calls=24, text_bytes=8 * KB),
   quick=dict(batch_sizes=[1, 4, 16], ops=32,
              execute_batch_sizes=[4], calls=8, text_bytes=4 * KB))
def run_batch(batch_sizes: list[int], ops: int, execute_batch_sizes: list[int],
              calls: int, text_bytes: int, size_bytes: int = 1 * KB, seed: int = 53):
    """The batching experiment: a store-level GET/PUT sweep in the
    Fig. 6 regime, then a Fig. 5-style rerun through ``execute_many``."""
    yield from run_batch_store(batch_sizes, ops, size_bytes, seed)
    yield from run_batch_execute(execute_batch_sizes, calls, text_bytes, seed=seed + 6)


def run_batch_store(batch_sizes: list[int], ops: int, size_bytes: int, seed: int):
    """``ops`` PUTs then ``ops`` GETs against the SGX-backed store, issued
    in batches of each sweep size.  Batch size 1 uses the plain per-item
    wire path, so it is the unbatched baseline."""
    for batch in batch_sizes:
        d = Deployment(
            seed=b"batch-store" + batch.to_bytes(4, "big"),
            store_config=StoreConfig(use_sgx=True),
            tracer=Tracer(),
        )
        client, enclave = _store_client(d, "batch-client")
        drbg = HmacDrbg(seed.to_bytes(4, "big"), b"batch")
        puts = put_stream(drbg, ops, size_bytes,
                          b"batch-tag" + batch.to_bytes(4, "big"), "batch")
        for phase, requests in (("put", puts), ("get", _gets(puts))):
            probe = Probe(d, client=client, enclave=enclave)
            for chunk in _chunks(requests, batch):
                responses = (
                    [client.call(chunk[0])] if len(chunk) == 1
                    else client.call_batch(chunk)
                )
                if phase == "get" and not all(r.found for r in responses):
                    raise SpeedError("a result stored by this run was not found")
            yield dict(phase=phase, batch_size=batch, ops=ops, size_bytes=size_bytes,
                       identical=True, probe=probe.delta())


def run_batch_execute(batch_sizes: list[int], calls: int, text_bytes: int,
                      duplicate_fraction: float = 0.5, seed: int = 59):
    """Fig. 5-style rerun through :meth:`DedupRuntime.execute_many`.

    A sequential reference processes the corpus one :meth:`execute` at a
    time; the batched runs chunk the same corpus through ``execute_many``
    (with the L1 cache serving intra-batch duplicates, at each of
    ``batch_sizes`` and at the whole corpus) and must produce
    bit-identical results."""
    corpus = text_corpus(calls, text_bytes, duplicate_fraction=duplicate_fraction,
                         seed=seed)
    case = compress_case_study()
    runs = [("execute-seq", 1, b"/seq", {})] + [
        ("execute-batch", batch, b"/b" + batch.to_bytes(4, "big"),
         {"l1_cache_entries": 4 * calls})
        for batch in sorted({b for b in batch_sizes if 1 < b <= calls} | {calls})
    ]
    reference = None
    for phase, batch, seed_tag, l1 in runs:
        d = Deployment(seed=b"batch-exec" + seed_tag, tracer=Tracer())
        app = _case_app(case, d, "batch-app", RuntimeConfig(app_id="batch-app", **l1))
        dedup = case.deduplicable(app)
        probe = Probe(d, runtime=app.runtime)
        results = []
        for chunk in _chunks(corpus, batch):
            if batch == 1:  # the sequential reference: one execute per document
                results.append(dedup(chunk[0]))
            else:
                results.extend(app.runtime.execute_many(
                    case.description, chunk,
                    input_parser=case.input_parser,
                    result_parser=case.result_parser,
                    native_factor=case.native_factor,
                ))
            app.runtime.flush_puts()
        delta = probe.delta()
        reference = reference or results
        yield dict(phase=phase, batch_size=batch, ops=calls, size_bytes=text_bytes,
                   identical=results == reference, probe=delta)


# ---------------------------------------------------------------------------
# Cluster — sharded ResultStore scaling and failover
# ---------------------------------------------------------------------------
def _cluster_phase(d, router, enclave, requests: list, expect_found: bool):
    """Run one request phase; returns ``(delta, GETs that found nothing)``."""
    probe = Probe(d, client=router, enclave=enclave)
    lost = 0
    for request in requests:
        response = router.call(request)
        if expect_found and not response.found:
            lost += 1
    return probe.delta(), lost


@experiment("cluster", "Cluster: sharded ResultStore throughput and failover", [
    Column("phase", "phase"),  # put | get | failover-get | repair-get
    Column("n_shards", "shards"),
    Column("replication_factor", "RF"),
    Column("ops", "ops"),
    Column("size_bytes"),
    # The store-side bottleneck is what the cluster's throughput is made
    # of; the app machine's own advance is reported alongside (it is
    # workload-bound and flat across shard counts).
    Column("bottleneck_sim_s", "bottleneck sim(s)", probe=lambda d: d.bottleneck_s),
    Column("client_sim_s", probe=lambda d: d.app_s),
    Column("wall_total_s", probe=lambda d: d.wall_s),
    Column("sim_ops_per_s", "sim ops/s", derive=_ratio("ops", "bottleneck_sim_s", INF)),
    Column("baseline_sim_s"),  # same-phase 1-shard RF-1 bottleneck time
    Column("speedup", "speedup", derive=_ratio("baseline_sim_s", "bottleneck_sim_s"),
           cell=lambda r: f"{r['speedup']:.2f}x" if r["speedup"] else "-"),
    Column("failovers", "failovers", probe=lambda d: d.counters["router.failovers"]),
    Column("read_repairs", "repairs", probe=lambda d: d.counters["router.read_repairs"]),
    Column("results_lost", "lost"),  # GETs that found nothing (should be 0)
    Column("phase_breakdown", probe=lambda d: d.phases),
], full=dict(shard_counts=[1, 2, 4, 8], ops=96), quick=dict(shard_counts=[1, 2, 4], ops=32))
def run_cluster(shard_counts: list[int], ops: int,
                replication_factors: tuple[int, ...] = (1, 2),
                size_bytes: int = 1 * KB, seed: int = 61):
    """Cluster scaling sweep plus a failover run, Fig. 6 regime.

    The sweep drives ``ops`` PUTs then ``ops`` GETs of all-different
    items through a :class:`~repro.deployment.ClusterDeployment` at each
    (shard count, replication factor); the single-shard RF-1 run *is*
    the single-store baseline (same code path, one shard owning the
    whole ring).  The failover run then kills one of four shards mid
    write stream and shows reads surviving on replicas with zero loss,
    and read-repair refilling the shard after it revives.
    """
    def cluster(seed_tag: bytes, label: bytes, n: int, rf: int):
        d = ClusterDeployment(
            seed=seed_tag, n_shards=n, replication_factor=rf, tracer=Tracer(),
        )
        enclave = d.platform.create_enclave("cluster-bench", b"cluster-bench-code")
        drbg = HmacDrbg(seed.to_bytes(4, "big"), b"cluster" + label)
        puts = put_stream(drbg, ops, size_bytes, b"cluster-tag" + label,
                          "cluster-bench")
        return d, d.cluster.connect("cluster-bench", enclave), enclave, puts

    def row(phase: str, d, delta, lost: int, baseline: float = 0.0) -> dict:
        return dict(phase=phase, n_shards=len(d.cluster.shards),
                    replication_factor=d.cluster.config.replication_factor,
                    ops=ops, size_bytes=size_bytes, results_lost=lost,
                    baseline_sim_s=baseline, probe=delta)

    configs = [
        (n, rf)
        for rf in sorted(replication_factors)
        for n in sorted(shard_counts)
        if rf <= n
    ]
    if (1, 1) in configs:  # baseline first so later rows can reference it
        configs.remove((1, 1))
    configs.insert(0, (1, 1))

    baselines: dict[str, float] = {}
    for n, rf in configs:
        label = bytes([n, rf])
        d, router, enclave, puts = cluster(b"bench-cluster" + label, label, n, rf)
        for phase, requests in (("put", puts), ("get", _gets(puts))):
            delta, lost = _cluster_phase(d, router, enclave, requests, phase == "get")
            if (n, rf) == (1, 1):
                baselines[phase] = delta.bottleneck_s
            yield row(phase, d, delta, lost, baselines[phase])

    # Failover: 4 shards, RF 2; shard-0 dies after half the writes.
    d, router, enclave, puts = cluster(b"bench-cluster-failover", b"failover", 4, 2)
    for put in puts[: ops // 2]:
        router.call(put)
    d.cluster.kill_shard("shard-0")
    for put in puts[ops // 2:]:
        router.call(put)
    yield row("failover-get", d, *_cluster_phase(d, router, enclave, _gets(puts), True))
    d.cluster.revive_shard("shard-0")
    yield row("repair-get", d, *_cluster_phase(d, router, enclave, _gets(puts), True))
    router.drain_responses()  # absorb the read-repair acks


# ---------------------------------------------------------------------------
# Pipeline — concurrent pipelined execution engine (engine.py)
# ---------------------------------------------------------------------------
def _pipeline_inputs(ops: int, seed: int) -> list[bytes]:
    return [
        (seed * 100_000 + i).to_bytes(4, "big") * 64  # 256 B, all distinct
        for i in range(ops)
    ]


def _replay(session, description, inputs: list, engine=None):
    """One batch through ``session``; returns ``(delta, result values)``."""
    probe = Probe(session.deployment, runtime=session.runtime, engine=engine)
    results = session.execute_many_results(description, inputs)
    return probe.delta(), [r.value for r in results]


@experiment("pipeline", "Pipeline: multi-slot engine speedup and single-flight coalescing", [
    Column("phase", "phase"),  # get-heavy | coalesce
    Column("n_shards", "shards"),
    # Engine depth (0 = serial client, no engine).
    Column("depth", "depth", cell=lambda r: r["depth"] or "-"),
    Column("workers", "workers"),
    Column("ops", "ops"),
    Column("elapsed_sim_s", "elapsed sim(s)", probe=lambda d: d.machines_s),
    Column("serial_sim_s"),  # same workload through the serial client
    Column("wall_total_s", probe=lambda d: d.wall_s),
    Column("sim_ops_per_s", "sim ops/s", derive=_ratio("ops", "elapsed_sim_s", INF)),
    # Throughput relative to the serial client on the same topology.
    Column("speedup", "speedup", derive=_ratio("serial_sim_s", "elapsed_sim_s"),
           cell=lambda r: f"{r['speedup']:.2f}x" if r["depth"] else "-"),
    # Results byte-identical to the serial run.
    Column("identical", "identical", cell=yes_cell("identical")),
    Column("hits", "hits", probe=lambda d: d.counters["runtime.hits"]),
    Column("misses", "misses", probe=lambda d: d.counters["runtime.misses"]),
    Column("degraded", "degraded", probe=lambda d: d.counters["runtime.degraded_calls"]),
    # Calls served by single-flight coalescing, and the GET lookups the
    # shard stores actually served.
    Column("coalesced", "coalesced", probe=lambda d: d.counters["runtime.coalesced_hits"]),
    Column("store_gets", "store gets", probe=lambda d: d.counters["store.gets"]),
], full=dict(depths=[1, 4, 8, 16], ops=48, duplicates=16),
   quick=dict(depths=[1, 8], ops=24, duplicates=8))
def run_pipeline(depths: list[int], ops: int, duplicates: int,
                 shard_counts: tuple[int, ...] = (1, 4), workers: int = 4,
                 seed: int = 71):
    """Pipelined execution engine sweep (GET-heavy) plus a coalescing run.

    For each shard count a writer warms the cluster, then sibling
    applications replay the same all-distinct batch: once through the
    serial client (the ``depth=0`` row and the baseline for ``speedup``)
    and once per engine depth with multi-slot pipelining on.  Results
    must stay byte-identical and the hit/miss/degraded totals must not
    move.  The final ``coalesce`` rows replay one warm tag
    ``duplicates`` times in a single batch: the serial client pays one
    store GET per call while the engine's single-flight mode takes
    exactly one round trip and serves the rest as coalesced hits.
    """
    from ..session import connect

    # Defined here, not at module level: its qualified name is part of
    # every tag (see _regenerated_as below), and so of the placement the
    # recorded depth x shards figures were regenerated under.
    def pipeline_kernel(data: bytes) -> bytes:
        return bytes(b ^ 0x5A for b in data)

    def compare(phase: str, n_shards: int, seed_tag: bytes, warm: list, inputs: list,
                readers: dict):
        writer = connect(shards=n_shards, replication_factor=1, seed=seed_tag,
                         tracing=False)
        kernel = writer.mark(version="1.0")(pipeline_kernel)
        kernel.map(warm)
        writer.flush_puts()
        serial_s = base_values = None
        for depth, name in readers.items():
            reader = writer.sibling(name)
            engine = reader.enable_pipeline(depth=depth, workers=workers) if depth else None
            delta, values = _replay(reader, kernel.description, inputs, engine)
            if not depth:
                serial_s, base_values = delta.machines_s, values
            yield dict(phase=phase, n_shards=n_shards, depth=depth,
                       workers=workers if depth else 1, ops=len(inputs),
                       serial_sim_s=serial_s, identical=values == base_values,
                       probe=delta)

    inputs = _pipeline_inputs(ops, seed)
    for n_shards in sorted(shard_counts):
        yield from compare(
            "get-heavy", n_shards, b"bench-pipeline" + bytes([n_shards]), inputs, inputs,
            {0: "serial-reader", **{d: f"reader-depth{d}" for d in sorted(depths)}},
        )
    # Coalescing: one warm tag hit `duplicates` times in a single batch.
    burst = [_pipeline_inputs(1, seed + 1)[0]] * duplicates
    yield from compare("coalesce", 4, b"bench-pipeline-coalesce", burst[:1], burst,
                       {0: "coalesce-serial", 8: "coalesce-reader"})


# ---------------------------------------------------------------------------
# Durable — WAL logging overhead and power-fail recovery (repro.durable)
# ---------------------------------------------------------------------------
def _by_phase(readings: dict):
    """A probed column whose reading depends on the phase: the runner
    hands ``{phase: delta}``, and phases not named here report 0.0."""
    def read(deltas: dict) -> float:
        (phase, delta), = deltas.items()
        return readings[phase](delta) if phase in readings else 0.0
    return read


def _durable_session(group_commit: int, seed_tag: bytes, durable: bool = True):
    """One single-shard cluster session (the store on its own machine, so
    the shard clock isolates the PUT-path cost) with an effectively
    infinite checkpoint interval: the sweep measures pure logging and
    pure replay, not checkpoint scheduling."""
    from ..session import connect

    config = StoreConfig(
        durable=True, wal_group_commit=group_commit,
        checkpoint_interval=1 << 30,
    ) if durable else StoreConfig()
    return connect(
        shards=1, replication_factor=1, seed=seed_tag,
        tracing=False, store_config=config,
    )


def _durable_fill(session, ops: int, payload_bytes: int):
    """Drive ``ops`` distinct-input calls through the PUT path; returns
    ``(delta, what the shard's WAL holds afterwards)``."""

    @session.mark(version="1.0")
    def durable_kernel(data: bytes) -> bytes:
        return bytes(b ^ 0xA5 for b in data)

    inputs = [
        i.to_bytes(4, "big") * (payload_bytes // 4) for i in range(ops)
    ]
    probe = Probe(session.deployment)
    durable_kernel.map(inputs)
    session.flush_puts()
    delta = probe.delta()
    (node,) = session.cluster.shards.values()
    log = node.store.durable
    return delta, dict(
        wal_records=log.records_logged if log else 0,
        wal_segments=len(log.segments) if log else 0,
        log_bytes=log.log_bytes if log else 0,
    )


@experiment("durable", "Durable: WAL logging overhead and power-fail recovery", [
    Column("phase", "phase"),  # overhead | recovery
    # WAL group-commit size (0 = durability off).
    Column("group_commit", "group", cell=lambda r: r["group_commit"] or "-"),
    Column("ops", "ops"),  # distinct PUT-path calls driven through the store
    Column("store_sim_s", "store sim(s)",
           probe=_by_phase({"overhead": lambda d: d.shards_s})),
    Column("baseline_sim_s"),  # same workload with durability off
    # Logging overhead relative to the non-durable PUT path.
    Column("overhead_pct", "overhead",
           derive=lambda r: 100.0 * (r["store_sim_s"] - r["baseline_sim_s"])
           / r["baseline_sim_s"] if r["baseline_sim_s"] > 0 else 0.0,
           cell=lambda r: f"{r['overhead_pct']:+.1f}%" if r["group_commit"] else "-"),
    Column("wal_records", "records"),
    Column("wal_segments", "segments"),
    Column("log_bytes", "log bytes"),
    # Shard seconds for power_fail + WAL recovery.
    Column("recovery_sim_s", "recovery sim(s)",
           probe=_by_phase({"recovery": lambda d: d.shards_s}),
           cell=lambda r: r["recovery_sim_s"] if r["phase"] == "recovery" else "-"),
    Column("records_replayed", "replayed"),
    Column("entries_restored", "restored"),
    Column("recovery_us_per_record", "us/record",
           derive=lambda r: 1e6 * r["recovery_sim_s"] / r["records_replayed"]
           if r["records_replayed"] else 0.0,
           cell=lambda r: f"{r['recovery_us_per_record']:.1f}"
           if r["phase"] == "recovery" else "-"),
], full=dict(group_commits=[1, 4, 8, 16, 32], log_lengths=[16, 64, 256], ops=48),
   quick=dict(group_commits=[1, 8], log_lengths=[16, 64], ops=24))
def run_durable(group_commits: list[int], log_lengths: list[int], ops: int,
                payload_bytes: int = KB, seed: int = 83):
    """Durability sweep (``repro.durable``), two phases.

    **overhead** — the same all-distinct PUT workload runs once with
    durability off (the ``group_commit=0`` baseline row) and once per
    WAL group-commit size; ``overhead_pct`` is the shard machine's extra
    virtual-clock cost for sealing the log.  Small groups pay the seal's
    fixed AEAD cost per record; larger groups amortize it.

    **recovery** — per log length L, a durable store is filled with L
    entries, power-failed (volatile state wiped), and recovered from
    its WAL alone; ``recovery_sim_s`` against ``records_replayed``
    shows replay scaling ~linearly in the log length.
    """
    def row(phase: str, group: int, n: int, delta, wal: dict, baseline: float = 0.0,
            report=None) -> dict:
        return dict(
            phase=phase, group_commit=group, ops=n, baseline_sim_s=baseline, **wal,
            records_replayed=report.records_replayed if report else 0,
            # With checkpointing disabled for the sweep every restored
            # entry arrives via replay, not the checkpoint image.
            entries_restored=(report.entries_restored + report.puts_replayed
                              if report else 0),
            probe={phase: delta},
        )

    base_tag = b"bench-durable" + bytes([seed % 251])
    delta, wal = _durable_fill(
        _durable_session(8, base_tag + b"/base", durable=False), ops, payload_bytes,
    )
    baseline_s = delta.shards_s
    yield row("overhead", 0, ops, delta, wal, baseline_s)
    for group in sorted(group_commits):
        session = _durable_session(group, base_tag + bytes([group % 251]))
        yield row("overhead", group, ops, *_durable_fill(session, ops, payload_bytes),
                  baseline_s)

    for length in sorted(log_lengths):
        session = _durable_session(8, base_tag + b"/rec" + length.to_bytes(4, "big"))
        _delta, wal = _durable_fill(session, length, 256)
        (shard_id,) = session.cluster.shards
        probe = Probe(session.deployment)
        report = session.power_fail_shard(shard_id)
        yield row("recovery", 8, length, probe.delta(), wal, report=report)


# ---------------------------------------------------------------------------
# The foreground-rounds driver behind E15 (migrate), E16's join phase
# (adaptive) and E17 (reshard)
# ---------------------------------------------------------------------------
def _regenerated_as(qualname: str):
    """A marked function's identity — hence every tag, hence ring
    placement and every makespan below — hashes its module-qualified
    name (``core/decorator.py``).  The three kernels keep the names the
    recorded figures were regenerated under."""
    def pin(func):
        func.__qualname__ = qualname
        return func
    return pin


@_regenerated_as("_migrate_phase.<locals>.migrate_kernel")
def migrate_kernel(data: bytes) -> bytes:
    return bytes(b ^ 0x3C for b in data)


@_regenerated_as("_reshard_phase.<locals>.reshard_kernel")
def reshard_kernel(data: bytes) -> bytes:
    return bytes(b ^ 0x5A for b in data)


@_regenerated_as("run_adaptive.<locals>.join_phase.<locals>.join_kernel")
def join_kernel(data: bytes) -> bytes:
    return bytes(b ^ 0x2D for b in data)


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _window(plan, batch_entries: int):
    """Opens one dual-ownership window applying ``plan``."""
    return lambda cluster, engine: cluster.begin_plan(plan, batch_entries, engine)


def _greedy(migrator, rounds_left: int) -> None:
    """Greedy drain: demand says "everything now" and the engine's
    background budget is the cap — one lane for a single join, one lane
    per gaining shard for a plan."""
    migrator.overlap_steps(1)


def _idle_run() -> dict:
    """What a driver run that drove nothing reports."""
    return dict(windows=0, dual_rounds=0, entries_moved=0, bytes_moved=0, batches=0,
                foreground_stalls=0, round_s=[], values=[], probe=Delta())


def _foreground_rounds(session, kernel, inputs: list[bytes], rounds: int, *,
                       reader: str, windows=(), advance=None,
                       prime: bool = False, **engine_levels) -> dict:
    """Warm a cluster through ``session``, give a sibling ``reader`` a
    pipelined engine (``engine_levels``: the depth), then drive ``rounds``
    foreground GET batches while the overlay reshapes the ring; drain,
    settle, count.

    The overlay is ``windows`` (openers of dual-ownership windows, each
    taken at the start of the first round that finds none open — so N
    windows serialize) and ``advance(migrator, rounds_left)``, run
    between two rounds — :meth:`RangeMigrator.overlap_steps` paces the
    hand-off across the remaining rounds, :func:`_greedy` asks for all
    of it now; a window closes the moment it has drained.
    Windows still open or unopened after the last round finish serially
    — the cost of paying N windows where one would do.

    Latency is the engine's critical-path makespan: migration batches
    that stream as its background lane overlap the foreground (bounded
    by the busiest machine — background work on a shard still serializes
    with that shard's foreground requests), and any un-overlapped
    remainder lands on the critical path in full.
    """
    marked = session.mark(version="1.0")(kernel)
    marked.map(inputs)
    session.flush_puts()
    reader = session.sibling(reader)
    engine = reader.enable_pipeline(**engine_levels)
    description = marked.description
    if prime:  # the adaptive controller converges before the measured rounds
        reader.execute_many_results(description, inputs)
    cluster = session.cluster
    freq = reader.clock.params.cpu_freq_hz
    batch = max(1, len(inputs) // 2)
    unopened = list(windows)
    out = _idle_run()

    def open_next():
        out["windows"] += 1
        return unopened.pop(0)(cluster, engine)

    def close(migrator) -> None:
        migrator.finish()
        out["entries_moved"] += migrator.moved
        out["bytes_moved"] += migrator.bytes_moved
        out["batches"] += migrator.batches
        out["foreground_stalls"] += migrator.stalled_batches

    probe = Probe(reader.deployment, runtime=reader.runtime, engine=engine)
    migrator = None
    for round_index in range(rounds):
        if migrator is None and unopened:
            migrator = open_next()
        if cluster.ring.in_transition:
            out["dual_rounds"] += 1
        offset = (round_index * batch) % len(inputs)
        before = engine.makespan_cycles
        results = reader.execute_many_results(
            description, (inputs + inputs)[offset:offset + batch]
        )
        out["round_s"].append((engine.makespan_cycles - before) / freq)
        out["values"].extend(r.value for r in results)
        if migrator is not None:
            if migrator.pending_ranges():
                advance(migrator, max(1, rounds - 1 - round_index))
            if not migrator.pending_ranges():
                close(migrator)
                migrator = None
    while migrator is not None or unopened:
        migrator = migrator or open_next()
        while migrator.pending_ranges() and migrator.step():
            pass
        close(migrator)
        migrator = None
    # Background work no foreground round overlapped folds in serially.
    engine.settle()
    return dict(out, probe=probe.delta(), engine=engine)


def _topology_session(n_shards: int, seed_tag: bytes, vnodes: int = 4):
    from ..session import connect

    # Non-durable shards: these sweeps measure foreground throughput, not
    # crash-safety (simtest --migrate covers that), so the hand-off marks
    # stay in-memory and the WAL's fsync costs don't mask the comparison.
    return connect(
        shards=n_shards, replication_factor=2, seed=seed_tag,
        tracing=False, vnodes=vnodes,
    )


#: Columns E15 and E17 share.  ``elapsed_sim_s`` is the critical-path
#: makespan of the measured rounds; ``fg_throughput_ratio`` is foreground
#: throughput relative to the phase that changed nothing (1.0 = no
#: slowdown).
def _topology_columns(*between: Column) -> list[Column]:
    return [
        Column("phase", "phase"),
        Column("n_shards", "shards"),  # shard count before the change
        *between,
        Column("ops", "fg ops"),       # foreground GET-path calls served
        Column("rounds"),              # foreground batches driven
        Column("elapsed_sim_s", "elapsed sim(s)", probe=lambda d: d.makespan_s),
        Column("baseline_sim_s"),      # the no-change phase's elapsed_sim_s
    ]


_MOVED_COLUMNS = [
    Column("entries_moved", "moved"),
    Column("bytes_moved", "bytes", cell=size_cell("bytes_moved")),
    Column("batches", "batches"),            # migration batches shipped
    Column("foreground_stalls", "stalls"),   # ... that blocked the foreground
    # Results byte-identical to the phase that changed nothing.
    Column("identical", "identical", cell=yes_cell("identical")),
]


def _topology_row(phase: str, n_shards: int, run: dict, base: dict, **stored) -> dict:
    """One E15/E17 row out of a driver run and the baseline phase's."""
    return dict(
        phase=phase, n_shards=n_shards, ops=len(run["values"]),
        rounds=len(run["round_s"]), baseline_sim_s=base["probe"].makespan_s,
        p50_round_s=_percentile(run["round_s"], 0.50),
        p99_round_s=_percentile(run["round_s"], 0.99),
        identical=run["values"] == base["values"],
        # The run's counters and its probe ride along (``rows`` keeps
        # the declared keys); ``stored`` adds an experiment's own.
        **{**run, **stored},
    )


# ---------------------------------------------------------------------------
# Migrate — foreground throughput while the ring reshards (repro.cluster)
# ---------------------------------------------------------------------------
@experiment("migrate", "Migrate: foreground throughput during an online join", [
    *_topology_columns(),
    Column("fg_ops_per_s", "fg ops/s", derive=_ratio("ops", "elapsed_sim_s"),
           cell=lambda r: f"{r['fg_ops_per_s']:.1f}"),
    Column("fg_throughput_ratio", "vs baseline",
           derive=_ratio("baseline_sim_s", "elapsed_sim_s"),
           cell=times_cell("fg_throughput_ratio")),
    # Median and worst-case-ish per-round foreground sim latency.
    Column("p50_round_s", "p50 round(s)"),
    Column("p99_round_s", "p99 round(s)"),
    *_MOVED_COLUMNS,
], full=dict(ops=48, rounds=16), quick=dict(ops=24, rounds=12))
def run_migrate(ops: int, rounds: int, n_shards: int = 3, batch_entries: int = 8,
                seed: int = 97):
    """Online resharding sweep: foreground throughput during a join.

    Two phases over the same warm GET-heavy workload (``rounds``
    pipelined batches over ``ops`` distinct entries):

    * **baseline** — no topology change; sets the reference throughput.
    * **streaming** — ``Session.add_shard``'s path: the dual-ownership
      window opens and ranges stream across in ``batch_entries``-sized
      batches between foreground rounds, overlapped as the pipeline
      engine's background lane.

    The acceptance bounds (tier-1) are ``fg_throughput_ratio >= 0.70``,
    zero stalled batches and ``p99_round_s`` within 3x of the baseline's
    for the streaming phase.
    """
    base_tag = b"bench-migrate" + bytes([seed % 251])
    inputs = _pipeline_inputs(ops, seed)
    join = _window(TopologyPlan().join(), batch_entries)
    base = None
    for phase, seed_tag, windows in (("baseline", b"/base", []),
                                     ("streaming", b"/streaming", [join])):
        run = _foreground_rounds(
            _topology_session(n_shards, base_tag + seed_tag), migrate_kernel, inputs,
            rounds, reader="migrate-reader", depth=8, workers=4,
            windows=windows, advance=RangeMigrator.overlap_steps,
        )
        base = base or run
        yield _topology_row(phase, n_shards, run, base)


# ---------------------------------------------------------------------------
# Adaptive — AIMD depth control vs the static sweep (engine.py)
# ---------------------------------------------------------------------------
def _controller_stats(engine) -> dict:
    controller = getattr(engine, "controller", None)
    if controller is None:
        depth = engine.config.depth if engine is not None else 0
        return dict(depth_final=depth, depth_changes=0, depth_shrinks=0,
                    depth_caps=0)
    return dict(
        depth_final=controller.depth,
        depth_changes=controller.changes,
        depth_shrinks=controller.shrinks,
        depth_caps=controller.migration_capped,
    )


@experiment("adaptive", "Adaptive: AIMD depth control vs static depths", [
    Column("phase", "phase"),  # get-heavy | join
    Column("n_shards", "shards"),
    Column("depth", "depth"),  # "0" (serial) | static depth | "auto"
    Column("ops", "ops"),      # measured foreground ops
    Column("rounds"),          # measured foreground batches
    # The sweep's rows charge every machine less the engine's overlap;
    # the join rows report the critical path, as E15 does.
    Column("elapsed_sim_s", "elapsed sim(s)", probe=_by_phase({
        "get-heavy": lambda d: d.machines_s, "join": lambda d: d.makespan_s,
    })),
    Column("baseline_sim_s"),  # serial client (sweep) / no-join auto (join)
    Column("sim_ops_per_s", "sim ops/s", derive=_ratio("ops", "elapsed_sim_s", INF),
           cell=lambda r: f"{r['sim_ops_per_s']:.1f}"),
    # Throughput relative to this phase's baseline run.
    Column("vs_baseline", "vs baseline", derive=_ratio("baseline_sim_s", "elapsed_sim_s"),
           cell=times_cell("vs_baseline")),
    # The controller's depth after the measured run, how often it moved
    # and shrank, and the rounds the migration cap clamped.
    Column("depth_final", "final depth", cell=lambda r: r["depth_final"] or "-"),
    Column("depth_changes", "changes"),
    Column("depth_shrinks", "shrinks"),
    Column("depth_caps", "caps"),
    Column("entries_moved", "moved"),
    Column("foreground_stalls", "stalls"),
    # Results byte-identical to the baseline run.
    Column("identical", "identical", cell=yes_cell("identical")),
], full=dict(depths=[1, 4, 8, 16], ops=48, rounds=12),
   quick=dict(depths=[1, 8], ops=24, rounds=12))
def run_adaptive(depths: list[int], ops: int, rounds: int, workers: int = 4,
                 batch_entries: int = 8, seed: int = 83):
    """Adaptive depth control sweep: static depths vs ``depth="auto"``.

    **get-heavy** — on a warm 4-shard cluster, every reader first drives
    one priming batch (the adaptive controller converges during it; the
    static engines prime the same state for symmetry), then replays a
    distinct measured batch.  The acceptance bound (tier-1): the auto
    row lands within 10% of the best static depth and strictly beats the
    depth-1 anti-sweet-spot.

    **join** — the same auto engine drives ``rounds`` foreground GET
    batches while a streaming shard join runs concurrently: the
    controller caps its depth under the dual-ownership window and
    yields the capped-off slots to the migrator
    (:meth:`RangeMigrator.overlap_steps`), and the window closes the
    moment the hand-off drains, so the cap lifts mid-run.  Bound:
    foreground throughput stays >= 0.70x of the no-join auto baseline.
    """
    from ..session import connect

    max_depth = max(16, max(depths))
    auto = dict(workers=workers, min_depth=1, max_depth=max_depth)

    # -- phase 1: static depths vs auto on a warm 4-shard cluster -----------
    writer = connect(
        shards=4, replication_factor=1,
        seed=b"bench-adaptive" + bytes([seed % 251]), tracing=False,
    )

    @writer.mark(version="1.0")
    def adaptive_kernel(data: bytes) -> bytes:
        return bytes(b ^ 0x6B for b in data)

    description = adaptive_kernel.description
    warm_inputs = _pipeline_inputs(ops, seed)
    measured = _pipeline_inputs(ops, seed + 1)
    adaptive_kernel.map(warm_inputs + measured)
    writer.flush_puts()

    serial_s = base_values = None
    for depth in [0, *sorted(depths), "auto"]:
        reader = writer.sibling(f"adaptive-reader-{depth}")
        engine = reader.enable_pipeline(depth=depth, **auto) if depth else None
        reader.execute_many_results(description, warm_inputs)  # prime
        delta, values = _replay(reader, description, measured, engine)
        if not depth:
            serial_s, base_values = delta.machines_s, values
        yield dict(phase="get-heavy", n_shards=4, depth=str(depth), ops=ops,
                   rounds=1, baseline_sim_s=serial_s, entries_moved=0,
                   foreground_stalls=0, identical=values == base_values,
                   probe={"get-heavy": delta}, **_controller_stats(engine))

    # -- phase 2: the same auto engine with a concurrent streaming join -----
    base = None
    for windows in ([], [_window(TopologyPlan().join(), batch_entries)]):
        run = _foreground_rounds(
            _topology_session(4, b"bench-adaptive-join" + bytes([seed % 251]), vnodes=2),
            join_kernel, _pipeline_inputs(ops, seed + 2), rounds,
            reader="adaptive-join-reader", depth="auto", **auto, prime=True,
            # The controller's yielded depth slots bound the migrator's
            # between-rounds intrusion budget.
            windows=windows, advance=RangeMigrator.overlap_steps,
        )
        base = base or run
        yield dict(phase="join", n_shards=4 + len(windows), depth="auto",
                   ops=len(run["values"]), rounds=rounds,
                   baseline_sim_s=base["probe"].makespan_s,
                   entries_moved=run["entries_moved"],
                   foreground_stalls=run["foreground_stalls"],
                   identical=run["values"] == base["values"],
                   probe={"join": run["probe"]}, **_controller_stats(run["engine"]))


# ---------------------------------------------------------------------------
# Reshard — one planned multi-shard window vs N serialized windows
# ---------------------------------------------------------------------------
#: Deterministic weighted membership for the placement-accuracy row:
#: sha256 vnode placement is fixed, so these shards' ownership shares at
#: ``vnodes=64`` are known to sit within the 10% bound of their weight
#: fractions.
_RESHARD_WEIGHTS = (
    ("cap-0", 1.0), ("cap-1", 2.0), ("cap-2", 2.0), ("cap-3", 1.0),
)


def _weighted_placement_error(vnodes: int = 64) -> float:
    """Worst relative deviation of ``load_share`` from the weight
    fraction over the :data:`_RESHARD_WEIGHTS` membership."""
    ring = ShardRing(vnodes=vnodes)
    for sid, weight in _RESHARD_WEIGHTS:
        ring.add_shard(sid, weight=weight)
    total = sum(weight for _, weight in _RESHARD_WEIGHTS)
    worst = 0.0
    for sid, weight in _RESHARD_WEIGHTS:
        fraction = weight / total
        worst = max(worst, abs(ring.load_share(sid) - fraction) / fraction)
    return worst


@experiment("reshard", "Reshard: one planned window vs N serialized windows", [
    *_topology_columns(Column("joins", "joins")),  # shards the reshape adds
    Column("fg_ops_per_s", derive=_ratio("ops", "elapsed_sim_s")),
    Column("fg_throughput_ratio", "vs baseline",
           derive=_ratio("baseline_sim_s", "elapsed_sim_s"),
           cell=times_cell("fg_throughput_ratio")),
    Column("p50_round_s"),
    Column("p99_round_s"),
    Column("windows", "windows"),           # dual-ownership windows opened
    Column("dual_rounds", "dual rounds"),   # foreground rounds run inside one
    *_MOVED_COLUMNS,
    # Weighted-ring placement check (0.0 elsewhere).
    Column("max_weight_err", "weight err", cell=lambda r: f"{r['max_weight_err']:.3f}"),
], full=dict(joins=4, ops=48, rounds=16), quick=dict(joins=2, ops=24, rounds=12))
def run_reshard(joins: int, ops: int, rounds: int, n_shards: int = 4,
                batch_entries: int = 8, seed: int = 131):
    """Planned topology transitions: one batched window vs N serialized.

    Three phases over the same warm GET-heavy workload:

    * **baseline** — no topology change; sets the reference throughput.
    * **serialized** — the cluster grows ``n_shards`` → ``n_shards +
      joins`` through ``joins`` single-shard windows, each opened only
      after the previous settles (the pre-plan restriction of
      ``ShardRing._require_idle``): N dual-ownership windows, and
      entries whose ownership shifts under several intermediate rings
      move more than once.
    * **planned** — the same growth as **one**
      :class:`~repro.cluster.ring.TopologyPlan` window: a single range
      diff from the old ring to the final ring, every moved range handed
      off exactly once, and transfers to distinct gaining shards
      overlapping each other via the engine's widened background budget.

    Both drain greedily through :meth:`RangeMigrator.overlap_steps`.  A
    fourth **weighted-ring** row reports the placement-accuracy check:
    the worst relative deviation of ``load_share`` from the weight
    fraction over a deterministic weighted membership at ``vnodes=64``.

    The acceptance bounds (tier-1): planned ``fg_throughput_ratio`` >=
    serialized, planned ``dual_rounds`` <= serialized, one planned
    window, zero ``foreground_stalls`` in both, ``max_weight_err`` <= 0.10.
    """
    base_tag = b"bench-reshard" + bytes([seed % 251])
    # 4 KiB payloads: hand-off cost is dominated by transfer bytes, so
    # the phases compare how much data they move, not per-range fixed
    # overheads.
    inputs = [
        (seed * 100_000 + i).to_bytes(4, "big") * 1024 for i in range(ops)
    ]
    plan = TopologyPlan()
    for _ in range(joins):
        plan = plan.join()
    base = None
    for phase, seed_tag, joined, windows in (
        ("baseline", b"/base", 0, []),
        ("serialized", b"/serialized", joins,
         [_window(TopologyPlan().join(), batch_entries)] * joins),
        ("planned", b"/planned", joins, [_window(plan, batch_entries)]),
    ):
        run = _foreground_rounds(
            _topology_session(n_shards, base_tag + seed_tag), reshard_kernel, inputs,
            rounds, reader="reshard-reader", depth=8, workers=4,
            windows=windows, advance=_greedy,
        )
        base = base or run
        yield _topology_row(phase, n_shards, run, base, joins=joined,
                            max_weight_err=0.0)
    idle = _idle_run()
    yield _topology_row("weighted-ring", len(_RESHARD_WEIGHTS), idle, idle,
                        joins=0, max_weight_err=_weighted_placement_error())
