"""Measurement: the timed window, the public-counter probe, the metrics.

Two clocks are read around every request.  The *wall* clock is
``time.perf_counter`` — what the Python that implements SPEED costs on
this host.  The *virtual* clock is the program's cycle accounting — what
the modelled SGX machines would take — read as the critical path: every
machine's ``SimClock`` summed, minus what the pipelined engine
overlapped, minus the ``compute`` category (``charge_compute`` charges
*measured* host time, the only charge that is not a pure function of the
inputs; with it removed the figure repeats to the last digit).

Wall figures cover every pass that fits in ``--seconds``.  Virtual-clock
figures and counter deltas cover the window's first ``sim_requests``
requests — a fixed amount of work — so that for a given seed they are
exact, however fast the host is.

Wall seconds are reported *at reference host speed* (:class:`HostGauge`):
this sandbox's speed drifts by a quarter and more within minutes, which
no amount of averaging inside one run removes.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from tracing import Aggregate, Recorder, aggregate
from workloads import Rig, Workload, build, reverse

SETUPS_PER_RUN = 3


def log(message: str) -> None:
    print(message, flush=True)


# -- statistics ---------------------------------------------------------------

def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0):
        if samples * (100.0 - percentile) / 100.0 >= 10:
            return percentile
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- host speed ------------------------------------------------------------------

class HostGauge:
    """Tells a slow host from a slow program.

    Between requests (at most every ``EVERY_S``) the gauge times a fixed
    kernel that shares no code with the program under test but loads the
    host the way the program does today, about half the time each: a
    table-lookup loop over 128-bit integers (the shape of its GHASH and
    GHASH-table builds, which dominate where many distinct keys are in
    play) and chains of fancy-indexed lookups and XORs on small ``uint8``
    arrays (the shape of its AES rounds, which dominate on large
    payloads).  ``speed_at(t)`` is the reference kernel time over the
    kernel time interpolated at ``t``: 1.0 on the reference host, 0.8 on
    one a fifth slower.  A wall duration measured around ``t``, times
    that speed, is what it would have been on the reference host.
    Because the kernel is frozen here, a faster program still reads as
    faster.
    """

    REFERENCE_S = 0.006     # the kernel on this sandbox in a quiet spell
    EVERY_S = 0.15

    def __init__(self):
        rng = random.Random(0)
        self._table = [[rng.getrandbits(128) for _ in range(256)] for _ in range(16)]
        self._sbox = np.array(rng.sample(range(256), 256), dtype=np.uint8)
        self._perm = np.array(rng.sample(range(16), 16))
        self._blocks = np.frombuffer(rng.randbytes(1024), dtype=np.uint8).reshape(-1, 16)
        self.at: list[float] = []      # when each sample was taken
        self.took: list[float] = []    # and how long the kernel ran

    def sample(self) -> None:
        start = time.perf_counter()
        table, y = self._table, 1
        for _ in range(700):
            acc = 0
            for i in range(16):
                acc ^= table[i][(y >> (8 * (15 - i))) & 0xFF]
            y = acc ^ 0x1234567
        blocks = self._blocks
        for _ in range(400):
            blocks = self._sbox[blocks][:, self._perm] ^ 0x5A
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def due(self) -> bool:
        return time.perf_counter() - self.at[-1] >= self.EVERY_S

    def speed_at(self, times: list[float]) -> np.ndarray:
        return self.REFERENCE_S / np.interp(times, self.at, self.took)


# -- the program's public counters ---------------------------------------------

class Probe:
    """Reads clocks and counters the program already exposes; the shard
    set is re-read on every call because a recovered shard may come back
    on a fresh platform."""

    def __init__(self, rig: Rig):
        self.session = rig.driver
        self.engine = rig.engine
        self.freq = self.session.clock.params.cpu_freq_hz

    def _shards(self) -> dict:
        return dict(self.session.cluster.shards) if self.session.is_cluster else {}

    def _platforms(self) -> list:
        return [self.session.platform] + [n.platform for n in self._shards().values()]

    def sim_cycles(self) -> float:
        """Critical-path virtual cycles so far (see module docstring)."""
        total = 0.0
        for platform in self._platforms():
            # Summed per category: subtracting ``compute`` from
            # ``clock.cycles`` would leave its rounding behind.
            total += sum(
                cycles for category, cycles in platform.clock.breakdown().items()
                if category != "compute"
            )
        if self.engine is not None:
            # The engine takes its deltas from clock totals that include
            # ``compute``, which leaves ~1e-6 cycles of rounding behind;
            # whole cycles are all the model means anyway.
            total -= self.engine.overlap_cycles_saved
        return float(round(total))

    def shard_cycles(self) -> float:
        return sum(node.platform.clock.cycles for node in self._shards().values())

    def counters(self) -> dict[str, float]:
        """One flat dict; per-shard ``store.<shard>.*`` keys are summed
        into ``store.*`` (each shard's GET count is also kept)."""
        shards = self._shards()
        out: dict[str, float] = {}
        for key, value in self.session.snapshot().items():
            if not isinstance(value, (int, float)):
                continue
            for shard_id in shards:
                prefix = f"store.{shard_id}."
                if key.startswith(prefix):
                    if key == prefix + "gets":
                        out[f"shard_gets.{shard_id}"] = value
                    key = "store." + key[len(prefix):]
                    break
            out[key] = out.get(key, 0) + value
        # Single-store sessions report client retries under ``rpc.``.
        out.setdefault("router.retries", out.get("rpc.retries", 0))
        stores = [n.store for n in shards.values()] or [self.session.store]
        platforms = self._platforms()
        out["records_sent"] = self.session.runtime.client.records_sent
        out["transitions"] = sum(
            enclave.transition_count for p in platforms for enclave in p.enclaves
        )
        out["epc_faults"] = sum(p.epc.fault_count for p in platforms)
        out["blob_bytes"] = sum(s.blobstore.bytes_stored for s in stores)
        out["shard_cycles"] = self.shard_cycles()
        out["makespan_cycles"] = self.engine.makespan_cycles if self.engine else 0.0
        out["serial_cycles"] = self.engine.serial_cycles if self.engine else 0.0
        for platform in platforms:
            for category, cycles in platform.clock.breakdown().items():
                out[f"cycles.{category}"] = out.get(f"cycles.{category}", 0.0) + cycles
        return out


def delta(before: dict, after: dict) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- one run's bookkeeping -----------------------------------------------------

@dataclass
class Verdict:
    """Attempted and failed ops, and whether every check held."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    violations: int = 0

    def fail(self, count: int, where: str, what: str) -> None:
        self.failed += count
        log(f"FAILED workload={self.workload} seed={self.seed} {where}: {what}")

    def violate(self, what: str) -> None:
        self.violations += 1
        log(f"VIOLATION workload={self.workload} seed={self.seed}: {what}")

    @property
    def correct(self) -> bool:
        return not self.failed and not self.violations


@dataclass
class Pass:
    ops: int
    requests: int
    wall_s: float     # as measured
    ref_s: float      # at reference host speed
    cpu_s: float


@dataclass
class Window:
    passes: list[Pass] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)   # per request, as measured
    ref_ms: list[float] = field(default_factory=list)    # same, at reference host speed
    speeds: list[float] = field(default_factory=list)    # host speed around each request
    sim_us: list[float] = field(default_factory=list)    # per request, fixed prefix
    prefix_ops: int = 0
    prefix_input_bytes: int = 0
    prefix_cycles: float = 0.0
    prefix_counters: dict = field(default_factory=dict)  # deltas over the prefix
    prefix_end: dict = field(default_factory=dict)       # absolute, at its end
    live_result_bytes: int = 0                           # in the store, at its end
    span_marks: list[int] = field(default_factory=list)  # spans recorded by each pass end

    @property
    def ops(self) -> int:
        return sum(p.ops for p in self.passes)

    def wall_ops_per_s(self) -> float:
        return statistics.median(p.ops / p.ref_s for p in self.passes)

    def host_speed(self) -> float:
        return statistics.median(self.speeds)


def run_passes(rig: Rig, verdict: Verdict, count: int) -> None:
    """Unmeasured passes (set-up warm-up), still checked by the oracle."""
    for _ in range(count):
        for index, inputs in enumerate(rig.traffic.next_pass()):
            _checked(rig, verdict, f"set-up request={index}", inputs)
        rig.end_pass()


def _checked(rig: Rig, verdict: Verdict, where: str, inputs: list[bytes]) -> tuple[float, float]:
    """Issue one request; return when (its midpoint) and how long it
    ran.  The oracle is direct computation of the kernel, compared
    outside the timed region."""
    verdict.attempted += len(inputs)
    start = time.perf_counter()
    try:
        outputs = rig.issue(inputs)
    except Exception as exc:  # the benchmark must keep running and count it
        verdict.fail(len(inputs), where, f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        return start + elapsed / 2, elapsed
    elapsed = time.perf_counter() - start
    wrong = sum(out != reverse(data) for out, data in zip(outputs, inputs))
    wrong += abs(len(outputs) - len(inputs))
    if wrong:
        verdict.fail(wrong, where, f"{wrong} of {len(inputs)} values differ from direct computation")
    return start + elapsed / 2, elapsed


def set_up(
    spec: Workload, seed: int, verdict: Verdict, gauge: HostGauge, tracing: bool = False
) -> tuple[Rig, float]:
    """Everything before the first measured request: connect, attestation
    and channel establishment, warm fill, sibling, engine, then the
    unmeasured passes — one warm-up, plus as many as fill a bounded
    store.  Returns the rig and the seconds it took at reference speed."""
    gauge.sample()
    start = time.perf_counter()
    rig = build(spec, seed, tracing=tracing)
    built = time.perf_counter()
    gauge.sample()
    resumed = time.perf_counter()
    fill = math.ceil(spec.store_capacity / (spec.pass_requests * spec.batch))
    run_passes(rig, verdict, 1 + fill)
    end = time.perf_counter()
    gauge.sample()
    speed_building, speed_passing = gauge.speed_at([(start + built) / 2, (resumed + end) / 2])
    return rig, (built - start) * speed_building + (end - resumed) * speed_passing


def run_window(
    rig: Rig,
    probe: Probe,
    verdict: Verdict,
    gauge: HostGauge,
    seconds: float,
    prefix_requests: int,
    recorder: Recorder | None = None,
) -> Window:
    """Run whole passes until ``seconds`` have gone by and at least
    ``prefix_requests`` requests are done."""
    window = Window()
    stats = rig.driver.stats
    calls0 = (stats.calls, stats.hits, stats.misses, stats.degraded)
    served0 = stats.hits - stats.l1_hits - stats.coalesced_hits
    counters0 = probe.counters() if prefix_requests else {}
    cycles0 = probe.sim_cycles()
    deadline = time.perf_counter() + seconds
    while True:
        requests = rig.traffic.next_pass()
        in_prefix = len(window.wall_ms) < prefix_requests
        gc.collect()
        gauge.sample()
        cpu0 = time.thread_time()
        timed = []      # (midpoint, seconds) of each request, then of end_pass
        for inputs in requests:
            where = f"request={len(window.wall_ms) + len(timed)}"
            before = probe.sim_cycles() if in_prefix else 0.0
            timed.append(_checked(rig, verdict, where, inputs))
            if in_prefix:
                window.sim_us.append((probe.sim_cycles() - before) / probe.freq * 1e6)
            if gauge.due():
                gauge.sample()
        start = time.perf_counter()
        rig.end_pass()
        closing = time.perf_counter() - start
        timed.append((start + closing / 2, closing))
        cpu_s = time.thread_time() - cpu0
        gauge.sample()
        speeds = gauge.speed_at([at for at, _ in timed])
        wall = [elapsed for _, elapsed in timed]
        ref = [elapsed * speed for elapsed, speed in zip(wall, speeds)]
        window.wall_ms += [elapsed * 1e3 for elapsed in wall[:-1]]
        window.ref_ms += [elapsed * 1e3 for elapsed in ref[:-1]]
        window.speeds += list(speeds[:-1])
        ops = sum(len(inputs) for inputs in requests)
        if in_prefix:
            window.prefix_input_bytes += sum(len(d) for inputs in requests for d in inputs)
        window.passes.append(Pass(ops, len(requests), sum(wall), sum(ref), cpu_s))
        if recorder is not None:
            window.span_marks.append(len(recorder.spans))
        if in_prefix and len(window.wall_ms) >= prefix_requests:
            window.prefix_ops = window.ops
            window.prefix_cycles = probe.sim_cycles() - cycles0
            window.prefix_end = probe.counters()
            window.prefix_counters = delta(counters0, window.prefix_end)
            window.live_result_bytes = rig.traffic.live_result_bytes()
        if time.perf_counter() >= deadline and len(window.wall_ms) >= prefix_requests:
            break
    calls, hits, misses, degraded = (
        now - then
        for now, then in zip((stats.calls, stats.hits, stats.misses, stats.degraded), calls0)
    )
    if hits + misses + degraded != calls or calls != window.ops:
        verdict.violate(
            f"hits {hits} + misses {misses} + degraded {degraded} != calls {calls} "
            f"(ops issued {window.ops})"
        )
    served = stats.hits - stats.l1_hits - stats.coalesced_hits - served0
    least, most = rig.spec.store_hit_share
    if not least <= ratio(served, calls) <= most:
        verdict.violate(
            f"store-served hit share {ratio(served, calls):.3f} outside [{least}, {most}]"
        )
    return window


# -- durability ------------------------------------------------------------------

@dataclass
class Durability:
    recover_wall_s: float = 0.0
    recover_sim_us_per_record: float = 0.0
    records_replayed: int = 0
    acked_puts_lost: int = 0


def check_durability(rig: Rig, probe: Probe, verdict: Verdict) -> Durability:
    """Power-fail the shard, recover it from the sealed log alone, and
    read back every input the bounded store should still hold: each must
    be a hit equal to direct computation."""
    stats = rig.driver.stats
    if stats.puts_accepted != stats.puts_sent:
        verdict.violate(f"{stats.puts_sent} PUTs sent, {stats.puts_accepted} acked")
    (shard_id,) = rig.driver.cluster.shards
    cycles0 = probe.shard_cycles()
    start = time.perf_counter()
    report = rig.driver.power_fail_shard(shard_id)
    out = Durability(recover_wall_s=time.perf_counter() - start)
    out.records_replayed = report.records_replayed
    out.recover_sim_us_per_record = ratio(
        (probe.shard_cycles() - cycles0) / probe.freq * 1e6,
        report.entries_restored + report.records_replayed,
    )
    acked = list(rig.traffic.recent)
    verdict.attempted += len(acked)
    for start_at in range(0, len(acked), rig.spec.batch):
        chunk = acked[start_at:start_at + rig.spec.batch]
        results = rig.driver.execute_many_results(rig.description, chunk)
        out.acked_puts_lost += sum(
            not (result.hit and result.value == reverse(data))
            for result, data in zip(results, chunk)
        )
    if out.acked_puts_lost:
        verdict.fail(
            out.acked_puts_lost, "post-recovery read-back",
            f"{out.acked_puts_lost} of {len(acked)} acked PUTs missed or differ",
        )
    return out


# -- metrics -------------------------------------------------------------------------

def end_to_end(window: Window, setup_s: list[float], freq: float) -> dict:
    return {
        "wall_ops_per_s": window.wall_ops_per_s(),
        "wall_p50_ms": statistics.median(window.ref_ms),
        "sim_ops_per_s": window.prefix_ops / (window.prefix_cycles / freq),
        "sim_p50_us": statistics.median(window.sim_us),
        "sim_tail_us": percentile(window.sim_us, tail_percentile(len(window.sim_us))),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    freq: float,
    counted: Window,          # untraced, fixed work: counters and virtual clock
    traced: Window,
    spans: Aggregate,
    first_pass: Aggregate,    # the traced window's first pass: fixed work again
    tracer_on: Window,
    tracer_spans: int,
    durability: Durability,
) -> dict:
    c = counted.prefix_counters
    ops = counted.prefix_ops
    calls = c["runtime.calls"]
    us = 1e6 / freq     # cycles -> microseconds
    traced_speed = traced.host_speed()

    def self_ms(label: str) -> float:
        return spans.self_ns[label] / 1e6 / traced.ops * traced_speed

    shard_gets = [v for k, v in c.items() if k.startswith("shard_gets.")]
    pass_ops = traced.passes[0].ops
    crypto_s = spans.self_ns["crypto"] / 1e9 * traced_speed
    return {
        "session.self_ms_per_op": self_ms("session"),
        "session.wall_tail_ms": percentile(
            counted.ref_ms, tail_percentile(len(counted.ref_ms))
        ),
        "session.cpu_ops_per_s": ratio(counted.ops, sum(p.cpu_s for p in counted.passes)),
        "session.host_speed": counted.host_speed(),
        "session.trace_overhead_share": 1 - traced.wall_ops_per_s() / counted.wall_ops_per_s(),
        "session.self_time_residual_share": spans.residual_share,
        "core.self_ms_per_op": self_ms("core"),
        "core.hit_share": ratio(c["runtime.hits"], calls),
        "core.l1_hit_share": ratio(c["runtime.l1_hits"], calls),
        "core.coalesced_share": ratio(c["runtime.coalesced_hits"], calls),
        "core.put_accept_share": ratio(c["runtime.puts_accepted"], c["runtime.puts_sent"]),
        "core.verification_failures": c["runtime.verification_failures"],
        "sgx.self_ms_per_op": self_ms("sgx"),
        "sgx.transitions_per_op": c["transitions"] / ops,
        "sgx.transition_sim_us_per_op": c.get("cycles.transition", 0.0) * us / ops,
        "sgx.marshal_sim_us_per_op": c.get("cycles.marshal", 0.0) * us / ops,
        "sgx.crypto_sim_us_per_op": c.get("cycles.crypto", 0.0) * us / ops,
        "sgx.epc_faults_per_op": c["epc_faults"] / ops,
        "crypto.self_ms_per_op": self_ms("crypto"),
        "crypto.aead_calls_per_op": first_pass.aead_calls / pass_ops,
        "crypto.aead_bytes_per_op": first_pass.aead_bytes / pass_ops,
        "crypto.host_mb_per_s": ratio(spans.aead_bytes / 1e6, crypto_s),
        "crypto.self_share": ratio(spans.self_ns["crypto"], spans.root_ns),
        "net.channel_self_ms_per_op": self_ms("net.channel"),
        "net.rpc_self_ms_per_op": self_ms("net.rpc"),
        "net.records_per_op": c["records_sent"] / ops,
        "net.messages_per_op": c["net.messages"] / ops,
        "net.wire_bytes_per_op": c["net.bytes"] / ops,
        "net.network_sim_us_per_op": c.get("cycles.network", 0.0) * us / ops,
        "net.retries_per_op": c["router.retries"] / ops,
        "cluster.self_ms_per_op": self_ms("cluster"),
        "cluster.shard_requests_per_op": (
            c.get("router.gets", 0) + c.get("router.puts", 0) + c.get("router.replica_puts", 0)
        ) / ops,
        "cluster.load_imbalance": (
            ratio(max(shard_gets), statistics.fmean(shard_gets)) if len(shard_gets) > 1 else 0.0
        ),
        "cluster.failovers": c.get("router.failovers", 0),
        "cluster.read_repairs": c.get("router.read_repairs", 0),
        "engine.self_ms_per_op": self_ms("engine"),
        "engine.ops_per_round": ratio(c.get("engine.ops", 0), c.get("engine.rounds", 0)),
        "engine.overlap_share": (
            1 - c["makespan_cycles"] / c["serial_cycles"] if c["serial_cycles"] else 0.0
        ),
        "engine.depth_final": counted.prefix_end.get("engine.depth_current", 0),
        "engine.depth_changes": c.get("engine.depth_changes", 0),
        "engine.coalesced_gets_per_op": c.get("engine.coalesced_gets", 0) / ops,
        "store.self_ms_per_op": self_ms("store"),
        "store.sim_us_per_op": c["shard_cycles"] * us / ops,
        "store.gets_per_op": c["store.gets"] / ops,
        "store.puts_per_op": c["store.puts"] / ops,
        "store.hit_share": ratio(c["store.hits"], c["store.gets"]),
        "store.evictions": c["store.evictions"],
        "store.stored_bytes_per_result_byte": ratio(
            counted.prefix_end["blob_bytes"], counted.live_result_bytes
        ),
        "durable.self_ms_per_op": self_ms("durable"),
        "durable.log_bytes_per_put_byte": ratio(
            c.get("store.durable.log_bytes", 0),
            c["store.puts"] * counted.prefix_input_bytes / ops,
        ),
        "durable.commits_per_put": ratio(c.get("store.durable.commits", 0), c["store.puts"]),
        "durable.checkpoints": c.get("store.durable.checkpoints", 0),
        "durable.checkpoint_wall_ms_max": spans.longest_ns["checkpoint.take_checkpoint"] / 1e6,
        "durable.recover_wall_s": durability.recover_wall_s,
        "durable.recover_sim_us_per_record": durability.recover_sim_us_per_record,
        "durable.records_replayed": durability.records_replayed,
        "durable.acked_puts_lost": durability.acked_puts_lost,
        "obs.tracing_on_slowdown": 1 - tracer_on.wall_ops_per_s() / counted.wall_ops_per_s(),
        "obs.spans_per_op": tracer_spans / tracer_on.ops,
    }


# -- the two kinds of run ----------------------------------------------------------

@dataclass
class Run:
    """What one invocation measured, before it is printed or written."""

    verdict: Verdict
    metrics: dict[str, float]
    fingerprint: str                     # of the seeded inputs
    windows: dict[str, Window]           # by phase name
    notes: dict[str, float]              # printed beside the metrics, not gated
    recorder: Recorder | None = None


def measure_end_to_end(spec: Workload, seed: int, seconds: float) -> Run:
    """Tracing off.  Set-up runs several times so ``setup_s`` is a median;
    the last deployment takes the measured window."""
    verdict = Verdict(spec.name, seed)
    gauge = HostGauge()
    setup_s = []
    rig = None
    for _ in range(SETUPS_PER_RUN):
        del rig
        gc.collect()
        rig, took = set_up(spec, seed, verdict, gauge)
        setup_s.append(took)
    probe = Probe(rig)
    window = run_window(rig, probe, verdict, gauge, seconds, spec.sim_requests)
    if spec.durable:
        check_durability(rig, probe, verdict)
    return Run(
        verdict,
        end_to_end(window, setup_s, probe.freq),
        rig.traffic.fingerprint,
        {"untraced": window},
        {"tail_percentile": tail_percentile(len(window.sim_us)),
         "passes": len(window.passes), "ops": window.ops,
         "host_speed": window.host_speed(),
         "measured_wall_ops_per_s": statistics.median(p.ops / p.wall_s for p in window.passes),
         "measured_wall_p50_ms": statistics.median(window.wall_ms)},
    )


def measure_layers(spec: Workload, seed: int, seconds: float) -> Run:
    """Three phases on the same op stream.  *counted*: tracing off, the
    fixed ``sim_requests`` prefix — every count and virtual-clock figure.
    *traced*: the wrappers on for half of ``seconds`` — self times.
    *tracer_on*: a second deployment built with ``connect(tracing=True)``
    for a quarter of ``seconds`` — what the program's own tracer costs."""
    verdict = Verdict(spec.name, seed)
    gauge = HostGauge()
    rig, _ = set_up(spec, seed, verdict, gauge)
    probe = Probe(rig)
    counted = run_window(rig, probe, verdict, gauge, 0.0, spec.sim_requests)
    with Recorder() as recorder:
        # Recovery comes first, on the state the fixed-work phase left, so
        # that what it replays does not depend on how long the host made
        # the traced window; its spans are in the dump, not in the self
        # times, which cover the window alone.
        durability = check_durability(rig, probe, verdict) if spec.durable else Durability()
        window_from = len(recorder.spans)
        traced = run_window(rig, probe, verdict, gauge, seconds / 2, 0, recorder)
    spans = aggregate(recorder.spans[window_from:traced.span_marks[-1]], recorder.names)
    first_pass = aggregate(recorder.spans[window_from:traced.span_marks[0]], recorder.names)
    if spans.residual_share > 0.01:
        verdict.violate(
            f"layer self times miss the root spans by {spans.residual_share:.2%} (> 1%)"
        )

    def tracer_span_count(session) -> int:
        return sum(phase["count"] for phase in session.phase_breakdown().values())

    rig_on, _ = set_up(spec, seed, verdict, gauge, tracing=True)
    spans0 = tracer_span_count(rig_on.driver)
    tracer_on = run_window(rig_on, Probe(rig_on), verdict, gauge, seconds / 4, 0)
    tracer_spans = tracer_span_count(rig_on.driver) - spans0
    metrics = per_layer(
        probe.freq, counted, traced, spans, first_pass, tracer_on, tracer_spans, durability
    )
    return Run(
        verdict, metrics, rig.traffic.fingerprint,
        {"counted": counted, "traced": traced, "tracer_on": tracer_on},
        {"traced_roots": spans.roots, "traced_root_ms": spans.root_ns / 1e6,
         "traced_spans": traced.span_marks[-1] - window_from},
        recorder,
    )
