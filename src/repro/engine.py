"""Concurrent pipelined execution engine for store round trips.

Every layer below this one is synchronous: ``RpcClient.call`` blocks on
its own response, so a GET to shard A serializes behind a GET to shard
B even though distinct shards are distinct machines.  The engine drives
the client's grouped ``plan_*``/``submit_*``/``wait_*`` surface instead:
a round of up to ``depth`` requests is partitioned into shard groups,
every group is put on the wire before the first response is consumed,
and **single-flight tag coalescing** lets identical in-flight tags
share one store round trip, with followers handed the leader's response.

Simulated-time correctness
--------------------------
The simulation executes on one OS thread, so "concurrency" here is
*logical*: the wire order of a round is submit×N then wait×N, and every
operation charges the same per-machine SimClock cycles it would charge
on the serial path (results, counters, and invariants are bit-identical
by construction).  What changes is the *schedule*: overlapped spans
advance per-machine sim time concurrently, not additively.  The engine
therefore reports a round's elapsed simulated time as its **critical
path**::

    makespan = max( max_i lane_busy[i],      # each of W client lanes
                    max_s shard_busy[s],     # each shard machine
                    max_op (app_op + shard_op) )  # any single op's chain

where ``lane_busy`` spreads the client-side (app machine) cost of the
round's ops over ``workers`` lanes round-robin, ``shard_busy`` is each
shard clock's advance during the round, and the last term keeps one
operation's own send→serve→receive chain serial.  With ``depth=1,
workers=1`` the expression degenerates to the exact serial sum, and a
deployment whose store shares the application's machine (no second
clock to overlap with) is forced to a single lane — one machine cannot
overlap with itself.

The asynchronous PUT flusher uses :meth:`PipelineEngine.background` to
account its drains as one extra lane that overlaps the next round of
foreground work; :meth:`settle` folds any un-overlapped remainder back
in serially.

Adaptive depth
--------------
``EngineConfig(depth="auto")`` replaces the static submit window with an
:class:`AdaptiveDepthController` — AIMD over the engine's virtual-clock
rounds: depth grows (slow-start doubling, then additively) while each
round's per-op critical-path latency keeps up with the best the window
has seen, and shrinks multiplicatively on failure, circuit-breaker, or
PUT back-pressure signals.  The controller only ever sees
**replay-deterministic** observations: round makespans here are sums of
modeled wire/crypto/store charges — every round, region and background
delta is read off ``SimClock.modelled_cycles``, the running total that
leaves out ``charge_compute``'s measured host time, so not even its
rounding reaches them — and the decision sequence is a pure function of
the op stream, a property the simulation harness digests and replays.
While the shard ring holds a dual-ownership migration window the
controller additionally caps depth and reports the
capped-off slots via :meth:`PipelineEngine.background_budget`, which a
:class:`~repro.cluster.migration.RangeMigrator` uses to widen its
between-rounds hand-off pacing — foreground latency stays bounded and
the freed slots go to the migration instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

from .errors import ChannelError, ProtocolError, TransportError
from .net.messages import GetRequest, Message
from .obs.tracer import NULL_TRACER

# Failures that mean "the store did not serve this op" — the runtime
# degrades (or surfaces) them per item, exactly like the serial path.
_ENGINE_FAILURES = (TransportError, ChannelError, ProtocolError)

#: ``EngineConfig.depth`` sentinel selecting the adaptive controller.
AUTO_DEPTH = "auto"


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the pipelined engine."""

    #: Outstanding requests per round (submit window), or ``"auto"`` to
    #: let an :class:`AdaptiveDepthController` size each round between
    #: ``min_depth`` and ``max_depth``.
    depth: Union[int, str] = 8
    #: Client-side worker lanes the round's app cost is spread over.
    #: Clamped to the depth bound: lanes beyond the submit window can
    #: never hold an op (see :meth:`PipelineEngine._lanes`).
    workers: int = 4
    #: Single-flight: identical in-flight tags share one round trip.
    coalesce: bool = True
    #: Adaptive-mode depth bounds (ignored for a static ``depth``).
    min_depth: int = 1
    max_depth: int = 32

    def __post_init__(self):
        if isinstance(self.depth, str):
            if self.depth != AUTO_DEPTH:
                raise ProtocolError(
                    f"engine depth must be an int >= 1 or {AUTO_DEPTH!r}"
                )
        elif self.depth < 1:
            raise ProtocolError("engine depth must be >= 1")
        if self.workers < 1:
            raise ProtocolError("engine workers must be >= 1")
        if self.min_depth < 1:
            raise ProtocolError("engine min_depth must be >= 1")
        if self.max_depth < self.min_depth:
            raise ProtocolError("engine max_depth must be >= min_depth")
        bound = self.max_depth if self.adaptive else self.depth
        if self.workers > bound:
            object.__setattr__(self, "workers", bound)

    @property
    def adaptive(self) -> bool:
        return self.depth == AUTO_DEPTH


@dataclass(frozen=True)
class DepthObservation:
    """One engine round reduced to the deterministic signals the
    adaptive controller may consume.

    ``makespan_cycles`` is the round's critical-path advance — a sum of
    modeled wire/crypto/store charges, never measured host compute — so
    every field replays byte-identically for a fixed op stream.
    """

    ops: int
    makespan_cycles: float
    failures: int = 0
    backpressure: bool = False
    migration_active: bool = False
    #: False for a tail round that carried fewer ops than the submit
    #: window allowed: its per-op latency cannot amortize the fixed
    #: round costs, so it is no evidence for growing or shrinking.
    full: bool = True

    @property
    def per_op_cycles(self) -> float:
        return self.makespan_cycles / max(1, self.ops)


class AdaptiveDepthController:
    """AIMD governor for the engine's per-round submit window.

    The state machine is deliberately pure: no randomness, no wall
    clock — :meth:`observe` maps the previous state plus one
    :class:`DepthObservation` to the next depth, so identical
    observation streams always replay the identical decision sequence
    (pinned by property tests and the simulation harness's trace
    digest).

    Decision rule, in precedence order:

    1. **Shrink** multiplicatively (halve, floored at ``min_depth``)
       when the round carried failures (circuit-breaker opens, failover
       retries surface here) or PUT back-pressure — precedence over any
       grow signal, and the learned latency floor resets because the
       conditions it was learned under are gone.
    2. **Shrink** the same way when the round's per-op latency exceeds
       ``slow_factor`` × the best the current window has seen.
    3. **Grow** while per-op latency keeps up with the window's best
       (within ``grow_tolerance``): doubling below the slow-start
       threshold left by the last shrink, additively above it.
    4. Otherwise **hold**.

    A **migration cap** rides on top: while the shard ring holds a
    dual-ownership window, the returned depth is clamped to
    ``migration_cap`` and the clamped-off slots are published as
    :attr:`yielded_slots` — the engine's :meth:`background_budget`
    hands them to the streaming migrator.
    """

    def __init__(
        self,
        min_depth: int = 1,
        max_depth: int = 32,
        migration_cap: int | None = None,
        slow_factor: float = 1.25,
        grow_tolerance: float = 1.05,
        window: int = 8,
    ):
        if min_depth < 1:
            raise ProtocolError("min_depth must be >= 1")
        if max_depth < min_depth:
            raise ProtocolError("max_depth must be >= min_depth")
        if migration_cap is None:
            migration_cap = max(min_depth, min(max_depth, 8))
        if not (min_depth <= migration_cap <= max_depth):
            raise ProtocolError("migration_cap must lie in [min, max]")
        self.min_depth = min_depth
        self.max_depth = max_depth
        self.migration_cap = migration_cap
        self.slow_factor = slow_factor
        self.grow_tolerance = grow_tolerance
        self.window = max(1, window)
        # AIMD state.  ``_raw_depth`` evolves uncapped; the published
        # ``depth`` is the raw value clamped under an active migration.
        self._raw_depth = min_depth
        self.depth = min_depth
        self._ssthresh = max_depth  # slow-start until the first shrink
        self._best_per_op = float("inf")
        self._window_best = float("inf")
        self._window_rounds = 0
        #: Depth slots the migration cap clamped off this round (the
        #: engine grants them to the migrator as background budget).
        self.yielded_slots = 0
        # Counters (all deterministic ints).
        self.decisions = 0
        self.changes = 0
        self.grows = 0
        self.shrinks = 0
        self.migration_capped = 0
        #: Decision log: ``(decision #, depth, reason)`` — digestible.
        self.log: list[tuple[int, int, str]] = []

    def round_depth(self, migration_active: bool = False) -> int:
        """Depth the next round should use (cap applied statelessly, so
        a window that opened mid-batch takes effect immediately)."""
        if migration_active:
            return min(self._raw_depth, self.migration_cap)
        return self._raw_depth

    def observe(self, obs: DepthObservation) -> int:
        """Fold one round's observation in; returns the next depth."""
        self.decisions += 1
        previous = self.depth
        per_op = obs.per_op_cycles
        raw = self._raw_depth
        if obs.failures > 0 or obs.backpressure:
            reason = "failures" if obs.failures > 0 else "backpressure"
            self._ssthresh = max(self.min_depth, raw // 2)
            raw = self._ssthresh
            # The latency floor was learned under conditions that no
            # longer hold; relearn it instead of shrinking forever.
            self._best_per_op = float("inf")
            self._window_best = float("inf")
            self._window_rounds = 0
        elif not obs.full:
            reason = "partial"
        elif per_op > self.slow_factor * self._best_per_op:
            reason = "slow-round"
            self._ssthresh = max(self.min_depth, raw // 2)
            raw = self._ssthresh
            # Reset the floor with the depth: a floor learned at a
            # deeper window is unreachable at the shrunk one, and
            # keeping it would wedge the governor at min_depth (every
            # post-shrink round looks "slow" forever).
            self._best_per_op = float("inf")
            self._window_best = float("inf")
            self._window_rounds = 0
        else:
            self._best_per_op = min(self._best_per_op, per_op)
            self._window_best = min(self._window_best, per_op)
            self._window_rounds += 1
            if self._window_rounds >= self.window:
                # Window decay: the floor relaxes to the recent best so
                # a stale unreachable optimum cannot wedge the governor.
                self._best_per_op = self._window_best
                self._window_best = float("inf")
                self._window_rounds = 0
            if per_op <= self.grow_tolerance * self._best_per_op:
                reason = "grow"
                raw = raw * 2 if raw < self._ssthresh else raw + 1
            else:
                reason = "hold"
        raw = max(self.min_depth, min(self.max_depth, raw))
        self._raw_depth = raw
        if obs.migration_active and raw > self.migration_cap:
            self.depth = self.migration_cap
            self.yielded_slots = raw - self.migration_cap
            self.migration_capped += 1
            reason += "+migration-cap"
        else:
            self.depth = raw
            self.yielded_slots = 0
        if self.depth != previous:
            self.changes += 1
            if self.depth > previous:
                self.grows += 1
            else:
                self.shrinks += 1
        self.log.append((self.decisions, self.depth, reason))
        return self.depth

    def log_digest(self) -> str:
        """SHA-256 over the decision log — byte-identical across
        replays of the same observation stream."""
        joined = "\n".join(f"{n}:{d}:{r}" for n, d, r in self.log)
        return hashlib.sha256(joined.encode()).hexdigest()


@dataclass
class EngineBatch:
    """Result of one pipelined fan-out.

    ``responses[i]`` is the store's response for ``requests[i]`` — or an
    exception instance when that op failed after retries.  Coalesced
    followers share their leader's response object; ``leader_of`` maps
    each follower position to its leader's position.
    """

    responses: list
    leader_of: dict[int, int] = field(default_factory=dict)

    @property
    def coalesced(self) -> int:
        return len(self.leader_of)


class PipelineEngine:
    """Multi-slot pipelining + coalescing over an RpcClient-shaped peer.

    Parameters
    ----------
    client:
        An :class:`~repro.net.rpc.RpcClient` or a
        :class:`~repro.cluster.router.ClusterRouter`: anything with
        ``plan_gets``/``submit_gets``/``wait_gets`` and the PUT twins.
    clock:
        The application machine's SimClock (client-side costs land here).
    shard_clocks:
        Mapping of shard id to that shard machine's SimClock, or a
        callable returning one (so restarted shards are re-read live).
        Clocks identical to ``clock`` are ignored: co-located work
        cannot overlap with the caller.
    """

    def __init__(
        self,
        client,
        clock,
        shard_clocks: Mapping[str, object] | Callable[[], Mapping[str, object]] | None = None,
        config: EngineConfig | None = None,
        tracer=NULL_TRACER,
    ):
        self.client = client
        self.clock = clock
        if shard_clocks is None:
            shard_clocks = {}
        self._shard_clocks = (
            shard_clocks if callable(shard_clocks) else (lambda: shard_clocks)
        )
        self.config = config or EngineConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Accounting (cycles).  makespan is the critical-path schedule
        # bound; serial is the plain sum a serial client would take.
        self.makespan_cycles = 0.0
        self.serial_cycles = 0.0
        self.rounds = 0
        self.ops = 0
        self.failures = 0
        self.coalesced_total = 0
        # Background (flusher) work carried into the next round.
        self._bg_app = 0.0
        self._bg_shard: dict[str, float] = {}
        #: The AIMD depth governor (``depth="auto"`` only).
        self.controller: AdaptiveDepthController | None = None
        if self.config.adaptive:
            self.controller = AdaptiveDepthController(
                min_depth=self.config.min_depth,
                max_depth=self.config.max_depth,
            )
        # Set by the runtime when a bounded PUT queue forces a drain;
        # consumed (and cleared) by the next round's depth observation.
        self._backpressure_pending = False

    # -- adaptive depth ------------------------------------------------------
    @property
    def depth_current(self) -> int:
        """The submit window the next round will use."""
        if self.controller is None:
            return self.config.depth
        return self.controller.round_depth(self._migration_active())

    def _migration_active(self) -> bool:
        """True while the client's shard ring holds a dual-ownership
        migration window (single-store clients never do)."""
        return bool(getattr(self.client, "in_transition", False))

    def note_backpressure(self) -> None:
        """Record that a bounded PUT queue forced a foreground drain —
        the adaptive controller treats the next round as congested."""
        self._backpressure_pending = True

    def background_budget(self, parallelism: int = 1) -> int:
        """Migration batches worth overlapping before the next
        foreground round: one baseline background-lane slot per unit of
        ``parallelism``, plus every depth slot the adaptive controller
        yielded while capped under a migration window.

        ``parallelism`` is the caller's count of independent transfer
        targets — a planned multi-shard window shipping ranges to N
        distinct gaining shards overlaps N transfers against one
        foreground round (distinct destination machines ingest
        concurrently), where a single-shard window gets the classic one
        baseline slot."""
        base = max(1, parallelism)
        if self.controller is None:
            return base
        return base + self.controller.yielded_slots

    def _observe_round(
        self, ops: int, makespan: float, failures: int, migration: bool
    ) -> None:
        if self.controller is None:
            return
        backpressure = self._backpressure_pending
        self._backpressure_pending = False
        previous = self.controller.depth
        depth = self.controller.observe(DepthObservation(
            ops=ops,
            makespan_cycles=makespan,
            failures=failures,
            backpressure=backpressure,
            migration_active=migration,
            full=ops >= self.controller.round_depth(migration),
        ))
        _, _, reason = self.controller.log[-1]
        self.tracer.event(
            "engine.depth_decision", clock=self.clock,
            prev=previous, depth=depth, reason=reason,
            ops=ops, failures=failures,
            backpressure=int(backpressure), migration=int(migration),
        )

    # -- clock plumbing ------------------------------------------------------
    def _remote_clocks(self) -> dict[str, object]:
        """Shard clocks that are genuinely other machines."""
        return {
            sid: c for sid, c in self._shard_clocks().items() if c is not self.clock
        }

    def _lanes(self, remote: Mapping[str, object], depth: int | None = None) -> int:
        # Without a remote machine there is nothing to overlap with:
        # every charge lands on the one clock, so the round is serial.
        if not remote:
            return 1
        if depth is None:
            depth = self.depth_current
        return max(1, min(self.config.workers, depth))

    # -- fan-out -------------------------------------------------------------
    def run_gets(self, requests: Sequence[Message]) -> EngineBatch:
        """Pipeline a list of GETs; coalesce duplicate in-flight tags.

        Exactly one store round trip is performed per distinct tag; the
        followers of a tag receive the leader's response object without
        touching the wire (and without charging any clock).  Each round
        fans out one sub-batch record per shard group the client plans
        (``plan_gets``), so the shards serve concurrently and the
        channel's AEAD cost stays amortized across the group.
        """
        requests = list(requests)
        responses: list = [None] * len(requests)
        leader_of: dict[int, int] = {}
        wire: list[int] = []
        if self.config.coalesce:
            leaders: dict[bytes, int] = {}
            for i, request in enumerate(requests):
                tag = request.tag if isinstance(request, GetRequest) else None
                if tag is None:
                    wire.append(i)
                    continue
                leader = leaders.setdefault(tag, i)
                if leader == i:
                    wire.append(i)
                else:
                    leader_of[i] = leader
        else:
            wire = list(range(len(requests)))
        self.coalesced_total += len(leader_of)
        start = 0
        while start < len(wire):
            depth = self.depth_current  # re-read: adaptive depth moves
            round_indices = wire[start:start + depth]
            start += depth
            self._run_round(
                [(i, requests[i]) for i in round_indices], responses,
                self.client.plan_gets, self.client.submit_gets, self.client.wait_gets,
            )
        for follower, leader in leader_of.items():
            responses[follower] = responses[leader]
        return EngineBatch(responses=responses, leader_of=leader_of)

    def run_puts(self, requests: Sequence[Message]) -> EngineBatch:
        """Pipeline a list of PUTs (never coalesced: every PUT wants its
        own durability verdict, and the store dedups identical tags).
        Each round ships one grouped sub-batch record per owner shard of
        the groups the client plans (``plan_puts``) instead of per-item
        PUTs, so the shards absorb their copies concurrently."""
        requests = list(requests)
        responses: list = [None] * len(requests)
        start = 0
        while start < len(requests):
            depth = self.depth_current  # re-read: adaptive depth moves
            ops = [
                (i, requests[i])
                for i in range(start, min(start + depth, len(requests)))
            ]
            start += depth
            self._run_round(
                ops, responses,
                self.client.plan_puts, self.client.submit_puts, self.client.wait_puts,
            )
        return EngineBatch(responses=responses)

    def _run_round(
        self, ops: list, responses: list, plan, submit, wait
    ) -> None:
        """One pipelined round over the client's shard groups.

        The round's ops are partitioned by the client (one group per
        primary shard); each group ships as a single record, is served by
        its shard concurrently with the other groups, and its app-side
        send/receive cost occupies one worker lane (replicated PUT copies
        are the client's concern and stay inside their group's slot).
        Clock charges stay identical to the serial per-shard sub-batch
        path; only the makespan accounting interprets them as overlapped.
        """
        remote = self._remote_clocks()
        migration = self._migration_active()
        failures0 = self.failures
        lanes = self._lanes(remote)
        round_start = {sid: c.modelled_cycles for sid, c in remote.items()}
        lane_busy = [0.0] * lanes
        chains: list[float] = []
        group_requests = [request for _, request in ops]
        groups = plan(group_requests)
        with self.tracer.span(
            "engine.round", clock=self.clock, ops=len(ops),
            groups=len(groups), lanes=lanes,
        ) as span:
            pending: list = []
            for slot, positions in enumerate(groups):
                sub = [group_requests[p] for p in positions]
                app0 = self.clock.modelled_cycles
                shard0 = {sid: c.modelled_cycles for sid, c in remote.items()}
                handle = error = None
                try:
                    handle = submit(sub)
                except _ENGINE_FAILURES as exc:
                    error = exc
                app_d = self.clock.modelled_cycles - app0
                shard_d = sum(c.modelled_cycles - shard0[sid] for sid, c in remote.items())
                pending.append((slot, positions, handle, error, app_d, shard_d))
            for slot, positions, handle, error, app_d, shard_d in pending:
                app0 = self.clock.modelled_cycles
                shard0 = {sid: c.modelled_cycles for sid, c in remote.items()}
                if error is None:
                    try:
                        replies: list = wait(handle, len(positions))
                    except _ENGINE_FAILURES as exc:
                        replies = [exc] * len(positions)
                        self.failures += len(positions)
                else:
                    replies = [error] * len(positions)
                    self.failures += len(positions)
                app_d += self.clock.modelled_cycles - app0
                shard_d += sum(c.modelled_cycles - shard0[sid] for sid, c in remote.items())
                lane_busy[slot % lanes] += app_d
                chains.append(app_d + shard_d)
                for position, reply in zip(positions, replies):
                    index, _ = ops[position]
                    responses[index] = reply
            shard_fg = [c.modelled_cycles - round_start[sid] for sid, c in remote.items()]
            shard_busy = [
                fg + self._bg_shard.pop(sid, 0.0)
                for fg, sid in zip(shard_fg, remote)
            ]
            bg_app = self._bg_app
            self._bg_app = 0.0
            makespan = max(
                max(lane_busy),
                max(shard_busy, default=0.0),
                max(chains, default=0.0),
                bg_app,
            )
            # The depth governor judges the *foreground* critical path:
            # background (flusher/migration) work folded into this round
            # is not evidence that the submit window is too deep.
            fg_makespan = max(
                max(lane_busy),
                max(shard_fg, default=0.0),
                max(chains, default=0.0),
            )
            serial = sum(lane_busy) + sum(shard_busy) + bg_app
            span.set("makespan_cycles", makespan)
            span.set("serial_cycles", serial)
        self.makespan_cycles += makespan
        self.serial_cycles += serial
        self.rounds += 1
        self.ops += len(ops)
        self._observe_round(
            len(ops), fg_makespan, self.failures - failures0, migration
        )

    # -- background (flusher) lane -------------------------------------------
    def background(self):
        """Context manager accounting enclosed work as a background lane.

        The enclosed work (an async PUT drain) charges the clocks
        normally; its cost is credited to the *next* round's makespan as
        one extra lane — it overlaps the foreground, bounded below by
        itself.  Call :meth:`settle` to fold any remainder in serially.
        """
        return _BackgroundSpan(self)

    def parallel_region(self) -> "_ParallelRegion":
        """Context manager accounting enclosed per-task app work as
        spread over the worker lanes.

        The runtime uses it for per-item result verification: each
        :meth:`_ParallelRegion.task` measures one item's app-clock cost,
        tasks are assigned round-robin to ``min(workers, n_tasks)``
        lanes (the enclave's worker threads, one per core), and on exit
        the region contributes its busiest lane to the makespan and the
        plain sum to the serial total.  With ``workers=1`` it degenerates
        to the exact serial sum.
        """
        return _ParallelRegion(self)

    def settle(self) -> None:
        """Fold background work no later round overlapped into the
        makespan serially (nothing ran concurrently with it)."""
        extra_shard = max(self._bg_shard.values(), default=0.0)
        if self._bg_app or self._bg_shard:
            self.makespan_cycles += max(self._bg_app, extra_shard)
            self.serial_cycles += self._bg_app + sum(self._bg_shard.values())
            self._bg_app = 0.0
            self._bg_shard.clear()

    # -- reading ---------------------------------------------------------------
    @property
    def sim_seconds(self) -> float:
        """Critical-path (pipelined) simulated seconds across all rounds."""
        return self.makespan_cycles / self.clock.params.cpu_freq_hz

    @property
    def serial_sim_seconds(self) -> float:
        """What the same ops cost the serial client (plain cycle sum)."""
        return self.serial_cycles / self.clock.params.cpu_freq_hz

    @property
    def overlap_cycles_saved(self) -> float:
        return self.serial_cycles - self.makespan_cycles

    def reset_accounting(self) -> None:
        self.settle()
        self.makespan_cycles = 0.0
        self.serial_cycles = 0.0
        self.rounds = 0
        self.ops = 0
        self.failures = 0
        self.coalesced_total = 0

    def snapshot(self) -> dict:
        """Canonical ``engine.<metric>`` counters for the registry."""
        snap = {
            "engine.depth": self.config.depth,
            "engine.depth_current": self.depth_current,
            "engine.workers": self.config.workers,
            "engine.rounds": self.rounds,
            "engine.ops": self.ops,
            "engine.failures": self.failures,
            "engine.coalesced_gets": self.coalesced_total,
            "engine.sim_seconds_total": self.sim_seconds,
            "engine.serial_sim_seconds_total": self.serial_sim_seconds,
        }
        if self.controller is not None:
            snap["engine.depth_decisions"] = self.controller.decisions
            snap["engine.depth_changes"] = self.controller.changes
            snap["engine.depth_grows"] = self.controller.grows
            snap["engine.depth_shrinks"] = self.controller.shrinks
            snap["engine.depth_migration_caps"] = self.controller.migration_capped
        else:
            snap["engine.depth_decisions"] = 0
            snap["engine.depth_changes"] = 0
            snap["engine.depth_grows"] = 0
            snap["engine.depth_shrinks"] = 0
            snap["engine.depth_migration_caps"] = 0
        return snap


class _ParallelRegion:
    """Accounts a run of same-shaped app tasks as worker-lane work."""

    __slots__ = ("_engine", "_costs")

    def __init__(self, engine: PipelineEngine):
        self._engine = engine
        self._costs: list[float] = []

    def __enter__(self) -> "_ParallelRegion":
        return self

    def task(self) -> "_ParallelRegion":
        """Context manager measuring one task's app-clock delta."""
        return _RegionTask(self)

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._costs:
            return False
        engine = self._engine
        lanes = max(1, min(engine.config.workers, len(self._costs)))
        lane_busy = [0.0] * lanes
        for i, cost in enumerate(self._costs):
            lane_busy[i % lanes] += cost
        engine.makespan_cycles += max(lane_busy)
        engine.serial_cycles += sum(self._costs)
        return False


class _RegionTask:
    """Measures one task's app-clock delta for its region."""

    __slots__ = ("_region", "_app0")

    def __init__(self, region: _ParallelRegion):
        self._region = region

    def __enter__(self) -> "_RegionTask":
        self._app0 = self._region._engine.clock.modelled_cycles
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._region._costs.append(
            self._region._engine.clock.modelled_cycles - self._app0
        )
        return False


class _BackgroundSpan:
    """Measures one background drain's per-machine clock deltas."""

    __slots__ = ("_engine", "_app0", "_shard0", "_remote")

    def __init__(self, engine: PipelineEngine):
        self._engine = engine

    def __enter__(self) -> "_BackgroundSpan":
        self._remote = self._engine._remote_clocks()
        self._app0 = self._engine.clock.modelled_cycles
        self._shard0 = {sid: c.modelled_cycles for sid, c in self._remote.items()}
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        engine = self._engine
        engine._bg_app += engine.clock.modelled_cycles - self._app0
        for sid, c in self._remote.items():
            delta = c.modelled_cycles - self._shard0[sid]
            if delta:
                engine._bg_shard[sid] = engine._bg_shard.get(sid, 0.0) + delta
        return False
