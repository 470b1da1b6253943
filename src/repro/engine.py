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
therefore reports elapsed simulated time as the makespan of a **list
schedule** over the measured tasks of one batch (one
``DedupRuntime._run``, opened with :meth:`PipelineEngine.batch`; a
round, a region or a settle entered outside one opens a batch of its
own):

- *tasks*: each item's tag + L1 probe, each exchange's OCALL enter and
  exit, each shard group's send (app cost of ``submit``), serve (each
  remote shard's cost, one task per shard) and receive (app cost of
  ``wait``), each answered item's verification, each computed miss's
  compute + protect, and each background drain (below).  Only the
  application's ECALL enter and exit stay outside every task;
- *dependencies*: ``depth`` bounds the items in flight, not a round.
  A shard group takes one window slot per item; when too few are free,
  the oldest groups' receives free theirs.  Its send waits for the last
  holder of each slot it takes (the never-held ones first, then the
  last freed), for its items' tags (a walking item's: the receive that
  sent it on; it rides the next round, beside first steps still to go),
  for its exchange's OCALL enter and for the previous round's drains.
  A serve follows its send and its shard's previous serve (a shard
  serves in wire order), and a receive its serves; an OCALL's exit
  follows every receive of its exchange, and only the batch's end waits
  for it.  An item's verification follows the receive of the last round
  it walked in, and its compute that verification (a miss's costs
  nothing); a batch's PUT exchange waits for everything before it (the
  results are sealed in one pass).  The enclave work of later items
  thus overlaps the store I/O still outstanding, as the paper's
  asynchronous PUT thread does (§V-B);
- *resources*: ``workers`` app lanes, one per remote shard and the
  background lane (below), each running one task at a time without
  preemption.  A free lane takes the ready task first in the order
  receive, OCALL, send, tag (input order), verification, compute; a
  shard serves its ready tasks in the order they were added.

The makespan is bounded below by the longest dependency chain and by
the app work over the lanes, and above by the plain sum of the task
costs, ``serial_cycles``.  With ``depth=1, workers=1`` a round
degenerates to the exact serial sum, and a round whose store shares the
application's machine (no second clock to overlap with) runs its groups
one after another — one machine cannot overlap with itself.

The asynchronous PUT flusher uses :meth:`PipelineEngine.background` to
account its drains, the one-way send and the ack decrypts alike, as
tasks of the schedule the next round lands in: the app cycles on the
one background lane, each shard's cycles on that shard ahead of the
round's serves, all ready once the round before is done and waited for
by the round after it.  A drain thus overlaps the one round it lands in
(and the lane work beside it) but not another drain, nor its shard's
serves; :meth:`settle` solves the drains no round took as one schedule
of their own, the acks beside the shards' ingest.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .cluster.router import GetWalk
from .errors import ChannelError, ProtocolError, TransportError
from .net.messages import GetRequest, Message
from .obs.tracer import NULL_TRACER

# Failures that mean "the store did not serve this op" — the runtime
# degrades (or surfaces) them per item, exactly like the serial path.
_ENGINE_FAILURES = (TransportError, ChannelError, ProtocolError)

#: Task kinds, in the order a free lane prefers them (a serve runs on
#: its shard and a drain on its shard or the background lane, never on
#: a worker lane; an OCALL's enter or exit is a lane task).
_PRIORITY = {
    "receive": 0, "ocall": 1, "send": 2, "tag": 3, "verify": 4, "compute": 5, "serve": 6,
    "drain": 7,
}

#: The resource a drain's app cycles run on: one lane, §V-B's flusher.
_BACKGROUND = "background lane"


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the pipelined engine."""

    #: Items in flight at once (the submit window).
    depth: int = 8
    #: Enclave worker lanes a batch's app tasks (tags, sends, receives,
    #: verifications, compute + protect) are list-scheduled on.  Clamped
    #: to the depth bound: a round never has more groups than that.
    workers: int = 4
    #: Single-flight: identical in-flight tags share one round trip.
    coalesce: bool = True

    def __post_init__(self):
        for name in ("depth", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ProtocolError(f"engine {name} must be an int >= 1, not {value!r}")
        object.__setattr__(self, "workers", min(self.workers, self.depth))


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
    #: Per position, the schedule task after which its response is in
    #: hand (the receive of the last round it walked in); ``None`` when
    #: no engine carried the group.
    ready: list | None = None

    @property
    def coalesced(self) -> int:
        return len(self.leader_of)


class PipelineEngine:
    """Multi-slot pipelining + coalescing over a router-shaped peer.

    Parameters
    ----------
    client:
        A :class:`~repro.cluster.router.ClusterRouter`, or anything with
        its ``plan_gets``/``submit_gets``/``wait_gets`` and the PUT twins.
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
        shard_clocks = shard_clocks or {}
        self._shard_clocks = shard_clocks if callable(shard_clocks) else (lambda: shard_clocks)
        self.config = config or EngineConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        # Accounting (cycles), grown only as a batch ends: makespan is
        # its schedule's; serial the plain sum a serial client would take.
        self.makespan_cycles = self.serial_cycles = 0.0
        self.rounds = self.ops = self.failures = self.coalesced_total = 0
        # Background (flusher) work carried into the next round, per
        # shard id or the background lane.
        self._drains: dict[str, float] = {}
        # The open batch's task graph (see :meth:`batch`), else None.
        self._schedule: _Schedule | None = None

    # -- clock plumbing ------------------------------------------------------
    def _remote_clocks(self) -> dict[str, object]:
        """Shard clocks that are genuinely other machines."""
        return {sid: c for sid, c in self._shard_clocks().items() if c is not self.clock}

    # -- fan-out -------------------------------------------------------------
    @contextmanager
    def batch(self):
        """Account every round and region opened inside as one list
        schedule (module docstring), solved when the batch ends; a batch
        opened inside another joins it.  The one place both totals grow:
        by the schedule's makespan, and by the plain sum of its costs."""
        if self._schedule is not None:
            yield
            return
        self._schedule = schedule = _Schedule()
        try:
            yield
        finally:
            self._schedule = None
            self.makespan_cycles += schedule.makespan(self.config.workers)
            self.serial_cycles += sum(schedule.costs)

    def run_gets(
        self, requests: Sequence[Message], after: Sequence[int | None] | None = None,
        ocall=None,
    ) -> EngineBatch:
        """Pipeline a list of GETs; coalesce duplicate in-flight tags.

        Exactly one store round trip is performed per distinct tag; the
        followers of a tag receive the leader's response object without
        touching the wire (and without charging any clock).  Each round
        fans out one sub-batch record per shard group the client plans
        (``plan_gets``), so the shards serve concurrently and the
        channel's AEAD cost stays amortized across the group.

        Every GET travels as a :class:`~repro.cluster.router.GetWalk`
        through one queue, ``depth`` items a round: an item a primary
        missed or did not serve goes back on the end of the queue to ask
        its next owner (one record per next owner, over the same plan,
        submit and wait), once the receive that sent it on is done.

        The rounds join the open :meth:`batch`, or one of their own:
        ``after[i]`` names the task of that batch request ``i`` waits for
        (its tag), and the answer's ``ready`` the receive each response
        arrives with.  ``ocall``, the enclave transition the GETs leave
        under, is accounted as two lane tasks (:meth:`_crossing`).
        """
        requests = list(requests)
        responses: list = [None] * len(requests)
        ready: list = [None] * len(requests)
        leader_of: dict[int, int] = {}
        leaders: dict[bytes, int] = {}
        ops = []  # (request index, what goes on the wire), the queue
        for i, request in enumerate(requests):
            if isinstance(request, GetRequest):
                leader = leaders.setdefault(request.tag, i) if self.config.coalesce else i
                if leader != i:
                    leader_of[i] = leader
                    continue
                request = GetWalk(request)
            ops.append((i, request))
        self.coalesced_total += len(leader_of)
        after = list(after or [None] * len(requests))
        depth = self.config.depth
        with self.batch(), self._crossing(ocall):
            start = 0
            while start < len(ops):
                sent = ops[start:start + depth]
                self._run_round(
                    sent, depth, responses, ready,
                    self.client.plan_gets, self.client.submit_gets, self.client.wait_gets, after,
                )
                start += len(sent)
                for i, _ in sent:  # a walk's next step leaves once its answer is in
                    if type(responses[i]) is GetWalk:
                        ops.append((i, responses[i]))
                        after[i] = ready[i]
        for follower, leader in leader_of.items():
            responses[follower] = responses[leader]
            ready[follower] = ready[leader]
        return EngineBatch(responses=responses, leader_of=leader_of, ready=ready)

    def run_puts(self, requests: Sequence[Message], ocall=None) -> EngineBatch:
        """Pipeline a list of PUTs (never coalesced: every PUT wants its
        own durability verdict, and the store dedups identical tags).
        Each round ships one grouped sub-batch record per owner shard of
        the groups the client plans (``plan_puts``) instead of per-item
        PUTs, so the shards absorb their copies concurrently.  The rounds
        join the open :meth:`batch`, or one of their own, and the first
        (or ``ocall``'s enter, as in :meth:`run_gets`) waits for every
        task before it: the batch's results leave sealed in one pass."""
        ops = list(enumerate(requests))
        responses: list = [None] * len(ops)
        ready: list = [None] * len(ops)
        depth = self.config.depth
        with self.batch():
            self._schedule.fence()
            with self._crossing(ocall):
                start = 0
                while start < len(ops):
                    self._run_round(
                        ops[start:start + depth], depth, responses, ready,
                        self.client.plan_puts, self.client.submit_puts, self.client.wait_puts,
                    )
                    start += depth
        return EngineBatch(responses=responses, ready=ready)

    @contextmanager
    def _crossing(self, ocall):
        """Account the enclave transition ``ocall`` (``None``: none) the
        rounds inside leave under as two lane tasks of the open batch:
        its enter, after the barrier, which every send inside waits for,
        and its exit, after every receive inside, which only the batch's
        end waits for."""
        if ocall is None:
            yield
            return
        schedule, app0 = self._schedule, self.clock.cycles
        with ocall:
            schedule.barrier = [schedule.add(self.clock.cycles - app0, "ocall", schedule.barrier)]
            first = len(schedule.groups)
            yield
            app0 = self.clock.cycles
        receives = [receive for _, receive, _ in schedule.groups[first:]]
        schedule.add(self.clock.cycles - app0, "ocall", receives)

    def _run_round(
        self, ops: list, depth: int, responses: list, ready: list, plan, submit, wait,
        after: Sequence[int | None] | None = None,
    ) -> None:
        """One pipelined round over the client's shard groups.

        The round's ops are partitioned by the client (one group per
        primary shard); each group ships as a single record and becomes
        a send, a serve per remote shard it touched and a receive in the
        open batch's schedule (replicated PUT copies are the client's
        concern and stay inside their group).  Clock charges stay
        identical to the serial per-shard sub-batch path; only the
        makespan accounting interprets them as overlapped.
        """
        remote = self._remote_clocks()
        tasks: list = []  # per group: (deps, send, serve per shard, receive, items)
        members: list[list[int]] = []  # per group: its request indices
        group_requests = [request for _, request in ops]
        groups = plan(group_requests)
        with self.tracer.span(
            "engine.round", clock=self.clock, ops=len(ops), groups=len(groups),
        ):
            pending: list = []
            for positions in groups:
                sub = [group_requests[p] for p in positions]
                app0 = self.clock.cycles
                shard0 = {sid: c.cycles for sid, c in remote.items()}
                handle = error = None
                try:
                    handle = submit(sub)
                except _ENGINE_FAILURES as exc:
                    error = exc
                send = self.clock.cycles - app0
                serve = {sid: c.cycles - shard0[sid] for sid, c in remote.items()}
                pending.append((positions, handle, error, send, serve))
            for positions, handle, error, send, serve in pending:
                app0 = self.clock.cycles
                shard0 = {sid: c.cycles for sid, c in remote.items()}
                if error is None:
                    try:
                        replies: list = wait(handle, len(positions))
                    except _ENGINE_FAILURES as exc:
                        replies = [exc] * len(positions)
                        self.failures += len(positions)
                else:
                    replies = [error] * len(positions)
                    self.failures += len(positions)
                receive = self.clock.cycles - app0
                served = {sid: c.cycles - shard0[sid] for sid, c in remote.items()}
                indices = [ops[position][0] for position in positions]
                deps = [] if after is None else [
                    after[i] for i in indices if after[i] is not None
                ]
                tasks.append((deps, send, {
                    sid: serve[sid] + served[sid] for sid in remote
                }, receive, len(positions)))
                members.append(indices)
                for index, reply in zip(indices, replies):
                    responses[index] = reply
        background = {sid: self._drains.pop(sid, 0.0) for sid in remote}
        background[_BACKGROUND] = self._drains.pop(_BACKGROUND, 0.0)
        receives = self._schedule.add_round(tasks, background, not remote, depth)
        for receive, indices in zip(receives, members):
            for index in indices:
                ready[index] = receive
        self.rounds += 1
        self.ops += len(ops)

    # -- background (flusher) lane -------------------------------------------
    @contextmanager
    def background(self):
        """Context manager accounting enclosed work as a background lane.

        The enclosed work (an async PUT drain) charges the clocks
        normally; the *next* round adds its app cycles as a task on the
        one background lane and each shard's cycles as a task on that
        shard, ahead of the round's serves, and the round after waits for
        them — a drain overlaps the round it lands in, never another
        drain or its shard's own serves.  Call :meth:`settle` to solve
        what no round took.
        """
        remote = self._remote_clocks()
        app0, shard0 = self.clock.cycles, {sid: c.cycles for sid, c in remote.items()}
        try:
            yield
        finally:
            deltas = {sid: c.cycles - shard0[sid] for sid, c in remote.items()}
            deltas[_BACKGROUND] = self.clock.cycles - app0
            for resource, delta in deltas.items():
                if delta:
                    self._drains[resource] = self._drains.get(resource, 0.0) + delta

    @contextmanager
    def parallel_region(self, kind: str = "compute"):
        """Context manager accounting enclosed per-item app work as tasks
        on the worker lanes.

        The runtime uses it for each per-item enclave stage (``kind`` is
        ``"tag"``, ``"verify"`` or ``"compute"``): each
        :meth:`_ParallelRegion.task` measures one item's app-clock cost
        as one task of the open batch's schedule, or of a batch of the
        region's own, after the task its ``after`` names.  ``workers=1``
        is the exact serial sum.
        """
        with self.batch():
            yield _ParallelRegion(self, kind)

    def settle(self) -> None:
        """Solve the drains no later round took as a batch of their own:
        each on its shard or the background lane, all ready at once, so
        the batch lasts as long as its busiest resource."""
        drains, self._drains = self._drains, {}
        if drains:
            with self.batch():
                self._schedule.add_round([], drains, False, 0)

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
        self.makespan_cycles = self.serial_cycles = 0.0
        self.rounds = self.ops = self.failures = self.coalesced_total = 0

    def snapshot(self) -> dict:
        """Canonical ``engine.<metric>`` counters for the registry."""
        return {
            "engine.depth": self.config.depth,
            "engine.depth_current": self.config.depth,
            "engine.workers": self.config.workers,
            "engine.rounds": self.rounds,
            "engine.ops": self.ops,
            "engine.failures": self.failures,
            "engine.coalesced_gets": self.coalesced_total,
            "engine.sim_seconds_total": self.sim_seconds,
            "engine.serial_sim_seconds_total": self.serial_sim_seconds,
        }


class _ParallelRegion:
    """Adds a run of same-kind app tasks to the open batch's schedule."""

    def __init__(self, engine: PipelineEngine, kind: str):
        self._clock, self._kind, self._schedule = engine.clock, kind, engine._schedule

    @contextmanager
    def task(self, after: int | None = None):
        """Measures one task's app-clock delta; it enters as the task's
        id in the schedule."""
        task = self._schedule.add(0.0, self._kind, () if after is None else (after,))
        app0 = self._clock.cycles
        try:
            yield task
        finally:
            self._schedule.costs[task] = self._clock.cycles - app0


class _Schedule:
    """One batch's task graph (module docstring): tasks in the order
    they ran, each with its cost, kind, shard (``None`` for a lane
    task, else the shard or the background lane it runs on) and the
    tasks it waits for.  Solved once, when its batch ends; nothing of
    it outlives the batch."""

    __slots__ = (
        "costs", "kinds", "shards", "deps", "barrier", "last", "groups", "oldest", "free",
        "unused", "serving",
    )

    def __init__(self):
        self.costs: list[float] = []
        self.kinds: list[int] = []
        self.shards: list[str | None] = []
        self.deps: list[Sequence[int]] = []
        #: Every send of the next round waits for these: the last
        #: round's drains, or every task before a :meth:`fence`.
        self.barrier: list[int] = []
        #: The last round's receives: the next round's drains wait for
        #: them and the barrier.
        self.last: list[int] = []
        #: Every group in wire order, ``(send, receive, items)``; those
        #: from ``oldest`` on hold window slots.
        self.groups: list[tuple[int, int, int]] = []
        self.oldest = 0
        #: The window's free slots: each freed one, in the order they were
        #: freed, as the receive of the group that held it last, and a
        #: count of those never held.
        self.free: list[int] = []
        self.unused = 0
        #: Each shard's last serve, as a 1-tuple: a shard serves in wire order.
        self.serving: dict[str, tuple[int]] = {}

    def add(self, cost: float, kind: str, deps: Sequence[int] = (), shard=None) -> int:
        self.costs.append(cost)
        self.kinds.append(_PRIORITY[kind])
        self.shards.append(shard)
        self.deps.append(deps)
        return len(self.costs) - 1

    def fence(self) -> None:
        """Every task added from now on waits for every task so far."""
        self.barrier, self.last = list(range(len(self.costs))), []
        self.unused, self.free = self.unused + self.held + len(self.free), []
        self.oldest = len(self.groups)

    @property
    def held(self) -> int:
        """Items in the window: sent, and their slots not yet freed."""
        return sum(items for _, _, items in self.groups[self.oldest:])

    def add_round(
        self, groups: list, background: Mapping[str, float], chained: bool, depth: int
    ) -> list[int]:
        """Add one round's groups, each ``(deps, send, serve per shard,
        receive, items)``; returns each group's receive.  A group takes
        one window slot per item, freeing the oldest groups' slots until
        at most ``depth`` items are in flight with it, and its send waits
        for ``deps``, the barrier and the last holder of each slot it
        takes.  ``background`` maps a shard, or the background lane, to
        the drain work landing in this round: one task there, ready when
        the last round is done, ahead of its serves, and waited for by
        the next round.  ``chained`` runs the groups one after another (a
        store on the app's own machine)."""
        drains = [
            self.add(cost, "drain", [*self.barrier, *self.last], resource)
            for resource, cost in background.items() if cost
        ]
        receives: list[int] = []
        for deps, send, serves, receive, items in groups:
            held = self.held
            self.unused += max(0, depth - held - len(self.free) - self.unused)  # grows only
            while held + items > depth:
                _, freed, count = self.groups[self.oldest]
                self.oldest += 1
                self.free += [freed] * count
                held -= count
            fresh = min(self.unused, items)  # never-held slots first, then the last freed
            self.unused -= fresh
            cut = len(self.free) - items + fresh
            taken, self.free = set(self.free[cut:]), self.free[:cut]
            deps = [*self.barrier, *deps, *sorted(taken)]
            if chained and self.groups:
                deps.append(self.groups[-1][1])
            sent = self.add(send, "send", deps)
            served = [
                self.add(cost, "serve", (sent, *self.serving.get(shard, ())), shard)
                for shard, cost in serves.items() if cost
            ]
            self.serving.update((self.shards[serve], (serve,)) for serve in served)
            receives.append(self.add(receive, "receive", served or (sent,)))
            self.groups.append((sent, receives[-1], items))
        if receives:
            self.barrier, self.last = drains, receives
        return receives

    def makespan(self, lanes: int) -> float:
        starts = list_schedule(self.costs, self.kinds, self.shards, self.deps, lanes)
        return max((start + cost for start, cost in zip(starts, self.costs)), default=0.0)


def list_schedule(
    costs: Sequence[float],
    priorities: Sequence[int],
    shards: Sequence[str | None],
    deps: Sequence[Sequence[int]],
    lanes: int,
) -> list[float]:
    """Start time of every task of a non-preemptive list schedule.

    A task is ready once every task in its ``deps`` has finished.  Lane
    tasks (``shards[i] is None``) run on ``lanes`` identical lanes: a
    free lane takes the ready task of lowest ``(priority, index)``.  Any
    other task runs on the resource ``shards[i]`` names, one at a time,
    lowest index first.
    """
    count = len(costs)
    waiting = [len(before) for before in deps]
    dependents: list[list[int]] = [[] for _ in range(count)]
    for task, before in enumerate(deps):
        for earlier in before:
            dependents[earlier].append(task)
    starts = [0.0] * count
    ready_lanes: list[tuple[int, int]] = []
    ready_shards: dict[str, list[int]] = {}
    busy: set[str] = set()
    running: list[tuple[float, int]] = []
    free = lanes
    now = 0.0

    def release(task: int) -> None:
        shard = shards[task]
        if shard is None:
            heapq.heappush(ready_lanes, (priorities[task], task))
        else:
            heapq.heappush(ready_shards.setdefault(shard, []), task)

    for task in range(count):
        if not waiting[task]:
            release(task)
    while True:
        while free and ready_lanes:
            _, task = heapq.heappop(ready_lanes)
            starts[task] = now
            heapq.heappush(running, (now + costs[task], task))
            free -= 1
        for shard, queue in ready_shards.items():
            if queue and shard not in busy:
                task = heapq.heappop(queue)
                starts[task] = now
                heapq.heappush(running, (now + costs[task], task))
                busy.add(shard)
        if not running:
            return starts
        now = running[0][0]
        while running and running[0][0] <= now:
            _, task = heapq.heappop(running)
            if shards[task] is None:
                free += 1
            else:
                busy.discard(shards[task])
            for later in dependents[task]:
                waiting[later] -= 1
                if not waiting[later]:
                    release(later)
