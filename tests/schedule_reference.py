"""An independent reference for the engine's batch schedule.

``reference_starts`` re-derives the list schedule the engine's
``repro.engine.list_schedule`` must produce, by the slowest obvious
method: at each decision time it rescans every task.  ``violations``
checks any start times against a task graph without scheduling
anything.  Both take a graph as four parallel lists: ``costs``,
``kinds`` (``"receive"``, ``"send"``, ``"tag"``, ``"verify"``,
``"compute"`` for a lane task, ``"serve"`` or ``"drain"`` for a task
on a shard or the background lane), ``shards`` (``None`` for a lane
task, else the resource it runs on) and ``deps``; ``violations`` also
reads the shard groups, ``(send, receive, items)`` in wire order, and
the window ``depth`` that bounds their items in flight.

``capture`` records every graph the engine solves, so a test can hold
the engine's makespan to the reference exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.engine

#: A free lane takes the ready task of the earliest kind in this list.
LANE_ORDER = ("receive", "send", "tag", "verify", "compute")


@dataclass
class Graph:
    costs: list
    kinds: list
    shards: list
    deps: list
    lanes: int = 1
    groups: list = field(default_factory=list)
    depth: int = 0

    @property
    def makespan(self) -> float:
        starts = reference_starts(self)
        return max((s + c for s, c in zip(starts, self.costs)), default=0.0)


def reference_starts(graph: Graph) -> list[float]:
    """Start times under the policy: a free lane takes the ready lane
    task of earliest kind, then lowest index; a shard serves its ready
    tasks lowest index first, one at a time; nothing is preempted.

    Each pass at an instant starts what the free lanes and idle shards
    can take; a task of zero cost holds its lane for the rest of that
    pass, and frees it (and its dependents) for a next pass at the same
    instant.
    """
    n = len(graph.costs)
    start: list = [None] * n
    finish: list = [None] * n
    now = 0.0
    while None in start:
        def ready(task):
            return start[task] is None and all(
                finish[d] is not None and finish[d] <= now for d in graph.deps[task]
            )

        def running(task):
            return start[task] is not None and start[task] <= now < finish[task]

        started = []
        free = graph.lanes - sum(
            1 for t in range(n) if graph.shards[t] is None and running(t)
        )
        waiting = sorted(
            (LANE_ORDER.index(graph.kinds[t]), t)
            for t in range(n) if graph.shards[t] is None and ready(t)
        )
        started += [t for _, t in waiting[:max(0, free)]]
        for shard in sorted({s for s in graph.shards if s is not None}):
            if not any(graph.shards[t] == shard and running(t) for t in range(n)):
                queue = [t for t in range(n) if graph.shards[t] == shard and ready(t)]
                started += queue[:1]
        for task in started:
            start[task], finish[task] = now, now + graph.costs[task]
        if any(graph.costs[t] == 0 for t in started):
            continue
        later = [f for f in finish if f is not None and f > now]
        if not later:
            assert None not in start, "a task can never run"
            break
        now = min(later)
    return start


def violations(graph: Graph, starts: list[float], serial: float) -> list[str]:
    """Every way ``starts`` breaks the model; empty when it holds."""
    found: list[str] = []
    lanes = graph.lanes
    n = len(graph.costs)
    ends = [s + c for s, c in zip(starts, graph.costs)]
    for task in range(n):
        for before in graph.deps[task]:
            if starts[task] < ends[before]:
                found.append(f"task {task} starts before its dependency {before} ends")
    lane = [t for t in range(n) if graph.shards[t] is None and graph.costs[t] > 0]
    for t in lane:
        overlapping = sum(1 for u in lane if starts[u] <= starts[t] < ends[u])
        if overlapping > lanes:
            found.append(f"{overlapping} lane tasks run at {starts[t]} on {lanes} lanes")
    for shard in {s for s in graph.shards if s is not None}:
        serves = sorted(
            (starts[t], ends[t]) for t in range(n)
            if graph.shards[t] == shard and graph.costs[t] > 0
        )
        for (_, end), (begin, _) in zip(serves, serves[1:]):
            if begin < end:
                found.append(f"shard {shard} serves two groups at {begin}")
        order = [t for t in range(n) if graph.shards[t] == shard and graph.kinds[t] == "serve"]
        for before, after in zip(order, order[1:]):
            if starts[after] < starts[before]:
                found.append(f"shard {shard} starts serve {after} before serve {before}")
    flights = [(starts[send], ends[receive], items) for send, receive, items in graph.groups]
    for at, _, _ in flights:
        held = sum(items for begin, end, items in flights if begin <= at < end)
        if held > graph.depth:
            found.append(f"{held} items in flight at {at} over a window of {graph.depth}")
    makespan = max(ends, default=0.0)
    chain = [0.0] * n
    for task in range(n):  # deps always name earlier tasks
        chain[task] = graph.costs[task] + max((chain[d] for d in graph.deps[task]), default=0.0)
    if makespan < max(chain, default=0.0):
        found.append(f"makespan {makespan} under the longest chain {max(chain)}")
    app_work = sum(graph.costs[t] for t in range(n) if graph.shards[t] is None)
    if makespan * lanes < app_work:
        found.append(f"makespan {makespan} under the app work {app_work} over {lanes} lanes")
    if makespan > serial:
        found.append(f"makespan {makespan} over the serial sum {serial}")
    return found


class capture:
    """Records every graph the engine solves from now on (the patch
    ends with the test), with the engine's own start times, as
    ``(Graph, starts)`` pairs."""

    def __init__(self, monkeypatch):
        self.solved: list[tuple[Graph, list[float]]] = []
        solve, makespan = repro.engine.list_schedule, repro.engine._Schedule.makespan
        kinds = {rank: kind for kind, rank in repro.engine._PRIORITY.items()}
        solving = []

        def opening(schedule, lanes):
            solving.append(schedule)
            return makespan(schedule, lanes)

        def recording(costs, priorities, shards, deps, lanes):
            starts = solve(costs, priorities, shards, deps, lanes)
            schedule = solving.pop()
            graph = Graph(
                list(costs), [kinds[p] for p in priorities], list(shards),
                [list(d) for d in deps], lanes,
                list(schedule.groups), schedule.held + len(schedule.free) + schedule.unused,
            )
            self.solved.append((graph, starts))
            return starts

        monkeypatch.setattr(repro.engine._Schedule, "makespan", opening)
        monkeypatch.setattr(repro.engine, "list_schedule", recording)
