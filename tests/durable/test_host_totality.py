"""Recovery is total over host actions.

Whatever sequence of :class:`~repro.security.HostAdversary` actions the
host applies to a durable store's names before a power failure — flipped
bytes, cut writes, deleted, exchanged, stale or rolled-back names —
``recover()`` ends in a :class:`~repro.durable.RecoveryReport` or a coded
:class:`~repro.errors.SpeedError`, never any other exception.  (A wrong
or silently short recovery is ROADMAP 7's; this property is about the
exception contract.)
"""

from repro.durable import RecoveryReport
from repro.errors import SpeedError
from repro.security import HostAdversary
from tests.proptest import Gen, for_all, lists_of

from .conftest import durable_deployment, put

KINDS = ("flip", "truncate", "delete", "exchange", "stale", "rollback")


def action(rng):
    return rng.choice(KINDS), rng.randrange(1 << 16), rng.randrange(1 << 16)


def act(adversary: HostAdversary, stale: dict, kind: str, i: int, j: int) -> None:
    names = adversary.host.names()
    if kind == "rollback":
        adversary.put_back(stale, prefix="")
    elif kind == "stale":
        name = sorted(stale)[i % len(stale)]
        adversary.put_back({name: stale[name]})
    elif names:
        name = names[i % len(names)]
        size = len(adversary.host.get(name))
        if kind == "flip" and size:
            adversary.flip(name, j % size, 1 + j % 255)
        elif kind == "truncate":
            adversary.truncate(name, j % (size + 1))
        elif kind == "delete":
            adversary.delete(name)
        elif kind == "exchange":
            adversary.exchange(name, names[j % len(names)])


@for_all(lists_of(Gen(action), min_len=1, max_len=6), runs=40)
def test_recovery_under_host_actions_is_a_report_or_a_coded_error(actions):
    # Capacity 4 evicts, interval 4 checkpoints: every kind of name exists.
    d, client = durable_deployment(
        b"host-totality", capacity_entries=4, checkpoint_interval=4,
    )
    for i in range(3):
        put(client, bytes([i]))
    adversary = HostAdversary(d.platform.host)
    stale = adversary.save()
    for i in range(3, 7):
        put(client, bytes([i]))
    for kind, i, j in actions:
        act(adversary, stale, kind, i, j)
    d.store.power_fail()
    try:
        assert isinstance(d.store.recover(), RecoveryReport)
    except SpeedError as exc:
        assert exc.code != SpeedError.code
