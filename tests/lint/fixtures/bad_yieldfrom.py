"""Fixture: yield-from discipline violations (family ``yield-from``)."""

from repro.simengine import Delay


def rank_main(comm):
    comm.send(b"x", dest=1)                    # line 7: SL101 (discarded send)
    data = comm.recv(source=0)                 # line 8: SL102 (assigned generator)
    yield comm.barrier()                       # line 9: SL103 (yield, not yield from)
    msg = yield from comm._post_recv(0, 5)     # line 10: SL104 (yield from an event)
    Delay(1.0)                                 # line 11: SL101 (discarded event)
    ok = yield from comm.allreduce(1.0)        # clean
    suppressed = comm.recv(source=1)           # simlint: ignore[SL102]
    family_wide = comm.recv(source=2)          # simlint: ignore[yield-from]
    blanket = comm.recv(source=3)              # simlint: ignore
    return data, msg, ok, suppressed, family_wide, blanket


def not_a_generator(comm):
    # Outside a generator the helper tables do not apply.
    return comm.send


def false_positive_guards(gen, line, d):
    """Ambiguous names on non-sim receivers stay silent."""
    parts = line.split(",")
    value = d.get("key")
    yield 0
    return parts, value
