"""Fixture: yield-from discipline violations (family ``yield-from``)."""

from repro.simengine import Delay


def rank_main(comm):
    comm.send(b"x", dest=1)                    # line 7: SL101 (discarded send)
    data = yield from comm.recv(source=0)      # clean
    yield from comm.barrier()                  # clean (a plain yield is a TypeError)
    msg = yield comm._post_recv(0, 5)          # clean (yield from is a TypeError)
    Delay(1.0)                                 # line 11: SL101 (discarded event)
    ok = yield from comm.allreduce(1.0)        # clean
    comm.recv(source=1)                        # simlint: ignore[SL101]
    comm.recv(source=2)                        # simlint: ignore[yield-from]
    comm.recv(source=3)                        # simlint: ignore
    return data, msg, ok


def not_a_generator(comm):
    # Outside a generator the helper tables do not apply.
    return comm.send


def false_positive_guards(gen, line, d):
    """Ambiguous names on non-sim receivers stay silent."""
    parts = line.split(",")
    value = d.get("key")
    yield 0
    return parts, value
