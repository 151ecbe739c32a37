"""Integration tests for the simulated MPI communicator."""

import numpy as np
import pytest

from repro.machine import xt4
from repro.mpi import ANY_SOURCE, MPIJob, Request


def run(machine, ntasks, fn, *args, **kwargs):
    return MPIJob(machine, ntasks).run(fn, *args, **kwargs)


# ----------------------------------------------------------------- pt2pt
def test_send_recv_delivers_payload():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.arange(4), dest=1)
            return None
        data = yield from comm.recv(source=0)
        return data.tolist()

    res = run(xt4("SN"), 2, main)
    assert res.returns[1] == [0, 1, 2, 3]
    assert res.elapsed_s > 0


def test_send_recv_any_source_and_status():
    def main(comm):
        if comm.rank == 0:
            got = []
            for _ in range(2):
                obj, src, tag = yield from comm.recv_with_status(
                    source=ANY_SOURCE
                )
                got.append((obj, src, tag))
            return sorted(got)
        yield from comm.send(comm.rank * 10, dest=0, tag=comm.rank)
        return None

    res = run(xt4("SN"), 3, main)
    assert res.returns[0] == [(10, 1, 1), (20, 2, 2)]


def test_tag_matching_out_of_order():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send("first", dest=1, tag=1)
            yield from comm.send("second", dest=1, tag=2)
            return None
        second = yield from comm.recv(source=0, tag=2)
        first = yield from comm.recv(source=0, tag=1)
        return (first, second)

    res = run(xt4("SN"), 2, main)
    assert res.returns[1] == ("first", "second")


def test_isend_irecv_requests():
    def main(comm):
        if comm.rank == 0:
            reqs = [comm.isend(i, dest=1, tag=i) for i in range(3)]
            yield from Request.waitall(reqs)
            return None
        reqs = [comm.irecv(source=0, tag=i) for i in range(3)]
        values = []
        for r in reqs:
            v = yield from r.wait()
            values.append(v)
        return values

    res = run(xt4("SN"), 2, main)
    assert res.returns[1] == [0, 1, 2]


def test_request_test_polls_without_blocking():
    def main(comm):
        if comm.rank == 0:
            req = comm.isend(b"x" * 1024, dest=1)
            assert not req.test()  # transfer has finite latency
            yield from req.wait()
            assert req.test()
            return None
        data = yield from comm.recv(source=0)
        return len(data)

    res = run(xt4("SN"), 2, main)
    assert res.returns[1] == 1024


def test_irecv_after_arrival_is_complete_at_once():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send("early", dest=1, tag=3)
            return None
        yield from comm.compute(1e9)  # the message lands meanwhile
        req = comm.irecv(source=0, tag=3)
        assert req.test()
        t0 = comm.wtime()
        value = yield from req.wait()
        return value, comm.wtime() - t0

    res = run(xt4("SN"), 2, main)
    assert res.returns[1] == ("early", 0.0)


def test_irecv_before_arrival_completes_on_delivery():
    def main(comm):
        if comm.rank == 0:
            yield from comm.compute(1e9)
            yield from comm.send("late", dest=1, tag=4)
            return None
        req = comm.irecv(source=0, tag=4)
        polled = req.test()  # nothing sent yet
        value = yield from req.wait()
        return polled, req.test(), value, comm.wtime()

    res = run(xt4("SN"), 2, main)
    polled, done, value, t = res.returns[1]
    assert (polled, done, value) == (False, True, "late")
    assert t > 0


def test_irecv_any_source_takes_messages_in_arrival_order():
    def main(comm):
        if comm.rank == 0:
            first = comm.irecv(source=ANY_SOURCE, tag=5)
            second = comm.irecv(source=ANY_SOURCE, tag=5)
            values = yield from Request.waitall([first, second])
            yield from comm.compute(1e9)  # rank 3's message lands meanwhile
            third = comm.irecv(source=ANY_SOURCE, tag=5)
            ready = third.test()
            value = yield from third.wait()
            return values + [value], ready
        yield from comm.compute(1e8 * comm.rank)
        yield from comm.send(f"from {comm.rank}", dest=0, tag=5)
        return None

    res = run(xt4("SN"), 4, main)
    assert res.returns[0] == (["from 1", "from 2", "from 3"], True)


def test_sendrecv_exchange():
    def main(comm):
        peer = 1 - comm.rank
        data = yield from comm.sendrecv(comm.rank, dest=peer)
        return data

    res = run(xt4("SN"), 2, main)
    assert res.returns == [1, 0]


def test_invalid_peer_rejected():
    def main(comm):
        yield from comm.send(1, dest=5)

    with pytest.raises(ValueError):
        run(xt4("SN"), 2, main)


@pytest.mark.parametrize("mode", ["SN", "VN"])  # VN: rank 1 is intra-node
def test_negative_nbytes_rejected(mode):
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(1, dest=1, nbytes=-1)
        else:
            yield from comm.recv(source=0)

    with pytest.raises(ValueError, match="nbytes"):
        run(xt4(mode), 2, main)


def test_deadlock_detection():
    def main(comm):
        yield from comm.recv(source=0)  # nobody ever sends

    with pytest.raises(RuntimeError, match="deadlock"):
        run(xt4("SN"), 2, main)


def test_message_time_scales_with_size():
    def main(comm, nbytes):
        if comm.rank == 0:
            yield from comm.send(b"", dest=1, nbytes=nbytes)
            return None
        yield from comm.recv(source=0)
        return comm.wtime()

    small = run(xt4("SN"), 2, main, 1_000)
    large = run(xt4("SN"), 2, main, 10_000_000)
    assert large.returns[1] > small.returns[1]


# -------------------------------------------------------------- collectives
def test_barrier_synchronizes():
    def main(comm):
        if comm.rank == 0:
            yield from comm.compute(5.0e9)  # rank 0 arrives late
        t_before = comm.wtime()
        yield from comm.barrier()
        return (t_before, comm.wtime())

    res = run(xt4("SN"), 4, main)
    after = [t[1] for t in res.returns]
    assert max(after) == pytest.approx(min(after))
    assert after[0] > res.returns[1][0]  # barrier completed after rank 0 arrived


def test_bcast_delivers_root_object():
    def main(comm):
        data = np.arange(3) if comm.rank == 1 else None
        out = yield from comm.bcast(data, root=1)
        return out.sum()

    res = run(xt4("SN"), 4, main)
    assert res.returns == [3, 3, 3, 3]


def test_allreduce_sum_and_max():
    def main(comm):
        s = yield from comm.allreduce(comm.rank + 1, op="sum")
        m = yield from comm.allreduce(comm.rank, op="max")
        return (s, m)

    res = run(xt4("VN"), 4, main)
    assert res.returns == [(10, 3)] * 4


def test_allreduce_arrays():
    def main(comm):
        v = np.full(4, float(comm.rank))
        out = yield from comm.allreduce(v, op="sum")
        return out.tolist()

    res = run(xt4("SN"), 3, main)
    assert res.returns[0] == [3.0, 3.0, 3.0, 3.0]


def test_reduce_only_root_gets_value():
    def main(comm):
        out = yield from comm.reduce(comm.rank, op="sum", root=2)
        return out

    res = run(xt4("SN"), 4, main)
    assert res.returns == [None, None, 6, None]


def test_gather_and_allgather():
    def main(comm):
        g = yield from comm.gather(comm.rank * 2, root=0)
        ag = yield from comm.allgather(comm.rank)
        return (g, ag)

    res = run(xt4("SN"), 3, main)
    assert res.returns[0] == ([0, 2, 4], [0, 1, 2])
    assert res.returns[1] == (None, [0, 1, 2])


def test_scatter():
    def main(comm):
        values = [10, 20, 30] if comm.rank == 0 else None
        v = yield from comm.scatter(values, root=0)
        return v

    res = run(xt4("SN"), 3, main)
    assert res.returns == [10, 20, 30]


def test_scatter_validates_root_values():
    def main(comm):
        yield from comm.scatter([1], root=0)

    with pytest.raises(ValueError):
        run(xt4("SN"), 2, main)


def test_alltoall_transpose_semantics():
    def main(comm):
        out = yield from comm.alltoall(
            [f"{comm.rank}->{j}" for j in range(comm.size)]
        )
        return out

    res = run(xt4("SN"), 3, main)
    assert res.returns[1] == ["0->1", "1->1", "2->1"]


def test_alltoallv_heavier_rank_costs_more():
    def run_with_imbalance(heavy_bytes):
        def main(comm):
            payloads = [
                b"x" * (heavy_bytes if comm.rank == 0 else 8)
                for _ in range(comm.size)
            ]
            yield from comm.alltoallv(payloads)
            return comm.wtime()

        return run(xt4("SN"), 4, main).elapsed_s

    assert run_with_imbalance(1_000_000) > run_with_imbalance(1_000)


def test_collective_mismatch_detected():
    def main(comm):
        if comm.rank == 0:
            yield from comm.barrier()
        else:
            yield from comm.allreduce(1)

    with pytest.raises(RuntimeError, match="mismatch"):
        run(xt4("SN"), 2, main)


def test_finished_collectives_are_not_kept():
    def main(comm):
        total = 0
        for i in range(1000):
            total += yield from comm.allreduce(i)
        sub = yield from comm.split(color=comm.rank % 2)
        yield from sub.barrier()
        return total

    job = MPIJob(xt4("SN"), 4)
    res = job.run(main)
    assert res.returns == [4 * sum(range(1000))] * 4
    # Every rank joined every collective, so no rendezvous is left.
    assert job._coll == {}


# ------------------------------------------------------- VN NIC activity
@pytest.mark.parametrize("gap_s,contended", [
    (0.0, True),  # simultaneous injection from the sharing core
    (20.0e-6, True),  # the window's edge is inside it
    (20.5e-6, False),
    (1.0e-3, False),
])
def test_vn_latency_pays_contention_within_activity_window(gap_s, contended):
    # Ranks 0 and 1 share node 0, ranks 2 and 3 node 1. Rank 1 injects at
    # t=0; rank 0's message ``gap_s`` later pays the interrupt surcharge
    # only while that activity is at most 20 us old.
    job = MPIJob(xt4("VN"), 4)
    first, second = job.latency_terms(1, 3), job.latency_terms(0, 2)
    sharing, _, _, idle_s, contended_s = second
    assert sharing == 2 and contended_s > idle_s
    priced = []
    job.sim.schedule(0.0, lambda: priced.append(job.price_latency_s(first)))
    job.sim.schedule(gap_s, lambda: priced.append(job.price_latency_s(second)))
    job.sim.run()
    assert priced == [idle_s, contended_s if contended else idle_s]


# --------------------------------------------------------------- compute
def test_compute_charges_kernel_time():
    def main(comm):
        t0 = comm.wtime()
        yield from comm.compute(1.0e9, profile="dgemm")
        return comm.wtime() - t0

    res = run(xt4("SN"), 1, main)
    from repro.machine import CoreModel

    expected = 1.0 / CoreModel(xt4("SN")).dgemm_gflops()
    assert res.returns[0] == pytest.approx(expected)


def test_vn_compute_slower_for_memory_bound_kernel():
    def main(comm):
        yield from comm.compute(1.0e9, profile="fft")
        return comm.wtime()

    sn = run(xt4("SN"), 2, main)
    vn = run(xt4("VN"), 2, main)
    assert vn.elapsed_s > sn.elapsed_s


def test_determinism():
    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        yield from comm.sendrecv(np.arange(100), dest=right, source=left)
        s = yield from comm.allreduce(comm.rank)
        return s

    a = run(xt4("VN"), 8, main)
    b = run(xt4("VN"), 8, main)
    assert a.elapsed_s == b.elapsed_s
    assert a.rank_times == b.rank_times


@pytest.mark.parametrize("mode", ["SN", "VN"])
def test_compute_and_stream_prices_equal_the_core_model_bit_for_bit(mode):
    from repro.machine.configs import PROFILES

    job = MPIJob(xt4(mode), 3)  # VN: rank 2 is alone on its socket
    core = job.core_model
    for rank in range(3):
        active = job.placement.tasks_sharing_nic(rank)
        for profile in ("dgemm", "fft", PROFILES["hpl"]):
            for _ in range(2):  # first call prices, second reuses
                assert job.compute_time_s(rank, 3.7e8, profile) == core.time_s(
                    3.7e8, profile, active
                )
        assert job.stream_time_s(rank, 1.0e6) == core.memory.bytes_time_s(
            1.0e6, active
        )
    with pytest.raises(ValueError, match="nbytes"):
        job.stream_time_s(0, -1.0)
