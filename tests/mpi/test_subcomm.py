"""Tests for MPI_Comm_split and sub-communicators."""

import numpy as np
import pytest

from repro.machine import xt4
from repro.mpi import ANY_SOURCE, MPIJob
from repro.obs import Tracer


def run(fn, ntasks=8, mode="SN"):
    return MPIJob(xt4(mode), ntasks).run(fn)


def test_split_groups_by_color():
    def main(comm):
        row = yield from comm.split(color=comm.rank // 4)
        return (row.rank, row.size, row.world_ranks)

    res = run(main, ntasks=8)
    assert res.returns[0] == (0, 4, [0, 1, 2, 3])
    assert res.returns[5] == (1, 4, [4, 5, 6, 7])


def test_split_key_orders_within_color():
    def main(comm):
        sub = yield from comm.split(color=0, key=-comm.rank)  # reversed order
        return (sub.rank, sub.world_ranks)

    res = run(main, ntasks=4)
    assert res.returns[3] == (0, [3, 2, 1, 0])  # highest world rank first


def test_split_none_opts_out():
    def main(comm):
        color = None if comm.rank == 0 else 1
        sub = yield from comm.split(color)
        if sub is None:
            return "out"
        total = yield from sub.allreduce(comm.rank)
        return total

    res = run(main, ntasks=4)
    assert res.returns[0] == "out"
    assert res.returns[1] == 1 + 2 + 3


def test_subgroup_collectives_are_independent():
    def main(comm):
        parity = comm.rank % 2
        sub = yield from comm.split(parity)
        total = yield from sub.allreduce(comm.rank, op="sum")
        biggest = yield from sub.allreduce(comm.rank, op="max")
        return (total, biggest)

    res = run(main, ntasks=6)
    assert res.returns[0] == (0 + 2 + 4, 4)
    assert res.returns[1] == (1 + 3 + 5, 5)


def test_subgroup_pt2pt_translation_and_isolation():
    def main(comm):
        sub = yield from comm.split(comm.rank % 2)
        # Ring within the subgroup, tag 0 in every group simultaneously.
        right = (sub.rank + 1) % sub.size
        left = (sub.rank - 1) % sub.size
        got = yield from sub.sendrecv(comm.rank * 10, dest=right, source=left)
        return got

    res = run(main, ntasks=8)
    # Even group world ranks [0,2,4,6]: rank r receives from its left.
    assert res.returns[0] == 60
    assert res.returns[2] == 0
    assert res.returns[1] == 70
    assert res.returns[3] == 10


def test_subgroup_recv_any_source_only_sees_group_traffic():
    def main2(comm):
        sub = yield from comm.split(comm.rank % 2)
        if comm.rank == 0:
            yield from comm.send("world", dest=2, tag=7)  # world traffic
            yield from sub.send("group", dest=1, tag=7)  # to world rank 2
            return None
        if comm.rank == 2:
            g, src, tag = yield from sub.recv_with_status()
            w = yield from comm.recv(source=0, tag=7)
            return (g, src, tag, w)
        return None

    res = run(main2, ntasks=4)
    assert res.returns[2] == ("group", 0, 7, "world")


def test_subgroup_mailbox_is_cached_and_group_scoped():
    """Receives from one peer and tag reuse one predicate, which still
    rejects world and sibling-group messages in the shared inbox."""

    def main(comm):
        pairs = yield from comm.split(comm.rank % 2)  # [0, 2] and [1, 3]
        halves = yield from comm.split(comm.rank // 2)  # [0, 1] and [2, 3]
        if comm.rank == 0:
            yield from comm.send("world", dest=2, tag=5)
            yield from pairs.send("group 1", dest=1, tag=5)
            yield from pairs.send("group 2", dest=1, tag=5)
        elif comm.rank == 3:
            yield from halves.send("sibling", dest=0, tag=5)  # to world rank 2
        elif comm.rank == 2:
            yield from comm.compute(1e9)  # every message lands meanwhile
            box = pairs._mailbox(0, 5)
            first = yield from pairs.recv(source=0, tag=5)
            second = yield from pairs.recv(source=0, tag=5)
            assert pairs._mailbox(0, 5) is box
            assert pairs._mailbox(ANY_SOURCE, 5)[1] is not box[1]
            world = yield from comm.recv(source=0, tag=5)
            sibling = yield from halves.recv(source=1, tag=5)
            return first, second, world, sibling
        return None

    res = run(main, ntasks=4)
    assert res.returns[2] == ("group 1", "group 2", "world", "sibling")


def test_subgroup_gather_bcast_scatter():
    def main(comm):
        sub = yield from comm.split(comm.rank // 2)
        g = yield from sub.gather(comm.rank, root=0)
        b = yield from sub.bcast("hello" if sub.rank == 1 else None, root=1)
        s = yield from sub.scatter([100, 200] if sub.rank == 0 else None, root=0)
        return (g, b, s)

    res = run(main, ntasks=4)
    assert res.returns[0] == ([0, 1], "hello", 100)
    assert res.returns[1] == (None, "hello", 200)
    assert res.returns[2] == ([2, 3], "hello", 100)


def test_nested_split():
    def main(comm):
        half = yield from comm.split(comm.rank // 4)  # two groups of 4
        quarter = yield from half.split(half.rank // 2)  # groups of 2
        total = yield from quarter.allreduce(comm.rank)
        return (quarter.world_ranks, total)

    res = run(main, ntasks=8)
    assert res.returns[0] == ([0, 1], 1)
    assert res.returns[6] == ([6, 7], 13)


def test_subcomm_collective_cost_scales_with_group_size():
    def main(comm):
        sub = yield from comm.split(comm.rank % 2)
        yield from comm.barrier()
        t0 = comm.wtime()
        yield from sub.allreduce(1.0)
        sub_t = comm.wtime() - t0
        yield from comm.barrier()
        t0 = comm.wtime()
        yield from comm.allreduce(1.0)
        world_t = comm.wtime() - t0
        return (sub_t, world_t)

    res = run(main, ntasks=16)
    sub_t, world_t = res.returns[0]
    assert sub_t < world_t  # 8-rank group cheaper than 16-rank world


def test_split_nonmember_construction_guard():
    from repro.mpi.subcomm import SubComm

    job = MPIJob(xt4("SN"), 4)
    with pytest.raises(ValueError):
        SubComm(job.comms[0], "g", [1, 2])


def test_distributed_fft_style_row_col_split():
    """The ScaLAPACK/CAM pattern: a 2D grid from two splits, then a
    row-broadcast and a column-sum."""

    def main(comm):
        pr, pc = 2, 2
        my_row, my_col = divmod(comm.rank, pc)
        row_comm = yield from comm.split(my_row)
        col_comm = yield from comm.split(my_col)
        row_val = yield from row_comm.bcast(
            f"row{my_row}" if row_comm.rank == 0 else None, root=0
        )
        col_sum = yield from col_comm.allreduce(comm.rank)
        return (row_val, col_sum)

    res = run(main, ntasks=4)
    assert res.returns == [
        ("row0", 0 + 2),
        ("row0", 1 + 3),
        ("row1", 0 + 2),
        ("row1", 1 + 3),
    ]


def test_subcomm_compute_and_stream_charge_the_world_rank():
    """VN with 3 tasks: world rank 2 is alone on node 1 but is rank 0 of
    its sub-communicator. Its local work must be priced, and traced, as
    world rank 2's, not as the group rank's (which shares node 0)."""

    def main(comm):
        sub = yield from comm.split(0 if comm.rank == 2 else 1)
        if comm.rank != 2:
            return None
        world = yield from comm.compute(1e8, "fft")
        group = yield from sub.compute(1e8, "fft")
        world_bytes = yield from comm.stream(1e8)
        group_bytes = yield from sub.stream(1e8)
        return world, group, world_bytes, group_bytes

    tracer = Tracer()
    res = MPIJob(xt4("VN"), 3, tracer=tracer).run(main)
    world, group, world_bytes, group_bytes = res.returns[2]
    assert group == world
    assert group_bytes == world_bytes
    local = [
        s.track for s in tracer.spans if s.name in ("compute.fft", "stream")
    ]
    assert local == ["rank2"] * 4
