#!/usr/bin/env python
"""Where does MPI time go? Profiling DES runs the way the paper does.

Reproduces the *method* behind the paper's Figure-16 analysis ("70% of
the difference in the physics ... is due to ... the MPI_Alltoallv
calls"): run a CAM-physics-shaped step on the simulated MPI in SN and VN
modes under a tracer, fold its ``mpi.*`` spans into mpiP-style profiles,
and attribute the mode difference to operations.

Also writes a Perfetto trace of the VN run (mpi_profile_study.trace.json
by default — open it at https://ui.perfetto.dev): the same attribution,
but as a zoomable timeline with per-rank MPI/compute spans and the
NIC/link/memory-controller counters.

Run:  python examples/mpi_profile_study.py
"""

from typing import Optional

from repro.core.report import render_table
from repro.machine import xt4
from repro.mpi import MPIJob, mpi_profiles
from repro.mpi.profiler import render_timeline
from repro.obs import Tracer, write_chrome_trace


def physics_step(comm):
    """A CAM-physics-shaped iteration: compute + load-balance alltoallv +
    a small allreduce (energy diagnostic) + barrier."""
    for step in range(4):
        yield from comm.compute(2.0e8, profile="dgemm")
        payloads = [b"x" * 20_000 for _ in range(comm.size)]
        yield from comm.alltoallv(payloads)
        yield from comm.allreduce(1.0)
    yield from comm.barrier()
    return comm.wtime()


def main(trace_out: Optional[str] = "mpi_profile_study.trace.json") -> None:
    ntasks = 16
    profiles = {}
    for mode in ("SN", "VN"):
        tracer = Tracer(meta={"example": "mpi_profile_study", "mode": mode})
        result = MPIJob(xt4(mode), ntasks, tracer=tracer).run(physics_step)
        prof = mpi_profiles(tracer)
        profiles[mode] = (result, prof[0])
        if mode == "VN":
            print(f"\n{mode} execution timeline (first 8 ranks):")
            subset = {r: prof[r] for r in range(min(8, ntasks))}
            print(render_timeline(subset, result.elapsed_s, width=64))
            print()
            if trace_out:
                write_chrome_trace(tracer, trace_out)
                print(
                    f"wrote {trace_out} "
                    "(open at https://ui.perfetto.dev)\n"
                )

    rows = []
    for mode, (result, prof) in profiles.items():
        row = {"mode": mode, "total ms": round(result.elapsed_s * 1e3, 3)}
        for op in ("alltoallv", "allreduce", "barrier"):
            row[f"{op} ms"] = round(prof.ops[op].time_s * 1e3, 3)
        row["MPI fraction"] = round(prof.total_time_s / result.elapsed_s, 3)
        rows.append(row)
    print(render_table(rows, title=f"Physics-shaped step, {ntasks} tasks, rank 0"))

    sn_res, sn_prof = profiles["SN"]
    vn_res, vn_prof = profiles["VN"]
    gap = vn_res.elapsed_s - sn_res.elapsed_s
    a2av_gap = vn_prof.ops["alltoallv"].time_s - sn_prof.ops["alltoallv"].time_s
    print(
        f"SN -> VN slowdown: {gap*1e3:.3f} ms, of which MPI_Alltoallv "
        f"accounts for {a2av_gap / gap:.0%} at this 16-task scale.\n"
        "The Alltoallv share grows with task count — each call posts p-1\n"
        "messages — which is why at CAM's 960 tasks the model attributes\n"
        "~90% of the SN/VN physics gap to it (paper Fig. 16: ~70%)."
    )


if __name__ == "__main__":
    main()
