"""The HPC Challenge benchmark suite on the simulated machine (paper §5).

Node-local benchmarks (DGEMM, FFT, STREAM, RandomAccess) report SP
(one busy core) and EP (every core busy) rates; network benchmarks report
the ping-pong / natural-ring / random-ring latency and bandwidth metrics;
global benchmarks (HPL, MPI-FFT, PTRANS, MPI-RandomAccess) model whole-
machine runs. Each benchmark can also execute its real kernel at small
scale (``run_numeric``) so correctness and model structure are testable.
"""

from repro.core.lazy import lazy_exports

__all__ = [
    "BidirectionalBandwidth",
    "DGEMMBench",
    "DistributedFFT",
    "DistributedLU",
    "DistributedPTRANS",
    "DistributedRandomAccess",
    "FFTBench",
    "HPCCSuite",
    "HPLModel",
    "MPIFFTModel",
    "MPIRandomAccessModel",
    "PTRANSModel",
    "PingPong",
    "RandomAccessBench",
    "RingBenchmark",
    "StreamBench",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hpcc.bidirectional": ("BidirectionalBandwidth",),
    "repro.hpcc.dgemm_bench": ("DGEMMBench",),
    "repro.hpcc.fft_bench": ("FFTBench",),
    "repro.hpcc.hpl": ("HPLModel",),
    "repro.hpcc.hpl_distributed": ("DistributedLU",),
    "repro.hpcc.mpifft": ("MPIFFTModel",),
    "repro.hpcc.mpifft_distributed": ("DistributedFFT",),
    "repro.hpcc.mpira": ("MPIRandomAccessModel",),
    "repro.hpcc.mpira_distributed": ("DistributedRandomAccess",),
    "repro.hpcc.pingpong": ("PingPong",),
    "repro.hpcc.ptrans": ("PTRANSModel",),
    "repro.hpcc.ptrans_distributed": ("DistributedPTRANS",),
    "repro.hpcc.ra_bench": ("RandomAccessBench",),
    "repro.hpcc.ring": ("RingBenchmark",),
    "repro.hpcc.stream_bench": ("StreamBench",),
    "repro.hpcc.suite": ("HPCCSuite",),
})
