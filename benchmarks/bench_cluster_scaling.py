"""Extension: cluster-scale training with spg-CNN workers (Sec. 6).

The paper argues its single-machine speedups carry to the distributed
platforms (ADAM, DistBelief) by raising per-worker throughput.  This
benchmark quantifies that: CIFAR-10 cluster throughput vs worker count
for Parallel-GEMM(ADAM) workers and spg-CNN workers, including the
parameter-synchronization duty cycle -- plus the communication-bound
fraction showing the interaction the paper flags (faster workers sync
more often relative to their compute).
"""

from repro.analysis.reporting import format_series, format_table
from repro.data.tables import benchmark_layers
from repro.machine.cluster_model import (
    ClusterSpec,
    cluster_throughput,
    communication_bound_fraction,
)
from repro.machine.executor import fig9_configs
from repro.machine.spec import xeon_e5_2650

CIFAR = benchmark_layers("cifar-10")
MODEL_BYTES = 500_000
WORKERS = (1, 2, 4, 8, 16, 32)
IMAGES_PER_SYNC = 256


def sweep():
    configs = fig9_configs()
    baseline, optimized = configs[1], configs[4]
    series = {}
    for label, config in (("ADAM workers", baseline),
                          ("spg-CNN workers", optimized)):
        series[label] = [
            cluster_throughput(
                CIFAR, config,
                ClusterSpec(num_workers=w, machine=xeon_e5_2650(),
                            cores_per_worker=16, network_bandwidth=1.25e9),
                MODEL_BYTES, IMAGES_PER_SYNC,
            )
            for w in WORKERS
        ]
    fractions = {
        label: communication_bound_fraction(
            CIFAR, config,
            ClusterSpec(num_workers=8, machine=xeon_e5_2650(),
                        cores_per_worker=16, network_bandwidth=1.25e9),
            MODEL_BYTES, IMAGES_PER_SYNC,
        )
        for label, config in (("ADAM workers", baseline),
                              ("spg-CNN workers", optimized))
    }
    return series, fractions


def test_cluster_scaling(benchmark, show):
    series, fractions = benchmark(sweep)
    show(format_series(
        "workers", WORKERS, series,
        title="Cluster CIFAR-10 throughput (images/s), 16-core workers, "
              "10GbE parameter server",
        precision=0,
    ))
    show(format_table(
        ["worker type", "sync duty cycle"],
        [[label, f"{frac:.2%}"] for label, frac in fractions.items()],
        title="Communication-bound fraction at 8 workers",
    ))
    adam = series["ADAM workers"]
    spg = series["spg-CNN workers"]
    # Per-worker speedup carries to the cluster (Sec. 6's point).
    assert all(s > 3 * a for s, a in zip(spg, adam))
    # Both scale ~linearly at this sync interval (compute bound).
    assert adam[-1] > 20 * adam[0]
    # Faster workers are more communication bound at a fixed interval.
    assert fractions["spg-CNN workers"] > fractions["ADAM workers"]
