"""What the benchmark runs and reports: workloads, sizes and metric names.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics; ``test_kamelbench.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

TRAIN_SEED = 7
"""Seed of the porto-like city and of its training trips."""
TRAIN_TRIPS = 1500
"""Training trips: few enough linear fallbacks to be the paper's regime."""
WORKERS = 2
"""Serving workers; the machine the reference rates come from has 2 cores."""
SAMPLE_INTERVAL_S = 15.0
TRIP_MIN_M = 800.0
TRIP_MAX_M = 2500.0
"""Feed trips are drawn like the porto-like training trips."""
DELTA_M = 50.0
"""Accuracy threshold of the paper's recall and precision."""

PACED_LOAD = 0.4
"""Offered rate of the paced phase, as a share of the reference rate."""
FEED_HEADROOM = 3.0
"""The closed-loop feed holds this many times the trips the reference
rate gets through in ``--seconds``."""
REFERENCE_REQUESTS = 16
"""Quality-set requests also run in-process to check pooled outputs."""
SETUP_REPEATS = 2
"""Set-ups from scratch per run; ``setup_s`` is their median."""
SAMPLE_EVERY_S = 0.25
"""The closed loop takes a speed sample (``speed.py``) after the request
that ends this long after the previous sample."""
PIECE_S = 1.0
"""The serve workloads' flood and paced phases run in pieces of about this
long at the reference rate, with a speed sample after each."""
RATE_SAMPLES = 3
"""Speed samples the offered rate of a paced segment is scaled by."""


@dataclass(frozen=True)
class Workload:
    name: str
    serve: bool
    """Requests go through a ``ServingPool``; else one caller runs
    ``Kamel.impute`` in a closed loop."""
    sparseness_m: Optional[float]
    """Gap imposed on the simulated trips; None serves them dense."""
    ref_tps: float
    """Trajectories/s of the closed loop (impute) or the flood phase
    (serve) at the commit that defined the benchmark, on 2 cores. It sizes
    the feed and the flood backlog and sets the paced rate."""
    flood_share: float
    """Share of ``--seconds`` the flood phase takes at ``ref_tps`` (serve
    only); the paced phase takes the rest. Sparse requests are slow, so
    serve-sparse gives the paced phase more time to reach 200 samples."""
    quality_trips: int
    """Fixed, seed-independent trips the quality metrics are measured on."""
    trace_trips: int
    """Feed trips of the in-process traced pipeline pass (serve only)."""


WORKLOADS: dict[str, Workload] = {
    "impute-sparse": Workload("impute-sparse", False, 800.0, 24.0, 0.0, 80, 0),
    "serve-sparse": Workload("serve-sparse", True, 800.0, 50.0, 0.2, 80, 40),
    "serve-dense": Workload("serve-dense", True, None, 330.0, 1 / 3, 300, 300),
}

# (name, unit) of every metric, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("throughput_tps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("failure_rate", "ratio"),
    ("recall", "ratio"),
    ("precision", "ratio"),
    ("success_rate", "ratio"),
    ("cpu_ms_per_traj", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("constraints.filter_calls", "count"),
    ("constraints.filter_us", "us"),
    ("constraints.accept_ratio", "ratio"),
    ("mlm.predict_calls", "count"),
    ("mlm.predict_us", "us"),
    ("mlm.distinct_query_ratio", "ratio"),
    ("imputation.segments", "count"),
    ("imputation.calls_per_segment", "count"),
    ("imputation.beam_self_ms_per_segment", "ms"),
    ("imputation.unique_expansion_ratio", "ratio"),
    ("tokenization.calls", "count"),
    ("tokenization.us_per_call", "us"),
    ("detokenization.calls", "count"),
    ("detokenization.us_per_call", "us"),
    ("kamel.impute_self_ms", "ms"),
    ("partitioning.lookup_calls", "count"),
    ("partitioning.lookup_us", "us"),
    ("partitioning.lookup_miss_ratio", "ratio"),
    ("serve.route_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.parent_cpu_ms_per_req", "ms"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.worker_handle_ms_p50", "ms"),
    ("serve.worker_overhead_ms_per_req", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.transit_ms_p50", "ms"),
    ("serve.gen_lag_p95_ms", "ms"),
    ("journal.append_us", "us"),
    ("ipc.task_bytes", "bytes"),
    ("ipc.result_bytes", "bytes"),
    ("setup.datagen_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.pool_ready_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

SERVE_ONLY_PREFIXES = ("serve.", "ipc.", "journal.")
"""Per-layer metrics of the serving path: 0 on ``impute-sparse``, where no
serving code runs."""
