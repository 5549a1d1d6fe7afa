"""Set-up, feeds, timed phases and correctness checks of the benchmark.

One run of one workload:

1. **Set-up** (``setup_s``): generate the porto-like city and its training
   trips, the run's feed and the fixed quality set; fit KAMEL (twice from
   scratch, the median counts); for the serve workloads also save the
   system, start the pool, pin each worker to a core and return one
   warm-up request from every shard.
2. **Timed phase**, tracing off: the closed loop (``impute-sparse``) or
   the flood and paced phases through the pool (``serve-*``). CPU time of
   every process is read before and after from the OS. Every time is
   reported at reference speed, with the speed samples of ``speed.py``
   taken between pieces of the work.
3. **Quality and checks**, untimed: the fixed quality set goes through the
   same path; pooled outputs are compared bit for bit with an in-process
   ``StreamingImputationService``; every request sent is accounted for.
4. With ``--trace 1``, a **traced pass** over work the timed phase already
   did, with the layer wrappers of ``layers.py`` installed; its outputs
   must hash to the same digest as the untraced ones.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing as mp
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Optional

import numpy as np

from repro.core.config import KamelConfig
from repro.core.kamel import Kamel
from repro.core.streaming import StreamingImputationService
from repro.eval.metrics import precision, recall
from repro.geo import Point, Trajectory
from repro.io.serialize import save_kamel
from repro.obs.tracing import new_trace_id
from repro.resilience.journal import StreamJournal, trajectory_to_payload
from repro.roadnet.datasets import make_porto_like
from repro.roadnet.simulator import SimulatorConfig, TrajectorySimulator
from repro.serve.pool import ServeConfig, ServingPool

from kamelbench import catalog
from kamelbench.catalog import Workload
from kamelbench.layers import LayerTracer
from kamelbench.speed import SpeedMeter, pinned, scale_of, usable_cores

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".kamelbench_work"

_FEED_SALT = 0x4B41
_QUALITY_SALT = 0x514C
_WARMUP_SALT = 0x574D
_DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Sizes:
    """How much a run trains on and checks; ``smoke`` shrinks everything
    for the self-tests."""

    train_trips: int = catalog.TRAIN_TRIPS
    quality_trips: Optional[int] = None
    trace_trips: Optional[int] = None
    reference_requests: int = catalog.REFERENCE_REQUESTS
    setup_repeats: int = catalog.SETUP_REPEATS

    @classmethod
    def smoke(cls) -> "Sizes":
        return cls(
            train_trips=200, quality_trips=6, trace_trips=4, reference_requests=4, setup_repeats=1
        )


@dataclass
class Trip:
    request: Trajectory
    truth: Trajectory
    """The dense simulated trip the request was cut from."""


@dataclass
class Outcome:
    """What came back for one request."""

    trips: list
    """Output trips as ``trajectory_to_payload`` dicts."""
    segments: int = 0
    failed: int = 0
    error: Optional[str] = None


@dataclass
class Report:
    """Everything one run measured and checked."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    sent: int = 0
    errors: list = field(default_factory=list)
    """One line per failed request or failed check."""
    failed_requests: int = 0
    info: dict = field(default_factory=dict)

    def fail(self, message: str, requests: int = 1) -> None:
        self.errors.append(message)
        self.failed_requests += requests


# -- inputs ---------------------------------------------------------------------


def _derived_seed(salt: int, seed: int) -> int:
    return int(np.random.SeedSequence([salt, seed]).generate_state(1)[0])


def simulate_trips(
    network, salt: int, seed: int, n: int, prefix: str, sparseness_m: Optional[float]
) -> list[Trip]:
    """``n`` fresh porto-like trips over the training city, cut the way the
    workload serves them."""
    simulator = TrajectorySimulator(
        network,
        SimulatorConfig(
            sample_interval_s=catalog.SAMPLE_INTERVAL_S,
            min_trip_length_m=catalog.TRIP_MIN_M,
            max_trip_length_m=catalog.TRIP_MAX_M,
            seed=_derived_seed(salt, seed),
        ),
    )
    trips = []
    for k in range(n):
        dense = simulator.simulate_one(f"{prefix}-{k}")
        request = dense.sparsify(sparseness_m) if sparseness_m else dense
        trips.append(Trip(request, dense))
    return trips


def feed_plan(workload: Workload, seconds: float) -> dict[str, float]:
    """Feed sizes and the paced rate for a run of ``seconds``."""
    ref = workload.ref_tps
    if not workload.serve:
        return {"feed": math.ceil(catalog.FEED_HEADROOM * ref * seconds) + 1}
    rate = catalog.PACED_LOAD * ref
    return {
        "flood": max(catalog.WORKERS, round(ref * workload.flood_share * seconds)),
        "paced": max(1, round(rate * (1.0 - workload.flood_share) * seconds)),
        "rate": rate,
    }


# -- process accounting --------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def parent_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def child_cpu_s(pid: int) -> float:
    """utime + stime of a child process, from ``/proc/<pid>/stat``."""
    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def child_peak_rss_mb(pid: int) -> float:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def parent_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_pids() -> list[int]:
    return sorted(p.pid for p in mp.active_children())


# -- output handling ---------------------------------------------------------------


def impute(system: Kamel, request: Trajectory) -> Outcome:
    """``Kamel.impute`` on one request; an exception is a failed request."""
    try:
        result = system.impute(request)
    except Exception as exc:  # noqa: BLE001 - counted and reported, not fatal
        return Outcome([], error=repr(exc))
    return Outcome(
        [trajectory_to_payload(result.trajectory)], result.num_segments, result.num_failed
    )


def outcome_of_message(message: dict) -> Outcome:
    error = message.get("error")
    if error is None and message.get("quarantined"):
        error = "quarantined"
    return Outcome(
        list(message.get("trips", ())),
        int(message.get("segments", 0)),
        int(message.get("failed", 0)),
        error,
    )


def points_of(outcome: Outcome) -> list:
    return [trip["points"] for trip in outcome.trips]


def digest(outcomes: list[Outcome]) -> str:
    """BLAKE2b over the output coordinates, in feed order (ids excluded, so
    a re-submission under new ids hashes the same)."""
    h = hashlib.blake2b(digest_size=16)
    for outcome in outcomes:
        h.update(repr(points_of(outcome)).encode())
        h.update(b";")
    return h.hexdigest()


def quality(trips: list[Trip], outcomes: list[Outcome], maxgap_m: float) -> dict:
    """The paper's failure rate, recall and precision against the dense
    ground truth."""
    recalls, precisions = [], []
    for trip, outcome in zip(trips, outcomes):
        points = [Point(x, y, t) for payload in outcome.trips for x, y, t in payload["points"]]
        if not points:  # a failed request recovers nothing
            recalls.append(0.0)
            precisions.append(0.0)
            continue
        imputed = Trajectory(trip.request.traj_id, tuple(points))
        recalls.append(recall(trip.truth, imputed, maxgap_m, catalog.DELTA_M))
        precisions.append(precision(trip.truth, imputed, maxgap_m, catalog.DELTA_M))
    return {
        "failure_rate": _failure_rate(outcomes),
        "recall": statistics.fmean(recalls) if recalls else 0.0,
        "precision": statistics.fmean(precisions) if precisions else 0.0,
        "segments": sum(o.segments for o in outcomes),
    }


def _failure_rate(outcomes: list[Outcome]) -> float:
    segments = sum(o.segments for o in outcomes)
    return sum(o.failed for o in outcomes) / segments if segments else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def renamed(trips: list[Trip], suffix: str) -> list[Trip]:
    return [
        Trip(Trajectory(t.request.traj_id + suffix, t.request.points), t.truth) for t in trips
    ]


# -- environment ---------------------------------------------------------------------


def commit_id() -> str:
    """The git commit when run from a clone, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        if done.returncode == 0:
            return done.stdout.strip()
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-" + h.hexdigest()


def fingerprint(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    cores = os.cpu_count() or 1
    workers = catalog.WORKERS if workload.serve else 0
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": cores,
        "usable_cores": len(os.sched_getaffinity(0)),
        "workers": workers,
        "workers_per_core": workers / cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit_id(),
    }


# -- set-up --------------------------------------------------------------------------


@dataclass
class Setup:
    network: object
    system: Kamel
    feed: list[Trip]
    quality: list[Trip]
    timings: dict
    """The set-up split at reference speed, in seconds."""
    raw_setup_s: float = 0.0
    """Datagen and fit as measured (median over the repeats)."""


def set_up(
    workload: Workload, seed: int, seconds: float, sizes: Sizes, meter: SpeedMeter
) -> Setup:
    """Data generation and fit, ``sizes.setup_repeats`` times from scratch
    (the serve-only part is ``start_pool``). Each step is timed at
    reference speed; the timings are the medians over the repeats, and the
    last repeat's system and feeds are the ones used."""
    datagen, fit, raw = [], [], []
    setup = None
    core = usable_cores()[:1]
    for _ in range(sizes.setup_repeats):
        setup = None
        gc.collect()  # the previous repeat's system is not kept alive
        with pinned(core), meter.sampling(core) as samples:
            t0 = time.perf_counter()
            dataset = make_porto_like(n_trajectories=sizes.train_trips, seed=catalog.TRAIN_SEED)
            plan = feed_plan(workload, seconds)
            n_feed = (
                int(plan["feed"]) if not workload.serve else int(plan["flood"] + plan["paced"])
            )
            feed = simulate_trips(
                dataset.network, _FEED_SALT, seed, n_feed, f"feed-{seed}", workload.sparseness_m
            )
            n_quality = (
                sizes.quality_trips if sizes.quality_trips is not None else workload.quality_trips
            )
            quality_set = simulate_trips(
                dataset.network, _QUALITY_SALT, 0, n_quality, "quality", workload.sparseness_m
            )
            t1 = time.perf_counter()
        datagen.append((t1 - t0) * scale_of(samples))
        with pinned(core), meter.sampling(core) as samples:
            t1 = time.perf_counter()
            system = Kamel(KamelConfig())
            system.fit(list(dataset.trajectories))
            t2 = time.perf_counter()
        fit.append((t2 - t1) * scale_of(samples))
        raw.append(t2 - t0)
        setup = Setup(dataset.network, system, feed, quality_set, {})
        del dataset, system, feed, quality_set
    setup.timings = {
        "setup.datagen_s": statistics.median(datagen),
        "setup.fit_s": statistics.median(fit),
        "setup.pool_ready_s": 0.0,
    }
    setup.raw_setup_s = statistics.median(raw)
    return setup


# -- impute-sparse ---------------------------------------------------------------------


def run_impute(
    workload: Workload,
    setup: Setup,
    seconds: float,
    trace: bool,
    sizes: Sizes,
    meter: SpeedMeter,
) -> Report:
    report = Report()
    system = setup.system
    outcomes: list[Outcome] = []
    raw: list[float] = []
    latencies: list[float] = []
    """Per-request latency at reference speed."""

    first_sample = len(meter.samples)
    meter.sample()
    cpu0, kernel_cpu0 = parent_cpu_s(), meter.cpu_s
    stop_at = time.perf_counter() + seconds
    sampled_at = time.perf_counter()
    for trip in setup.feed:
        start = time.perf_counter()
        if start >= stop_at:
            break
        outcomes.append(impute(system, trip.request))
        end = time.perf_counter()
        raw.append(end - start)
        if end - sampled_at >= catalog.SAMPLE_EVERY_S:
            scale = meter.scale_after()
            latencies += [t * scale for t in raw[len(latencies) :]]
            sampled_at = time.perf_counter()
    scale = meter.scale_after()
    latencies += [t * scale for t in raw[len(latencies) :]]
    cpu = parent_cpu_s() - cpu0 - (meter.cpu_s - kernel_cpu0)
    timed_scale = meter.scale(first_sample)
    done = len(outcomes)
    report.info["timed_requests"] = done
    report.info["feed_exhausted"] = done == len(setup.feed)
    report.sent += done

    quality_outcomes = [impute(system, trip.request) for trip in setup.quality]
    report.sent += len(quality_outcomes)
    q = quality(setup.quality, quality_outcomes, system.config.maxgap_m)
    report.info["quality_segments"] = q.pop("segments")

    _check_errors(report, outcomes + quality_outcomes)
    _check_invariants(report, setup.feed[:done], outcomes)
    # Determinism: the first requests again, outside the timed phase.
    sample = min(sizes.reference_requests, done)
    for trip, expected in zip(setup.feed[:sample], outcomes):
        report.sent += 1
        again = impute(system, trip.request)
        if points_of(again) != points_of(expected):
            report.fail(f"{trip.request.traj_id}: re-imputation differs")

    report.end_to_end = {
        "throughput_tps": done / sum(latencies) if done else 0.0,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        **q,
        "cpu_ms_per_traj": cpu / done * 1e3 * timed_scale if done else 0.0,
        "peak_rss_mb": parent_peak_rss_mb(),
    }
    report.info.update(
        latency_samples=len(latencies),
        feed_failure_rate=_failure_rate(outcomes),
        raw_throughput_tps=done / sum(raw) if done else 0.0,
        raw_latency_p95_ms=percentile(raw, 95) * 1e3,
        speed=timed_scale,
    )

    if trace:
        prefix = max(1, done // 3)
        tracer = LayerTracer()
        meter.sample()
        with tracer.installed():
            t_start = time.perf_counter()
            traced = [impute(system, trip.request) for trip in setup.feed[:prefix]]
            traced_s = time.perf_counter() - t_start
        scale = meter.scale_after()
        report.sent += len(traced)
        if digest(traced) != digest(outcomes[:prefix]):
            report.fail("traced outputs differ from the untraced run", len(traced))
        layers = at_reference_speed(tracer.pipeline_metrics(), scale)
        layers["trace.overhead_ratio"] = traced_s * scale / sum(latencies[:prefix])
        report.per_layer = layers
    return report


def at_reference_speed(layers: dict, scale: float) -> dict:
    """Per-layer times of a traced pass, scaled to reference speed."""
    units = dict(catalog.PER_LAYER)
    return {k: v * scale if units[k] in ("us", "ms") else v for k, v in layers.items()}


def _check_errors(report: Report, outcomes: list[Outcome]) -> None:
    for outcome in outcomes:
        if outcome.error is not None:
            report.fail(f"request failed: {outcome.error}")


def _check_invariants(report: Report, trips: list[Trip], outcomes: list[Outcome]) -> None:
    """Every output keeps the request's endpoints and runs forward in time."""
    for trip, outcome in zip(trips, outcomes):
        if outcome.error is not None:
            continue
        points = outcome.trips[0]["points"] if outcome.trips else []
        first, last = trip.request.points[0], trip.request.points[-1]
        ok = (
            len(points) >= len(trip.request.points)
            and points[0] == [first.x, first.y, first.t]
            and points[-1] == [last.x, last.y, last.t]
            and all(a[2] <= b[2] for a, b in zip(points, points[1:]))
        )
        if not ok:
            report.fail(f"{trip.request.traj_id}: output breaks an imputation invariant")


# -- serve-sparse / serve-dense ------------------------------------------------------------


class PoolClient:
    """Submits to a pool and stamps when each result is received."""

    def __init__(self, pool: ServingPool) -> None:
        self.pool = pool
        self.sent = 0
        self.received_pc: dict[str, float] = {}
        self.received_epoch: dict[str, float] = {}

    def _stamp(self, before: int) -> None:
        # The pool handles at most one message per call, and results is
        # insertion-ordered, so a new result is the last key.
        if len(self.pool.results) > before:
            traj_id = next(reversed(self.pool.results))
            self.received_pc[traj_id] = time.perf_counter()
            self.received_epoch[traj_id] = time.time()

    def submit(self, trajectory: Trajectory) -> None:
        before = len(self.pool.results)
        self.pool.submit(trajectory)
        self.sent += 1
        self._stamp(before)

    def pump(self, timeout: float) -> bool:
        before = len(self.pool.results)
        # ServingPool has no public "handle one message" call; drain() only
        # returns once everything is back, which the paced phase cannot wait
        # for.
        handled = self.pool._pump(timeout)
        self._stamp(before)
        return handled

    def flood(self, trips: list[Trip]) -> tuple[int, float]:
        """Submit the backlog and drain it. Returns the results received
        while every shard still had work, and the seconds that took: up to
        the moment the first shard delivered its last result. The drain
        tail after that, which hash routing's uneven split lengthens by
        chance, is not capacity."""
        t0 = time.perf_counter()
        for trip in trips:
            self.submit(trip.request)
        give_up = time.monotonic() + _DRAIN_TIMEOUT_S
        while self.pool.outstanding and time.monotonic() < give_up:
            self.pump(0.25)
        self.pool.drain(timeout=1.0)
        last: dict[int, float] = {}
        received = []
        for trip in trips:
            traj_id = trip.request.traj_id
            if traj_id in self.received_pc:
                at = self.received_pc[traj_id]
                shard = self.pool.results[traj_id]["shard"]
                last[shard] = max(last.get(shard, at), at)
                received.append(at)
        if not last:
            return 0, 0.0
        busy_until = min(last.values())
        return sum(1 for at in received if at <= busy_until), busy_until - t0

    def paced(self, trips: list[Trip], rate: float) -> dict:
        """Open loop: request k is due at ``k / rate``; latency runs from
        the due time, so a late generator still charges the wait."""
        due: dict[str, float] = {}
        submitted_epoch: dict[str, float] = {}
        lag: list[float] = []
        t0 = time.perf_counter()
        for k, trip in enumerate(trips):
            due_at = t0 + k / rate
            while (remaining := due_at - time.perf_counter()) > 0:
                self.pump(remaining)
            traj_id = trip.request.traj_id
            lag.append(time.perf_counter() - due_at)
            submitted_epoch[traj_id] = time.time()
            due[traj_id] = due_at
            self.submit(trip.request)
        give_up = time.monotonic() + _DRAIN_TIMEOUT_S
        while self.pool.outstanding and time.monotonic() < give_up:
            self.pump(0.25)
        end = time.perf_counter()
        self.pool.drain(timeout=1.0)
        latencies = [self.received_pc.get(i, end) - d for i, d in due.items()]
        return {
            "ids": list(due),
            "latencies": latencies,
            "lag": lag,
            "submitted_epoch": submitted_epoch,
            "wall_s": end - t0,
        }


def _pieces(trips: list[Trip], rate: float) -> list[list[Trip]]:
    """``trips`` cut into pieces of about ``catalog.PIECE_S`` at ``rate``."""
    n = max(1, round(len(trips) / rate / catalog.PIECE_S))
    bounds = [round(i * len(trips) / n) for i in range(n + 1)]
    return [trips[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def shard_core(shard: int, cores: list[int]) -> int:
    """The core a shard's worker is pinned to."""
    return cores[shard % len(cores)]


def flood(client: PoolClient, meter: SpeedMeter, trips: list[Trip], rate: float) -> float:
    """The flood phase in rounds of about ``PIECE_S`` at ``rate``, a speed
    sample after each. Returns the throughput as measured."""
    counted, busy = 0, 0.0
    meter.sample()
    for piece in _pieces(trips, rate):
        n, took = client.flood(piece)
        meter.sample()
        counted += n
        busy += took
    return counted / busy


def paced(client: PoolClient, meter: SpeedMeter, trips: list[Trip], rate: float) -> dict:
    """The paced phase in segments of about ``PIECE_S``, a speed sample
    after each. Each segment offers ``rate`` scaled by the cores' recent
    speed, so the workers run at the same utilization however fast the
    host is at the moment."""
    out: dict = {"ids": [], "latencies": [], "lag": [], "submitted_epoch": {}}
    for piece in _pieces(trips, rate):
        recent = max(0, len(meter.samples) - catalog.RATE_SAMPLES)
        segment = client.paced(piece, rate * meter.scale(recent))
        meter.sample()
        for key in ("ids", "latencies", "lag"):
            out[key] += segment[key]
        out["submitted_epoch"].update(segment["submitted_epoch"])
    return out


def start_pool(
    workload: Workload, setup: Setup, work: pathlib.Path, seed: int, meter: SpeedMeter
) -> tuple[ServingPool, PoolClient, float]:
    """Save the system, start the pool, and return one warm-up request
    from every shard. Returns the pool, its client and the seconds taken
    at reference speed."""
    with meter.sampling(usable_cores()) as samples:
        t0 = time.perf_counter()
        pool, client = _start_pool(workload, setup, work, seed)
        took = time.perf_counter() - t0
    return pool, client, took * scale_of(samples)


def _start_pool(
    workload: Workload, setup: Setup, work: pathlib.Path, seed: int
) -> tuple[ServingPool, PoolClient]:
    model_dir = work / "model"
    save_kamel(setup.system, model_dir)
    pool = ServingPool(
        str(model_dir),
        ServeConfig(workers=catalog.WORKERS, strategy="hash", journal_dir=str(work / "journal")),
    )
    pool.start()
    cores = usable_cores()
    for worker in pool.healthz()["workers"]:
        os.sched_setaffinity(worker["pid"], {shard_core(worker["shard"], cores)})
    client = PoolClient(pool)
    try:
        warmup: dict[int, Trajectory] = {}
        batch = 0
        while len(warmup) < catalog.WORKERS:
            trips = simulate_trips(
                setup.network,
                _WARMUP_SALT,
                seed * 1000 + batch,
                16,
                f"warm-{batch}",
                workload.sparseness_m,
            )
            for trip in trips:
                warmup.setdefault(pool.strategy.shard_for(trip.request), trip.request)
            batch += 1
        for trajectory in warmup.values():
            client.submit(trajectory)
        pool.drain(timeout=_DRAIN_TIMEOUT_S)
    except BaseException:
        pool.stop()
        raise
    return pool, client


def run_serve(
    workload: Workload,
    setup: Setup,
    seconds: float,
    trace: bool,
    sizes: Sizes,
    pool: ServingPool,
    client: PoolClient,
    meter: SpeedMeter,
) -> Report:
    report = Report()
    plan = feed_plan(workload, seconds)
    n_flood = int(plan["flood"])
    flood_trips, paced_trips = setup.feed[:n_flood], setup.feed[n_flood:]
    timed = setup.feed

    pids = worker_pids()
    first_sample = len(meter.samples)
    parent0, kernel_cpu0 = parent_cpu_s(), meter.cpu_s
    workers0 = {pid: child_cpu_s(pid) for pid in pids}
    raw_flood_tps = flood(client, meter, flood_trips, workload.ref_tps)
    # In the paced phase the parent shares a core with worker 0 in every
    # run, rather than wherever the scheduler happens to put it.
    with pinned(meter.cores[:1]):
        paced_phase = paced(client, meter, paced_trips, plan["rate"])
    parent_cpu = parent_cpu_s() - parent0 - (meter.cpu_s - kernel_cpu0)
    workers_cpu = sum(child_cpu_s(pid) - cpu for pid, cpu in workers0.items())
    # The pool's speed over the whole timed phase: scaling each round or
    # segment by the samples around it, or each phase by its own, was no
    # steadier.
    timed_scale = meter.scale(first_sample)
    flood_tps = raw_flood_tps / timed_scale
    latencies = [t * timed_scale for t in paced_phase["latencies"]]
    peak_rss = parent_peak_rss_mb() + sum(child_peak_rss_mb(pid) for pid in pids)
    if worker_pids() != pids:
        report.fail("a worker process was replaced during the timed phase", 0)

    messages = [pool.results.get(t.request.traj_id) for t in timed]
    outcomes = [
        outcome_of_message(m) if m is not None else Outcome([], error="lost") for m in messages
    ]

    for trip in setup.quality:
        client.submit(trip.request)
    pool.drain(timeout=_DRAIN_TIMEOUT_S)
    quality_outcomes = [
        outcome_of_message(pool.results[t.request.traj_id])
        if t.request.traj_id in pool.results
        else Outcome([], error="lost")
        for t in setup.quality
    ]
    q = quality(setup.quality, quality_outcomes, setup.system.config.maxgap_m)
    report.info["quality_segments"] = q.pop("segments")
    _check_errors(report, outcomes + quality_outcomes)

    # The reference is the fitted system itself, so a serialization or
    # lazy-loading fault in the serving path shows as a mismatch.
    service = StreamingImputationService(setup.system)
    for trip in setup.quality[: sizes.reference_requests]:
        expected = [trajectory_to_payload(r.trajectory) for r in service.process(trip.request)]
        got = pool.results.get(trip.request.traj_id, {}).get("trips")
        if got != expected:
            report.fail(f"{trip.request.traj_id}: pooled output differs from in-process")

    requests = len(timed)
    report.end_to_end = {
        "throughput_tps": flood_tps,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        **q,
        "cpu_ms_per_traj": (parent_cpu + workers_cpu) / requests * 1e3 * timed_scale,
        "peak_rss_mb": peak_rss,
    }
    report.info.update(
        timed_requests=requests,
        flood_requests=n_flood,
        paced_requests=len(paced_trips),
        paced_rate_tps=plan["rate"],
        latency_samples=len(latencies),
        feed_failure_rate=_failure_rate(outcomes),
        raw_throughput_tps=raw_flood_tps,
        raw_latency_p95_ms=percentile(paced_phase["latencies"], 95) * 1e3,
        speed=timed_scale,
    )

    if trace:
        timed_phase = TimedPhase(
            flood_trips, paced_trips, paced_phase, outcomes, flood_tps, parent_cpu, workers_cpu
        )
        n_trace = sizes.trace_trips if sizes.trace_trips is not None else workload.trace_trips
        report.per_layer = _serve_layers(
            pool, client, timed_phase, service, n_trace, report, meter, workload.ref_tps
        )

    # Accounting over the pool's whole life: sent = completed + errored +
    # shed + lost, each counted on its own.
    pool.drain(timeout=_DRAIN_TIMEOUT_S)
    stats = pool.stats
    errored = sum(
        1 for m in pool.results.values() if m.get("error") is not None or m.get("quarantined")
    )
    completed = len(pool.results) - errored
    if stats.submitted != client.sent:
        report.fail(f"pool counted {stats.submitted} submissions, {client.sent} were sent", 0)
    if client.sent != completed + errored + stats.shed + stats.lost:
        report.fail(
            f"unaccounted requests: sent {client.sent} != completed {completed} + errored "
            f"{errored} + shed {stats.shed} + lost {stats.lost}",
            0,
        )
    if stats.shed or stats.lost or stats.duplicates:
        # The requests themselves already failed as errored outcomes.
        report.fail(f"shed {stats.shed}, lost {stats.lost}, duplicates {stats.duplicates}", 0)
    report.sent = client.sent
    return report


@dataclass
class TimedPhase:
    """What the untimed per-layer pass of a serve workload needs from the
    timed phase."""

    flood_trips: list[Trip]
    paced_trips: list[Trip]
    paced: dict
    outcomes: list[Outcome]
    flood_tps: float
    parent_cpu_s: float
    workers_cpu_s: float


def _serve_layers(
    pool: ServingPool,
    client: PoolClient,
    phase: TimedPhase,
    service: StreamingImputationService,
    n_trace: int,
    report: Report,
    meter: SpeedMeter,
    flood_rate: float,
) -> dict:
    """Per-layer numbers of a serve workload (``--trace 1``)."""
    flood_trips, paced_trips, paced = phase.flood_trips, phase.paced_trips, phase.paced
    timed = flood_trips + paced_trips
    messages = [pool.results[t.request.traj_id] for t in timed if t.request.traj_id in pool.results]
    paced_messages = [
        pool.results[t.request.traj_id] for t in paced_trips if t.request.traj_id in pool.results
    ]
    requests = len(timed)

    # Parent-side layers: the same flood backlog again under new ids.
    tracer = LayerTracer()
    again = renamed(flood_trips, "~traced")
    first_sample = len(meter.samples)
    with tracer.installed(pool=pool):
        raw_traced_tps = flood(client, meter, again, flood_rate)
    parent_scale = meter.scale(first_sample)
    traced_tps = raw_traced_tps / parent_scale
    traced_outcomes = [
        outcome_of_message(pool.results[t.request.traj_id])
        if t.request.traj_id in pool.results
        else Outcome([], error="lost")
        for t in again
    ]
    _check_errors(report, traced_outcomes)
    if digest(traced_outcomes) != digest(phase.outcomes[: len(flood_trips)]):
        report.fail("traced pooled outputs differ from the untraced run", len(again))

    # Pipeline layers: the workers cannot be wrapped, so the same feed runs
    # in-process on the saved system with the wrappers installed.
    pipeline = LayerTracer()
    meter.sample()
    with pipeline.installed():
        for trip in timed[:n_trace]:
            results = service.process(trip.request)
            expected = pool.results.get(trip.request.traj_id, {}).get("trips")
            if [trajectory_to_payload(r.trajectory) for r in results] != expected:
                report.fail(f"{trip.request.traj_id}: traced in-process output differs")
    pipeline_scale = meter.scale_after()

    handle = [m["process_s"] for m in messages]
    queue_wait = [
        m["start_epoch"] - paced["submitted_epoch"][m["traj_id"]] for m in paced_messages
    ]
    transit = [
        client.received_epoch[m["traj_id"]] - (m["start_epoch"] + m["process_s"])
        for m in paced_messages
        if m["traj_id"] in client.received_epoch
    ]
    shards: dict[int, int] = {}
    for m in messages:
        shards[m["shard"]] = shards.get(m["shard"], 0) + 1
    mean_shard = requests / catalog.WORKERS

    layers = at_reference_speed(pipeline.pipeline_metrics(), pipeline_scale)
    layers.update(at_reference_speed(tracer.serve_metrics(), parent_scale))
    layers.update(
        {
            "serve.parent_cpu_ms_per_req": phase.parent_cpu_s / requests * 1e3,
            "serve.shard_imbalance": max(shards.values()) / mean_shard if shards else 0.0,
            "serve.worker_handle_ms_p50": percentile(handle, 50) * 1e3,
            "serve.worker_overhead_ms_per_req": (phase.workers_cpu_s - sum(handle))
            / requests
            * 1e3,
            "serve.queue_wait_ms_p50": percentile(queue_wait, 50) * 1e3,
            "serve.queue_wait_ms_p95": percentile(queue_wait, 95) * 1e3,
            "serve.transit_ms_p50": percentile(transit, 50) * 1e3,
            "serve.gen_lag_p95_ms": percentile(paced["lag"], 95) * 1e3,
            "journal.append_us": _journal_append_us(timed, pathlib.Path(pool.model_dir).parent),
            "ipc.task_bytes": statistics.fmean(
                len(ForkingPickler.dumps(
                    {"trajectory": t.request, "trace_id": new_trace_id(), "submit_epoch": time.time()}
                ))
                for t in timed
            ),
            "ipc.result_bytes": statistics.fmean(len(ForkingPickler.dumps(m)) for m in messages),
            "trace.overhead_ratio": phase.flood_tps / traced_tps,
        }
    )
    return layers


def _journal_append_us(trips: list[Trip], work: pathlib.Path) -> float:
    """``StreamJournal.begin`` + ``done`` per trip, as a worker journals it."""
    journal = StreamJournal(work / "append-probe.jsonl")
    try:
        t0 = time.perf_counter()
        for trip in trips:
            journal.begin(trip.request)
            journal.done(trip.request.traj_id)
        return (time.perf_counter() - t0) / len(trips) * 1e6
    finally:
        journal.close()
