"""KAMEL benchmark: one workload per run, or ``--workload all``.

    python3 kamelbench/run.py --workload impute-sparse --seed 1 --seconds 15 --trace 0

Prints a fingerprint of the environment, every metric by name with its
unit, and as the last line one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (the end-to-end ones are still printed above it). The
exit code is 0 only when every request is accounted for and every output
check passed. See ``kamelbench/README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# Spawned serving workers import this file as their main module, so only
# the import path is set up at module level.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOAD_NAMES = ("impute-sparse", "serve-sparse", "serve-dense")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="train on 200 trips and check few requests (self-tests only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(args: argparse.Namespace) -> int:
    import gc
    import multiprocessing as mp
    import shutil
    import tempfile

    from kamelbench import catalog, harness
    from kamelbench.speed import SpeedMeter, usable_cores

    workload = catalog.WORKLOADS[args.workload]
    sizes = harness.Sizes.smoke() if args.smoke else harness.Sizes()
    trace = bool(args.trace)
    print("env " + json.dumps(harness.fingerprint(workload, args.seed, args.seconds, trace)))

    harness.WORK_DIR.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=harness.WORK_DIR))
    pool = None
    # The closed loop is one busy thread: its speed is its own core's. The
    # pool's workers use every core.
    meter = SpeedMeter(usable_cores() if workload.serve else None)
    try:
        setup = harness.set_up(workload, args.seed, args.seconds, sizes, meter)
        if workload.serve:
            pool, client, ready_s = harness.start_pool(workload, setup, work, args.seed, meter)
            setup.timings["setup.pool_ready_s"] = ready_s
            report = harness.run_serve(
                workload, setup, args.seconds, trace, sizes, pool, client, meter
            )
        else:
            report = harness.run_impute(workload, setup, args.seconds, trace, sizes, meter)
    finally:
        if pool is not None:
            pool.stop()
            # Let the pool's queues and locks be finalized before the
            # resource tracker is stopped (see _stop_resource_tracker).
            del pool, client
            gc.collect()
        for child in mp.active_children():
            child.join(timeout=10)
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    report.end_to_end["success_rate"] = (
        1.0 - min(report.failed_requests, report.sent) / report.sent if report.sent else 0.0
    )
    report.end_to_end["setup_s"] = sum(setup.timings.values())
    if trace:
        report.per_layer.update(setup.timings)
        for name, _ in catalog.PER_LAYER:
            if name.startswith(catalog.SERVE_ONLY_PREFIXES):
                report.per_layer.setdefault(name, 0.0)

    report.info["raw_setup_s"] = setup.raw_setup_s
    report.info["speed_samples"] = len(meter.samples)
    print("info " + json.dumps({**report.info, **setup.timings}, sort_keys=True))
    for message in report.errors[:20]:
        print(f"FAILED {message}")
    for title, table, values in (
        ("end-to-end", catalog.END_TO_END, report.end_to_end),
        ("per-layer", catalog.PER_LAYER, report.per_layer if trace else {}),
    ):
        if values:
            print(f"-- {title} ({args.workload}, seed {args.seed})")
            for name, unit in table:
                print(f"{name:40s} {values[name]:14.6g} {unit}")

    chosen = catalog.PER_LAYER if trace else catalog.END_TO_END
    source = report.per_layer if trace else report.end_to_end
    correct = not report.errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.sent,
                "failed": report.failed_requests,
                "metrics": {
                    name: {"value": float(source[name]), "unit": unit} for name, unit in chosen
                },
            }
        )
    )
    _stop_resource_tracker()
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """The spawn context starts a resource-tracker process for the pool's
    locks; stop it and wait for it rather than leave it to exit with us."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"kamelbench: no KAMEL sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
