"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload fresh_docs --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced variant and
prints the per-layer metrics.  The last stdout line is the JSON result;
the line before it records the seed, the environment and the host's
calibration-loop time.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fresh_docs", "resident_mix", "novel_queries")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
OUT_DIR = os.path.join(HERE, "out")
#: Hard cap on one worker process (a run must end within 180 s).
WORKER_TIMEOUT = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the child process that runs a library workload.
    parser.add_argument("--role", choices=("main", "setup", "worker"),
                        default="main", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn_worker(args, role: str) -> tuple[float, dict | None]:
    """Start a library worker; returns (spawn → ready seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--role", role,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = None
        result = None
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("{"):
                result = json.loads(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"{role} process failed (exit {proc.returncode})")
    return ready, result


def worker(args) -> int:
    """Child side of ``spawn_worker``: set up, say READY, maybe measure."""
    import library

    def ready() -> None:
        print("READY", flush=True)

    if args.role == "setup":
        workload = library.WORKLOADS[args.workload](args.seed)
        workload.setup()
        ready()
        return 0
    result = library.measure(args.workload, args.seed, args.seconds, ready)
    print(json.dumps(result), flush=True)
    return 0


def run(args) -> dict:
    """One benchmark run; returns the raw result dict."""
    if args.trace:
        if args.workload == "resident_mix":
            import resident

            return resident.traced(args.seed, args.seconds)
        import library

        return library.traced(args.workload, args.seed, args.seconds)
    if args.workload == "resident_mix":
        import resident

        return resident.measure(args.seed, args.seconds, SETUPS)
    setup_times = [spawn_worker(args, "setup")[0] for _ in range(SETUPS - 1)]
    elapsed, result = spawn_worker(args, "worker")
    setup_times.append(elapsed)
    result["setup_times"] = setup_times
    result["metrics"]["setup_s"] = statistics.median(setup_times)
    return result


def write_spans(args, spans) -> str:
    """Write a traced run's spans as JSON lines under ``perfbench/out``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as handle:
        for op_id, name, start, end, parent in spans:
            handle.write(json.dumps({"op": op_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    return os.path.relpath(path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.role != "main":
        return worker(args)
    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    from measure import calibration_ms, environment

    calibration_before = calibration_ms()
    result = run(args)
    calibration_after = calibration_ms()
    spans = result.pop("spans", None)
    if spans is not None:
        result["spans_file"] = write_spans(args, spans)
    if args.trace and result["metrics"]["trace.coverage"] < 0.9:
        print("perfbench: the named layers cover under 90% of traced op "
              f"time ({result['metrics']['trace.coverage']:.3f})", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "calibration_ms": [calibration_before, calibration_after],
        **{k: v for k, v in result.items() if k not in ("metrics",)},
    }
    print("# run " + json.dumps(record, default=repr))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
