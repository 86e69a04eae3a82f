"""Benchmark of fiveclass: one seeded workload per run, closed loop, one caller.

    python3 bench/run.py --workload bundle-small --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
src/.  With --trace 0 the run reports the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Workloads, metric links and the default seed are described in
bench/design.json.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bundle-small", "expr-corpus")
SETUP_SPAWNS = 6  # set-ups measured before and again after the measuring worker
RUN_TIMEOUT_S = 170


def ref_loop_ms() -> float:
    """Median of three timings of a fixed pure-Python loop: a host-speed
    reference recorded beside the run, never used to rescale a metric."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def spawn_worker(cfg: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready`; returns it and the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(cfg)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(deadline - time.perf_counter(), 0)):
            stop(proc)
            raise RuntimeError("worker did not become ready in time")
    line = proc.stdout.readline()
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker failed to start: {line!r}")
    return proc, time.perf_counter() - t0


def stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait()


def setup_samples(cfg: dict, deadline: float) -> list[float]:
    """Seconds from spawn until the first item could start, several times."""
    out = []
    for _ in range(SETUP_SPAWNS):
        proc, secs = spawn_worker(cfg, deadline)
        proc.communicate("exit\n", timeout=60)
        out.append(secs)
    return out


def measure(args, scratch: Path) -> tuple[dict, list[float]]:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    cfg = {"root": str(ROOT), "scratch": str(scratch), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "spans_path": str(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")}
    setup = [] if args.trace else setup_samples(cfg, deadline)
    proc, secs = spawn_worker(cfg, deadline)
    if not args.trace:
        setup.append(secs)
    try:
        stdout, _ = proc.communicate("go\n", timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("worker ran past its deadline")
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if not args.trace:  # a second batch, so the median spans the run's host states
        setup += setup_samples(cfg, deadline)
    return json.loads(stdout.strip().splitlines()[-1]), setup


def report(args, res: dict, setup: list[float], ref_ms: float, declared: dict) -> dict:
    """Print the human-readable report; return the metrics to emit."""
    n, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  loop: closed, one caller")
    print(f"host.ref_loop_ms = {ref_ms:.3f} ms (fixed pure-Python loop, median of 3; "
          "not used to rescale)")
    print(f"inputs: {res['passes']:.2f} passes, each over a fresh pool of {res['pool']} items "
          "drawn from (seed, pass) and generated before the pass")
    if args.trace:
        metrics = dict(res["per_layer"], **{"host.ref_loop_ms": ref_ms})
        for name in declared:
            print(f"  {name} = {metrics[name]:.6g} {declared[name]}")
        print(f"spans kept: {res['spans']} (written under .bench_out/)")
        design_checks(args.workload, metrics, res)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": res["items_per_s"],
            "latency_p50_ms": res["p50_ms"],
            "latency_p90_ms": res["p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        win = (f"{res['windows']} passes of {res['window']} executions, every execution at its "
               "own wall time; the pass at the slow 5% tail" if res["windows"] > 1
               else f"the whole run, {n} executions, every execution at its own wall time")
        beyond = res["window"] // 10
        counts = {
            "setup_s": f"median of {len(setup)} set-ups",
            "items_per_s": f"{n - failed} correct executions in {res['busy_s']:.3f} s; {win}",
            "latency_p50_ms": win,
            "latency_p90_ms": f"{win}; about {beyond} executions beyond p90 in each",
            "peak_rss_mb": "worker",
        }
        for name in declared:
            print(f"  {name} = {metrics[name]:.6g} {declared[name]} ({counts[name]})")
        rate, p50, p90 = res["whole_run"]
        print(f"  whole run, not declared: items_per_s {rate:.6g} 1/s, latency_p50_ms "
              f"{p50:.6g} ms, latency_p90_ms {p90:.6g} ms")
    print(f"  error_rate = {failed}/{n} = {failed / n:.6g} (malformed inputs in the mix: "
          f"{res['malformed']}, each expected to raise its InputError class)")
    for err in res["errors"]:
        print(f"  check failed: {err}")
    fails = [name for name, (_, bad) in res["defects"].items() if bad]
    print(f"known-defect probe, outside the timed loop: {len(fails)} of {len(res['defects'])} "
          "input classes fail")
    for name, (outcome, bad) in res["defects"].items():
        print(f"  {'FAIL' if bad else 'ok  '} {name}: {outcome}")
    print(f"output digest: sha256:{res['digest']}")
    return {name: metrics[name] for name in declared}


def design_checks(workload: str, m: dict, res: dict) -> None:
    """The traced run's confirmation of what each workload is meant to load;
    a prediction that does not hold prints FAIL."""
    def verdict(ok: bool) -> str:
        return "ok  " if ok else "FAIL"

    if workload == "bundle-small":
        share = m["forms.busy_frac"]
        print(f"design check {verdict(share >= 0.9)}: forms share of item time {share:.1%} "
              "(want >= 90%)")
    else:
        calls = res["profiled_forms_calls"]
        print(f"design check {verdict(calls == 0)}: calls into fiveclass/forms.py over one "
              f"unit of the pool, counted by a profiler hook: {calls} (want 0)")
    # a one-shot CLI call is start-up plus main; the sweep times both parts
    start = m["cli.startup_ms"]
    sub, main_ms = max(((k, v) for k, v in m.items() if k.startswith("cli.main_ms.")),
                       key=lambda kv: kv[1])
    share = start / (start + main_ms)
    print(f"design check {verdict(share >= 0.5)}: interpreter start + import fiveclass.cli "
          f"{start:.1f} ms (floor {m['cli.interp_floor_ms']:.1f} ms) of a one-shot call with "
          f"the slowest main, {sub} {main_ms:.1f} ms: {share:.1%} (want >= 50%)")
    print(f"tracing overhead: {m['trace.overhead_frac']:+.2%} of item time")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fiveclass" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'fiveclass'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    ref_ms = ref_loop_ms()
    scratch = ROOT / ".bench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        res, setup = measure(args, scratch)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = report(args, res, setup, ref_ms, declared)
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
