"""The timed closed loop, the checks, and the metrics of one worker run."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from array import array

import spans
import workloads
from fiveclass import forms
from workloads import is_raised

MIN_ITEMS = 100  # p90 then has at least ten items beyond it
# A run reports its passes at the slow tail: the 5th percentile of
# throughput, the 95th of latency.  On a shared 2-vCPU Xeon VM the speed
# switched for seconds to minutes between a slow state, which every 30 s run
# reached, and one up to 1.75x faster; the share of fast time moved
# whole-run figures by up to 30% between runs, the slow tail by under 10%.
TAIL = 1  # index into the 20-quantiles: 5% from the slow end
TRACE_MAX_ITEMS = 5000  # bounds the spans a traced pass keeps
DEADLINE_S = 150  # the worker stops its loops after this long
# the workload passes never call ahss, gf2 or cli; their per-layer numbers
# come from the sweep alone
LAYERS = ("forms", "bundle", "algebra", "parsing", "bordism")


def check(wl, item: dict, out) -> str | None:
    """An answer's difference from its item's expectation, or None."""
    try:
        return wl.check(item, out)
    except Exception as exc:  # a malformed answer can break the reader
        return f"check raised {exc!r}"


def run_item(wl, item: dict, call):
    try:
        return wl.run(item, call)
    except Exception as exc:  # every outcome is recorded and checked later
        return workloads.raised(exc)


def run_loop(wl, seed: int, deadline: float, seconds: float, min_items: int,
             limit: int | None = None, tracer: spans.Tracer | None = None) -> dict:
    """Closed loop: the next item starts when the last one is answered.

    Pass p goes through a fresh pool drawn from (seed, p), generated before
    the pass, so no input repeats and no cache keyed on inputs is hit.  Every
    answer is checked outside the timed call.  Stops after `limit`
    executions, at the end of the first balanced unit of a pool once
    `seconds` of item time and `min_items` executions are done, or at
    `deadline`.

    With a tracer, each execution runs its item twice, untraced and traced,
    in alternating order, so both timings see the same host state.
    """
    # a compact array keeps RSS from tracking throughput
    times, traced, ok = array("q"), array("q"), bytearray()
    busy = failed = malformed = n = 0
    errors: list[str] = []
    first: list = []  # pass 0's answers, for the digest
    npass = 0
    pool = first_pool = wl.pool(random.Random(f"{seed}/0"))
    while True:
        for idx, item in enumerate(pool):
            if tracer and n % 2:
                traced.append(_traced(wl, item, n, tracer))
            t0 = time.perf_counter_ns()
            out = run_item(wl, item, spans.direct)
            t1 = time.perf_counter_ns()
            if tracer and not n % 2:
                traced.append(_traced(wl, item, n, tracer))
            times.append(t1 - t0)
            busy += t1 - t0
            n += 1
            malformed += "malformed" in item
            err = check(wl, item, out)
            ok.append(not err)
            if err:
                failed += 1
                errors.append(f"pass {npass} item {idx}: {err}")
            if npass == 0:
                first.append(out)
            done = busy >= seconds * 1e9 and n >= min_items and (idx + 1) % wl.unit == 0
            if (limit is not None and n >= limit) or done or time.perf_counter() > deadline:
                return {"n": n, "times": times, "ok": ok, "traced": traced, "busy_ns": busy,
                        "failed": failed, "malformed": malformed, "errors": errors,
                        "passes": npass + (idx + 1) / len(pool), "pool": first_pool,
                        "first": first}
        npass += 1
        pool = wl.pool(random.Random(f"{seed}/{npass}"))


def _traced(wl, item: dict, n: int, tracer: spans.Tracer) -> int:
    """One traced execution as an item span; returns its duration."""
    tracer.begin_item(n)
    t0 = time.perf_counter_ns()
    out = run_item(wl, item, tracer.call)
    t1 = time.perf_counter_ns()
    tracer.end_item(t0, t1, not is_raised(out))
    if wl.attribute and not is_raised(out):
        tracer.probe = True
        wl.attribute(item, tracer.call)
        tracer.probe = False
    return t1 - t0


def digest(wl, loop: dict) -> str:
    """sha256 of the answers to pass 0's pool, in order; items the loop did
    not reach are answered here, untimed."""
    pool, first = loop["pool"], loop["first"]
    first += [run_item(wl, item, spans.direct) for item in pool[len(first):]]
    blob = json.dumps([wl.summary(out) for out in first], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def figures(times, ok) -> tuple[float, float, float]:
    """Correct executions per second, p50 and p90 in ms, every execution at
    its own wall time."""
    return (sum(ok) / (sum(times) / 1e9), statistics.median(times) / 1e6,
            statistics.quantiles(times, n=10)[8] / 1e6)


def latency_stats(loop: dict) -> dict:
    """The end-to-end figures of each whole pass, and the pass figure at the
    slow tail of the run.  A pool has at least MIN_ITEMS items, so each pass
    has its own p90; when the run has no whole pass, the whole run is the
    one window."""
    times, ok, size = loop["times"], loop["ok"], len(loop["pool"])
    if len(times) < size:
        size = len(times)
    per_pass = [figures(times[i:i + size], ok[i:i + size])
                for i in range(0, len(times) - size + 1, size)]

    def tail(values, slow_is_high: bool) -> float:
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=20)[-1 - TAIL if slow_is_high else TAIL]

    rate, p50, p90 = zip(*per_pass)
    return {
        "items_per_s": tail(rate, False), "p50_ms": tail(p50, True), "p90_ms": tail(p90, True),
        "windows": len(per_pass), "window": size, "whole_run": figures(times, ok),
    }


def profiled_forms_calls(wl, pool: list[dict]) -> int:
    """Calls into fiveclass/forms.py while answering one unit of `pool`,
    counted by a profiler hook, which also sees calls made from inside the
    package; spans see only the harness's own calls."""
    path = os.path.abspath(forms.__file__)
    calls = 0

    def hook(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == path:
            calls += 1

    sys.setprofile(hook)
    try:
        for item in pool[:wl.unit]:
            run_item(wl, item, spans.direct)
    finally:
        sys.setprofile(None)
    return calls


def layer_metrics(tr: spans.Tracer) -> dict:
    layers, item_ns = tr.layer_stats()
    item_ns = max(item_ns, 1)
    m = {}
    for layer in LAYERS:
        st = layers.get(layer, {"calls": 0, "failed": 0, "busy_ns": 0})
        m[f"{layer}.calls"] = st["calls"]
        m[f"{layer}.failed"] = st["failed"]
    square = tr.square_share_ns()
    for layer in LAYERS:
        busy = layers.get(layer, {}).get("busy_ns", 0)
        busy += square if layer == "forms" else -square if layer == "bundle" else 0
        m[f"{layer}.busy_frac"] = busy / item_ns
    return m


def measure(cfg: dict) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    root, scratch, seed = cfg["root"], cfg["scratch"], cfg["seed"]
    wl = workloads.get(cfg["workload"], scratch)
    res = {}
    if cfg["trace"]:
        import sweep

        tr_sweep = spans.Tracer()
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        per_layer = sweep.run(tr_sweep, random.Random(seed), root, env, scratch)
        budget = max(cfg["seconds"] - (time.perf_counter() - t0), 2.0) / 2
        tr = spans.Tracer()
        loop = run_loop(wl, seed, deadline, budget, 20, TRACE_MAX_ITEMS, tr)
        per_layer.update(layer_metrics(tr))
        per_layer["trace.overhead_frac"] = sum(loop["traced"]) / loop["busy_ns"] - 1
        tr.spans += tr_sweep.spans
        tr.write(cfg["spans_path"])
        res.update(per_layer=per_layer, spans=len(tr.spans),
                   profiled_forms_calls=profiled_forms_calls(wl, loop["pool"]))
    else:
        loop = run_loop(wl, seed, deadline, cfg["seconds"], MIN_ITEMS)
        # before the statistics
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        res.update(latency_stats(loop), busy_s=loop["busy_ns"] / 1e9)
    res.update(attempted=loop["n"], failed=loop["failed"], malformed=loop["malformed"],
               pool=len(loop["pool"]), passes=loop["passes"], digest=digest(wl, loop),
               errors=loop["errors"][:10], defects=wl.defects())
    if getattr(wl, "enumerate_error", None):
        res["errors"].append(wl.enumerate_error)
    return res
