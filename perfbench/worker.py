"""One benchmark process: set up tarl, run one workload's items, check them.

run.py starts this script in a fresh interpreter for every run, so that no
module-level cache (the search intern table, the corpus cache, a
structure's tables) carries over from an earlier run.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE SPANS_PATH

Prints one JSON line.  `ready` is the time.monotonic() reading when the
first item could start; the parent subtracts its own reading taken just
before it started this process, which gives the set-up time.
"""

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tarl  # noqa: E402

if not Path(tarl.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"error: imported tarl from {tarl.__file__}, not from {ROOT / 'src'}")

import numpy  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_tasks(tasks, sampler: speed.Sampler, spans: tracing.Tracer | None):
    """Time every item; returns (measured run_s, scaled latencies, outputs,
    errors).  Times leave out the speed sampling.

    A stream task's items are the `next()` calls on its generator; the
    call that creates the generator counts towards the first of them."""
    latencies: list[float] = []
    outputs: list = []
    errors: dict[int, str] = {}
    gc.collect()
    with sampler:
        start = sampler.clock()
        for i, task in enumerate(tasks):
            if spans:
                spans.item_id, spans.kind = i, task.kind
            out = None
            mark = sampler.mark()
            try:
                if task.stream:
                    out = []
                    for value in task.call():
                        latencies.append(sampler.scaled_since(mark))
                        out.append(value)
                        mark = sampler.mark()
                else:
                    out = task.call()
            except Exception:  # an item that raises counts as failed; the run goes on
                errors[i] = traceback.format_exc(limit=2)
            latencies.append(sampler.scaled_since(mark))
            outputs.append(out)
        measured_s = sampler.clock() - start
    return measured_s, latencies, outputs, errors


def percentile(values: list[float], q: float, band: float = 0.05) -> float:
    """The q-quantile, taken as the mean of the values between the
    (q - band) and (q + band) quantiles.  Latencies of fixed inputs fall in
    clusters, and a plain order statistic at a cluster edge jumps between
    clusters from run to run."""
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, int((q - band) * n))
    hi = min(n, max(lo + 1, int((q + band) * n)))
    return statistics.fmean(ordered[lo:hi])


def check_outputs(tasks, outputs, errors):
    """Known answers, verdict digest and established count, untimed."""
    digest = hashlib.sha256()
    established = 0
    for i, (task, out) in enumerate(zip(tasks, outputs)):
        if i in errors:
            digest.update(f"{i}:error\n".encode())
            continue
        try:
            problem = task.check(out)
            verdict = task.verdict(out)
            established += len(out) if task.stream else bool(task.positive(out))
        except Exception:  # a malformed result fails its item
            problem, verdict = traceback.format_exc(limit=2), None
        if problem:
            errors[i] = problem
        digest.update(f"{i}:{verdict!r}\n".encode())
    return digest.hexdigest(), established


def main() -> None:
    mode = sys.argv[1]
    spans = tracing.Tracer() if mode == "run" and sys.argv[5] == "1" else None
    if spans:
        spans.install()
    workloads.setup()
    ready = time.monotonic()
    sampler = speed.Sampler()
    if mode == "probe":
        print(json.dumps({"ready": ready, "scale": sampler.scale()}))
        return

    workload, seed, seconds, spans_path = (sys.argv[2], int(sys.argv[3]),
                                           int(sys.argv[4]), sys.argv[6])
    setup_scale = sampler.scale()
    if spans:
        spans.active = False            # generating the inputs is not traced
        spans.clock = sampler.clock
    tasks = workloads.WORKLOADS[workload](seed, seconds)
    if spans:
        spans.active = True
    measured_s, latencies, outputs, errors = run_tasks(tasks, sampler, spans)
    if spans:
        spans.active = False
    run_s = sum(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest, established = check_outputs(tasks, outputs, errors)
    result = {
        "ready": ready,
        "scale": setup_scale,
        "attempted": len(tasks),
        "failed": len(errors),
        "failures": [f"item {i} ({tasks[i].kind}): {errors[i]}" for i in sorted(errors)[:5]],
        "items": len(latencies),
        "digest": digest,
        "run_s": run_s,
        "item_p50_ms": percentile(latencies, 0.5) * 1e3,
        "item_p90_ms": percentile(latencies, 0.9) * 1e3,
        "measured_run_s": measured_s,
        "speed": measured_s / run_s,
        "established": established,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    if workload == "prove":
        proved = [t.kind for t, out in zip(tasks, outputs) if out is not None and out.proved]
        result["proved"] = {kind: proved.count(kind) for kind in tracing.SEARCH_KINDS}
    if spans:
        result["layers"] = tracing.layer_metrics(spans, [t.kind for t in tasks], measured_s,
                                                 run_s / measured_s)
        spans.dump(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
