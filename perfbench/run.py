"""The tarl benchmark: one workload per invocation, each run in fresh
interpreters started one after another (no threads, no pools).

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

With --trace 0 it starts one warm-up process (which also fills the bytecode
cache), then PROBES set-up-only processes and the measuring process, and
reports the end-to-end metrics; set-up time is the median over the probes
and the measuring process.  With --trace 1 it runs the workload untraced
and then traced, checks that the verdicts agree, and reports the per-layer
metrics and the tracing overhead.  Every time is scaled to a nominal host
speed measured alongside it (see worker.py).  The last line of standard
output is the result; a full report and, for traced runs, the spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("prove", "check", "semantics", "enumerate")
PROBES = 3
CHILD_TIMEOUT_S = 80              # two in a traced run stay under 180 s


def _child(args: list[str], seed: int) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; returns (start time, its JSON)."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {args[0]} exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[float, dict]:
    spans = OUT / f"spans-{workload}-seed{seed}.json.gz"
    return _child(["run", workload, str(seed), str(seconds), str(trace), str(spans)], seed)


def _source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "tarl").glob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tarl" / "__init__.py").is_file():
        ap.error(f"no tarl sources under {ROOT / 'src'}; run from a checkout of the repository")
    OUT.mkdir(exist_ok=True)

    if args.trace:
        _, plain = _run(args.workload, args.seed, args.seconds, 0)
        _, result = _run(args.workload, args.seed, args.seconds, 1)
        agree = plain["digest"] == result["digest"]
        metrics = dict(result["layers"])
        metrics["trace.overhead_s"] = result["run_s"] - plain["run_s"]
        metrics["trace.run_s"] = result["run_s"]
        units = {k: _layer_unit(k) for k in metrics}
        failed = result["failed"] + plain["failed"] + (0 if agree else 1)
        attempted = result["attempted"] + plain["attempted"]
    else:
        _child(["probe"], args.seed)                 # warm-up: bytecode and file cache
        setups = []
        for _ in range(PROBES):
            started, probe = _child(["probe"], args.seed)
            setups.append((probe["ready"] - started) * probe["scale"])
        started, result = _run(args.workload, args.seed, args.seconds, 0)
        setups.append((result["ready"] - started) * result["scale"])
        attempted, failed = result["attempted"], result["failed"]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": result["run_s"],
            "item_p50_ms": result["item_p50_ms"],
            "item_p90_ms": result["item_p90_ms"],
            "established": result["established"],
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"setup_s": "s", "run_s": "s", "item_p50_ms": "ms",
                 "item_p90_ms": "ms", "established": "count", "ok_share": "share",
                 "peak_rss_mb": "MB"}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": result["numpy"],
        "source_lines": _source_lines(), "items": result["items"],
        "error_share": failed / attempted, "failures": result["failures"],
        "measured_run_s": result["measured_run_s"], "speed": result["speed"],
    }
    if "proved" in result:
        info["proved"] = result["proved"]
    if args.trace:
        info["verdicts_agree"] = agree
    report = {"info": info, "metrics": metrics}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if "_per_s" in name:
        return "1/s"
    if "_us" in name:
        return "us"
    if "self_s" in name or name.endswith("_s"):
        return "s"
    if "ratio" in name:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
