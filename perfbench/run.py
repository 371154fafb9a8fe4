"""Calibrated closed-loop benchmark of the entroconj toolkit.

Usage (from the repository root):

    python3 perfbench/run.py --workload numeric --seed 1 --seconds 20 --trace 0

Workloads: numeric, samples, symbolic, lattice (see ``workloads.WHY``).
Steps of one run:

1. Generate the workload's inputs from the seed into ``.perfbench/``.
2. With ``--trace 0``, time ``import entroconj.cli`` in several fresh
   interpreters (``setup_s``, the median).
3. Start one runner process (:mod:`perfbench.runner`) that runs whole passes
   over the job list for about ``--seconds`` and checks every output.
4. Print a provenance line, then one JSON result line: with ``--trace 0``
   the end-to-end metrics named in ``BENCHMARK.json``, with ``--trace 1``
   its per-layer metrics, measured by a traced second half of the run.

All times are calibrated (see :mod:`perfbench.measure`).  Exits 2 without a
result when the package source is not in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.measure import C_REF_MS, calibrate, percentile, tail_percentile  # noqa: E402

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
RUNNER_GRACE_S = 90


def _env() -> dict:
    path = os.pathsep.join([str(SRC), str(ROOT)])
    return dict(os.environ, PYTHONPATH=path)


def measure_setup() -> list[float]:
    """Calibrated seconds of ``import entroconj.cli``, one per fresh interpreter.

    A first, discarded probe compiles the bytecode of a fresh checkout.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.importprobe"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            samples.append(calibrate(probe["import_s"], *probe["cal_ms"]))
    return samples


def job_ms(record: dict, field: str = "raw_s") -> float:
    return calibrate(record[field] * 1e3, *record["cal_ms"])


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    records = result["records"]
    times = [job_ms(r) for r in records]
    p90, _ = tail_percentile(times, 90)
    return {
        "setup_s": statistics.median(setup),
        "job_p50_ms": percentile(times, 50),
        "job_p90_ms": p90,
        "jobs_per_s": len(times) / (sum(times) / 1e3),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "success_rate": sum(r["problem"] is None for r in records) / len(records),
    }


def diagnostics(records: list[dict]) -> dict[str, float]:
    return {
        "calib.slice_ms": statistics.median(c for r in records for c in r["cal_ms"]),
        "raw.job_p50_ms": percentile([r["raw_s"] * 1e3 for r in records], 50),
        "error_rate": sum(r["problem"] is not None for r in records) / len(records),
    }


def per_layer(result: dict) -> dict[str, float]:
    untraced = [job_ms(r) for r in result["records"]]
    traced = [job_ms(r, "span_s") for r in result["traced"]]
    rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    layers = dict(result["layers"])
    layers.update(diagnostics(result["records"]))
    layers["trace.overhead_pct"] = (rate - traced_rate) / rate * 100.0
    return layers


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), **{name: metadata.version(name) for name in ("numpy", "scipy", "click")}}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "entroconj" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC / 'entroconj'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import describe, generate

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = generate(args.workload, args.seed, work / "inputs")
        (work / "jobs.json").write_text(json.dumps({
            "workload": args.workload,
            "jobs": jobs,
            "spans_dir": str(ROOT / ".perfbench"),
        }), encoding="utf-8")
        setup = measure_setup() if args.trace == 0 else []
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.runner", str(work), str(args.seconds), str(args.trace)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=args.seconds * 2 + RUNNER_GRACE_S,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"perfbench: runner exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = result["records"] + result.get("traced", [])
    problems = sorted({f"{r['kind']}: {r['problem']}" for r in phases if r["problem"]})
    if args.trace == 0:
        computed = end_to_end(result, setup)
        wanted = spec["end_to_end"]
    else:
        computed = per_layer(result)
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "versions": _versions(),
        "nproc": os.cpu_count(),
        "c_ref_ms": C_REF_MS,
        "inputs": describe(args.workload, jobs),
        "passes": result["passes"],
        "jobs_run": len(result["records"]),
        "setup_samples_s": setup,
        "caches_cleared": result["caches"],
        "diagnostics": diagnostics(result["records"]),
        "problems": problems,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not any(r["problem"] and r["valid"] for r in phases),
        "attempted": len(phases),
        "failed": sum(r["problem"] is not None for r in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
