"""Job runner: the one process that runs a workload's jobs.

Usage: ``python -m perfbench.runner WORK_DIR SECONDS TRACE`` with
``WORK_DIR/jobs.json`` written by :mod:`perfbench.run`.  It writes
``WORK_DIR/result.json`` and prints nothing.

Closed loop, one client: each job starts after the previous one and its
check have finished.  Before each job every ``functools`` cache in the
package is cleared, so each job pays what a fresh ``entroconj`` process
pays.  A timed interval covers only the job; the calibration kernel runs
right before and right after it, and the output check runs after that.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from .checks import CHECKERS, CheckError
from .measure import calibrate, kernel_ms, min_samples_for_tail
from .tracing import ROOT_SPAN, Tracer, install, package_modules

# Dense tables too large for the machine must be refused, never attempted:
# with the address space capped, such an allocation fails at once whatever
# the kernel's overcommit policy.
ADDRESS_SPACE_LIMIT = 4 << 30
SPANS_FILE = "spans-{workload}.jsonl.gz"


def find_caches() -> dict[str, object]:
    """Every ``functools`` cache in the package's modules and classes, by qualified name."""
    found = {}
    for module in package_modules():
        scopes = [vars(module)] + [
            vars(obj) for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for scope in scopes:
            for value in scope.values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def _library_call(job: dict):
    """Bind a library job to its arguments; the returned thunk is what is timed.

    The package functions are looked up when the thunk runs, so the traced
    run's wrappers are the ones called.
    """
    from entroconj import algebra, metrics

    args = job["args"]
    if job["call"] == "sym_skew":
        vector = algebra.UBasisVector(args["n"], tuple(Fraction(x) for x in args["c"]))

        def thunk():
            e = algebra.from_u_basis(vector)
            return (e, *algebra.sym_skew_decompose(e))
        return thunk
    if job["call"] == "to_u_basis":
        return lambda: algebra.to_u_basis(metrics.metric_expression(args["metric"], args["n"]))
    raise ValueError(f"unknown library call {job['call']!r}")


def _cli_call(args: list[str], stdout: io.StringIO, stderr: io.StringIO):
    """Thunk running ``entroconj ARGS`` in process; returns the exit code a process would have."""
    from entroconj import cli

    def thunk():
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                cli.main(args, prog_name="entroconj")
            except SystemExit as exc:
                if exc.code is None or isinstance(exc.code, int):
                    return exc.code or 0
                print(exc.code, file=sys.stderr)
                return 1
            except Exception:  # an uncaught error ends a CLI process with a traceback
                traceback.print_exc()
                return 1
            return 0
    return thunk


def judge(job: dict, code: int, value, stderr: str) -> str | None:
    """None when the outcome is the expected one, else the reason it is not."""
    expect = job["expect"]
    if code == 0 and expect in ("ok", "ok_or_error"):
        try:
            CHECKERS[job["kind"]](job, value())
        except CheckError as exc:
            return f"wrong output: {exc}"
        except Exception as exc:  # output too malformed for the checker to read
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None
    if code == 2 and expect in ("error", "ok_or_error"):
        lines = stderr.splitlines()
        if "Traceback" in stderr or not any(line.startswith("error:") for line in lines):
            return "exit 2 without a clean error: line"
        return None
    wanted = {"ok": "exit 0", "error": "exit 2", "ok_or_error": "exit 0 or 2"}[expect]
    last = stderr.strip().splitlines()[-1:] or [""]
    return f"exit {code}, expected {wanted}: {last[0][:200]}"


def run_phase(jobs, seconds: float, min_jobs: int, caches, work: Path, tracer: Tracer | None = None):
    """Run whole passes over ``jobs`` for about ``seconds``; one record per job run.

    Another pass starts while the last pass's duration still fits in the
    budget, and always until ``min_jobs`` jobs have run.
    """
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for index, job in enumerate(jobs):
            records.append(_run_job(job, f"{passes}-{index}", caches, work, tracer))
        passes += 1
        now = time.perf_counter()
        if len(records) >= min_jobs and now - start + (now - pass_start) > seconds:
            return records, passes


def _run_job(job: dict, tag: str, caches, work: Path, tracer: Tracer | None) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    out_dir = None
    if "cli" in job:
        args = list(job["cli"])
        if job["kind"] == "spinlab":
            out_dir = work / "out" / tag
            args += ["--out", str(out_dir)]
        thunk = _cli_call(args, stdout, stderr)
    else:
        thunk = _library_call(job)
    for cache in caches.values():
        cache.cache_clear()

    result = None
    cal_before = kernel_ms()
    t0 = time.perf_counter()
    root = tracer.open(ROOT_SPAN) if tracer is not None else None
    try:
        result = thunk()
    except Exception:  # a library call that raises fails like a process with a traceback
        stderr.write(traceback.format_exc())
    if tracer is not None:
        tracer.close(root)
    t1 = time.perf_counter()
    cal_after = kernel_ms()
    if tracer is not None:
        tracer.end_job()

    if "cli" in job:
        code = result
        value = (lambda: out_dir) if out_dir is not None else (lambda: json.loads(stdout.getvalue()))
    else:
        code = 0 if result is not None else 1
        value = lambda: result  # noqa: E731
    problem = judge(job, code, value, stderr.getvalue())
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
    span_s = tracer.end[root] - tracer.start[root] if tracer is not None else None
    return {
        "kind": job["kind"],
        "valid": job["expect"] == "ok",
        "raw_s": t1 - t0,
        "span_s": span_s,
        "cal_ms": [cal_before, cal_after],
        "problem": problem,
    }


def main(argv: list[str]) -> int:
    work, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    spec = json.loads((work / "jobs.json").read_text(encoding="utf-8"))
    jobs = spec["jobs"]
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_LIMIT, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    import entroconj.cli  # noqa: F401  (loads every module of the package)

    caches = find_caches()
    result: dict = {"caches": sorted(caches)}
    if not trace:
        records, passes = run_phase(jobs, seconds, min_samples_for_tail(90), caches, work)
        result.update(records=records, passes=passes)
    else:
        records, passes = run_phase(jobs, seconds / 2, len(jobs), caches, work)
        tracer = Tracer()
        result["spans_installed"] = install(tracer)
        tracer.start_gc()
        try:
            traced, traced_passes = run_phase(jobs, seconds / 2, len(jobs), caches, work, tracer)
        finally:
            tracer.stop_gc()
        factors = [calibrate(1e3, *r["cal_ms"]) for r in traced]  # raw s -> calibrated ms
        result.update(records=records, passes=passes, traced=traced, traced_passes=traced_passes,
                      layers=tracer.summary(factors))
        tracer.write(Path(spec["spans_dir"]) / SPANS_FILE.format(workload=spec["workload"]))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
