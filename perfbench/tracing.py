"""Span recorder installed from outside the package for the traced run.

``install`` wraps every public function of each ``entroconj`` module and the
public methods of ``JointDistribution``, also where another module holds the
same function under its own name (``cli`` imports ``enumerate_atoms``,
``classify`` as ``classify_vector``, ...).  Each call records a span (name,
start, end, parent) in memory; garbage collections inside a job record a
``python.gc`` span through ``gc.callbacks``.  Counters are kept at the same
boundaries.  Nothing in the package is edited: this is only the traced run's
view of it.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans under a job's root add up to the job's time.
"""

from __future__ import annotations

import gc
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "harness.job"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._gc_span: int | None = None
        self.counters: dict[str, float] = defaultdict(float)
        self._marginals: dict[int, list] = {}

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and self._stack:
            self.counters["python.gc_collections"] += 1
            self._gc_span = self.open("python.gc")
        elif phase == "stop" and self._gc_span is not None:
            self.close(self._gc_span)
            self._gc_span = None

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count_calls(self, fn, counter: str, amount):
        """Wrap ``fn`` to add ``amount(args)`` to a counter, without a span."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[counter] += amount(args)
            return result

        return counted

    # -- marginals demanded per distribution, folded in at job end ----------

    def demand(self, dist, masks) -> None:
        entry = self._marginals.setdefault(id(dist), [dist, set()])
        if entry[1] is not None:
            if masks is None:
                entry[1] = None
            else:
                entry[1].update(m for m in masks if m)

    def end_job(self) -> None:
        for dist, masks in self._marginals.values():
            self.counters["distributions.marginals_demanded"] += (
                (1 << dist.n) - 1 if masks is None else len(masks)
            )
        self._marginals.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self, job_factors: list[float]) -> dict[str, float]:
        """Per-job means of calibrated layer self times, function times and calls.

        ``job_factors[j]`` scales raw seconds of job j to calibrated ms.  A
        function's time counts only its outermost span, so recursion is not
        counted twice.
        """
        nspans = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(nspans)]
        covered = [0.0] * nspans
        for i in range(nspans):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        totals: dict[str, float] = defaultdict(float)
        job = -1
        factor = 0.0
        root_ms = 0.0
        for i in range(nspans):
            if self.parent[i] < 0:  # spans open only inside a job's root span
                job += 1
                factor = job_factors[job]
                root_ms += duration[i] * factor
            name = self.names[self.span_name[i]]
            layer = name.split(".", 1)[0]
            totals[f"{layer}.self_ms"] += (duration[i] - covered[i]) * factor
            totals[f"{name}.calls"] += 1
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != self.span_name[i]:
                p = self.parent[p]
            if p < 0:
                totals[f"{name}.ms"] += duration[i] * factor
        if job + 1 != len(job_factors):
            raise ValueError(f"{job + 1} job spans for {len(job_factors)} jobs")
        totals["trace.job_ms"] = root_ms
        totals["python.gc_ms"] = totals.get("python.self_ms", 0.0)
        for name, value in self.counters.items():
            totals[name] += value
        jobs = len(job_factors)
        return {name: value / jobs for name, value in sorted(totals.items())}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds), gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "name": self.names[self.span_name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                }) + "\n")


def package_modules() -> list:
    """The imported modules of the ``entroconj`` package, in name order."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "entroconj" or name.startswith("entroconj."))
    ]


def install(tracer: Tracer) -> list[str]:
    """Wrap the package's public functions and ``JointDistribution`` methods.

    Returns the span names installed.  Call after the package is imported.
    """
    from entroconj import cli
    from entroconj.algebra import EntropyExpression
    from entroconj.distributions import JointDistribution
    from entroconj.pid import MonotoneBooleanFunction

    def terms_out(args, result):
        items = result if isinstance(result, tuple) else (result,)
        tracer.counters["algebra.terms_out"] += sum(
            len(x) for x in items if isinstance(x, EntropyExpression)
        )

    def bytes_written(args, paths):
        tracer.counters["spins.bytes_written"] += sum(Path(p).stat().st_size for p in paths.values())

    def cmi_masks(args, result):
        dist, *sets = args
        ma, mb, mc = (sum(1 << (i - 1) for i in s) for s in (list(sets) + [()])[:3])
        tracer.demand(dist, (ma | mc, mb | mc, ma | mb | mc, mc))

    after = {
        "distributions.evaluate": lambda args, result: tracer.demand(args[0], args[1].terms.keys()),
        "distributions.u_values": lambda args, result: tracer.demand(args[0], None),
        "distributions.subset_entropy": lambda args, result: tracer.demand(
            args[0], (sum(1 << (i - 1) for i in args[1]),)
        ),
        "distributions.conditional_mutual_information": cmi_masks,
        "spins.emit_results": bytes_written,
    }

    modules = package_modules()
    wrappers: dict[int, tuple[object, object]] = {}
    installed = []
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            hook = after.get(name, terms_out if layer == "algebra" else None)
            wrappers[id(fn)] = (fn, tracer.wrap(fn, name, hook))
            installed.append(name)
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])

    for attr, value in list(vars(JointDistribution).items()):
        if attr.startswith("_") or isinstance(value, property):
            continue
        name = f"distributions.{attr}"
        if isinstance(value, classmethod):
            setattr(JointDistribution, attr, classmethod(tracer.wrap(value.__func__, name, after.get(name))))
        elif callable(value):
            setattr(JointDistribution, attr, tracer.wrap(value, name, after.get(name)))
        else:
            continue
        installed.append(name)

    cli.main = tracer.wrap(cli.main, "cli.main")  # the click group: one span per command run
    installed.append("cli.main")

    JointDistribution.__init__ = tracer.count_calls(
        JointDistribution.__init__, "distributions.dense_cells", lambda args: args[0].pmf.size
    )
    MonotoneBooleanFunction.__post_init__ = tracer.count_calls(
        MonotoneBooleanFunction.__post_init__, "pid.atoms_constructed", lambda args: 1
    )
    return sorted(installed)
