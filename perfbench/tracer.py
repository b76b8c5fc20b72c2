"""Layer tracer for the benchmark's traced run.

The program has no tracing of its own yet, so this module records spans
from the outside: :meth:`Tracer.install` wraps the public entry points of
each layer (and the five stage calls under ``Pipeline.step``) by patching
the classes and module attributes in this process, and
:meth:`Tracer.uninstall` puts the originals back.  Units must execute in
this process (inline backend) for worker-side spans to be seen.

Two kinds of wrapper exist:

* *span* wrappers for coarse calls (a few thousand per table): each keeps
  a per-thread stack, so a span's self time -- its duration minus the
  spans nested in it -- is available, as in ``sampling.plan_s``;
* *hot* wrappers for per-cycle calls (``Pipeline.step`` and its stages,
  ``FunctionalExecutor.step``): one call count and one time total each,
  no stack, so the tracing cost stays close to two clock reads per call.

Spans and counters stay in memory; :meth:`Tracer.layer_metrics` folds
them into the per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: The five stage calls ``Pipeline.step`` makes, in the order it makes them.
STAGES = ("commit", "writeback", "issue", "dispatch", "fetch")

#: Accounting-law tolerances.  The stage spans must cover at least this
#: share of ``core.step_s`` net of the tracer's own cost between
#: consecutive stage spans (the rest is the cycle bookkeeping in ``step``
#: itself and the first and last stage wrapper's call cost) ...
STAGE_COVERAGE_MIN = 0.85
#: ... and per job, init + prepare + step must cover the job span (init
#: span plus run span) up to this share or this many seconds, whichever
#: is larger (the rest is the commit-loop test and stats finalisation).
JOB_UNCOVERED_MAX_SHARE = 0.05
JOB_UNCOVERED_MAX_S = 0.010


class Tracer:
    """In-memory spans and counters for one traced table."""

    def __init__(self, cache_root: "Optional[Path]" = None) -> None:
        #: The results namespace lives at the cache root; gets and puts on
        #: other namespaces (traces, warm) belong to the trace layer.
        self.cache_root = Path(cache_root) if cache_root else None
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.hot: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Nesting depth of trace-store calls: functional steps inside
        #: a capture are trace work, not the live front end.
        self.store_depth = 0
        #: Monotonic time of the current ``Pipeline.run`` entry until its
        #: first step (single compute thread; jobs run one at a time).
        self._run_entry: Optional[float] = None
        self.prepare_s = 0.0
        self.region_overhead_s = 0.0
        #: Per-job accounting: (covered seconds, job span seconds).
        self.jobs: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, duration: float, child: float) -> None:
        with self._lock:
            self.total[name] += duration
            self.own[name] += duration - child
            self.calls[name] += 1

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` as a named span that tracks nested child time."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self._record(name, duration, frame[0])
        return wrapper

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def hot_slot(self, name: str) -> List[float]:
        return self.hot.setdefault(name, [0, 0.0])

    def _hot(self, name: str, fn: Callable) -> Callable:
        slot = self.hot_slot(name)
        clock = time.perf_counter

        def wrapper(obj):
            start = clock()
            fn(obj)
            slot[1] += clock() - start
            slot[0] += 1
        return wrapper

    def _stage(self, name: str, fn: Callable, mark: List[float]
               ) -> Callable:
        """A hot wrapper for one of the stages ``Pipeline.step`` calls back
        to back: from the previous stage span's end (``mark``, 0 at the
        start of a step) to this one's start only the tracer's wrappers
        run, and that time is summed into ``core.stage_gaps``."""
        slot = self.hot_slot(name)
        gaps = self.hot_slot("core.stage_gaps")
        clock = time.perf_counter

        def wrapper(obj):
            start = clock()
            fn(obj)
            end = clock()
            slot[1] += end - start
            if mark[0]:
                gaps[1] += start - mark[0]
            mark[0] = end
        return wrapper

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` wherever a loaded ``repro`` module bound it."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer's entry points in this process."""
        import repro.api  # noqa: F401  (load every layer before patching)
        import repro.batch
        import repro.serve.client
        from repro.core.pipeline import Pipeline
        from repro.exec.backend import InlineBackend, ProcessPoolBackend
        from repro.exec.cache import ResultCache
        from repro.exec.executor import SweepExecutor
        from repro.isa.executor import FunctionalExecutor
        from repro.sampling.adaptive import AdaptiveSession
        from repro.sampling.controller import TableController
        from repro.trace.store import TraceStore
        from repro.workloads.generator import build_program

        self._install_core(Pipeline)
        self._install_isa(FunctionalExecutor)
        self._install_trace(TraceStore)
        self._patch_function(repro.batch.run_batch,
                             self._batch(repro.batch.run_batch))
        self._patch(AdaptiveSession, "__init__",
                    self.span("sampling.session_init",
                              AdaptiveSession.__init__))
        self._patch(AdaptiveSession, "measure_all",
                    self._counted("sampling.rounds", self.span(
                        "sampling.measure", AdaptiveSession.measure_all)))
        self._patch(TableController, "run",
                    self.span("sampling.controller", TableController.run))
        self._patch(SweepExecutor, "run",
                    self.span("exec.run", SweepExecutor.run))
        for backend in (InlineBackend, ProcessPoolBackend):
            self._patch(backend, "run_units",
                        self._dispatch(backend.run_units))
        self._patch(ResultCache, "get", self._cache("get", ResultCache.get))
        self._patch(ResultCache, "put", self._cache("put", ResultCache.put))
        self._patch_function(build_program,
                             self.span("workloads.build", build_program))
        self._patch(repro.serve.client, "decode_message",
                    self._decode(repro.serve.client.decode_message))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _install_core(self, pipeline_cls) -> None:
        mark = [0.0]
        for stage in STAGES:
            attr = "_" + stage
            self._patch(pipeline_cls, attr,
                        self._stage("core." + stage,
                                    getattr(pipeline_cls, attr), mark))
        step_slot = self.hot_slot("core.step")
        original_step = pipeline_cls.step
        clock = time.perf_counter

        def step(pipeline):
            start = clock()
            if self._run_entry is not None:
                self.prepare_s += start - self._run_entry
                self._run_entry = None
            mark[0] = 0.0
            original_step(pipeline)
            step_slot[1] += clock() - start
            step_slot[0] += 1
        self._patch(pipeline_cls, "step", step)

        original_init = pipeline_cls.__init__

        @functools.wraps(original_init)
        def init(pipeline, *args, **kwargs):
            start = clock()
            original_init(pipeline, *args, **kwargs)
            span = clock() - start
            pipeline._bench_init_s = span
            with self._lock:
                self.total["core.init"] += span
                self.calls["core.init"] += 1
        self._patch(pipeline_cls, "__init__", init)

        original_run = pipeline_cls.run

        @functools.wraps(original_run)
        def run(pipeline, *args, **kwargs):
            init_s = getattr(pipeline, "_bench_init_s", 0.0)
            region = pipeline.config.replay_region is not None
            steps_before = step_slot[1]
            prepare_before = self.prepare_s
            start = clock()
            self._run_entry = start
            try:
                return original_run(pipeline, *args, **kwargs)
            finally:
                self._run_entry = None
                run_s = clock() - start
                prepare = self.prepare_s - prepare_before
                covered = init_s + prepare + (step_slot[1] - steps_before)
                self.jobs.append((covered, init_s + run_s))
                if region:
                    self.region_overhead_s += init_s + prepare
        self._patch(pipeline_cls, "run", run)

        original_detail = pipeline_cls._run_detail

        def run_detail(pipeline, detail):
            start = clock()
            original_detail(pipeline, detail)
            self.region_overhead_s += clock() - start
        self._patch(pipeline_cls, "_run_detail", run_detail)

    def _install_isa(self, executor_cls) -> None:
        slot = self.hot_slot("isa.step")
        original = executor_cls.step
        clock = time.perf_counter

        def step(executor):
            if self.store_depth:
                return original(executor)
            start = clock()
            record = original(executor)
            slot[1] += clock() - start
            slot[0] += 1
            return record
        self._patch(executor_cls, "step", step)

    def _install_trace(self, store_cls) -> None:
        for attr, name in (("acquire", "trace.acquire"),
                           ("get_warm", "trace.warm"),
                           ("put_warm", "trace.warm")):
            spanned = self.span(name, getattr(store_cls, attr))

            def wrapper(*args, _inner=spanned, **kwargs):
                self.store_depth += 1
                try:
                    return _inner(*args, **kwargs)
                finally:
                    self.store_depth -= 1
            self._patch(store_cls, attr, wrapper)

    def _batch(self, fn: Callable) -> Callable:
        spanned = self.span("batch.run", fn)

        @functools.wraps(fn)
        def wrapper(jobs, *args, **kwargs):
            jobs = list(jobs)
            self._count("batch.members", len(jobs))
            return spanned(jobs, *args, **kwargs)
        return wrapper

    def _dispatch(self, fn: Callable) -> Callable:
        spanned = self.span("exec.dispatch", fn)

        @functools.wraps(fn)
        def wrapper(backend, units):
            units = list(units)
            self._count("exec.units", len(units))
            return spanned(backend, units)
        return wrapper

    def _cache(self, op: str, fn: Callable) -> Callable:
        results_span = self.span("exec.cache_" + op, fn)

        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            if self.cache_root is None or Path(cache.directory) != \
                    self.cache_root:
                return fn(cache, *args, **kwargs)
            value = results_span(cache, *args, **kwargs)
            if op == "get" and value is not None:
                self._count("exec.cache_hits")
            return value
        return wrapper

    def _decode(self, fn: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(line):
            start = clock()
            kind, payload = fn(line)
            duration = clock() - start
            with self._lock:
                self.total["serve.decode"] += duration
                if kind == "cell":
                    self.counts["serve.cell_bytes"] += len(line)
                    self.counts["serve.cells"] += 1
            return kind, payload
        return wrapper

    # ------------------------------------------------------------------
    # Folding spans into layer metrics
    # ------------------------------------------------------------------

    def stage_coverage(self) -> float:
        """Stage spans over step time net of the tracer's inter-stage
        cost.  Without the netting, the five wrappers' own cost (about
        0.4 us each on a 2 GHz Xeon) would sink the share on programs
        whose cycles are short, such as stall-bound mcf."""
        step = (self.hot_slot("core.step")[1]
                - self.hot_slot("core.stage_gaps")[1])
        if step <= 0:
            return 1.0
        return sum(self.hot_slot("core." + s)[1] for s in STAGES) / step

    def job_coverage_min(self) -> float:
        return min((covered / span for covered, span in self.jobs if span),
                   default=1.0)

    def law_violations(self) -> List[str]:
        """Accounting-law breaches, each as one line of text."""
        problems = []
        coverage = self.stage_coverage()
        if coverage < STAGE_COVERAGE_MIN:
            problems.append(
                f"stage spans cover {coverage:.3f} of core.step_s "
                f"(< {STAGE_COVERAGE_MIN})")
        if coverage > 1.0 + 1e-9:
            problems.append(f"stage spans exceed core.step_s ({coverage:.4f})")
        for index, (covered, span) in enumerate(self.jobs):
            gap = span - covered
            allowed = max(JOB_UNCOVERED_MAX_SHARE * span, JOB_UNCOVERED_MAX_S)
            if gap > allowed or gap < -1e-6:
                problems.append(
                    f"job {index}: init+prepare+step cover {covered:.4f} s "
                    f"of a {span:.4f} s job span")
        return problems

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics (without the store and cache-size counters)."""
        cycles, step_s = self.hot_slot("core.step")
        isa_steps, isa_s = self.hot_slot("isa.step")
        gets = self.calls["exec.cache_get"]
        walks = self.calls["batch.run"]
        decoded = self.counts["serve.cells"]
        metrics = {
            "core.cycles": cycles,
            "core.step_s": step_s,
            "core.ns_per_cycle": step_s / cycles * 1e9 if cycles else 0.0,
            "core.pipelines": self.calls["core.init"],
            "core.init_s": self.total["core.init"],
            "core.prepare_s": self.prepare_s,
            "core.stage_coverage": self.stage_coverage(),
            "core.job_coverage_min": self.job_coverage_min(),
            "isa.steps": isa_steps,
            "isa.step_s": isa_s,
            "trace.acquire_s": self.total["trace.acquire"],
            "batch.walks": walks,
            "batch.members_per_walk":
                self.counts["batch.members"] / walks if walks else 0.0,
            "batch.run_s": self.total["batch.run"],
            "sampling.plan_s": self.own["sampling.controller"]
            + self.own["sampling.session_init"],
            "sampling.rounds": self.counts["sampling.rounds"],
            "sampling.region_overhead_s": self.region_overhead_s,
            "exec.units": self.counts["exec.units"],
            "exec.plan_s": self.own["exec.run"],
            "exec.dispatch_s": self.total["exec.dispatch"],
            "exec.cache_get_s": self.total["exec.cache_get"],
            "exec.cache_put_s": self.total["exec.cache_put"],
            "exec.cache_hit_ratio":
                self.counts["exec.cache_hits"] / gets if gets else 0.0,
            "serve.bytes_per_cell":
                self.counts["serve.cell_bytes"] / decoded if decoded else 0.0,
            "serve.decode_s": self.total["serve.decode"],
            "workloads.build_s": self.total["workloads.build"],
        }
        for stage in STAGES:
            metrics[f"core.{stage}_s"] = self.hot_slot("core." + stage)[1]
        return metrics
