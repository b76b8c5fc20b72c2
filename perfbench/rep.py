"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Usage (``run.py`` builds this command line; it is not meant for hand use)::

    python3 perfbench/rep.py --workload W --seed N --rep R --mode MODE \
        --t0 MONOTONIC --out RESULT.json [--reference FILE] [--fixture DIR]

``MODE`` is ``pooled`` (the untraced, timed run: ``nproc``-capped pool
workers or a ``repro serve`` process), ``inline`` (untraced, units in
this process: the base of the tracing-overhead ratio), ``traced``
(inline with the layer tracer installed) or ``fixture`` (fill the cache
with ``serve-mixed``'s pre-filled cells).  Without ``--reference`` the
digests are recorded but not checked (how ``reference.json`` is made).

The repetition first checks that it is hermetic: no ``REPRO_*`` variable
but the cache directory it was given, and a cache whose ``traces/`` and
``warm/`` namespaces are empty and whose results namespace holds nothing
but the ``serve-mixed`` fixture.  Set-up time runs from ``--t0`` (taken by
the parent just before it started this interpreter) to ready-to-submit;
the table is timed from submit to the last checked cell.  The result is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import tables

MODES = ("pooled", "inline", "traced", "fixture")
SERVE_HOST = "127.0.0.1"
#: How long the ``repro serve`` process may take to bind or to stop.
SERVE_START_TIMEOUT = 60.0
SERVE_STOP_TIMEOUT = 30.0


def pool_width() -> int:
    """Pool workers / client connections: at most two, at most nproc."""
    from repro.exec import default_jobs  # REPRO_JOBS is scrubbed: nproc
    return min(2, default_jobs())


# ----------------------------------------------------------------------
# Hermetic check
# ----------------------------------------------------------------------

def hermetic_problems(cache_dir: Path,
                      fixture: "Optional[Path]" = None) -> List[str]:
    """Why this repetition would not start from the stated cache state."""
    problems = []
    leaked = sorted(k for k in os.environ
                    if k.startswith("REPRO_") and k != "REPRO_CACHE_DIR")
    if leaked:
        problems.append("REPRO_* variables leaked into the run: "
                        + ", ".join(leaked))
    if os.environ.get("REPRO_CACHE_DIR") != str(cache_dir):
        problems.append("REPRO_CACHE_DIR does not name the run's cache")
    for namespace in ("traces", "warm"):
        directory = cache_dir / namespace
        if directory.exists() and any(directory.iterdir()):
            problems.append(f"cache namespace {namespace}/ is not empty")
    entries = {p.name for p in cache_dir.glob("*.pkl")}
    allowed = {p.name for p in fixture.glob("*.pkl")} if fixture else set()
    if entries != allowed:
        problems.append(
            f"results namespace holds {len(entries)} entries, "
            f"expected {len(allowed)} (the pre-filled fixture)"
            if allowed else
            f"results namespace holds {len(entries)} entries, expected 0")
    return problems


# ----------------------------------------------------------------------
# Serve helpers
# ----------------------------------------------------------------------

class ServeProcess:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, jobs: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", SERVE_HOST,
             "--port", "0", "--jobs", str(jobs)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port = self._await_port()
        # Keep draining stderr so the server can never block on it.
        self._drain = threading.Thread(target=self.proc.stderr.read,
                                       daemon=True)
        self._drain.start()

    def _await_port(self) -> int:
        deadline = time.monotonic() + SERVE_START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            marker = f"listening on {SERVE_HOST}:"
            if marker in line:
                return int(line.split(marker, 1)[1].split()[0])
        self.stop()
        raise RuntimeError("repro serve did not report a listening port")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVE_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stderr is not None:
            self.proc.stderr.close()


class InProcessServe:
    """A ``SweepServer`` on its own event-loop thread (traced runs)."""

    def __init__(self) -> None:
        from repro.exec.backend import InlineBackend
        from repro.serve import SweepServer
        self.server = SweepServer(backend=InlineBackend(), jobs=1)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.port = 0
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(SERVE_START_TIMEOUT) or self._error:
            raise RuntimeError(f"in-process serve did not start: "
                               f"{self._error!r}")

    def _main(self) -> None:
        async def serve() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            listener = await self.server.start(SERVE_HOST, 0)
            self.port = listener.sockets[0].getsockname()[1]
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                listener.close()
                await listener.wait_closed()
                self.server.close()
        try:
            asyncio.run(serve())
        except BaseException as exc:  # noqa: BLE001 -- reported by start
            self._error = exc
            self._ready.set()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(SERVE_STOP_TIMEOUT)


# ----------------------------------------------------------------------
# The table, per workload
# ----------------------------------------------------------------------

class Outcome:
    """What one timed table produced, and what its check found."""

    def __init__(self) -> None:
        self.digests: Dict[str, str] = {}
        self.cycles: Dict[str, int] = {}
        self.attempted = 0
        self.mismatched: List[str] = []
        self.first_cell: Optional[float] = None
        self.table = None
        self.serve_counters: Dict[str, int] = {}

    def check(self, cid: str, cell, reference: "Optional[Dict[str, str]]"
              ) -> None:
        digest = tables.cell_digest(cell)
        self.attempted += 1
        if cid in self.digests and self.digests[cid] != digest:
            self.mismatched.append(cid)  # one cell, two different answers
        self.digests[cid] = digest
        self.cycles[cid] = tables.cell_cycles(cell)
        if reference is not None and reference.get(cid) != digest:
            self.mismatched.append(cid)
        if self.first_cell is None:
            self.first_cell = time.monotonic()


def run_api_table(table: tables.Table, configs, request, executor,
                  reference, outcome: Outcome) -> None:
    from repro.api import run_suite
    ordered = {name: configs[name] for name in table.configs}
    result = run_suite(ordered, list(table.programs), request=request,
                       executor=executor)
    for config in table.configs:
        for program in table.programs:
            outcome.check(tables.cell_id(config, program),
                          result[config][program], reference)
    outcome.table = result


def run_serve_table(table: tables.Table, configs, request, port: int,
                    reference, outcome: Outcome) -> None:
    from repro.serve.client import fetch_status_async, submit_sweep_async
    ordered = {name: configs[name] for name in table.configs}
    resolved = request.resolved()

    def on_cell(cell) -> None:
        outcome.check(tables.cell_id(cell["config"], cell["workload"]),
                      cell["result"], reference)

    async def client(sweeps) -> None:
        # Closed loop: the next sweep goes out when the last one is done.
        for programs in sweeps:
            await submit_sweep_async(SERVE_HOST, port, resolved, ordered,
                                     list(programs), on_cell=on_cell)

    async def drive() -> None:
        await asyncio.gather(*(client(sweeps) for sweeps in table.sweeps))
        status = await fetch_status_async(SERVE_HOST, port)
        outcome.serve_counters = {
            key: status[key] for key in ("simulated", "cache_hits",
                                         "dedup_hits", "cells_served")}
    asyncio.run(drive())


def fidelity(workload: str, table) -> Dict[str, object]:
    """The simulated headline numbers next to the paper's."""
    if table is None:
        return {}
    if workload == "suite-live":
        from repro.analysis import geometric_mean
        ratios = [table["pubs"][p].ipc / table["base"][p].ipc
                  for p in tables.DBP]
        return {"dbp_gm_speedup_percent":
                (geometric_mean(ratios) - 1.0) * 100.0,
                "paper_dbp_gm_percent": tables.PAPER_DBP_GM_PERCENT}
    if workload == "table-adaptive":
        from repro.api import PairedRun
        pairs = {}
        for program in tables.ADAPTIVE_PROGRAMS:
            pair = PairedRun(program, table["base"][program],
                             table["pubs"][program])
            low, high = pair.speedup_ci95
            pairs[program] = {"speedup": pair.speedup, "ci95": [low, high],
                              "ci_method": pair.ci_method}
        return {"paired_speedups": pairs}
    return {}


def sampling_metrics(workload: str, table) -> Dict[str, float]:
    """``sampling.*`` counts read off the adaptive table's cells."""
    zero = {"sampling.regions": 0, "sampling.records": 0,
            "sampling.ci_met_frac": 0.0}
    if workload != "table-adaptive" or table is None:
        return zero
    cells = [cell for row in table.values() for cell in row.values()]
    met = [table["base"][p].sampled.converged
           for p in tables.ADAPTIVE_PROGRAMS]
    return {
        "sampling.regions": sum(len(c.sampled.plan.regions) for c in cells),
        "sampling.records": sum(c.simulated_records for c in cells),
        "sampling.ci_met_frac": sum(met) / len(met),
    }


def peak_rss_mb() -> float:
    """Largest RSS of this process and its (waited-for) descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def build_fixture(cache_dir: Path) -> None:
    """Simulate ``serve-mixed``'s pre-filled cells into the cache."""
    from repro.api import SweepExecutor, run_suite
    executor = SweepExecutor(jobs=pool_width())
    try:
        run_suite(tables.config_set("serve-mixed"),
                  list(tables.SERVE_PREFILLED),
                  request=tables.request_for("serve-mixed"),
                  executor=executor)
    finally:
        executor.close()


def run_rep(workload: str, seed: int, rep: int, mode: str, t0: float,
            cache_dir: Path, reference: "Optional[Dict[str, str]]",
            fixture: "Optional[Path]" = None) -> Dict[str, object]:
    """Set up, time one table, check it; return the repetition's record."""
    problems = hermetic_problems(cache_dir, fixture)
    if problems:
        raise RuntimeError("not hermetic: " + "; ".join(problems))
    import repro.api  # noqa: F401  (the set-up cost being measured)
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer(cache_dir).install()
    try:
        return _run_rep(workload, seed, rep, mode, t0, cache_dir, reference,
                        tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _run_rep(workload, seed, rep, mode, t0, cache_dir, reference, tracer):
    from repro.api import SweepExecutor
    from repro.workloads import build_program, get_profile
    jobs = pool_width() if mode == "pooled" else 1
    table = tables.table_for(workload, seed, rep)
    for program in tables.programs_of(workload):
        build_program(get_profile(program))
    configs = tables.config_set(workload)
    request = tables.request_for(workload)
    server = executor = None
    if workload == "serve-mixed":
        server = ServeProcess(jobs) if mode == "pooled" else InProcessServe()
    else:
        executor = SweepExecutor(
            jobs=jobs, backend=None if mode == "pooled" else "inline")
    ready = time.monotonic()
    outcome = Outcome()
    try:
        submit = time.monotonic()
        if server is not None:
            run_serve_table(table, configs, request, server.port, reference,
                            outcome)
        else:
            run_api_table(table, configs, request, executor, reference,
                          outcome)
        done = time.monotonic()
    finally:
        if server is not None:
            server.stop()
        if executor is not None:
            executor.close()
    expected = tables.all_cells(workload)
    missing = [cid for cid in expected if cid not in outcome.digests]
    record: Dict[str, object] = {
        "workload": workload, "seed": seed, "rep": rep, "mode": mode,
        "jobs": jobs,
        "cache_state": ("prefilled:%d" % len(tables.prefilled_cells())
                        if workload == "serve-mixed" else "cold"),
        "setup_s": ready - t0,
        "table_s": done - submit,
        "ttfc_s": (outcome.first_cell or done) - submit,
        "cells_attempted": outcome.attempted + len(missing),
        "cells_failed": len(set(outcome.mismatched)) + len(missing),
        "mismatched": sorted(set(outcome.mismatched) | set(missing)),
        "digests": outcome.digests,
        "timed_cycles": sum(outcome.cycles.values()),
        "serve": outcome.serve_counters,
        "fidelity": fidelity(workload, outcome.table),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, workload, outcome,
                                         cache_dir, executor)
        record["law_violations"] = tracer.law_violations()
    return record


def layer_metrics(tracer, workload: str, outcome: Outcome, cache_dir: Path,
                  executor) -> Dict[str, float]:
    from repro.exec.cache import ResultCache
    from repro.trace.store import shared_store
    metrics = tracer.layer_metrics()
    store = shared_store()
    restores, trainings = store.warm_restores, store.warm_trainings
    metrics.update({
        "trace.captures": store.captures,
        "trace.bytes": ResultCache.for_namespace("traces",
                                                 cache_dir).size_bytes(),
        "trace.warm_restores": restores,
        "trace.warm_trainings": trainings,
        "trace.warm_hit_ratio": (restores / (restores + trainings)
                                 if restores + trainings else 0.0),
        "exec.dedup": executor.deduplicated if executor is not None else 0,
        "exec.result_bytes": ResultCache(cache_dir).size_bytes(),
        "serve.simulated": outcome.serve_counters.get("simulated", 0),
        "serve.cache_hits": outcome.serve_counters.get("cache_hits", 0),
        "serve.dedup_hits": outcome.serve_counters.get("dedup_hits", 0),
    })
    metrics.update(sampling_metrics(workload, outcome.table))
    return metrics


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tables.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--mode", choices=MODES, default="pooled")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reference", type=Path, default=None)
    parser.add_argument("--fixture", type=Path, default=None)
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    cache_dir = Path(os.environ.get("REPRO_CACHE_DIR", ""))
    if not cache_dir.is_absolute():
        print("rep: REPRO_CACHE_DIR must name an absolute directory",
              file=sys.stderr)
        return 2
    if args.mode == "fixture":
        build_fixture(cache_dir)
        args.out.write_text("{}")
        return 0
    reference = None
    if args.reference is not None:
        data = json.loads(args.reference.read_text())
        reference = data["workloads"][args.workload]["cells"]
    record = run_rep(args.workload, args.seed, args.rep, args.mode, t0,
                     cache_dir, reference, args.fixture)
    args.out.write_text(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
