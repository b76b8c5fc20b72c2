"""Parallel sweep executor: dedup, cache, batch, dispatch, reassemble.

Every evaluation in the repo reduces to a batch of independent,
deterministic (workload, config, budget) simulations.
:class:`SweepExecutor` is the *planner* for such a batch:

1. **deduplicates** it by content hash -- both within one call and across
   calls of the same executor (one suite submission), so a result requested
   by several figures (the Fig. 9 scatter reuses every Fig. 8 run) or by
   several sampled cells is simulated once even on a cold cache;
2. serves what it can from the **persistent result cache**
   (:mod:`repro.exec.cache`);
3. **groups** the remaining replay-mode misses by
   :func:`~repro.exec.jobs.batch_signature` into units of up to
   :data:`DEFAULT_BATCH_LIMIT` members (see :mod:`repro.batch`), so N
   same-window configs walk their trace once instead of N times;
4. hands the resulting units to an :class:`~repro.exec.backend.
   ExecutionBackend` -- inline, a local process pool sized by ``--jobs`` /
   ``REPRO_JOBS``, or the shared job queue that ``repro worker``
   processes drain (``--backend`` / ``REPRO_BACKEND``);
5. returns results in request order, so callers are oblivious to
   scheduling *and* to which backend (or which host) simulated what.

Because each simulation is deterministic (seeded generators, fixed dynamic
stream) and batch members keep private microarchitectural state, a parallel,
cached, batched or queued run is *identical* to a serial fresh one -- the
property the backend-conformance suite pins down.  Every batch member keeps
its own job key, so warm-cache behavior is unchanged: cached members are
served before grouping and never re-simulated.

The default backend is the process pool, whose "a batch of one, or
``jobs=1``, runs inline in this process" rule keeps small calls like
``run_pair`` free of pool and pickling overhead.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.simulator import SimulationResult
from .backend import ExecutionBackend, ProcessPoolBackend, create_backend
from .cache import ResultCache, cache_enabled_by_env
from .jobs import SimJob, batch_signature, job_key

#: Default cap on members per batched replay unit.  Large enough to cover
#: a Fig. 10-style sweep in one walk, small enough that one unit does not
#: serialize a whole many-config sweep behind a single worker.
DEFAULT_BATCH_LIMIT = 16


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set and positive, else the CPUs
    *this process may actually use*.

    Containers and shared queue hosts routinely pin processes to a CPU
    subset (and some report ``os.cpu_count() is None``), so the
    affinity mask -- when the platform exposes one -- is the honest
    parallelism bound: trusting the raw CPU count oversubscribes every
    worker on the host.  Falls back to ``os.cpu_count()``, then 1.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            value = int(env)
            if value > 0:
                return value
        except ValueError:
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux, or query refused
        return os.cpu_count() or 1


_Entry = Tuple[str, SimJob]


class SweepExecutor:
    """Batch planner: dedup + cache + batching over a pluggable backend."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: "Optional[ResultCache | bool]" = None,
                 backend: "Optional[ExecutionBackend | str]" = None):
        """``jobs``: worker count (None -> :func:`default_jobs`).

        ``cache``: a :class:`ResultCache` to use, ``False`` to disable
        caching, or None to follow the environment policy (enabled unless
        ``REPRO_CACHE=0``, directory from ``REPRO_CACHE_DIR``).

        ``backend``: where planned units execute -- an
        :class:`ExecutionBackend` instance, a registered spec name
        (``"inline"`` / ``"process"`` / ``"queue"``), or None to follow
        ``REPRO_BACKEND`` (default: the local process pool, which
        preserves the classic executor behavior bit for bit).
        """
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        else:
            self.backend = create_backend(backend, jobs=self.jobs)
        if cache is None:
            self.cache: Optional[ResultCache] = (
                ResultCache() if cache_enabled_by_env() else None)
        elif cache is False:
            self.cache = None
        elif cache is True:
            self.cache = ResultCache()
        else:
            self.cache = cache
        #: Simulations actually executed (cache misses after dedup).
        self.simulations_run = 0
        #: Requests answered by deduplication (same key in one call, or
        #: already produced by an earlier call of this executor).
        self.deduplicated = 0
        #: Batched replay units executed, and the jobs they covered.
        self.batches_run = 0
        self.batched_jobs = 0
        #: Results produced by this executor, keyed by job key: the
        #: within-submission dedup memo.  Two cells that hash identically
        #: simulate once even with the persistent cache cold or disabled.
        self._produced: Dict[str, SimulationResult] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _plan_units(self, misses: List[_Entry]) -> List[List[_Entry]]:
        """Group cache misses into execution units, request order kept.

        Replay jobs sharing a :func:`batch_signature` form one unit (up
        to :data:`DEFAULT_BATCH_LIMIT` members; larger groups split);
        live-mode jobs stay individual units.
        """
        sequence: List[List[_Entry]] = []
        buckets: Dict[str, List[_Entry]] = {}
        for entry in misses:
            signature = batch_signature(entry[1])
            if signature is None:
                sequence.append([entry])
                continue
            bucket = buckets.get(signature)
            if bucket is None:
                bucket = buckets[signature] = [entry]
                sequence.append(bucket)
            else:
                bucket.append(entry)
        units: List[List[_Entry]] = []
        for bucket in sequence:
            for i in range(0, len(bucket), DEFAULT_BATCH_LIMIT):
                units.append(bucket[i:i + DEFAULT_BATCH_LIMIT])
        return units

    def run(self, batch: Sequence[SimJob]) -> List[SimulationResult]:
        """Run every job in ``batch``; results in request order."""
        keys = [job_key(job) for job in batch]
        unique: Dict[str, SimJob] = {}
        for key, job in zip(keys, batch):
            unique.setdefault(key, job)
        self.deduplicated += len(batch) - len(unique)

        results: Dict[str, SimulationResult] = {}
        misses: List[_Entry] = []
        for key, job in unique.items():
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[key] = cached
                continue
            produced = self._produced.get(key)
            if produced is not None:
                results[key] = produced
                self.deduplicated += 1
                continue
            misses.append((key, job))

        if misses:
            self.simulations_run += len(misses)
            units = self._plan_units(misses)
            for unit in units:
                if len(unit) > 1:
                    self.batches_run += 1
                    self.batched_jobs += len(unit)
            produced_units = self.backend.run_units(units)
            for unit_results in produced_units:
                for key, result in unit_results:
                    results[key] = result
                    self._produced[key] = result
                    if self.cache is not None:
                        self.cache.put(key, result)

        return [results[key] for key in keys]

    def run_one(self, job: SimJob) -> SimulationResult:
        """Run a single job (inline; still deduped against the cache)."""
        return self.run([job])[0]

    def close(self) -> None:
        """Release the backend's held resources (pools, connections)."""
        self.backend.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> str:
        parts = [f"jobs={self.jobs}",
                 f"simulations={self.simulations_run}",
                 f"deduplicated={self.deduplicated}"]
        if not isinstance(self.backend, ProcessPoolBackend):
            # The classic local pool stays implicit; anything else is
            # worth a word in the spend line.
            parts.insert(1, f"backend={self.backend.describe()}")
        parts.append(f"batched={self.batched_jobs}"
                     f"(in {self.batches_run} batches)")
        if self.cache is not None:
            parts.append(self.cache.stats.summary())
        else:
            parts.append("cache=off")
        return " ".join(parts)
