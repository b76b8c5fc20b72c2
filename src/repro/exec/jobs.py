"""Simulation jobs: the unit of work the sweep executor schedules.

A :class:`SimJob` fully describes one timing simulation -- workload profile,
machine configuration, and instruction budget.  Jobs are immutable, picklable
(so they can cross a process boundary into a worker), and content-addressed
via :func:`job_key`, which is what both the deduplicator and the persistent
cache key on.

:func:`execute_job` is the single place a job turns into a result; it is a
module-level function so :class:`concurrent.futures.ProcessPoolExecutor`
can ship it to workers.  It deliberately reproduces
:func:`repro.analysis.runner.run_workload`'s exact recipe (same program
builder, same ``mem_seed``) so a job result is bit-identical to a direct
call -- the determinism contract the parallel path is tested against.

The key hashes the *entire* ``ProcessorConfig``, so knobs that change how
a result is produced without changing its value -- ``verify_level``,
``frontend_mode`` -- still produce distinct keys: a cache hit always tells
the truth about the run's provenance.  Replay-mode jobs reach the shared
:class:`~repro.trace.store.TraceStore` through the same ``REPRO_CACHE_DIR``
root in every worker process, so the capture pass runs once per workload,
not once per worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..core.config import ProcessorConfig
from ..core.pipeline import _front_warm_config
from ..core.simulator import SimulationResult, simulate
from ..workloads.generator import build_program
from ..workloads.profiles import WorkloadProfile, get_profile
from .serialize import CACHE_SCHEMA_VERSION, fingerprint


@dataclass(frozen=True)
class SimJob:
    """One (workload, config, budget) simulation request."""

    profile: WorkloadProfile
    config: ProcessorConfig
    instructions: int
    skip: int

    @staticmethod
    def make(workload: Union[str, WorkloadProfile],
             config: Optional[ProcessorConfig],
             instructions: int, skip: int) -> "SimJob":
        """Resolve a workload name and a possibly-None config into a job."""
        profile = get_profile(workload) if isinstance(workload, str) else workload
        return SimJob(profile, config or ProcessorConfig.cortex_a72_like(),
                      instructions, skip)


def job_key(job: SimJob) -> str:
    """Content hash identifying ``job`` (includes the cache schema version)."""
    return fingerprint({
        "schema": CACHE_SCHEMA_VERSION,
        "profile": job.profile,
        "config": job.config,
        "instructions": job.instructions,
        "skip": job.skip,
    })


def execute_job(job: SimJob) -> SimulationResult:
    """Run one job to completion (in this process)."""
    program = build_program(job.profile)
    return simulate(
        program,
        job.config,
        max_instructions=job.instructions,
        skip_instructions=job.skip,
        mem_seed=job.profile.mem_seed,
    )


def batch_signature(job: SimJob) -> Optional[str]:
    """Content hash of the state a batched replay run may share, or None.

    Two jobs may ride in one batch exactly when this signature matches:
    same workload, budget and replay window, same memory configuration
    and same warmup-trained front-end slice
    (:func:`~repro.core.pipeline._front_warm_config` -- the
    warm-checkpoint equivalence class from the trace store).  Everything
    *outside* the signature only steers per-member timing state
    (priority entries, stall policy, mode switching, IQ organization,
    window sizes, verification level), which each batch member keeps
    privately.  Live-mode jobs return None: they have no shared trace
    to walk.
    """
    cfg = job.config
    if cfg.frontend_mode != "replay":
        return None
    return fingerprint({
        "batch": CACHE_SCHEMA_VERSION,
        "profile": job.profile,
        "instructions": job.instructions,
        "skip": job.skip,
        "region": cfg.replay_region,
        "memory": cfg.memory,
        "front": _front_warm_config(cfg),
    })


def execute_unit(unit) -> "List[Tuple[str, SimulationResult]]":
    """Run one planned unit of keyed jobs (module-level for pickling).

    The primitive every execution backend -- and every ``repro
    worker`` -- runs: a unit is one or more ``(job_key, SimJob)``
    entries.  Every replay unit, one job or many, walks its trace once
    through :func:`repro.batch.run_batch` (a single replay run is a
    batch of one); a live unit runs its job through :func:`execute_job`.
    """
    from ..batch import run_batch  # deferred: repro.batch builds on repro.exec
    entries = list(unit)
    if entries[0][1].config.frontend_mode != "replay":
        return [(key, execute_job(job)) for key, job in entries]
    results = run_batch([job for _, job in entries])
    return list(zip((key for key, _ in entries), results))
