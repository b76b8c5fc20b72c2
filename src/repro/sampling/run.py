"""Fixed sampled runs: plan, fan out region jobs, aggregate.

:func:`sample_workload_many` is the ``"fixed"`` sampling mode behind
:func:`repro.analysis.runner.run_workload` / ``run_pair`` /
``run_suite``: instead of one simulation over the whole timed span it
schedules (warmup, measure) windows (:mod:`repro.sampling.regions`),
runs each as an independent :class:`~repro.exec.jobs.SimJob` through a
:class:`~repro.exec.executor.SweepExecutor` -- the region rides inside
the job's :class:`~repro.core.config.ProcessorConfig`, so every window
has its own content-addressed job key and caches like any other
simulation -- and combines the per-window stats into whole-span
estimates (:mod:`repro.sampling.aggregate`).

The trace is captured once up front into the shared
:class:`~repro.trace.store.TraceStore` (covering the furthest region
plus the replay margin); region jobs read the same store, so none of
them records it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.config import ProcessorConfig
from ..core.simulator import SimulationResult
from ..exec.executor import SweepExecutor
from ..exec.jobs import SimJob
from ..trace.store import REPLAY_MARGIN, shared_store
from ..workloads.generator import build_program
from ..workloads.profiles import WorkloadProfile, get_profile
from .aggregate import SampledEstimate, estimate_cpi, estimate_misspec_penalty
from .regions import RegionPlan, plan_representative_regions

#: Sampled CPI must land within this relative error of the full run --
#: SimPoint's headline accuracy, and the CI gate's threshold.
CPI_ERROR_GATE = 0.03


@dataclass(frozen=True)
class SampledRun:
    """Everything one sampled workload run produced."""

    workload: str
    config: ProcessorConfig  #: base config (regions are derived from it)
    plan: RegionPlan
    results: Tuple[SimulationResult, ...]  #: one per region, plan order
    cpi: SampledEstimate
    misspec_penalty: SampledEstimate

    @property
    def simulated_records(self) -> int:
        """Timed records actually simulated (the <= 1/3 coverage gate).

        Includes each region's detailed-warmup records: they run through
        the full timing model even though their stats are discarded.
        """
        return self.plan.simulated_records

    @property
    def coverage(self) -> float:
        return self.plan.coverage


def region_jobs(workload: Union[str, WorkloadProfile],
                config: Optional[ProcessorConfig],
                plan: RegionPlan) -> List[SimJob]:
    """One replay job per scheduled region, in plan order.

    Each job's config carries the region via ``with_region``, so its
    exec job key -- and therefore its persistent cache entry -- is
    specific to (workload, config, window): re-sampling with an
    overlapping plan reuses the windows it shares.
    """
    profile = get_profile(workload) if isinstance(workload, str) else workload
    base = config or ProcessorConfig.cortex_a72_like()
    return [SimJob(profile, base.with_region(r.start, r.warmup, r.detail),
                   r.measure, 0)
            for r in plan.regions]


def acquire_span_trace(profile: WorkloadProfile, instructions: int,
                       skip: int, checkpoint_interval: Optional[int] = None):
    """Capture (or load) the trace covering one sampled span.

    Acquisition happens once, up front, before any region jobs fan out:
    the planners read the trace, and region jobs then find it in the
    same shared store -- in memory for in-process jobs, on disk for pool
    workers (the store's cross-process claim makes even a cold parallel
    start record it exactly once).  The capture covers the whole span
    plus the replay margin, so every schedulable region replays from it.
    """
    program = build_program(profile)
    return shared_store().acquire(
        program, profile.mem_seed, skip + instructions + REPLAY_MARGIN,
        **({"checkpoint_interval": checkpoint_interval}
           if checkpoint_interval is not None else {}))


def sample_workload_many(workload: Union[str, WorkloadProfile],
                         configs: "Sequence[Optional[ProcessorConfig]]",
                         executor: SweepExecutor,
                         instructions: int = 20_000,
                         skip: int = 2_000,
                         measure: Optional[int] = None,
                         warmup: Optional[int] = None,
                         detail: Optional[int] = None,
                         regions: Optional[int] = None,
                         max_fraction: Optional[float] = None,
                         checkpoint_interval: Optional[int] = None,
                         ) -> List[SampledRun]:
    """Fixed SimPoint estimates of several configs of one workload.

    The plan derives from the trace alone, so every config samples the
    *same* windows; submitting all configs' region jobs in one
    ``executor`` call lets the batched replay path (:mod:`repro.batch`)
    walk each region window once for every config sharing its warm
    class.  Returns one :class:`SampledRun` per config, in ``configs``
    order.  ``instructions``/``skip`` describe the *full* run being
    estimated; the plan simulates at most ``max_fraction`` of its timed
    records.  The ``"fixed"`` sampling mode of :mod:`repro.api` is this
    function, one call per workload.
    """
    if not configs:
        return []
    profile = get_profile(workload) if isinstance(workload, str) else workload
    plan_kwargs = {name: value for name, value in (
        ("measure", measure), ("warmup", warmup), ("detail", detail),
        ("regions", regions), ("max_fraction", max_fraction),
        ("checkpoint_interval", checkpoint_interval)) if value is not None}
    trace = acquire_span_trace(profile, instructions, skip,
                               checkpoint_interval)
    plan = plan_representative_regions(trace, instructions, skip,
                                       **plan_kwargs)
    flat = executor.run([job for config in configs
                         for job in region_jobs(profile, config, plan)])
    weights = [r.weight for r in plan.regions]
    per_config = len(plan.regions)
    runs = []
    for i, config in enumerate(configs):
        results = flat[i * per_config:(i + 1) * per_config]
        runs.append(SampledRun(
            workload=profile.name,
            config=config or ProcessorConfig.cortex_a72_like(),
            plan=plan,
            results=tuple(results),
            cpi=estimate_cpi(results, weights),
            misspec_penalty=estimate_misspec_penalty(results, weights),
        ))
    return runs


def sampled_vs_full_error(sampled: SampledRun,
                          full: SimulationResult) -> float:
    """Relative CPI error of the sampled estimate against a full run."""
    full_cpi = full.stats.cycles / full.stats.committed
    return abs(sampled.cpi.point - full_cpi) / full_cpi


__all__ = [
    "CPI_ERROR_GATE",
    "SampledRun",
    "acquire_span_trace",
    "region_jobs",
    "sample_workload_many",
    "sampled_vs_full_error",
]
