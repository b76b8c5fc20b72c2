"""High-level experiment runner: workload name + config -> result.

This is the layer examples and benchmarks call: it builds the synthetic
program for a named profile, runs the timing simulation, and (for paired
experiments) keeps the functional memory seed identical across machine
configurations so base and variant execute the *same* dynamic instruction
stream.

Every entry point routes through :class:`repro.exec.SweepExecutor`, so all
callers get job deduplication, the persistent on-disk result cache, and --
for batched calls like :func:`run_suite` -- parallel fan-out across worker
processes.  Determinism is unaffected: a cached or parallel run returns
stats identical to a fresh serial run (seeded generators, independent jobs).

**Sampling modes.**  Every entry point accepts a ``sampling`` mode (or a
whole :class:`~repro.core.config.RunRequest`): ``"off"`` (default)
simulates the entire timed span as before; ``"fixed"`` estimates it from
a fixed SimPoint representative set; ``"adaptive"`` escalates
representatives until the CI target (:mod:`repro.sampling.adaptive`).
Sampled cells come back as :class:`WorkloadRun` estimates with CI
annotations; when a workload cannot be trace-sampled the cell falls back
to a full simulation and says so in
:attr:`WorkloadRun.fallback_reason` -- never silently.

**Instruction budgets (single source of truth).**  Two budget pairs exist,
both defined here and nowhere else:

* ``DEFAULT_INSTRUCTIONS`` / ``DEFAULT_SKIP`` (20000 / 2000) -- the library
  defaults for ad-hoc ``run_workload`` / ``run_pair`` / ``run_suite`` calls
  and the examples: a quick, representative run.
* ``BENCH_INSTRUCTIONS`` / ``BENCH_SKIP`` (8000 / 16000, overridable via
  ``REPRO_BENCH_INSTRUCTIONS`` / ``REPRO_BENCH_SKIP``) -- the benchmark
  harness budget used by everything under ``benchmarks/``: a shorter timed
  sample after a *longer* warm-up, so the reduced-scale figure
  reproductions start from a representative microarchitectural state.
  The environment overrides affect the bench harness only.

(Historically the two pairs lived in different modules, both read the same
environment variables with different fallbacks, and the bench docstring
disagreed with both -- reconciled here.)
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple

from ..core.config import ProcessorConfig, RunRequest
from ..core.simulator import SimulationResult, simulate
from ..exec import SimJob, SweepExecutor
from ..trace.format import TraceFormatError
from ..workloads.generator import build_program
from ..workloads.profiles import WorkloadProfile, get_profile, spec2006_profiles

if TYPE_CHECKING:  # repro.sampling imports this package; avoid the cycle
    from ..sampling.run import SampledRun

#: Library-default budgets for ad-hoc runs and the examples.
DEFAULT_INSTRUCTIONS = 20_000
DEFAULT_SKIP = 2_000

#: Benchmark-harness budgets (the ``benchmarks/`` suite); override via the
#: environment for longer, smoother runs.
BENCH_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "8000"))
BENCH_SKIP = int(os.environ.get("REPRO_BENCH_SKIP", "16000"))

_EXECUTOR: Optional[SweepExecutor] = None


def shared_executor() -> SweepExecutor:
    """The module-wide executor (lazy; shares one cache across callers)."""
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = SweepExecutor()
    return _EXECUTOR


def _executor_for(jobs: Optional[int], cache: "Optional[bool]",
                  backend: Optional[str] = None):
    """Pick the shared executor or build a specialised one.

    A ``backend`` spec always builds a dedicated executor: the shared
    one fronts the default (env-selected) backend, and mixing dispatch
    targets behind one dedup memo would misattribute its accounting.
    With ``cache`` unset the specialised executor shares the shared
    one's result cache -- even while that cache is still empty.
    """
    if jobs is None and cache is None and backend is None:
        return shared_executor()
    if cache is None:
        shared_cache = shared_executor().cache
        cache = False if shared_cache is None else shared_cache
    return SweepExecutor(jobs=jobs, cache=cache, backend=backend)


def _resolve_config(config: Optional[ProcessorConfig],
                    frontend: Optional[str]) -> Optional[ProcessorConfig]:
    """Fold the selected frontend mode into ``config``.

    ``frontend`` wins when given; otherwise the ``REPRO_FRONTEND``
    environment variable applies (read per call, so tests and benches can
    flip it); otherwise the config passes through untouched.  An unknown
    mode fails ``ProcessorConfig`` validation, not silently.
    """
    mode = frontend if frontend is not None \
        else os.environ.get("REPRO_FRONTEND")
    if not mode:
        return config
    cfg = config if config is not None else ProcessorConfig.cortex_a72_like()
    if cfg.frontend_mode == mode:
        return cfg
    return cfg.with_frontend(mode)


def _merge_request(request: Optional[RunRequest], **explicit) -> RunRequest:
    """Fold explicit keyword values over ``request`` and resolve the env.

    The single precedence point for every entry point: explicit keyword
    > request field > environment > library default (the defaults are
    applied by the consumers, via :func:`_budget`).
    """
    return (request if request is not None
            else RunRequest()).with_overrides(**explicit).resolved()


def _budget(req: RunRequest) -> Tuple[int, int]:
    """The request's (instructions, skip), library defaults filled in."""
    return (DEFAULT_INSTRUCTIONS if req.instructions is None
            else req.instructions,
            DEFAULT_SKIP if req.skip is None else req.skip)


@dataclass
class WorkloadRun:
    """One experiment cell: a full simulation or a sampled estimate.

    Exactly one of ``full``/``sampled`` is set.  ``fallback_reason``
    records why a sampling request fell back to a full simulation (the
    trace could not be captured or parsed); it is never set on a
    deliberate ``sampling="off"`` run.
    """

    workload: str
    full: Optional[SimulationResult] = None
    sampled: "Optional[SampledRun]" = None
    fallback_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.full is None) == (self.sampled is None):
            raise ValueError("exactly one of full/sampled must be set")

    @property
    def is_sampled(self) -> bool:
        return self.sampled is not None

    @property
    def stats(self):
        """The full run's :class:`~repro.core.stats.SimStats`.

        A sampled cell has whole-span *estimates*, not counters; asking
        it for stats is a bug, so this raises instead of guessing.
        """
        if self.full is None:
            raise AttributeError(
                "sampled cell carries estimates, not SimStats -- "
                "use .cpi/.ipc/.cpi_ci95")
        return self.full.stats

    @property
    def cpi(self) -> float:
        if self.sampled is not None:
            return self.sampled.cpi.point
        return 1.0 / self.full.stats.ipc

    @property
    def ipc(self) -> float:
        return 1.0 / self.cpi

    @property
    def cpi_ci95(self) -> Tuple[float, float]:
        """~95% CI on CPI; (NaN, NaN) for a full (exact) simulation."""
        if self.sampled is not None:
            return self.sampled.cpi.ci95
        return (math.nan, math.nan)

    @property
    def relative_ci(self) -> float:
        """CI half-width / point; NaN for a full (exact) simulation."""
        if self.sampled is not None:
            return self.sampled.cpi.relative_error
        return math.nan

    @property
    def simulated_records(self) -> int:
        """Timed records actually simulated to produce this cell."""
        if self.sampled is not None:
            return self.sampled.simulated_records
        return self.full.stats.committed


def run_workload(
    workload: "str | WorkloadProfile",
    config: Optional[ProcessorConfig] = None,
    instructions: Optional[int] = None,
    skip: Optional[int] = None,
    cache: Optional[bool] = None,
    frontend: Optional[str] = None,
    jobs: Optional[int] = None,
    sampling: Optional[str] = None,
    ci_target: Optional[float] = None,
    backend: Optional[str] = None,
    request: Optional[RunRequest] = None,
) -> "SimulationResult | WorkloadRun":
    """Simulate one named workload on one machine configuration.

    ``cache=None`` follows the environment policy (persistent cache on
    unless ``REPRO_CACHE=0``); ``cache=False`` forces a fresh simulation.
    ``frontend`` overrides the config's ``frontend_mode`` ("live" /
    "replay"); None defers to ``REPRO_FRONTEND``, then to the config.
    ``sampling`` (None defers to ``REPRO_SAMPLING``, then "off") keeps
    the classic full-span :class:`SimulationResult` when off; the
    sampled modes return a :class:`WorkloadRun` estimate instead.
    ``backend`` picks the execution backend (None defers to
    ``REPRO_BACKEND``, then the local process pool).  ``request``
    supplies any of these as a bundled
    :class:`~repro.core.config.RunRequest`; explicit keywords win.
    """
    req = _merge_request(request, instructions=instructions, skip=skip,
                         jobs=jobs, cache=cache, frontend=frontend,
                         sampling=sampling, ci_target=ci_target,
                         backend=backend)
    if req.sampling != "off":
        return _sampled_cell(workload, config, req,
                             _executor_for(req.jobs, req.cache, req.backend))
    instructions, skip = _budget(req)
    config = _resolve_config(config, req.frontend)
    job = SimJob.make(workload, config, instructions, skip)
    if req.cache is False:
        # Uncached fast path: no hashing, no disk.
        return simulate(
            build_program(job.profile),
            job.config,
            max_instructions=instructions,
            skip_instructions=skip,
            mem_seed=job.profile.mem_seed,
        )
    return _executor_for(req.jobs, req.cache, req.backend).run_one(job)


def _sampled_row(workload: "str | WorkloadProfile",
                 configs: "list[Optional[ProcessorConfig]]",
                 req: RunRequest,
                 executor: SweepExecutor) -> "list[WorkloadRun]":
    """One workload's sampled cells for several configs, submitted together.

    All configs sample the *same* trace-derived windows, so their region
    jobs go through the executor in one submission per escalation step
    -- which is what lets the batched replay path group every config of
    one region window into a single trace walk.  Falls back to full
    simulation honestly, and only on trace-availability failures -- the
    capture/load errors ``OSError`` and
    :class:`~repro.trace.format.TraceFormatError`.  Anything else (bad
    parameters, simulator bugs) propagates.
    """
    from ..sampling.run import sample_workload_many  # runner <-> sampling
    profile = get_profile(workload) if isinstance(workload, str) else workload
    cfgs = [_resolve_config(config, req.frontend) for config in configs]
    instructions, skip = _budget(req)
    try:
        sampled = sample_workload_many(
            profile, cfgs, instructions=instructions, skip=skip,
            strategy="adaptive" if req.sampling == "adaptive"
            else "simpoint",
            measure=req.measure, warmup=req.warmup, detail=req.detail,
            regions=req.regions, max_fraction=req.max_fraction,
            checkpoint_interval=req.checkpoint_interval,
            ci_target=req.ci_target if req.sampling == "adaptive" else None,
            executor=executor)
        return [WorkloadRun(profile.name, sampled=run) for run in sampled]
    except (OSError, TraceFormatError) as exc:
        fulls = executor.run([SimJob(profile, cfg, instructions, skip)
                              for cfg in cfgs])
        reason = f"{type(exc).__name__}: {exc}"
        return [WorkloadRun(profile.name, full=full, fallback_reason=reason)
                for full in fulls]


def _sampled_cell(workload: "str | WorkloadProfile",
                  config: Optional[ProcessorConfig],
                  req: RunRequest,
                  executor: SweepExecutor) -> WorkloadRun:
    """One sampled cell (a single-config :func:`_sampled_row`)."""
    return _sampled_row(workload, [config], req, executor)[0]


def _sampled_table(profiles: "list[WorkloadProfile]",
                   configs: "Mapping[str, ProcessorConfig]",
                   req: RunRequest,
                   executor: SweepExecutor
                   ) -> "Dict[str, Dict[str, WorkloadRun]]":
    """A whole adaptive table under one budget controller.

    Every workload becomes an :class:`~repro.sampling.adaptive.
    AdaptiveSession` (all configs in lockstep); the
    :class:`~repro.sampling.controller.TableController` then escalates
    whichever workload has the worst CI-to-target ratio until the whole
    table meets the target.  A workload whose trace cannot be captured
    falls back to full simulations at session-construction time -- the
    rest of the table still goes through the controller.
    """
    from ..sampling.adaptive import AdaptiveSession, DEFAULT_CI_TARGET
    from ..sampling.controller import TableController
    instructions, skip = _budget(req)
    ci_target = DEFAULT_CI_TARGET if req.ci_target is None else req.ci_target
    controller = TableController(ci_target,
                                 paired=req.paired is not False)
    cfgs = [_resolve_config(config, req.frontend)
            for config in configs.values()]
    fallback: "Dict[str, list[WorkloadRun]]" = {}
    for profile in profiles:
        try:
            controller.add(profile.name, AdaptiveSession(
                profile, cfgs, instructions=instructions, skip=skip,
                ci_target=ci_target, measure=req.measure,
                **({} if req.warmup is None else {"warmup": req.warmup}),
                detail=req.detail, regions=req.regions,
                max_fraction=req.max_fraction,
                checkpoint_interval=req.checkpoint_interval,
                executor=executor))
        except (OSError, TraceFormatError) as exc:
            fulls = executor.run([SimJob(profile, cfg, instructions, skip)
                                  for cfg in cfgs])
            reason = f"{type(exc).__name__}: {exc}"
            fallback[profile.name] = [
                WorkloadRun(profile.name, full=full, fallback_reason=reason)
                for full in fulls]
    controller.run()
    table = controller.results()
    results_by_config: "Dict[str, Dict[str, WorkloadRun]]" = \
        {config_name: {} for config_name in configs}
    for profile in profiles:
        cells = [WorkloadRun(profile.name, sampled=run)
                 for run in table[profile.name]] \
            if profile.name in table else fallback[profile.name]
        for config_name, cell in zip(configs, cells):
            results_by_config[config_name][profile.name] = cell
    return results_by_config


@dataclass
class PairedRun:
    """Base-vs-variant results for one workload (same dynamic stream).

    Holds two :class:`WorkloadRun` cells; with sampling off both wrap
    full simulations and the classic :attr:`base`/:attr:`variant`
    results remain available, while sampled pairs carry CI-annotated
    estimates and propagate their uncertainty into
    :attr:`speedup_ci95`.  When both cells sampled the *same* region
    schedule the speedup CI is the paired jackknife
    (:mod:`repro.sampling.paired`) -- common-mode window variance
    cancels, so it is much tighter than combining the two CPI CIs in
    quadrature; quadrature remains the fallback for genuinely different
    schedules (or ``use_paired=False``).
    """

    name: str
    base_cell: WorkloadRun
    variant_cell: WorkloadRun
    use_paired: bool = True

    @property
    def base(self) -> Optional[SimulationResult]:
        """Full base-machine result (None when the cell is sampled)."""
        return self.base_cell.full

    @property
    def variant(self) -> Optional[SimulationResult]:
        """Full variant result (None when the cell is sampled)."""
        return self.variant_cell.full

    @property
    def speedup(self) -> float:
        return self.variant_cell.ipc / self.base_cell.ipc

    @property
    def speedup_percent(self) -> float:
        return (self.speedup - 1.0) * 100.0

    @property
    def paired(self):
        """The paired speedup estimate, when pairing applies.

        Requires two sampled cells over the identical region schedule
        (and ``use_paired``); None otherwise.  Its point estimate
        equals :attr:`speedup` -- pairing changes the error claim, not
        the headline number.
        """
        if not (self.use_paired and self.base_cell.is_sampled
                and self.variant_cell.is_sampled):
            return None
        from ..sampling.paired import paired_speedup  # runner <-> sampling
        return paired_speedup(self.base_cell.sampled,
                              self.variant_cell.sampled)

    @property
    def ci_method(self) -> str:
        """How :attr:`speedup_relative_ci` was obtained.

        ``"paired"`` (common-regions jackknife), ``"quadrature"``
        (independent per-side CIs combined) or ``"exact"`` (both cells
        full simulations -- no sampling error to claim).
        """
        if self.paired is not None:
            return "paired"
        if self.base_cell.is_sampled or self.variant_cell.is_sampled:
            return "quadrature"
        return "exact"

    @property
    def speedup_relative_ci(self) -> float:
        """Relative ~95% half-width on the speedup; NaN when exact.

        Paired jackknife over the shared windows when both cells
        sampled the same schedule; otherwise the per-side relative
        errors combine in quadrature (independent regions).  A full
        cell contributes zero sampling error; an undefined CI (single
        region either way) stays NaN -- no claim.
        """
        estimate = self.paired
        if estimate is not None:
            return estimate.relative_error
        rels = [cell.relative_ci
                for cell in (self.base_cell, self.variant_cell)
                if cell.is_sampled]
        if not rels:
            return math.nan
        return math.sqrt(sum(r * r for r in rels))

    @property
    def speedup_ci95(self) -> Tuple[float, float]:
        half = self.speedup * self.speedup_relative_ci
        return (self.speedup - half, self.speedup + half)


def run_pair(
    workload: "str | WorkloadProfile",
    base_config: ProcessorConfig,
    variant_config: ProcessorConfig,
    instructions: Optional[int] = None,
    skip: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    frontend: Optional[str] = None,
    sampling: Optional[str] = None,
    ci_target: Optional[float] = None,
    backend: Optional[str] = None,
    paired: Optional[bool] = None,
    request: Optional[RunRequest] = None,
    executor: Optional[SweepExecutor] = None,
) -> PairedRun:
    """Run base and variant on the identical dynamic instruction stream.

    With a sampled mode both sides estimate from the *same* windows of
    the same recorded trace (the plans derive from the trace alone, not
    the machine), so the paired-stream property the full path guarantees
    carries over to the sampled one -- and the speedup CI is the paired
    jackknife over those shared windows unless ``paired`` resolves off.
    Either way both sides go through the executor in one submission, so
    replay-mode pairs that share a warm class run as one batched trace
    walk.  ``executor`` overrides the executor (e.g. to read its cache
    stats afterwards).
    """
    req = _merge_request(request, instructions=instructions, skip=skip,
                         jobs=jobs, cache=cache, frontend=frontend,
                         sampling=sampling, ci_target=ci_target,
                         backend=backend, paired=paired)
    profile = get_profile(workload) if isinstance(workload, str) else workload
    runner = executor if executor is not None \
        else _executor_for(req.jobs, req.cache, req.backend)
    if req.sampling != "off":
        base_cell, variant_cell = _sampled_row(
            profile, [base_config, variant_config], req, runner)
        return PairedRun(profile.name, base_cell, variant_cell,
                         use_paired=req.paired is not False)
    instructions, skip = _budget(req)
    base, variant = runner.run([
        SimJob(profile, _resolve_config(base_config, req.frontend),
               instructions, skip),
        SimJob(profile, _resolve_config(variant_config, req.frontend),
               instructions, skip),
    ])
    return PairedRun(profile.name,
                     WorkloadRun(profile.name, full=base),
                     WorkloadRun(profile.name, full=variant))


def run_suite(
    configs: Mapping[str, ProcessorConfig],
    workloads: Optional[Iterable[str]] = None,
    instructions: Optional[int] = None,
    skip: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    frontend: Optional[str] = None,
    sampling: Optional[str] = None,
    ci_target: Optional[float] = None,
    backend: Optional[str] = None,
    paired: Optional[bool] = None,
    table_budget: Optional[bool] = None,
    request: Optional[RunRequest] = None,
    executor: Optional[SweepExecutor] = None,
) -> "Dict[str, Dict[str, SimulationResult]] | Dict[str, Dict[str, WorkloadRun]]":
    """Run every (config, workload) pair.

    Returns ``results[config_name][workload_name]``.  With sampling off
    the values are plain :class:`SimulationResult`\\ s and the whole
    cross product is submitted as one batch, so with ``jobs > 1`` (or
    ``REPRO_JOBS``) independent simulations run in parallel and
    replay-mode configs sharing a warm class walk each trace once
    (:mod:`repro.batch`).  The sampled modes return
    :class:`WorkloadRun` cells instead -- each workload's configs
    sample the same windows and submit together, so every config of one
    region window becomes one batched trace walk.  Adaptive sampling
    additionally routes through the whole-table budget controller
    (unless ``table_budget`` resolves off): escalation spends where the
    table's CI-to-target ratio is worst instead of driving every cell
    to its own target.  ``executor`` overrides the executor used either
    way (e.g. to read its cache stats afterwards).
    """
    req = _merge_request(request, instructions=instructions, skip=skip,
                         jobs=jobs, cache=cache, frontend=frontend,
                         sampling=sampling, ci_target=ci_target,
                         backend=backend, paired=paired,
                         table_budget=table_budget)
    names = list(workloads) if workloads is not None else sorted(spec2006_profiles())
    profiles = [get_profile(name) for name in names]
    runner = executor if executor is not None \
        else _executor_for(req.jobs, req.cache, req.backend)
    if req.sampling == "adaptive" and req.table_budget is not False:
        return _sampled_table(profiles, configs, req, runner)
    if req.sampling != "off":
        results_by_config: "Dict[str, Dict[str, WorkloadRun]]" = \
            {config_name: {} for config_name in configs}
        for profile in profiles:
            row = _sampled_row(profile, list(configs.values()), req, runner)
            for config_name, cell in zip(configs, row):
                results_by_config[config_name][profile.name] = cell
        return results_by_config
    instructions, skip = _budget(req)
    batch = [
        SimJob(profile, _resolve_config(config, req.frontend),
               instructions, skip)
        for config in configs.values()
        for profile in profiles
    ]
    flat = runner.run(batch)
    results: Dict[str, Dict[str, SimulationResult]] = {}
    it = iter(flat)
    for config_name in configs:
        results[config_name] = {name: next(it) for name in names}
    return results


#: Workloads the profiles target as difficult-branch-prediction; benches
#: verify the *measured* classification against this expectation.
EXPECTED_D_BP = (
    "astar", "bzip2", "gcc", "gobmk", "h264ref", "mcf", "omnetpp",
    "perlbench", "sjeng", "soplex", "xalancbmk",
)


def dbp_workloads() -> Tuple[str, ...]:
    """The program set most benches sweep (expected D-BP programs)."""
    return EXPECTED_D_BP
