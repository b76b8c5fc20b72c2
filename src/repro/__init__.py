"""repro: a from-scratch reproduction of PUBS (MICRO 2018, Hideki Ando).

PUBS ("Prioritizing Unconfident Branch Slices") reduces the branch
*misspeculation penalty* by issuing the instructions a poorly-predicted
branch depends on with the highest priority, via a small set of reserved
entries at the head of a position-priority random issue queue.

The package contains the complete system: a synthetic-workload generator
standing in for SPEC CPU2006 (:mod:`repro.workloads`), branch predictors and
confidence estimation (:mod:`repro.branch`), the memory hierarchy
(:mod:`repro.memory`), the PUBS tables and mode switch (:mod:`repro.pubs`),
the issue-queue organizations (:mod:`repro.iq`), a cycle-level out-of-order
core (:mod:`repro.core`), and evaluation helpers (:mod:`repro.analysis`).

Quick start::

    from repro import ProcessorConfig, run_workload

    base = ProcessorConfig.cortex_a72_like()
    pubs = base.with_pubs()
    r0 = run_workload("sjeng", base, instructions=20_000)
    r1 = run_workload("sjeng", pubs, instructions=20_000)
    print(f"speedup: {r1.ipc / r0.ipc:.3f}x")
"""

from .analysis import (
    PairedRun,
    WorkloadRun,
    dbp_workloads,
    geometric_mean,
    run_pair,
    run_suite,
    run_workload,
    speedup,
    speedup_percent,
)
from .api import RunRequest
from .core import (
    Pipeline,
    ProcessorConfig,
    SimStats,
    SimulationResult,
    SmtConfig,
    simulate,
    size_models,
)
from .exec import ResultCache, SimJob, SweepExecutor, default_jobs
from .iq import AGE_MATRIX_IQ_DELAY_FACTOR, AgeMatrix, IssueQueue
from .pubs import PubsConfig, SliceTracker, pubs_hardware_cost
from .verify import InvariantViolation, OracleMismatch, PipelineVerifier
from .workloads import WorkloadProfile, build_program, get_profile, spec2006_profiles

__version__ = "1.0.0"

__all__ = [
    "PairedRun",
    "RunRequest",
    "WorkloadRun",
    "dbp_workloads",
    "geometric_mean",
    "run_pair",
    "run_suite",
    "run_workload",
    "speedup",
    "speedup_percent",
    "Pipeline",
    "ProcessorConfig",
    "SimStats",
    "SimulationResult",
    "SmtConfig",
    "simulate",
    "size_models",
    "ResultCache",
    "SimJob",
    "SweepExecutor",
    "default_jobs",
    "AGE_MATRIX_IQ_DELAY_FACTOR",
    "AgeMatrix",
    "IssueQueue",
    "PubsConfig",
    "SliceTracker",
    "pubs_hardware_cost",
    "InvariantViolation",
    "OracleMismatch",
    "PipelineVerifier",
    "WorkloadProfile",
    "build_program",
    "get_profile",
    "spec2006_profiles",
    "__version__",
]
