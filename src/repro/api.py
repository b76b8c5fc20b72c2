"""Stable high-level entry points: the one import for running things.

Examples, the CLI and downstream scripts should import from here
instead of deep module paths -- the deep layout (``repro.analysis.
runner``, ``repro.sampling.run``, ...) is free to keep refactoring, and
this facade is the surface that stays put.  Everything shares one
keyword vocabulary:

``jobs``
    parallel worker processes (None -> ``REPRO_JOBS`` -> serial);
``cache``
    persistent result cache (None -> ``REPRO_CACHE`` policy);
``frontend``
    correct-path supply, ``"live"`` / ``"replay"``
    (None -> ``REPRO_FRONTEND`` -> the config's own mode);
``sampling``
    ``"off"`` / ``"fixed"`` / ``"adaptive"``
    (None -> ``REPRO_SAMPLING`` -> off);
``backend``
    where planned units execute: ``"inline"`` / ``"process"`` /
    ``"queue"`` (None -> ``REPRO_BACKEND`` -> the local process pool);
    every backend is bit-identical by construction, so this only
    changes *where* the work runs;
``paired``
    report sampled comparisons with the common-regions paired CI
    (None -> ``REPRO_PAIRED`` -> on; off combines in quadrature);
``table_budget``
    adaptive suites spend the escalation budget table-wide -- on the
    workload with the worst CI-to-target ratio -- instead of driving
    every cell to its own target (None -> ``REPRO_TABLE_BUDGET`` -> on);
``request``
    a :class:`RunRequest` bundling all of the above -- explicit
    keywords override its fields, the environment fills what is left,
    and library defaults apply last.

There is no batching knob: replay-mode configs that share a warm class
always walk their trace together (:func:`run_batch`, up to
``DEFAULT_BATCH_LIMIT`` per walk), and a single replay run is a batch
of one.

Quick start::

    from repro.api import RunRequest, run_suite

    req = RunRequest(sampling="adaptive", ci_target=0.05)
    table = run_suite({"base": base, "pubs": pubs}, ["mcf", "sjeng"],
                      request=req)
    cell = table["pubs"]["mcf"]          # a WorkloadRun estimate
    print(cell.cpi, cell.cpi_ci95)
"""

from .analysis.runner import (
    PairedRun,
    WorkloadRun,
    run_pair,
    run_suite,
    run_workload,
)
from .analysis.topdown import (
    TopdownBreakdown,
    TopdownDelta,
    breakdown_of,
    compare_topdown,
)
from .batch import run_batch
from .core.config import ProcessorConfig, RunRequest
from .exec import (
    ExecutionBackend,
    JobQueue,
    QueueBackend,
    SweepExecutor,
    backend_names,
    create_backend,
    run_worker,
)
from .sampling.adaptive import (
    AdaptiveRun,
    AdaptiveSession,
    sample_workload_adaptive,
    sample_workload_adaptive_many,
)
from .sampling.controller import TableController
from .sampling.paired import PairedEstimate, paired_speedup
from .sampling.run import SampledRun, sample_workload, sample_workload_many

__all__ = [
    "AdaptiveRun",
    "AdaptiveSession",
    "ExecutionBackend",
    "JobQueue",
    "PairedEstimate",
    "PairedRun",
    "ProcessorConfig",
    "QueueBackend",
    "RunRequest",
    "SampledRun",
    "SweepExecutor",
    "TableController",
    "TopdownBreakdown",
    "TopdownDelta",
    "WorkloadRun",
    "backend_names",
    "breakdown_of",
    "compare_topdown",
    "create_backend",
    "paired_speedup",
    "run_worker",
    "run_batch",
    "run_pair",
    "run_suite",
    "run_workload",
    "sample_workload",
    "sample_workload_adaptive",
    "sample_workload_adaptive_many",
    "sample_workload_many",
]
