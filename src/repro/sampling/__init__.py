"""SimPoint-style sampled simulation over recorded traces.

See DESIGN.md §10-§11.  Callers request sampling through
:class:`~repro.core.config.RunRequest` (``sampling="fixed"`` or
``"adaptive"``) on :mod:`repro.api`'s ``run_workload`` / ``run_pair`` /
``run_suite``; this package is the machinery behind that one door:

* :func:`~repro.sampling.regions.plan_representative_regions` /
  :class:`~repro.sampling.regions.RegionPlan` -- cluster the span's
  windows on trace-derived behavior signatures
  (:mod:`repro.sampling.signature`) and schedule one weighted
  representative per cluster;
* :func:`~repro.sampling.run.sample_workload_many` /
  :class:`~repro.sampling.run.SampledRun` -- the fixed mode: fan one
  workload's windows out as independently cached exec jobs for every
  config and aggregate;
* :class:`~repro.sampling.adaptive.AdaptiveSession` /
  :class:`~repro.sampling.adaptive.AdaptiveRun` -- the adaptive mode:
  variance-driven escalation that starts from a small representative
  set and splits clusters until the CI half-width meets ``ci_target``
  or the region cap;
* :class:`~repro.sampling.controller.TableController` -- whole-table
  budget control: escalate whichever workload has the worst
  CI-to-target ratio until the table meets the target (every adaptive
  estimate, one cell included, is such a table);
* :class:`~repro.sampling.aggregate.SampledEstimate` -- weighted
  whole-span point estimate with per-region spread (reuses
  :class:`~repro.analysis.robustness.SweepSummary`'s n>=2 honesty rule);
* :func:`~repro.sampling.paired.paired_speedup` /
  :class:`~repro.sampling.paired.PairedEstimate` -- common-regions
  paired-jackknife speedup CI over two runs' shared windows.
"""

from .adaptive import (
    DEFAULT_ADAPTIVE_CAP,
    DEFAULT_BATCH,
    DEFAULT_CI_TARGET,
    DEFAULT_START_REGIONS,
    AdaptiveRound,
    AdaptiveRun,
    AdaptiveSession,
)
from .controller import TableController
from .paired import (
    PairedEstimate,
    paired_speedup,
    shared_schedule,
)
from .aggregate import (
    CI_RELATIVE_FLOOR,
    CI_Z,
    SampledEstimate,
    estimate_cpi,
    estimate_misspec_penalty,
    weighted_counter,
    weighted_ratio,
)
from .regions import (
    DEFAULT_DETAIL,
    DEFAULT_MAX_FRACTION,
    DEFAULT_MEASURE,
    DEFAULT_REGIONS,
    DEFAULT_WARMUP,
    Region,
    RegionPlan,
    plan_representative_regions,
)
from .run import (
    CPI_ERROR_GATE,
    SampledRun,
    acquire_span_trace,
    region_jobs,
    sample_workload_many,
    sampled_vs_full_error,
)
from .signature import (
    assign_windows,
    cluster_windows,
    signature_distance,
    window_signature,
)

__all__ = [
    "CI_RELATIVE_FLOOR",
    "CI_Z",
    "CPI_ERROR_GATE",
    "DEFAULT_ADAPTIVE_CAP",
    "DEFAULT_BATCH",
    "DEFAULT_CI_TARGET",
    "DEFAULT_DETAIL",
    "DEFAULT_MAX_FRACTION",
    "DEFAULT_MEASURE",
    "DEFAULT_REGIONS",
    "DEFAULT_START_REGIONS",
    "DEFAULT_WARMUP",
    "AdaptiveRound",
    "AdaptiveRun",
    "AdaptiveSession",
    "PairedEstimate",
    "Region",
    "RegionPlan",
    "SampledEstimate",
    "SampledRun",
    "TableController",
    "acquire_span_trace",
    "assign_windows",
    "cluster_windows",
    "estimate_cpi",
    "estimate_misspec_penalty",
    "plan_representative_regions",
    "region_jobs",
    "paired_speedup",
    "sample_workload_many",
    "sampled_vs_full_error",
    "shared_schedule",
    "signature_distance",
    "weighted_counter",
    "weighted_ratio",
    "window_signature",
]
