"""SimPoint/SMARTS-style sampled simulation over recorded traces.

See DESIGN.md §10.  Public surface:

* :func:`~repro.sampling.regions.plan_representative_regions` --
  SimPoint-style planning: cluster the span's windows on trace-derived
  behavior signatures (:mod:`repro.sampling.signature`) and schedule
  one weighted representative per cluster;
* :func:`~repro.sampling.regions.plan_regions` /
  :class:`~repro.sampling.regions.RegionPlan` -- systematic
  (SMARTS-style) evenly spaced windows over the same span;
* :func:`~repro.sampling.run.sample_workload` /
  :class:`~repro.sampling.run.SampledRun` -- fan the windows out as
  independently cached exec jobs and aggregate;
* :func:`~repro.sampling.adaptive.sample_workload_adaptive` /
  :class:`~repro.sampling.adaptive.AdaptiveRun` -- variance-driven
  escalation: start from a small representative set and split clusters
  until the CI half-width meets ``ci_target`` or the region cap (a
  one-config :class:`~repro.sampling.controller.TableController` table);
* :class:`~repro.sampling.aggregate.SampledEstimate` -- weighted
  whole-span point estimate with per-region spread (reuses
  :class:`~repro.analysis.robustness.SweepSummary`'s n>=2 honesty rule);
* :func:`~repro.sampling.paired.paired_speedup` /
  :class:`~repro.sampling.paired.PairedEstimate` -- common-regions
  paired-jackknife speedup CI over two runs' shared windows;
* :class:`~repro.sampling.controller.TableController` /
  :class:`~repro.sampling.adaptive.AdaptiveSession` -- whole-table
  budget control: escalate whichever workload has the worst
  CI-to-target ratio until the table meets the target.
"""

from .adaptive import (
    DEFAULT_ADAPTIVE_CAP,
    DEFAULT_BATCH,
    DEFAULT_CI_TARGET,
    DEFAULT_START_REGIONS,
    AdaptiveRound,
    AdaptiveRun,
    AdaptiveSession,
    sample_workload_adaptive,
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
    plan_regions,
    plan_representative_regions,
)
from .run import (
    CPI_ERROR_GATE,
    SampledRun,
    acquire_span_trace,
    region_jobs,
    sample_workload,
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
    "plan_regions",
    "plan_representative_regions",
    "region_jobs",
    "sample_workload",
    "sample_workload_adaptive",
    "paired_speedup",
    "sample_workload_many",
    "sampled_vs_full_error",
    "shared_schedule",
    "signature_distance",
    "weighted_counter",
    "weighted_ratio",
    "window_signature",
]
