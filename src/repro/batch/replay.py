"""Batched multi-config replay: walk the trace once, time N machines.

Every design-space figure (Figs. 10/11/16: priority entries, confidence
bits, processor size) replays the *same* committed instruction stream
once per configuration.  Replaying them one by one would repeat, per
config, work that depends only on the (workload, budget, warm-class)
triple: acquiring and decoding the trace, materializing
:class:`~repro.isa.executor.DynamicOp` records, building the program,
and training (or unpickling) the warm microarchitectural state.

:func:`run_batch` hoists all of that out of the per-config loop.  It
opens one :class:`~repro.trace.replay.SharedReplayWindow` with a cursor
per member, so each trace record is decoded exactly once and the
resulting ``DynamicOp`` objects are shared by every member.  Each member
then runs to completion on its own :class:`~repro.core.pipeline.
Pipeline` -- private IQ, ROB, predictor, caches, wrong-path fetch --
through the same replay set-up a single run uses: the first member
trains or restores the warm state, the rest unpickle the snapshot it
leaves on the window.  A single replay run is a batch of one.

What may share a batch is defined by
:func:`~repro.exec.jobs.batch_signature`: same workload, budget and
replay window, same memory configuration, same warm front-end slice
(:func:`~repro.core.pipeline._front_warm_config`).  Members may differ
in anything that only steers timing -- issue-policy/PUBS knobs
(priority entries, stall policy, mode switching), IQ organization,
window sizes, verification level.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.pipeline import Pipeline
from ..core.simulator import SimulationResult, result_from_pipeline
from ..exec.jobs import SimJob, batch_signature
from ..trace.replay import open_window
from ..trace.store import TraceStore, shared_store


def run_batch(jobs: Sequence[SimJob],
              trace_source: Optional[TraceStore] = None
              ) -> List[SimulationResult]:
    """Run same-signature replay jobs with one walk of their trace.

    Returns one :class:`SimulationResult` per job, in request order,
    bit-identical to running each job through
    :func:`~repro.core.simulator.simulate`.  ``trace_source`` overrides
    the trace store (tests point it at a temporary directory); None
    uses the shared environment-selected store.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    signature = batch_signature(jobs[0])
    if signature is None:
        raise ValueError("batched replay requires frontend_mode='replay'")
    for job in jobs[1:]:
        if batch_signature(job) != signature:
            raise ValueError(
                "batch members must share workload, budget, replay window, "
                "memory configuration and warm front-end configuration")

    from ..workloads.generator import build_program
    lead = jobs[0]
    profile = lead.profile
    program = build_program(profile)
    store = trace_source if trace_source is not None else shared_store()
    window = open_window(store, program, profile.mem_seed,
                         lead.config.replay_region, lead.instructions,
                         lead.skip)
    # Every cursor opens before any member runs, so the window frees
    # nothing a later member still has to read.
    cursors = [window.cursor() for _ in jobs]
    results: List[SimulationResult] = []
    for job, cursor in zip(jobs, cursors):
        pipeline = Pipeline(program, job.config, mem_seed=profile.mem_seed,
                            trace_source=store)
        pipeline.cursor = cursor
        stats = pipeline.run(job.instructions, job.skip)
        results.append(result_from_pipeline(pipeline, stats))
    return results


__all__ = ["run_batch"]
