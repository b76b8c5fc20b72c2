"""Batched multi-config trace replay (DESIGN.md §12).

One trace walk feeds N live :class:`~repro.core.pipeline.Pipeline`
instances whose configurations differ only in issue-policy/PUBS timing
knobs -- the warm-checkpoint equivalence class.  See
:mod:`repro.batch.replay` for the mechanics and
:func:`repro.exec.jobs.batch_signature` for what may share a batch.
"""

from .replay import run_batch

__all__ = ["run_batch"]
