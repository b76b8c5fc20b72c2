"""Trace capture/replay: record the dynamic stream once, replay per config.

See DESIGN.md §9.  Public surface:

* :func:`~repro.trace.capture.capture_trace` /
  :func:`~repro.trace.capture.extend_trace` -- record the committed
  dynamic stream via one functional-execution pass;
* :class:`~repro.trace.format.Trace` / :class:`~repro.trace.format.
  ArchCheckpoint` and the encode/decode pair -- the versioned,
  checksummed on-disk format;
* :class:`~repro.trace.replay.SharedReplayWindow` -- the decoded trace
  span whose per-pipeline cursors feed correct-path records in
  ``frontend_mode="replay"`` (a single run is a window with one cursor);
* :class:`~repro.trace.store.TraceStore` / :func:`~repro.trace.store.
  shared_store` -- content-addressed persistence for traces and warm
  microarchitectural checkpoints.
"""

from .capture import adopt_skip_checkpoint, capture_trace, extend_trace
from .format import (
    DEFAULT_CHECKPOINT_INTERVAL,
    TRACE_FORMAT_VERSION,
    ArchCheckpoint,
    Trace,
    TraceFormatError,
    decode_trace,
    encode_trace,
    trace_metadata,
)
from .replay import SharedReplayWindow, TraceExhaustedError, static_decode_table
from .store import (
    REPLAY_MARGIN,
    TraceStore,
    program_fingerprint,
    reset_shared_stores,
    shared_store,
)

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "TRACE_FORMAT_VERSION",
    "REPLAY_MARGIN",
    "ArchCheckpoint",
    "SharedReplayWindow",
    "Trace",
    "TraceFormatError",
    "TraceExhaustedError",
    "TraceStore",
    "adopt_skip_checkpoint",
    "capture_trace",
    "decode_trace",
    "encode_trace",
    "extend_trace",
    "program_fingerprint",
    "reset_shared_stores",
    "shared_store",
    "static_decode_table",
    "trace_metadata",
]
