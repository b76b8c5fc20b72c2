"""Replay front end: bit-identity with live execution, end to end.

The tentpole guarantee of the trace subsystem: ``frontend_mode="replay"``
produces *exactly* the result live functional execution produces -- same
``SimStats``, same side-structure counters -- while sharing one capture and
one set of warm checkpoints across every configuration of a sweep.
"""

import dataclasses

import pytest

from repro.core.config import ProcessorConfig
from repro.core.simulator import simulate
from repro.trace import TraceExhaustedError, capture_trace
from repro.trace.replay import CHUNK, FIRST_CHUNK, SharedReplayWindow
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BASE = ProcessorConfig.cortex_a72_like()

#: 3 workloads x {base, pubs}: the round-trip matrix the issue requires.
MATRIX = [(workload, tag, config)
          for workload in ("sjeng", "gcc", "mcf")
          for tag, config in (("base", BASE), ("pubs", BASE.with_pubs()))]

INSTRUCTIONS = 2000
SKIP = 2000


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(root=tmp_path_factory.mktemp("traces"),
                      persistent=True)


def _run(workload, config, frontend, store, instructions=INSTRUCTIONS,
         skip=SKIP):
    profile = get_profile(workload)
    return simulate(
        build_program(profile), config.with_frontend(frontend),
        max_instructions=instructions, skip_instructions=skip,
        mem_seed=profile.mem_seed,
        trace_source=store if frontend == "replay" else None)


@pytest.mark.parametrize("workload,tag,config", MATRIX,
                         ids=[f"{w}-{t}" for w, t, _ in MATRIX])
def test_replay_reproduces_live_stats(workload, tag, config, store):
    """record -> serialize -> load -> replay == live, bit for bit."""
    live = _run(workload, config, "live", store)
    replay = _run(workload, config, "replay", store)
    assert dataclasses.asdict(replay.stats) == dataclasses.asdict(live.stats)
    assert dataclasses.asdict(replay.tracker_stats) \
        == dataclasses.asdict(live.tracker_stats)
    assert replay.predictor_accuracy == live.predictor_accuracy
    assert replay.btb_hit_rate == live.btb_hit_rate
    assert replay.iq_priority_dispatches == live.iq_priority_dispatches
    assert replay.lsq_forwards == live.lsq_forwards
    assert replay.select_avg_grants == live.select_avg_grants
    assert replay.frontend_mode == "replay" and live.frontend_mode == "live"


def test_replay_from_reloaded_store(tmp_path):
    """A trace recorded by one process and loaded by another replays the
    same stats (the serialize -> load leg of the round trip)."""
    config = BASE.with_pubs()
    recorder = TraceStore(root=tmp_path, persistent=True)
    first = _run("sjeng", config, "replay", recorder)
    loader = TraceStore(root=tmp_path, persistent=True)
    second = _run("sjeng", config, "replay", loader)
    assert loader.captures == 0  # everything came from disk
    assert dataclasses.asdict(second.stats) == dataclasses.asdict(first.stats)


def test_warm_checkpoints_shared_across_configs(store):
    """One capture + one warm training serves a whole config sweep."""
    sweep_store = TraceStore(root=store.root, persistent=False)
    pubs = BASE.pubs.with_overrides(enabled=True)
    for entries in (4, 6, 8):
        cfg = BASE.with_pubs(pubs.with_overrides(priority_entries=entries))
        _run("gobmk", cfg, "replay", sweep_store)
    assert sweep_store.captures == 1
    assert sweep_store.warm_trainings == 2   # mem + front, once each
    assert sweep_store.warm_restores == 4    # 2 components x 2 later runs


def test_replay_with_full_verification(store):
    """The differential oracle + invariants hold on a replayed run."""
    config = BASE.with_pubs().with_verification("full", interval=128)
    result = _run("sjeng", config, "replay", store)
    assert result.verified_commits == INSTRUCTIONS
    assert result.invariant_sweeps > 0


def test_replay_resume_matches_live(store):
    """run() twice on one pipeline behaves identically in both modes.

    (The second run keeps ``skip=0``: skipping with uops in flight would
    release trace records an in-flight branch can still rewind to, in
    live and replay mode alike.)
    """
    from repro.core.pipeline import Pipeline

    profile = get_profile("gcc")
    program = build_program(profile)
    live = Pipeline(program, BASE, mem_seed=profile.mem_seed)
    replay = Pipeline(program, BASE.with_frontend("replay"),
                      mem_seed=profile.mem_seed, trace_source=store)
    for pipe in (live, replay):
        pipe.run(800, skip_instructions=600)
        pipe.run(800)
    assert dataclasses.asdict(replay.stats) == dataclasses.asdict(live.stats)


def test_replay_frontend_cursor_semantics():
    """A one-member window frees what its cursor has released."""
    profile = get_profile("sjeng")
    program = build_program(profile)
    trace = capture_trace(program, profile.mem_seed, 2 * CHUNK + 50)
    window = SharedReplayWindow(trace, program, 0)
    cursor = window.cursor()
    first = cursor.get(0)
    assert first.seq == 0 and first.inst.pc == trace.pcs[0]
    assert cursor.get(10).seq == 10 and cursor.high == 11
    assert window.retained == FIRST_CHUNK  # one materialized chunk
    cursor.release(5)
    with pytest.raises(IndexError):
        cursor.get(4)  # below the low-water mark
    cursor.release(CHUNK + 5)  # jump past the materialized window
    assert window.retained == 0 and cursor.high == CHUNK + 5
    assert cursor.get(CHUNK + 5).seq == CHUNK + 5
    held = window.retained
    cursor.release(2 * CHUNK + 10)
    assert window.retained < held  # released records are freed
    assert cursor.get(2 * CHUNK + 49).seq == 2 * CHUNK + 49
    with pytest.raises(TraceExhaustedError):
        cursor.get(2 * CHUNK + 50)  # past the captured stream


def test_shared_window_keeps_records_for_every_member():
    """One member's release never frees what another still reads."""
    profile = get_profile("sjeng")
    program = build_program(profile)
    trace = capture_trace(program, profile.mem_seed, 2 * CHUNK + 50)
    window = SharedReplayWindow(trace, program, 0)
    first, second = window.cursor(), window.cursor()
    first.get(10)
    held = window.retained
    first.release(2 * CHUNK)
    with pytest.raises(IndexError):
        first.get(10)
    assert window.retained == held  # nothing freed: the second reads on
    assert second.get(10) is window.get(10)
    second.release(2 * CHUNK)
    assert window.retained == 0  # both done: the window frees the span


def test_replay_frontend_attach_requires_extension():
    profile = get_profile("sjeng")
    program = build_program(profile)
    long_trace = capture_trace(program, profile.mem_seed, 60)
    short_trace = capture_trace(program, profile.mem_seed, 30)
    cursor = SharedReplayWindow(long_trace, program, 0).cursor()
    with pytest.raises(ValueError):
        cursor.attach(short_trace)
    cursor.attach(long_trace)  # an equal (or longer) trace is accepted
    assert cursor.trace is long_trace


def test_frontend_mode_changes_job_key():
    """Live and replay runs never share a cached result."""
    from repro.exec.jobs import SimJob, job_key

    live = SimJob.make("sjeng", BASE, 1000, 1000)
    replay = SimJob.make("sjeng", BASE.with_frontend("replay"), 1000, 1000)
    assert job_key(live) != job_key(replay)


def test_frontend_mode_validated():
    with pytest.raises(ValueError):
        BASE.with_frontend("clairvoyant")


def test_runner_env_selects_frontend(monkeypatch, tmp_path):
    from repro.analysis.runner import run_workload
    from repro.trace import store as store_module

    monkeypatch.setenv("REPRO_FRONTEND", "replay")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store_module.reset_shared_stores()
    try:
        result = run_workload("sjeng", BASE, instructions=500, skip=500,
                              cache=False)
    finally:
        store_module.reset_shared_stores()
    assert result.frontend_mode == "replay"
    assert result.config.frontend_mode == "replay"
