"""Batched multi-config replay: one trace walk, bit-identical members.

The tentpole guarantee of :mod:`repro.batch` (DESIGN.md §12): feeding N
same-warm-class configs from one :class:`SharedReplayWindow` produces
*exactly* the results N one-member windows (N ``simulate`` calls)
produce -- same ``SimStats``, same side-structure counters, pinned
against the seed goldens -- while decoding the trace and training warm
state once for the whole batch.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.replay as trace_replay
from repro.batch import run_batch
from repro.core.config import ProcessorConfig
from repro.core.simulator import simulate
from repro.exec import SimJob, batch_signature
from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor
from repro.pubs import PubsConfig
from repro.trace import TraceExhaustedError
from repro.trace.replay import SharedReplayWindow
from repro.trace.store import TraceStore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile
from tests.test_pipeline_golden import GOLDEN_STATS
from tests.test_pipeline_golden import INSTRUCTIONS as GOLDEN_INSTRUCTIONS
from tests.test_pipeline_golden import SKIP as GOLDEN_SKIP

BASE = ProcessorConfig.cortex_a72_like().with_frontend("replay")
INSTRUCTIONS = 1500
SKIP = 1500


def _pubs(entries, stall=True):
    return BASE.with_pubs(PubsConfig(priority_entries=entries,
                                     stall_policy=stall))


#: Two warm-equivalence families: members differ only in timing knobs,
#: so each family legally shares one batch (base vs PUBS do *not* -- the
#: slice tracker trains differently during warm spans).
FAMILIES = {
    "base": [BASE, BASE.with_age_matrix(),
             BASE.with_overrides(distributed_iq=True)],
    "pubs": [_pubs(4), _pubs(6), _pubs(8, stall=False)],
}

MATRIX = [(workload, family)
          for workload in ("sjeng", "gcc", "mcf")
          for family in sorted(FAMILIES)]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return TraceStore(root=tmp_path_factory.mktemp("batch-traces"),
                      persistent=True)


def _jobs(workload, configs, instructions=INSTRUCTIONS, skip=SKIP):
    profile = get_profile(workload)
    return [SimJob(profile, config, instructions, skip)
            for config in configs]


def _sequential(job, store):
    return simulate(build_program(job.profile), job.config,
                    max_instructions=job.instructions,
                    skip_instructions=job.skip,
                    mem_seed=job.profile.mem_seed, trace_source=store)


def _assert_identical(batched, jobs, store):
    assert len(batched) == len(jobs)
    for job, result in zip(jobs, batched):
        expected = _sequential(job, store)
        assert dataclasses.asdict(result) == dataclasses.asdict(expected)


# ----------------------------------------------------------------------
# Bit-identity with sequential replay
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload,family", MATRIX,
                         ids=[f"{w}-{f}" for w, f in MATRIX])
def test_batch_matches_sequential(workload, family, store):
    """Batch-of-N == N sequential replays, full-result equality."""
    jobs = _jobs(workload, FAMILIES[family])
    _assert_identical(run_batch(jobs, trace_source=store), jobs, store)


def test_batch_matches_sequential_region_partial_warmup(store):
    """Region members with warmup < seat: warm spans trained once."""
    configs = [c.with_region(4000, 1000, 200) for c in FAMILIES["pubs"]]
    jobs = _jobs("sjeng", configs, instructions=400, skip=0)
    _assert_identical(run_batch(jobs, trace_source=store), jobs, store)


def test_batch_matches_sequential_region_full_prefix(store):
    """Full-prefix warmup regions go through the warm-checkpoint path."""
    configs = [c.with_region(4000, 3800, 200) for c in FAMILIES["base"]]
    jobs = _jobs("gcc", configs, instructions=400, skip=0)
    _assert_identical(run_batch(jobs, trace_source=store), jobs, store)


def test_batch_reproduces_seed_goldens(store):
    """Batched members reproduce the pre-optimization golden counters."""
    base = ProcessorConfig.cortex_a72_like().with_frontend("replay")
    pubs_jobs = _jobs("sjeng",
                      [base.with_pubs(),
                       base.with_pubs(PubsConfig(priority_entries=4)),
                       base.with_pubs(PubsConfig(priority_entries=8))],
                      instructions=GOLDEN_INSTRUCTIONS, skip=GOLDEN_SKIP)
    results = run_batch(pubs_jobs, trace_source=store)
    assert dataclasses.asdict(results[0].stats) == GOLDEN_STATS["sjeng_pubs"]
    single = run_batch(_jobs("sjeng", [base],
                             instructions=GOLDEN_INSTRUCTIONS,
                             skip=GOLDEN_SKIP), trace_source=store)
    assert dataclasses.asdict(single[0].stats) == GOLDEN_STATS["sjeng_base"]


def test_verified_member_in_batch(store):
    """A verify_level=full member oracle-checks every commit in-batch."""
    configs = [_pubs(6), _pubs(6).with_verification("full", interval=128),
               _pubs(8)]
    jobs = _jobs("sjeng", configs)
    results = run_batch(jobs, trace_source=store)
    assert results[1].verified_commits == INSTRUCTIONS
    assert results[1].invariant_sweeps > 0
    # Verification observes, never steers: same timing as the unverified
    # twin, and every member still equals its sequential run.
    assert dataclasses.asdict(results[0].stats) \
        == dataclasses.asdict(results[1].stats)
    _assert_identical(results, jobs, store)


@settings(max_examples=6, deadline=None)
@given(perm=st.permutations(range(len(FAMILIES["pubs"]))))
def test_member_order_never_affects_results(store, perm):
    """Property: any batch ordering yields each member's own result."""
    canonical = run_batch(_jobs("sjeng", FAMILIES["pubs"]),
                          trace_source=store)
    permuted = run_batch(
        _jobs("sjeng", [FAMILIES["pubs"][i] for i in perm]),
        trace_source=store)
    for slot, i in enumerate(perm):
        assert dataclasses.asdict(permuted[slot]) \
            == dataclasses.asdict(canonical[i])


def test_python_fallback_matches_numpy(store, monkeypatch):
    """The no-numpy record materialization is semantically identical."""
    jobs = _jobs("mcf", FAMILIES["pubs"][:2])
    with_numpy = run_batch(jobs, trace_source=store)
    monkeypatch.setattr(trace_replay, "_np", None)
    without = run_batch(jobs, trace_source=store)
    for a, b in zip(with_numpy, without):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


# ----------------------------------------------------------------------
# Batch admission rules
# ----------------------------------------------------------------------

def test_live_jobs_have_no_signature():
    job = SimJob(get_profile("sjeng"), ProcessorConfig.cortex_a72_like(),
                 100, 0)
    assert batch_signature(job) is None


def test_mixed_signatures_rejected(store):
    mixed = _jobs("sjeng", [BASE]) + _jobs("mcf", [BASE])
    with pytest.raises(ValueError):
        run_batch(mixed, trace_source=store)


def test_base_and_pubs_never_share_a_batch():
    """PUBS flips warm-time slice training: different equivalence class."""
    sjeng = get_profile("sjeng")
    base_sig = batch_signature(SimJob(sjeng, BASE, INSTRUCTIONS, SKIP))
    pubs_sig = batch_signature(SimJob(sjeng, _pubs(6), INSTRUCTIONS, SKIP))
    assert base_sig != pubs_sig
    # ...while timing-only knobs keep the signature stable.
    assert batch_signature(SimJob(sjeng, _pubs(4), INSTRUCTIONS, SKIP)) \
        == pubs_sig


def test_region_and_skip_are_mutually_exclusive(store):
    config = BASE.with_region(4000, 1000, 200)
    jobs = [SimJob(get_profile("sjeng"), config, 400, 500)]
    with pytest.raises(ValueError):
        run_batch(jobs, trace_source=store)


# ----------------------------------------------------------------------
# Shared window / cursor mechanics
# ----------------------------------------------------------------------

def _window(store, workload="sjeng", records=3000, base=0):
    profile = get_profile(workload)
    program = build_program(profile)
    trace = store.acquire(program, profile.mem_seed, records)
    return SharedReplayWindow(trace, program, base), trace


def test_window_materializes_lazily_and_once(store):
    window, _ = _window(store)
    assert window.high == window.start
    first = window.get(10)
    assert window.high >= 11
    assert window.get(10) is first  # same shared object, not a re-decode


def test_window_exhaustion_raises(store):
    window, trace = _window(store)
    with pytest.raises(TraceExhaustedError):
        window.get(len(trace))


def test_cursor_release_is_per_member(store):
    window, _ = _window(store)
    first, second = window.cursor(), window.cursor()
    first.get(5)
    first.release(6)
    with pytest.raises(IndexError):
        first.get(5)
    # The other member's view is untouched by the release.
    assert second.get(5).seq == 5


# ----------------------------------------------------------------------
# Executor integration: grouping, caching, dedup
# ----------------------------------------------------------------------

def test_executor_batches_replay_jobs(tmp_path, monkeypatch):
    from repro.trace.store import reset_shared_stores
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_shared_stores()
    jobs = _jobs("sjeng", FAMILIES["pubs"])
    batched = SweepExecutor(jobs=1, cache=False)
    results = batched.run(jobs)
    assert batched.batches_run == 1
    assert batched.batched_jobs == len(jobs)
    for job, result in zip(jobs, results):
        assert dataclasses.asdict(result) \
            == dataclasses.asdict(_sequential(job, None))


def test_executor_drops_cached_members_from_batch(tmp_path, monkeypatch):
    """A warm member is served from cache; only the misses simulate."""
    from repro.trace.store import reset_shared_stores
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_shared_stores()
    jobs = _jobs("sjeng", FAMILIES["pubs"])
    cache_dir = tmp_path / "results"
    prime = SweepExecutor(jobs=1, cache=ResultCache(cache_dir))
    primed = prime.run([jobs[1]])
    assert prime.simulations_run == 1
    warm = SweepExecutor(jobs=1, cache=ResultCache(cache_dir))
    results = warm.run(jobs)
    assert warm.cache.stats.hits == 1
    assert warm.simulations_run == len(jobs) - 1
    assert warm.batches_run == 1
    assert warm.batched_jobs == len(jobs) - 1
    assert dataclasses.asdict(results[1]) == dataclasses.asdict(primed[0])
    # The partial batch still matches uncached per-job replay.
    for job, result in zip(jobs, results):
        assert dataclasses.asdict(result) \
            == dataclasses.asdict(_sequential(job, None))


def test_executor_mixes_live_and_replay_units(tmp_path, monkeypatch):
    """Live jobs become singleton units next to the replay batch."""
    from repro.trace.store import reset_shared_stores
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_shared_stores()
    live = SimJob(get_profile("mcf"), ProcessorConfig.cortex_a72_like(),
                  INSTRUCTIONS, SKIP)
    jobs = _jobs("sjeng", FAMILIES["pubs"][:2]) + [live]
    executor = SweepExecutor(jobs=1, cache=False)
    results = executor.run(jobs)
    assert executor.batches_run == 1
    assert executor.batched_jobs == 2
    assert results[2].frontend_mode == "live"
    assert "batched=2" in executor.summary()
