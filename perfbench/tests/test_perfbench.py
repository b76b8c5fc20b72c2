"""Tests of the benchmark itself: its output check, its hermetic check,
the tracer's accounting law and the layer-diff verdicts."""

import json
import os

import pytest

import calibrate
import layerdiff
import rep
import run
import tables
from tracer import Tracer


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """A fresh cache directory as the only ``REPRO_*`` variable."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            monkeypatch.delenv(key)
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    return cache


@pytest.fixture
def small_suite(monkeypatch):
    """Shrink ``suite-live`` to two programs and a short budget."""
    monkeypatch.setattr(tables, "DBP", ("sjeng", "mcf"))
    monkeypatch.setattr(tables, "FULL_INSTRUCTIONS", 600)
    monkeypatch.setattr(tables, "FULL_SKIP", 300)


def _small_run(cache, reference=None, mode="inline"):
    return rep.run_rep("suite-live", seed=3, rep=0, mode=mode, t0=0.0,
                       cache_dir=cache, reference=reference)


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------

def test_perturbed_digest_is_caught(cache_env, small_suite):
    first = _small_run(cache_env)
    assert first["cells_failed"] == 0 and first["mismatched"] == []
    reference = dict(first["digests"])
    victim = sorted(reference)[0]
    reference[victim] = reference[victim][::-1]
    for path in cache_env.iterdir():  # start cold again
        if path.is_file():
            path.unlink()
    second = _small_run(cache_env, reference)
    assert second["mismatched"] == [victim]
    assert second["cells_failed"] == 1
    assert second["cells_attempted"] == len(reference)


def test_digest_tracks_simstats_fields():
    from repro.api import run_workload
    result = run_workload("sjeng", instructions=300, skip=0, cache=False)
    digest = tables.full_digest(result)
    for field in ("committed", "cycles", "mispredictions"):
        setattr(result.stats, field, getattr(result.stats, field) + 1)
        assert tables.full_digest(result) != digest
        setattr(result.stats, field, getattr(result.stats, field) - 1)
    assert tables.full_digest(result) == digest


# ----------------------------------------------------------------------
# Hermetic check
# ----------------------------------------------------------------------

def test_clean_cache_is_hermetic(cache_env):
    assert rep.hermetic_problems(cache_env) == []


@pytest.mark.parametrize("entry", ["traces/x.pkl", "warm/x.pkl", "x.pkl"])
def test_prepopulated_cache_trips_hermetic_check(cache_env, small_suite,
                                                 entry):
    path = cache_env / entry
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(b"left over")
    assert rep.hermetic_problems(cache_env)
    with pytest.raises(RuntimeError, match="not hermetic"):
        _small_run(cache_env)


def test_leaked_repro_variable_trips_hermetic_check(cache_env, monkeypatch):
    monkeypatch.setenv("REPRO_FRONTEND", "replay")
    problems = rep.hermetic_problems(cache_env)
    assert any("REPRO_FRONTEND" in p for p in problems)


def test_fixture_is_the_only_allowed_result(cache_env, tmp_path):
    fixture = tmp_path / "fixture"
    fixture.mkdir()
    (fixture / "a.pkl").write_bytes(b"a")
    assert rep.hermetic_problems(cache_env, fixture)  # fixture not copied
    (cache_env / "a.pkl").write_bytes(b"a")
    assert rep.hermetic_problems(cache_env, fixture) == []
    (cache_env / "b.pkl").write_bytes(b"b")
    assert rep.hermetic_problems(cache_env, fixture)


def test_child_environment_is_scrubbed(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BATCH", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    env = run.child_env(tmp_path, tmp_path / "cache")
    assert "REPRO_BATCH" not in env
    assert env["REPRO_CACHE_DIR"] == str(tmp_path / "cache")
    assert env["PYTHONPATH"].split(os.pathsep)[0] == str(tmp_path / "src")


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

def test_accounting_law_holds_on_a_small_traced_run(cache_env, small_suite):
    from repro.core.pipeline import Pipeline
    original_step = Pipeline.step
    record = _small_run(cache_env, mode="traced")
    assert Pipeline.step is original_step  # the tracer uninstalled itself
    assert record["law_violations"] == []
    layers = record["layers"]
    stages = sum(layers[f"core.{s}_s"] for s in
                 ("fetch", "dispatch", "issue", "commit", "writeback"))
    assert 0 < stages <= layers["core.step_s"]
    assert layers["core.stage_coverage"] >= 0.85
    assert layers["core.job_coverage_min"] >= 0.95
    assert layers["core.pipelines"] == 4
    assert layers["core.cycles"] == record["timed_cycles"]
    assert layers["isa.steps"] > 0 and layers["trace.captures"] == 0
    assert layers["sampling.rounds"] == 0


def test_tracing_does_not_change_results(cache_env, small_suite, tmp_path,
                                         monkeypatch):
    traced = _small_run(cache_env, mode="traced")
    other = tmp_path / "other"
    other.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(other))
    plain = _small_run(other, mode="inline")
    assert traced["digests"] == plain["digests"]


def test_replay_steps_count_as_trace_work_not_isa(cache_env):
    from repro.api import ProcessorConfig, SweepExecutor, run_suite
    from repro.pubs import PubsConfig
    base = ProcessorConfig.cortex_a72_like()
    tracer = Tracer(cache_env).install()
    try:
        executor = SweepExecutor(jobs=1, backend="inline")
        # Priority entries steer timing only: one warm class, one walk.
        run_suite({"a": base.with_pubs(PubsConfig(priority_entries=4)),
                   "b": base.with_pubs(PubsConfig(priority_entries=8))},
                  ["sjeng"],
                  instructions=400, skip=1000, frontend="replay",
                  executor=executor)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["isa.steps"] == 0
    assert metrics["trace.acquire_s"] > 0
    assert metrics["batch.walks"] == 1
    assert metrics["batch.members_per_walk"] == 2
    assert tracer.law_violations() == []


# ----------------------------------------------------------------------
# Host calibration
# ----------------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 2])
def test_calibration_times_every_round(width):
    times = calibrate.measure(width, 2)
    assert len(times) == 2 and all(t > 0 for t in times)


def test_calibrated_times_cancel_a_uniformly_slower_host():
    reference = {"detail_cycles": 500}
    quiet = {"table_s": 2.0, "ttfc_s": 1.0, "setup_s": 0.5,
             "calibration_s": 0.08, "timed_cycles": 1000,
             "peak_rss_mb": 50.0, "cells_failed": 0, "cells_attempted": 4}
    busy = dict(quiet, table_s=2.6, ttfc_s=1.3, setup_s=0.65,
                calibration_s=0.104)
    one, other = (run.end_to_end([r], reference) for r in (quiet, busy))
    for name in ("table_s", "ttfc_s", "setup_s", "kcycles_per_s"):
        assert one[name][0] == pytest.approx(other[name][0])
    assert one["table_s"][0] == pytest.approx(2.0 * run.CAL_REFERENCE_S
                                              / 0.08)
    faster = dict(quiet, table_s=1.0)  # a faster program on the same host
    assert run.end_to_end([faster], reference)["table_s"][0] == \
        pytest.approx(one["table_s"][0] / 2)


# ----------------------------------------------------------------------
# Workload tables
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", tables.WORKLOADS)
def test_seed_orders_cells_but_never_changes_them(workload):
    one = tables.table_for(workload, 1, 0)
    assert one == tables.table_for(workload, 1, 0)
    assert sorted(one.cells()) == sorted(tables.all_cells(workload))
    orders = {tables.table_for(workload, seed, 0).cells()[0]
              for seed in range(20)}
    assert len(orders) > 1


def test_serve_first_sweeps_start_from_the_prefilled_cache():
    for seed in range(10):
        table = tables.table_for("serve-mixed", seed, 0)
        for sweeps in table.sweeps:
            assert set(sweeps[0]) & set(tables.SERVE_PREFILLED)
        asked = {p for sweeps in table.sweeps for sweep in sweeps
                 for p in sweep}
        assert asked == set(tables.programs_of("serve-mixed"))


def test_reference_covers_every_cell():
    reference = json.loads(run.REFERENCE.read_text())["workloads"]
    for workload in tables.WORKLOADS:
        assert sorted(reference[workload]["cells"]) == \
            sorted(tables.all_cells(workload))


# ----------------------------------------------------------------------
# Layer diff
# ----------------------------------------------------------------------

def _ledger(path, table_values, cycles=100):
    """One untraced run per table time, and one traced run."""
    runs = [{"workload": "suite-live", "trace": 0,
             "metrics": {"table_s": {"value": value, "unit": "s"}}}
            for value in table_values]
    runs.append({"workload": "suite-live", "trace": 1,
                 "metrics": {"core.cycles": {"value": cycles,
                                             "unit": "count"},
                             "core.step_s": {"value": 1.0, "unit": "s"}}})
    path.write_text("".join(json.dumps(run) + "\n" for run in runs))
    return path


def _verdicts(lines):
    return {line.split()[0]: line for line in lines
            if not line.startswith("==")}


def test_layerdiff_calls_a_change_inside_the_spread_unresolved(tmp_path):
    before = _ledger(tmp_path / "a", [1.0, 1.2, 1.1, 0.9, 1.05])
    after = _ledger(tmp_path / "b", [1.05, 1.15, 1.0, 1.1, 1.12])
    lines = _verdicts(layerdiff.compare(before, after))
    assert "unresolved" in lines["table_s"]
    assert "same count" in lines["core.cycles"]
    assert "one sample" in lines["core.step_s"]


def test_layerdiff_resolves_a_change_beyond_the_spread(tmp_path):
    before = _ledger(tmp_path / "a", [1.0, 1.01, 0.99, 1.0, 1.02])
    after = _ledger(tmp_path / "b", [1.3, 1.31, 1.29, 1.3, 1.32], cycles=90)
    lines = _verdicts(layerdiff.compare(before, after))
    assert "worse" in lines["table_s"]
    assert "changed count" in lines["core.cycles"]
