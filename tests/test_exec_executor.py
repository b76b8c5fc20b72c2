"""Sweep executor: parallel == serial, dedup, warm-cache short circuit."""

import os

from repro import ProcessorConfig
from repro.analysis import run_pair, run_suite
from repro.exec import ResultCache, SimJob, SweepExecutor, default_jobs

INSTRUCTIONS = 300
SKIP = 200

WORKLOADS = ["sjeng", "mcf"]


def _batch():
    base = ProcessorConfig.cortex_a72_like()
    return [SimJob.make(name, cfg, INSTRUCTIONS, SKIP)
            for name in WORKLOADS for cfg in (base, base.with_pubs())]


class TestSweepExecutor:
    def test_parallel_results_equal_serial(self):
        batch = _batch()
        serial = SweepExecutor(jobs=1, cache=False).run(batch)
        parallel = SweepExecutor(jobs=2, cache=False).run(batch)
        assert parallel == serial  # dataclass equality: exact stats match

    def test_results_come_back_in_request_order(self):
        batch = _batch()
        executor = SweepExecutor(jobs=1, cache=False)
        results = executor.run(batch)
        assert [r.stats.committed for r in results] == \
            [INSTRUCTIONS] * len(batch)
        # Different workloads/configs produce observably different runs.
        assert len({r.stats.cycles for r in results}) > 1
        assert results == executor.run(list(reversed(batch)))[::-1]

    def test_duplicate_jobs_simulate_once(self):
        job = _batch()[0]
        executor = SweepExecutor(jobs=1, cache=False)
        a, b = executor.run([job, job])
        assert a == b
        assert executor.simulations_run == 1
        assert executor.deduplicated == 1

    def test_duplicate_jobs_across_submissions_simulate_once(self):
        """One suite submission = one executor lifetime: a job repeated
        in a later run() call is served from the in-memory memo even
        with the persistent cache off (cold-cache dedup)."""
        job = _batch()[0]
        executor = SweepExecutor(jobs=1, cache=False)
        first = executor.run([job])
        second = executor.run([job])
        assert first == second
        assert executor.simulations_run == 1
        assert executor.deduplicated == 1

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        batch = _batch()
        cold = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        first = cold.run(batch)
        assert cold.simulations_run == len(batch)
        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        second = warm.run(batch)
        assert warm.simulations_run == 0
        assert warm.cache.stats.hits == len(batch)
        assert second == first

    def test_summary_mentions_cache_state(self, tmp_path):
        assert "cache=off" in SweepExecutor(jobs=1, cache=False).summary()
        on = SweepExecutor(jobs=1, cache=ResultCache(tmp_path)).summary()
        assert "hits=0" in on

    def test_default_jobs_env_override(self, monkeypatch):
        # Unset (or garbage), the default is the CPUs this process may
        # actually use -- the affinity mask where the platform has one,
        # not the raw host count -- and never less than 1.
        try:
            usable = max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            usable = os.cpu_count() or 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert default_jobs() == usable
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert default_jobs() == usable
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() == usable


class TestRunnerIntegration:
    def test_parallel_run_suite_equals_serial(self):
        base = ProcessorConfig.cortex_a72_like()
        configs = {"base": base, "pubs": base.with_pubs()}
        serial = run_suite(configs, WORKLOADS, instructions=INSTRUCTIONS,
                           skip=SKIP, jobs=1, cache=False)
        parallel = run_suite(configs, WORKLOADS, instructions=INSTRUCTIONS,
                             skip=SKIP, jobs=2, cache=False)
        assert serial == parallel
        assert set(serial) == {"base", "pubs"}
        assert set(serial["base"]) == set(WORKLOADS)

    def test_run_pair_parallel_matches_serial(self):
        base = ProcessorConfig.cortex_a72_like()
        serial = run_pair("sjeng", base, base.with_pubs(),
                          instructions=INSTRUCTIONS, skip=SKIP,
                          jobs=1, cache=False)
        parallel = run_pair("sjeng", base, base.with_pubs(),
                            instructions=INSTRUCTIONS, skip=SKIP,
                            jobs=2, cache=False)
        assert serial.base == parallel.base
        assert serial.variant == parallel.variant

    def test_run_suite_uses_persistent_cache(self, tmp_path, monkeypatch):
        import repro.analysis.runner as runner_mod
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        monkeypatch.setattr(runner_mod, "_EXECUTOR", executor)
        configs = {"base": ProcessorConfig.cortex_a72_like()}
        first = run_suite(configs, WORKLOADS, instructions=INSTRUCTIONS,
                          skip=SKIP)
        again = run_suite(configs, WORKLOADS, instructions=INSTRUCTIONS,
                          skip=SKIP)
        assert executor.simulations_run == len(WORKLOADS)
        assert executor.cache.stats.hits >= len(WORKLOADS)
        assert first == again

    def test_cold_cache_suite_with_jobs_fills_the_cache(self, tmp_path,
                                                        monkeypatch):
        """An explicit ``jobs`` executor shares the (still empty) cache.

        Regression: an empty ResultCache is falsy, so a cold
        ``run_suite(jobs=1)`` used to run uncached and store nothing.
        """
        import repro.analysis.runner as runner_mod
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(runner_mod, "_EXECUTOR", None)
        built = []

        class Recording(SweepExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner_mod, "SweepExecutor", Recording)
        configs = {"base": ProcessorConfig.cortex_a72_like()}
        first = run_suite(configs, WORKLOADS, instructions=INSTRUCTIONS,
                          skip=SKIP, jobs=1)
        again = run_suite(configs, WORKLOADS, instructions=INSTRUCTIONS,
                          skip=SKIP, jobs=1)
        assert built[-1].simulations_run == 0
        assert built[-1].cache.stats.hits == len(WORKLOADS)
        assert first == again
