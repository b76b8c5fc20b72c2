"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "sjeng"])
        assert args.workload == "sjeng"
        # Budget flags default to unset so a --request-file can supply
        # them; the classic CLI budget is applied by the request layer.
        assert args.instructions is None
        from repro.cli import _request_from_args
        request = _request_from_args(args)
        assert request.instructions == 10_000 and request.skip == 10_000
        assert not args.pubs

    def test_machine_flags(self):
        args = build_parser().parse_args(
            ["run", "sjeng", "--pubs", "--priority-entries", "8",
             "--non-stall", "--age-matrix"])
        assert args.pubs and args.priority_entries == 8
        assert args.non_stall and args.age_matrix

    def test_invalid_org_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "sjeng", "--iq-org", "bogus"])

    def test_backend_flags_parse(self):
        args = build_parser().parse_args(
            ["suite", "--backend", "inline", "--workloads", "sjeng"])
        assert args.backend == "inline" and args.queue_dir is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--backend", "warp"])

    def test_fabric_subcommands_parse(self):
        parser = build_parser()
        worker = parser.parse_args(["worker", "--queue-dir", "/tmp/q",
                                    "--drain", "--max-jobs", "3"])
        assert worker.drain and worker.max_jobs == 3
        serve = parser.parse_args(["serve"])
        assert serve.host == "127.0.0.1" and serve.port == 0
        submit = parser.parse_args(["submit", "--workloads", "mcf",
                                    "--host", "127.0.0.1"])
        assert submit.host == "127.0.0.1" and submit.workloads == ["mcf"]
        status = parser.parse_args(["status", "--queue-dir", "/tmp/q"])
        assert status.queue_dir == "/tmp/q" and status.host is None


class TestRequestFile:
    def _request_for(self, argv):
        from repro.cli import _request_from_args
        return _request_from_args(build_parser().parse_args(argv))

    def test_request_file_supplies_unset_fields(self, tmp_path):
        from repro.core.config import RunRequest
        path = tmp_path / "req.json"
        path.write_text(RunRequest(instructions=777, skip=11,
                                   backend="inline").to_json())
        request = self._request_for(["run", "sjeng",
                                     "--request-file", str(path)])
        assert request.instructions == 777 and request.skip == 11
        assert request.backend == "inline"

    def test_explicit_flags_beat_the_request_file(self, tmp_path):
        from repro.core.config import RunRequest
        path = tmp_path / "req.json"
        path.write_text(RunRequest(instructions=777, jobs=4).to_json())
        request = self._request_for(["run", "sjeng", "-n", "1500",
                                     "--request-file", str(path)])
        assert request.instructions == 1500  # flag wins
        assert request.jobs == 4             # file fills the rest

    @pytest.mark.parametrize("command", [["verify", "--workload", "sjeng"],
                                         ["profile", "sjeng"]])
    def test_request_file_sampling_is_rejected(self, tmp_path, capsys,
                                               monkeypatch, command):
        """A sampled mode from the request file exits 2 like the flag."""
        from repro.core.config import RunRequest
        monkeypatch.delenv("REPRO_SAMPLING", raising=False)
        path = tmp_path / "req.json"
        path.write_text(RunRequest(sampling="adaptive").to_json())
        assert main(command + ["--request-file", str(path)]) == 2
        assert "--sampling must be off" in capsys.readouterr().err

    def test_malformed_request_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "req.json"
        path.write_text("{not json")
        assert main(["run", "sjeng", "--request-file", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sjeng" in out and "mcf" in out
        assert out.count("\n") >= 28

    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "brslice_tab" in out and "total" in out

    def test_disasm(self, capsys):
        assert main(["disasm", "sjeng"]) == 0
        out = capsys.readouterr().out
        assert "beqz" in out and "jump" in out

    def test_run(self, capsys):
        assert main(["run", "hmmer", "-n", "1500", "--skip", "1000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "branch MPKI" in out

    def test_run_with_pubs(self, capsys):
        assert main(["run", "sjeng", "--pubs", "-n", "1500",
                     "--skip", "1000"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_distributed(self, capsys):
        assert main(["run", "gcc", "--distributed", "--pubs", "-n", "1200",
                     "--skip", "800"]) == 0

    def test_run_shifting_org(self, capsys):
        assert main(["run", "gcc", "--iq-org", "shifting", "-n", "1200",
                     "--skip", "800"]) == 0

    def test_compare_defaults_to_pubs(self, capsys):
        assert main(["compare", "sjeng", "-n", "1500", "--skip", "1000"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_suite_subset(self, capsys):
        assert main(["suite", "--workloads", "hmmer", "sjeng",
                     "-n", "1200", "--skip", "800"]) == 0
        out = capsys.readouterr().out
        assert "GM" in out and "sjeng" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["run", "wrf", "-n", "100"])


class TestVerifyCommand:
    def test_verify_single_workload_full(self, capsys):
        assert main(["verify", "--workload", "sjeng", "-n", "1200",
                     "--skip", "800"]) == 0
        out = capsys.readouterr().out
        assert "ok   sjeng: 1200 commits oracle-checked" in out
        assert "invariant sweeps" in out
        assert "1/1 workload(s) verified at level=full" in out

    def test_verify_commit_only_level(self, capsys):
        assert main(["verify", "--workload", "mcf", "--level", "commit-only",
                     "-n", "800", "--skip", "500"]) == 0
        out = capsys.readouterr().out
        assert "ok   mcf: 800 commits oracle-checked" in out
        assert "sweeps" not in out
        assert "verified at level=commit-only" in out

    def test_verify_pubs_machine(self, capsys):
        assert main(["verify", "--workload", "sjeng", "--pubs",
                     "-n", "1000", "--skip", "600"]) == 0
        assert "1/1 workload(s) verified" in capsys.readouterr().out

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.workload is None  # all workloads
        assert args.level == "full" and args.interval == 256

    def test_verify_rejects_off_level(self):
        # "off" would make the command vacuous; the parser refuses it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--level", "off"])

    def test_sample_defaults(self):
        args = build_parser().parse_args(["sample", "mcf"])
        assert args.workloads == ["mcf"]
        assert args.instructions == 60_000
        assert args.strategy == "simpoint"
        assert not args.check_full

    def test_sample_rejects_bogus_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "--strategy", "psychic"])

    @pytest.fixture
    def isolated_store(self, monkeypatch, tmp_path):
        from repro.trace import store as store_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store_module.reset_shared_stores()
        yield
        store_module.reset_shared_stores()

    def test_sample_estimates(self, capsys, isolated_store):
        assert main(["sample", "mcf", "-n", "6000", "--skip", "1000",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sampled CPI" in out and "coverage" in out

    def test_trace_record_with_interval(self, capsys, isolated_store):
        assert main(["trace", "record", "--workload", "mcf", "-n", "2000",
                     "--skip", "500", "--interval", "1024"]) == 0
        out = capsys.readouterr().out
        assert "interval ckpts" in out and "1024" in out

    @pytest.mark.parametrize("argv", [
        ["trace", "record", "--workload", "mcf", "--interval", "-3"],
        ["sample", "mcf", "--regions", "0"],
        ["sample", "mcf", "--regions", "-2"],
        ["sample", "mcf", "--measure", "0"],
        ["sample", "mcf", "--interval", "0"],
    ])
    def test_non_positive_knobs_rejected_up_front(self, capsys, argv,
                                                  isolated_store):
        # Regression: these used to fail deep inside capture/replay with
        # an opaque traceback; now they exit 2 with a one-line error
        # before any simulation work starts.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert argv[-2].lstrip("-") in err  # names the offending flag

    def test_trace_interval_zero_still_allowed(self, capsys,
                                               isolated_store):
        # 0 means "no interval checkpoints", which is a valid request.
        assert main(["trace", "record", "--workload", "mcf", "-n", "1500",
                     "--skip", "500", "--interval", "0"]) == 0

    def test_suite_replay_matches_live(self, capsys, isolated_store):
        # Regression: --frontend used to leak into _machine_from_args,
        # defeating the "no machine flags -> compare against PUBS"
        # default, so a replay suite compared base against itself and
        # reported +0.00% everywhere.  Replay must print the exact same
        # table as live.
        argv = ["suite", "--workloads", "sjeng", "-n", "1500",
                "--skip", "500", "--no-cache"]
        assert main(argv) == 0
        live = capsys.readouterr().out
        assert main(argv + ["--frontend", "replay"]) == 0
        replay = capsys.readouterr().out
        assert "+0.00%" not in live
        assert replay == live


class TestStressCommand:
    def test_list_names_every_family(self, capsys):
        from repro.workloads.stress import FAMILIES

        assert main(["stress", "list"]) == 0
        out = capsys.readouterr().out
        for name in FAMILIES:
            assert name in out
        assert "resource" in out

    def test_run_one_family_passes(self, capsys):
        assert main(["stress", "run", "load_after_store",
                     "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "load_after_store" in out and "[PASS]" in out
        assert "1/1 family satisfied" in out

    def test_contract_failure_exits_nonzero(self, capsys):
        # bias_bits=12 defeats the H2P kernel, so its contract must fail
        # and the command must say so through the exit code.
        assert main(["stress", "run", "branch_h2p", "--knob", "12",
                     "--no-sweep"]) == 1
        out = capsys.readouterr().out
        assert "BOTTLENECK CONTRACT FAILED" in out

    def test_unknown_family_rejected(self, capsys):
        assert main(["stress", "run", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err

    def test_stress_defaults(self):
        args = build_parser().parse_args(["stress", "run"])
        assert args.families == []
        assert args.knob is None and not args.no_sweep


class TestCacheStats:
    """Regression: per-namespace rows must match what is on disk."""

    def _kb(self, n: int) -> str:
        return f"{n / 1024:.1f} KB"

    def test_stats_report_per_namespace_usage(self, capsys, tmp_path):
        from repro.exec.cache import ResultCache

        results = ResultCache(tmp_path)
        traces = ResultCache.for_namespace("traces", tmp_path)
        warm = ResultCache.for_namespace("warm", tmp_path)
        results.put("r1", {"cpi": 1.0})
        results.put("r2", {"cpi": 2.0})
        traces.put("t1", b"x" * 4096)
        warm.put("w1", {"state": list(range(64))})

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        cells = {}
        for line in out.splitlines():
            if "|" in line:
                prop, _, value = line.partition("|")
                cells[prop.strip()] = value.strip()

        for name, ns in [("results", results), ("traces", traces),
                         ("warm", warm)]:
            assert cells[f"{name} entries"] == str(len(ns))
            assert cells[f"{name} size"] == self._kb(ns.size_bytes())
        assert cells["total entries"] == str(len(results) + len(traces)
                                             + len(warm))
        total_bytes = sum(ns.size_bytes()
                          for ns in (results, traces, warm))
        assert cells["total size"] == self._kb(total_bytes)

    def test_stats_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results entries" in out and "total entries" in out
