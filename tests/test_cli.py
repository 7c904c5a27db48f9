"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _COMMANDS, main


class TestCli:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "error" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "VGG16" in out and "AlexNet" in out

    def test_arch(self, capsys):
        assert main(["arch"]) == 0
        out = capsys.readouterr().out
        assert "GlobalBuffer" in out and "star_coupler" in out

    def test_arch_scenario_flag(self, capsys):
        assert main(["arch", "--scenario", "aggressive"]) == 0
        assert "aggressive" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "mm^2" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["warp"])

    def test_bad_scenario_rejected_at_parse(self, capsys):
        """--scenario choices come from the scaling registry, so an
        unknown name fails argparse validation with the options listed."""
        with pytest.raises(SystemExit):
            main(["arch", "--scenario", "optimistic"])
        err = capsys.readouterr().err
        assert "conservative" in err and "aggressive" in err


class TestSubcommands:
    def test_every_subcommand_has_help(self, capsys):
        """`repro <cmd> --help` exits 0 and prints usage for every
        registered subcommand (the satellite CI smoke, run in-process)."""
        for name, _, _, _ in _COMMANDS:
            with pytest.raises(SystemExit) as exit_info:
                main([name, "--help"])
            assert exit_info.value.code == 0
            out = capsys.readouterr().out
            assert f"repro {name}" in out

    def test_command_table_covers_legacy_commands(self):
        names = {name for name, _, _, _ in _COMMANDS}
        assert {"fig2", "fig3", "fig4", "fig5", "all", "compare",
                "sensitivity", "roofline", "sweep", "arch", "area",
                "run"} <= names

    def test_sweep_json_dump(self, capsys, tmp_path):
        out_path = tmp_path / "records.json"
        assert main(["sweep", "--system", "crossbar", "--network", "tiny",
                     "--workers", "2", "--json", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        records = payload["records"]
        assert records and all("energy_per_mac_pj" in row
                               for row in records)
        assert {row["system"] for row in records} == {"crossbar"}
        # The stats record carries cache and planner counters (the
        # planner runs only on the parallel path).
        stats = payload["stats"]
        assert set(stats) == {"cache", "planner", "mapper"}
        assert stats["planner"]["planned"] > 0
        assert stats["planner"]["batches"] >= 1
        assert "results" in stats["cache"]

    def test_compare_json_dump(self, capsys, tmp_path):
        out_path = tmp_path / "compare.json"
        assert main(["compare", "--system", "albireo", "--json",
                     str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        records = payload["records"]
        assert {row["system"] for row in records} == {"albireo"}
        assert all("weight_conversion_pj_per_mac" in row
                   for row in records)
        # Serial comparison: no planner, but cache stats are live.
        assert payload["stats"]["cache"]["results"]["misses"] > 0

    def test_run_spec_command(self, capsys, tmp_path):
        spec = {
            "name": "cli-spec",
            "systems": ["crossbar"],
            "networks": ["tiny"],
            "scenarios": ["conservative"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        json_path = tmp_path / "out.json"
        assert main(["run", str(spec_path), "--json",
                     str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-spec" in out and "pJ/MAC" in out
        payload = json.loads(json_path.read_text())
        assert len(payload["records"]) == 1
        assert payload["records"][0]["system"] == "crossbar"

    def test_json_dash_keeps_stdout_parseable(self, capsys):
        """--json - claims stdout for the records; the table moves to
        stderr so piping into a JSON consumer works."""
        assert main(["sweep", "--system", "crossbar", "--network", "tiny",
                     "--json", "-"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert len(payload["records"]) == 24
        assert "pJ/MAC" in captured.err  # table still shown, on stderr

    def test_sweep_progress_lines_on_stderr(self, capsys):
        assert main(["sweep", "--system", "crossbar", "--network", "tiny",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[24/24]" in captured.err
        assert "[" not in captured.out.split("Sweep")[0]

    def test_no_progress_by_default(self, capsys):
        assert main(["sweep", "--system", "crossbar",
                     "--network", "tiny"]) == 0
        assert "[24/24]" not in capsys.readouterr().err

    def test_sweep_trace_flags(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main(["sweep", "--system", "crossbar", "--network", "tiny",
                     "--workers", "2",
                     "--trace", str(trace_path), "--trace-summary"]) == 0
        captured = capsys.readouterr()
        assert "trace:" in captured.out  # summary table on stdout
        assert "run_jobs" in captured.out
        events = validate_chrome_trace(json.loads(trace_path.read_text()))
        names = {event["name"] for event in events}
        assert "repro.sweep" in names
        assert "planner.build_plan" in names
        assert "worker.batch" in names
        # Workers appear as lanes distinct from the parent.
        assert len({event["tid"] for event in events}) >= 2

    def test_run_spec_unknown_system_lists_options(self, tmp_path,
                                                   capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"systems": ["warpdrive"],
                                         "networks": ["tiny"]}))
        # Library errors map to exit code 2 with a one-line message
        # (the options listed), not a traceback.
        assert main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "albireo" in err

    def test_run_spec_error_debug_flag_reraises(self, tmp_path):
        from repro.exceptions import SpecError

        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"systems": ["warpdrive"],
                                         "networks": ["tiny"]}))
        with pytest.raises(SpecError, match="albireo"):
            main(["--debug", "run", str(spec_path)])


class TestRunMultiSpec:
    """Multi-spec `repro run` shares one cache (one store open) and,
    with --keep-pool, one warm worker pool across all specs."""

    def _write_specs(self, tmp_path):
        base = {"systems": ["crossbar"], "networks": ["tiny"],
                "scenarios": ["conservative"]}
        spec1 = dict(base, name="multi-1",
                     grid={"global_buffer_kib": [256, 512]})
        spec2 = dict(base, name="multi-2",
                     grid={"global_buffer_kib": [512, 1024]})
        paths = []
        for spec in (spec1, spec2):
            path = tmp_path / f"{spec['name']}.json"
            path.write_text(json.dumps(spec))
            paths.append(str(path))
        return paths

    def test_multi_spec_opens_the_store_exactly_once(self, capsys,
                                                     tmp_path,
                                                     monkeypatch):
        from repro.engine import store as store_module

        opens = []
        original = store_module.ShardedStore.__init__

        def counting(self, *args, **kwargs):
            opens.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(store_module.ShardedStore, "__init__",
                            counting)
        paths = self._write_specs(tmp_path)
        assert main(["run", *paths, "--cache",
                     str(tmp_path / "cache")]) == 0
        capsys.readouterr()
        assert len(opens) == 1

    def test_multi_spec_overlap_hits_the_shared_cache(self, capsys,
                                                      tmp_path):
        """The 512 KiB point appears in both specs; sharing one cache
        means 4 evaluations but only 3 misses."""
        paths = self._write_specs(tmp_path)
        json_path = tmp_path / "out.json"
        assert main(["run", *paths, "--cache", str(tmp_path / "cache"),
                     "--json", str(json_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert len(payload["records"]) == 4
        results = payload["stats"]["cache"]["results"]
        assert results["misses"] == 3
        assert results["hits"] == 1

    def test_keep_pool_spawns_once_across_specs(self, capsys, tmp_path):
        """--keep-pool: one spawn for the whole command; later specs
        reuse the warm workers, and specs without use_mapper ship no
        cached entries to them."""
        paths = self._write_specs(tmp_path)
        json_path = tmp_path / "out.json"
        assert main(["run", *paths, "--cache", str(tmp_path / "cache"),
                     "--workers", "2", "--keep-pool",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "pool: 1 spawns" in out
        assert "0 cached mapper entries shipped" in out
        pool_stats = json.loads(json_path.read_text())["stats"]["pool"]
        assert pool_stats["spawns"] == 1
        # Later specs may need no dispatch at all (their misses assemble
        # from warm phase-1 layer entries); what matters is that no
        # respawn happened and nothing rode along.
        assert pool_stats["dispatches"] >= 1
        assert pool_stats["dep_entries"] == 0

    @pytest.mark.parametrize("command",
                             ["fig4", "fig5", "all", "compare", "sweep"])
    def test_keep_pool_is_rejected_outside_run(self, command, capsys):
        """Only `repro run` keeps a pool across several runs, so the other
        sweep-shaped commands refuse --keep-pool instead of ignoring it."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--keep-pool"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --keep-pool" \
            in capsys.readouterr().err


class TestServeSubmitCli:
    def test_serve_and_submit_registered(self):
        names = {name for name, _, _, _ in _COMMANDS}
        assert {"serve", "submit"} <= names

    def test_submit_unreachable_server_exits_2(self, capsys, tmp_path):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"systems": ["crossbar"],
                                         "networks": ["tiny"]}))
        assert main(["submit", str(spec_path), "--server",
                     f"http://127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot reach" in err

    def test_submit_trace_with_multiple_specs_rejected(self, capsys,
                                                       tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"systems": ["crossbar"],
                                         "networks": ["tiny"]}))
        assert main(["submit", str(spec_path), str(spec_path),
                     "--trace", str(tmp_path / "t.json")]) == 2
        assert "one spec per trace" in capsys.readouterr().err
