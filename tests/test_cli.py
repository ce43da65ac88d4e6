"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig6_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.app == "vld"
        assert args.duration == 480.0

    def test_fig9_options(self):
        args = build_parser().parse_args(
            ["fig9", "--app", "fpd", "--enable-at", "100", "--duration", "200"]
        )
        assert args.app == "fpd"
        assert args.enable_at == 100.0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--store", "runs/"])
        assert args.store == "runs/"
        assert args.host == "127.0.0.1"
        assert args.port == 8151
        assert args.job_workers == 2

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_every_verb_has_an_epilog(self):
        """Help epilogs are part of the UX contract: each verb shows a
        worked example (or equivalent guidance) under its options."""
        parser = build_parser()
        actions = [
            a
            for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        ]
        subparsers = actions[0].choices
        missing = [name for name, sp in subparsers.items() if not sp.epilog]
        assert not missing, f"verbs without an epilog: {missing}"

    def test_serve_missing_manifest_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="tolerance manifest not found"):
            main(
                [
                    "serve",
                    "--store",
                    str(tmp_path),
                    "--manifest",
                    str(tmp_path / "absent.json"),
                ]
            )


class TestExecution:
    def test_table2_runs(self, capsys):
        code = main(["table2", "--repetitions", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Scheduling" in out

    def test_fig8_runs(self, capsys):
        code = main(["fig8", "--duration", "60", "--warmup", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "underestimation" in out

    def test_fig6_vld_short(self, capsys):
        code = main(["fig6", "--duration", "120", "--warmup", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "10:11:1" in out

    def test_baselines_short(self, capsys):
        code = main(
            ["baselines", "--app", "vld", "--duration", "90", "--warmup", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drs" in out

    def test_list_policies(self, capsys):
        code = main(["list-policies"])
        assert code == 0
        out = capsys.readouterr().out
        assert "drs.min_sojourn" in out
        assert "threshold" in out

    def test_run_scenario(self, capsys, tmp_path):
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(
            name="cli-smoke",
            workload="synthetic",
            workload_params={
                "total_cpu": 0.03,
                "arrival_rate": 20.0,
                "hop_latency": 0.004,
            },
            policy="none",
            initial_allocation="10:10:10",
            duration=60.0,
            warmup=10.0,
            replications=2,
            seed=17,
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        code = main(["run-scenario", str(path), "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-smoke" in out
        assert "rep 0" in out and "rep 1" in out

    def test_run_scenario_json_output(self, capsys, tmp_path):
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(
            name="cli-json",
            workload="synthetic",
            workload_params={"total_cpu": 0.03, "arrival_rate": 20.0},
            policy="none",
            initial_allocation="10:10:10",
            duration=30.0,
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        code = main(["run-scenario", str(path), "--json", "--workers", "1"])
        assert code == 0
        import json

        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "cli-json"
        assert len(summary["replications"]) == 1

    def test_run_scenario_bad_spec_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "workload": "nope", "policy": "none"}')
        code = main(["run-scenario", str(path)])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_run_scenario_missing_file(self):
        with pytest.raises(SystemExit):
            main(["run-scenario", "/does/not/exist.json"])

    def test_trace_path_resolves_against_working_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        """The shipped trace scenario names its trace relative to the
        repository root; run from elsewhere, the error says which file
        was tried and which directory it was resolved against."""
        spec = (
            pathlib.Path(__file__).resolve().parents[1]
            / "examples" / "scenarios" / "trace_replay.json"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["run-scenario", str(spec), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        tried = tmp_path.resolve() / "examples" / "traces" / "flash_crowd.csv"
        assert f"tried {tried}" in err
        assert f"working directory {tmp_path.resolve()}" in err


class TestCampaignCommands:
    def campaign_file(self, tmp_path):
        import json

        spec = {
            "name": "cli-campaign",
            "base": {
                "workload": "synthetic",
                "workload_params": {
                    "total_cpu": 0.03,
                    "arrival_rate": 20.0,
                    "hop_latency": 0.004,
                },
                "policy": "none",
                "duration": 40.0,
                "warmup": 5.0,
                "replications": 2,
                "seed": 17,
            },
            "axes": [
                {
                    "name": "allocation",
                    "field": "initial_allocation",
                    "values": ["8:8:8", "10:10:10"],
                }
            ],
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_campaign_and_resume(self, capsys, tmp_path):
        path = self.campaign_file(tmp_path)
        store = tmp_path / "store"
        code = main(
            ["run-campaign", str(path), "--store", str(store), "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "computed=4 reused=0" in out
        code = main(
            ["run-campaign", str(path), "--store", str(store), "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "computed=0 reused=4" in out

    def test_run_campaign_dry_run(self, capsys, tmp_path):
        path = self.campaign_file(tmp_path)
        store = tmp_path / "store"
        code = main(["run-campaign", str(path), "--store", str(store), "--dry-run"])
        assert code == 0
        assert "4 replications total, 0 cached" in capsys.readouterr().out

    def test_run_campaign_json_output(self, capsys, tmp_path):
        import json

        path = self.campaign_file(tmp_path)
        code = main(["run-campaign", str(path), "--json", "--workers", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "cli-campaign"
        assert payload["computed"] == 4
        assert len(payload["cells"]) == 2

    def test_campaign_report_from_store(self, capsys, tmp_path):
        path = self.campaign_file(tmp_path)
        store = tmp_path / "store"
        assert main(["run-campaign", str(path), "--store", str(store)]) == 0
        capsys.readouterr()
        code = main(["campaign-report", str(path), "--store", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregated from store" in out
        assert "8:8:8" in out and "10:10:10" in out

    def test_shards_require_store(self, tmp_path):
        path = self.campaign_file(tmp_path)
        with pytest.raises(SystemExit, match=r"^--shards requires --store$"):
            main(["run-campaign", str(path), "--shards", "2"])

    def test_campaign_report_requires_store(self):
        with pytest.raises(SystemExit):
            main(["campaign-report", "whatever.json"])

    def test_campaign_report_missing_store_errors(self, tmp_path):
        path = self.campaign_file(tmp_path)
        missing = tmp_path / "no-such-store"
        with pytest.raises(SystemExit, match="result store not found"):
            main(["campaign-report", str(path), "--store", str(missing)])
        assert not missing.exists()

    def test_run_campaign_missing_file(self):
        with pytest.raises(SystemExit):
            main(["run-campaign", "/does/not/exist.json"])

    def test_run_campaign_bad_spec_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "base": {"workload": "nope"}}')
        code = main(["run-campaign", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
