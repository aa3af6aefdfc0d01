import json
import re
from pathlib import Path

import pytest

from selfheal.detector import load_checkpoint
from selfheal.depgraph import load_gnn
from selfheal.errors import ConfigurationError, SchemaError
from selfheal.harness import (
    RunConfig,
    RunReport,
    config_from_dict,
    emit_report,
    load_config,
    parse_report,
    render_markdown,
    resolved_config_json,
    run_pipeline,
)
from selfheal.harness.cli import main
from selfheal.recovery import load_policy
from selfheal.seeding import derive_seed

FAST_CONFIG = {
    "seed": 7,
    "simulator": {
        "n_train_patterns": 6,
        "n_eval_patterns": 3,
        "mix_count": 2,
        "n_cascades": 30,
    },
    "detector": {"meta_iterations": 80, "meta_batch": 4},
    "gnn": {"epochs": 40},
    "agent": {"episodes": 60, "sweep_episodes": 20, "sweep_eval_episodes": 3},
    "eval": {"recovery_episodes": 4, "closed_loop_episodes": 2},
}


@pytest.fixture(scope="module")
def fast_report():
    return run_pipeline(config_from_dict(FAST_CONFIG))


class TestConfig:
    def test_defaults_construct(self):
        cfg = RunConfig()
        assert cfg.detector.meta_iterations > 0
        assert cfg.simulator.window_width == 4

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            config_from_dict({"turbo": True})

    def test_unknown_section_key_named_with_path(self):
        with pytest.raises(ConfigurationError, match="detector.*warp"):
            config_from_dict({"detector": {"warp": 9}})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"seed": "abc"})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_config(path)

    def test_hash_changes_with_any_key(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 2})
        c = config_from_dict({"seed": 1, "gnn": {"epochs": 7}})
        assert a.hash() != b.hash()
        assert a.hash() != c.hash()
        assert a.hash() == config_from_dict({"seed": 1}).hash()

    def test_resolved_json_parses_back_identically(self):
        cfg = config_from_dict(FAST_CONFIG)
        assert config_from_dict(json.loads(resolved_config_json(cfg))) == cfg

    def test_desk_config_file_parses(self):
        cfg = load_config(Path(__file__).parent.parent / "configs" / "desk.json")
        assert cfg.seed == 20260811

    def test_action_cost_overrides(self):
        from selfheal.harness.config import resolve_action_costs
        from selfheal.recovery import RecoveryAction

        cfg = config_from_dict(
            {"agent": {"action_costs": {"scale_up": 4.0, "RESTART_COMPONENT": 6}}}
        )
        table = resolve_action_costs(cfg.agent)
        assert table[RecoveryAction.SCALE_UP] == 4.0
        assert table[RecoveryAction.RESTART_COMPONENT] == 6.0

    @pytest.mark.parametrize(
        "gnn, key",
        [
            ({"label_horizon": -3}, "gnn.label_horizon"),
            ({"label_horizon": 1.5}, "gnn.label_horizon"),
            ({"hidden_widths": [0]}, "gnn.hidden_widths.0"),
            ({"hidden_widths": [16, 2.5]}, "gnn.hidden_widths.1"),
            ({"hidden_widths": [16, "8"]}, "gnn.hidden_widths.1"),
        ],
    )
    def test_gnn_values_load_gnn_refuses_are_rejected(self, gnn, key):
        with pytest.raises(ConfigurationError, match=re.escape(f"'{key}' must be")):
            config_from_dict({"gnn": gnn})

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"gnn": {"epochs": -1}}, "gnn.epochs"),
            ({"simulator": {"window_width": 0}}, "simulator.window_width"),
            ({"simulator": {"n_train_patterns": "3"}}, "simulator.n_train_patterns"),
            ({"agent": {"episodes": True}}, "agent.episodes"),
            ({"eval": {"closed_loop_episodes": 2.0}}, "eval.closed_loop_episodes"),
            ({"simulator": {"anomaly_rate": float("nan")}}, "simulator.anomaly_rate"),
            ({"detector": {"inner_lr": "0.5"}}, "detector.inner_lr"),
            ({"agent": {"gamma": False}}, "agent.gamma"),
            ({"detector": {"meta_mode": 2}}, "detector.meta_mode"),
            ({"detector": {"hidden_widths": [32, -1]}}, "detector.hidden_widths.1"),
            ({"agent": {"weights": [1.0, True, 1.0]}}, "agent.weights.1"),
            ({"agent": {"sweep_grid": [[1.0, 0.0, 0.0], 0.5]}}, "agent.sweep_grid.1"),
            ({"agent": {"sweep_grid": [[1.0, "0", 0.0]]}}, "agent.sweep_grid.0.1"),
        ],
    )
    def test_wrong_type_or_negative_count_rejected_by_key(self, raw, key):
        with pytest.raises(ConfigurationError, match=re.escape(f"'{key}' must be")):
            config_from_dict(raw)

    def test_ints_stand_for_floats_and_zero_counts_load(self):
        cfg = config_from_dict({"simulator": {"anomaly_rate": 0, "mix_count": 0},
                                "agent": {"episodes": 0, "weights": [1, 1, 1]}})
        assert cfg.simulator.anomaly_rate == 0 and cfg.agent.episodes == 0

    def test_bad_count_exits_with_the_config_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gnn": {"epochs": -1}}))
        assert main(["train-gnn", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "'gnn.epochs' must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("widths, key", [([0], "detector.hidden_widths.0"),
                                             ([32, 0], "detector.hidden_widths.1")])
    def test_zero_detector_width_exits_with_the_config_code(self, tmp_path, capsys,
                                                            widths, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"detector": {"hidden_widths": widths}}))
        assert main(["train-detector", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"'{key}' must be an integer >= 1" in capsys.readouterr().err

    def test_unknown_action_cost_name_rejected(self):
        from selfheal.harness.config import resolve_action_costs

        cfg = config_from_dict({"agent": {"action_costs": {"explode": 1.0}}})
        with pytest.raises(ConfigurationError, match="explode"):
            resolve_action_costs(cfg.agent)

    @pytest.mark.parametrize("cost", [-1, -0.5, float("nan"), float("inf"), "3", True])
    def test_bad_action_cost_rejected_when_read(self, cost):
        with pytest.raises(ConfigurationError,
                           match=re.escape("'agent.action_costs.no_op' must be")):
            config_from_dict({"agent": {"action_costs": {"no_op": cost}}})

    def test_infinite_action_cost_in_file_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"agent": {"action_costs": {"scale_up": Infinity}}}')
        with pytest.raises(ConfigurationError, match=re.escape("agent.action_costs.scale_up")):
            load_config(path)

    def test_resolve_action_costs_applies_the_same_rule(self):
        from selfheal.harness import AgentSection
        from selfheal.harness.config import resolve_action_costs

        # a section built past its own check, as a caller mutating it could
        agent = AgentSection()
        object.__setattr__(agent, "action_costs", (("reroute_query", float("inf")),))
        with pytest.raises(ConfigurationError, match="agent.action_costs.reroute_query"):
            resolve_action_costs(agent)

    def test_malformed_action_cost_pairs_rejected(self):
        with pytest.raises(ConfigurationError, match="must map action names to costs"):
            config_from_dict({"agent": {"action_costs": [["no_op"]]}})


class TestReportEmission:
    def test_json_roundtrip_equals(self, fast_report, tmp_path):
        written = emit_report(fast_report, tmp_path)
        assert parse_report(written["json"]) == fast_report

    def test_markdown_has_one_table_per_metric_family(self, fast_report):
        text = render_markdown(fast_report)
        for family in ("## Detection", "## Adaptation latency",
                       "## Dependency modeling", "## Recovery"):
            assert family in text
        assert text.count("| --- |") >= 4

    def test_unknown_report_section_rejected(self):
        with pytest.raises(SchemaError, match="bogus"):
            RunReport.from_dict({"bogus": {}})

    def test_provenance_hash_matches_recomputation(self, fast_report):
        cfg = config_from_dict(FAST_CONFIG)
        assert fast_report.provenance["config_hash"] == cfg.hash()

    def test_markdown_matches_golden_snapshot(self, fast_report):
        golden = Path(__file__).parent / "golden" / "report.md"
        assert render_markdown(fast_report) == golden.read_text(encoding="utf-8")


class TestPipeline:
    def test_two_runs_byte_identical(self, fast_report, tmp_path):
        second = run_pipeline(config_from_dict(FAST_CONFIG))
        a = emit_report(fast_report, tmp_path / "a")["json"].read_bytes()
        b = emit_report(second, tmp_path / "b")["json"].read_bytes()
        assert a == b

    def test_baselines_share_episode_seeds(self, fast_report):
        seeds = fast_report.recovery["episode_seeds"]
        assert len(seeds) == len(set(seeds)) == fast_report.recovery["episodes"]

    def test_null_training_reports_chance_level_detection(self):
        cfg = config_from_dict(
            {
                **FAST_CONFIG,
                "detector": {"meta_iterations": 0, "meta_batch": 4,
                             "eval_inner_steps": 0},
                "agent": {"episodes": 0, "sweep_episodes": 1,
                          "sweep_eval_episodes": 1},
            }
        )
        report = run_pipeline(cfg)
        # an untrained, unadapted detector scores near 0.5 everywhere; with
        # threshold 0.5 it degenerates rather than reaching high F1
        assert report.detection["f1"] <= 0.75
        assert report.recovery["proposed"]["cost"] == 0.0  # zero policy idles

    def test_sweep_trains_with_the_configured_hyperparameters(self):
        from selfheal.harness.pipeline import _recovery_env, sweep_stage
        from selfheal.recovery import QHyper, RewardWeights, weight_sweep

        grid = [[1.0, 0.0, 0.0], [0.2, 0.4, 0.4]]
        small = {"sweep_grid": grid, "sweep_episodes": 6, "sweep_eval_episodes": 2}
        hyper = {"lr": 0.9, "gamma": 0.1, "epsilon_start": 1.0, "epsilon_end": 1.0}
        cfg = config_from_dict({**FAST_CONFIG, "agent": {**small, **hyper}})
        default = config_from_dict({**FAST_CONFIG, "agent": small})
        entries = sweep_stage(cfg)["entries"]
        assert entries != sweep_stage(default)["entries"]
        expected = weight_sweep(
            _recovery_env(cfg), [RewardWeights.normalized(*w) for w in grid],
            episodes=6, seed=derive_seed(cfg.seed, "agent", "sweep"),
            eval_episodes=2, hyper=QHyper(**hyper),
        )
        assert [e["objectives"] for e in entries] == [
            [e.objectives.latency, e.objectives.resource, e.objectives.cost]
            for e in expected.entries
        ]

    def test_report_sections_present(self, fast_report):
        raw = fast_report.to_dict()
        assert set(raw) == {
            "provenance", "detection", "adaptation", "dependency",
            "recovery", "pareto", "attribution", "closed_loop",
        }


class TestCompareAdaptation:
    def test_identical_initializations_give_identical_step_counts(self):
        from selfheal.detector import init_detector
        from selfheal.harness import compare_adaptation
        from selfheal.simulator import default_patterns, make_tasks

        tasks = make_tasks(default_patterns(2, seed=5, anomaly_rate=0.15),
                           6, 8, 4, seed=1)
        model = init_detector(20, seed=42)
        pairs = compare_adaptation(model, model, tasks, inner_lr=0.5, max_steps=10)
        assert all(p == b for p, b in pairs)


class TestCli:
    def _write_config(self, tmp_path) -> Path:
        path = tmp_path / "fast.json"
        payload = dict(FAST_CONFIG, output_dir=str(tmp_path / "out"))
        path.write_text(json.dumps(payload))
        return path

    def test_run_writes_reports(self, tmp_path, capsys):
        code = main(["run", "--config", str(self._write_config(tmp_path))])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.md").exists()

    def test_print_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(self._write_config(tmp_path)),
                     "--print-config"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["seed"] == 7

    def test_seed_override(self, tmp_path, capsys):
        code = main(["run", "--config", str(self._write_config(tmp_path)),
                     "--seed", "99", "--print-config"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_unknown_config_key_exit_code_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nonsense": 1}')
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("content", [b"", b'{"config": {', b"\xff\xfe{}", None],
                             ids=["empty", "truncated", "non_utf8", "missing"])
    def test_unreadable_report_input_exit_code_2(self, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_bytes(content)
        assert main(["report", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_missing_config_file_exit_code_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_stage_failure_exit_code_3(self, tmp_path, capsys):
        # n_support=1 cannot satisfy the both-classes-per-side contract, so
        # the tasks stage fails
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps({**FAST_CONFIG, "simulator": {"n_support": 1}}))
        assert main(["run", "--config", str(path)]) == 3
        assert "tasks" in capsys.readouterr().err

    def test_simulate_writes_traces_and_graph(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(self._write_config(tmp_path))])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "graph.json").exists()
        assert list(out.glob("trace-*.csv"))

    def test_report_reemission_roundtrip(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        redo = tmp_path / "redo"
        code = main(["report", "--input", str(tmp_path / "out" / "report.json"),
                     "--out", str(redo), "--config", str(config)])
        assert code == 0
        assert (redo / "report.json").read_bytes() == first

    def test_sweep_writes_front(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(self._write_config(tmp_path))])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert any(entry["on_front"] for entry in payload)

    def test_train_commands_write_artifacts(self, fast_report, tmp_path, capsys):
        config = self._write_config(tmp_path)
        for command in ("train-detector", "train-gnn", "train-agent", "sweep"):
            assert main([command, "--config", str(config)]) == 0
        out, cfg = tmp_path / "out", config_from_dict(FAST_CONFIG)
        detector = load_checkpoint(out / "detector.json")
        assert [w for w, _ in detector.layer_spec] == [*cfg.detector.hidden_widths, 1]
        assert load_gnn(out / "gnn.json").hidden_widths == cfg.gnn.hidden_widths
        assert load_policy(out / "policy.tsv").q.any()
        for curve in ("detector-loss.json", "gnn-loss.json", "agent-returns.json"):
            assert json.loads((out / curve).read_text())
        sweep = json.loads((out / "sweep.json").read_text())
        assert sweep == fast_report.pareto["entries"]

    def test_train_commands_without_training_steps(self, tmp_path, capsys):
        # zero iterations, epochs and episodes save the initial models, as
        # `run` scores them; agent.episodes 0 is the zero policy
        path = tmp_path / "idle.json"
        path.write_text(json.dumps({
            **FAST_CONFIG, "output_dir": str(tmp_path),
            "detector": {"meta_iterations": 0}, "gnn": {"epochs": 0},
            "agent": {"episodes": 0},
        }))
        for command in ("train-detector", "train-gnn", "train-agent"):
            assert main([command, "--config", str(path)]) == 0
        assert not load_policy(tmp_path / "policy.tsv").q.any()
        for curve in ("detector-loss.json", "gnn-loss.json", "agent-returns.json"):
            assert json.loads((tmp_path / curve).read_text()) == []
        assert "mean return" not in capsys.readouterr().out

    def test_train_detector_failure_names_stage(self, tmp_path, capsys):
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps({**FAST_CONFIG, "output_dir": str(tmp_path),
                                    "simulator": {"n_support": 1}}))
        assert main(["train-detector", "--config", str(path)]) == 3
        assert "stage 'tasks'" in capsys.readouterr().err
