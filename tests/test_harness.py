import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from selfheal.detector import load_checkpoint
from selfheal.depgraph import load_gnn
from selfheal.errors import (
    ConfigurationError,
    GenerationError,
    RowError,
    SchemaError,
    StageError,
    TrainingError,
)
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


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="the lane forks on Linux only")


@pytest.fixture(scope="module")
def fast_report():
    return run_pipeline(config_from_dict(FAST_CONFIG))


def _fields(err: BaseException) -> dict:
    """An exception's type, args and attributes, causes compared the same way."""
    return {"type": type(err), "args": err.args,
            **{k: _fields(v) if isinstance(v, BaseException) else v
               for k, v in vars(err).items()}}


@pytest.mark.parametrize("err", [
    RowError("cannot parse qps cell 'x'", 4),
    TrainingError("meta-loss is not finite", 12),
    StageError("tasks", GenerationError("no trace holds both classes")),
    StageError("detector", TrainingError("meta-loss is not finite", 12)),
], ids=["row", "training", "stage", "stage_of_training"])
def test_errors_survive_a_pickle_round_trip(err):
    # a StageError raised in the forked detector lane crosses a pipe
    again = pickle.loads(pickle.dumps(err, protocol=5))
    assert _fields(again) == _fields(err)
    assert str(again) == str(err)


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

    @pytest.mark.parametrize("raw, key", [({"seed": True}, "seed"), ({"seed": -1}, "seed"),
                                          ({"output_dir": 5}, "output_dir")])
    def test_top_level_values_checked_like_section_values(self, raw, key):
        with pytest.raises(ConfigurationError, match=re.escape(f"'{key}' must be")):
            config_from_dict(raw)

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

    @pytest.mark.parametrize(
        "agent, key",
        [
            ({"weights": [1.0, 2.0]}, "agent.weights"),
            ({"weights": [1.0, 1.0, 1.0, 1.0]}, "agent.weights"),
            ({"weights": []}, "agent.weights"),
            ({"sweep_grid": [[1.0, 1.0, 1.0], [0.6, 0.2]]}, "agent.sweep_grid.1"),
            ({"sweep_grid": [[1.0, 1.0, 1.0, 0.0]]}, "agent.sweep_grid.0"),
        ],
    )
    def test_weight_vector_must_have_three_numbers(self, tmp_path, capsys, agent, key):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"'{key}' must be three numbers")):
            config_from_dict({"agent": agent})
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"agent": agent}))
        assert main(["train-agent", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"'{key}' must be three numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", [-0.2, 1.5])
    def test_train_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigurationError,
                           match=re.escape("'gnn.train_fraction' must be in [0, 1]")):
            config_from_dict({"gnn": {"train_fraction": fraction}})

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 0.01])
    def test_train_fraction_must_leave_a_training_and_a_held_out_cascade(
        self, tmp_path, capsys, fraction
    ):
        raw = {"simulator": {"n_cascades": 10}, "gnn": {"train_fraction": fraction}}
        message = re.escape(f"'gnn.train_fraction' {fraction!r} of 'simulator.n_cascades' 10")
        with pytest.raises(ConfigurationError, match=message):
            config_from_dict(raw)
        path = tmp_path / "split.json"
        path.write_text(json.dumps(raw))
        assert main(["train-gnn", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("fraction", [0.1, 0.9])
    def test_train_fraction_leaving_one_cascade_on_a_side_loads(self, fraction):
        cfg = config_from_dict({"simulator": {"n_cascades": 10},
                                "gnn": {"train_fraction": fraction}})
        assert cfg.gnn.train_fraction == fraction

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

    @pytest.mark.parametrize("section, values, message", [
        ("detector", {"meta_batch": 0}, "'detector': meta_batch must be >= 1"),
        ("detector", {"meta_mode": "bogus"}, "'detector': meta_mode must be one of"),
        ("agent", {"gamma": 2.0}, "'agent': gamma must be in [0, 1]"),
        ("agent", {"lr": 0.0}, "'agent': lr must be positive"),
        ("agent", {"epsilon_start": 0.01, "epsilon_end": 0.3},
         "'agent': epsilon_start and epsilon_end need"),
        ("agent", {"sweep_grid": []}, "'agent.sweep_grid' must hold at least one"),
        ("agent", {"sweep_eval_episodes": 0}, "'agent.sweep_eval_episodes' must be"),
        ("eval", {"recovery_episodes": 0}, "'eval.recovery_episodes' must be"),
        ("eval", {"background_rows": 0}, "'eval.background_rows' must be"),
        ("eval", {"closed_loop_episodes": 0}, "'eval.closed_loop_episodes' must be"),
        ("agent", {"action_costs": {"reboot": 1.0}},
         "agent.action_costs names unknown action 'reboot'"),
        ("simulator", {"n_eval_patterns": 0}, "'simulator.n_eval_patterns' must be"),
        ("simulator", {"n_train_patterns": 0}, "'simulator.n_train_patterns' must be"),
        ("simulator", {"n_support": 0}, "'simulator.n_support' must be"),
        ("simulator", {"n_query": 0}, "'simulator.n_query' must be"),
        ("simulator", {"cascade_nodes": 0}, "'simulator.cascade_nodes' must be"),
        # a cascade's onset is drawn from 2-4, and must lie inside the horizon
        ("simulator", {"cascade_horizon": 4},
         "'simulator.cascade_horizon' must be an integer >= 5"),
        # more than the 2 * n_train_patterns + mix_count augmented tasks
        ("detector", {"meta_batch": 40}, "'detector.meta_batch' 40 exceeds the"),
        # each side of a split holds one window of each class
        ("simulator", {"n_support": 1}, "'simulator.n_support' must be an integer >= 2"),
        ("simulator", {"n_query": 1}, "'simulator.n_query' must be an integer >= 2"),
        ("simulator", {"anomaly_rate": 0.6},
         "'simulator.anomaly_rate': anomaly_rate must be in [0, 0.5]"),
        ("simulator", {"anomaly_rate": -0.1},
         "'simulator.anomaly_rate': anomaly_rate must be in [0, 0.5]"),
        ("simulator", {"fail_threshold": 0.0},
         "'simulator.fail_threshold': fail_threshold must be in (0, 1]"),
        ("simulator", {"fail_threshold": 1.5},
         "'simulator.fail_threshold': fail_threshold must be in (0, 1]"),
        ("simulator", {"jitter_std": -0.01}, "'simulator.jitter_std': jitter_std must be >= 0"),
        ("eval", {"tick_seconds": 0.0}, "'eval.tick_seconds': tick_seconds must be > 0"),
        ("detector", {"threshold": 1.0}, "'detector.threshold': threshold must be in (0, 1)"),
        ("detector", {"threshold": 0.0}, "'detector.threshold': threshold must be in (0, 1)"),
        ("gnn", {"lr": -0.3}, "'gnn.lr': learning rate must be >= 0"),
        ("agent", {"weights": [1.0, -1.0, 1.0]},
         "'agent.weights': weights must be nonnegative with a positive sum"),
        ("agent", {"weights": [0.0, 0.0, 0.0]},
         "'agent.weights': weights must be nonnegative with a positive sum"),
        ("agent", {"sweep_grid": [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]},
         "'agent.sweep_grid.1': weights must be nonnegative with a positive sum"),
        ("agent", {"sweep_grid": [[0.5, 0.5, -0.1]]},
         "'agent.sweep_grid.0': weights must be nonnegative with a positive sum"),
        # an episode's anomaly starts at tick 5 to 12
        ("agent", {"episode_ticks": 12}, "'agent.episode_ticks' must be an integer >= 13"),
        # probabilities are at most 1, so a higher threshold never flags
        ("gnn", {"flag_threshold": 1.5}, "'gnn.flag_threshold': flag_threshold must be <= 1"),
    ], ids=["meta_batch", "meta_mode", "gamma", "lr", "epsilon", "sweep_grid",
            "sweep_eval_episodes", "recovery_episodes", "background_rows",
            "closed_loop_episodes", "action_costs", "n_eval_patterns",
            "n_train_patterns", "n_support", "n_query", "cascade_nodes",
            "cascade_horizon", "meta_batch_over_pool", "n_support_1", "n_query_1",
            "anomaly_rate_high", "anomaly_rate_negative", "fail_threshold_zero",
            "fail_threshold_high", "jitter_std", "tick_seconds", "threshold_one",
            "threshold_zero", "gnn_lr", "weights_negative", "weights_zero",
            "sweep_grid_zero", "sweep_grid_negative", "episode_ticks", "flag_threshold"])
    def test_learner_range_or_zero_count_exits_at_load_by_key(
        self, tmp_path, capsys, section, values, message
    ):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            config_from_dict({section: values})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**FAST_CONFIG, "output_dir": str(tmp_path),
                                    section: {**FAST_CONFIG.get(section, {}), **values}}))
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("report.*"))

    def test_unknown_action_cost_name_rejected(self):
        with pytest.raises(ConfigurationError, match="explode"):
            config_from_dict({"agent": {"action_costs": {"explode": 1.0}}})

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
        for pairs in ([["no_op"]], [[1, 2.0]]):  # no cost; a name that is not a string
            with pytest.raises(ConfigurationError, match="must map action names to costs"):
                config_from_dict({"agent": {"action_costs": pairs}})


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

    def test_gnn_stage_holds_no_training_trace_while_it_trains(self, monkeypatch):
        from selfheal.depgraph import gnn as gnn_module
        from selfheal.harness import pipeline

        refs, alive_at_first_epoch = [], []
        make, kernel = pipeline.make_cascade_dataset, gnn_module.gnn_loss_and_grad

        def remember(trace):
            refs.append(weakref.ref(trace))
            return trace

        def watched(*args, **kwargs):
            if not alive_at_first_epoch:
                alive_at_first_epoch.append([ref() is not None for ref in refs])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(pipeline, "make_cascade_dataset",
                            lambda *args, **kwargs: map(remember, make(*args, **kwargs)))
        monkeypatch.setattr(gnn_module, "gnn_loss_and_grad", watched)
        _, dependency = pipeline.gnn_stage(config_from_dict({**FAST_CONFIG, "gnn": {"epochs": 2}}))
        # the 24 training traces are gone by the first epoch; the 6 held-out
        # ones are generated after training
        assert alive_at_first_epoch == [[False] * 24]
        assert len(refs) == 30
        assert (dependency["training_cascades"], dependency["held_out_cascades"]) == (24, 6)

    def test_gnn_stage_runs_before_the_tasks_and_detector_stages(self, monkeypatch):
        """The depgraph stage trains first in the process that trains it
        beside other stages. Its node-wide epoch arrays, the run's largest
        working set, then sit on the import floor, and the later stages reuse
        the space they free. This was measured, not derived: on perfbench's
        `desk` workload (seed 20260811, 2 vCPU, numpy 2.4.6), a run that
        loads neither `numpy.ma` nor `statistics` peaked at 40.3-40.4 MB with
        the GNN trained after the tasks and detector stages, and at 39.8 MB
        with it first. Forked, the tasks and detector stages run in the
        child, so this process records only its own lane; in process, they
        run at the join."""
        from selfheal.harness import pipeline

        order = []

        def recorded(name, stage):
            def run(*args, **kwargs):
                order.append(name)
                return stage(*args, **kwargs)
            return run

        names = ("gnn_stage", "build_tasks", "detector_stage", "agent_stage", "sweep_stage")
        for name in names:
            monkeypatch.setattr(pipeline, name, recorded(name, getattr(pipeline, name)))
        parent_lane = ["gnn_stage", "agent_stage", "sweep_stage"]
        for fork, expected in ((True, parent_lane),
                               (False, [*parent_lane, "build_tasks", "detector_stage"])):
            if fork and sys.platform != "linux":
                continue
            monkeypatch.setattr(pipeline, "FORK_LANES", fork)
            order.clear()
            pipeline.run_pipeline(config_from_dict(FAST_CONFIG))
            assert order == expected, f"FORK_LANES={fork}"

    @linux_only
    def test_forked_and_in_process_lanes_give_the_same_bytes(self, monkeypatch, tmp_path):
        from selfheal.harness import pipeline

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        written = []
        for fork, fork_call in ((True, os.fork), (False, os.fork), (True, no_fork)):
            monkeypatch.setattr(pipeline, "FORK_LANES", fork)
            monkeypatch.setattr(os, "fork", fork_call)
            report = run_pipeline(config_from_dict(FAST_CONFIG))
            out = tmp_path / f"{fork}-{fork_call.__name__}"
            written.append(emit_report(report, out)["json"].read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    @linux_only
    def test_forked_lane_returns_read_only_parameters(self):
        # pickle protocol 4 would hand back writeable copies; 5 keeps the flag
        from selfheal.harness import pipeline

        cfg = config_from_dict({**FAST_CONFIG, "detector": {"meta_iterations": 3}})
        meta, *_ = pipeline._join_lane(*pipeline._fork_lane(pipeline._detector_lane, cfg))
        arrays = meta.model.weights
        assert arrays and not any(a.flags.writeable for a in arrays)

    @linux_only
    def test_lane_that_dies_without_a_result_is_a_detector_stage_error(self):
        from selfheal.harness import pipeline

        cfg = config_from_dict(FAST_CONFIG)
        with pytest.raises(StageError, match="exited with code 7") as info:
            pipeline._join_lane(*pipeline._fork_lane(lambda cfg: os._exit(7), cfg))
        assert info.value.stage == "detector"

    @linux_only
    def test_parent_stage_failure_leaves_no_child(self, monkeypatch):
        from selfheal.harness import pipeline

        @pipeline._stage("depgraph")
        def broken(cfg):
            raise TrainingError("training loss is not finite", 0)

        monkeypatch.setattr(pipeline, "gnn_stage", broken)
        with pytest.raises(StageError, match="depgraph"):
            pipeline.run_pipeline(config_from_dict(FAST_CONFIG))
        with pytest.raises(ChildProcessError):  # no child left, not even a zombie
            os.waitpid(-1, os.WNOHANG)

    def test_run_loads_neither_numpy_ma_nor_statistics(self):
        # a fresh process: the test session itself may have loaded them. The
        # load cuts and the medians are computed from sorted values instead.
        import selfheal

        unwanted = ("numpy.ma", "statistics", "fractions", "decimal")
        script = (
            "import json, sys\n"
            "from selfheal.harness import config_from_dict, run_pipeline\n"
            f"run_pipeline(config_from_dict({FAST_CONFIG!r}))\n"
            f"print(json.dumps([m for m in {unwanted!r} if m in sys.modules]))\n"
        )
        src = str(Path(selfheal.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout.splitlines()[-1]) == []

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
        assert report.recovery["proposed"]["cost"] == 0.0  # the all-zero table idles

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

    def test_closed_loop_flags_cascades_at_the_configured_threshold(self, monkeypatch):
        from selfheal.depgraph import init_gnn
        from selfheal.harness import pipeline
        from selfheal.recovery import BALANCED_WEIGHTS, N_ACTIONS, N_STATES, Policy
        from selfheal.simulator.cascade import make_tree_graph

        thresholds = []

        def spy(*args, **kwargs):
            thresholds.append(kwargs.get("flag_threshold"))
            return predict(*args, **kwargs)

        predict = pipeline.predict_failures
        monkeypatch.setattr(pipeline, "predict_failures", spy)
        # a detector that flags every tick, so each cascade episode is scored
        monkeypatch.setattr(pipeline, "detect", lambda model, feature: (1.0, 1))
        cfg = config_from_dict({**FAST_CONFIG, "gnn": {"flag_threshold": 0.3},
                                "eval": {"closed_loop_episodes": 10}})
        gnn = init_gnn(make_tree_graph(cfg.simulator.cascade_nodes, seed=0), seed=0)
        pipeline._closed_loop(cfg, None, gnn, pipeline._recovery_env(cfg),
                              Policy(q=np.zeros((N_STATES, N_ACTIONS))), BALANCED_WEIGHTS,
                              (1.0, 1.0, 1.0))
        assert thresholds and set(thresholds) == {0.3}

    def test_report_sections_present(self, fast_report):
        raw = fast_report.to_dict()
        assert set(raw) == {
            "provenance", "detection", "adaptation", "dependency",
            "recovery", "pareto", "attribution", "closed_loop",
        }


class TestCompareAdaptation:
    def test_median_equals_statistics_median(self):
        import statistics

        from selfheal.harness.pipeline import _median

        rng = np.random.default_rng(0)
        for n in range(1, 30):  # odd and even counts, ties included
            counts = rng.integers(0, 26, n).tolist()
            assert repr(_median(counts)) == repr(float(statistics.median(counts)))

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
        # at this anomaly rate no trace holds both classes, so the tasks
        # stage fails after its bounded attempts
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps({**FAST_CONFIG, "simulator": {
            **FAST_CONFIG["simulator"], "anomaly_rate": 1e-6}}))
        assert main(["run", "--config", str(path)]) == 3
        assert "tasks" in capsys.readouterr().err

    def test_detector_lane_failure_exit_code_3(self, tmp_path, capsys, monkeypatch):
        # a forked lane inherits the patch. A diverging meta_lr would fail
        # too, but with overflow RuntimeWarnings on the way.
        from selfheal.harness import pipeline

        def diverging(cfg, train_tasks, eval_tasks):
            raise TrainingError("meta-loss is not finite", 3)

        monkeypatch.setattr(pipeline, "detector_stage", diverging)
        assert main(["run", "--config", str(self._write_config(tmp_path))]) == 3
        assert ("stage 'detector' failed: iteration 3: meta-loss is not finite"
                in capsys.readouterr().err)

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

    def test_sweep_writes_the_pareto_entries_run_reports(self, tmp_path, capsys):
        path = tmp_path / "costly.json"
        path.write_text(json.dumps({
            **FAST_CONFIG, "seed": 11, "output_dir": str(tmp_path),
            "agent": {**FAST_CONFIG["agent"], "action_costs": {"scale_up": 3.5}},
        }))
        assert main(["run", "--config", str(path)]) == 0
        assert main(["sweep", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert json.loads((tmp_path / "sweep.json").read_text()) == report["pareto"]["entries"]

    def test_train_commands_without_training_steps(self, tmp_path, capsys):
        # zero iterations, epochs and episodes save the initial models, as
        # `run` scores them; agent.episodes 0 trains the all-zero table
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
        path.write_text(json.dumps({**FAST_CONFIG, "output_dir": str(tmp_path), "simulator": {
            **FAST_CONFIG["simulator"], "anomaly_rate": 1e-6}}))
        assert main(["train-detector", "--config", str(path)]) == 3
        assert "stage 'tasks'" in capsys.readouterr().err
