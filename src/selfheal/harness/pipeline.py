"""End-to-end orchestration: train every learner, run the closed loop, and
collect the full metric report.

All randomness flows from the run seed through named substreams (simulator /
detector / gnn / agent / eval), so retraining one component never perturbs the
others and two runs of the same config produce identical reports.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys

import numpy as np

from .. import __version__
from ..errors import StageError
from ..seeding import derive_seed
from ..detector import (
    ADAPT_LOSS_BOUND,
    DetectorModel,
    MetaConfig,
    detect,
    evaluate,
    init_detector,
    inner_adapt,
    meta_train,
)
from ..depgraph import (
    mttfp,
    predict_failures,
    prediction_rates,
    score_traces,
    train_gnn,
)
from ..explain import BackgroundSet, metric_groups, shapley_attribution
from ..recovery import (
    RecoveryEnv,
    RewardWeights,
    estimate_normalizers,
    evaluate_policy,
    no_op_policy,
    random_policy,
    state_index,
    state_positions,
    train_agent,
    weight_sweep,
    weighted_objective,
)
from ..simulator import augment_tasks, default_patterns, make_tasks
from ..simulator.cascade import make_cascade_dataset, make_tree_graph, propagate_cascade
from ..simulator.tasks import window_feature
from .config import RunConfig, resolve_action_costs
from .report import RunReport


def _stage(name):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except StageError:
                raise
            except Exception as err:
                raise StageError(name, err) from err

        return run

    return wrap


def _median(counts: list[int]) -> float:
    """`statistics.median` of a nonempty list, without importing `statistics`
    (and with it `fractions` and `decimal`)."""
    ordered, mid = sorted(counts), len(counts) // 2
    return float(ordered[mid]) if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def compare_adaptation(
    meta_model: DetectorModel,
    baseline_model: DetectorModel,
    tasks,
    inner_lr: float,
    max_steps: int,
) -> list[tuple[int, int]]:
    """Adaptation-step counts for both initializations on identical tasks."""
    cfg = MetaConfig(inner_lr=inner_lr, inner_steps=max_steps)
    return [(proposed.adaptation_steps, baseline.adaptation_steps)
            for proposed, baseline in zip(evaluate(meta_model, tasks, cfg),
                                          evaluate(baseline_model, tasks, cfg))]


def workload_patterns(cfg: RunConfig, split: str):
    """The simulator's "train" or "eval" workload patterns."""
    sim = cfg.simulator
    count = sim.n_train_patterns if split == "train" else sim.n_eval_patterns
    return default_patterns(
        count, seed=derive_seed(derive_seed(cfg.seed, "simulator"), f"{split}-patterns"),
        anomaly_rate=sim.anomaly_rate,
    )


def _recovery_env(cfg: RunConfig) -> RecoveryEnv:
    agent = cfg.agent
    return RecoveryEnv(
        episode_ticks=agent.episode_ticks,
        action_costs=resolve_action_costs(agent),
        seed=derive_seed(derive_seed(cfg.seed, "agent"), "env"),
    )


@_stage("tasks")
def build_tasks(cfg: RunConfig):
    sim = cfg.simulator
    seed = derive_seed(cfg.seed, "simulator")
    train_tasks = make_tasks(
        workload_patterns(cfg, "train"), sim.n_support, sim.n_query, sim.window_width,
        seed=derive_seed(seed, "train-tasks"),
    )
    train_tasks = augment_tasks(
        train_tasks, sim.jitter_std, sim.mix_count, seed=derive_seed(seed, "augment")
    )
    eval_tasks = make_tasks(
        workload_patterns(cfg, "eval"), sim.n_support, sim.n_query, sim.window_width,
        seed=derive_seed(seed, "eval-tasks"),
    )
    return train_tasks, eval_tasks


@_stage("detector")
def detector_stage(cfg: RunConfig, train_tasks, eval_tasks):
    """Meta-train and score the detector: (MetaTrainResult, detection, adaptation)."""
    det = cfg.detector
    seed = derive_seed(cfg.seed, "detector")
    width = train_tasks[0].feature_width
    layer_spec = tuple((w, "relu") for w in det.hidden_widths) + ((1, "sigmoid"),)
    init = init_detector(width, seed=derive_seed(seed, "init"),
                         layer_spec=layer_spec, threshold=det.threshold)
    result = meta_train(init, train_tasks, det, seed=derive_seed(seed, "train"))

    eval_cfg = MetaConfig(inner_lr=det.inner_lr, inner_steps=det.eval_inner_steps)
    reports = evaluate(result.model, eval_tasks, eval_cfg)
    detection = {
        "precision": float(np.mean([r.precision for r in reports])),
        "recall": float(np.mean([r.recall for r in reports])),
        "f1": float(np.mean([r.f1 for r in reports])),
        "per_task_f1": [r.f1 for r in reports],
        "tasks": len(eval_tasks),
        "inner_steps": det.eval_inner_steps,
    }

    baseline = init_detector(width, seed=derive_seed(seed, "baseline-init"),
                             layer_spec=layer_spec, threshold=det.threshold)
    pairs = compare_adaptation(
        result.model, baseline, eval_tasks, det.inner_lr, det.adapt_max_steps
    )
    adaptation = {
        "per_task": [list(p) for p in pairs],
        "median_proposed": _median([p for p, _ in pairs]),
        "median_baseline": _median([b for _, b in pairs]),
        "max_steps": det.adapt_max_steps,
        "loss_bound": ADAPT_LOSS_BOUND,
    }
    return result, detection, adaptation


@_stage("depgraph")
def gnn_stage(cfg: RunConfig):
    """Train and score the failure predictor: (GnnTrainResult, dependency)."""
    sim, gnn_cfg = cfg.simulator, cfg.gnn
    seed = derive_seed(cfg.seed, "gnn")
    traces = make_cascade_dataset(
        sim.n_cascades, seed=derive_seed(seed, "cascades"),
        n_nodes=sim.cascade_nodes, horizon=sim.cascade_horizon,
        fail_threshold=sim.fail_threshold,
    )
    # the first `split` traces train the network as they are generated; the
    # rest are generated after training, so no trace is held while it trains
    split = int(sim.n_cascades * gnn_cfg.train_fraction)
    result = train_gnn(
        itertools.islice(traces, split), hidden_widths=gnn_cfg.hidden_widths,
        epochs=gnn_cfg.epochs, lr=gnn_cfg.lr, seed=derive_seed(seed, "train"),
        label_horizon=gnn_cfg.label_horizon,
    )
    held = list(traces)
    accuracy, predictions = score_traces(result.gnn, held,
                                         flag_threshold=gnn_cfg.flag_threshold)
    leads, early, alarms, misses = [], 0, [], []
    for trace, pred in zip(held, predictions):
        lead = mttfp(pred, trace, cfg.eval.tick_seconds)
        if lead is not None and lead > 0:
            early += 1
            leads.append(lead)
        rates = prediction_rates(pred, trace)
        alarms.append(rates["false_alarm_rate"])
        misses.append(rates["miss_rate"])
    dependency = {
        "accuracy": float(accuracy),
        "mttfp_seconds": float(np.mean(leads)) if leads else None,
        "early_warning_fraction": early / len(held),
        "false_alarm_rate": float(np.mean(alarms)),
        "miss_rate": float(np.mean(misses)),
        "held_out_cascades": len(held),
        "training_cascades": split,
    }
    return result, dependency


@_stage("agent")
def agent_stage(cfg: RunConfig):
    """Train and score the recovery agent against the random and no-op
    baselines: (env, AgentTrainResult, weights, normalizers, recovery)."""
    agent = cfg.agent
    seed = derive_seed(cfg.seed, "agent")
    env = _recovery_env(cfg)
    weights = RewardWeights.normalized(*agent.weights)
    result = train_agent(env, weights, episodes=agent.episodes, hyper=agent,
                         seed=derive_seed(seed, "train"))

    eval_seed = derive_seed(cfg.seed, "eval")
    episode_seeds = [
        derive_seed(eval_seed, "recovery-episode", i)
        for i in range(cfg.eval.recovery_episodes)
    ]
    norms = estimate_normalizers(env, seed=derive_seed(eval_seed, "normalizers"))
    proposed = evaluate_policy(env, result.policy.choose, episode_seeds)
    rand = evaluate_policy(
        env, random_policy(derive_seed(eval_seed, "random-policy")), episode_seeds
    )
    noop = evaluate_policy(env, no_op_policy, episode_seeds)

    def as_entry(vec):
        return {
            "latency_ms": vec.latency,
            "resource": vec.resource,
            "cost": vec.cost,
            "weighted": weighted_objective(vec, weights, norms),
        }

    entries = {"proposed": as_entry(proposed), "random": as_entry(rand),
               "no_op": as_entry(noop)}
    recovery = {
        **entries,
        "improvement_vs_random_pct": {
            key: 100.0 * (entries["random"][key] - entries["proposed"][key])
            / entries["random"][key]
            for key in ("latency_ms", "resource", "cost", "weighted")
            if entries["random"][key] > 0
        },
        "improvement_vs_no_op_pct": {
            key: 100.0 * (entries["no_op"][key] - entries["proposed"][key])
            / entries["no_op"][key]
            for key in ("latency_ms", "resource", "weighted")
            if entries["no_op"][key] > 0
        },
        "normalizers": list(norms),
        "weights": [weights.latency, weights.resource, weights.cost],
        "episode_seeds": episode_seeds,
        "episodes": len(episode_seeds),
    }
    return env, result, weights, norms, recovery


@_stage("sweep")
def sweep_stage(cfg: RunConfig):
    """Train across the weight grid and mark the Pareto front, on its own
    build of the agent stage's environment (an env keeps nothing across
    `reset`, so a build gives the same episodes)."""
    agent = cfg.agent
    grid = [RewardWeights.normalized(*w) for w in agent.sweep_grid]
    result = weight_sweep(
        _recovery_env(cfg), grid, episodes=agent.sweep_episodes,
        seed=derive_seed(cfg.seed, "agent", "sweep"),
        eval_episodes=agent.sweep_eval_episodes, hyper=agent,
    )
    front_ids = {id(e) for e in result.front}
    return {
        "entries": [
            {
                "weights": [e.weights.latency, e.weights.resource, e.weights.cost],
                "objectives": list(e.objectives),
                "on_front": id(e) in front_ids,
            }
            for e in result.entries
        ],
        "front_size": len(result.front),
    }


@_stage("closed_loop")
def _closed_loop(cfg: RunConfig, model: DetectorModel, gnn, env: RecoveryEnv,
                 policy, weights, norms):
    """Per tick: detect on the latest telemetry window, gate the agent's
    anomaly awareness on the detector flag, predict cascade impact when a
    cascade is flagged, then apply the greedy action."""
    eval_seed = derive_seed(cfg.seed, "eval", "closed-loop")
    width = cfg.simulator.window_width
    episodes = []
    action_counts: dict[str, int] = {}
    for e in range(cfg.eval.closed_loop_episodes):
        ep_seed = derive_seed(eval_seed, "episode", e)
        state = env.reset(ep_seed)
        history: list[list[float]] = []  # current_metrics() rows
        kind, onset = env.episode_anomaly()
        first_flag = None
        false_flags = 0
        cascade_pred = None
        done = False
        tick = 0
        while not done:
            history.append(env.current_metrics())
            window = history[-width:]
            # left-pad the first few ticks
            feature = window_feature([window[0]] * (width - len(window)) + window)
            _, flag = detect(model, feature)
            truly_active = env.true_anomaly_kind() is not None
            if flag and truly_active and first_flag is None:
                first_flag = tick
            if flag and not truly_active:
                false_flags += 1
            if flag and truly_active and kind == "cascade" and cascade_pred is None:
                graph = make_tree_graph(
                    cfg.simulator.cascade_nodes, seed=derive_seed(ep_seed, "graph")
                )
                trace = propagate_cascade(
                    graph, "n0", onset=min(onset, cfg.simulator.cascade_horizon - 1),
                    horizon=cfg.simulator.cascade_horizon,
                    fail_threshold=cfg.simulator.fail_threshold,
                    seed=derive_seed(ep_seed, "cascade"),
                )
                pred = predict_failures(graph, trace.telemetry, gnn,
                                        horizon=trace.ticks,
                                        flag_threshold=cfg.gnn.flag_threshold)
                lead = mttfp(pred, trace, cfg.eval.tick_seconds)
                cascade_pred = {"early_warning": lead is not None and lead > 0,
                                "lead_seconds": lead}
            # the agent sees the anomaly only once the detector flags it
            load, anomaly, failed = state_positions(state)
            observed = state_index(load, anomaly if flag else 0, failed)  # 0: "none"
            action = policy.greedy(observed)
            action_counts[action.name] = action_counts.get(action.name, 0) + 1
            state, done = env.step(action)
            tick += 1
        episodes.append(
            {
                "episode_seed": ep_seed,
                "anomaly_kind": kind,
                "onset": onset,
                "detection_delay_ticks": None if first_flag is None
                else first_flag - onset,
                "false_flag_ticks": false_flags,
                "cascade_prediction": cascade_pred,
                "final_weighted_snapshot": weighted_objective(
                    env.snapshot(), weights, norms
                ),
            }
        )
    delays = [e["detection_delay_ticks"] for e in episodes
              if e["detection_delay_ticks"] is not None]
    return {
        "episodes": episodes,
        "detected_fraction": len(delays) / len(episodes),
        "mean_detection_delay_ticks": float(np.mean(delays)) if delays else None,
        "actions": dict(sorted(action_counts.items())),
    }


@_stage("explain")
def _attribution(cfg: RunConfig, model: DetectorModel, eval_tasks):
    """Shapley report for the first flagged anomalous query window.

    The explained model is the deployed one: the meta-trained detector after
    adaptation on the task's support set. The background is that task's own
    normal windows."""
    det = cfg.detector
    groups = metric_groups(cfg.simulator.window_width)
    for task in eval_tasks:
        adapted = model.with_weights(inner_adapt(
            model.weights, (task.support_x, task.support_y), det.inner_lr,
            det.eval_inner_steps, model.layer_spec,
        ))
        normals = np.concatenate(
            [task.support_x[task.support_y == 0.0], task.query_x[task.query_y == 0.0]]
        )
        if len(normals) < 2:
            continue
        background = BackgroundSet(normals[: cfg.eval.background_rows])
        for row, label in zip(task.query_x, task.query_y):
            if label == 1.0 and detect(adapted, row)[1] == 1:
                att = shapley_attribution(adapted, row, background, groups)
                return {
                    "groups": list(att.group_names),
                    "contributions": list(att.contributions),
                    "base_value": att.base_value,
                    "instance_value": att.instance_value,
                    "source_task": task.source_pattern_id,
                }
    return {"groups": [], "contributions": [], "base_value": None,
            "instance_value": None, "source_task": None}


# Linux only: elsewhere fork is unsafe or missing, and the lane runs in
# process at its join point.
FORK_LANES = sys.platform == "linux"


@_stage("detector")
def _detector_lane(cfg: RunConfig):
    """The tasks and detector stages: (MetaTrainResult, detection, adaptation,
    eval_tasks). It raises only StageErrors, which pickle."""
    train_tasks, eval_tasks = build_tasks(cfg)
    return (*detector_stage(cfg, train_tasks, eval_tasks), eval_tasks)


def _fork_lane(lane, cfg: RunConfig) -> tuple[int, int] | None:
    """Run `lane(cfg)` in a forked child, which pickles its result, or the
    StageError it raised, into a pipe and exits. Returns the child's pid and
    the pipe's read end, or None if no child could be started."""
    sys.stdout.flush()  # else the child could write the parent's buffered output again
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the lane runs in process
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        try:
            payload = lane(cfg)
        except StageError as err:
            payload = err
        data = pickle.dumps(payload, protocol=5)  # 5 keeps read-only arrays read-only
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)


def _kill_lane(pid: int) -> None:
    os.kill(pid, 9)  # SIGKILL, without importing `signal`
    os.waitpid(pid, 0)


@_stage("detector")
def _join_lane(pid: int, read_fd: int):
    """Read the forked lane's result to EOF and reap the child; a StageError
    the lane raised re-raises here unchanged."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        _kill_lane(pid)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not data:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        raise ChildProcessError(f"the detector lane's process {how} without a result")
    result = pickle.loads(data)
    if isinstance(result, StageError):
        raise result
    return result


def run_pipeline(cfg: RunConfig) -> RunReport:
    # Two lanes. The learners share no state and draw from their own seed
    # substreams, so where they train does not change the report. A forked
    # child runs the tasks and detector stages while this process trains the
    # GNN, the agent and the sweep, which balances the two lanes on `desk`.
    # The GNN trains first: its node-wide epoch arrays, the run's largest
    # working set, then sit on the import floor, and the later stages reuse
    # what they free, so the run peaks lower.
    lane = _fork_lane(_detector_lane, cfg) if FORK_LANES else None
    try:
        gnn, dependency = gnn_stage(cfg)
        env, agent, weights, norms, recovery = agent_stage(cfg)
        pareto = sweep_stage(cfg)
    except BaseException:
        if lane is not None:
            os.close(lane[1])
            _kill_lane(lane[0])
        raise
    meta, detection, adaptation, eval_tasks = (
        _detector_lane(cfg) if lane is None else _join_lane(*lane))
    closed_loop = _closed_loop(cfg, meta.model, gnn.gnn, env, agent.policy, weights,
                               norms)
    attribution = _attribution(cfg, meta.model, eval_tasks)
    return RunReport(
        provenance={
            "config_hash": cfg.hash(),
            "seed": cfg.seed,
            "version": __version__,
        },
        detection=detection,
        adaptation=adaptation,
        dependency=dependency,
        recovery=recovery,
        pareto=pareto,
        attribution=attribution,
        closed_loop=closed_loop,
    )
