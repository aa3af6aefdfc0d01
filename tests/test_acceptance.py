"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a failing criterion shows up as a failing test.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from selfheal.seeding import derive_seed
from selfheal.numerics import (
    finite_diff_grad,
    gnn_loss_and_grad,
    gnn_param_shapes,
    init_mlp_params,
    mlp_forward,
    mlp_loss_and_grad,
    ops,
)
from selfheal.detector import (
    MetaConfig,
    evaluate,
    init_detector,
    inner_adapt,
    meta_gradient,
    meta_update,
)
from selfheal.depgraph import (
    init_embeddings,
    init_gnn,
    gnn_layer,
    mttfp,
    node_failure_accuracy,
    predict_failures,
    train_gnn,
)
from selfheal.depgraph.gnn import NodeEmbeddings, edge_arrays
from selfheal.explain import BackgroundSet, shapley_attribution
from selfheal.harness import emit_report, load_config, run_pipeline
from selfheal.recovery import (
    BALANCED_WEIGHTS,
    ObjectiveVector,
    RecoveryEnv,
    estimate_normalizers,
    evaluate_policy,
    no_op_policy,
    pareto_front,
    random_policy,
    train_agent,
    weighted_objective,
)
from selfheal.simulator import ComponentGraph, Task
from selfheal.simulator.cascade import make_cascade_dataset

ROOT_SEED = 20260811
_SUITE_T0 = time.monotonic()
DESK_CONFIG = Path(__file__).parent.parent / "configs" / "desk.json"


def _passed(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def _bits(weights):
    """A weight list as comparable bytes: each array's shape and bits."""
    return [(np.shape(w), np.asarray(w).tobytes()) for w in weights]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_gradient_oracle():
    t0 = time.monotonic()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 5))
        hidden = int(rng.integers(2, 6))
        params = init_mlp_params(width, [hidden, 1], seed=seed + 50_000)
        x = rng.normal(size=(6, width))
        y = rng.integers(0, 2, size=(6, 1)).astype(float)
        # a +-1e-4 step of W0 or b0 moves row r's pre-activations by at most
        # 1e-4 * max(1, max |x_r|); within that of 0 the central difference
        # straddles relu's kink and the oracle itself is wrong
        z = x @ params[0] + params[1]
        reach = 1e-4 * np.maximum(1.0, np.abs(x).max(axis=1, keepdims=True))
        assert (np.abs(z) > reach).all(), (
            f"MLP seed {seed}: a relu pre-activation lies within the "
            "finite-difference reach of the kink")

        # the detector's closed-form gradient against central differences of
        # its loss
        reverse = mlp_loss_and_grad(params, x, y[:, 0])[1]
        oracle = finite_diff_grad(
            lambda p: float(mlp_loss_and_grad(p, x, y[:, 0])[0]), params, 1e-4,
        )
        for k, (a, b) in enumerate(zip(reverse, oracle, strict=True)):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-8), f"MLP seed {seed}, weight {k}"

    # 3-node chain GNN fixture
    graph = ComponentGraph(
        [("n0", "query", (0.5, 0.5)), ("n1", "table", (0.5, 0.5)),
         ("n2", "index", (0.5, 0.5))],
        [("n0", "n1", 1.0), ("n1", "n2", 1.0)],
    )
    gnn = init_gnn(graph, seed=11, hidden_widths=(4,))
    edges = edge_arrays(graph)
    telemetry = np.full((3, 2, 5), 0.3)
    h0 = init_embeddings(graph, telemetry, 0).vectors
    labels = np.array([[1.0], [0.0], [1.0]])
    # the GNN's closed-form gradient, as training takes it: the input
    # embeddings aggregated once
    x = ops.edge_aggregate(h0, edges)

    def kernel(weights):
        return gnn_loss_and_grad(weights, x, labels, edges)

    names = gnn_param_shapes(gnn.input_width, gnn.hidden_widths)
    reverse = kernel(gnn.weights)[1]
    oracle = finite_diff_grad(lambda w: float(kernel(w)[0]), gnn.weights, 1e-4)
    for name, a, b in zip(names, reverse, oracle, strict=True):
        assert np.allclose(a, b, rtol=1e-5, atol=1e-8), f"GNN {name}"

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s (limit 10s)"
    _passed(1, f"100 MLPs + GNN fixture match finite differences ({elapsed:.1f}s)")


def test_c02_maml_identity_cases():
    params = init_detector(3, seed=1, hidden_widths=(4,)).weights
    rng = np.random.default_rng(0)
    task = Task(rng.normal(size=(4, 3)), np.array([0.0, 1.0, 0.0, 1.0]),
                rng.normal(size=(4, 3)), np.array([1.0, 0.0, 1.0, 0.0]), "t")
    support = (task.support_x, task.support_y)
    assert _bits(inner_adapt(params, support, 0.0, 5)) == _bits(params)
    assert _bits(inner_adapt(params, support, 0.5, 0)) == _bits(params)
    cfg = MetaConfig(inner_lr=0.5, meta_lr=0.0, inner_steps=1, meta_batch=1,
                     meta_iterations=1)
    assert _bits(meta_update(params, [task], cfg)) == _bits(params)
    _passed(2, "inner_adapt and meta_update are exact identities at zero rates")


def test_c03_meta_gradient_oracle():
    # linear-regression surrogate: weights (u, v), squared error on one point
    u0, v0 = 0.4, 0.2
    x_s, y_s, x_q, y_q = 1.2, 0.9, -0.7, 0.1
    alpha = 0.1
    params = [np.array(u0), np.array(v0)]
    task = Task(np.array([[x_s]]), np.array([y_s]),
                np.array([[x_q]]), np.array([y_q]), "fixture")

    def loss_fn(weights, x, y):
        # squared error and its gradient on arrays, the tasks on a leading axis
        u, v = weights
        x, resid = x[..., 0, 0], u * x[..., 0, 0] + v - y[..., 0]
        return resid * resid, [2.0 * resid * x, 2.0 * resid]

    base = dict(inner_lr=alpha, meta_lr=1.0, inner_steps=1, meta_batch=1,
                meta_iterations=1)
    fd = meta_gradient(params, [task], MetaConfig(**base, meta_mode="exact_fd_oracle"),
                       loss_fn=loss_fn)

    # hand-derived chain rule: grad F = (I - alpha H_s)^T grad L_q(theta')
    r_s = u0 * x_s + v0 - y_s
    u1, v1 = u0 - alpha * 2 * r_s * x_s, v0 - alpha * 2 * r_s
    r_q = u1 * x_q + v1 - y_q
    grad_q = np.array([2 * r_q * x_q, 2 * r_q])
    hessian = 2.0 * np.array([[x_s * x_s, x_s], [x_s, 1.0]])
    expected = (np.eye(2) - alpha * hessian).T @ grad_q
    got = np.ravel(fd)
    assert np.all(np.abs(got - expected) <= 1e-4 * np.maximum(np.abs(expected), 1e-8))

    fo = np.ravel(meta_gradient(params, [task], MetaConfig(**base, meta_mode="first_order"),
                                loss_fn=loss_fn))
    cosine = float(fo @ got / (np.linalg.norm(fo) * np.linalg.norm(got)))
    assert cosine >= 0.95
    _passed(3, f"exact FD meta-gradient matches chain rule; cosine(FO, exact)={cosine:.4f}")


def test_c04_adaptation_latency_direction(detector_runs):
    t0 = time.monotonic()
    model, held_tasks, baseline_seed = detector_runs[0]
    baseline = init_detector(20, seed=baseline_seed)
    cfg = MetaConfig(inner_lr=0.5, inner_steps=25)
    proposed = [r.adaptation_steps for r in evaluate(model, held_tasks, cfg)]
    base = [r.adaptation_steps for r in evaluate(baseline, held_tasks, cfg)]
    median_p = float(np.median(proposed))
    median_b = float(np.median(base))
    assert median_p <= 5.0, f"meta-trained median {median_p} > 5"
    assert median_b >= 2.0 * median_p, f"baseline {median_b} < 2x proposed {median_p}"
    elapsed = time.monotonic() - t0 + detector_runs["elapsed"] / 5
    assert elapsed < 120.0, f"adaptation check took {elapsed:.0f}s (limit 2min)"
    _passed(4, f"median adaptation steps {median_p:.0f} (meta) vs {median_b:.0f} (random)")


def test_c05_detection_quality_direction(detector_runs):
    cfg = MetaConfig(inner_lr=0.5, inner_steps=5)
    means = []
    for i in range(5):
        model, held_tasks, _ = detector_runs[i]
        means.append(float(np.mean([r.f1 for r in evaluate(model, held_tasks, cfg)])))
    overall = float(np.mean(means))
    assert overall >= 0.85, f"mean F1 {overall:.3f} < 0.85 (per-seed {means})"
    _passed(5, f"held-out F1 after <=5 inner steps: {overall:.3f} over 5 seeds")


def test_c06_gnn_layer_fixture():
    graph = ComponentGraph(
        [("a", "query", ()), ("b", "table", ())], [("a", "b", 0.9)]
    )
    h = NodeEmbeddings(0, ("a", "b"), np.array([[1.0, 2.0], [0.5, -1.0]]))
    w = np.array([[0.3, -0.2], [0.1, 0.4]])
    b = np.array([0.05, -0.05])
    out = gnn_layer(graph, h, (w, b, "relu"))
    expected_a = np.maximum(np.array([1.0, 2.0]) @ w + b, 0.0)
    expected_b = np.maximum(np.array([1.5, 1.0]) @ w + b, 0.0)
    assert np.all(np.abs(out.vector("a") - expected_a) <= 1e-12)
    assert np.all(np.abs(out.vector("b") - expected_b) <= 1e-12)

    zero = gnn_layer(graph, h, (np.zeros((2, 3)), np.array([0.2, -0.3, 0.0]), "relu"))
    assert np.array_equal(zero.vectors,
                          np.tile(np.maximum([0.2, -0.3, 0.0], 0.0), (2, 1)))

    nodes = [("x", "query", (0.1,)), ("y", "table", (0.2,)), ("z", "disk", (0.3,))]
    edges = [("x", "y", 0.8), ("y", "z", 0.6)]
    g1 = ComponentGraph(nodes, edges)
    g2 = ComponentGraph([nodes[1], nodes[2], nodes[0]], edges)
    # each graph's telemetry rows in its own node order
    series = {"x": np.full((1, 5), 0.2), "y": np.full((1, 5), 0.4),
              "z": np.full((1, 5), 0.6)}
    telemetry1 = np.stack([series[nid] for nid in g1.node_ids])
    telemetry2 = np.stack([series[nid] for nid in g2.node_ids])
    rng = np.random.default_rng(0)
    layer = (rng.normal(size=(11, 3)), rng.normal(size=3), "relu")
    out1 = gnn_layer(g1, init_embeddings(g1, telemetry1, 0), layer)
    out2 = gnn_layer(g2, init_embeddings(g2, telemetry2, 0), layer)
    for nid in ("x", "y", "z"):
        assert np.array_equal(out1.vector(nid), out2.vector(nid))
    _passed(6, "hand-computed layer fixture, zero-W bias case, and equivariance hold")


def test_c07_cascade_prediction_direction():
    t0 = time.monotonic()
    traces = list(make_cascade_dataset(200, seed=derive_seed(ROOT_SEED, "acc7")))
    train, held = traces[:160], traces[160:]
    result = train_gnn(train, epochs=300, lr=0.3,
                       seed=derive_seed(ROOT_SEED, "acc7", "train"))
    accuracy = node_failure_accuracy(result.gnn, held)
    assert accuracy >= 0.85, f"held-out accuracy {accuracy:.3f} < 0.85"

    early = 0
    leads = []
    for trace in held:
        pred = predict_failures(trace.graph, trace.telemetry, result.gnn,
                                horizon=trace.ticks)
        lead = mttfp(pred, trace, tick_seconds=1.0)
        if lead is not None and lead > 0:
            early += 1
            leads.append(lead)
    fraction = early / len(held)
    assert fraction >= 0.8, f"early warning on {fraction:.0%} of cascades < 80%"
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"cascade check took {elapsed:.0f}s (limit 3min)"
    _passed(7, f"accuracy {accuracy:.3f}, early warning on {fraction:.0%} "
               f"(mean lead {np.mean(leads):.2f}s, {elapsed:.0f}s)")


def test_c08_pareto_oracle():
    def brute_force(points):
        tuples = [(p.latency, p.resource, p.cost) for p in points]
        keep = []
        for i, pa in enumerate(tuples):
            dominated = False
            for j, qa in enumerate(tuples):
                if j == i:
                    continue
                if (qa[0] <= pa[0] and qa[1] <= pa[1] and qa[2] <= pa[2]
                        and qa != pa):
                    dominated = True
                    break
            if not dominated:
                keep.append(i)
        return keep

    for seed in range(20):
        rng = np.random.default_rng(derive_seed(ROOT_SEED, "acc8", seed))
        pts = [ObjectiveVector(*row) for row in rng.uniform(0, 100, size=(1000, 3))]
        fast = pareto_front(pts)
        fast_idx = []
        used = set()
        for p in fast:
            for i, q in enumerate(pts):
                if i not in used and q is p:
                    fast_idx.append(i)
                    used.add(i)
                    break
        assert fast_idx == brute_force(pts), f"seed {seed}"

        scaled = [ObjectiveVector(p.latency * 3.5, p.resource * 3.5, p.cost * 3.5)
                  for p in pts]
        assert len(pareto_front(scaled)) == len(fast)
        front_set = {id(p) for p in fast}
        scaled_front = pareto_front(scaled)
        kept = [i for i, p in enumerate(pts) if id(p) in front_set]
        kept_scaled = [i for i, p in enumerate(scaled)
                       if any(p is q for q in scaled_front)]
        assert kept == kept_scaled, f"scaling changed membership at seed {seed}"
    _passed(8, "front equals brute-force oracle on 20x1000 points; scale-invariant")


def test_c09_recovery_direction():
    t0 = time.monotonic()
    rows = []
    for trial in range(5):
        seed = derive_seed(ROOT_SEED, "acc9", trial)
        env = RecoveryEnv(episode_ticks=40, seed=derive_seed(seed, "env"))
        result = train_agent(env, BALANCED_WEIGHTS, episodes=900,
                             seed=derive_seed(seed, "train"))
        eval_seeds = [derive_seed(seed, "eval", i) for i in range(16)]
        norms = estimate_normalizers(env, seed=derive_seed(seed, "norms"))
        trained = evaluate_policy(env, result.policy.choose, eval_seeds)
        rand = evaluate_policy(env, random_policy(derive_seed(seed, "randpi")),
                               eval_seeds)
        noop = evaluate_policy(env, no_op_policy, eval_seeds)
        rows.append((
            weighted_objective(trained, BALANCED_WEIGHTS, norms),
            weighted_objective(rand, BALANCED_WEIGHTS, norms),
            weighted_objective(noop, BALANCED_WEIGHTS, norms),
        ))
    arr = np.array(rows)
    mean_t, mean_r, mean_n = arr.mean(axis=0)
    assert mean_t <= 0.8 * mean_r, (
        f"trained {mean_t:.3f} not 20% below random {mean_r:.3f}"
    )
    assert mean_t <= mean_n, f"trained {mean_t:.3f} above no_op {mean_n:.3f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"recovery check took {elapsed:.0f}s (limit 3min)"
    _passed(9, f"weighted objective {mean_t:.3f} vs random {mean_r:.3f} "
               f"and no_op {mean_n:.3f} over 5 seeds ({elapsed:.0f}s)")


def test_c10_shapley_properties():
    # efficiency on 50 random models/instances
    for trial in range(50):
        rng = np.random.default_rng(derive_seed(ROOT_SEED, "acc10", trial))
        model = init_detector(10, seed=trial + 900, hidden_widths=(6,))
        background = BackgroundSet(rng.normal(size=(5, 10)))
        x = rng.normal(size=10)
        groups = {f"g{i}": [2 * i, 2 * i + 1] for i in range(5)}
        att = shapley_attribution(lambda data: mlp_forward(model.weights, data)[-1],
                                  x, background, groups)
        gap = abs(sum(att.contributions) + att.base_value - att.instance_value)
        assert gap <= 1e-9, f"efficiency violated by {gap:.2e} at trial {trial}"

    # linear closed form
    rng = np.random.default_rng(derive_seed(ROOT_SEED, "acc10", "linear"))
    w = rng.normal(size=6)
    background = BackgroundSet(rng.normal(size=(9, 6)))
    x = rng.normal(size=6)
    att = shapley_attribution(lambda data: data @ w + 0.3, x, background,
                              {f"f{i}": [i] for i in range(6)})
    closed_form = w * (x - background.rows.mean(axis=0))
    assert np.all(np.abs(np.array(att.contributions) - closed_form) <= 1e-9)

    # dummy and symmetry axioms
    att = shapley_attribution(lambda data: data @ np.array([1.0, 0.0]), np.array([3.0, 9.0]),
                              BackgroundSet(np.zeros((3, 2))),
                              {"used": [0], "ignored": [1]})
    assert abs(att.contributions[1]) <= 1e-9

    att = shapley_attribution(lambda data: data @ np.array([2.0, 2.0]), np.array([1.0, 1.0]),
                              BackgroundSet(np.full((2, 2), 0.25)),
                              {"a": [0], "b": [1]})
    assert abs(att.contributions[0] - att.contributions[1]) <= 1e-9
    _passed(10, "efficiency (50 cases), linear closed form, dummy, symmetry hold")


def test_c11_determinism(tmp_path):
    cfg = load_config(DESK_CONFIG)
    first = emit_report(run_pipeline(cfg), tmp_path / "a")
    second = emit_report(run_pipeline(cfg), tmp_path / "b")
    json_a = first["json"].read_bytes()
    assert json_a == second["json"].read_bytes(), "reports differ between runs"
    assert first["markdown"].read_bytes() == second["markdown"].read_bytes()

    # same bytes from a single-threaded BLAS process
    script = (
        "import sys, json; from selfheal.harness import load_config, run_pipeline; "
        f"cfg = load_config({str(DESK_CONFIG)!r}); "
        "report = run_pipeline(cfg); "
        "sys.stdout.write(json.dumps(report.to_dict(), indent=2, sort_keys=True))"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.encode() + b"\n" == json_a, (
        "report differs under a different BLAS thread count"
    )
    _passed(11, "desk run reports are byte-identical across runs and thread counts")


def test_c12_suite_runtime():
    elapsed = time.monotonic() - _SUITE_T0
    assert elapsed < 600.0, f"acceptance suite took {elapsed:.0f}s (limit 10min)"
    _passed(12, f"criteria 1-11 completed in {elapsed:.0f}s")
