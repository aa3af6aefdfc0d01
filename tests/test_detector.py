import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from selfheal.errors import InputError, SchemaError
from selfheal.detector import (
    ADAPT_LOSS_BOUND,
    DEFAULT_HIDDEN_WIDTHS,
    DetectorModel,
    MetaConfig,
    detect,
    evaluate,
    init_detector,
    inner_adapt,
    load_checkpoint,
    meta_gradient,
    meta_train,
    meta_update,
    save_checkpoint,
)
from selfheal.numerics import descend, mlp_forward, mlp_loss_and_grad
from selfheal.simulator import Task, default_patterns, make_tasks
from taped import GradientTape, bce_loss, detector_spec, forward_mlp, grad, value_of


def bits(weights):
    """A weight list as comparable bytes: each array's shape and bits."""
    return [(np.shape(w), np.asarray(w).tobytes()) for w in weights]


def constant_half_model(width=4) -> DetectorModel:
    return DetectorModel([np.zeros((width, 1)), np.zeros(1)])


def tiny_task(seed=0, n=8, width=4) -> Task:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, width))
    y = (x[:, 0] > 0).astype(float)
    half = n // 2
    return Task(x[:half], y[:half], x[half:], y[half:], f"tiny-{seed}")


# --- linear-regression surrogate used for the hand-derived meta fixtures ---
# weights: slope u and intercept v; squared-error loss on one (x, y) point.


def quadratic_loss(weights, x, y):
    """(u x + v - y)^2 and its gradient (2 r x, 2 r) in the residual r, as a
    custom `loss_fn`: one point per task, the tasks on any leading axes."""
    u, v = weights
    x, resid = x[..., 0, 0], u * x[..., 0, 0] + v - y[..., 0]
    return resid * resid, [2.0 * resid * x, 2.0 * resid]


def quad_task(x_s, y_s, x_q, y_q) -> Task:
    return Task(
        np.array([[x_s]]), np.array([y_s]), np.array([[x_q]]), np.array([y_q]), "quad"
    )


class TestTaskLoss:
    """A task's loss, the mean BCE of the model's outputs over a labeled set,
    as the detector's `mlp_loss_and_grad` gives it."""

    @staticmethod
    def loss(params, x, y) -> float:
        return float(mlp_loss_and_grad(params, x, y)[0])

    def test_constant_half_output_gives_ln2(self):
        model = constant_half_model()
        x, y = np.ones((6, 4)), np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        loss = self.loss(model.weights, x, y)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_correct_predictions_near_zero(self):
        params = [np.full((1, 1), 50.0), np.array([0.0])]
        x, y = np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
        assert self.loss(params, x, y) <= 1.1e-7

    def test_singleton_equals_bce(self):
        model = constant_half_model()
        x, y = np.ones((1, 4)), np.array([1.0])
        assert self.loss(model.weights, x, y) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_width_mismatch_rejected(self):
        model = constant_half_model(width=4)
        with pytest.raises(InputError, match=r"x \(2, 7\) must have one column per input "
                                             r"of the weights, 4"):
            self.loss(model.weights, np.ones((2, 7)), np.zeros(2))


class TestInnerAdapt:
    def test_zero_lr_is_identity(self):
        task = tiny_task()
        params = init_detector(4, seed=1, hidden_widths=(3,)).weights
        out = inner_adapt(params, (task.support_x, task.support_y), 0.0, 5)
        assert out is params and bits(out) == bits(params)

    def test_zero_steps_is_identity(self):
        task = tiny_task()
        params = init_detector(4, seed=1, hidden_widths=(3,)).weights
        out = inner_adapt(params, (task.support_x, task.support_y), 0.5, 0)
        assert out is params and bits(out) == bits(params)

    def test_scalar_square_surrogate_single_step(self):
        # loss = theta^2 at theta=1, lr=0.1, one step -> 0.8
        params = [np.array(1.0)]

        def loss_fn(weights, x, y):
            (theta,) = weights
            return theta * theta, [2.0 * theta]

        out = inner_adapt(
            params, (np.zeros((1, 1)), np.zeros(1)), 0.1, 1, loss_fn=loss_fn
        )
        assert float(out[0]) == pytest.approx(0.8, abs=1e-15)

    def test_input_params_not_modified(self):
        task = tiny_task()
        params = init_detector(4, seed=2, hidden_widths=(3,)).weights
        before = bits(params)
        inner_adapt(params, (task.support_x, task.support_y), 0.5, 3)
        assert bits(params) == before

    @pytest.mark.parametrize("labels", [[1.0], [1.0, 0.0, 1.0]], ids=["one", "three"])
    def test_labels_of_another_length_refused(self, labels):
        # one label used to broadcast over every row and adapt silently
        params = init_detector(4, seed=2, hidden_widths=(3,)).weights
        x = tiny_task(n=10).support_x
        with pytest.raises(InputError, match=r"y \(\d,\) must hold one label per row "
                                             r"of x \(5, 4\)"):
            inner_adapt(params, (x, labels), 0.5, 1)


class TestMetaUpdate:
    def test_zero_meta_lr_is_identity(self):
        task = tiny_task()
        params = init_detector(4, seed=3, hidden_widths=(3,)).weights
        cfg = MetaConfig(meta_lr=0.0, meta_iterations=1)
        out = meta_update(params, [task], cfg)
        assert out is params and bits(out) == bits(params)

    def test_empty_tasks_rejected(self):
        params = init_detector(4, seed=3).weights
        with pytest.raises(InputError):
            meta_update(params, [], MetaConfig())

    def test_single_task_first_order_matches_hand_composition(self):
        # One inner step on the support point, then a query-gradient step
        # evaluated at the adapted parameters; composed by hand below.
        u0, v0 = 0.8, -0.3
        x_s, y_s, x_q, y_q = 1.5, 1.0, -0.5, 0.5
        alpha, beta = 0.1, 0.05
        params = [np.array(u0), np.array(v0)]
        task = quad_task(x_s, y_s, x_q, y_q)
        cfg = MetaConfig(inner_lr=alpha, meta_lr=beta, inner_steps=1,
                         meta_batch=1, meta_iterations=1)
        out = meta_update(params, [task], cfg, loss_fn=quadratic_loss)

        r_s = u0 * x_s + v0 - y_s
        u1 = u0 - alpha * 2.0 * r_s * x_s
        v1 = v0 - alpha * 2.0 * r_s
        r_q = u1 * x_q + v1 - y_q
        expected_u = u0 - beta * 2.0 * r_q * x_q
        expected_v = v0 - beta * 2.0 * r_q
        assert float(out[0]) == pytest.approx(expected_u, rel=1e-12)
        assert float(out[1]) == pytest.approx(expected_v, rel=1e-12)

    def test_exact_fd_meta_gradient_matches_chain_rule(self):
        # Full meta-gradient through one inner step:
        #   grad F = (I - alpha * H_s) grad L_q(theta'),
        # with H_s the (constant) Hessian of the support loss.
        u0, v0 = 0.4, 0.2
        x_s, y_s, x_q, y_q = 1.2, 0.9, -0.7, 0.1
        alpha = 0.1
        params = [np.array(u0), np.array(v0)]
        task = quad_task(x_s, y_s, x_q, y_q)
        cfg = MetaConfig(inner_lr=alpha, meta_lr=1.0, inner_steps=1,
                         meta_batch=1, meta_iterations=1, meta_mode="exact_fd_oracle")
        fd = meta_gradient(params, [task], cfg, loss_fn=quadratic_loss)

        r_s = u0 * x_s + v0 - y_s
        u1 = u0 - alpha * 2.0 * r_s * x_s
        v1 = v0 - alpha * 2.0 * r_s
        r_q = u1 * x_q + v1 - y_q
        grad_q = np.array([2.0 * r_q * x_q, 2.0 * r_q])
        hessian_s = 2.0 * np.array([[x_s * x_s, x_s], [x_s, 1.0]])
        expected = (np.eye(2) - alpha * hessian_s).T @ grad_q

        got = np.array([float(fd[0]), float(fd[1])])
        assert np.allclose(got, expected, rtol=1e-4)

    def test_first_order_cosine_similarity_with_exact(self):
        u0, v0 = 0.4, 0.2
        params = [np.array(u0), np.array(v0)]
        task = quad_task(1.2, 0.9, -0.7, 0.1)
        base = dict(inner_lr=0.05, meta_lr=1.0, inner_steps=1,
                    meta_batch=1, meta_iterations=1)
        fo = meta_gradient(params, [task],
                           MetaConfig(**base, meta_mode="first_order"),
                           loss_fn=quadratic_loss)
        ex = meta_gradient(params, [task],
                           MetaConfig(**base, meta_mode="exact_fd_oracle"),
                           loss_fn=quadratic_loss)
        fo, ex = np.ravel(fo), np.ravel(ex)
        cosine = fo @ ex / (np.linalg.norm(fo) * np.linalg.norm(ex))
        assert cosine >= 0.95

    def test_permutation_invariant_up_to_reassociation(self):
        params = init_detector(4, seed=4, hidden_widths=(3,)).weights
        tasks = [tiny_task(s) for s in range(4)]
        cfg = MetaConfig(inner_lr=0.3, meta_lr=0.1, inner_steps=1,
                         meta_batch=4, meta_iterations=1)
        fwd = meta_update(params, tasks, cfg)
        rev = meta_update(params, list(reversed(tasks)), cfg)
        for a, b in zip(fwd, rev, strict=True):
            assert np.allclose(a, b, atol=1e-12)

    def test_default_loss_exact_fd_equals_first_order_when_inner_loop_is_identity(self):
        # inner_lr = 0 makes the inner loop the identity, so the two-loop
        # objective is the summed query loss and its gradient the first-order one
        params = init_detector(4, seed=6, hidden_widths=(3,)).weights
        tasks = [tiny_task(s) for s in range(3)]
        base = dict(inner_lr=0.0, inner_steps=2, meta_batch=3)
        fd = meta_gradient(params, tasks, MetaConfig(**base, meta_mode="exact_fd_oracle"))
        fo = meta_gradient(params, tasks, MetaConfig(**base))
        fd, fo = (np.concatenate([g.ravel() for g in grads]) for grads in (fd, fo))
        assert np.abs(fo).max() > 1e-3
        assert np.allclose(fd, fo, rtol=1e-5, atol=1e-8)

    def test_fixed_order_bitwise_deterministic(self):
        params = init_detector(4, seed=4, hidden_widths=(3,)).weights
        tasks = [tiny_task(s) for s in range(3)]
        cfg = MetaConfig(inner_lr=0.3, meta_lr=0.1, inner_steps=1,
                         meta_batch=3, meta_iterations=1)
        a = meta_update(params, tasks, cfg)
        b = meta_update(params, tasks, cfg)
        assert bits(a) == bits(b)


class TestMetaTrain:
    def test_zero_iterations_returns_init(self):
        model = init_detector(4, seed=5, hidden_widths=(3,))
        cfg = MetaConfig(meta_iterations=0, meta_batch=2)
        result = meta_train(model, [tiny_task(0), tiny_task(1)], cfg, seed=0)
        assert bits(result.model.weights) == bits(model.weights)
        assert result.loss_curve == []

    def test_fixed_seed_reproducible(self):
        model = init_detector(4, seed=6, hidden_widths=(3,))
        tasks = [tiny_task(s) for s in range(4)]
        cfg = MetaConfig(inner_lr=0.3, meta_lr=0.05, inner_steps=1,
                         meta_batch=2, meta_iterations=20)
        a = meta_train(model, tasks, cfg, seed=9)
        b = meta_train(model, tasks, cfg, seed=9)
        assert bits(a.model.weights) == bits(b.model.weights)
        assert a.loss_curve == b.loss_curve

    def test_exact_fd_oracle_iteration_is_one_meta_update(self):
        model = init_detector(4, seed=5, hidden_widths=(3,))
        tasks = [tiny_task(s) for s in range(3)]
        cfg = MetaConfig(inner_lr=0.3, meta_lr=0.1, inner_steps=1, meta_batch=2,
                         meta_iterations=1, meta_mode="exact_fd_oracle")
        result = meta_train(model, tasks, cfg, seed=1)
        picked = np.random.Generator(np.random.PCG64(1)).choice(3, size=2, replace=False)
        expected = meta_update(model.weights, [tasks[int(i)] for i in picked], cfg)
        assert len(result.loss_curve) == 1 and np.isfinite(result.loss_curve[0])
        assert bits(result.model.weights) == bits(expected) != bits(model.weights)

    def test_too_few_tasks_rejected(self):
        model = init_detector(4, seed=6)
        with pytest.raises(InputError):
            meta_train(model, [tiny_task(0)], MetaConfig(meta_batch=2), seed=0)

    def test_divergence_reports_iteration(self):
        # Balanced tasks with tiny features train quietly; the poisoned task's
        # 1e300 feature overflows its first inner step to inf. Only the
        # finiteness check after each update can report that: past the
        # overflow the sigmoid saturates and every loss stays finite.
        from selfheal.errors import TrainingError

        rng = np.random.default_rng(4)
        tasks = []
        for _ in range(5):
            x = np.zeros((8, 4))
            x[:, 1:] = 1e-12 * rng.normal(size=(8, 3))
            y = np.array([0.0, 1.0] * 4)
            tasks.append(Task(x[:4], y[:4], x[4:], y[4:], "quiet"))
        poison = np.zeros((4, 4))
        poison[:, 0] = 1e300
        tasks.append(Task(poison, np.ones(4), poison, np.ones(4), "poison"))
        model = DetectorModel([np.zeros((4, 1)), np.zeros(1)])

        def cfg(iterations):
            return MetaConfig(inner_lr=1e9, meta_lr=0.05, inner_steps=1,
                              meta_batch=2, meta_iterations=iterations)

        with np.errstate(over="ignore"), pytest.raises(TrainingError) as err:
            meta_train(model, tasks, cfg(30), seed=5)
        assert "diverged" in str(err.value)
        assert err.value.iteration > 0
        # every iteration before the reported one trains cleanly
        clean = meta_train(model, tasks, cfg(err.value.iteration), seed=5)
        assert len(clean.loss_curve) == err.value.iteration

    def test_loss_halves_on_separable_fixture(self):
        # 8 linearly separable synthetic tasks, shared decision direction.
        rng = np.random.default_rng(12)
        tasks = []
        direction = np.array([1.0, -1.0, 0.5, 0.0])
        for _ in range(8):
            x = rng.normal(size=(24, 4))
            y = (x @ direction + rng.normal(0, 0.05, 24) > 0).astype(float)
            tasks.append(Task(x[:8], y[:8], x[8:], y[8:], "sep"))
        model = init_detector(4, seed=7, hidden_widths=(8,))
        cfg = MetaConfig(inner_lr=0.5, meta_lr=0.1, inner_steps=1,
                         meta_batch=4, meta_iterations=200)
        result = meta_train(model, tasks, cfg, seed=3)
        early = np.mean(result.loss_curve[:5])
        late = np.mean(result.loss_curve[-5:])
        assert late <= 0.5 * early


def bce_mlp(spec):
    """The detector's loss as a custom `loss_fn`: each task's BCE of the taped
    `forward_mlp` and its `grad`, one task at a time along the leading axis
    of x, stacked on that axis."""

    def loss_fn(weights, x, y):
        lead = x.shape[:-2]
        # [W0, b0, W1, b1, ...]: a matrix, then a vector, behind any task axis
        shapes = [w.shape[w.ndim - (1 if i % 2 else 2):] for i, w in enumerate(weights)]
        losses, grads = [], []
        for k in np.ndindex(lead):
            params = [np.broadcast_to(w, lead + shape)[k] for w, shape in zip(weights, shapes)]
            loss = bce_loss(forward_mlp(GradientTape(params).leaves, x[k], spec),
                            y[k].reshape(-1, 1))
            losses.append(value_of(loss))
            grads.append(grad(loss, params))
        return np.reshape(losses, lead), [
            np.reshape([g[i] for g in grads], lead + shape) for i, shape in enumerate(shapes)]

    return loss_fn


def taped_meta_train(init, tasks, cfg, seed):
    """Reference first-order meta-training: one task at a time on the tape."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = detector_spec(init.hidden_widths)

    def loss_and_grad(params, x, y):
        recorder = GradientTape(params)
        loss = bce_loss(forward_mlp(recorder.leaves, x, spec), y.reshape(-1, 1))
        return float(value_of(loss)), grad(loss, params)

    params, curve = init.weights, []
    for _ in range(cfg.meta_iterations):
        picked = rng.choice(len(tasks), size=cfg.meta_batch, replace=False)
        total, batch_loss = None, 0.0
        for i in picked:
            task = tasks[int(i)]
            adapted = params
            for _ in range(cfg.inner_steps):
                g = loss_and_grad(adapted, task.support_x, task.support_y)[1]
                adapted = descend(adapted, g, cfg.inner_lr)
            loss, g = loss_and_grad(adapted, task.query_x, task.query_y)
            batch_loss += loss
            total = g if total is None else [a + b for a, b in zip(total, g)]
        params = descend(params, total, cfg.meta_lr)
        curve.append(batch_loss / cfg.meta_batch)
    return params, curve


class TestBatchedMetaTrain:
    HIDDEN = (8, 4)
    SPEC = detector_spec(HIDDEN)

    def _check_against_reference(self, tasks, cfg, width):
        model = init_detector(width, seed=21, hidden_widths=self.HIDDEN)
        result = meta_train(model, tasks, cfg, seed=5)
        params, curve = taped_meta_train(model, tasks, cfg, seed=5)
        assert result.loss_curve == curve
        assert bits(result.model.weights) == bits(params)

    @pytest.mark.parametrize("inner_steps", [0, 1, 3])
    def test_equal_shapes_bitwise_equal_to_taped_loop(self, inner_steps):
        tasks = make_tasks(default_patterns(5, seed=41, anomaly_rate=0.15),
                           6, 10, 4, seed=2)
        cfg = MetaConfig(inner_lr=0.5, meta_lr=0.1, inner_steps=inner_steps,
                         meta_batch=4, meta_iterations=12)
        self._check_against_reference(tasks, cfg, tasks[0].feature_width)

    def test_mixed_shapes_refused_by_name(self):
        # every loss stacks its tasks, the fused one and a custom loss_fn alike
        tasks = [tiny_task(s, n=8 + 2 * (s % 3)) for s in range(6)]
        cfg = MetaConfig(inner_lr=0.4, meta_lr=0.1, inner_steps=2,
                         meta_batch=3, meta_iterations=12)
        model = init_detector(4, seed=21, hidden_widths=self.HIDDEN)
        with pytest.raises(InputError, match="task 'tiny-1' has shapes"):
            meta_train(model, tasks, cfg, seed=5)
        for loss_fn in (None, bce_mlp(self.SPEC)):
            for mode in ("first_order", "exact_fd_oracle"):
                with pytest.raises(InputError, match="task 'tiny-1' has shapes"):
                    meta_gradient(model.weights, tasks[:3], replace(cfg, meta_mode=mode),
                                  loss_fn)

    @pytest.mark.parametrize("loss", ["taped-bce", "quadratic"])
    def test_custom_loss_on_stacked_tasks_equals_one_task_calls_summed(self, loss):
        cfg = MetaConfig(inner_lr=0.4, inner_steps=2, meta_batch=3)
        if loss == "quadratic":
            params, loss_fn = [np.array(0.4), np.array(0.2)], quadratic_loss
            tasks = [quad_task(1.2, 0.9, -0.7, 0.1), quad_task(-0.3, 0.5, 0.8, -0.2),
                     quad_task(2.0, -1.0, 0.4, 0.6)]
        else:
            params = init_detector(4, seed=21, hidden_widths=self.HIDDEN).weights
            loss_fn = bce_mlp(self.SPEC)
            tasks = [tiny_task(s) for s in range(3)]
        stacked = meta_gradient(params, tasks, cfg, loss_fn)
        alone = [meta_gradient(params, [t], cfg, loss_fn) for t in tasks]
        assert max(np.abs(g).max() for g in stacked) > 1e-3
        for k, g in enumerate(stacked):
            total = alone[0][k] + alone[1][k] + alone[2][k]
            assert g.tobytes() == total.tobytes(), k

    def test_stacks_equal_shapes(self, monkeypatch):
        from selfheal.detector import maml

        seen = []
        real = maml.mlp_loss_and_grad

        def spy(weights, x, y):
            seen.append(np.shape(x))
            return real(weights, x, y)

        monkeypatch.setattr(maml, "mlp_loss_and_grad", spy)
        params = init_detector(4, seed=3, hidden_widths=self.HIDDEN).weights
        cfg = MetaConfig(inner_lr=0.4, inner_steps=1, meta_batch=3)
        same = [tiny_task(s) for s in range(3)]
        meta_gradient(params, same, cfg)
        assert seen == [(3, 4, 4), (3, 4, 4)]

    @pytest.mark.parametrize("meta_mode", ["first_order", "exact_fd_oracle"])
    def test_taped_loss_equals_fused_bitwise(self, meta_mode):
        params = init_detector(4, seed=8, hidden_widths=(3, 2)).weights
        tasks = [tiny_task(s) for s in range(3)]
        cfg = MetaConfig(inner_lr=0.4, inner_steps=2, meta_batch=3, meta_mode=meta_mode)
        fused = meta_gradient(params, tasks, cfg)
        taped = meta_gradient(params, tasks, cfg, bce_mlp(detector_spec((3, 2))))
        assert max(np.abs(g).max() for g in fused) > 1e-3
        assert bits(taped) == bits(fused)


class TestDetect:
    def test_threshold_rule(self):
        model = DetectorModel([np.zeros((4, 1)), np.array([0.847298])], threshold=0.5)
        score, flag = detect(model, np.zeros(4))
        assert score == pytest.approx(0.7, abs=1e-6)
        assert flag == 1

    def test_boundary_score_flags(self):
        model = constant_half_model()  # score exactly 0.5 everywhere
        score, flag = detect(model, np.ones(4))
        assert score == 0.5
        assert flag == 1

    def test_all_zero_model_scores_half(self):
        model = constant_half_model()
        score, flag = detect(model, np.array([3.0, -2.0, 0.1, 9.0]))
        assert score == 0.5 and flag == 1

    def test_width_mismatch_rejected(self):
        with pytest.raises(InputError):
            detect(constant_half_model(), np.zeros(5))

    @pytest.mark.parametrize("hidden_widths", [DEFAULT_HIDDEN_WIDTHS, ()],
                             ids=["default", "no-hidden"])
    def test_score_bitwise_equal_to_taped_forward(self, hidden_widths):
        tasks = make_tasks(default_patterns(3, seed=17, anomaly_rate=0.15), 6, 40, 4, seed=3)
        rows = np.vstack([t.query_x for t in tasks])
        for seed in range(3):
            model = init_detector(20, seed, hidden_widths)
            for row in rows:
                taped = forward_mlp(model.weights, row, detector_spec(hidden_widths))[0]
                score, flag = detect(model, row)
                assert np.float64(score).tobytes() == taped.tobytes()
                assert flag == int(taped >= model.threshold)


class TestEvaluate:
    def test_perfect_predictions(self):
        model = DetectorModel([np.full((1, 1), 60.0), np.array([0.0])])
        x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        task = Task(x, y, x, y, "perfect")
        (report,) = evaluate(model, [task], MetaConfig(inner_steps=0))
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.adaptation_steps == 0

    def test_formula_evaluation(self):
        from selfheal.detector.maml import _prf

        p, r, f1 = _prf(tp=9, fp=1, fn=2)
        assert p == pytest.approx(0.9)
        assert r == pytest.approx(0.8182, abs=1e-4)
        assert f1 == pytest.approx(0.8571, abs=1e-4)

    def test_degenerate_confusion_is_zero(self):
        from selfheal.detector.maml import _prf

        assert _prf(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_scores_and_confusion_equal_per_row_detect(self, monkeypatch):
        from selfheal.detector import maml

        scored = []

        def spy(weights, x):
            scored.append(real(weights, x)[-1])
            return [scored[-1]]

        real = maml.mlp_forward
        monkeypatch.setattr(maml, "mlp_forward", spy)
        tasks = make_tasks(default_patterns(4, seed=23, anomaly_rate=0.2), 6, 60, 4, seed=2)
        cfg = MetaConfig(inner_lr=0.5, inner_steps=3)
        totals = np.zeros(4, dtype=int)
        for seed in range(4):
            model = init_detector(20, seed=seed)
            reports = evaluate(model, tasks, cfg)
            # one scoring pass for all the tasks: (tasks, rows, 1, 1)
            for task, report, scores in zip(tasks, reports, scored[-1][:, :, 0, 0]):
                adapted = model.with_weights(inner_adapt(
                    model.weights, (task.support_x, task.support_y), cfg.inner_lr,
                    cfg.inner_steps))
                tp = fp = fn = tn = 0
                for row, label, score in zip(task.query_x, task.query_y, scores):
                    reference, flag = detect(adapted, row)
                    assert np.float64(score).tobytes() == np.float64(reference).tobytes()
                    if flag and label == 1.0:
                        tp += 1
                    elif flag:
                        fp += 1
                    elif label == 1.0:
                        fn += 1
                    else:
                        tn += 1
                assert report.confusion == (tp, fp, fn, tn)
                totals += report.confusion
        assert len(scored) == 4 and totals.min() > 0

    @staticmethod
    def reference_adaptation_steps(model, task, cfg):
        """The count as evaluate took it with a loop of its own: the support
        loss after 0, 1, ..., inner_steps steps, the first within the bound."""
        weights, found = model.weights, None
        for step in range(cfg.inner_steps + 1):
            if step:
                weights = [w - cfg.inner_lr * g for w, g in zip(weights, grads)]
            loss, grads = mlp_loss_and_grad(weights, task.support_x, task.support_y)
            if found is None and loss <= ADAPT_LOSS_BOUND:
                found = step
        return cfg.inner_steps if found is None else found

    @pytest.mark.parametrize("model_seed, task_seed, inner_lr, inner_steps, expected", [
        (None, None, 0.0, 3, 0),  # inner_lr = 0: the loss never moves, and is met
        (None, None, 0.5, 3, 0),  # the bound is met before any step
        (3, 3, 1.0, 8, 5),  # met midway
        (0, 3, 1.0, 7, 7),  # met only after the last step
        (3, 0, 1.0, 8, 8),  # never met
    ])
    def test_adaptation_steps_equal_a_loop_of_its_own(
        self, model_seed, task_seed, inner_lr, inner_steps, expected
    ):
        if model_seed is None:
            model = DetectorModel([np.full((1, 1), 60.0), np.array([0.0])])
            x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
            task = Task(x, np.array([1.0, 1.0, 0.0, 0.0]), x, np.ones(4), "perfect")
        else:
            model = init_detector(4, seed=model_seed, hidden_widths=(3,))
            task = tiny_task(task_seed)
        cfg = MetaConfig(inner_lr=inner_lr, inner_steps=inner_steps)
        assert self.reference_adaptation_steps(model, task, cfg) == expected
        assert evaluate(model, [task], cfg)[0].adaptation_steps == expected

    @staticmethod
    def reference_evaluate(model, task, cfg):
        """`evaluate` as first written, one task at a time: (its report, the
        adapted weights)."""
        from selfheal.detector.maml import EvalReport, _prf

        weights, losses = model.weights, []
        for _ in range(cfg.inner_steps if cfg.inner_lr else min(cfg.inner_steps, 1)):
            loss, grads = mlp_loss_and_grad(weights, task.support_x, task.support_y)
            losses.append(loss)
            if cfg.inner_lr:
                weights = [w - cfg.inner_lr * g for w, g in zip(weights, grads)]
        steps = next((step for step, value in enumerate(losses) if value <= ADAPT_LOSS_BOUND),
                     cfg.inner_steps)
        scores = mlp_forward(weights, task.query_x[:, None, :])[-1][:, 0, 0]
        flags, positive = scores >= model.threshold, task.query_y == 1.0
        tp, fp, fn, tn = (int(np.count_nonzero(f & p)) for f, p in (
            (flags, positive), (flags, ~positive), (~flags, positive), (~flags, ~positive)))
        return EvalReport(*_prf(tp, fp, fn), steps, (tp, fp, fn, tn)), weights

    @pytest.mark.parametrize("inner_lr, inner_steps", [(0.5, 5), (0.5, 25), (1.5, 4),
                                                       (0.0, 3), (0.5, 0)])
    def test_stacked_tasks_equal_one_task_at_a_time(
        self, detector_runs, monkeypatch, inner_lr, inner_steps
    ):
        # the meta-trained model and a random init, on the held-out tasks
        from selfheal.detector import maml

        scored_with = []

        def spy(weights, x):
            scored_with.append(weights)
            return real(weights, x)

        real = maml.mlp_forward
        monkeypatch.setattr(maml, "mlp_forward", spy)
        meta_model, tasks, baseline_seed = detector_runs[0]
        cfg = MetaConfig(inner_lr=inner_lr, inner_steps=inner_steps)
        for model in (meta_model, init_detector(20, seed=baseline_seed)):
            reports = evaluate(model, tasks, cfg)
            assert len(reports) == len(tasks)
            for k, (task, report) in enumerate(zip(tasks, reports)):
                expected, adapted = self.reference_evaluate(model, task, cfg)
                assert report == expected
                # scored as (tasks, 1, ...) stacks of the adapted weights
                assert [w[k, 0].tobytes() for w in scored_with[-1]] == [
                    w.tobytes() for w in adapted]

    def test_tasks_of_another_shape_rejected(self):
        tasks = [tiny_task(0), tiny_task(1, n=10)]
        with pytest.raises(InputError, match="tiny-1"):
            evaluate(constant_half_model(), tasks, MetaConfig())
        with pytest.raises(InputError, match="nonempty"):
            evaluate(constant_half_model(), [], MetaConfig())

    def test_confusion_sums_to_query_size(self):
        patterns = default_patterns(2, seed=31, anomaly_rate=0.15)
        tasks = make_tasks(patterns, 6, 12, 4, seed=1)
        model = init_detector(20, seed=8)
        for task, report in zip(tasks, evaluate(model, tasks, MetaConfig(inner_steps=3))):
            assert sum(report.confusion) == len(task.query_y)


def test_meta_trained_init_dominates_random_init(detector_runs):
    # few-shot F1 from the meta-trained initialization is at least the
    # random-init F1 on the same tasks, per seed, on the committed fixtures
    cfg = MetaConfig(inner_lr=0.5, inner_steps=5)
    for i in range(5):
        model, held_tasks, baseline_seed = detector_runs[i]
        baseline = init_detector(20, seed=baseline_seed)
        meta_f1 = np.mean([r.f1 for r in evaluate(model, held_tasks, cfg)])
        base_f1 = np.mean([r.f1 for r in evaluate(baseline, held_tasks, cfg)])
        assert meta_f1 >= base_f1, f"seed {i}: {meta_f1:.3f} < {base_f1:.3f}"


class TestDetectorModel:
    def weights(self):
        return [np.array(w) for w in init_detector(4, seed=1, hidden_widths=(3,)).weights]

    def test_non_finite_weight_refused_by_name(self):
        weights = self.weights()
        weights[3] = np.array([np.nan])
        with pytest.raises(InputError, match="weight 'layer1.b' holds non-finite values"):
            DetectorModel(weights)
        weights[3] = np.array([0.0])
        weights[0][1, 2] = np.inf
        with pytest.raises(InputError, match="weight 'layer0.W' holds non-finite values"):
            DetectorModel(weights)

    def test_widths_are_read_from_the_matrices(self):
        model = init_detector(12, seed=1, hidden_widths=(4, 3))
        assert (model.input_width, model.hidden_widths) == (12, (4, 3))
        head = DetectorModel(model.weights[-2:])
        assert (head.input_width, head.hidden_widths) == (3, ())

    @pytest.mark.parametrize("change, match", [
        (lambda w: w[:-1], "5 weight arrays: an MLP has a W and a b per layer"),
        (lambda w: [], "0 weight arrays: an MLP has a W and a b per layer"),
        (lambda w: [w[0][:, 0], *w[1:]], r"weight 'layer0.W' has shape \(12,\)"),
        (lambda w: [*w[:4], np.ones((3, 2)), np.ones(2)],
         r"weight 'layer2.W' has shape \(3, 2\), expected \(3, 1\)"),
        (lambda w: [w[0], w[1], w[2][:3], *w[3:]],
         r"weight 'layer1.W' has shape \(3, 3\), expected \(4, 3\)"),
        (lambda w: [*w[:3], np.ones(4), *w[4:]], r"weight 'layer1.b' has shape \(4,\)"),
        (lambda w: [w[0][None], *w[1:]],
         r"weight 'layer0.b' has shape \(4,\), expected \(1, 4\)"),
    ], ids=["odd-length", "empty", "1-d-matrix", "wide-head", "broken-chain", "bias",
            "task-axis-not-shared"])
    def test_weights_that_do_not_chain_refused_by_name(self, change, match):
        # DetectorModel and the kernel read the widths with the same check
        weights = change(list(init_detector(12, seed=1, hidden_widths=(4, 3)).weights))
        with pytest.raises(InputError, match=match):
            DetectorModel(weights)
        with pytest.raises(InputError, match=match):
            mlp_forward(weights, np.zeros((2, 12)))

    def test_stacked_weights_are_for_the_kernel_only(self):
        weights = [w[None] for w in init_detector(4, seed=1, hidden_widths=(3,)).weights]
        assert mlp_forward(weights, np.zeros((1, 2, 4)))[-1].shape == (1, 2, 1)
        with pytest.raises(InputError, match=r"weight 'layer0.W' has shape \(1, 4, 3\), "
                                             r"expected \(4, 3\)"):
            DetectorModel(weights)

    def test_weights_are_read_only_copies(self):
        source = self.weights()
        source[0] = np.asfortranarray(source[0])
        model = DetectorModel(source)
        assert isinstance(model.weights, tuple)
        assert all(w.dtype == np.float64 and w.flags.c_contiguous and not w.flags.writeable
                   for w in model.weights)
        before = bits(model.weights)
        source[0][0, 0] += 1.0
        source[3][0] = 7.0
        assert bits(model.weights) == before
        with pytest.raises(ValueError):
            model.weights[1][0] = 1.0


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = init_detector(20, seed=99, threshold=0.62)
        path = tmp_path / "detector.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.input_width == model.input_width
        assert loaded.hidden_widths == model.hidden_widths
        assert loaded.threshold == model.threshold
        assert bits(loaded.weights) == bits(model.weights)
        # the header spells out the one form every detector takes
        assert json.loads(path.read_text())["layer_spec"] == [
            [32, "relu"], [16, "relu"], [1, "sigmoid"]]

    def test_zero_hidden_layers_train_and_load_back(self, tmp_path):
        # `detector.hidden_widths: []` is a config the run accepts
        tasks = [tiny_task(s) for s in range(4)]
        cfg = MetaConfig(inner_lr=0.3, meta_lr=0.1, inner_steps=1, meta_batch=2,
                         meta_iterations=20)
        init = init_detector(4, seed=3, hidden_widths=())
        model = meta_train(init, tasks, cfg, seed=1).model
        assert model.hidden_widths == () and bits(model.weights) != bits(init.weights)
        path = tmp_path / "detector.json"
        save_checkpoint(model, path)
        assert json.loads(path.read_text())["layer_spec"] == [[1, "sigmoid"]]
        loaded = load_checkpoint(path)
        assert loaded.hidden_widths == () and bits(loaded.weights) == bits(model.weights)
        assert detect(loaded, tasks[0].query_x[0]) == detect(model, tasks[0].query_x[0])

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(Exception):
            load_checkpoint(path)

    def _saved(self, tmp_path):
        path = tmp_path / "detector.json"
        save_checkpoint(init_detector(6, seed=1, hidden_widths=(3,)), path)
        return path, json.loads(path.read_text())

    def test_shape_disagreeing_with_layer_spec_rejected(self, tmp_path):
        path, payload = self._saved(tmp_path)
        payload["params"]["layer0.W"]["shape"] = [3, 6]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="params.layer0.W"):
            load_checkpoint(path)

    def test_missing_and_unknown_names_rejected(self, tmp_path):
        path, payload = self._saved(tmp_path)
        payload["params"]["layer2.W"] = payload["params"].pop("layer1.W")
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="layer1.W"):
            load_checkpoint(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path, payload = self._saved(tmp_path)
        payload["params"]["layer1.b"]["values"] = [float("nan")]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="params.layer1.b"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("layer_spec", [[3, "gelu"], [1, "sigmoid"]], "layer_spec.0"),
            ("layer_spec", [[3, "relu"], ["one", "sigmoid"]], "layer_spec.1"),
            ("input_width", "six", "input_width"),
            ("input_width", 6.5, "input_width"),
            ("threshold", 1.5, "threshold"),
            ("threshold", "half", "threshold"),
        ],
    )
    def test_bad_field_names_path_and_field(self, tmp_path, field, value, named):
        path, payload = self._saved(tmp_path)
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=re.escape(str(path))) as err:
            load_checkpoint(path)
        assert named in str(err.value)

    @pytest.mark.parametrize("spec, named", [
        ([[3, "tanh"], [1, "sigmoid"]], "layer_spec.0"),
        ([[3, "sigmoid"], [1, "sigmoid"]], "layer_spec.0"),
        ([[3, "relu"], [1, "linear"]], "layer_spec.1"),
        ([[3, "relu"], [1, "relu"]], "layer_spec.1"),
        ([[3, "relu"], [2, "sigmoid"]], "layer_spec.1"),
    ], ids=["tanh-hidden", "sigmoid-hidden", "linear-head", "relu-head", "wide-head"])
    def test_layer_spec_other_than_relu_and_a_sigmoid_head_refused(
        self, tmp_path, spec, named
    ):
        # the first four used to load, as networks the kernel no longer computes
        path, payload = self._saved(tmp_path)
        payload["layer_spec"] = spec
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: field '{named}' must be")):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, problem", [
        ("values", ["0.25"], "holds non-numbers"),
        ("values", [True], "holds non-numbers"),
        ("values", [False], "holds non-numbers"),
        ("values", [None], "holds non-numbers"),
        ("shape", [True], r"has shape \[True\], expected \[1\]"),
    ], ids=["string", "true", "false", "null", "bool-shape"])
    def test_value_that_is_not_a_number_refused_by_name(self, tmp_path, key, value, problem):
        # each used to load: "0.25" as 0.25, true and false as 1.0 and 0.0, and
        # a shape [true] as [1]
        path, payload = self._saved(tmp_path)
        payload["params"]["layer1.b"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=rf"field 'params.layer1.b' {problem}"):
            load_checkpoint(path)
