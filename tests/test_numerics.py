import json
import math

import numpy as np
import pytest

from selfheal.errors import ConfigurationError, InputError, SchemaError
from selfheal.numerics import (
    LOG_CLAMP,
    descend,
    finite_diff_grad,
    frozen_weights,
    init_mlp_params,
    init_uniform_params,
    mlp_loss_and_grad,
    nets,
    ops,
    params_from_payload,
    write_model,
)
import taped
from taped import GradientTape, bce_loss, forward_mlp, grad


def _scalar(x) -> float:
    return float(taped.value_of(x))


class TestFrozenWeights:
    SHAPES = {"layer0.W": (2, 3), "layer0.b": (3,)}

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InputError, match="weight 'layer0.b' holds non-finite"):
            frozen_weights([np.zeros((2, 3)), [1.0, float("nan"), 0.0]], self.SHAPES)
        with pytest.raises(InputError, match="weight 'layer0.W' holds non-finite"):
            frozen_weights([np.full((2, 3), np.inf), np.zeros(3)], self.SHAPES)

    def test_immutable(self):
        source = [np.zeros((2, 3)), np.array([1.0, 2.0, 3.0])]
        weights = frozen_weights(source, self.SHAPES)
        with pytest.raises(ValueError):
            weights[1][0] = 5.0
        source[1][0] = 5.0  # the caller's array is not the kept copy
        assert weights[1].tolist() == [1.0, 2.0, 3.0]
        assert all(w.flags.c_contiguous and w.dtype == np.float64 for w in weights)

    def test_shape_matches_count(self):
        weights = frozen_weights([np.zeros((2, 3)), np.zeros(3)], self.SHAPES)
        assert [w.shape for w in weights] == [(2, 3), (3,)]
        with pytest.raises(InputError, match=r"1 weight arrays for the 2 parameters"):
            frozen_weights([np.zeros((2, 3))], self.SHAPES)

    def test_mismatched_shape_names_the_weight(self):
        with pytest.raises(InputError, match=r"weight 'layer0.W' has shape \(3, 2\), "
                                             r"expected \(2, 3\)"):
            frozen_weights([np.zeros((3, 2)), np.zeros(3)], self.SHAPES)
        with pytest.raises(SchemaError, match=r"m.json: field 'params.layer0.b' has shape"):
            frozen_weights([np.zeros((2, 3)), np.zeros(4)], self.SHAPES, "m.json")


class TestModelFile:
    # the GNN's order: its readout's w before b, the reverse of sorted order
    SHAPES = {"layer0.W": (2, 3), "layer0.b": (3,), "readout.w": (3, 1), "readout.b": (1,)}

    def test_params_are_written_in_sorted_name_order(self, tmp_path):
        weights = init_uniform_params(self.SHAPES, seed=3)
        write_model(tmp_path / "m.json", "test-model", {}, self.SHAPES, weights)
        params = json.loads((tmp_path / "m.json").read_text())["params"]
        assert list(params) == ["layer0.W", "layer0.b", "readout.b", "readout.w"]
        assert params["readout.w"]["values"] == weights[2].ravel().tolist()

    def test_write_read_roundtrip_bitwise(self, tmp_path):
        weights = init_uniform_params(self.SHAPES, seed=4)
        write_model(tmp_path / "m.json", "test-model", {}, self.SHAPES, weights)
        payload = json.loads((tmp_path / "m.json").read_text())
        loaded = params_from_payload(payload["params"], self.SHAPES, "m.json")
        assert [w.tobytes() for w in loaded] == [w.tobytes() for w in weights]
        assert [w.shape for w in loaded] == [w.shape for w in weights]
        assert not any(w.flags.writeable for w in loaded)


class TestInitUniformParams:
    def test_each_bias_takes_the_fan_in_of_the_weight_before_it(self):
        shapes = {"W": (4, 3), "b": (3,), "V": (16, 2), "c": (2,)}
        params = dict(zip(shapes, init_uniform_params(shapes, 7)))
        assert [v.shape for v in params.values()] == list(shapes.values())
        for name, fan_in in (("W", 4), ("b", 4), ("V", 16), ("c", 16)):
            values = params[name]
            assert np.abs(values).max() <= 0.5 / math.sqrt(fan_in), name
            assert values.std() > 0.0, name

    @pytest.mark.parametrize("shapes", [{"b": (3,), "W": (2, 3)}, {"s": (), "W": (2, 3)}],
                             ids=["1-d", "0-d"])
    def test_first_entry_without_a_fan_in_rejected_by_name(self, shapes):
        name = next(iter(shapes))
        with pytest.raises(InputError, match=f"entry '{name}'"):
            init_uniform_params(shapes, seed=0)


class TestForwardMlp:
    def test_all_zero_params_sigmoid_head_gives_half(self):
        spec = [(3, "relu"), (2, "sigmoid")]
        params = [np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2)]
        out = forward_mlp(params, np.array([0.3, -1.0, 2.0, 0.7]), spec)
        assert np.array_equal(out, np.array([0.5, 0.5]))

    def test_identity_linear_layer_passes_input_through(self):
        spec = [(3, "linear")]
        params = [np.eye(3), np.zeros(3)]
        x = np.array([1.5, -0.2, 0.0])
        out = forward_mlp(params, x, spec)
        assert np.array_equal(out, x)

    def test_two_layer_hand_evaluated_forward(self):
        # 2-2-1 net evaluated by explicit arithmetic, independent of forward_mlp.
        spec = [(2, "relu"), (1, "sigmoid")]
        w1 = np.array([[0.2, -0.1], [-0.4, 0.3]])
        b1 = np.array([0.05, -0.05])
        w2 = np.array([[0.5], [-0.6]])
        b2 = np.array([0.1])
        params = [w1, b1, w2, b2]
        h1 = max(1.0 * 0.2 + (-1.0) * (-0.4) + 0.05, 0.0)
        h2 = max(1.0 * (-0.1) + (-1.0) * 0.3 - 0.05, 0.0)
        z = h1 * 0.5 + h2 * (-0.6) + 0.1
        expected = 1.0 / (1.0 + math.exp(-z))
        out = forward_mlp(params, np.array([1.0, -1.0]), spec)
        assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch_names_offending_layer(self):
        spec = [(2, "relu"), (1, "sigmoid")]
        params = init_mlp_params(3, spec, seed=0)
        with pytest.raises(ConfigurationError, match="layer 0"):
            forward_mlp(params, np.zeros(5), spec)


class TestBceLoss:
    def test_half_prediction_true_label_is_ln2(self):
        assert _scalar(bce_loss(0.5, 1)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_clamped(self):
        loss = _scalar(bce_loss(1.0, 1))
        assert 0.0 < loss <= 1.1e-7

    def test_batch_mean(self):
        loss = _scalar(bce_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0])))
        assert loss == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_label_outside_01_rejected(self):
        with pytest.raises(InputError):
            bce_loss(0.5, 2)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            y = float(rng.integers(0, 2))
            assert _scalar(bce_loss(p, y)) >= 0.0


class TestGrad:
    def test_constant_loss_gives_zero_gradients(self):
        params = [np.array([1.0, 2.0])]
        t = GradientTape(params)
        loss = taped.mul(taped.total(taped.mul(t.leaves[0], 0.0)), 1.0)
        g = grad(loss, params)
        assert np.array_equal(g[0], np.zeros(2))

    def test_square_at_three(self):
        params = [np.array(3.0)]
        t = GradientTape(params)
        th = t.leaves[0]
        g = grad(taped.mul(th, th), params)
        assert float(g[0]) == pytest.approx(6.0, abs=1e-12)

    def test_off_tape_param_gets_zero_gradient(self):
        params = [np.array(2.0), np.array([1.0, 1.0])]
        t = GradientTape(params)
        u = t.leaves[0]
        g = grad(taped.mul(u, u), params)
        assert float(g[0]) == pytest.approx(4.0)
        assert np.array_equal(g[1], np.zeros(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mlp_bce_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        spec = [(4, "relu"), (1, "sigmoid")]
        params = init_mlp_params(2, spec, seed=seed + 1000)
        x = rng.normal(size=(8, 2))
        y = rng.integers(0, 2, size=(8, 1)).astype(float)

        def loss_fn(ps):
            return _scalar(bce_loss(forward_mlp(ps, x, spec), y))

        t = GradientTape(params)
        loss = bce_loss(forward_mlp(t.leaves, x, spec), y)
        reverse = grad(loss, params)
        oracle = finite_diff_grad(loss_fn, params, 1e-4)
        for k, (a, b) in enumerate(zip(reverse, oracle)):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-8), k

    def test_gradients_deterministic_for_fixed_tape(self):
        params = init_mlp_params(3, [(2, "tanh"), (1, "sigmoid")], seed=5)
        x = np.linspace(-1, 1, 12).reshape(4, 3)
        y = np.array([[0.0], [1.0], [1.0], [0.0]])

        def run():
            t = GradientTape(params)
            loss = bce_loss(forward_mlp(t.leaves, x, [(2, "tanh"), (1, "sigmoid")]), y)
            return grad(loss, params)

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def _taped_loss_and_grad(params, x, y, spec):
    recorder = GradientTape(params)
    loss = bce_loss(forward_mlp(recorder.leaves, x, spec), y.reshape(-1, 1))
    return float(taped.value_of(loss)), grad(loss, params)


FUSED_SPECS = [
    [(4, "relu"), (1, "sigmoid")],
    [(5, "tanh"), (3, "relu"), (1, "sigmoid")],
    [(3, "linear"), (1, "sigmoid")],
    [(4, "sigmoid"), (2, "tanh"), (1, "sigmoid")],
    [(2, "relu"), (1, "linear")],
]


class TestFusedMlpKernel:
    @pytest.mark.parametrize("spec", FUSED_SPECS, ids=str)
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_tape(self, spec, seed):
        rng = np.random.default_rng(seed)
        params = init_mlp_params(3, spec, seed=seed + 2000)
        x = rng.normal(size=(7, 3)) * 2.0
        y = rng.integers(0, 2, size=7).astype(float)
        loss, grads = mlp_loss_and_grad(params, x, y, spec)
        taped_loss, taped = _taped_loss_and_grad(params, x, y, spec)
        assert loss.tobytes() == np.float64(taped_loss).tobytes()
        for k, (fused, reference) in enumerate(zip(grads, taped, strict=True)):
            assert np.array_equal(fused, reference), k

    @pytest.mark.parametrize("spec", FUSED_SPECS[:4], ids=str)
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, spec, seed):
        rng = np.random.default_rng(seed + 100)
        params = init_mlp_params(3, spec, seed=seed + 3000)

        def min_relu_margin(x):
            # |pre-activation| of every relu unit: central differences are
            # only valid away from the kink at zero
            return min(
                (np.abs(forward_mlp(params, x, [*spec[:i], (w, "linear")])).min()
                 for i, (w, act) in enumerate(spec) if act == "relu"),
                default=np.inf,
            )

        x = rng.normal(size=(6, 3))
        while min_relu_margin(x) < 1e-2:
            x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6).astype(float)
        _, grads = mlp_loss_and_grad(params, x, y, spec)
        oracle = finite_diff_grad(
            lambda p: float(mlp_loss_and_grad(p, x, y, spec)[0]), params, 1e-4,
        )
        for k, (fused, reference) in enumerate(zip(grads, oracle, strict=True)):
            assert np.allclose(fused, reference, rtol=1e-5, atol=1e-8), k

    def test_clipped_predictions(self):
        # rows 0-1 saturate past 1 - LOG_CLAMP, rows 2-3 below LOG_CLAMP, row 4
        # stays inside: the clip mask zeroes the saturated rows' adjoints
        spec = [(1, "sigmoid")]
        params = [np.array([[40.0], [0.0]]), np.array([0.0])]
        x = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-2.0, 3.0], [0.05, 0.5]])
        y = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        out = forward_mlp(params, x, spec)[:, 0]
        assert np.all(out[:2] > 1.0 - LOG_CLAMP) and np.all(out[2:4] < LOG_CLAMP)
        loss, fused = mlp_loss_and_grad(params, x, y, spec)
        taped_loss, taped = _taped_loss_and_grad(params, x, y, spec)
        assert float(loss) == taped_loss
        for k, (a, b) in enumerate(zip(fused, taped, strict=True)):
            assert np.array_equal(a, b), k
        # only row 4 contributes: d/dW = (p - y) x / n, d/db = (p - y) / n
        p4 = out[4]
        assert fused[1][0] == pytest.approx((p4 - 1.0) / 5, rel=1e-12)
        oracle = finite_diff_grad(
            lambda p: float(mlp_loss_and_grad(p, x, y, spec)[0]), params, 1e-4,
        )
        for k, (a, b) in enumerate(zip(fused, oracle, strict=True)):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-8), k

    def test_task_axis_equals_one_task_at_a_time(self):
        rng = np.random.default_rng(7)
        spec = [(5, "relu"), (3, "tanh"), (1, "sigmoid")]
        shared = init_mlp_params(4, spec, seed=1)
        x = rng.normal(size=(3, 6, 4))
        y = rng.integers(0, 2, size=(3, 6)).astype(float)
        per_task = [mlp_loss_and_grad(shared, x[b], y[b], spec) for b in range(3)]
        # shared weights broadcast over the task axis
        loss, grads = mlp_loss_and_grad(shared, x, y, spec)
        # per-task weights stacked on the task axis
        stacked = [np.stack([w - 0.1 * b for b in range(3)]) for w in shared]
        loss_s, grads_s = mlp_loss_and_grad(stacked, x, y, spec)
        for b, (task_loss, task_grads) in enumerate(per_task):
            assert loss[b] == task_loss
            for g, ref in zip(grads, task_grads):
                assert np.array_equal(g[b], ref)
            own = mlp_loss_and_grad([w[b] for w in stacked], x[b], y[b], spec)
            assert loss_s[b] == own[0]
            for g, ref in zip(grads_s, own[1]):
                assert np.array_equal(g[b], ref)

    def test_rejects_bad_labels_and_shapes(self):
        spec = [(2, "relu"), (1, "sigmoid")]
        weights = init_mlp_params(3, spec, seed=0)
        with pytest.raises(InputError):
            mlp_loss_and_grad(weights, np.zeros((2, 3)), np.array([0.0, 2.0]), spec)
        with pytest.raises(ConfigurationError, match="layer 0"):
            mlp_loss_and_grad(weights, np.zeros((2, 4)), np.zeros(2), spec)
        with pytest.raises(ConfigurationError, match="unknown activation"):
            mlp_loss_and_grad(weights, np.zeros((2, 3)), np.zeros(2),
                              [(2, "gelu"), (1, "sigmoid")])

    @pytest.mark.parametrize("labels", [[1.0], [1.0, 0.0, 1.0]], ids=["one", "three"])
    def test_labels_must_fit_the_rows(self, labels):
        # one label used to broadcast over all five rows, and three to raise a
        # bare numpy error
        spec = [(2, "relu"), (1, "sigmoid")]
        weights = init_mlp_params(3, spec, seed=0)
        with pytest.raises(InputError, match=rf"y \({len(labels)},\) must hold one label "
                                             r"per row of x \(5, 3\)"):
            mlp_loss_and_grad(weights, np.zeros((5, 3)), labels, spec)
        with pytest.raises(InputError, match=r"x \(2, 5, 3\)"):
            mlp_loss_and_grad(weights, np.zeros((2, 5, 3)), np.zeros((2, len(labels))), spec)

    def test_labels_broadcast_over_the_task_axis(self):
        spec = [(2, "relu"), (1, "sigmoid")]
        weights = init_mlp_params(3, spec, seed=0)
        x, y = np.linspace(-1, 1, 30).reshape(2, 5, 3), np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        loss, _ = mlp_loss_and_grad(weights, x, y, spec)
        assert loss.tolist() == [float(mlp_loss_and_grad(weights, x[k], y, spec)[0])
                                 for k in range(2)]


def _add_at_aggregate(x, src, dst):
    """Reference aggregation: x plus an unbuffered np.add.at over the edges."""
    out = x.copy()
    np.add.at(out, dst, x[src])
    return out


# (n_nodes, src, dst): no edges, isolated nodes, duplicate edges, and a hub
# (node 0) with in-degree 8 and out-degree 7, including a duplicate each way
EDGE_CASES = {
    "no_edges": (4, [], []),
    "isolated_nodes": (7, [0, 1, 2], [1, 2, 0]),
    "duplicate_edges": (3, [0, 0, 1, 0, 2, 0], [1, 1, 0, 1, 1, 2]),
    "hub": (8, [1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0, 0, 3, 0, 7],
            [0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 0, 3, 0]),
}


class TestEdgeAggregate:
    @pytest.mark.parametrize("width", [1, 8, 16, 17])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_forward_and_vjp_bitwise_equal_to_add_at(self, case, width):
        n, src, dst = EDGE_CASES[case]
        src, dst = np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)
        edges = ops.EdgeIndex(src, dst, n)
        rng = np.random.default_rng(width)
        x, g = rng.normal(size=(n, width)), rng.normal(size=(n, width))
        out = ops.edge_aggregate(x, edges)
        assert out.tobytes() == _add_at_aggregate(x, src, dst).tobytes()
        # d(sum(aggregate(x) * g))/dx is the vjp applied to g
        leaf = GradientTape([x]).leaves[0]
        loss = taped.total(taped.mul(taped.edge_aggregate(leaf, edges), g))
        dx = grad(loss, [x])[0]
        assert dx.tobytes() == _add_at_aggregate(g, dst, src).tobytes()

    def test_random_multigraphs_bitwise_equal_to_add_at(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            src, dst = rng.integers(0, n, size=(2, int(rng.integers(0, 120))))
            x = rng.normal(size=(n, 5))
            out = ops.edge_aggregate(x, ops.EdgeIndex(src, dst, n))
            assert out.tobytes() == _add_at_aggregate(x, src, dst).tobytes()

    @pytest.mark.parametrize("src, dst, match", [
        ([-1], [0], "src index -1"),
        ([0], [3], "dst index 3"),
        ([0, 1], [1], "2 sources but 1 destinations"),
        ([0.0], [1], "integer"),
    ])
    def test_bad_indices_rejected_when_built(self, src, dst, match):
        with pytest.raises(InputError, match=match):
            ops.EdgeIndex(np.array(src), np.array(dst), 3)

    def test_negative_node_count_rejected(self):
        with pytest.raises(InputError, match="n_nodes"):
            ops.EdgeIndex(np.array([], dtype=np.intp), np.array([], dtype=np.intp), -1)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_row_count_must_match_node_count(self, rows):
        edges = ops.EdgeIndex(np.array([0, 1]), np.array([1, 2]), 3)
        with pytest.raises(InputError, match="3 rows"):
            ops.edge_aggregate(np.ones((rows, 2)), edges)


def _loop_scatter(v, receivers, senders):
    """Reference: v plus v[s] added to row r pair by pair, in pair order."""
    out = v.copy()
    for r, s in zip(receivers.tolist(), senders.tolist()):
        out[r] = out[r] + v[s]
    return out


class TestScatterAdd:
    # rows 1-5 are -0.0, inf, -inf, NaN and a mix; row 6 is an isolated -0.0
    # row, in no group either way, that must come out as -0.0
    SRC = np.array([1, 2, 3, 4, 1, 5, 0, 2, 3, 5, 1], dtype=np.intp)
    DST = np.array([0, 0, 0, 0, 3, 3, 5, 5, 1, 1, 2], dtype=np.intp)

    @staticmethod
    def rows():
        return np.array([
            [1.5, -2.0, 0.25, 3.0],
            [-0.0, -0.0, -0.0, -0.0],
            [np.inf, 1.0, -np.inf, -0.0],
            [-np.inf, -0.0, np.inf, 2.0],
            [np.nan, 0.0, -1.0, np.nan],
            [-0.0, np.nan, np.inf, -5.0],
            [-0.0, -0.0, -0.0, -0.0],
        ])

    @pytest.mark.parametrize("direction", ["into_dst", "into_src"])
    @pytest.mark.parametrize("buffers", [False, True])
    def test_equal_to_an_edge_by_edge_loop(self, direction, buffers):
        edges = ops.EdgeIndex(self.SRC, self.DST, 7)
        groups = getattr(edges, direction)
        receivers, senders = ((self.DST, self.SRC) if direction == "into_dst"
                              else (self.SRC, self.DST))
        assert groups.later, "the case must have more than one rank group"
        v = self.rows()
        padded = np.vstack([v, np.full((1, 4), 7.0)])  # the spare row is overwritten
        out, scratch = ((np.full((7, 4), 9.0), [np.full((7, 4), 9.0) for _ in range(2)])
                        if buffers else (None, None))
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN on both sides
            result = ops.scatter_add(padded, groups, out, scratch)
            expected = _loop_scatter(v, receivers, senders)
        assert result.tobytes() == expected.tobytes()
        assert np.signbit(result[6]).all() and not result[6].any()
        assert padded[:-1].tobytes() == v.tobytes()
        if buffers:
            assert result is out


    @pytest.mark.parametrize("direction", ["into_dst", "into_src"])
    def test_blocks_of_scratch_rows_equal_whole_groups(self, direction):
        rng = np.random.default_rng(8)
        n = 60
        src, dst = rng.integers(0, n, size=(2, 400))
        groups = getattr(ops.EdgeIndex(src, dst, n), direction)
        assert max(len(receivers) for receivers, _ in groups.later) > 8
        padded = np.vstack([rng.normal(size=(n, 5)), np.zeros((1, 5))])
        whole = ops.scatter_add(padded, groups)
        blocks = [np.full((8, 5), 9.0) for _ in range(2)]
        assert ops.scatter_add(padded, groups, None, blocks).tobytes() == whole.tobytes()


def _loop_rank_groups(keys, others, n_rows):
    """Reference: the rank groups built edge by edge in a Python loop."""
    members, seen = [], {}
    for edge, key in enumerate(keys.tolist()):
        rank = seen.get(key, 0)
        seen[key] = rank + 1
        if rank == len(members):
            members.append([])
        members[rank].append(edge)
    groups = [(keys[m], others[m]) for m in map(np.array, members)]
    first = np.full(n_rows, n_rows, dtype=np.intp)
    if groups:
        first[groups[0][0]] = groups[0][1]
    return first, groups[1:]


class TestRankGroups:
    @staticmethod
    def assert_equal_to_loop(src, dst, n):
        edges = ops.EdgeIndex(np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp), n)
        for groups, keys, others in ((edges.into_dst, edges.dst, edges.src),
                                     (edges.into_src, edges.src, edges.dst)):
            first, later = _loop_rank_groups(keys, others, n)
            assert groups.first.tobytes() == first.tobytes()
            assert len(groups.later) == len(later)
            for (receivers, senders), (ref_receivers, ref_senders) in zip(groups.later, later):
                assert receivers.tobytes() == ref_receivers.tobytes()
                assert senders.tobytes() == ref_senders.tobytes()

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_equal_to_a_loop(self, case):
        self.assert_equal_to_loop(*EDGE_CASES[case][1:], EDGE_CASES[case][0])

    def test_random_edge_lists_equal_to_a_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            # few nodes and many edges repeat (src, dst) pairs; many nodes and
            # few edges leave nodes with no in-edges
            src, dst = rng.integers(0, n, size=(2, int(rng.integers(0, 90))))
            self.assert_equal_to_loop(src, dst, n)


class TestActivations:
    Z = np.array([[-2.0, -0.0, 0.0, 0.5, 3.0], [np.nan, -np.inf, np.inf, 1e-300, -1e-300]])
    G = np.array([[1.0, -1.0, -2.0, 0.5, -0.0], [-3.0, 2.0, -1.0, 4.0, -1.0]])

    @pytest.mark.parametrize("name", sorted(ops.ACTIVATIONS))
    def test_vjp_into_its_own_output_equals_out_of_place(self, name):
        forward, vjp = ops.ACTIVATIONS[name]
        out = forward(self.Z.copy())
        expected = vjp(self.G, out.copy())
        into = out.copy()
        assert vjp(self.G, into, into).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(ops.ACTIVATIONS))
    def test_forward_into_its_input_equals_out_of_place(self, name):
        forward, _ = ops.ACTIVATIONS[name]
        z = self.Z.copy()
        assert forward(z, z).tobytes() == forward(self.Z.copy()).tobytes()

    def test_relu_vjp_reads_the_mask_of_z_from_the_output(self):
        forward, vjp = ops.ACTIVATIONS["relu"]
        z, g = self.Z, self.G
        assert vjp(g, forward(z)).tobytes() == np.multiply(g, np.greater(z, 0.0)).tobytes()


    def test_relu_vjp_on_the_mask_equals_it_on_the_output(self):
        forward, vjp = ops.ACTIVATIONS["relu"]
        out = forward(self.Z.copy())
        g = np.array([[-0.0, 0.0, -0.0, -0.0, 0.0], [-0.0, 1.0, -0.0, -2.0, -0.0]])
        expected = vjp(g, out).tobytes()
        assert vjp(g, out > 0.0).tobytes() == expected
        into = g.copy()
        assert vjp(into, out > 0.0, into).tobytes() == expected


def _heavy_tailed(rng, shape):
    """Cauchy draws scaled by 1e-30..1e30, so that the order of the adds moves
    the last bits, with some dead columns of random-signed zeros."""
    values = rng.standard_cauchy(shape) * 10.0 ** rng.integers(-30, 31, size=shape)
    dead = rng.random(shape[1]) < 0.2
    values[:, dead] = np.where(rng.random((shape[0], int(dead.sum()))) < 0.5, -0.0, 0.0)
    return values


class TestWholeArrayForms:
    """The GNN backward's whole-array forms equal the numpy calls they stand
    in for, bit for bit."""

    ROWS = (1, 2, 7, 8, 9, 16, 17, 129, 1000, 20_000)

    @pytest.mark.parametrize("width", range(1, 65))
    def test_column_sum_equals_sum_over_rows(self, width):
        rng = np.random.default_rng(width)
        for rows in self.ROWS:
            g = _heavy_tailed(rng, (rows, width))
            assert nets.column_sum(g).tobytes() == g.sum(axis=0).tobytes(), rows
            # other layouts: a Fortran-ordered copy, and every other row
            for other in (np.asfortranarray(g), g[::2]):
                assert nets.column_sum(other).tobytes() == other.sum(axis=0).tobytes(), rows

    @pytest.mark.parametrize("width", [1, 2, 16, 17])
    def test_readout_adjoint_equals_the_k1_product(self, width):
        rng = np.random.default_rng(100 + width)
        # signed zeros, subnormals and products that underflow to zero
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -1e-300]
        g = np.concatenate([specials, rng.normal(size=500) * 10.0 ** rng.integers(-8, 9, 500)])
        g = g.reshape(-1, 1)
        for w in (np.concatenate([[0.0, -0.0, 1e-20, -1e-20], rng.normal(size=width)])[:width],
                  rng.normal(size=width) * 1e-300):
            w = w.reshape(width, 1)
            expected = np.matmul(g, w.T)
            out = np.full(expected.shape, 7.0)
            assert nets.readout_adjoint(g, w, out).tobytes() == expected.tobytes()
            assert nets.readout_adjoint(g, w).tobytes() == expected.tobytes()

    def test_readout_adjoint_of_a_wider_head_is_the_product(self):
        rng = np.random.default_rng(5)
        g, w = rng.normal(size=(30, 3)), rng.normal(size=(8, 3))
        assert nets.readout_adjoint(g, w).tobytes() == np.matmul(g, w.T).tobytes()


class TestSgdStep:
    """`descend`, the one SGD step."""

    def test_zero_lr_is_identity(self):
        weights = [np.array([1.0, -2.0])]
        out = descend(weights, [np.array([10.0, 10.0])], 0.0)
        assert [w.tobytes() for w in out] == [w.tobytes() for w in weights]

    def test_hand_arithmetic(self):
        out = descend([np.array([1.0])], [np.array([2.0])], 0.1)
        assert out[0][0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_grads_leave_params_unchanged(self):
        weights = [np.array([[0.3, 0.4]])]
        out = descend(weights, [np.zeros((1, 2))], 3.7)
        assert out[0].tobytes() == weights[0].tobytes()

    def test_incompatible_sets_listed_in_error(self):
        weights = [np.array([1.0]), np.array([2.0])]
        with pytest.raises(InputError, match="2 weights but 1 gradients"):
            descend(weights, [np.array([1.0])], 0.1)

    def test_linear_in_lr(self):
        rng = np.random.default_rng(11)
        weights = [rng.normal(size=(3, 2))]
        grads = [rng.normal(size=(3, 2))]
        a, b = 0.05, 0.125
        joint = descend(weights, grads, a + b)
        chained = descend(descend(weights, grads, a), grads, b)
        assert np.allclose(joint[0], chained[0], rtol=0.0, atol=1e-12)

    def test_inputs_not_modified(self):
        weights, grads = [np.array([1.0])], [np.array([1.0])]
        descend(weights, grads, 0.5)
        assert weights[0][0] == 1.0
        assert grads[0][0] == 1.0


class TestFiniteDiff:
    def test_linear_loss_recovers_coefficients(self):
        c = np.array([2.0, -3.5, 0.25])
        params = [np.array([1.0, 1.0, 1.0])]
        fd = finite_diff_grad(lambda p: float(c @ p[0]), params, 1e-4)
        assert np.allclose(fd[0], c, atol=1e-9)

    def test_constant_loss_gives_zeros(self):
        params = [np.array([4.0, 5.0])]
        fd = finite_diff_grad(lambda p: 7.0, params, 1e-3)
        assert np.array_equal(fd[0], np.zeros(2))

    def test_quadratic_at_three(self):
        params = [np.array(3.0)]
        fd = finite_diff_grad(lambda p: float(p[0]) ** 2, params, 1e-4)
        assert float(fd[0]) == pytest.approx(6.0, abs=1e-7)

    def test_nonpositive_step_rejected(self):
        params = [np.array(1.0)]
        with pytest.raises(InputError):
            finite_diff_grad(lambda p: 0.0, params, 0.0)


def test_ops_are_pure_and_bitwise_repeatable():
    spec = [(3, "relu"), (1, "sigmoid")]
    params = init_mlp_params(4, spec, seed=2)
    x = np.linspace(0, 1, 8).reshape(2, 4)
    first = forward_mlp(params, x, spec)
    second = forward_mlp(params, x, spec)
    assert np.array_equal(first, second)
