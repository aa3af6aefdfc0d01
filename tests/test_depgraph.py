import json
import re
from dataclasses import replace

import numpy as np
import pytest

from selfheal.errors import ConfigurationError, InputError, SchemaError, TrainingError
from selfheal.depgraph import (
    FailurePrediction,
    GnnParams,
    embedding_width,
    gnn_layer,
    init_embeddings,
    init_gnn,
    load_gnn,
    mttfp,
    predict_failures,
    prediction_rates,
    read_graph,
    save_gnn,
    train_gnn,
    write_graph,
)
from selfheal.depgraph.gnn import (
    _forward_probs, _training_samples, edge_arrays, fails_within, gnn_param_shapes,
)
from selfheal.numerics import (
    GradientTape, ParamSet, Tensor, Workspace, bce_loss, finite_diff_grad,
    gnn_loss_and_grad, grad, init_uniform_params, sgd_step, tape,
)
from selfheal.simulator import ComponentGraph, propagate_cascade
from selfheal.simulator.cascade import NODE_KINDS, make_cascade_dataset, make_tree_graph


def chain3() -> ComponentGraph:
    nodes = [
        ("n0", "query", (0.5, 0.5)),
        ("n1", "table", (0.5, 0.5)),
        ("n2", "index", (0.5, 0.5)),
    ]
    return ComponentGraph(nodes, [("n0", "n1", 1.0), ("n1", "n2", 1.0)])


def flat_telemetry(graph, ticks=6, value=0.2):
    return {nid: np.full((ticks, 5), value) for nid in graph.node_ids}


class TestInitEmbeddings:
    def test_width_is_kinds_plus_static_plus_metrics(self):
        graph = chain3()
        emb = init_embeddings(graph, flat_telemetry(graph), tick=0)
        assert emb.width == 5 + 2 + 5
        assert embedding_width(graph) == 12

    def test_identical_nodes_get_identical_vectors(self):
        nodes = [("a", "table", (0.3, 0.7)), ("b", "table", (0.3, 0.7))]
        graph = ComponentGraph(nodes, [])
        emb = init_embeddings(graph, flat_telemetry(graph), tick=2)
        assert np.array_equal(emb.vector("a"), emb.vector("b"))

    def test_hand_assembled_concatenation(self):
        graph = ComponentGraph([("a", "index", (0.25, 0.75))], [])
        telemetry = {"a": np.tile([0.4, 0.5, 20.0, 100.0, 300.0], (8, 1))}
        emb = init_embeddings(graph, telemetry, tick=7)
        expected = np.array(
            [0, 0, 1, 0, 0, 0.25, 0.75, 0.4, 0.5, 0.2, 0.1, 0.3]
        )
        assert np.allclose(emb.vector("a"), expected, atol=1e-15)

    def test_missing_telemetry_rejected(self):
        graph = chain3()
        with pytest.raises(InputError, match="n2"):
            init_embeddings(graph, {"n0": np.zeros((4, 5)), "n1": np.zeros((4, 5))}, 0)

    @pytest.mark.parametrize("tick", [-1, 6])
    def test_tick_outside_telemetry_rejected(self, tick):
        graph = chain3()
        with pytest.raises(InputError, match=f"tick {tick} outside telemetry"):
            init_embeddings(graph, flat_telemetry(graph, ticks=6), tick)

    def test_bitwise_equal_to_per_node_concatenation(self):
        scale = np.array([1.0, 1.0, 100.0, 1000.0, 1000.0])
        for trace in make_cascade_dataset(8, seed=12):
            for tick in range(trace.ticks):
                rows = []
                for node in trace.graph.nodes:
                    one_hot = np.zeros(len(NODE_KINDS))
                    one_hot[NODE_KINDS.index(node.kind)] = 1.0
                    reading = trace.node_telemetry[node.id][tick] / scale
                    rows.append(np.concatenate([one_hot, node.static_features, reading]))
                emb = init_embeddings(trace.graph, trace.node_telemetry, tick)
                assert emb.vectors.tobytes() == np.stack(rows).tobytes()


class TestGnnLayer:
    def test_zero_weights_give_activation_of_bias(self):
        graph = chain3()
        emb = init_embeddings(graph, flat_telemetry(graph), 0)
        b = np.array([0.3, -0.2])
        out = gnn_layer(graph, emb, (np.zeros((12, 2)), b, "relu"))
        expected = np.maximum(b, 0.0)
        for nid in graph.node_ids:
            assert np.array_equal(out.vector(nid), expected)

    def test_identity_on_isolated_node(self):
        graph = ComponentGraph([("a", "query", ())], [])
        emb_width = embedding_width(graph)
        telemetry = {"a": np.full((3, 5), 0.4)}
        emb = init_embeddings(graph, telemetry, 0)
        out = gnn_layer(graph, emb, (np.eye(emb_width), np.zeros(emb_width), "relu"))
        # h is nonnegative, so relu(I h + 0) == h
        assert np.array_equal(out.vector("a"), emb.vector("a"))

    @pytest.mark.parametrize(
        "activation, act",
        [("relu", lambda z: np.maximum(z, 0.0)), ("tanh", np.tanh), ("linear", lambda z: z)],
        ids=["relu", "tanh", "linear"],
    )
    def test_two_node_hand_computed_fixture(self, activation, act):
        graph = ComponentGraph(
            [("a", "query", ()), ("b", "table", ())], [("a", "b", 0.9)]
        )
        from selfheal.depgraph.gnn import NodeEmbeddings

        h = NodeEmbeddings(0, ("a", "b"), np.array([[1.0, 2.0], [0.5, -1.0]]))
        w = np.array([[0.3, -0.2], [0.1, 0.4]])
        b = np.array([0.05, -0.05])
        out = gnn_layer(graph, h, (w, b, activation))
        # N(a) = {a}: act([1,2] @ W + b); N(b) = {a,b}: act([1.5,1] @ W + b)
        expected_a = act(np.array([1.0, 2.0]) @ w + b)
        expected_b = act(np.array([1.5, 1.0]) @ w + b)
        assert np.allclose(out.vector("a"), expected_a, atol=1e-12)
        assert np.allclose(out.vector("b"), expected_b, atol=1e-12)

    def test_permutation_equivariance_exact(self):
        nodes = [
            ("x", "query", (0.1, 0.2)),
            ("y", "table", (0.3, 0.4)),
            ("z", "disk", (0.5, 0.6)),
        ]
        edges = [("x", "y", 0.8), ("y", "z", 0.6), ("x", "z", 0.3)]
        g1 = ComponentGraph(nodes, edges)
        g2 = ComponentGraph([nodes[2], nodes[0], nodes[1]], edges)
        telemetry = {
            "x": np.full((2, 5), 0.2),
            "y": np.full((2, 5), 0.4),
            "z": np.full((2, 5), 0.6),
        }
        rng = np.random.default_rng(0)
        layer = (rng.normal(size=(12, 3)), rng.normal(size=3), "relu")
        out1 = gnn_layer(g1, init_embeddings(g1, telemetry, 0), layer)
        out2 = gnn_layer(g2, init_embeddings(g2, telemetry, 0), layer)
        for nid in ("x", "y", "z"):
            assert np.array_equal(out1.vector(nid), out2.vector(nid))

    def test_added_edge_only_changes_target(self):
        nodes = [
            ("x", "query", (0.1, 0.2)),
            ("y", "table", (0.3, 0.4)),
            ("z", "disk", (0.5, 0.6)),
        ]
        g1 = ComponentGraph(nodes, [("x", "y", 0.5)])
        g2 = ComponentGraph(nodes, [("x", "y", 0.5), ("x", "z", 0.5)])
        telemetry = {
            "x": np.full((2, 5), 0.2),
            "y": np.full((2, 5), 0.4),
            "z": np.full((2, 5), 0.6),
        }
        rng = np.random.default_rng(1)
        layer = (rng.normal(size=(12, 4)), rng.normal(size=4), "relu")
        out1 = gnn_layer(g1, init_embeddings(g1, telemetry, 0), layer)
        out2 = gnn_layer(g2, init_embeddings(g2, telemetry, 0), layer)
        assert np.array_equal(out1.vector("x"), out2.vector("x"))
        assert np.array_equal(out1.vector("y"), out2.vector("y"))
        assert not np.array_equal(out1.vector("z"), out2.vector("z"))

    def test_width_mismatch_rejected(self):
        graph = chain3()
        emb = init_embeddings(graph, flat_telemetry(graph), 0)
        with pytest.raises(ConfigurationError):
            gnn_layer(graph, emb, (np.zeros((7, 2)), np.zeros(2), "relu"))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_chained_layers_and_readout_equal_forward_pass(self, activation):
        traces = make_cascade_dataset(6, seed=4)
        trained = train_gnn(traces, hidden_widths=(6, 5), epochs=5, seed=3).gnn
        gnn = replace(trained, hidden_activation=activation)
        trace = traces[-1]
        emb = init_embeddings(trace.graph, trace.node_telemetry, trace.onset + 1)
        h0 = emb.vectors
        for i in range(len(gnn.hidden_widths)):
            layer = (gnn.params[f"layer{i}.W"], gnn.params[f"layer{i}.b"], activation)
            emb = gnn_layer(trace.graph, emb, layer)
        z = emb.vectors @ gnn.params["readout.w"].values + gnn.params["readout.b"].values
        chained = 1.0 / (1.0 + np.exp(-z))
        probs = _forward_probs(gnn.params, edge_arrays(trace.graph), h0,
                               gnn.hidden_widths, activation)
        assert np.array_equal(chained, probs)


class TestFailureLabels:
    @pytest.mark.parametrize("tick, horizon, expected", [
        (0, 0, [0, 0, 0, 0]),
        (1, 0, [1, 0, 0, 0]),
        (0, 2, [1, 1, 0, 0]),
        (1, 2, [1, 1, 1, 0]),
        (3, 0, [1, 1, 1, 0]),  # a node that failed earlier still counts
        (5, 9, [1, 1, 1, 0]),
    ])
    def test_chain_labels_by_hand(self, tick, horizon, expected):
        # n0 -> n1 -> n2 fail at ticks 1, 2, 3; n3 has no dependencies and
        # never fails
        graph = ComponentGraph(
            [*chain3().nodes, ("n3", "disk", (0.5, 0.5))], chain3().edges
        )
        trace = propagate_cascade(graph, "n0", onset=1, horizon=8, fail_threshold=0.5,
                                  seed=0)
        assert trace.failure_times == {"n0": 1, "n1": 2, "n2": 3, "n3": None}
        labels = fails_within(trace, tick, horizon)
        assert labels.dtype == np.float64
        assert labels.tolist() == expected


class TestPredictFailures:
    def test_zero_readout_gives_half_probabilities(self):
        graph = chain3()
        gnn = init_gnn(graph, seed=0)
        zeroed = ParamSet(
            {
                k: (Tensor(np.zeros(v.shape)) if k.startswith("readout") else v)
                for k, v in gnn.params.items()
            }
        )
        gnn = GnnParams(gnn.input_width, gnn.hidden_widths, zeroed)
        pred = predict_failures(graph, flat_telemetry(graph), gnn, horizon=3)
        for prob, _tick in pred.per_node.values():
            assert prob == 0.5

    def test_unreachable_threshold_never_flags(self):
        graph = chain3()
        gnn = init_gnn(graph, seed=1)
        pred = predict_failures(
            graph, flat_telemetry(graph), gnn, horizon=4, flag_threshold=1.0
        )
        assert all(tick is None for _, tick in pred.per_node.values())


class TestTrainGnn:
    def test_zero_epochs_returns_initialization(self):
        traces = make_cascade_dataset(4, seed=5)
        result = train_gnn(traces, epochs=0, seed=9)
        assert result.gnn.params == init_gnn(
            traces[0].graph, seed=9, label_horizon=result.gnn.label_horizon
        ).params
        assert result.loss_curve == []

    def test_fixed_seed_reproducible(self):
        traces = make_cascade_dataset(6, seed=6)
        a = train_gnn(traces, epochs=10, seed=4)
        b = train_gnn(traces, epochs=10, seed=4)
        assert a.gnn.params == b.gnn.params
        assert a.loss_curve == b.loss_curve

    def test_loss_decreases(self):
        traces = make_cascade_dataset(20, seed=7)
        result = train_gnn(traces, epochs=60, seed=2)
        assert result.loss_curve[-1] <= result.loss_curve[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            train_gnn([], epochs=1, seed=0)

    @pytest.mark.parametrize("lr, match", [
        (-0.1, "iteration 0: parameters diverged: learning rate must be >= 0"),
        (1e300, "iteration 1: parameters diverged: tensor values must be finite"),
        (np.inf, "iteration 0: parameters diverged: tensor values must be finite"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bad_step_is_a_training_error_at_its_epoch(self, lr, match):
        with pytest.raises(TrainingError, match=match):
            train_gnn(make_cascade_dataset(4, seed=5), epochs=3, lr=lr, seed=1)

    def test_gradient_matches_finite_differences_on_chain(self):
        graph = chain3()
        gnn = init_gnn(graph, seed=11, hidden_widths=(4,))
        edges = edge_arrays(graph)
        h0 = init_embeddings(graph, flat_telemetry(graph), 0).vectors
        labels = np.array([[1.0], [0.0], [1.0]])

        def loss_fn(ps: ParamSet) -> float:
            arrays = {k: v.values for k, v in ps.items()}
            probs = _forward_probs(arrays, edges, h0, (4,))
            return float(tape.value_of(bce_loss(probs, labels)))

        recorder = GradientTape(gnn.params)
        probs = _forward_probs(recorder.leaves, edges, h0, (4,))
        reverse = grad(bce_loss(probs, labels), gnn.params)
        oracle = finite_diff_grad(loss_fn, gnn.params, 1e-4)
        for name in gnn.params:
            assert np.allclose(
                reverse[name].values, oracle[name].values, rtol=1e-5, atol=1e-8
            ), name

    def test_two_layer_tanh_gradient_matches_finite_differences_on_hub(self):
        # a hub with in- and out-degree 5 gives the grouped vjp several rank
        # groups; tanh has no kinks, so the oracle holds at any point
        nodes = [(f"n{i}", NODE_KINDS[i % 5], (0.1 * i, 0.5)) for i in range(7)]
        edges = [(f"n{i}", "n0", 1.0) for i in range(1, 6)]
        edges += [("n0", f"n{i}", 1.0) for i in range(2, 7)] + [("n6", "n5", 1.0)]
        graph = ComponentGraph(nodes, edges)
        widths = (4, 3)
        gnn = init_gnn(graph, seed=5, hidden_widths=widths)
        telemetry = {nid: np.linspace(0.1, 0.9, 15).reshape(3, 5) * (i + 1)
                     for i, nid in enumerate(graph.node_ids)}
        h0 = init_embeddings(graph, telemetry, 1).vectors
        labels = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [0.0], [1.0]])
        edge_index = edge_arrays(graph)

        def loss_fn(ps: ParamSet) -> float:
            arrays = {k: v.values for k, v in ps.items()}
            probs = _forward_probs(arrays, edge_index, h0, widths, "tanh")
            return float(tape.value_of(bce_loss(probs, labels)))

        recorder = GradientTape(gnn.params)
        probs = _forward_probs(recorder.leaves, edge_index, h0, widths, "tanh")
        reverse = grad(bce_loss(probs, labels), gnn.params)
        oracle = finite_diff_grad(loss_fn, gnn.params, 1e-5)
        for name in gnn.params:
            assert np.allclose(
                reverse[name].values, oracle[name].values, rtol=1e-5, atol=1e-8
            ), name

    @pytest.mark.parametrize("widths", [(16, 16), (5,), ()])
    def test_equal_to_a_loop_that_aggregates_h0_every_epoch(self, widths):
        traces = make_cascade_dataset(6, seed=6)
        epochs, lr, seed = 8, 0.3, 4
        result = train_gnn(traces, hidden_widths=widths, epochs=epochs, lr=lr, seed=seed)

        gnn = init_gnn(traces[0].graph, seed=seed, hidden_widths=widths)
        rng = np.random.Generator(np.random.PCG64(seed))
        samples = _training_samples(traces, gnn.label_horizon, rng)
        src, dst, offset = [], [], 0
        for graph, h, _ in samples:
            graph_edges = edge_arrays(graph)
            src.append(graph_edges.src + offset)
            dst.append(graph_edges.dst + offset)
            offset += h.shape[0]
        edges = tape.EdgeIndex(np.concatenate(src), np.concatenate(dst), offset)
        h0 = np.vstack([h for _, h, _ in samples])
        labels = np.concatenate([y for _, _, y in samples]).reshape(-1, 1)
        params, curve = gnn.params, []
        for _ in range(epochs):
            recorder = GradientTape(params)
            loss = bce_loss(_forward_probs(recorder.leaves, edges, h0, widths), labels)
            curve.append(float(tape.value_of(loss)))
            params = sgd_step(params, grad(loss, params), lr)

        assert result.loss_curve == curve
        assert list(result.gnn.params) == list(params)
        assert result.gnn.params.flatten().tobytes() == params.flatten().tobytes()

    def test_trained_model_flags_seed_before_deep_downstream(self):
        # chain deeper than the model's receptive field: the far node can only
        # be flagged once the failure wave degrades telemetry within two hops
        traces = make_cascade_dataset(60, seed=21)
        result = train_gnn(traces, epochs=150, lr=0.3, seed=8)
        nodes = [(f"n{i}", "table", (0.5, 0.5)) for i in range(5)]
        edges = [(f"n{i}", f"n{i + 1}", 1.0) for i in range(4)]
        trace = propagate_cascade(ComponentGraph(nodes, edges), "n0", onset=3,
                                  horizon=14, fail_threshold=0.5, seed=13)
        pred = predict_failures(
            trace.graph, trace.node_telemetry, result.gnn, horizon=trace.ticks
        )
        flags = {nid: tick for nid, (_, tick) in pred.per_node.items()}
        assert flags["n0"] is not None and flags["n4"] is not None
        assert flags["n0"] < flags["n4"]
        assert flags["n4"] < trace.failure_times["n4"]


def hub7():
    """(edges, h0, labels) of the 7-node hub graph: in- and out-degree 5 at n0,
    which gives the forward and the vjp scatters several rank groups."""
    nodes = [(f"n{i}", NODE_KINDS[i % 5], (0.1 * i, 0.5)) for i in range(7)]
    edges = [(f"n{i}", "n0", 1.0) for i in range(1, 6)]
    edges += [("n0", f"n{i}", 1.0) for i in range(2, 7)] + [("n6", "n5", 1.0)]
    graph = ComponentGraph(nodes, edges)
    telemetry = {nid: np.linspace(0.1, 0.9, 15).reshape(3, 5) * (i + 1)
                 for i, nid in enumerate(graph.node_ids)}
    h0 = init_embeddings(graph, telemetry, 1).vectors
    return edge_arrays(graph), h0, np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])


def stacked_batch():
    """(edges, h0, labels) of several cascade samples stacked on one node axis
    with offset edge indices, as `train_gnn` stacks them."""
    samples = _training_samples(make_cascade_dataset(5, seed=12), 2,
                                np.random.Generator(np.random.PCG64(3)))
    src, dst, offset = [], [], 0
    for graph, h, _ in samples:
        graph_edges = edge_arrays(graph)
        src.append(graph_edges.src + offset)
        dst.append(graph_edges.dst + offset)
        offset += h.shape[0]
    edges = tape.EdgeIndex(np.concatenate(src), np.concatenate(dst), offset)
    return (edges, np.vstack([h for _, h, _ in samples]),
            np.concatenate([y for _, _, y in samples]))


KERNEL_GRAPHS = {"hub": hub7, "stacked": stacked_batch}


class TestGnnKernel:
    """`gnn_loss_and_grad` against the taped grad(bce_loss(_forward_probs(...)))."""

    @staticmethod
    def kernel(params, edges, h0, labels, widths, activation, workspace=None):
        names = list(gnn_param_shapes(h0.shape[1], widths))
        spec = [(width, activation) for width in widths] + [(1, "sigmoid")]
        x = tape.edge_aggregate(h0, edges) if widths else h0
        loss, grads = gnn_loss_and_grad([params[name].values for name in names], x,
                                        labels, edges, spec, workspace)
        return loss, dict(zip(names, grads))

    @staticmethod
    def taped(params, edges, h0, labels, widths, activation):
        recorder = GradientTape(params)
        loss = bce_loss(_forward_probs(recorder.leaves, edges, h0, widths, activation),
                        labels.reshape(-1, 1))
        return tape.value_of(loss), grad(loss, params)

    def assert_bitwise(self, result, reference):
        (loss, grads), (ref_loss, ref_grads) = result, reference
        # tobytes, so that a signed zero from the relu vjp counts
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert sorted(grads) == sorted(ref_grads)
        for name, g in grads.items():
            assert g.shape == ref_grads[name].shape, name
            assert g.tobytes() == ref_grads[name].values.tobytes(), name

    @pytest.mark.parametrize("graph", sorted(KERNEL_GRAPHS))
    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("widths", [(), (5,), (16, 16), (4, 3, 2)], ids=str)
    def test_bitwise_equal_to_tape(self, graph, activation, widths):
        edges, h0, labels = KERNEL_GRAPHS[graph]()
        params = init_uniform_params(gnn_param_shapes(h0.shape[1], widths), seed=31)
        self.assert_bitwise(self.kernel(params, edges, h0, labels, widths, activation),
                            self.taped(params, edges, h0, labels, widths, activation))

    def test_reused_workspace_leaks_nothing_between_passes(self):
        edges, h0, labels = stacked_batch()
        workspace, passes = Workspace(), []
        for widths, activation, seed in [((16, 16), "relu", 1), ((16, 16), "relu", 2),
                                         ((4, 3, 2), "tanh", 3), ((16, 16), "relu", 1)]:
            params = init_uniform_params(gnn_param_shapes(h0.shape[1], widths), seed)
            result = self.kernel(params, edges, h0, labels, widths, activation, workspace)
            reference = self.taped(params, edges, h0, labels, widths, activation)
            self.assert_bitwise(result, reference)
            passes.append((result, reference))
        # later passes overwrite the workspace, never what an earlier pass returned
        for result, reference in passes:
            self.assert_bitwise(result, reference)

    def test_rejects_bad_labels_and_shapes(self):
        edges, h0, labels = hub7()
        params = init_uniform_params(gnn_param_shapes(h0.shape[1], (5,)), seed=0)
        with pytest.raises(InputError, match="labels"):
            self.kernel(params, edges, h0, labels * 2.0, (5,), "relu")
        readout_only = init_uniform_params(gnn_param_shapes(h0.shape[1], ()), seed=0)
        with pytest.raises(InputError, match="one row per node"):
            self.kernel(readout_only, edges, h0[:-1], labels[:-1], (), "relu")
        with pytest.raises(ConfigurationError, match="layer 0"):
            self.kernel(params, edges, h0[:, :-1], labels, (5,), "relu")


class TestMttfp:
    def _prediction(self, flags):
        return FailurePrediction(
            horizon=10, per_node={n: (0.9, t) for n, t in flags.items()}
        )

    def _truth(self, failure_times):
        trace = propagate_cascade(chain3(), "n0", 0, 10, 0.5, seed=0)
        trace.failure_times = failure_times
        return trace

    def test_flags_at_failure_tick_do_not_qualify(self):
        truth = self._truth({"n0": 2, "n1": 3, "n2": 4})
        pred = self._prediction({"n0": 2, "n1": 3, "n2": 4})
        assert mttfp(pred, truth, 1.0) is None

    def test_uniformly_five_ticks_early(self):
        truth = self._truth({"n0": 7, "n1": 8, "n2": 9})
        pred = self._prediction({"n0": 2, "n1": 3, "n2": 4})
        assert mttfp(pred, truth, 1.0) == pytest.approx(5.0)

    def test_tick_seconds_scaling(self):
        truth = self._truth({"n0": 7, "n1": None, "n2": None})
        pred = self._prediction({"n0": 3, "n1": None, "n2": None})
        assert mttfp(pred, truth, 0.5) == pytest.approx(2.0)

    def test_nonnegative_when_defined(self):
        traces = make_cascade_dataset(10, seed=31)
        gnn = init_gnn(traces[0].graph, seed=0)
        for trace in traces:
            pred = predict_failures(trace.graph, trace.node_telemetry, gnn, trace.ticks)
            value = mttfp(pred, trace, 1.0)
            assert value is None or value > 0

    def test_graph_mismatch_rejected(self):
        truth = self._truth({"n0": 2, "n1": 3, "n2": 4})
        pred = FailurePrediction(horizon=5, per_node={"other": (0.5, None)})
        with pytest.raises(InputError):
            mttfp(pred, truth, 1.0)

    def test_rates(self):
        truth = self._truth({"n0": 2, "n1": None, "n2": None})
        pred = self._prediction({"n0": 1, "n1": 5, "n2": None})
        rates = prediction_rates(pred, truth)
        assert rates["false_alarm_rate"] == pytest.approx(0.5)
        assert rates["miss_rate"] == 0.0


class TestGraphIo:
    def test_roundtrip(self, tmp_path):
        graph = make_tree_graph(8, seed=3)
        path = tmp_path / "graph.json"
        write_graph(graph, path)
        assert read_graph(path) == graph

    def test_unknown_node_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"nodes": [{"id": "a", "kind": "query", "static_features": [], '
            '"color": "red"}], "edges": []}'
        )
        with pytest.raises(SchemaError, match="color"):
            read_graph(path)

    def test_unknown_edge_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"nodes": [{"id": "a", "kind": "query", "static_features": []}, '
            '{"id": "b", "kind": "disk", "static_features": []}], '
            '"edges": [{"from": "a", "to": "b", "weight": 0.5, "latency": 3}]}'
        )
        with pytest.raises(SchemaError, match="latency"):
            read_graph(path)

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": []}')
        with pytest.raises(SchemaError, match="edges"):
            read_graph(path)

    @staticmethod
    def _graph_file(tmp_path, nodes, edges=()):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"nodes": list(nodes), "edges": list(edges)}))
        return path

    def _two_nodes(self, tmp_path, edge):
        nodes = [{"id": n, "kind": "query", "static_features": [0.5]} for n in "ab"]
        return self._graph_file(tmp_path, nodes, [edge])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_static_feature_rejected(self, tmp_path, bad):
        path = self._graph_file(
            tmp_path, [{"id": "a", "kind": "query", "static_features": [bad]}]
        )
        with pytest.raises(SchemaError, match=r"node 0\.static_features"):
            read_graph(path)

    def test_unknown_node_kind_is_schema_error(self, tmp_path):
        path = self._graph_file(tmp_path, [
            {"id": "a", "kind": "query", "static_features": []},
            {"id": "b", "kind": "teapot", "static_features": []},
        ])
        with pytest.raises(SchemaError, match="node 1.*teapot"):
            read_graph(path)

    def test_self_edge_is_schema_error(self, tmp_path):
        path = self._two_nodes(tmp_path, {"from": "a", "to": "a", "weight": 0.5})
        with pytest.raises(SchemaError, match="edge 0.*self-edge"):
            read_graph(path)

    @pytest.mark.parametrize("weight", [0.0, 1.5, float("nan")])
    def test_edge_weight_outside_unit_interval_is_schema_error(self, tmp_path, weight):
        path = self._two_nodes(tmp_path, {"from": "a", "to": "b", "weight": weight})
        with pytest.raises(SchemaError, match=r"edge 0.*\(0, 1\]"):
            read_graph(path)

    def test_duplicate_node_id_is_schema_error(self, tmp_path):
        node = {"id": "a", "kind": "query", "static_features": [0.5]}
        path = self._graph_file(tmp_path, [node, node])
        with pytest.raises(SchemaError, match=r"graph\.json: node 1 repeats .*'a'"):
            read_graph(path)

    def test_edge_to_unknown_node_is_schema_error(self, tmp_path):
        path = self._two_nodes(tmp_path, {"from": "a", "to": "zz", "weight": 0.5})
        with pytest.raises(SchemaError, match=r"graph\.json: edge 0 .*zz.*unknown node"):
            read_graph(path)

    def test_ragged_static_features_is_schema_error(self, tmp_path):
        path = self._graph_file(tmp_path, [
            {"id": "a", "kind": "query", "static_features": [0.5]},
            {"id": "b", "kind": "query", "static_features": [0.5, 0.25]},
        ])
        with pytest.raises(SchemaError, match=r"graph\.json: node 1 has 2 static"):
            read_graph(path)

    @pytest.mark.parametrize("section", ["nodes", "edges"])
    def test_non_object_entry_is_schema_error(self, tmp_path, section):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"nodes": [], "edges": [], section: [1]}))
        with pytest.raises(SchemaError, match=rf"graph\.json: {section[:-1]} 0 must be"):
            read_graph(path)

    @pytest.mark.parametrize("section", ["nodes", "edges"])
    def test_non_list_section_is_schema_error(self, tmp_path, section):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"nodes": [], "edges": [], section: 1.5}))
        with pytest.raises(SchemaError, match=rf"graph\.json: section '{section}' must be a list"):
            read_graph(path)

    def test_gnn_roundtrip_bitwise(self, tmp_path):
        gnn = init_gnn(chain3(), seed=8, hidden_widths=(4, 3), label_horizon=3)
        path = tmp_path / "gnn.json"
        save_gnn(gnn, path)
        loaded = load_gnn(path)
        assert loaded == gnn
        for k in gnn.params:
            assert loaded.params[k].values.tobytes() == gnn.params[k].values.tobytes()

    def test_gnn_shape_disagreeing_with_widths_rejected(self, tmp_path):
        path = tmp_path / "gnn.json"
        save_gnn(init_gnn(chain3(), seed=8, hidden_widths=(4,)), path)
        payload = json.loads(path.read_text())
        payload["hidden_widths"] = [5]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="params.layer0.W"):
            load_gnn(path)

    def test_gnn_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "gnn.json"
        save_gnn(init_gnn(chain3(), seed=8, hidden_widths=(4,)), path)
        payload = json.loads(path.read_text())
        payload["params"]["readout.b"]["values"] = [float("inf")]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="params.readout.b"):
            load_gnn(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hidden_activation", "gelu"),
            ("label_horizon", -3),
            ("input_width", "twelve"),
            ("input_width", 12.5),
            ("hidden_widths", [4.0]),
        ],
    )
    def test_gnn_bad_field_names_path_and_field(self, tmp_path, field, value):
        path = tmp_path / "gnn.json"
        save_gnn(init_gnn(chain3(), seed=8, hidden_widths=(4,)), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: field '{field}")):
            load_gnn(path)
