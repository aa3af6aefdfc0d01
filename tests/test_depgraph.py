import json
import re
import weakref
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
    node_failure_accuracy,
    predict_failures,
    prediction_rates,
    read_graph,
    save_gnn,
    score_traces,
    train_gnn,
    write_graph,
)
from selfheal.depgraph import gnn as gnn_module
from selfheal.depgraph.gnn import (
    _inputs_by_tick, _training_batch, edge_arrays, fails_within, gnn_param_shapes,
    scan_failures,
)
from selfheal.numerics import (
    Workspace, descend, finite_diff_grad, gnn_loss_and_grad, init_uniform_params, nets, ops,
)
import taped
from taped import GradientTape, bce_loss, forward_probs, grad, value_of
from selfheal.simulator import ComponentGraph, propagate_cascade
from selfheal.simulator.cascade import NEVER, NODE_KINDS, make_cascade_dataset, make_tree_graph


def bits(weights):
    """A weight list as comparable bytes: each array's shape and bits."""
    return [(np.shape(w), np.asarray(w).tobytes()) for w in weights]


def chain3() -> ComponentGraph:
    nodes = [
        ("n0", "query", (0.5, 0.5)),
        ("n1", "table", (0.5, 0.5)),
        ("n2", "index", (0.5, 0.5)),
    ]
    return ComponentGraph(nodes, [("n0", "n1", 1.0), ("n1", "n2", 1.0)])


def flat_telemetry(graph, ticks=6, value=0.2):
    return np.full((len(graph.nodes), ticks, 5), value)


def in_node_order(graph, series_by_id):
    """A telemetry array whose rows are the given per-id series, in the
    graph's node order."""
    return np.stack([series_by_id[nid] for nid in graph.node_ids])


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
        telemetry = np.tile([0.4, 0.5, 20.0, 100.0, 300.0], (1, 8, 1))
        emb = init_embeddings(graph, telemetry, tick=7)
        expected = np.array(
            [0, 0, 1, 0, 0, 0.25, 0.75, 0.4, 0.5, 0.2, 0.1, 0.3]
        )
        assert np.allclose(emb.vector("a"), expected, atol=1e-15)

    def test_missing_telemetry_rejected(self):
        graph = chain3()
        with pytest.raises(InputError, match=re.escape(
                "telemetry has shape (2, 4, 5), expected (3, ticks, 5)")):
            init_embeddings(graph, np.zeros((2, 4, 5)), 0)

    @pytest.mark.parametrize("shape", [(3, 4, 3), (3, 4), (3, 4, 5, 1), (4,)], ids=str)
    def test_telemetry_of_wrong_shape_names_both_shapes(self, shape):
        # a series with 3 metric columns, or a 1-D one, used to raise numpy's
        # bare "all input arrays must have the same shape"
        graph = chain3()
        message = re.escape(f"telemetry has shape {shape}, expected (3, ticks, 5)")
        with pytest.raises(InputError, match=message):
            init_embeddings(graph, np.full(shape, 0.2), 0)
        with pytest.raises(InputError, match=message):
            predict_failures(graph, np.full(shape, 0.2), init_gnn(graph, seed=0), horizon=1)

    def test_training_trace_of_wrong_shape_names_both_shapes(self):
        trace = next(make_cascade_dataset(1, seed=4))
        bad = replace(trace, telemetry=trace.telemetry[..., :3])
        with pytest.raises(InputError, match=re.escape(
                f"telemetry has shape (10, {trace.ticks}, 3), expected (10, ticks, 5)")):
            train_gnn([bad], epochs=1, seed=0)

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
                for node, series in zip(trace.graph.nodes, trace.telemetry, strict=True):
                    one_hot = np.zeros(len(NODE_KINDS))
                    one_hot[NODE_KINDS.index(node.kind)] = 1.0
                    reading = series[tick] / scale
                    rows.append(np.concatenate([one_hot, node.static_features, reading]))
                emb = init_embeddings(trace.graph, trace.telemetry, tick)
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
        telemetry = np.full((1, 3, 5), 0.4)
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
        out1 = gnn_layer(g1, init_embeddings(g1, in_node_order(g1, telemetry), 0), layer)
        out2 = gnn_layer(g2, init_embeddings(g2, in_node_order(g2, telemetry), 0), layer)
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
        telemetry = np.stack([np.full((2, 5), value) for value in (0.2, 0.4, 0.6)])
        rng = np.random.default_rng(1)
        layer = (rng.normal(size=(12, 4)), rng.normal(size=4), "relu")
        out1 = gnn_layer(g1, init_embeddings(g1, telemetry, 0), layer)
        out2 = gnn_layer(g2, init_embeddings(g2, telemetry, 0), layer)
        assert np.array_equal(out1.vector("x"), out2.vector("x"))
        assert np.array_equal(out1.vector("y"), out2.vector("y"))
        assert not np.array_equal(out1.vector("z"), out2.vector("z"))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_bitwise_equal_to_taped_layer(self, activation):
        rng = np.random.default_rng(9)
        for trace in list(make_cascade_dataset(4, seed=6, n_nodes=12)):
            emb = init_embeddings(trace.graph, trace.telemetry, trace.onset)
            w, b = rng.normal(size=(emb.width, 5)), rng.normal(size=5)
            leaves = GradientTape([w, b]).leaves
            taped_out = taped.activate(activation, taped.add(taped.matmul(
                taped.edge_aggregate(emb.vectors, edge_arrays(trace.graph)), leaves[0]),
                leaves[1]))
            out = gnn_layer(trace.graph, emb, (w, b, activation))
            assert out.layer_index == 1 and out.node_ids == emb.node_ids
            assert out.vectors.tobytes() == taped_out.value.tobytes()

    def test_width_mismatch_rejected(self):
        graph = chain3()
        emb = init_embeddings(graph, flat_telemetry(graph), 0)
        with pytest.raises(ConfigurationError):
            gnn_layer(graph, emb, (np.zeros((7, 2)), np.zeros(2), "relu"))

    @pytest.mark.parametrize("w", [np.float64(1.0), np.zeros(12)], ids=["0-d", "1-d"])
    def test_weight_that_is_no_matrix_rejected(self, w):
        graph = chain3()
        emb = init_embeddings(graph, flat_telemetry(graph), 0)
        with pytest.raises(ConfigurationError, match="must be a matrix"):
            gnn_layer(graph, emb, (w, np.zeros(1), "relu"))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_chained_layers_and_readout_equal_forward_pass(self, activation):
        traces = list(make_cascade_dataset(6, seed=4))
        trained = train_gnn(traces, hidden_widths=(6, 5), epochs=5, seed=3).gnn
        gnn = replace(trained, hidden_activation=activation)
        trace = traces[-1]
        emb = init_embeddings(trace.graph, trace.telemetry, trace.onset + 1)
        h0 = emb.vectors
        for i in range(len(gnn.hidden_widths)):
            layer = (gnn.weights[2 * i], gnn.weights[2 * i + 1], activation)
            emb = gnn_layer(trace.graph, emb, layer)
        z = emb.vectors @ gnn.weights[-2] + gnn.weights[-1]
        chained = 1.0 / (1.0 + np.exp(-z))
        probs = forward_probs(gnn.weights, edge_arrays(trace.graph), h0,
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
        assert trace.failure_ticks.tolist() == [1, 2, 3, NEVER]
        labels = fails_within(trace, tick, horizon)
        assert labels.dtype == np.float64
        assert labels.tolist() == expected


class TestPredictFailures:
    def test_zero_readout_gives_half_probabilities(self):
        graph = chain3()
        gnn = init_gnn(graph, seed=0)
        zeroed = [*gnn.weights[:-2], *(np.zeros(w.shape) for w in gnn.weights[-2:])]
        gnn = GnnParams(gnn.input_width, gnn.hidden_widths, zeroed)
        pred = predict_failures(graph, flat_telemetry(graph), gnn, horizon=3)
        assert pred.probs.tolist() == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("widths, activation", [((), "relu"), ((5,), "tanh"),
                                                    ((16, 16), "relu"), ((4, 3, 2), "linear")],
                             ids=str)
    def test_every_tick_bitwise_equal_to_taped_forward(self, widths, activation):
        traces = list(make_cascade_dataset(5, seed=12))
        trained = train_gnn(traces[:3], hidden_widths=widths, epochs=5, seed=2).gnn
        gnn = replace(trained, hidden_activation=activation)
        for trace in traces[3:]:
            probs = scan_failures(trace.graph, trace.telemetry, gnn, trace.ticks, 0.5)[0]
            assert probs.shape == (trace.ticks, len(trace.graph.nodes))
            for tick in range(trace.ticks):
                h0 = init_embeddings(trace.graph, trace.telemetry, tick).vectors
                taped = forward_probs(gnn.weights, edge_arrays(trace.graph), h0, widths,
                                       activation)[:, 0]
                assert probs[tick].tobytes() == taped.tobytes(), tick
            # the ticks differ, so a scan that read one tick's readout for all would fail
            assert len({row.tobytes() for row in probs}) > 1

    def test_unreachable_threshold_never_flags(self):
        graph = chain3()
        gnn = init_gnn(graph, seed=1)
        pred = predict_failures(
            graph, flat_telemetry(graph), gnn, horizon=4, flag_threshold=1.0
        )
        assert pred.flag_ticks.tolist() == [NEVER] * 3

    def test_flag_tick_is_the_first_tick_at_the_threshold(self):
        traces = list(make_cascade_dataset(8, seed=12))
        gnn = train_gnn(traces[:4], epochs=30, seed=2).gnn
        for trace in traces[4:]:
            probs, pred = scan_failures(trace.graph, trace.telemetry, gnn, trace.ticks, 0.5)
            for k, (prob, tick) in enumerate(zip(pred.probs, pred.flag_ticks, strict=True)):
                column = probs[:, k]
                hits = np.flatnonzero(column >= 0.5)
                if hits.size:
                    assert (tick, prob) == (hits[0], column[hits[0]])
                else:
                    assert (tick, prob) == (NEVER, max(column.max(), 0.0))

    def test_reversed_node_order_permutes_the_prediction(self):
        # node position is the caller's contract: the same graph with its
        # nodes listed backwards, and its telemetry rows reordered to match,
        # gives the same prediction backwards
        traces = list(make_cascade_dataset(60, seed=21))
        gnn = train_gnn(traces[:40], epochs=100, seed=8).gnn
        flagged = 0
        for trace in traces[40:]:
            graph = trace.graph
            reversed_graph = ComponentGraph(graph.nodes[::-1], graph.edges)
            pred = predict_failures(graph, trace.telemetry, gnn, trace.ticks)
            back = predict_failures(reversed_graph, trace.telemetry[::-1], gnn, trace.ticks)
            assert np.allclose(back.probs[::-1], pred.probs, rtol=0.0, atol=1e-12)
            assert back.flag_ticks[::-1].tolist() == pred.flag_ticks.tolist()
            flagged += int(np.count_nonzero(pred.flag_ticks != NEVER))
        assert flagged > 0


class TestTrainGnn:
    def test_zero_epochs_returns_initialization(self):
        traces = list(make_cascade_dataset(4, seed=5))
        result = train_gnn(traces, epochs=0, seed=9)
        assert bits(result.gnn.weights) == bits(init_gnn(
            traces[0].graph, seed=9, label_horizon=result.gnn.label_horizon
        ).weights)
        assert result.loss_curve == []

    def test_fixed_seed_reproducible(self):
        traces = list(make_cascade_dataset(6, seed=6))
        a = train_gnn(traces, epochs=10, seed=4)
        b = train_gnn(traces, epochs=10, seed=4)
        assert bits(a.gnn.weights) == bits(b.gnn.weights)
        assert a.loss_curve == b.loss_curve

    def test_loss_decreases(self):
        traces = make_cascade_dataset(20, seed=7)
        result = train_gnn(traces, epochs=60, seed=2)
        assert result.loss_curve[-1] <= result.loss_curve[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            train_gnn([], epochs=1, seed=0)

    @pytest.mark.parametrize("dataset", [iter([]), make_cascade_dataset(0, seed=1)],
                             ids=["iterator", "generator"])
    def test_empty_iterator_rejected(self, dataset):
        with pytest.raises(InputError, match="dataset must be nonempty"):
            train_gnn(dataset, epochs=1, seed=0)

    @pytest.mark.parametrize("widths", [(16, 16), ()])
    def test_one_shot_generator_equals_list(self, widths):
        listed = train_gnn(list(make_cascade_dataset(6, seed=6)), hidden_widths=widths,
                           epochs=10, seed=4)
        streamed = train_gnn(make_cascade_dataset(6, seed=6), hidden_widths=widths,
                             epochs=10, seed=4)
        assert streamed.loss_curve == listed.loss_curve
        assert bits(streamed.gnn.weights) == bits(listed.gnn.weights)

    def test_no_training_trace_alive_when_training_starts(self, monkeypatch):
        refs = []

        def remember(trace):
            refs.append(weakref.ref(trace))
            return trace

        alive_at_first_epoch = []
        kernel = gnn_module.gnn_loss_and_grad

        def watched(*args, **kwargs):
            if not alive_at_first_epoch:
                alive_at_first_epoch.append([ref() is not None for ref in refs])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(gnn_module, "gnn_loss_and_grad", watched)
        train_gnn(map(remember, make_cascade_dataset(6, seed=6)), epochs=2, seed=4)
        assert alive_at_first_epoch == [[False] * 6]

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

        def loss_fn(weights) -> float:
            probs = forward_probs(weights, edges, h0, (4,))
            return float(value_of(bce_loss(probs, labels)))

        recorder = GradientTape(gnn.weights)
        probs = forward_probs(recorder.leaves, edges, h0, (4,))
        reverse = grad(bce_loss(probs, labels), gnn.weights)
        oracle = finite_diff_grad(loss_fn, gnn.weights, 1e-4)
        for name, a, b in zip(gnn_param_shapes(gnn.input_width, (4,)), reverse, oracle,
                              strict=True):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-8), name

    def test_two_layer_tanh_gradient_matches_finite_differences_on_hub(self):
        # a hub with in- and out-degree 5 gives the grouped vjp several rank
        # groups; tanh has no kinks, so the oracle holds at any point
        nodes = [(f"n{i}", NODE_KINDS[i % 5], (0.1 * i, 0.5)) for i in range(7)]
        edges = [(f"n{i}", "n0", 1.0) for i in range(1, 6)]
        edges += [("n0", f"n{i}", 1.0) for i in range(2, 7)] + [("n6", "n5", 1.0)]
        graph = ComponentGraph(nodes, edges)
        widths = (4, 3)
        gnn = init_gnn(graph, seed=5, hidden_widths=widths)
        telemetry = np.stack([np.linspace(0.1, 0.9, 15).reshape(3, 5) * (i + 1)
                              for i in range(7)])
        h0 = init_embeddings(graph, telemetry, 1).vectors
        labels = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [0.0], [1.0]])
        edge_index = edge_arrays(graph)

        def loss_fn(weights) -> float:
            probs = forward_probs(weights, edge_index, h0, widths, "tanh")
            return float(value_of(bce_loss(probs, labels)))

        recorder = GradientTape(gnn.weights)
        probs = forward_probs(recorder.leaves, edge_index, h0, widths, "tanh")
        reverse = grad(bce_loss(probs, labels), gnn.weights)
        oracle = finite_diff_grad(loss_fn, gnn.weights, 1e-5)
        for name, a, b in zip(gnn_param_shapes(gnn.input_width, widths), reverse, oracle,
                              strict=True):
            assert np.allclose(a, b, rtol=1e-5, atol=1e-8), name

    @pytest.mark.parametrize("widths", [(16, 16), (5,), ()])
    def test_equal_to_a_loop_that_aggregates_h0_every_epoch(self, widths):
        traces = list(make_cascade_dataset(6, seed=6))
        epochs, lr, seed = 8, 0.3, 4
        result = train_gnn(traces, hidden_widths=widths, epochs=epochs, lr=lr, seed=seed)

        gnn = init_gnn(traces[0].graph, seed=seed, hidden_widths=widths)
        rng = np.random.Generator(np.random.PCG64(seed))
        src, dst, h0, labels = _training_batch(traces, gnn.input_width, gnn.label_horizon,
                                               rng)
        edges, labels = ops.EdgeIndex(src, dst, len(h0)), labels.reshape(-1, 1)
        params, curve = gnn.weights, []
        for _ in range(epochs):
            recorder = GradientTape(params)
            loss = bce_loss(forward_probs(recorder.leaves, edges, h0, widths), labels)
            curve.append(float(value_of(loss)))
            params = descend(params, grad(loss, params), lr)

        assert result.loss_curve == curve
        assert bits(result.gnn.weights) == bits(params)

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
            trace.graph, trace.telemetry, result.gnn, horizon=trace.ticks
        )
        flags = pred.flag_ticks  # n0 .. n4 at positions 0 .. 4
        assert flags[0] != NEVER and flags[4] != NEVER
        assert flags[0] < flags[4]
        assert flags[4] < trace.failure_ticks[4]


def reference_batch(traces, label_horizon, rng):
    """(src, dst, h0, labels) built the plain way, the oracle of
    `_training_batch`: one set of arrays per sampled tick, then one stacking
    loop."""
    samples = []
    for trace in traces:
        span = min(6, trace.ticks - trace.onset)
        offsets = rng.integers(0, span, size=2)
        graph = trace.graph
        src = np.array([graph.index_of(e.src) for e in graph.edges], dtype=np.intp)
        dst = np.array([graph.index_of(e.dst) for e in graph.edges], dtype=np.intp)
        for off in sorted(int(o) for o in offsets):
            tick = trace.onset + off
            h0 = _inputs_by_tick(graph, trace.telemetry, [tick])[0]
            samples.append((src, dst, h0, fails_within(trace, tick, label_horizon)))
    src_parts, dst_parts, offset = [], [], 0
    for src, dst, h, _ in samples:
        src_parts.append(src + offset)
        dst_parts.append(dst + offset)
        offset += h.shape[0]
    return (np.concatenate(src_parts), np.concatenate(dst_parts),
            np.vstack([h for _, _, h, _ in samples]), np.concatenate([y for *_, y in samples]))


def multigraph_traces(n_traces, seed, static_width=3):
    """Cascades on random graphs: 1-12 nodes, up to three times as many edges
    drawn (a pair drawn again keeps its first weight; none at all in some),
    horizons of 1-10 ticks and onsets up to the last tick, where both sampled
    ticks coincide."""
    rng = np.random.default_rng(seed)
    for _ in range(n_traces):
        n = int(rng.integers(1, 13))
        nodes = [(f"v{i}", NODE_KINDS[int(rng.integers(5))],
                  tuple(float(x) for x in rng.uniform(0, 1, static_width))) for i in range(n)]
        edges = {}
        for _ in range(int(rng.integers(0, 3 * n + 1)) if n > 1 else 0):
            src, dst = rng.choice(n, size=2, replace=False)
            edges.setdefault((f"v{src}", f"v{dst}"), float(rng.uniform(0.05, 1.0)))
        graph = ComponentGraph(nodes, [(*pair, weight) for pair, weight in edges.items()])
        horizon = int(rng.integers(1, 11))
        yield propagate_cascade(graph, f"v{int(rng.integers(n))}",
                                onset=int(rng.integers(horizon)), horizon=horizon,
                                fail_threshold=0.5, seed=int(rng.integers(2**32)))


BATCH_CASES = {
    "trees-10": lambda: make_cascade_dataset(40, seed=31),
    "trees-40": lambda: make_cascade_dataset(30, seed=32, n_nodes=40, horizon=24),
    "trees-3": lambda: make_cascade_dataset(40, seed=33, n_nodes=3, horizon=6),
    "single-node": lambda: make_cascade_dataset(10, seed=34, n_nodes=1),
    "multigraphs-a": lambda: multigraph_traces(50, seed=35),
    "multigraphs-b": lambda: multigraph_traces(50, seed=36, static_width=1),
}


class TestTrainingBatch:
    """`_training_batch` against `reference_batch`, the per-sample stacking."""

    @pytest.mark.parametrize("capacity", [1, 7, gnn_module.BATCH_ROWS])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_bitwise_equal_to_per_sample_stacking(self, monkeypatch, case, capacity):
        monkeypatch.setattr(gnn_module, "BATCH_ROWS", capacity)
        traces = list(BATCH_CASES[case]())
        width = embedding_width(traces[0].graph)
        batch = _training_batch(traces, width, 2, np.random.Generator(np.random.PCG64(8)))
        reference = reference_batch(traces, 2, np.random.Generator(np.random.PCG64(8)))
        for name, got, want in zip(("src", "dst", "h0", "labels"), batch, reference):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    def test_cases_cover_what_the_builder_must_handle(self):
        traces = [t for case in BATCH_CASES.values() for t in case()]
        assert len(traces) >= 200
        assert any(not t.graph.edges for t in traces)
        # a tick one before the end leaves one offset to draw: the ticks coincide
        assert sum(t.ticks - t.onset == 1 for t in traces) >= 5
        # a node with several in-edges, and one with several out-edges
        assert any(len(set(t.graph.edge_dst.tolist())) < len(t.graph.edges) for t in traces)
        assert any(len(set(t.graph.edge_src.tolist())) < len(t.graph.edges) for t in traces)
        rows = edges = 0
        for t in BATCH_CASES["trees-40"]():
            rows, edges = rows + 2 * len(t.graph.nodes), edges + 2 * len(t.graph.edges)
        assert min(rows, edges) > gnn_module.BATCH_ROWS

    def test_stacked_kernel_batch_is_the_per_sample_stacking(self):
        edges, h0, labels = stacked_batch()
        src, dst, ref_h0, ref_labels = reference_batch(
            make_cascade_dataset(5, seed=12), 2, np.random.Generator(np.random.PCG64(3)))
        assert edges.src.tobytes() == src.tobytes() and edges.dst.tobytes() == dst.tobytes()
        assert edges.n_nodes == len(ref_h0) == 100
        assert h0.tobytes() == ref_h0.tobytes() and labels.tobytes() == ref_labels.tobytes()

    def test_one_embedding_call_per_trace_and_none_kept_two_traces_back(self, monkeypatch):
        outputs, alive = [], []
        inputs_by_tick = gnn_module._inputs_by_tick

        def watched(graph, telemetry, ticks):
            # trace k is being read: the outputs of traces 0 .. k - 2
            alive.append([ref() is not None for ref in outputs[:-1]])
            h = inputs_by_tick(graph, telemetry, ticks)
            outputs.append(weakref.ref(h))
            return h

        monkeypatch.setattr(gnn_module, "_inputs_by_tick", watched)
        train_gnn(make_cascade_dataset(8, seed=6), epochs=0, seed=4)
        assert alive == [[False] * max(k - 1, 0) for k in range(8)]

    def test_mixed_embedding_widths_are_an_input_error(self):
        traces = list(make_cascade_dataset(3, seed=4))
        graph = traces[2].graph
        wider = ComponentGraph([(n.id, n.kind, n.static_features + (0.5,)) for n in graph.nodes],
                               graph.edges)
        traces[2] = replace(traces[2], graph=wider)
        message = ("trace 2 of the dataset has embedding width 13, but the network's input "
                   "width is 12")
        with pytest.raises(InputError, match=re.escape(message)):
            train_gnn(traces, epochs=1, seed=0)


def hub7():
    """(edges, h0, labels) of the 7-node hub graph: in- and out-degree 5 at n0,
    which gives the forward and the vjp scatters several rank groups."""
    nodes = [(f"n{i}", NODE_KINDS[i % 5], (0.1 * i, 0.5)) for i in range(7)]
    edges = [(f"n{i}", "n0", 1.0) for i in range(1, 6)]
    edges += [("n0", f"n{i}", 1.0) for i in range(2, 7)] + [("n6", "n5", 1.0)]
    graph = ComponentGraph(nodes, edges)
    telemetry = np.stack([np.linspace(0.1, 0.9, 15).reshape(3, 5) * (i + 1) for i in range(7)])
    h0 = init_embeddings(graph, telemetry, 1).vectors
    return edge_arrays(graph), h0, np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])


def stacked_batch(n_cascades=5):
    """(edges, h0, labels) of several cascade samples stacked on one node axis
    with offset edge indices, as `train_gnn` stacks them: 20 nodes a cascade."""
    src, dst, h0, labels = _training_batch(make_cascade_dataset(n_cascades, seed=12), 12, 2,
                                           np.random.Generator(np.random.PCG64(3)))
    return ops.EdgeIndex(src, dst, len(h0)), h0, labels


KERNEL_GRAPHS = {"hub": hub7, "stacked": stacked_batch}


class TestGnnKernel:
    """`gnn_loss_and_grad` against the taped grad(bce_loss(forward_probs(...)))."""

    @staticmethod
    def kernel(params, edges, h0, labels, widths, activation, workspace=None):
        spec = [(width, activation) for width in widths] + [(1, "sigmoid")]
        x = ops.edge_aggregate(h0, edges) if widths else h0
        return gnn_loss_and_grad(params, x, labels, edges, spec, workspace)

    @staticmethod
    def taped(params, edges, h0, labels, widths, activation):
        recorder = GradientTape(params)
        loss = bce_loss(forward_probs(recorder.leaves, edges, h0, widths, activation),
                        labels.reshape(-1, 1))
        return value_of(loss), grad(loss, params)

    def assert_bitwise(self, result, reference):
        (loss, grads), (ref_loss, ref_grads) = result, reference
        # tobytes, so that a signed zero from the relu vjp counts
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert bits(grads) == bits(ref_grads)

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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("widths", [(16, 16), (4, 3, 2)], ids=str)
    def test_scatter_blocks_smaller_than_the_groups_bitwise_equal_to_tape(
            self, monkeypatch, widths, activation):
        edges, h0, labels = stacked_batch()
        assert max(len(r) for groups in (edges.into_dst, edges.into_src)
                   for r, _ in groups.later) > 8
        monkeypatch.setattr(nets, "SCATTER_BLOCK_ROWS", 8)
        params = init_uniform_params(gnn_param_shapes(h0.shape[1], widths), seed=7)
        self.assert_bitwise(self.kernel(params, edges, h0, labels, widths, activation),
                            self.taped(params, edges, h0, labels, widths, activation))

    @pytest.mark.parametrize("block_rows", [8, nets.SCATTER_BLOCK_ROWS])
    @pytest.mark.parametrize("lead", [(3,), (2, 2)], ids=str)
    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("widths", [(), (5,), (16, 16), (4, 3, 2)], ids=str)
    def test_leading_axes_equal_one_pass_per_slice(self, monkeypatch, widths, activation,
                                                   lead, block_rows):
        # a pass over stacked inputs (a trace's ticks, say) runs the gemms of
        # one pass per slice, so each slice's output is that pass's, bitwise
        edges, h0, _ = stacked_batch()
        monkeypatch.setattr(nets, "SCATTER_BLOCK_ROWS", block_rows)
        scale = np.random.default_rng(6).uniform(0.5, 1.5, size=(*lead, 1, h0.shape[1]))
        stack = h0 * scale  # every slice differs
        slices = [stack[k] for k in np.ndindex(lead)]
        x = ops.edge_aggregate(stack, edges) if widths else stack
        parts = [ops.edge_aggregate(h, edges) if widths else h for h in slices]
        assert [x[k].tobytes() for k in np.ndindex(lead)] == [p.tobytes() for p in parts]
        weights = init_uniform_params(gnn_param_shapes(h0.shape[1], widths), seed=9)
        spec = [(width, activation) for width in widths] + [(1, "sigmoid")]
        out = nets.gnn_forward(weights, x, edges, spec)
        assert out.shape == (*lead, edges.n_nodes, 1)
        assert [out[k].tobytes() for k in np.ndindex(lead)] == [
            nets.gnn_forward(weights, part, edges, spec).tobytes() for part in parts]

    def test_training_takes_no_leading_axis(self):
        edges, h0, labels = hub7()
        params = init_uniform_params(gnn_param_shapes(h0.shape[1], (5,)), seed=0)
        with pytest.raises(InputError, match="no leading axis"):
            self.kernel(params, edges, np.stack([h0, h0]), labels, (5,), "relu")

    @pytest.mark.parametrize("widths", [(16, 16), (4, 3, 2)], ids=str)
    def test_workspace_holds_two_node_arrays_per_hidden_layer_plus_one(self, widths):
        edges, h0, labels = stacked_batch()
        params = init_uniform_params(gnn_param_shapes(h0.shape[1], widths), seed=5)
        workspace = Workspace()
        self.kernel(params, edges, h0, labels, widths, "relu", workspace)
        # not counted: the column-wide readout and BCE head arrays; counted in
        # bytes, as the relu masks are bool and the scatter blocks at most
        # node-wide
        wide = [a for a in workspace._arrays.values() if a.size > edges.n_nodes + 1]
        node_array_bytes = (edges.n_nodes + 1) * max(widths) * 8
        assert sum(a.nbytes for a in wide) <= (2 * len(widths) + 1) * node_array_bytes

    @pytest.mark.parametrize("activation", ["relu", "linear", "tanh"])
    @pytest.mark.parametrize("widths", [(16, 16), (4, 3, 2)], ids=str)
    def test_workspace_holds_what_each_vjp_reads(self, widths, activation):
        edges, h0, labels = stacked_batch(60)
        n, widest = edges.n_nodes, max(widths)
        assert n > nets.SCATTER_BLOCK_ROWS
        params = init_uniform_params(gnn_param_shapes(h0.shape[1], widths), seed=5)
        workspace = Workspace()
        self.kernel(params, edges, h0, labels, widths, activation, workspace)
        arrays = list(workspace._arrays.values())
        # not counted: the column-wide readout and BCE head arrays
        floats = [a for a in arrays if a.dtype == np.float64 and a.size > n + 1]
        node_wide = [a for a in floats if a.size == (n + 1) * widest]
        # L slots for relu and linear nets, 2L for tanh, whose outputs are kept
        assert len(node_wide) <= (2 if activation == "tanh" else 1) * len(widths)
        blocks = [a for a in floats if a.size != (n + 1) * widest]
        assert len(blocks) == 2
        assert all(a.size <= nets.SCATTER_BLOCK_ROWS * widest for a in blocks)
        masks = [a for a in arrays if a.dtype != np.float64]
        assert len(masks) == (len(widths) if activation == "relu" else 0)
        assert all(a.dtype == np.bool_ and a.shape[0] == n for a in masks)

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


class TestScoreTraces:
    def test_one_scan_per_trace_gives_accuracy_and_predictions(self, monkeypatch):
        traces = list(make_cascade_dataset(6, seed=8))
        gnn = train_gnn(traces[:4], epochs=5, seed=1).gnn
        held = traces[4:]
        # reference: the forward at each trace's scored tick on its own
        correct = total = 0
        for trace in held:
            tick = min(trace.onset + 1, trace.ticks - 1)
            h0 = init_embeddings(trace.graph, trace.telemetry, tick).vectors
            probs = forward_probs(gnn.weights, edge_arrays(trace.graph), h0,
                                   gnn.hidden_widths, gnn.hidden_activation)[:, 0]
            labels = fails_within(trace, tick, gnn.label_horizon)
            correct += int(np.sum((probs >= 0.4) == (labels == 1.0)))
            total += len(labels)
        builds = []
        monkeypatch.setattr(gnn_module, "edge_arrays",
                            lambda graph: builds.append(graph) or edge_arrays(graph))
        accuracy, predictions = score_traces(gnn, held, flag_threshold=0.4)
        assert len(builds) == len(held)
        assert accuracy == correct / total
        assert node_failure_accuracy(gnn, held, flag_threshold=0.4) == accuracy
        for trace, pred in zip(held, predictions, strict=True):
            alone = predict_failures(trace.graph, trace.telemetry, gnn, trace.ticks,
                                     flag_threshold=0.4)
            assert pred.probs.tobytes() == alone.probs.tobytes()
            assert pred.flag_ticks.tolist() == alone.flag_ticks.tolist()

    def test_no_traces_rejected(self):
        gnn = init_gnn(chain3(), seed=0)
        with pytest.raises(InputError, match="nonempty"):
            score_traces(gnn, [])


class TestMttfp:
    """Flag and failure ticks of chain3's nodes n0, n1, n2, in that order."""

    def _prediction(self, flags):
        return FailurePrediction(probs=np.full(len(flags), 0.9), flag_ticks=np.array(flags))

    def _truth(self, failure_ticks):
        trace = propagate_cascade(chain3(), "n0", 0, 10, 0.5, seed=0)
        return replace(trace, failure_ticks=np.array(failure_ticks))

    def test_flags_at_failure_tick_do_not_qualify(self):
        truth = self._truth([2, 3, 4])
        pred = self._prediction([2, 3, 4])
        assert mttfp(pred, truth, 1.0) is None

    def test_uniformly_five_ticks_early(self):
        truth = self._truth([7, 8, 9])
        pred = self._prediction([2, 3, 4])
        assert mttfp(pred, truth, 1.0) == pytest.approx(5.0)

    def test_tick_seconds_scaling(self):
        truth = self._truth([7, NEVER, NEVER])
        pred = self._prediction([3, NEVER, NEVER])
        assert mttfp(pred, truth, 0.5) == pytest.approx(2.0)

    def test_nonnegative_when_defined(self):
        traces = list(make_cascade_dataset(10, seed=31))
        gnn = init_gnn(traces[0].graph, seed=0)
        for trace in traces:
            pred = predict_failures(trace.graph, trace.telemetry, gnn, trace.ticks)
            value = mttfp(pred, trace, 1.0)
            assert value is None or value > 0

    def test_graph_mismatch_rejected(self):
        truth = self._truth([2, 3, 4])
        pred = self._prediction([NEVER])
        with pytest.raises(InputError, match="prediction covers 1 nodes, trace 3"):
            mttfp(pred, truth, 1.0)
        with pytest.raises(InputError, match="prediction covers 1 nodes, trace 3"):
            prediction_rates(pred, truth)

    def test_rates(self):
        truth = self._truth([2, NEVER, NEVER])
        pred = self._prediction([1, 5, NEVER])
        rates = prediction_rates(pred, truth)
        assert rates["false_alarm_rate"] == pytest.approx(0.5)
        assert rates["miss_rate"] == 0.0


class TestGnnParams:
    @staticmethod
    def gnn():
        return init_gnn(chain3(), seed=1, hidden_widths=(4,))

    def test_non_finite_weight_refused_by_name(self):
        gnn = self.gnn()
        weights = list(gnn.weights)
        weights[-2] = np.full((4, 1), np.inf)
        with pytest.raises(InputError, match="weight 'readout.w' holds non-finite values"):
            replace(gnn, weights=weights)

    @pytest.mark.parametrize("hidden_widths, match", [
        ((5,), r"weight 'layer0.W' has shape \(\d+, 4\), expected \(\d+, 5\)"),
        ((4, 4), r"4 weight arrays for the 6 parameters"),
        ((), r"4 weight arrays for the 2 parameters \['readout.w', 'readout.b'\]"),
    ], ids=["width", "deeper", "readout-only"])
    def test_weights_that_do_not_fit_the_widths_refused(self, hidden_widths, match):
        # such a model used to be built, and failed only at its first forward pass
        with pytest.raises(InputError, match=match):
            replace(self.gnn(), hidden_widths=hidden_widths)
        with pytest.raises(InputError, match=r"weight 'layer0.W' has shape"):
            replace(self.gnn(), input_width=self.gnn().input_width + 1)

    def test_unknown_activation_refused(self):
        with pytest.raises(ConfigurationError, match="hidden activation must be one of"):
            replace(self.gnn(), hidden_activation="gelu")

    def test_weights_are_read_only_copies(self):
        gnn = self.gnn()
        source = [np.array(w) for w in gnn.weights]
        copy = replace(gnn, weights=source)
        assert not any(w.flags.writeable for w in copy.weights)
        source[-1][0] = 9.0
        assert bits(copy.weights) == bits(gnn.weights)
        with pytest.raises(ValueError):
            copy.weights[-1][0] = 9.0


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

    @pytest.mark.parametrize("node, match", [
        ({"id": 5}, r"node 0\.id must be a string, got 5"),
        ({"kind": ["query"]}, r"node 0\.kind must be a string"),
        ({"static_features": "12"}, r"node 0\.static_features must be a list, got '12'"),
        ({"static_features": [0.5, "1"]}, r"node 0\.static_features\.1 must be a finite number"),
        ({"static_features": [True]}, r"node 0\.static_features\.0 must be a finite number"),
    ])
    def test_node_field_of_wrong_type_is_refused_not_coerced(self, tmp_path, node, match):
        path = self._graph_file(
            tmp_path, [{"id": "a", "kind": "query", "static_features": [0.5], **node}])
        with pytest.raises(SchemaError, match=match):
            read_graph(path)

    @pytest.mark.parametrize("edge, match", [
        ({"from": 1}, r"edge 0\.from must be a string, got 1"),
        ({"to": None}, r"edge 0\.to must be a string, got None"),
        ({"weight": "0.5"}, r"edge 0\.weight must be a number, got '0\.5'"),
        ({"weight": True}, r"edge 0\.weight must be a number, got True"),
    ])
    def test_edge_field_of_wrong_type_is_refused_not_coerced(self, tmp_path, edge, match):
        path = self._two_nodes(tmp_path, {"from": "a", "to": "b", "weight": 0.5, **edge})
        with pytest.raises(SchemaError, match=match):
            read_graph(path)

    def test_integer_features_and_weights_load_as_floats(self, tmp_path):
        nodes = [{"id": n, "kind": "query", "static_features": [1]} for n in "ab"]
        graph = read_graph(self._graph_file(tmp_path, nodes,
                                            [{"from": "a", "to": "b", "weight": 1}]))
        assert graph.nodes[0].static_features == (1.0,)
        assert graph.edges[0].weight == 1.0 and isinstance(graph.edges[0].weight, float)

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

    def test_repeated_edge_is_schema_error(self, tmp_path):
        nodes = [{"id": n, "kind": "query", "static_features": [0.5]} for n in "abc"]
        edge = {"from": "a", "to": "b", "weight": 0.3}
        path = self._graph_file(tmp_path, nodes, [edge, {**edge, "from": "c"}, edge])
        with pytest.raises(SchemaError, match=r"graph\.json: edge 2 repeats .*a->b.* edge 0"):
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
        for field in ("input_width", "hidden_widths", "hidden_activation", "label_horizon"):
            assert getattr(loaded, field) == getattr(gnn, field), field
        assert bits(loaded.weights) == bits(gnn.weights)

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
