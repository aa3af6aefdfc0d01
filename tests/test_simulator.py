import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from selfheal.errors import GenerationError, InputError, RowError, SchemaError
from selfheal.simulator import (
    AnomalyEvent,
    ComponentGraph,
    Task,
    TelemetryTrace,
    WorkloadPattern,
    augment_tasks,
    default_patterns,
    export_csv,
    generate_trace,
    healthy_series,
    ingest_csv,
    inject_anomaly,
    make_tasks,
    propagate_cascade,
)
from selfheal.simulator import cascade
from selfheal.simulator.cascade import NEVER, NODE_KINDS, make_cascade_dataset, make_tree_graph
from selfheal.simulator.telemetry import CSV_COLUMNS, METRICS, clip_metrics


def flat_pattern(anomaly_rate=0.0, pattern_id="flat") -> WorkloadPattern:
    return WorkloadPattern(
        pattern_id=pattern_id,
        base_rates={"cpu": 0.2, "memory": 0.4, "latency_ms": 20.0, "io_ops": 100.0, "qps": 250.0},
        diurnal_amplitude={m: 0.0 for m in METRICS},
        noise_std={m: 0.0 for m in METRICS},
        anomaly_rate=anomaly_rate,
    )


class TestGenerateTrace:
    def test_length_contract(self):
        trace = generate_trace(flat_pattern(), seed=1, ticks=100)
        assert trace.metrics.shape == (100, len(METRICS))
        assert trace.labels.shape == (100,)

    def test_deterministic_in_pattern_and_seed(self):
        pattern = default_patterns(1, seed=9, anomaly_rate=0.1)[0]
        a = generate_trace(pattern, seed=42, ticks=300)
        b = generate_trace(pattern, seed=42, ticks=300)
        assert np.array_equal(a.metrics, b.metrics)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        pattern = default_patterns(1, seed=9, anomaly_rate=0.1)[0]
        a = generate_trace(pattern, seed=1, ticks=200)
        b = generate_trace(pattern, seed=2, ticks=200)
        assert not np.array_equal(a.metrics, b.metrics)

    def test_anomalous_fraction_tracks_rate(self):
        pattern = flat_pattern(anomaly_rate=0.1)
        fractions = []
        for seed in range(20):
            trace = generate_trace(pattern, seed=seed, ticks=10_000)
            fractions.append(trace.labels.mean())
        assert abs(np.mean(fractions) - 0.1) < 0.02

    def test_metrics_stay_in_range(self):
        pattern = default_patterns(1, seed=3, anomaly_rate=0.2)[0]
        m = generate_trace(pattern, seed=0, ticks=500).metrics
        assert ((0.0 <= m[:, :2]) & (m[:, :2] <= 1.0)).all()  # cpu, memory
        assert (m[:, 2:] >= 0).all()  # latency_ms, io_ops, qps

    def test_label_soundness_zero_rate_means_all_normal(self):
        trace = generate_trace(flat_pattern(anomaly_rate=0.0), seed=5, ticks=400)
        assert (trace.labels == 0).all()

    def test_ticks_must_be_positive(self):
        with pytest.raises(InputError):
            generate_trace(flat_pattern(), seed=0, ticks=0)

    @pytest.mark.parametrize("seed, ticks", [(0, 1), (3, 40), (17, 288), (2026, 600)])
    def test_healthy_series_is_the_zero_rate_trace(self, seed, ticks):
        pattern = default_patterns(1, seed=seed, anomaly_rate=0.0)[0]
        rng = np.random.Generator(np.random.PCG64(seed))
        series = healthy_series(pattern, rng, ticks)
        trace = generate_trace(pattern, seed, ticks)
        assert series.shape == (ticks, len(METRICS))
        assert np.array_equal(series, trace.metrics)


CPU = METRICS.index("cpu")


class TestInjectAnomaly:
    def test_clamped_metric_and_label_flip(self):
        trace = generate_trace(flat_pattern(), seed=0, ticks=10)
        # cpu already at 1.0
        metrics = trace.metrics.copy()
        metrics[:, CPU] = 1.0
        trace = TelemetryTrace(metrics, trace.labels)
        event = AnomalyEvent(kind="cpu_spike", onset=2, duration=3, magnitude=2.0)
        out = inject_anomaly(trace, event)
        for t in range(2, 5):
            assert out.metrics[t, CPU] == 1.0
            assert out.labels[t] == 1
        assert out.labels[1] == 0 and out.labels[5] == 0

    def test_zero_duration_rejected(self):
        with pytest.raises(InputError):
            AnomalyEvent(kind="cpu_spike", onset=0, duration=0, magnitude=2.0)

    def test_cpu_spike_hand_arithmetic(self):
        trace = generate_trace(flat_pattern(), seed=0, ticks=10)
        event = AnomalyEvent(kind="cpu_spike", onset=4, duration=2, magnitude=3.0)
        out = inject_anomaly(trace, event)
        assert out.metrics[4, CPU] == pytest.approx(0.6, abs=1e-12)
        assert out.metrics[5, CPU] == pytest.approx(0.6, abs=1e-12)
        assert out.metrics[3, CPU] == pytest.approx(0.2, abs=1e-12)

    def test_out_of_range_event_rejected(self):
        trace = generate_trace(flat_pattern(), seed=0, ticks=10)
        event = AnomalyEvent(kind="cpu_spike", onset=9, duration=2, magnitude=2.0)
        with pytest.raises(InputError):
            inject_anomaly(trace, event)

    def test_original_trace_untouched(self):
        trace = generate_trace(flat_pattern(), seed=0, ticks=10)
        before = trace.metrics.copy()
        inject_anomaly(trace, AnomalyEvent("cpu_spike", 1, 2, 2.0))
        assert (trace.labels == 0).all()
        assert np.array_equal(trace.metrics, before)

    def test_label_soundness_inside_interval_only(self):
        trace = generate_trace(flat_pattern(), seed=0, ticks=50)
        event = AnomalyEvent(kind="memory_leak", onset=10, duration=5, magnitude=1.5)
        out = inject_anomaly(trace, event)
        for t, label in enumerate(out.labels):
            assert label == (1 if 10 <= t < 15 else 0)


def chain_graph() -> ComponentGraph:
    nodes = [("a", "query", (0.5,)), ("b", "table", (0.5,)), ("c", "index", (0.5,))]
    edges = [("a", "b", 1.0), ("b", "c", 1.0)]
    return ComponentGraph(nodes, edges)


class TestPropagateCascade:
    def test_isolated_seed_only_seed_fails(self):
        graph = ComponentGraph([("a", "query", (0.1,)), ("b", "disk", (0.1,))], [])
        trace = propagate_cascade(graph, "a", onset=0, horizon=10, fail_threshold=0.5, seed=0)
        assert trace.failure_ticks.tolist() == [0, NEVER]

    def test_chain_timing_matches_threshold_rule(self):
        trace = propagate_cascade(chain_graph(), "a", onset=0, horizon=10, fail_threshold=0.5, seed=0)
        assert trace.failure_ticks.tolist() == [0, 1, 2]

    def test_unreachable_threshold_stops_at_seed(self):
        # b depends on a (weight 0.4) and on never-failing d (weight 0.6)
        graph = ComponentGraph(
            [("a", "query", ()), ("b", "table", ()), ("d", "disk", ())],
            [("a", "b", 0.4), ("d", "b", 0.6)],
        )
        trace = propagate_cascade(graph, "a", onset=0, horizon=20, fail_threshold=1.0, seed=0)
        assert trace.failure_ticks.tolist() == [0, NEVER, NEVER]

    def test_unknown_seed_rejected(self):
        with pytest.raises(InputError):
            propagate_cascade(chain_graph(), "zz", onset=0, horizon=5, fail_threshold=0.5, seed=0)

    @staticmethod
    def _strict_shrinks(low_threshold, high_threshold):
        """Over 50 tree graphs cascading from the root: assert that raising the
        threshold never grows the failed set at any tick, and count the ticks
        at which it shrinks it."""
        strict = 0
        for seed in range(50):
            graph = make_tree_graph(10, seed=seed)
            low = propagate_cascade(graph, "n0", 0, 15, low_threshold, seed=seed)
            high = propagate_cascade(graph, "n0", 0, 15, high_threshold, seed=seed)
            for tick in range(15):
                assert failed_by(high, tick) <= failed_by(low, tick)
                strict += failed_by(high, tick) < failed_by(low, tick)
        return strict

    def test_monotone_in_threshold(self):
        # lowering the threshold never shrinks the failed set at any tick
        self._strict_shrinks(0.3, 0.7)

    def test_monotone_in_threshold_where_the_sets_differ(self):
        # on tree graphs 0.3 and 0.7 fail the same nodes (a strong parent holds
        # at least 0.7 / 0.95 of a node's in-weight, a weak edge at most
        # 0.25 / 0.95); 0.2 and 0.9 do not, so inclusion is tested strictly
        assert self._strict_shrinks(0.2, 0.9) > 0

    @pytest.mark.parametrize("n_nodes, horizon", [(10, 18), (40, 24)])
    def test_node_series_stay_within_metric_bounds(self, n_nodes, horizon):
        # TelemetryTrace raises InputError on any value outside METRIC_BOUNDS
        for trace in make_cascade_dataset(30, seed=n_nodes, n_nodes=n_nodes,
                                          horizon=horizon):
            for series in trace.telemetry:
                TelemetryTrace(series, np.zeros(horizon, dtype=np.int64))

    def test_telemetry_degrades_after_failure(self):
        trace = propagate_cascade(chain_graph(), "a", onset=2, horizon=12, fail_threshold=0.5, seed=7)
        series = trace.telemetry[0]  # node "a"
        healthy_latency = series[:2, 2].mean()
        failed_latency = series[2:, 2].mean()
        assert failed_latency > 2.0 * healthy_latency
        healthy_qps = series[:2, 4].mean()
        failed_qps = series[2:, 4].mean()
        assert failed_qps < 0.5 * healthy_qps

    def test_deterministic(self):
        a = propagate_cascade(chain_graph(), "a", 0, 10, 0.5, seed=3)
        b = propagate_cascade(chain_graph(), "a", 0, 10, 0.5, seed=3)
        assert np.array_equal(a.failure_ticks, b.failure_ticks)
        assert np.array_equal(a.telemetry, b.telemetry)

    @staticmethod
    def _oracle_graph(i: int) -> ComponentGraph:
        """Seeded graph `i`: a tree from `make_tree_graph` for even `i`, else a
        random graph whose edges may form cycles; a drawn pair that is already
        an edge keeps its first weight."""
        rng = np.random.default_rng(i)
        n_nodes = int(rng.integers(1, 30))
        if i % 2 == 0 or n_nodes == 1:
            return make_tree_graph(n_nodes, seed=i)
        nodes = [(f"v{k}", NODE_KINDS[int(rng.integers(len(NODE_KINDS)))], (0.5,))
                 for k in range(n_nodes)]
        edges = {}
        for _ in range(int(rng.integers(0, 3 * n_nodes))):
            src, dst = rng.choice(n_nodes, size=2, replace=False)
            edges.setdefault((f"v{src}", f"v{dst}"), float(rng.uniform(0.05, 1.0)))
        return ComponentGraph(nodes, [(*pair, weight) for pair, weight in edges.items()])

    @pytest.mark.parametrize("fail_threshold", [0.1, 0.5, 1.0])
    def test_equal_to_the_loop_that_checks_every_node_every_tick(self, fail_threshold):
        for i in range(240):
            graph = self._oracle_graph(i)
            rng = np.random.default_rng([i, 1])
            horizon = int(rng.integers(1, 25))
            seed_node = graph.node_ids[int(rng.integers(len(graph.nodes)))]
            onset = int(rng.integers(horizon))
            trace = propagate_cascade(graph, seed_node, onset, horizon, fail_threshold, seed=i)
            times, telemetry = _reference_cascade(graph, seed_node, onset, horizon,
                                                  fail_threshold, seed=i)
            assert list(times) == list(telemetry) == list(graph.node_ids), i
            assert trace.failure_ticks.tolist() == [
                NEVER if t is None else t for t in times.values()], i
            assert trace.telemetry.shape == (len(graph.nodes), horizon, len(METRICS)), i
            for k, series in enumerate(telemetry.values()):
                assert trace.telemetry[k].tobytes() == series.tobytes(), (i, k)
            assert not trace.telemetry.flags.writeable
            assert not trace.failure_ticks.flags.writeable

    def test_one_clip_per_cascade(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cascade, "clip_metrics",
                            lambda rows: calls.append(rows.shape) or clip_metrics(rows))
        propagate_cascade(make_tree_graph(40, seed=2), "n0", 2, 24, 0.5, seed=3)
        assert calls == [(40, 24, len(METRICS))]


def failed_by(trace, tick: int) -> set[int]:
    """The positions of the nodes that have failed by `tick`."""
    return set(np.flatnonzero((trace.failure_ticks != NEVER)
                              & (trace.failure_ticks <= tick)).tolist())


def _reference_cascade(graph, seed_node, onset, horizon, fail_threshold, seed):
    """`propagate_cascade`'s failure times and node telemetry as first written:
    every healthy node is checked on every tick up to the horizon, and each
    node's series is built and clipped on its own."""
    in_weights = {n.id: [] for n in graph.nodes}
    totals = dict.fromkeys(in_weights, 0.0)
    for e in graph.edges:
        in_weights[e.dst].append((e.src, e.weight))
        totals[e.dst] += e.weight
    failure_times = {n.id: None for n in graph.nodes}
    failure_times[seed_node] = onset
    for tick in range(onset + 1, horizon):
        failed_before = {
            nid for nid, t in failure_times.items() if t is not None and t < tick
        }
        for node in graph.nodes:
            if failure_times[node.id] is not None:
                continue
            incoming = in_weights[node.id]
            if not incoming:
                continue
            failed_weight = sum(w for src, w in incoming if src in failed_before)
            if failed_weight / totals[node.id] >= fail_threshold:
                failure_times[node.id] = tick

    rng = np.random.Generator(np.random.PCG64(seed))
    node_telemetry = {}
    for node in graph.nodes:
        base = np.array(cascade._BASE_LEVELS[node.kind])
        level = base * rng.uniform(0.85, 1.15, size=5)
        series = level + rng.normal(0.0, 0.02, size=(horizon, 5)) * level
        fail_tick = failure_times[node.id]
        if fail_tick is not None:
            series[fail_tick:] *= cascade._FAILURE_EFFECT
        node_telemetry[node.id] = clip_metrics(series)
    return failure_times, node_telemetry


class TestComponentGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            ComponentGraph([("a", "query", ()), ("a", "table", ())], [])

    def test_self_edges_rejected(self):
        with pytest.raises(InputError):
            ComponentGraph([("a", "query", ())], [("a", "a", 0.5)])

    def test_weight_range_enforced(self):
        nodes = [("a", "query", ()), ("b", "table", ())]
        with pytest.raises(InputError):
            ComponentGraph(nodes, [("a", "b", 0.0)])
        with pytest.raises(InputError):
            ComponentGraph(nodes, [("a", "b", 1.5)])

    def test_repeated_edge_rejected_naming_both_edges(self):
        # listed twice, a -> b would hold 0.6 of b's in-weight instead of 0.43
        # and fail b at the default threshold
        nodes = [("a", "query", ()), ("b", "table", ()), ("c", "disk", ())]
        with pytest.raises(InputError, match=r"edge 1 repeats .*a->b.* edge 0"):
            ComponentGraph(nodes, [("a", "b", 0.3), ("a", "b", 0.3), ("c", "b", 0.4)])
        # the reverse dependency is another pair
        ComponentGraph(nodes, [("a", "b", 0.3), ("b", "a", 0.3)])

    def test_edge_ends_are_read_only_node_positions(self):
        graph = ComponentGraph(
            [("a", "query", ()), ("b", "table", ()), ("c", "disk", ())],
            [("c", "a", 0.5), ("a", "b", 1.0), ("c", "b", 0.2)],
        )
        assert graph.edge_src.tolist() == [2, 0, 2]
        assert graph.edge_dst.tolist() == [0, 1, 1]
        assert graph.edge_src.dtype == graph.edge_dst.dtype == np.intp
        assert not graph.edge_src.flags.writeable and not graph.edge_dst.flags.writeable
        empty = ComponentGraph([("a", "query", ())], [])
        assert empty.edge_src.shape == empty.edge_dst.shape == (0,)


class TestMakeTasks:
    def test_one_task_per_pattern(self):
        patterns = default_patterns(3, seed=1, anomaly_rate=0.12)
        tasks = make_tasks(patterns, n_support=5, n_query=5, window_width=4, seed=0)
        assert len(tasks) == 3
        assert [t.source_pattern_id for t in tasks] == [p.pattern_id for p in patterns]

    def test_support_query_disjoint(self):
        patterns = default_patterns(2, seed=2, anomaly_rate=0.15)
        for task in make_tasks(patterns, 8, 8, 4, seed=1):
            support = {tuple(row) for row in task.support_x}
            query = {tuple(row) for row in task.query_x}
            assert not (support & query)

    def test_counts_and_width(self):
        patterns = default_patterns(1, seed=3, anomaly_rate=0.15)
        (task,) = make_tasks(patterns, n_support=10, n_query=20, window_width=4, seed=0)
        assert task.support_x.shape == (10, 20)
        assert task.query_x.shape == (20, 20)

    def test_both_classes_in_each_side(self):
        patterns = default_patterns(4, seed=4, anomaly_rate=0.1)
        for task in make_tasks(patterns, 6, 6, 4, seed=9):
            assert {0.0, 1.0} <= set(task.support_y)
            assert {0.0, 1.0} <= set(task.query_y)

    def test_deterministic_in_seed(self):
        patterns = default_patterns(2, seed=5, anomaly_rate=0.1)
        a = make_tasks(patterns, 5, 5, 4, seed=77)
        b = make_tasks(patterns, 5, 5, 4, seed=77)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.support_x, tb.support_x)
            assert np.array_equal(ta.query_y, tb.query_y)

    def test_zero_anomaly_rate_fails_generation(self):
        with pytest.raises(GenerationError):
            make_tasks([flat_pattern(anomaly_rate=0.0)], 5, 5, 4, seed=0)


class TestAugmentTasks:
    @pytest.fixture()
    def tasks(self):
        patterns = default_patterns(2, seed=6, anomaly_rate=0.15)
        return make_tasks(patterns, 6, 6, 4, seed=3)

    def test_zero_jitter_copies_identical(self, tasks):
        out = augment_tasks(tasks, jitter_std=0.0, mix_count=0, seed=0)
        assert len(out) == 4
        for orig, copy in zip(tasks, out[2:]):
            assert np.array_equal(orig.support_x, copy.support_x)
            assert np.array_equal(orig.query_x, copy.query_x)

    def test_output_size_arithmetic(self, tasks):
        out = augment_tasks(tasks, jitter_std=0.01, mix_count=5, seed=0)
        assert len(out) == 2 * 2 + 5

    def test_interpolation_midpoint(self):
        x = np.array([[1.0, 3.0]])
        y = np.array([1.0])
        a = Task(x, y, x, y, "a")
        b = Task(x + 1.0, y, x + 1.0, y, "b")
        # weight depends on the seed; verify convexity instead of a fixed lambda
        out = augment_tasks([a, b], 0.0, 1, seed=4)[-1]
        u, v = x[0], (x + 1.0)[0]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        assert np.all(out.support_x[0] >= lo) and np.all(out.support_x[0] <= hi)

    def test_interpolation_half_weight_is_midpoint(self):
        from selfheal.simulator.tasks import _mix_side

        rng = np.random.default_rng(0)
        u = np.array([[2.0, 4.0]])
        v = np.array([[4.0, 8.0]])
        mixed, labels = _mix_side(u, np.array([1.0]), v, np.array([1.0]), 0.5, rng)
        assert np.array_equal(mixed, np.array([[3.0, 6.0]]))
        assert labels[0] == 1.0

    def test_labels_preserved(self, tasks):
        out = augment_tasks(tasks, jitter_std=0.05, mix_count=6, seed=1)
        for i, task in enumerate(tasks):
            assert np.array_equal(out[len(tasks) + i].support_y, task.support_y)
        for mixed in out[2 * len(tasks) :]:
            assert set(np.unique(mixed.support_y)) <= {0.0, 1.0}

    def test_deterministic(self, tasks):
        a = augment_tasks(tasks, 0.02, 3, seed=5)
        b = augment_tasks(tasks, 0.02, 3, seed=5)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.support_x, tb.support_x)


_VALID_ROW = ("0", "0.3", "0.4", "12.5", "100", "250", "0")


@st.composite
def malformed_csv_rows(draw):
    """(valid rows before it, one malformed row, the column it names)."""
    valid_before = draw(st.integers(0, 4))
    row = list(_VALID_ROW)
    kind = draw(st.sampled_from(["non_numeric", "non_finite", "short", "label"]))
    if kind == "short":
        cut = draw(st.integers(0, len(row) - 1))
        # a row without its cpu cell names cpu, the first metric read
        return valid_before, row[:cut], CSV_COLUMNS[max(cut, 1)]
    if kind == "label":
        row[-1] = draw(st.one_of(
            st.integers(-10**6, 10**6).filter(lambda v: v not in (0, 1)).map(str),
            st.floats(allow_nan=False, allow_infinity=False)
            .filter(lambda v: v not in (0.0, 1.0)).map(repr),
        ))
        return valid_before, row, "label"
    column = draw(st.integers(1, len(row) - 1))
    if kind == "non_numeric":
        # no digits, so nothing drawn parses as a float
        row[column] = draw(st.text(alphabet="bcxyz!?#% .", max_size=6))
    else:
        row[column] = draw(st.sampled_from(
            ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999"]
        ))
    return valid_before, row, CSV_COLUMNS[column]


class TestCsv:
    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("tick,cpu,memory,latency_ms,io_ops,qps,label\n")
        result = ingest_csv(path, {m: m for m in (*METRICS, "label")})
        assert result.trace.metrics.shape == (0, len(METRICS))
        assert result.trace.labels.shape == (0,)

    def test_identity_schema_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "tick,cpu,memory,latency_ms,io_ops,qps,label\n0,0.3,0.4,12.5,100,250,0\n"
        )
        result = ingest_csv(path, {m: m for m in (*METRICS, "label")})
        assert result.trace.metrics.tolist() == [[0.3, 0.4, 12.5, 100.0, 250.0]]
        assert result.trace.labels.tolist() == [0]

    def test_clamping_counted(self, tmp_path):
        path = tmp_path / "clamp.csv"
        path.write_text(
            "tick,cpu,memory,latency_ms,io_ops,qps,label\n0,1.7,0.4,12.5,100,250,0\n"
        )
        result = ingest_csv(path, {m: m for m in (*METRICS, "label")})
        assert result.trace.metrics[0, CPU] == 1.0
        assert result.clamp_counts["cpu"] == 1
        assert result.clamp_counts["memory"] == 0

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("tick,cpu,memory,latency_ms,io_ops,qps,label\n")
        schema = {m: m for m in (*METRICS, "label")}
        schema["query_rate"] = schema.pop("qps")
        with pytest.raises(SchemaError, match="query_rate"):
            ingest_csv(path, schema)

    def test_repeated_mapped_column_named(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("tick,cpu,memory,latency_ms,io_ops,qps,label,cpu\n"
                        "0,0.3,0.4,12.5,100,250,0,0.9\n")
        with pytest.raises(SchemaError, match=r"twice\.csv: column 'cpu' repeats"):
            ingest_csv(path, {m: m for m in (*METRICS, "label")})

    def test_schema_must_cover_all_metrics(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("cpu\n0.5\n")
        with pytest.raises(SchemaError, match="memory"):
            ingest_csv(path, {"cpu": "cpu"})

    def test_unparseable_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "tick,cpu,memory,latency_ms,io_ops,qps,label\n"
            "0,0.3,0.4,12.5,100,250,0\n"
            "1,oops,0.4,12.5,100,250,0\n"
        )
        with pytest.raises(RowError) as err:
            ingest_csv(path, {m: m for m in (*METRICS, "label")})
        assert err.value.line == 3

    def test_row_longer_than_the_header_reports_line_and_counts(self, tmp_path):
        # its extra cells used to be dropped, and the row loaded as one tick
        path = tmp_path / "long.csv"
        path.write_text(
            "tick,cpu,memory,latency_ms,io_ops,qps,label\n"
            "0,0.3,0.4,12.5,100,250,0\n"
            "1,0.3,0.4,12.5,100,250,0,77,88\n"
        )
        with pytest.raises(RowError, match="line 3: 9 cells, but the header has 7 columns"):
            ingest_csv(path, {m: m for m in (*METRICS, "label")})

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=malformed_csv_rows())
    @example(case=(0, ["0", "nan", "0.4", "12.5", "100", "250", "0"], "cpu"))
    @example(case=(1, ["0", "0.3", "0.4", "inf", "100", "250", "0"], "latency_ms"))
    def test_malformed_row_names_cell_and_line(self, tmp_path, case):
        valid_before, row, name = case
        good = ",".join(_VALID_ROW)
        lines = [",".join(CSV_COLUMNS)] + [good] * valid_before + [",".join(row), good]
        path = tmp_path / "malformed.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RowError) as err:
            ingest_csv(path, {m: m for m in (*METRICS, "label")})
        assert err.value.line == valid_before + 2
        assert name in str(err.value)

    def test_export_roundtrip(self, tmp_path):
        pattern = default_patterns(1, seed=7, anomaly_rate=0.1)[0]
        trace = generate_trace(pattern, seed=11, ticks=50)
        path = tmp_path / "trace.csv"
        export_csv(trace, path)
        result = ingest_csv(path, {m: m for m in (*METRICS, "label")})
        loaded = result.trace
        assert np.array_equal(loaded.labels, trace.labels)
        np.testing.assert_allclose(loaded.metrics, trace.metrics, rtol=1e-5)


def test_telemetry_window_validation():
    with pytest.raises(InputError, match="cpu=1.5"):
        TelemetryTrace([[1.5, 0.2, 1, 1, 1]], [0])
    with pytest.raises(InputError, match="0 or 1"):
        TelemetryTrace([[0.5, 0.2, 1, 1, 1]], [2])
    with pytest.raises(InputError, match="trace needs"):
        TelemetryTrace([[0.5, 0.2, 1, 1]], [0])
    with pytest.raises(InputError, match="trace needs"):
        TelemetryTrace([[0.5, 0.2, 1, 1, 1]], [0, 1])
