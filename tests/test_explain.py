import math

import numpy as np
import pytest

from selfheal.errors import CapacityError, InputError
from selfheal.detector import DetectorModel, init_detector
from selfheal.explain import (
    BackgroundSet,
    explain_recovery,
    metric_groups,
    shapley_attribution,
)
from selfheal.recovery import ACTIONS, N_STATES, Policy, RecoveryAction, named_state
from taped import forward_mlp


def linear_model(weights, bias=0.0) -> DetectorModel:
    w = np.asarray(weights, dtype=float).reshape(-1, 1)
    return DetectorModel(
        input_width=w.shape[0], layer_spec=((1, "linear"),), weights=[w, np.array([bias])]
    )


def single_groups(width):
    return {f"f{i}": [i] for i in range(width)}


class TestShapley:
    def test_constant_model_gives_zero_attributions(self):
        model = linear_model([0.0, 0.0, 0.0], bias=0.7)
        bg = BackgroundSet(np.random.default_rng(0).normal(size=(8, 3)))
        att = shapley_attribution(model, np.ones(3), bg, single_groups(3))
        assert all(abs(c) < 1e-12 for c in att.contributions)
        assert att.base_value == pytest.approx(0.7)

    def test_symmetric_groups_get_equal_attribution(self):
        model = linear_model([2.0, 2.0])
        bg = BackgroundSet(np.array([[0.1, 0.1], [0.4, 0.4]]))
        att = shapley_attribution(model, np.array([1.0, 1.0]), bg, single_groups(2))
        assert att.contributions[0] == pytest.approx(att.contributions[1], abs=1e-12)

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=5)
        model = linear_model(w, bias=0.25)
        bg = BackgroundSet(rng.normal(size=(12, 5)))
        x = rng.normal(size=5)
        att = shapley_attribution(model, x, bg, single_groups(5))
        expected = w * (x - bg.rows.mean(axis=0))
        assert np.allclose(att.contributions, expected, atol=1e-9)

    def test_efficiency_on_random_mlps(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            model = init_detector(10, seed=trial, layer_spec=((6, "relu"), (1, "sigmoid")))
            bg = BackgroundSet(rng.normal(size=(6, 10)))
            x = rng.normal(size=10)
            att = shapley_attribution(model, x, bg, {f"g{i}": [2 * i, 2 * i + 1] for i in range(5)})
            assert sum(att.contributions) + att.base_value == pytest.approx(
                att.instance_value, abs=1e-9
            )

    @pytest.mark.parametrize("spec", [None, ((6, "tanh"), (1, "sigmoid"))],
                             ids=["default", "tanh"])
    def test_bitwise_equal_to_per_coalition_taped_forward(self, spec):
        rng = np.random.default_rng(11)
        groups = metric_groups(4)
        names = tuple(groups)
        for seed in range(3):
            model = init_detector(20, seed, **({} if spec is None else {"layer_spec": spec}))
            bg = BackgroundSet(rng.normal(size=(16, 20)))
            x = rng.normal(size=20)
            values = []
            for bits in range(2 ** len(names)):  # one coalition at a time
                data = bg.rows.copy()
                for j, name in enumerate(names):
                    if bits >> j & 1:
                        data[:, groups[name]] = x[groups[name]]
                values.append(float(forward_mlp(model.weights, data, model.layer_spec)
                                    .mean()))
            g, fact = len(names), [math.factorial(k) for k in range(len(names) + 1)]
            expected = []
            for j in range(g):
                phi = 0.0
                for bits in range(2 ** g):
                    if not bits >> j & 1:
                        size = bits.bit_count()
                        weight = fact[size] * fact[g - size - 1] / fact[g]
                        phi += weight * (values[bits | (1 << j)] - values[bits])
                expected.append(phi)
            att = shapley_attribution(model, x, bg, groups)
            assert np.array(att.contributions).tobytes() == np.array(expected).tobytes()
            assert np.float64(att.base_value).tobytes() == np.float64(values[0]).tobytes()
            assert (np.float64(att.instance_value).tobytes()
                    == np.float64(values[-1]).tobytes())

    def test_dummy_group_gets_zero(self):
        # model provably ignores the last two features
        model = linear_model([1.5, -2.0, 0.0, 0.0])
        bg = BackgroundSet(np.random.default_rng(1).normal(size=(5, 4)))
        groups = {"used": [0, 1], "ignored": [2, 3]}
        att = shapley_attribution(model, np.array([1.0, 2.0, 3.0, 4.0]), bg, groups)
        assert abs(att.contributions[1]) < 1e-12

    def test_group_capacity_enforced(self):
        model = linear_model(np.ones(13))
        bg = BackgroundSet(np.zeros((2, 13)))
        with pytest.raises(CapacityError, match="coarsen"):
            shapley_attribution(model, np.zeros(13), bg, single_groups(13))

    def test_groups_must_partition_features(self):
        model = linear_model([1.0, 1.0])
        bg = BackgroundSet(np.zeros((2, 2)))
        with pytest.raises(InputError):
            shapley_attribution(model, np.zeros(2), bg, {"only": [0]})

    def test_metric_groups_shape(self):
        groups = metric_groups(window_width=4)
        assert set(groups) == {"cpu", "memory", "latency_ms", "io_ops", "qps"}
        assert groups["cpu"] == [0, 5, 10, 15]
        assert sorted(i for idxs in groups.values() for i in idxs) == list(range(20))


class TestExplainRecovery:
    def test_equal_q_orders_by_ordinal_with_zero_gaps(self):
        policy = Policy(q=np.zeros((N_STATES, 7)))
        ranking = explain_recovery(policy, named_state("low", "none", "none"))
        assert [r.action for r in ranking] == list(ACTIONS)
        assert all(r.gap_to_best == 0.0 for r in ranking)

    def test_gaps_from_descending_values(self):
        q = np.zeros((N_STATES, 7))
        state = named_state("low", "none", "none")
        q[state] = [5.0, 3.0, 1.0, 0.0, -1.0, -2.0, -3.0]
        ranking = explain_recovery(Policy(q=q), state)
        assert ranking[0].action is RecoveryAction.NO_OP
        assert [r.gap_to_best for r in ranking[:3]] == [0.0, 2.0, 4.0]

    def test_first_entry_gap_always_zero(self):
        rng = np.random.default_rng(9)
        policy = Policy(q=rng.normal(size=(N_STATES, 7)))
        for i in range(0, N_STATES, 7):
            ranking = explain_recovery(policy, i)
            assert ranking[0].gap_to_best == 0.0

    def test_ranking_is_permutation_of_action_set(self):
        rng = np.random.default_rng(2)
        policy = Policy(q=rng.normal(size=(N_STATES, 7)))
        ranking = explain_recovery(policy, named_state("high", "io", "low"))
        assert sorted(r.action.value for r in ranking) == list(range(7))

    @pytest.mark.parametrize("state", [-1, N_STATES])
    def test_state_outside_the_space_rejected(self, state):
        with pytest.raises(InputError, match="outside"):
            explain_recovery(Policy(q=np.zeros((N_STATES, 7))), state)
