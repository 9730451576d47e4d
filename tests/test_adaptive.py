import numpy as np
import pytest

from chancap.adaptive import (
    AdaptiveStrategy,
    ConditionalPovm,
    additivity_experiment,
    best_conditional_information,
    chain_identity_check,
    dual_conditional,
    first_stage_ensemble,
    fixed_measurement_additivity,
    flatten,
    product_strategy_value,
    second_stage_ensemble,
)
from chancap.capacity import OptimizerConfig, shannon_capacity
from chancap.channels import (
    Povm,
    basis_povm,
    bit_flip_channel,
    completely_noisy_channel,
    identity_channel,
    projective_povm,
    random_channel,
)
from chancap.errors import DimensionMismatchError, InvariantViolation
from chancap.information import (
    Ensemble,
    basis_identity_povm,
    classical_mutual_information,
    conditional_mutual_information,
    mutual_information,
)
from chancap.linalg import partial_trace, tensor
from chancap.rand import random_ensemble, random_povm

QUICK = OptimizerConfig(restarts=2, max_iters=4, tol=1e-6, seed=21)


def random_conditional_povm(rng):
    return ConditionalPovm(
        random_povm(2, 2, rng), (random_povm(2, 2, rng), random_povm(2, 2, rng))
    )


def random_adaptive_instance(seed):
    rng = np.random.default_rng(seed)
    ch1 = random_channel(2, int(rng.integers(1, 5)), seed=2 * seed)
    ch2 = random_channel(2, int(rng.integers(1, 5)), seed=2 * seed + 1)
    e12 = random_ensemble(4, int(rng.integers(2, 5)), rng)
    cp = random_conditional_povm(rng)
    return ch1, ch2, e12, cp


class TestFlatten:
    def test_unconditioned_product(self):
        cp = ConditionalPovm(basis_povm(2), (basis_povm(2), basis_povm(2)))
        flat = flatten(cp)
        assert len(flat.elements) == 4
        np.testing.assert_allclose(sum(flat.elements), np.eye(4), atol=1e-12)

    def test_conditioned_stages(self):
        cp = ConditionalPovm(basis_povm(2), (basis_povm(2), projective_povm([1, 0, 0])))
        flat = flatten(cp)
        assert len(flat.elements) == 4
        np.testing.assert_allclose(sum(flat.elements), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(
            flat.elements[2], tensor(np.diag([0.0, 1.0]), 0.5 * np.ones((2, 2))), atol=1e-12
        )

    def test_depth_three(self):
        strategy = AdaptiveStrategy(
            3,
            {
                (): basis_povm(2),
                (0,): projective_povm([1, 0, 0]),
                (1,): basis_povm(2),
                (0, 0): basis_povm(2),
                (0, 1): projective_povm([0, 1, 0]),
                (1, 0): projective_povm([1, 0, 0]),
                (1, 1): basis_povm(2),
            },
        )
        flat = flatten(strategy)
        assert len(flat.elements) == 8
        np.testing.assert_allclose(sum(flat.elements), np.eye(8), atol=1e-12)

    def test_missing_stage_rejected(self):
        with pytest.raises(InvariantViolation):
            AdaptiveStrategy(2, {(): basis_povm(2), (0,): basis_povm(2)})

    def test_off_tree_stage_rejected(self):
        stages = {(): basis_povm(2), (0,): basis_povm(2), (1,): basis_povm(2)}
        for extra in [(5,), (0, 0)]:
            with pytest.raises(InvariantViolation, match="off the outcome tree"):
                AdaptiveStrategy(2, {**stages, extra: basis_povm(2)})

    def test_mixed_dimension_level_rejected(self):
        with pytest.raises(DimensionMismatchError, match="different dimensions"):
            AdaptiveStrategy(2, {(): basis_povm(2), (0,): basis_povm(2), (1,): basis_povm(3)})

    def test_corrupted_branch_names_outcome(self):
        strategy = ConditionalPovm(basis_povm(2), (basis_povm(2), basis_povm(2)))
        bad = basis_povm(2)
        object.__setattr__(bad, "elements", bad.elements * np.array([0.5, 1.0])[:, None, None])
        stages = dict(strategy.stages)
        stages[(1,)] = bad
        broken = AdaptiveStrategy(2, stages)
        with pytest.raises(InvariantViolation) as err:
            flatten(broken)
        assert "outcome 1" in str(err.value)

    def test_second_stage_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            ConditionalPovm(basis_povm(2), (basis_povm(2),))


class TestInducedEnsembles:
    def test_first_stage_of_product_inputs(self):
        rng = np.random.default_rng(1)
        from chancap.rand import random_pure_state

        sigma = [random_pure_state(2, rng) for _ in range(3)]
        omega = random_pure_state(2, rng)
        e12 = Ensemble(np.array([0.2, 0.3, 0.5]), tuple(tensor(s, omega) for s in sigma))
        e1 = first_stage_ensemble(e12, (2, 2))
        for got, want in zip(e1.states, sigma):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_first_stage_of_entangled_inputs(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        e12 = Ensemble(np.array([1.0]), (np.outer(bell, bell.conj()),))
        e1 = first_stage_ensemble(e12, (2, 2))
        np.testing.assert_allclose(e1.states[0], np.eye(2) / 2, atol=1e-12)

    def test_first_stage_linearity(self):
        rng = np.random.default_rng(2)
        e12 = random_ensemble(4, 3, rng)
        e1 = first_stage_ensemble(e12, (2, 2))
        avg_then_trace = partial_trace(e12.average_state(), [2, 2], keep=[0])
        np.testing.assert_allclose(e1.average_state(), avg_then_trace, atol=1e-12)

    def test_second_stage_product_inputs_ignore_outcome(self):
        rng = np.random.default_rng(3)
        from chancap.rand import random_pure_state

        sigma = [random_pure_state(2, rng) for _ in range(2)]
        omega = [random_pure_state(2, rng) for _ in range(2)]
        e12 = Ensemble(
            np.array([0.4, 0.6]), tuple(tensor(s, o) for s, o in zip(sigma, omega))
        )
        ch1 = random_channel(2, 2, seed=31)
        m1 = random_povm(2, 2, rng)
        for b in range(2):
            e2, p_b = second_stage_ensemble(e12, ch1, m1, b, (2, 2))
            assert p_b > 0
            for got, want in zip(e2.states, omega):
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_second_stage_entangled_explicit(self):
        # maximally entangled input with a basis readout steers the second half
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        e12 = Ensemble(np.array([1.0]), (np.outer(bell, bell.conj()),))
        m1 = basis_povm(2)
        e2, p_b = second_stage_ensemble(e12, identity_channel(2), m1, 0, (2, 2))
        assert abs(p_b - 0.5) < 1e-12
        np.testing.assert_allclose(e2.states[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        for seed in range(10):
            ch1, _, e12, cp = random_adaptive_instance(400 + seed)
            total = 0.0
            for b in range(2):
                result = second_stage_ensemble(e12, ch1, cp.stage(()), b, (2, 2))
                total += result[1]
            assert abs(total - 1.0) < 1e-10

    def test_outcome_probability_formula(self):
        from chancap.channels import dual_povm

        for seed in range(10):
            ch1, _, e12, cp = random_adaptive_instance(500 + seed)
            f0 = dual_povm(ch1, cp.stage(())).elements[0]
            expected = np.trace(e12.average_state() @ tensor(f0, np.eye(2))).real
            _, p_b = second_stage_ensemble(e12, ch1, cp.stage(()), 0, (2, 2))
            assert abs(p_b - expected) < 1e-10


class TestChainIdentity:
    def test_random_instances(self):
        worst = 0.0
        for seed in range(300):
            ch1, ch2, e12, cp = random_adaptive_instance(seed)
            _, _, gap = chain_identity_check(e12, ch1, ch2, cp)
            worst = max(worst, gap)
        assert worst <= 1e-9

    def test_search_witness_with_tiny_outcome_probabilities(self):
        # the witness of the seeded search reaches p(b|j) ~ 1e-10, where dividing
        # its conditional blocks by p(b|j) left eigenvalues near -1e-6
        from chancap.adaptive import _product_ensemble, _projective_like

        budget = OptimizerConfig(restarts=2, max_iters=4, tol=1e-6, seed=17)
        ch1, ch2 = random_channel(2, 1, seed=0), random_channel(2, 2, seed=1)
        r1, r2 = shannon_capacity(ch1, budget), shannon_capacity(ch2, budget)
        second = _projective_like(r2.argmax_povm)
        init = AdaptiveStrategy(2, {(): _projective_like(r1.argmax_povm), (0,): second, (1,): second})
        _, e12, strat = best_conditional_information(
            [ch1, ch2], budget, init_ensemble=_product_ensemble(r1, r2), init_strategy=init
        )
        _, _, gap = chain_identity_check(e12, ch1, ch2, strat)
        assert gap <= 1e-9

    def test_unconditioned_special_case(self):
        rng = np.random.default_rng(5)
        m2 = random_povm(2, 2, rng)
        cp = ConditionalPovm(random_povm(2, 2, rng), (m2, m2))
        e12 = random_ensemble(4, 3, rng)
        ch1 = random_channel(2, 2, seed=51)
        ch2 = random_channel(2, 3, seed=52)
        _, _, gap = chain_identity_check(e12, ch1, ch2, cp)
        assert gap <= 1e-9

    def test_trivial_first_stage(self):
        rng = np.random.default_rng(6)
        cp = ConditionalPovm(basis_identity_povm(2), (random_povm(2, 3, rng),))
        e12 = random_ensemble(4, 2, rng)
        ch1 = random_channel(2, 2, seed=61)
        ch2 = random_channel(2, 2, seed=62)
        lhs, rhs, gap = chain_identity_check(e12, ch1, ch2, cp)
        assert gap <= 1e-9
        # a single-outcome first stage contributes nothing
        e2, p_b = second_stage_ensemble(e12, ch1, cp.stage(()), 0, (2, 2))
        assert abs(p_b - 1.0) < 1e-10
        from chancap.channels import dual_povm

        assert abs(lhs - mutual_information(e2, dual_povm(ch2, cp.stage((0,))))) < 1e-9

    def test_appendix_equivalence_with_classical_table(self):
        # the three-variable classical table from the flattened dual POVM
        # reproduces both sides of the identity
        from chancap.channels import dual_povm

        for seed in range(50):
            ch1, ch2, e12, cp = random_adaptive_instance(700 + seed)
            f1 = dual_povm(ch1, cp.stage(()))
            f2 = [dual_povm(ch2, cp.stage((b,))) for b in range(2)]
            table = np.zeros((len(e12), 2, 2))
            for j, (pj, s) in enumerate(zip(e12.probs, e12.states)):
                for b in range(2):
                    for c in range(2):
                        eff = tensor(f1.elements[b], f2[b].elements[c])
                        table[j, b, c] = pj * np.trace(s @ eff).real
            lhs, rhs, _ = chain_identity_check(e12, ch1, ch2, cp)
            i_joint = classical_mutual_information(table.reshape(len(e12), 4))
            i_first = classical_mutual_information(table.sum(axis=2))
            i_cond = conditional_mutual_information(table)
            assert abs(i_joint - lhs) < 1e-10
            assert abs(i_first + i_cond - rhs) < 1e-10

    def test_first_stage_bound(self):
        # the second half of the identity is bounded by the second channel's capacity
        cache = {}
        for seed in range(6):
            ch1, ch2, e12, cp = random_adaptive_instance(800 + seed)
            key = id(ch2)
            lhs, _, _ = chain_identity_check(e12, ch1, ch2, cp)
            from chancap.channels import dual_povm

            first_info = mutual_information(first_stage_ensemble(e12, (2, 2)), dual_povm(ch1, cp.stage(())))
            c2 = shannon_capacity(ch2, QUICK).value
            assert lhs <= first_info + c2 + 1e-3


class TestAdditivityExperiment:
    def test_identity_pair(self):
        rep = additivity_experiment(identity_channel(2), identity_channel(2), QUICK)
        assert abs(rep.conditional_best - 2.0) < 2e-3
        assert abs(rep.product_value - 2.0) < 2e-3
        assert rep.upper_bound_ok() and rep.lower_bound_ok()

    def test_identity_noisy_pair(self):
        rep = additivity_experiment(identity_channel(2), completely_noisy_channel(2), QUICK)
        assert abs(rep.capacity_sum - 1.0) < 2e-3
        assert rep.upper_bound_ok() and rep.lower_bound_ok()

    def test_bit_flip_pair(self):
        rep = additivity_experiment(bit_flip_channel(0.1), bit_flip_channel(0.1), QUICK)
        assert abs(rep.capacity_sum - 1.062007) < 4e-3
        assert rep.upper_bound_ok() and rep.lower_bound_ok()

    def test_product_strategy_matches_sum(self):
        ch1 = bit_flip_channel(0.2)
        ch2 = identity_channel(2)
        r1 = shannon_capacity(ch1, QUICK)
        r2 = shannon_capacity(ch2, QUICK)
        value = product_strategy_value(ch1, ch2, r1, r2)
        assert abs(value - (r1.value + r2.value)) < 1e-6

    def test_non_qubit_output_rejected_before_any_estimate(self, monkeypatch):
        # the conditional stages measure qubit outputs; the input may be larger
        import chancap.adaptive as adaptive

        ch = random_channel(3, 2, seed=1)
        monkeypatch.setattr(adaptive, "shannon_capacity", lambda *args: pytest.fail("estimated before the check"))
        with pytest.raises(DimensionMismatchError, match="qubit outputs"):
            additivity_experiment(identity_channel(2), ch, QUICK)
        for depth in (1, 2, 3):
            with pytest.raises(DimensionMismatchError, match="qubit outputs"):
                best_conditional_information([ch] * depth, QUICK)


class TestIteratedDepthThree:
    def test_conditional_bounded_by_triple_capacity(self):
        ch = bit_flip_channel(0.1)
        single = shannon_capacity(ch, QUICK).value
        value, _, _ = best_conditional_information([ch, ch, ch], QUICK)
        assert value <= 3.0 * single + 2e-3


class TestFixedMeasurementAdditivity:
    def test_identity_projective_stages_depth2(self):
        strategy = AdaptiveStrategy(2, {(): basis_povm(2), (0,): basis_povm(2), (1,): basis_povm(2)})
        cfg = OptimizerConfig(restarts=2, max_iters=4, tol=1e-6, seed=5, ensemble_size_cap=4)
        rep = fixed_measurement_additivity([identity_channel(2)] * 2, strategy, cfg)
        assert abs(rep.joint_value - 2.0) < 2e-3
        assert abs(rep.stage_sum - 2.0) < 2e-3
        assert rep.gap <= 1e-3 + 4e-3

    def test_repeated_single_copy_optimum(self):
        # stages reuse one POVM, so the joint optimum splits into per-copy sums
        ch = bit_flip_channel(0.15)
        m = basis_povm(2)
        strategy = AdaptiveStrategy(2, {(): m, (0,): m, (1,): m})
        rep = fixed_measurement_additivity([ch, ch], strategy, QUICK)
        assert rep.gap <= 1e-3

    def test_trivial_second_stage_reduces_to_single_copy(self):
        ch = bit_flip_channel(0.1)
        strategy = AdaptiveStrategy(
            2, {(): basis_povm(2), (0,): basis_identity_povm(2), (1,): basis_identity_povm(2)}
        )
        rep = fixed_measurement_additivity([ch, ch], strategy, QUICK)
        single = shannon_capacity(ch, QUICK).value
        assert abs(rep.joint_value - single) < 2e-3
        assert abs(rep.stage_values[0] - single) < 2e-3
        assert rep.stage_values[1] < 1e-9

    def test_identity_depth3_reaches_three_bits(self):
        strategy = AdaptiveStrategy(
            3,
            {prefix: basis_povm(2) for prefix in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]},
        )
        cfg = OptimizerConfig(restarts=1, max_iters=3, tol=1e-6, seed=9, ensemble_size_cap=8)
        rep = fixed_measurement_additivity([identity_channel(2)] * 3, strategy, cfg)
        assert abs(rep.joint_value - 3.0) < 2e-3
        assert abs(rep.stage_sum - 3.0) < 2e-3


class TestDualConditional:
    def test_stagewise_pullback(self):
        rng = np.random.default_rng(10)
        cp = random_conditional_povm(rng)
        ch1 = random_channel(2, 2, seed=100)
        ch2 = random_channel(2, 3, seed=101)
        dual = dual_conditional([ch1, ch2], cp)
        from chancap.channels import dual_apply

        np.testing.assert_allclose(
            dual.stage(()).elements[0], dual_apply(ch1, cp.stage(()).elements[0]), atol=1e-12
        )
        np.testing.assert_allclose(
            dual.stage((1,)).elements[0], dual_apply(ch2, cp.stage((1,)).elements[0]), atol=1e-12
        )

    def test_depth_mismatch(self):
        rng = np.random.default_rng(11)
        cp = random_conditional_povm(rng)
        with pytest.raises(DimensionMismatchError):
            dual_conditional([identity_channel(2)], cp)


class TestStrategyParams:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_params_of_strategy_rebuild_it(self, depth):
        from chancap.adaptive import _strategy_from_params, _strategy_param_count, _strategy_params_of

        rng = np.random.default_rng(60 + depth)
        poles = np.array([0.0, np.pi, -np.pi, 2 * np.pi])
        for k in range(40):
            x = rng.normal(scale=3.0, size=_strategy_param_count(depth))
            if k % 2 == 0:  # some stages at the poles, where phi is arbitrary
                at_pole = rng.random(len(x) // 2) < 0.5
                x[0::2][at_pole] = rng.choice(poles, size=int(at_pole.sum()))
            strategy = _strategy_from_params(x, depth)
            assert len(strategy.stages) == 2**depth - 1
            rebuilt = _strategy_from_params(_strategy_params_of(strategy), depth)
            np.testing.assert_allclose(
                np.stack(flatten(rebuilt).elements), np.stack(flatten(strategy).elements), atol=1e-12
            )

    def test_projective_like_takes_the_longest_axis(self):
        from chancap.adaptive import _projective_like

        m = Povm(np.array([np.diag([0.5, 0.1]), np.diag([0.1, 0.8]), np.diag([0.4, 0.1])], dtype=complex))
        np.testing.assert_allclose(np.stack(_projective_like(m).elements), np.stack(projective_povm([0, 0, -1]).elements))
        assert _projective_like(Povm((0.5 * np.eye(2), 0.5 * np.eye(2)))).elements[0][0, 0] == 1.0  # no axis: z
