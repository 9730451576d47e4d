import numpy as np
import pytest

from chancap import capacity as cap
from chancap.capacity import (
    CapacityResult,
    OptimizerConfig,
    QubitEffect,
    blahut_arimoto,
    density_from_params,
    fixed_measurement_capacity,
    holevo_capacity,
    max_holevo_weights,
    measured_channel_equivalence,
    measured_input_bound,
    n_density_params,
    n_povm_params,
    n_state_params,
    povm_elements_from_params,
    pure_states_from_params,
    qubit_grid_oracle,
    qubit_povm_effects,
    shannon_capacity,
)
from chancap.channels import (
    Povm,
    QuantumChannel,
    basis_povm,
    bit_flip_channel,
    completely_noisy_channel,
    depolarizing_channel,
    identity_channel,
    measured_channel,
    random_channel,
    trine_povm,
)
from chancap.errors import DimensionMismatchError, InvariantViolation
from chancap.information import channel_mutual_information, holevo_information, measured_input_information
from chancap.linalg import assert_density_matrix, shannon_entropy
from chancap.rand import random_povm, random_unitary

QUICK = OptimizerConfig(restarts=2, max_iters=4, tol=1e-6, seed=11)


def binary_entropy(p):
    return shannon_entropy([p, 1.0 - p])


class TestBlahutArimoto:
    def test_identity_kernel(self):
        c, w = blahut_arimoto(np.eye(2))
        assert abs(c - 1.0) < 1e-9
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)

    def test_constant_kernel(self):
        c, _ = blahut_arimoto(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert abs(c) < 1e-12

    def test_binary_symmetric_closed_form(self):
        c, w = blahut_arimoto(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert abs(c - (1.0 - binary_entropy(0.1))) < 1e-8
        assert abs(c - 0.531004) < 1e-6

    def test_monotone_lower_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            kernel = rng.dirichlet(np.ones(3), size=4)
            _, _, info = blahut_arimoto(kernel, tol=1e-9, max_iters=500, full_output=True)
            lb = info["lower_bounds"]
            assert all(lb[i + 1] >= lb[i] - 1e-12 for i in range(len(lb) - 1))

    def test_non_stochastic_rejected(self):
        with pytest.raises(InvariantViolation):
            blahut_arimoto(np.array([[0.5, 0.4], [0.1, 0.9]]))
        with pytest.raises(InvariantViolation):
            blahut_arimoto(np.array([[1.1, -0.1], [0.5, 0.5]]))


class TestParametrisations:
    def test_states_are_pure_densities(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3):
            x = rng.normal(size=n_state_params(dim, 3))
            for s in pure_states_from_params(x, dim, 3):
                assert_density_matrix(s)
                assert abs(np.trace(s @ s).real - 1.0) < 1e-10

    def test_povm_feasible_for_any_params(self):
        # optimizer iterates are exactly images of this map
        rng = np.random.default_rng(2)
        for dim, n_out in ((2, 2), (2, 4), (3, 4)):
            for _ in range(20):
                x = rng.normal(size=n_povm_params(dim, n_out))
                Povm(tuple(povm_elements_from_params(x, dim, n_out)))

    def test_density_full_rank_simplex(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            for _ in range(10):
                x = rng.normal(size=n_density_params(dim))
                rho = density_from_params(x, dim)
                assert_density_matrix(rho)
                assert np.linalg.eigvalsh(rho).min() > 0

    def test_config_validation(self):
        with pytest.raises(InvariantViolation):
            OptimizerConfig(tol=0.0)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(ensemble_size_cap=1)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(restarts=0)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(max_iters=-1)
        assert OptimizerConfig(restarts=1, max_iters=0).max_iters == 0


class TestQubitEffect:
    def test_round_trip(self):
        m = random_povm(2, 3, np.random.default_rng(4))
        for e in m.elements:
            eff = QubitEffect.from_matrix(e)
            np.testing.assert_allclose(eff.to_matrix(), e, atol=1e-10)

    def test_feasibility_enforced(self):
        with pytest.raises(InvariantViolation):
            QubitEffect(0.2, np.array([0.5, 0.0, 0.0]))

    def test_povm_summary_checks_completeness(self):
        effs = qubit_povm_effects(basis_povm(2))
        assert abs(sum(e.weight for e in effs) - 1.0) < 1e-12
        assert np.linalg.norm(sum(e.bloch for e in effs)) < 1e-12


class TestShannonCapacity:
    def test_identity(self):
        res = shannon_capacity(identity_channel(2), QUICK)
        assert abs(res.value - 1.0) < 1e-3

    def test_completely_noisy(self):
        res = shannon_capacity(completely_noisy_channel(2), QUICK)
        assert res.value < 1e-6

    def test_bit_flip_closed_form(self):
        res = shannon_capacity(bit_flip_channel(0.1), QUICK)
        assert abs(res.value - 0.531004) < 2e-3
        # the grid oracle confirms the optimum sits at the binary-symmetric point
        assert abs(qubit_grid_oracle(bit_flip_channel(0.1), 50) - 0.531004) < 2e-3

    def test_argmax_reproduces_value(self):
        for seed in (0, 1):
            ch = random_channel(2, 2 + seed, seed=40 + seed)
            res = shannon_capacity(ch, QUICK)
            re_eval = channel_mutual_information(ch, res.argmax_ensemble, res.argmax_povm)
            assert abs(re_eval - res.value) < 1e-8

    def test_unitary_covariance(self):
        rng = np.random.default_rng(5)
        ch = random_channel(2, 2, seed=50)
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        rotated = QuantumChannel(tuple(u @ k @ v for k in ch.kraus))
        a = shannon_capacity(ch, QUICK).value
        b = shannon_capacity(rotated, QUICK).value
        assert abs(a - b) < 2e-3


class TestHolevoCapacity:
    def test_identity(self):
        assert abs(holevo_capacity(identity_channel(2), QUICK).value - 1.0) < 1e-3

    def test_completely_noisy(self):
        assert holevo_capacity(completely_noisy_channel(2), QUICK).value < 1e-6

    def test_depolarizing_antipodal_oracle(self):
        # brute force over antipodal two-state ensembles on a Bloch grid
        ch = depolarizing_channel(0.5)
        best = 0.0
        for theta in np.linspace(0, np.pi, 25):
            for phi in np.linspace(0, 2 * np.pi, 25, endpoint=False):
                v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
                s1 = np.outer(v, v.conj())
                s2 = np.eye(2) - s1
                from chancap.information import Ensemble

                ens = Ensemble(np.array([0.5, 0.5]), (s1, s2))
                best = max(best, holevo_information(ch, ens))
        expected = 1.0 - binary_entropy(0.75)
        assert abs(best - expected) < 1e-6
        res = holevo_capacity(ch, QUICK)
        assert abs(res.value - expected) < 1e-3
        assert abs(expected - 0.188722) < 1e-6

    def test_argmax_reproduces_value(self):
        ch = random_channel(2, 3, seed=60)
        res = holevo_capacity(ch, QUICK)
        assert abs(holevo_information(ch, res.argmax_ensemble) - res.value) < 1e-8

    def test_weight_solver_gap(self):
        # at the solver's stop, no single output beats the mixture by more than tol
        rng = np.random.default_rng(6)
        from chancap.rand import random_density_matrix

        outs = np.stack([random_density_matrix(2, rng) for _ in range(4)])
        chi, weights = max_holevo_weights(outs, tol=1e-10, max_iters=5000)
        assert chi >= -1e-12
        assert abs(weights.sum() - 1.0) < 1e-12


class TestMeasuredInputBound:
    def test_completely_noisy(self):
        assert measured_input_bound(completely_noisy_channel(2), QUICK).value < 1e-9

    def test_identity(self):
        res = measured_input_bound(identity_channel(2), QUICK)
        assert abs(res.value - 1.0) < 1e-3

    def test_argmax_reproduces_value(self):
        ch = random_channel(2, 2, seed=70)
        res = measured_input_bound(ch, QUICK)
        re_eval = measured_input_information(ch, res.argmax_rho, res.argmax_povm)
        assert abs(re_eval - res.value) < 1e-8

    def test_dominates_shannon(self):
        for seed in (71, 72, 73):
            ch = random_channel(2, 1 + seed % 4, seed=seed)
            s = shannon_capacity(ch, QUICK).value
            u = measured_input_bound(ch, QUICK).value
            assert s <= u + 1e-4


class TestGridOracle:
    def test_identity_contains_basis_point(self):
        assert qubit_grid_oracle(identity_channel(2), 20) >= 0.999

    def test_completely_noisy(self):
        assert qubit_grid_oracle(completely_noisy_channel(2), 20) < 1e-9

    def test_trine_arity(self):
        # three-outcome readout of a noiseless qubit tops out at log2(3) - 1
        got = qubit_grid_oracle(identity_channel(2), 20, ensemble_size=3, povm_arity=3)
        assert got <= np.log2(3) - 1 + 1e-6
        assert got >= np.log2(3) - 1 - 2e-2

    def test_rejects_non_qubit(self):
        with pytest.raises(DimensionMismatchError):
            qubit_grid_oracle(completely_noisy_channel(3), 10)

    def test_rejects_bad_arity(self):
        with pytest.raises(InvariantViolation):
            qubit_grid_oracle(identity_channel(2), 10, ensemble_size=2, povm_arity=3)

    def test_envelope_against_optimizer(self):
        for seed in (80, 81):
            ch = random_channel(2, 2 + seed % 3, seed=seed)
            grid = qubit_grid_oracle(ch, 50)
            smart = shannon_capacity(ch, QUICK).value
            assert grid <= smart + 2e-3
            assert smart <= grid + 5e-2

    def test_deterministic(self):
        ch = random_channel(2, 3, seed=90)
        assert qubit_grid_oracle(ch, 14) == qubit_grid_oracle(ch, 14)


class TestMeasuredChannelEquivalence:
    def test_identity_projective(self):
        lhs, rhs = measured_channel_equivalence(identity_channel(2), basis_povm(2), QUICK)
        assert abs(lhs - 1.0) < 1e-3
        assert abs(rhs - 1.0) < 1e-3

    def test_completely_noisy(self):
        lhs, rhs = measured_channel_equivalence(completely_noisy_channel(2), trine_povm(), QUICK)
        assert lhs < 1e-6
        assert rhs < 1e-6

    def test_random_pairs_agree(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            ch = random_channel(2, int(rng.integers(1, 5)), seed=95 + seed)
            m = random_povm(2, 3, rng)
            lhs, rhs = measured_channel_equivalence(ch, m, QUICK)
            assert abs(lhs - rhs) < 2e-3


class TestFixedMeasurement:
    def test_identity_basis(self):
        res = fixed_measurement_capacity(identity_channel(2), basis_povm(2), QUICK)
        assert abs(res.value - 1.0) < 1e-3

    def test_without_channel(self):
        res = fixed_measurement_capacity(None, basis_povm(2), QUICK)
        assert abs(res.value - 1.0) < 1e-3

    def test_result_is_capacity_result(self):
        res = fixed_measurement_capacity(identity_channel(2), trine_povm(), QUICK)
        assert isinstance(res, CapacityResult)
        assert res.restarts_used == QUICK.restarts


class TestRestartsUsed:
    CFG = OptimizerConfig(restarts=3, max_iters=4, tol=1e-6, seed=11)

    def test_identity_stops_after_one_restart(self):
        # the first restart reaches the capacity ceiling of 1 bit
        for estimator in (holevo_capacity, measured_input_bound):
            res = estimator(identity_channel(2), self.CFG)
            assert abs(res.value - 1.0) < 1e-11
            assert res.restarts_used == 1

    def test_full_budget_without_early_stop(self):
        ch = depolarizing_channel(0.5)
        for estimator in (shannon_capacity, holevo_capacity, measured_input_bound):
            assert estimator(ch, self.CFG).restarts_used == self.CFG.restarts


def _chi_matrix_route(ch, weights, states):
    kr = np.stack(ch.kraus)
    outs = np.einsum("kai,jib,kcb->jac", kr, states, kr.conj())
    avg = np.einsum("j,jab->ab", weights, outs)
    return cap._entropy_stack(avg[None])[0] - weights @ cap._entropy_stack(outs)


class TestBlochObjectives:
    """The qubit Nelder-Mead objectives equal the matrix route at the same parameters."""

    N_STATES, N_OUT = 4, 4

    def degenerate_povm_params(self):
        x = np.random.default_rng(20).normal(size=n_povm_params(2, self.N_OUT))
        zero_first = x.copy()
        zero_first[0:8:2] = zero_first[8::2] = 0.0
        parallel = x.copy()
        parallel[1:8:2], parallel[9::2] = 2.0 * x[0:8:2], 2.0 * x[8::2]
        nearly_parallel = parallel + 1e-10 * np.random.default_rng(26).normal(size=x.size)
        zero_second = x.copy()
        zero_second[1:8:2] = zero_second[9::2] = 0.0
        return [np.zeros_like(x), zero_first, parallel, nearly_parallel, zero_second, 1e-140 * x, 1e140 * x]

    def degenerate_density_params(self):
        x = np.random.default_rng(21).normal(size=n_density_params(2))
        zero_first = x.copy()
        zero_first[[2, 4, 6, 8]] = 0.0  # first column of g
        tiny_g = x.copy()
        tiny_g[2:] = 1e-11  # ||g|| < 1e-9: the identity fallback
        pure = x.copy()
        pure[:2] = [0.0, -800.0]
        mixed = x.copy()
        mixed[:2] = 0.0
        pure_zero_first = zero_first.copy()
        pure_zero_first[:2] = [0.0, -800.0]
        tiny_first = x.copy()
        tiny_first[[2, 4, 6, 8]] *= 1e-155
        return [np.zeros_like(x), zero_first, tiny_g, pure, mixed, pure_zero_first, tiny_first]

    def cases(self, n_cases=12):
        rng = np.random.default_rng(22)
        for i in range(n_cases):
            ch = random_channel(2, 1 + i % 4, seed=300 + i)
            yield (
                ch,
                rng.dirichlet(np.ones(self.N_STATES)),
                rng.normal(scale=1.5, size=n_state_params(2, self.N_STATES)),
                rng.normal(size=n_povm_params(2, self.N_OUT)),
                rng.normal(size=n_density_params(2)),
            )

    def test_pauli_povm_matches_qr(self):
        rng = np.random.default_rng(23)
        for x in [rng.normal(size=n_povm_params(2, self.N_OUT)) for _ in range(20)] + self.degenerate_povm_params():
            w0, w = cap._povm_pauli_from_params(x, self.N_OUT)
            assert np.all(np.isfinite(w0)) and np.all(np.isfinite(w))
            rebuilt = w0[:, None, None] * np.eye(2) + np.einsum("bk,kij->bij", w, np.stack(cap.PAULI))
            np.testing.assert_allclose(rebuilt, povm_elements_from_params(x, 2, self.N_OUT), atol=1e-12)

    def test_density_bloch_matches_qr(self):
        rng = np.random.default_rng(24)
        for x in [rng.normal(size=n_density_params(2)) for _ in range(20)] + self.degenerate_density_params():
            lam, n = cap._density_bloch_from_params(x)
            assert np.all(np.isfinite(lam)) and np.all(np.isfinite(n))
            rebuilt = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", n, np.stack(cap.PAULI)))
            np.testing.assert_allclose(rebuilt, density_from_params(x, 2), atol=1e-12)

    def test_shannon_kernel(self):
        signals, kernel = cap._signal_route(2, self.N_STATES)
        for ch, w, xs, xm, _ in self.cases():
            pulled = cap._pulled_back_effects(ch, self.N_OUT)
            states = pure_states_from_params(xs, 2, self.N_STATES)
            for xm_ in [xm] + self.degenerate_povm_params():
                got = kernel(signals(xs), pulled(xm_))
                want = cap._kernel(states, cap._dual_effect_stack(ch, povm_elements_from_params(xm_, 2, self.N_OUT)))
                assert np.all(np.isfinite(got))
                np.testing.assert_allclose(got, want, atol=1e-12)
                assert abs(cap._mi_fixed_weights(w, got) - cap._mi_fixed_weights(w, want)) < 1e-12

    def test_holevo_chi(self):
        for ch, w, xs, _, _ in self.cases():
            got = cap._qubit_chi(w, cap._bloch_outputs_of(ch)(xs))
            want = _chi_matrix_route(ch, w, pure_states_from_params(xs, 2, self.N_STATES))
            assert np.isfinite(got)
            assert abs(got - want) < 1e-12

    def test_measured_input(self):
        for ch, _, _, xm, xr in self.cases():
            pulled = cap._pulled_back_effects(ch, self.N_OUT)
            for xm_ in [xm] + self.degenerate_povm_params():
                povm = Povm(tuple(povm_elements_from_params(xm_, 2, self.N_OUT)))
                for xr_ in [xr] + self.degenerate_density_params():
                    got = cap._measured_input_bloch(cap._density_bloch_from_params(xr_), pulled(xm_))
                    want = measured_input_information(ch, density_from_params(xr_, 2), povm)
                    assert np.isfinite(got)
                    assert abs(got - want) < 1e-12

    def test_measured_input_wider_output(self):
        # dim_in 2, dim_out 3: the pulled-back effects come from the matrix route
        rng = np.random.default_rng(25)
        for seed in range(4):
            ch = measured_channel(random_channel(2, 2, seed=310 + seed), trine_povm())
            assert (ch.dim_in, ch.dim_out) == (2, 3)
            xm = rng.normal(size=n_povm_params(3, 4))
            elements = povm_elements_from_params(xm, 3, 4)
            effects = cap._pulled_back_effects(ch, 4)(xm)
            for xr in [rng.normal(size=n_density_params(2))] + self.degenerate_density_params():
                got = cap._measured_input_bloch(cap._density_bloch_from_params(xr), effects)
                want = measured_input_information(ch, density_from_params(xr, 2), Povm(tuple(elements)))
                assert abs(got - want) < 1e-12

    def test_wider_output_estimate_reproduces_value(self):
        ch = measured_channel(random_channel(2, 2, seed=320), trine_povm())
        res = measured_input_bound(ch, QUICK)
        assert abs(measured_input_information(ch, res.argmax_rho, res.argmax_povm) - res.value) < 1e-12
