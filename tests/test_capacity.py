import tracemalloc

import numpy as np
import pytest

from chancap import adaptive
from chancap import capacity as cap
from chancap.capacity import (
    CapacityResult,
    OptimizerConfig,
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
    shannon_capacity,
)
from chancap.channels import (
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    basis_povm,
    bit_flip_channel,
    completely_noisy_channel,
    depolarizing_channel,
    identity_channel,
    measured_channel,
    phase_damping_channel,
    random_channel,
    trine_povm,
)
from chancap.errors import DimensionMismatchError, InvariantViolation
from chancap.information import (
    Ensemble,
    channel_mutual_information,
    holevo_information,
    measured_input_information,
    mutual_information,
)
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

    def test_binary_kernels_converge(self):
        # the grid's binary kernels, several with nearly equal rows, reach a 1e-12 gap
        *_, lo, hi = cap._two_point_kernels(random_channel(2, 2, seed=5001), 14)
        assert len(lo) > 20
        for l, h in zip(lo, hi):
            _, _, info = blahut_arimoto(_binary_kernel(l, h), tol=1e-12, max_iters=3000, full_output=True)
            assert info["gap"] < 1e-12
            assert info["iterations"] - 1 < 3000

    def test_nearly_duplicated_row_reaches_the_reference(self):
        # a nearly duplicated row, where a first-order loop stops 1e-6 short at this budget
        kernel = np.array([[0.9, 0.1], [0.1, 0.9], [0.1 + 1e-4, 0.9 - 1e-4], [0.5, 0.5]])
        value, weights, info = blahut_arimoto(kernel, tol=1e-10, max_iters=3000, full_output=True)
        ref = _reference_ba(kernel, tol=1e-15, max_iters=100000)
        assert info["gap"] < 1e-10
        assert value >= ref - 1e-15
        assert abs(value - cap._mi_and_grad(weights, kernel)[0]) <= 1e-14

    def test_gap_brackets_binary_closed_form(self):
        # the two solvers certify each other: lower <= C <= lower + gap
        rng = np.random.default_rng(3)
        for _ in range(100):
            kernel = rng.dirichlet(np.ones(2), size=2)
            lower, _, info = blahut_arimoto(kernel, tol=1e-9, max_iters=300, full_output=True)
            closed = float(cap._binary_capacity(kernel[:, 0].min(), kernel[:, 0].max())[0])
            assert info["gap"] >= 0.0
            assert lower <= closed + 1e-15  # rounding of the two evaluations
            assert closed <= lower + info["gap"] + 1e-12


def _binary_kernel(lo, hi):
    return np.array([[lo, 1.0 - lo], [hi, 1.0 - hi]])


def _reference_ba(kernel, tol, max_iters):
    """Plain multiplicative Blahut-Arimoto, the reference for the Newton solver.

    Returns the mutual information at its last weights, reached once the gap
    max_j D_j - that information falls below ``tol`` or after ``max_iters`` steps.
    """
    k = np.asarray(kernel, dtype=float)
    mask = k > 0.0
    logk = np.where(mask, np.log2(np.where(mask, k, 1.0)), 0.0)
    r = np.full(len(k), 1.0 / len(k))

    def divergences(weights):
        q = weights @ k
        return np.where(mask, k * (logk - np.log2(np.where(q > 0.0, q, 1.0))), 0.0).sum(axis=1)

    d = divergences(r)
    for _ in range(max_iters):
        if d.max() - r @ d < tol:
            break
        r = r * np.exp2(d - d.max())
        r = r / r.sum()
        d = divergences(r)
    return float(r @ d)


def _trine_kernels(ch, density):
    """The arity-3 kernels of ``qubit_grid_oracle``: grid states against rotated trines."""
    bloch_out = cap._bloch_of_outputs(ch, cap._grid_directions(density))
    kernels = []
    for ax1, ax2 in [(0, 1), (0, 2), (1, 2)]:
        for off in np.linspace(0.0, 2 * np.pi / 3, density, endpoint=False):
            dirs = np.zeros((3, 3))
            angles = off + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
            dirs[:, ax1], dirs[:, ax2] = np.cos(angles), np.sin(angles)
            kern = np.clip((1.0 + bloch_out @ dirs.T) / 3.0, 0.0, None)
            kernels.append(kern / kern.sum(axis=1, keepdims=True))
    return kernels


def _random_kernels(rng, count):
    """(kernel, warm start or None) pairs: 2-16 inputs x 2-16 outputs, with the hard cases mixed in."""
    cases = []
    for i in range(count):
        n, m = rng.integers(2, 17, size=2)
        k = rng.dirichlet(np.full(m, rng.choice([0.1, 0.5, 1.0, 5.0])), size=n)
        if i % 3 == 0:  # a nearly duplicated row
            k[1] = (1.0 - 1e-5) * k[0] + 1e-5 * rng.dirichlet(np.ones(m))
        if i % 5 == 0 and m > 2:  # an output no input reaches
            k[:, 0] = 0.0
        if i % 4 == 0:  # sparse rows: infinite divergences at warm starts
            k = np.where(k < 0.05, 0.0, k)
        k[:, -1] += k.sum(axis=1) == 0.0
        k = k / k.sum(axis=1, keepdims=True)
        warm = None
        if i % 2:
            warm = rng.dirichlet(np.ones(n))
            warm[rng.random(n) < 0.4] = 0.0
            warm[i % n] += 0.1
        cases.append((k, warm))
    return cases


class TestNewtonWeights:
    def test_mutual_information_matches_reference(self):
        rng = np.random.default_rng(20)
        cases = _random_kernels(rng, 500) + [(k, None) for k in _trine_kernels(identity_channel(2), 20)]
        most = 0
        for kernel, warm in cases:
            value, weights, info = blahut_arimoto(kernel, tol=1e-12, max_iters=3000, full_output=True, init_weights=warm)
            ref = _reference_ba(kernel, tol=1e-13, max_iters=300)
            assert value >= ref - 1e-13
            assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) < 1e-14
            assert info["gap"] < 1e-12
            assert abs(value - cap._mi_and_grad(weights, kernel)[0]) <= 1e-14
            most = max(most, info["iterations"] - 1)
        assert most <= 30

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_chi_identical_pure_outputs(self, dim):
        v = random_unitary(dim, np.random.default_rng(dim))[:, 0]
        chi, weights = max_holevo_weights(np.stack([np.outer(v, v.conj())] * 5), tol=1e-11, max_iters=3000)
        assert abs(chi) < 1e-14
        assert abs(weights.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_chi_of_commuting_outputs_is_classical(self, dim):
        # outputs diagonal in one basis: chi is the mutual information of their
        # eigenvalue kernel; at rank dim - 1 the average is rank-deficient
        rng = np.random.default_rng(30 + dim)
        for rank in (dim, dim - 1):
            for trial in range(10):
                n = int(rng.integers(2, 9))
                kernel = np.zeros((n, dim))
                kernel[:, :rank] = rng.dirichlet(np.full(rank, 0.7), size=n)
                if trial % 2:
                    kernel = np.where(kernel < 0.1, 0.0, kernel)
                    kernel[:, 0] += kernel.sum(axis=1) == 0.0
                    kernel = kernel / kernel.sum(axis=1, keepdims=True)
                u = random_unitary(dim, rng)
                outs = np.stack([(u * row) @ u.conj().T for row in kernel])
                warm = None
                if trial % 3 == 0:
                    warm = rng.dirichlet(np.ones(n))
                    warm[rng.random(n) < 0.5] = 0.0
                    warm[-1] += 0.1
                chi, weights = max_holevo_weights(outs, tol=1e-11, max_iters=3000, init_weights=warm)
                ref = _reference_ba(kernel, tol=1e-13, max_iters=300)
                assert chi >= ref - 1e-13
                assert abs(chi - blahut_arimoto(kernel, tol=1e-12, max_iters=3000)[0]) < 1e-11
                assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_chi_hessian_matches_gradient_differences(self, dim, monkeypatch):
        from chancap.rand import random_density_matrix

        solve = cap._simplex_newton
        seen = []

        def spy(fgh, *args):
            seen.append(fgh)
            return solve(fgh, *args)

        monkeypatch.setattr(cap, "_simplex_newton", spy)
        rng = np.random.default_rng(40 + dim)
        max_holevo_weights(np.stack([random_density_matrix(dim, rng) for _ in range(4)]))
        fgh = seen[0]
        p = rng.dirichlet(np.ones(4))
        _, grad, hess = fgh(p)
        step = 1e-6
        columns = [(fgh(p + step * e)[1] - fgh(p - step * e)[1]) / (2 * step) for e in np.eye(4)]
        np.testing.assert_allclose(np.stack(columns, axis=1), hess, atol=1e-7)
        for e in np.eye(4):
            slope = (fgh(p + step * (e - p))[0] - fgh(p - step * (e - p))[0]) / (2 * step)
            assert abs(slope - (e - p) @ grad) < 1e-7

    def test_dropped_signals_stay_alive(self):
        # the qutrit unitary channel of the qudit workload: with exact zero weights
        # handed to the blocks, the search froze at 1 bit
        budget = OptimizerConfig(restarts=2, max_iters=4, tol=1e-6, seed=17)
        assert shannon_capacity(random_channel(3, 1, seed=31 * 1_000_003), budget).value >= 1.5


# The weight solver as the reference for binary kernels.  The grid tests
# compare each channel's best kernels.
REF_BA = {"tol": 1e-12}


class TestBinaryCapacity:
    def test_matches_blahut_arimoto(self):
        rng = np.random.default_rng(7)
        lo, hi = np.sort(rng.random((2, 200)), axis=0)
        values, weights = cap._binary_capacity(lo, hi)
        assert values.shape == (200,) and weights.shape == (200, 2)
        assert np.all((weights >= 0.0) & (weights <= 1.0))
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-15)
        for v, w, l, h in zip(values, weights, lo, hi):
            ref, _ = blahut_arimoto(_binary_kernel(l, h), **REF_BA)
            assert v >= ref - 1e-12
            assert abs(v - ref) < 1e-9
            assert abs(v - cap._mi_and_grad(w, _binary_kernel(l, h))[0]) <= 1e-15

    def test_noiseless(self):
        value, weights = cap._binary_capacity(0.0, 1.0)
        assert abs(value - 1.0) < 1e-15
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-15)

    def test_z_channels(self):
        # a Z-channel with crossover 1/2 has capacity log2(5) - 2 at weight 2/5 on the noisy input
        value, weights = cap._binary_capacity(0.0, 0.5)
        assert abs(value - (np.log2(5.0) - 2.0)) < 1e-15
        np.testing.assert_allclose(weights, [0.6, 0.4], atol=1e-15)
        value, weights = cap._binary_capacity(0.5, 1.0)
        assert abs(value - (np.log2(5.0) - 2.0)) < 1e-15
        np.testing.assert_allclose(weights, [0.4, 0.6], atol=1e-15)
        rng = np.random.default_rng(8)
        for lo, hi in [(0.0, x) for x in rng.random(10)] + [(x, 1.0) for x in rng.random(10)]:
            value, _ = cap._binary_capacity(lo, hi)
            ref, _ = blahut_arimoto(_binary_kernel(lo, hi), **REF_BA)
            assert ref - 1e-12 <= value < ref + 1e-9

    def test_nearly_equal_rows(self):
        for lo in (0.0, 0.3, 0.5, 1.0 - 1e-6):
            for d in (1e-12, 1e-9):
                value, weights = cap._binary_capacity(lo, lo + d)
                assert np.isfinite(value) and value >= 0.0
                assert np.all((weights >= 0.0) & (weights <= 1.0))
                assert abs(value - cap._mi_and_grad(weights, _binary_kernel(lo, lo + d))[0]) <= 1e-15


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
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(InvariantViolation):
                OptimizerConfig(tol=tol)
        for field, cap_ in [("ensemble_size_cap", 1), ("povm_size_cap", 1), ("ensemble_size_cap", 257), ("povm_size_cap", 10**9)]:
            with pytest.raises(InvariantViolation):  # built without allocating anything of that size
                OptimizerConfig(**{field: cap_})
        assert OptimizerConfig(ensemble_size_cap=256, povm_size_cap=256).povm_size_cap == 256
        with pytest.raises(InvariantViolation):
            OptimizerConfig(restarts=0)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(max_iters=-1)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(seed=-1)
        assert OptimizerConfig(restarts=1, max_iters=0).max_iters == 0


def _pure_states_loop(x, dim, n):
    """``pure_states_from_params`` one state at a time, as it was computed before the stacks."""
    out = []
    for j in range(n):
        if dim == 2:
            theta, phi = x[2 * j], x[2 * j + 1]
            v = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
        else:
            chunk = x[2 * dim * j:2 * dim * (j + 1)]
            v = chunk[:dim] + 1j * chunk[dim:]
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                v, norm = np.eye(dim, dtype=complex)[0], 1.0
            v = v / norm
        out.append(np.outer(v, v.conj()))
    return np.stack(out)


class TestBlochFormat:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_states_equal_per_state_loop(self, dim):
        rng = np.random.default_rng(40 + dim)
        for k in range(60):
            n = 1 + k % 5
            x = rng.normal(scale=[1e-3, 1.5, 40.0][k % 3], size=n_state_params(dim, n))
            if k % 4 == 0:
                x[: n_state_params(dim, 1)] = 0.0  # a zero chunk: e_0 on a qudit, |0> on a qubit
            if k % 4 == 1 and dim > 2:
                x[-2 * dim:] *= 1e-13
            np.testing.assert_array_equal(pure_states_from_params(x, dim, n), _pure_states_loop(x, dim, n))

    def test_pauli_form_round_trip(self):
        m = random_povm(2, 3, np.random.default_rng(4))
        e0, e = cap._pauli_form(np.stack(m.elements))
        rebuilt = e0[:, None, None] * np.eye(2) + np.einsum("mk,kab->mab", e, np.stack(cap.PAULI))
        np.testing.assert_allclose(rebuilt, np.stack(m.elements), atol=1e-10)
        assert abs(e0.sum() - 1.0) < 1e-12 and np.linalg.norm(e.sum(axis=0)) < 1e-12  # completeness
        assert np.all(np.linalg.norm(e, axis=1) <= np.minimum(e0, 1.0 - e0) + 1e-12)  # 0 <= E <= I

    def test_bloch_state_stack_matches_vectors(self):
        bloch = np.random.default_rng(5).normal(size=(6, 3))
        bloch /= np.linalg.norm(bloch, axis=1, keepdims=True)
        states = cap._bloch_state(bloch)
        np.testing.assert_array_equal(states, np.stack([cap._bloch_state(n) for n in bloch]))
        e0, e = cap._pauli_form(states)
        np.testing.assert_allclose(e0, 0.5, atol=1e-15)
        np.testing.assert_allclose(2.0 * e, bloch, atol=1e-15)
        angles = np.array([cap._bloch_angles(n) for n in bloch]).ravel()
        np.testing.assert_allclose(cap._bloch_of_angles(angles)[0], bloch, atol=1e-15)


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
        got = qubit_grid_oracle(identity_channel(2), 20, povm_arity=3)
        assert got <= np.log2(3) - 1 + 1e-6
        assert got >= np.log2(3) - 1 - 2e-2

    def test_rejects_non_qubit(self):
        with pytest.raises(DimensionMismatchError):
            qubit_grid_oracle(completely_noisy_channel(3), 10)

    def test_rejects_bad_arity(self):
        with pytest.raises(InvariantViolation):
            qubit_grid_oracle(identity_channel(2), 10, povm_arity=4)

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

    def test_matches_blahut_arimoto_loop(self):
        for ch in TWO_POINT_CHANNELS:
            ref = max((row[0] for row in _ba_two_point_loop(ch, 14)), default=0.0)
            assert abs(qubit_grid_oracle(ch, 14) - ref) < 1e-9

    def test_coarse_scan_picks_blahut_arimoto_argmax(self):
        checked = 0
        for ch in TWO_POINT_CHANNELS:
            rows = sorted(_ba_two_point_loop(ch, 10), key=lambda row: row[0], reverse=True)
            if not rows or (len(rows) > 1 and rows[0][0] - rows[1][0] <= 1e-9):
                continue
            value, b_lo, b_hi, _, n = cap._coarse_qubit_scan(ch)
            assert abs(value - rows[0][0]) < 1e-9
            for got, want in zip((b_lo, b_hi, n), rows[0][1:]):
                np.testing.assert_array_equal(got, want)
            checked += 1
        assert checked >= 15


TWO_POINT_CHANNELS = [
    identity_channel(2),
    completely_noisy_channel(2),
    depolarizing_channel(0.3),
    bit_flip_channel(0.1),
    amplitude_damping_channel(0.5),
    phase_damping_channel(0.4),
] + [random_channel(2, 1 + i % 4, seed=5000 + i) for i in range(12)]


def _ba_two_point_loop(ch, density):
    """Per-direction Blahut-Arimoto over the extreme-pair kernels, the loop the closed form replaced.

    Returns (capacity, bloch_lo, bloch_hi, direction) for each measurement
    direction whose outcome probabilities are not all equal.
    """
    grid = cap._grid_directions(density)
    meas = grid[grid[:, 2] > 1e-12]
    meas = np.vstack([meas, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    p = np.clip(0.5 * (1.0 + cap._bloch_of_outputs(ch, grid) @ meas.T), 0.0, 1.0)
    rows = []
    for col in range(meas.shape[0]):
        jlo, jhi = int(np.argmin(p[:, col])), int(np.argmax(p[:, col]))
        lo, hi = float(p[jlo, col]), float(p[jhi, col])
        if hi - lo >= 1e-12:
            c, _ = blahut_arimoto(_binary_kernel(lo, hi), **REF_BA)
            rows.append((c, grid[jlo], grid[jhi], meas[col]))
    return rows


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

    def test_result_is_capacity_result(self):
        res = fixed_measurement_capacity(identity_channel(2), trine_povm(), QUICK)
        assert isinstance(res, CapacityResult)
        assert res.restarts_used == QUICK.restarts


class TestRestartsUsed:
    CFG = OptimizerConfig(restarts=3, max_iters=4, tol=1e-6, seed=11)

    def test_identity_stops_after_one_restart(self):
        # the first restart reaches the capacity ceiling of 1 bit
        estimators = (
            holevo_capacity,
            measured_input_bound,
            shannon_capacity,
            lambda ch, cfg: fixed_measurement_capacity(ch, basis_povm(2), cfg),
        )
        for estimator in estimators:
            res = estimator(identity_channel(2), self.CFG)
            assert abs(res.value - 1.0) < 1e-11
            assert res.restarts_used == 1

    def test_full_budget_without_early_stop(self):
        ch = depolarizing_channel(0.5)
        for estimator in (shannon_capacity, holevo_capacity, measured_input_bound):
            assert estimator(ch, self.CFG).restarts_used == self.CFG.restarts


class TestConverged:
    def test_no_sweeps_is_not_converged(self):
        # with no alternation sweep the tolerance test never runs
        cfg = OptimizerConfig(restarts=2, max_iters=0, tol=1e-6, seed=11)
        ch = random_channel(2, 2, seed=41)
        shannon = shannon_capacity(ch, cfg)
        holevo = holevo_capacity(ch, cfg)
        uep = measured_input_bound(ch, cfg)
        fixed = fixed_measurement_capacity(ch, trine_povm(), cfg)
        for res in (shannon, holevo, uep, fixed):
            assert res.converged is False
        assert shannon.value == channel_mutual_information(ch, shannon.argmax_ensemble, shannon.argmax_povm)
        assert holevo.value == holevo_information(ch, holevo.argmax_ensemble)
        assert uep.value == measured_input_information(ch, uep.argmax_rho, uep.argmax_povm)
        assert fixed.value == channel_mutual_information(ch, fixed.argmax_ensemble, fixed.argmax_povm)

    def test_flat_objective_converges(self):
        # every sweep on the completely noisy channel gains nothing
        ch = completely_noisy_channel(2)
        for estimator in (shannon_capacity, holevo_capacity, measured_input_bound):
            assert estimator(ch, QUICK).converged is True
        assert fixed_measurement_capacity(ch, basis_povm(2), QUICK).converged is True


class TestSearch:
    """``_search``, the estimators' restart loop, on a toy concave problem: -|x - 1|^2 in two blocks."""

    @staticmethod
    def problem(starts, log):
        """(value, blocks, start) of the toy problem; ``log`` records the starts, the weights each
        value call takes and returns (a fresh pair per call), and the weights each block takes."""
        def value(x, w):
            out = np.array([0.0, len(log) + 1.0])
            log.append(("value", w, out))
            return -float(np.sum((x - 1.0) ** 2)), out

        def make(part):
            def block(x, w):
                log.append(("block", w))
                return lambda v: (-float(np.sum((v - 1.0) ** 2)), -2.0 * (v - 1.0))

            return part, block

        def start(restart, rng, draw):
            log.append(("start", restart))
            return draw(np.array([1.0, 2.0, 3.0, 4.0]), n_draws=3) if starts[restart] is None else starts[restart]

        return value, [make(slice(2)), make(slice(2, None))], start

    def test_weights_never_leak_between_restarts(self):
        log = []
        value, blocks, start = self.problem([None, np.zeros(4), None], log)
        cfg = OptimizerConfig(restarts=3, max_iters=2, tol=1e-9, seed=5)
        cap._search(cfg, value, blocks, start, lambda x, v, conv, w: (v, x))
        assert [event[1] for event in log if event[0] == "start"] == [0, 1, 2]
        last = None  # the weights of the restart's last value call: draws and sweeps both count
        for i, event in enumerate(log):
            if event[0] == "start":
                assert log[i + 1][:2] == ("value", None)
                last = None
            elif event[0] == "value":
                assert event[1] is last
                last = event[2]
            else:  # the blocks take them floored and renormalised
                np.testing.assert_array_equal(event[1], cap._block_weights(last))
                assert event[1][0] > 0.0

    def test_ceiling_stops_restarts(self):
        log = []
        value, blocks, start = self.problem([np.zeros(4), np.ones(4), np.zeros(4), np.zeros(4)], log)
        cfg = OptimizerConfig(restarts=4, max_iters=0, tol=1e-9, seed=5)
        result, runs = cap._search(cfg, value, blocks, start, lambda x, v, conv, w: (v, (x, conv)), ceiling=0.0)
        assert runs == 2 and [event[1] for event in log if event[0] == "start"] == [0, 1]
        np.testing.assert_array_equal(result[0], np.ones(4))
        assert result[1] is False  # no sweep: the tolerance test never ran
        _, runs = cap._search(cfg, value, blocks, start, lambda x, v, conv, w: (v, x), ceiling=1.0)
        assert runs == 4

    def test_best_rank_wins(self):
        value, blocks, start = self.problem([np.zeros(4)] * 5, [])
        cfg = OptimizerConfig(restarts=5, max_iters=3, tol=1e-9, seed=5)
        ranks = iter([0.5, 2.0, -1.0, 2.0, 1.0])
        results = iter(range(5))
        best, runs = cap._search(cfg, value, blocks, start, lambda x, v, conv, w: (next(ranks), (next(results), conv)))
        assert best == (1, True) and runs == 5  # the first of the equal best ranks, and converged sweeps

    # Without inner weights (``value=None``) a restart is its one block's L-BFGS solve.

    SCALES = np.array([1.0, 2.0, 3.0, 4.0])  # -sum_i c_i (x_i - 1)^2: at 8 evaluations a solve from 0 stops at the cap

    @classmethod
    def weightless(cls, monkeypatch, starts, log):
        """(blocks, start) of one block over all parameters; ``log`` records each ``_maximize`` call
        with what it returned, and each objective call, marked by whether a solve is running."""
        maximize, solving = cap._maximize, []

        def spy(fun, x0, maxfev):
            solving.append(True)
            out = maximize(fun, x0, maxfev)
            solving.pop()
            log.append(("solve", out))
            return out

        def objective(v):
            log.append(("eval", bool(solving)))
            return -float(cls.SCALES @ (v - 1.0) ** 2), -2.0 * cls.SCALES * (v - 1.0)

        monkeypatch.setattr(cap, "_maximize", spy)
        return [(slice(None), lambda x, w: objective)], lambda restart, rng, draw: starts[restart]

    def test_weightless_restart_is_one_solve(self, monkeypatch):
        log = []
        blocks, start = self.weightless(monkeypatch, [np.zeros(4), np.full(4, 3.0)], log)
        cfg = OptimizerConfig(restarts=2, max_iters=4, tol=1e-9, seed=5)
        cap._search(cfg, None, blocks, start, lambda x, v, conv, w: (v, x))
        solves = [event[1] for event in log if event[0] == "solve"]
        assert len(solves) == 2 and all(stopped for *_, stopped in solves)
        assert all(inside for kind, inside in log if kind == "eval")  # no evaluation outside the solves

    def test_weightless_value_is_the_solves(self, monkeypatch):
        log, finished = [], []
        blocks, start = self.weightless(monkeypatch, [np.zeros(4), np.full(4, 3.0)], log)
        cfg = OptimizerConfig(restarts=2, max_iters=4, tol=1e-9, seed=5)

        def finish(x, value, converged, weights):
            finished.append((x, value, converged, weights))
            return value, x

        cap._search(cfg, None, blocks, start, finish)
        solves = [event[1] for event in log if event[0] == "solve"]
        for (x, value, _), (x_end, rank, converged, weights) in zip(solves, finished, strict=True):
            np.testing.assert_array_equal(x_end, x)
            assert rank == value and converged is True and weights is None

    def test_weightless_capped_solve_is_repeated(self, monkeypatch):
        for max_iters, n_solves, converged in ((1, 1, False), (4, 2, True)):
            log = []
            blocks, start = self.weightless(monkeypatch, [np.zeros(4)], log)
            cfg = OptimizerConfig(restarts=1, max_iters=max_iters, tol=1e-9, seed=5)
            result, _ = cap._search(cfg, None, blocks, start, lambda x, v, conv, w: (v, (v, conv)), maxfev_per_param=2)
            solves = [event[1] for event in log if event[0] == "solve"]
            assert [stopped for *_, stopped in solves] == [False] * (n_solves - 1) + [converged]
            assert result == (solves[-1][1], converged)
            monkeypatch.undo()

    def test_weightless_without_solves_evaluates_start(self, monkeypatch):
        log = []
        blocks, start = self.weightless(monkeypatch, [np.zeros(4)], log)
        cfg = OptimizerConfig(restarts=1, max_iters=0, tol=1e-9, seed=5)
        result, _ = cap._search(cfg, None, blocks, start, lambda x, v, conv, w: (v, (x, v, conv)))
        assert log == [("eval", False)]
        np.testing.assert_array_equal(result[0], np.zeros(4))
        assert result[1:] == (-float(self.SCALES.sum()), False)

    def test_weightless_draws_score_with_block_objective(self, monkeypatch):
        log = []
        blocks, _ = self.weightless(monkeypatch, [], log)
        cfg = OptimizerConfig(restarts=1, max_iters=0, tol=1e-9, seed=5)
        drawn = []

        def start(restart, rng, draw):
            drawn.append(draw(np.ones(4), n_draws=5))
            return drawn[-1]

        result, _ = cap._search(cfg, None, blocks, start, lambda x, v, conv, w: (v, x))
        candidates = np.random.default_rng([5, 0]).normal(size=(5, 4))
        best = max(candidates, key=lambda v: -float(self.SCALES @ (v - 1.0) ** 2))
        np.testing.assert_array_equal(drawn[0], best)
        np.testing.assert_array_equal(result, best)
        assert log == [("eval", False)] * 6  # five draws, then the start's value


def _spied(monkeypatch, module, name):
    """Every call (args, kwargs, result) of ``module.name``, in order, and the original function."""
    log, solve = [], getattr(module, name)

    def spy(*args, **kwargs):
        out = solve(*args, **kwargs)
        log.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return log, solve


def _rosenbrock(v):
    x, y = v
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2, np.array([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)])


class TestMinimize:
    """``capacity.minimize``, the L-BFGS solver behind every block solve, on problems with known answers."""

    @staticmethod
    def counted(fun):
        """``fun`` and the list of points it is called at."""
        calls = []

        def wrapped(v):
            calls.append(np.array(v))
            return fun(v)

        return wrapped, calls

    # The solver keeps L-BFGS-B's stops, and the relative-reduction stop
    # (1e-12 of max(|f|, 1)) ends most solves before the slope test (1e-9)
    # fires.  What a solve guarantees is therefore a value within about 1e-12
    # of a minimum; the slope left there depends on the last iterates (up to
    # about 1e-5 on the problems below, and at most 1e-9 on a third of them).

    @pytest.mark.parametrize("seed", range(3))
    def test_random_problems_reach_the_minimum(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(2, 11):  # a random positive definite quadratic with its minimum 0 at a random point
            m = rng.normal(size=(n, n))
            a, centre = m @ m.T / n + 0.1 * np.eye(n), rng.normal(size=n)
            x, f, status = cap.minimize(lambda v: (0.5 * (v - centre) @ a @ (v - centre), a @ (v - centre)), rng.normal(size=n), 2000)
            assert status == 0 and f <= 1e-11
            np.testing.assert_allclose(x, centre, atol=1e-5)
        for _ in range(10):  # Rosenbrock from random starts
            x, f, status = cap.minimize(_rosenbrock, rng.normal(scale=1.5, size=2), 2000)
            assert status == 0 and f == _rosenbrock(x)[0] <= 1e-11
            np.testing.assert_allclose(x, 1.0, atol=1e-5)

    def test_rosenbrock_from_the_usual_start(self):
        fun, calls = self.counted(_rosenbrock)
        x, f, status = cap.minimize(fun, np.array([-1.2, 1.0]), 200)
        assert status == 0 and len(calls) <= 60 and f <= 1e-11
        np.testing.assert_allclose(x, 1.0, atol=1e-5)

    def test_joint_block_of_thousands_of_parameters(self):
        # caps of 256 on a 4 -> 4 channel: one Shannon block of 2*4*256 signal and 2*256*4 POVM
        # parameters; the solver keeps O(n) numbers per memory pair, where an n x n matrix would be 134 MB
        cfg = OptimizerConfig(restarts=1, max_iters=1, tol=1e-6, seed=0, ensemble_size_cap=256, povm_size_cap=256)
        ch = random_channel(4, 2, seed=1)
        assert n_state_params(4, 256) + n_povm_params(4, 256) == 4096
        tracemalloc.start()
        try:
            result = shannon_capacity(ch, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert 0.0 < result.value <= 2.0 and len(result.argmax_ensemble.states) == len(result.argmax_povm) == 256

    def test_cap_is_never_exceeded(self):
        full, calls = self.counted(_rosenbrock)
        x_full, _, status = cap.minimize(full, np.array([-1.2, 1.0]), 1000)
        n_full = len(calls)
        assert status == 0
        for maxfev in range(1, n_full + 3):
            fun, calls = self.counted(_rosenbrock)
            x, f, status = cap.minimize(fun, np.array([-1.2, 1.0]), maxfev)
            assert len(calls) <= maxfev
            assert status == (1 if maxfev < n_full else 0)  # the cap ended the solve exactly when it was below the need
            assert len(calls) == (maxfev if status == 1 else n_full)
            assert f == _rosenbrock(x)[0]  # the returned point was evaluated
            if status == 0:
                np.testing.assert_array_equal(x, x_full)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_trial_backtracks(self, bad):
        # the first step (length 1 from 0) lands where the value is not finite
        def fun(v):
            return (float(np.sum((v - 0.4) ** 2)) if np.all(v <= 0.5) else bad), 2.0 * (v - 0.4)

        fun, calls = self.counted(fun)
        x, f, status = cap.minimize(fun, np.zeros(2), 100)
        assert np.all(calls[1] > 0.5)  # the non-finite trial was made
        assert status == 0 and np.isfinite(f) and np.all(np.isfinite(x))
        np.testing.assert_allclose(x, 0.4, atol=1e-9)

    def test_stationary_start_returns_after_one_evaluation(self):
        fun, calls = self.counted(lambda v: (float(np.sum(np.cos(v))), -np.sin(v)))
        x0 = np.zeros(3)
        x, f, status = cap.minimize(fun, x0, 100)
        assert len(calls) == 1 and status == 0 and f == 3.0
        np.testing.assert_array_equal(x, x0)


class TestWarmFinalSolves:
    """Each restart's final exact weight solve starts from the weights of its last sweep value."""

    FINAL = {  # estimator -> (weight solver, tolerance of its final solve)
        "shannon": ("blahut_arimoto", 1e-10),
        "fixed": ("blahut_arimoto", 1e-10),
        "holevo": ("max_holevo_weights", 1e-11),
    }

    @staticmethod
    def estimate(estimator, ch):
        if estimator == "shannon":
            return shannon_capacity(ch, QUICK)
        if estimator == "holevo":
            return holevo_capacity(ch, QUICK)
        return fixed_measurement_capacity(ch, basis_povm(ch.dim_out), QUICK)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2)])
    @pytest.mark.parametrize("estimator", ["shannon", "fixed", "holevo"])
    def test_final_solve_starts_warm(self, monkeypatch, estimator, dims):
        ch = _qubit_output_channel(3, 451) if dims == (3, 2) else _channel_of(dims, 451)
        assert (ch.dim_in, ch.dim_out) == dims
        solver, tol = self.FINAL[estimator]
        log, cold = _spied(monkeypatch, cap, solver)
        result = self.estimate(estimator, ch)
        monkeypatch.undo()
        finals = [i for i, (_, kwargs, _) in enumerate(log) if kwargs["tol"] == tol]
        assert len(finals) == result.restarts_used
        for i in finals:
            (operand,), kwargs, (value, _) = log[i]
            assert log[i - 1][1]["tol"] != tol and kwargs["init_weights"] is log[i - 1][2][1]
            assert abs(value - cold(operand, tol=tol, max_iters=3000)[0]) < 1e-12

    def test_adaptive_final_solve_stays_cold(self, monkeypatch):
        log, _ = _spied(monkeypatch, adaptive, "blahut_arimoto")
        adaptive.best_conditional_information([random_channel(2, 2, seed=452)] * 2, QUICK)
        monkeypatch.undo()
        assert any(kwargs["tol"] == 1e-10 for _, kwargs, _ in log)
        assert all(kwargs.get("init_weights") is None for _, kwargs, _ in log)


MATRIX_DIMS = [(2, 2), (3, 3), (4, 4), (2, 3)]


def _channel_of(dims, seed, rank=2):
    """A random channel with these (input, output) dimensions: a qubit channel read by a trine for 2->3."""
    if dims == (2, 3):
        return measured_channel(random_channel(2, rank, seed=seed), trine_povm())
    return random_channel(dims[0], rank, seed=seed)


def _blocks(dims, n_states=4, n_out=4, n_cases=4, seed=22):
    """(channel, weights, signal, POVM and input parameters) at random points of one dimension pair."""
    din, dout = dims
    n_out = max(n_out, dout)
    rng = np.random.default_rng([seed, din, dout])
    for i in range(n_cases):
        yield (
            _channel_of(dims, 300 + i, rank=1 + i % 3),
            rng.dirichlet(np.ones(n_states)),
            rng.normal(scale=1.5, size=n_state_params(din, n_states)),
            rng.normal(size=n_povm_params(dout, n_out)),
            rng.normal(size=n_density_params(din)),
        )


def _pure_input_params(xr, dim):
    """``xr`` with every column of the input factor but the first set to 0: a pure input."""
    a = (xr[: dim * dim] + 1j * xr[dim * dim:]).reshape(dim, dim)
    a[:, 1:] = 0.0
    return cap._complex_params(a)


class TestBlochObjectives:
    """Each block objective's value equals ``chancap.information`` at the same feasible point.

    The blocks share one matrix route at every dimension; qubit signals keep
    their Bloch angles.
    """

    @staticmethod
    def ensemble(w, xs, dim):
        return Ensemble(w, tuple(pure_states_from_params(xs, dim, len(w))))

    @staticmethod
    def povm(xm, dim):
        return Povm(tuple(povm_elements_from_params(xm, dim, len(xm) // (2 * dim))))

    def test_shannon_kernel(self):
        for dims in MATRIX_DIMS:
            for ch, w, xs, xm, _ in _blocks(dims):
                want = channel_mutual_information(ch, self.ensemble(w, xs, dims[0]), self.povm(xm, dims[1]))
                n_out = len(xm) // (2 * dims[1])
                joint = cap._shannon_objective(cap._dual_matrix(ch), w, dims, len(w), n_out)
                effects = np.stack(self.povm(xm, dims[1]).elements).reshape(n_out, -1) @ cap._dual_matrix(ch)
                signals = cap._signal_information(w, effects, dims[0], len(w))
                assert abs(joint(np.concatenate([xs, xm]))[0] - want) < 1e-12
                assert abs(signals(xs)[0] - want) < 1e-12

    def test_holevo_chi(self):
        # rank-1 channels, the identity among them, give pure outputs; the
        # completely noisy channel gives the maximally mixed one
        for dims in MATRIX_DIMS:
            cases = [(ch, w, xs) for ch, w, xs, _, _ in _blocks(dims)]
            if dims[0] == dims[1]:
                d = dims[0]
                cases += [(identity_channel(d), *cases[0][1:]), (completely_noisy_channel(d), *cases[1][1:])]
            for ch, w, xs in cases:
                got = cap._holevo_objective(cap._dual_matrix(ch), w, dims, len(w))(xs)[0]
                assert abs(got - holevo_information(ch, self.ensemble(w, xs, dims[0]))) < 1e-12

    def test_measured_input(self):
        for dims in MATRIX_DIMS:
            for ch, _, _, xm, xr in _blocks(dims):
                n_out = len(xm) // (2 * dims[1])
                objective = cap._measured_input_objective(cap._dual_matrix(ch), dims, n_out)
                for xr_ in (xr, _pure_input_params(xr, dims[0]), np.zeros_like(xr)):  # full rank, pure, fallback
                    want = measured_input_information(ch, density_from_params(xr_, dims[0]), self.povm(xm, dims[1]))
                    assert abs(objective(np.concatenate([xr_, xm]))[0] - want) < 1e-12

    @pytest.mark.parametrize("depth, din", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
    def test_strategy_block(self, depth, din):
        # both adaptive blocks against the flattened, validated strategy
        channels = [_qubit_output_channel(din, 400 + k) for k in range(depth)]
        dim, ops = din ** depth, adaptive._stage_operators(channels)
        rng = np.random.default_rng(depth)
        for _ in range(4):
            w, xs = rng.dirichlet(np.ones(4)), rng.normal(size=n_state_params(dim, 4))
            xm = rng.normal(scale=3.0, size=adaptive._strategy_param_count(depth))
            flat = adaptive.flatten(adaptive.dual_conditional(channels, adaptive._strategy_from_params(xm, depth)))
            want = mutual_information(self.ensemble(w, xs, dim), flat)
            effects = adaptive._stage_effects(cap._bloch_of_angles(xm)[0], ops)
            assert abs(_strategy_objective(channels, w, xs)(xm)[0] - want) < 1e-12
            assert abs(cap._signal_information(w, effects, dim, 4)(xs)[0] - want) < 1e-12

    def test_wider_output_estimate_reproduces_value(self):
        ch = measured_channel(random_channel(2, 2, seed=320), trine_povm())
        res = measured_input_bound(ch, QUICK)
        assert abs(measured_input_information(ch, res.argmax_rho, res.argmax_povm) - res.value) < 1e-12


def _qubit_output_channel(din, seed):
    """A random din -> 2 channel: an isometry into C^2 x C^din sliced into Kraus blocks."""
    if din == 2:
        return random_channel(2, 2, seed=seed)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2 * din, din)) + 1j * rng.normal(size=(2 * din, din)))
    return QuantumChannel(tuple(q[2 * k: 2 * k + 2] for k in range(din)))


def _strategy_objective(channels, weights, xs):
    """The strategy block of ``best_conditional_information`` at these weights and signals."""
    dim = int(np.prod([c.dim_in for c in channels]))
    states = pure_states_from_params(xs, dim, len(weights))
    return adaptive._strategy_information(weights, adaptive._pauli_moments(states, adaptive._stage_operators(channels)))


def _block_solves(monkeypatch, estimator, ch, cfg=OptimizerConfig(restarts=1, max_iters=1)):
    """Every ``_maximize`` call (objective, start, budget) the estimator makes on ``ch``, in order,
    with a None for each sweep value taken between them."""
    log, maximize, ascent = [], cap._maximize, cap._block_ascent

    def recording(fun, x0, maxfev):
        log.append((fun, np.array(x0), maxfev))
        return maximize(fun, x0, maxfev)

    def logged_ascent(blocks, sweep_value, *rest, **options):
        def value(*parts):
            log.append(None)
            return sweep_value(*parts)

        return ascent(blocks, None if sweep_value is None else value, *rest, **options)

    monkeypatch.setattr(cap, "_maximize", recording)
    monkeypatch.setattr(cap, "_block_ascent", logged_ascent)
    estimator(ch, cfg)
    monkeypatch.undo()
    return log


def _central_difference(f, x, h=1e-6):
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in h * np.eye(len(x))])


class TestBlochGradients:
    """The gradients of the block objectives against central differences of their values."""

    @staticmethod
    def assert_gradient(objective, x):
        grad = objective(x)[1]
        want = _central_difference(lambda v: objective(v)[0], x)
        assert grad.shape == x.shape and np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, want, rtol=0.0, atol=1e-7 * max(1.0, np.abs(want).max()))

    def test_mi_signals(self):
        for dims in MATRIX_DIMS:
            for ch, w, xs, xm, _ in _blocks(dims):
                n_out = len(xm) // (2 * dims[1])
                effects = povm_elements_from_params(xm, dims[1], n_out).reshape(n_out, -1) @ cap._dual_matrix(ch)
                self.assert_gradient(cap._signal_information(w, effects, dims[0], len(w)), xs)

    def test_mi_povm(self):
        for dims in MATRIX_DIMS:
            for ch, w, xs, xm, _ in _blocks(dims):
                joint = cap._shannon_objective(cap._dual_matrix(ch), w, dims, len(w), len(xm) // (2 * dims[1]))

                def objective(v):
                    value, grad = joint(np.concatenate([xs, v]))
                    return value, grad[len(xs):]

                self.assert_gradient(objective, xm)

    def test_mi_joint(self, monkeypatch):
        # the one block shannon_capacity solves per sweep: signals, then POVM
        for dims in MATRIX_DIMS:
            for ch, _, xs, xm, _ in _blocks(dims, n_cases=2):
                objective, x0, _ = next(filter(None, _block_solves(monkeypatch, shannon_capacity, ch)))
                self.assert_gradient(objective, x0)
                self.assert_gradient(objective, np.concatenate([xs, xm]))

    def test_chi(self):
        for dims in MATRIX_DIMS:
            for ch, w, xs, _, _ in _blocks(dims):
                self.assert_gradient(cap._holevo_objective(cap._dual_matrix(ch), w, dims, len(w)), xs)

    def test_measured_input(self):
        for dims in MATRIX_DIMS:
            for ch, _, _, xm, xr in _blocks(dims):
                objective = cap._measured_input_objective(cap._dual_matrix(ch), dims, len(xm) // (2 * dims[1]))
                for xr_ in (xr, _pure_input_params(xr, dims[0])):  # full rank, then pure
                    self.assert_gradient(objective, np.concatenate([xr_, xm]))

    @pytest.mark.parametrize("depth, din", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
    def test_strategy_block(self, depth, din):
        channels = [_qubit_output_channel(din, 410 + k) for k in range(depth)]
        rng = np.random.default_rng(10 + depth)
        for _ in range(3):
            w, xs = rng.dirichlet(np.ones(4)), rng.normal(size=n_state_params(din ** depth, 4))
            xm = rng.normal(scale=3.0, size=adaptive._strategy_param_count(depth))
            self.assert_gradient(_strategy_objective(channels, w, xs), xm)

    def test_entropy_slope(self):
        # dS/dlam = -slope for kept eigenvalues; dropped ones (<= EIG_CLIP) count 0
        lam = np.array([0.7, 0.2, 1e-3, 0.5e-12, 0.0])
        want = _central_difference(cap._eig_entropy, lam[:3], h=1e-7)
        np.testing.assert_allclose(-cap._eig_entropy_and_slope(lam[:3])[1], want, rtol=1e-7)
        np.testing.assert_array_equal(cap._eig_entropy_and_slope(lam)[1][3:], 0.0)

    def test_mi_kernel_gradient(self):
        rng = np.random.default_rng(29)
        kernel = rng.dirichlet(np.ones(3), size=4)
        kernel[1, 2] = 0.0  # a clipped entry: its gradient is taken as 0
        w = rng.dirichlet(np.ones(4))
        grad = cap._mi_and_grad(w, kernel)[1]
        assert grad[1, 2] == 0.0
        flat = _central_difference(lambda v: cap._mi_and_grad(w, v.reshape(4, 3))[0], kernel.ravel())
        kept = kernel.ravel() > 0.0
        np.testing.assert_allclose(grad.ravel()[kept], flat[kept], atol=1e-8)

    def test_degenerate_parameters_pull_back_zeros(self):
        # the fallbacks report no slope, so the BFGS solve stops there, and stay feasible
        rng = np.random.default_rng(30)
        for dim, n_out in ((2, 4), (3, 4), (4, 5)):
            x = rng.normal(size=n_povm_params(dim, n_out))
            g = (x[: n_out * dim] + 1j * x[n_out * dim:]).reshape(n_out, dim)
            g[:, -1] = 2.0 * g[:, 0]  # dependent columns: G^dag G is singular
            g_scaled = g.copy()
            g_scaled[:, -1] *= 1e-13
            for singular in (np.zeros_like(g), g, g_scaled, np.full_like(g, np.inf)):
                xs = cap._complex_params(singular)
                rows, pull_back = cap._polar_rows(xs, dim, n_out)
                np.testing.assert_allclose(rows.conj().T @ rows, np.eye(dim), atol=1e-12)
                Povm(tuple(povm_elements_from_params(xs, dim, n_out)))  # complete
                np.testing.assert_array_equal(pull_back(rng.normal(size=(n_out, dim))), np.zeros_like(x))
            # an all-zero input factor is the maximally mixed state, a zero chunk the state e_0
            a, a_back = cap._density_factor(np.zeros(n_density_params(dim)), dim)
            np.testing.assert_allclose(a @ a.conj().T, np.eye(dim) / dim, atol=1e-15)
            np.testing.assert_array_equal(a_back(rng.normal(size=(dim, dim))), 0.0)
            if dim > 2:
                xs = rng.normal(size=n_state_params(dim, 2))
                xs[: 2 * dim] = 0.0
                vecs, back = cap._signal_vectors(xs, dim, 2)
                np.testing.assert_array_equal(vecs[0], np.eye(dim)[0])
                assert np.all(back(rng.normal(size=(2, dim)))[: 2 * dim] == 0.0)

    JOINT_BLOCKS = [
        (shannon_capacity, (2, 2), 8 + 16),
        (measured_input_bound, (2, 2), 8 + 16),
        (shannon_capacity, (3, 3), 24 + 24),
        (measured_input_bound, (3, 3), 18 + 24),
        (shannon_capacity, (2, 3), 8 + 24),
        (measured_input_bound, (2, 3), 8 + 24),
    ]

    @pytest.mark.parametrize(
        "estimator, dims, n_params", JOINT_BLOCKS, ids=[f"{e.__name__}-{n}" for e, _, n in JOINT_BLOCKS]
    )
    def test_one_joint_solve_per_sweep(self, monkeypatch, estimator, dims, n_params):
        # every sweep is one BFGS solve over all the parameters at the usual
        # budget, on an objective that returns its gradient: no split blocks,
        # and no call after the last sweep; the measured-input search has no
        # weights, so each of its restarts is one solve and takes no sweep value
        ch = _channel_of(dims, 361, rank=3)
        assert (ch.dim_in, ch.dim_out) == dims
        log = _block_solves(monkeypatch, estimator, ch, QUICK)
        kinds = "".join("v" if event is None else "s" for event in log)
        if estimator is measured_input_bound:
            assert kinds == "s" * QUICK.restarts
        else:
            assert "s" in kinds and "ss" not in kinds and kinds[0] == kinds[-1] == "v"  # sweep values around solves
        solves = list(filter(None, log))
        assert {(len(x0), maxfev) for _, x0, maxfev in solves} == {(n_params, 60 * n_params)}
        for objective, x0, _ in solves:
            value, grad = objective(x0)
            assert np.isfinite(value) and grad.shape == x0.shape and np.all(np.isfinite(grad))

    def test_maximize_keeps_start_on_non_finite_result(self):
        # a slope of 1e308 overflows the descent test, so the solve takes no step
        x0 = np.array([1.0 - 1e-9, -0.2])

        def overflowing(v):
            return (-float(v @ v) if np.all(np.abs(v) < 1.0) else -np.inf), np.full_like(v, -1e308)

        with np.errstate(all="ignore"):
            x, value, _ = cap._maximize(overflowing, x0, 100)
        np.testing.assert_array_equal(x, x0)
        assert value == overflowing(x0)[0]


# ---------------------------------------------------------------------------
# The lean inner loops against the bodies they replaced: bit-identical
# ---------------------------------------------------------------------------

def _reference_simplex_newton(fgh, p0, tol, max_iters):
    """The active-set Newton loop as first written, one numpy call per step of the algebra."""
    p = np.array(p0, dtype=float)
    value, g, h = fgh(p)
    history, max_iters = [value], max(int(max_iters), 0)
    for step in range(max_iters + 1):
        gap = max(float(g.max() - p @ g), 0.0) if np.all(np.isfinite(g)) else np.inf
        if not gap >= tol or step == max_iters:
            break
        if np.isinf(gap):
            enter = ~np.isfinite(g)
            d, t, slope, curv = enter / enter.sum() - p, 0.5, 0.0, 0.0
        else:  # Newton on the support's face, joined by the row j of largest gradient
            j = int(np.argmax(g))
            idx = np.flatnonzero((p > 0.0) | (np.arange(len(p)) == j))
            k = len(idx)
            bordered = np.ones((k + 1, k + 1))
            bordered[:k, :k], bordered[k, k] = -h[np.ix_(idx, idx)], 0.0
            bordered[:k, :k] += cap._NEWTON_DAMPING * max(float(bordered.diagonal().max()), 1.0) * np.eye(k)
            d = np.zeros_like(p)
            d[idx] = np.linalg.solve(bordered, np.append(g[idx] - p @ g, 0.0))[:k]
            slope = float(g @ d)
            if not (slope > 0.0 and (p[j] > 0.0 or d[j] > 0.0)):  # j would leave again: move weight to j
                d, slope = -p, gap
                d[j] += 1.0
            curv = float(d @ h @ d)
            t = slope / max(-curv, slope)  # the model's maximiser, capped at 1
        shrink = d < 0.0
        ratios = np.where(shrink, p / np.where(shrink, -d, 1.0), np.inf)
        block = int(np.argmin(ratios))
        t = min(t, ratios[block])
        rounding = 1e-14 * max(1.0, abs(value))
        for _ in range(60):
            cand = p + t * d
            if t >= ratios[block]:
                cand[block] = 0.0
            cand = np.maximum(cand, 0.0)
            cand /= cand.sum()
            new = fgh(cand)
            pred = t * slope + 0.5 * t * t * curv
            if new[0] - value >= 1e-4 * pred or (pred <= rounding and new[0] >= value - rounding):
                break
            t *= 0.5
        else:
            break
        p, (value, g, h) = cand, new
        history.append(value)
    return value, p, history, gap


def _newton_runs(monkeypatch, solve, run):
    """(value, weights, history, gap) of every ``_simplex_newton`` call that ``run()`` makes under ``solve``."""
    seen = []

    def spy(*args):
        seen.append(solve(*args))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cap, "_simplex_newton", spy)
        run()
    return seen


def _assert_same_runs(got, want):
    assert len(got) == len(want)
    for (value, weights, history, gap), (value_, weights_, history_, gap_) in zip(got, want):
        assert value == value_ and gap == gap_
        np.testing.assert_array_equal(weights, weights_)
        np.testing.assert_array_equal(history, history_)


def _random_chi_stacks(rng, count):
    """(outputs, warm start or None) pairs at d = 2..4; every third stack has a pure output."""
    from chancap.rand import random_density_matrix

    cases = []
    for i in range(count):
        dim, n = 2 + i % 3, int(rng.integers(2, 9))
        outs = np.stack([random_density_matrix(dim, rng) for _ in range(n)])
        if i % 3 == 0:
            v = random_unitary(dim, rng)[:, 0]
            outs[0] = np.outer(v, v.conj())
        warm = None
        if i % 2:
            warm = rng.dirichlet(np.ones(n))
            warm[rng.random(n) < 0.4] = 0.0
            warm[i % n] += 0.1
        cases.append((outs, warm))
    return cases


def _reference_qubit_signal_vectors(x, n):
    """The qubit branch of ``_signal_vectors`` as first written, with ``np.stack``/``np.column_stack``."""
    theta, phi = x[0:2 * n:2], x[1:2 * n:2]
    c, s, phase = np.cos(theta / 2.0), np.sin(theta / 2.0), np.exp(1j * phi)
    v = np.stack([c, phase * s], axis=1)

    def pull_back(g):
        turned = g[:, 1].conj() * phase
        return np.column_stack([0.5 * (c * turned.real - s * g[:, 0].real), -s * turned.imag]).ravel()

    return v, pull_back


def _reference_polar_rows(x, dim, n_out):
    """``_polar_rows`` as first written, with ``zh.conj().T`` in the pull-back and ``_complex_params``."""
    m = n_out * dim
    g = (x[:m] + 1j * x[m:2 * m]).reshape(n_out, dim)
    if not np.isfinite(g).all():
        return np.eye(n_out, dim), lambda grad: np.zeros(2 * m)
    w, s, zh = np.linalg.svd(g, full_matrices=False)
    rows = w @ zh
    if not s[-1] > 1e-12 * s[0]:
        return rows, lambda grad: np.zeros(2 * m)

    def pull_back(grad):
        y = zh @ grad.conj().T @ w
        inner = (y + s[:, None] * y.conj().T / s) / (s[:, None] + s)
        return cap._complex_params((grad @ zh.conj().T / s - w @ inner) @ zh)

    return rows, pull_back


class TestLeanLoopsBitIdentical:
    @pytest.mark.parametrize("tol, max_iters", [(1e-12, 3000), (1e-9, 250), (1e-9, 1), (1e-9, 0)])
    def test_blahut_arimoto(self, monkeypatch, tol, max_iters):
        for kernel, warm in _random_kernels(np.random.default_rng(20), 500):
            def run():
                return blahut_arimoto(kernel, tol=tol, max_iters=max_iters, full_output=True, init_weights=warm)

            with monkeypatch.context() as patch:
                patch.setattr(cap, "_simplex_newton", _reference_simplex_newton)
                value_, weights_, info_ = run()
            value, weights, info = run()
            assert value == value_ and info["gap"] == info_["gap"]
            np.testing.assert_array_equal(weights, weights_)
            np.testing.assert_array_equal(info["lower_bounds"], info_["lower_bounds"])

    def test_max_holevo_weights(self, monkeypatch):
        for outs, warm in _random_chi_stacks(np.random.default_rng(21), 300):
            def run():
                return max_holevo_weights(outs, tol=1e-11, max_iters=3000, init_weights=warm)

            want = _newton_runs(monkeypatch, _reference_simplex_newton, run)
            _assert_same_runs(_newton_runs(monkeypatch, cap._simplex_newton, run), want)

    def test_qubit_signal_vectors(self):
        rng = np.random.default_rng(22)
        for n in range(1, 7):
            x = rng.normal(scale=3.0, size=2 * n + 3)  # trailing parameters belong to other blocks
            g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            (v, back), (v_, back_) = cap._signal_vectors(x, 2, n), _reference_qubit_signal_vectors(x, n)
            np.testing.assert_array_equal(v, v_)
            np.testing.assert_array_equal(back(g), back_(g))

    def test_polar_rows(self):
        rng = np.random.default_rng(23)
        for dim, n_out in ((2, 2), (2, 4), (3, 4), (4, 5)):
            x = rng.normal(size=n_povm_params(dim, n_out))
            g = (x[: n_out * dim] + 1j * x[n_out * dim:]).reshape(n_out, dim)
            singular = g.copy()
            singular[:, -1] = 2.0 * singular[:, 0]
            for z in (g, singular, np.zeros_like(g), np.full_like(g, np.nan)):
                xs = cap._complex_params(z)
                grad = rng.normal(size=(n_out, dim)) + 1j * rng.normal(size=(n_out, dim))
                (rows, back), (rows_, back_) = cap._polar_rows(xs, dim, n_out), _reference_polar_rows(xs, dim, n_out)
                np.testing.assert_array_equal(rows, rows_)
                np.testing.assert_array_equal(back(grad), back_(grad))

    def test_entropy_and_slope(self):
        from chancap.linalg import EIG_CLIP, _eig_entropy_and_slope

        edges = [EIG_CLIP, np.nextafter(EIG_CLIP, 1.0), np.nextafter(EIG_CLIP, 0.0), 0.0, -1e-15, 1.0]
        rng = np.random.default_rng(24)
        for lam in (np.array(edges), rng.dirichlet(np.ones(4), size=5), np.concatenate([rng.random((3, 2)), np.tile(edges[:3], (3, 1))], axis=1)):
            kept = np.where(lam > EIG_CLIP, lam, 1.0)
            ent, slope = _eig_entropy_and_slope(lam)
            np.testing.assert_array_equal(ent, -(kept * np.log2(kept)).sum(axis=-1))
            np.testing.assert_array_equal(ent, cap._eig_entropy(lam))
            np.testing.assert_array_equal(slope, np.where(lam > EIG_CLIP, np.log2(kept) + 1.0 / np.log(2.0), 0.0))


class TestWarmStartChecks:
    KERNELS = [np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3]])]
    BAD = [
        lambda n: [np.inf] + [1.0] * (n - 1),
        lambda n: [np.nan] + [1.0] * (n - 1),
        lambda n: [-1.0] + [2.0] * (n - 1),
        lambda n: [0.0] * n,
        lambda n: [1e308] * n,  # finite entries whose sum is not
        lambda n: np.ones((n, 2)),  # 2-D, with the right length
        lambda n: np.ones(n + 1),
    ]

    @pytest.mark.parametrize("bad", range(len(BAD)))
    def test_blahut_arimoto_falls_back_to_cold_start(self, bad):
        for kernel in self.KERNELS:
            value, weights, info = blahut_arimoto(kernel, full_output=True, init_weights=self.BAD[bad](len(kernel)))
            value_, weights_, info_ = blahut_arimoto(kernel, full_output=True)
            assert value == value_ and info == info_
            np.testing.assert_array_equal(weights, weights_)

    @pytest.mark.parametrize("bad", range(len(BAD)))
    def test_max_holevo_weights_falls_back_to_cold_start(self, bad):
        for kernel in self.KERNELS:
            outs = np.stack([np.diag(row).astype(complex) for row in kernel])
            chi, weights = max_holevo_weights(outs, init_weights=self.BAD[bad](len(outs)))
            chi_, weights_ = max_holevo_weights(outs)
            assert chi == chi_ and np.isfinite(chi)
            np.testing.assert_array_equal(weights, weights_)

    def test_good_warm_start_is_normalised(self):
        kernel = self.KERNELS[1]
        want = blahut_arimoto(kernel, full_output=True, init_weights=np.array([0.25, 0.0, 0.75]))
        got = blahut_arimoto(kernel, full_output=True, init_weights=[1, 0, 3])
        assert got[0] == want[0] and got[2]["lower_bounds"] == want[2]["lower_bounds"]


class TestGridDensity:
    @pytest.mark.parametrize("density", [-3, 2.5, 0, 1, True, np.True_, "10", None])
    def test_rejected(self, density):
        with pytest.raises(InvariantViolation, match="grid_density"):
            qubit_grid_oracle(identity_channel(2), density)

    def test_smallest_and_numpy_integers(self):
        ch = random_channel(2, 2, seed=91)
        assert 0.0 <= qubit_grid_oracle(ch, 2) <= 1.0
        assert qubit_grid_oracle(ch, np.int64(12), povm_arity=3) == qubit_grid_oracle(ch, 12, povm_arity=3)

    def test_directions_are_frozen_once_per_density(self):
        grid = cap._grid_directions(10)
        assert grid is cap._grid_directions(10) and not grid.flags.writeable
        assert grid.shape == (2 + 9 * 10, 3)
