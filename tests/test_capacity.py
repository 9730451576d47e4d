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
        assert abs(value - cap._mi_fixed_weights(weights, kernel)) <= 1e-14

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
            assert abs(value - cap._mi_fixed_weights(weights, kernel)) <= 1e-14
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
            assert abs(v - cap._mi_fixed_weights(w, _binary_kernel(l, h))) <= 1e-15

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
                assert abs(value - cap._mi_fixed_weights(weights, _binary_kernel(lo, lo + d))) <= 1e-15


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
        with pytest.raises(InvariantViolation):
            OptimizerConfig(ensemble_size_cap=1)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(restarts=0)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(max_iters=-1)
        with pytest.raises(InvariantViolation):
            OptimizerConfig(seed=-1)
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


def _chi_matrix_route(ch, weights, states):
    kr = np.stack(ch.kraus)
    outs = np.einsum("kai,jib,kcb->jac", kr, states, kr.conj())
    avg = np.einsum("j,jab->ab", weights, outs)
    return cap._entropy_stack(avg[None])[0] - weights @ cap._entropy_stack(outs)


class TestBlochObjectives:
    """The qubit objectives equal the matrix route at the same parameters."""

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
            (w0, w), pull_back = cap._povm_pauli_from_params(x, self.N_OUT)
            assert np.all(np.isfinite(w0)) and np.all(np.isfinite(w))
            assert np.all(np.isfinite(pull_back(rng.normal(size=(self.N_OUT, 4)))))
            rebuilt = w0[:, None, None] * np.eye(2) + np.einsum("bk,kij->bij", w, np.stack(cap.PAULI))
            np.testing.assert_allclose(rebuilt, povm_elements_from_params(x, 2, self.N_OUT), atol=1e-12)

    def test_density_bloch_matches_qr(self):
        rng = np.random.default_rng(24)
        for x in [rng.normal(size=n_density_params(2)) for _ in range(20)] + self.degenerate_density_params():
            (lam, n), pull_back = cap._density_bloch_from_params(x)
            assert np.all(np.isfinite(lam)) and np.all(np.isfinite(n))
            assert np.all(np.isfinite(pull_back(rng.normal(size=5))))
            rebuilt = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", n, np.stack(cap.PAULI)))
            np.testing.assert_allclose(rebuilt, density_from_params(x, 2), atol=1e-12)

    def test_shannon_kernel(self):
        for ch, w, xs, xm, _ in self.cases():
            pulled = cap._pulled_back_effects(ch, self.N_OUT)
            states, bloch = pure_states_from_params(xs, 2, self.N_STATES), cap._bloch_of_angles(xs)[0]
            for xm_ in [xm] + self.degenerate_povm_params():
                effects, pull_back = pulled(xm_)
                got = cap._bloch_kernel(bloch, effects)
                want = cap._kernel(states, cap._dual_effect_stack(ch, povm_elements_from_params(xm_, 2, self.N_OUT)))
                assert np.all(np.isfinite(got))
                np.testing.assert_allclose(got, want, atol=1e-12)
                mi = cap._mi_fixed_weights(w, want)
                assert abs(cap._mi_fixed_weights(w, got) - mi) < 1e-12
                value, g_bloch, g_effects = cap._mi_bloch(w, bloch, effects)
                signal_value, g_xs = cap._mi_signal_objective(w, effects, 2, self.N_STATES)[0](xs)
                assert abs(value - mi) < 1e-12 and abs(signal_value - mi) < 1e-12
                for g in (g_bloch, g_effects, g_xs, pull_back(g_effects)):
                    assert np.all(np.isfinite(g))

    def test_holevo_chi(self):
        # rank-1 channels, the identity among them, give pure outputs (|r| = 1);
        # the completely noisy channel gives |r| = 0
        channels = [(ch, w, xs) for ch, w, xs, _, _ in self.cases()]
        channels += [(identity_channel(2), channels[0][1], channels[0][2])]
        channels += [(completely_noisy_channel(2), channels[1][1], channels[1][2])]
        for ch, w, xs in channels:
            got, grad = cap._qubit_chi_objective(ch)(w, xs)
            want = _chi_matrix_route(ch, w, pure_states_from_params(xs, 2, self.N_STATES))
            assert np.isfinite(got) and np.all(np.isfinite(grad))
            assert abs(got - want) < 1e-12

    def test_measured_input(self):
        for ch, _, _, xm, xr in self.cases():
            pulled = cap._pulled_back_effects(ch, self.N_OUT)
            for xm_ in [xm] + self.degenerate_povm_params():
                povm = Povm(tuple(povm_elements_from_params(xm_, 2, self.N_OUT)))
                effects, effects_back = pulled(xm_)
                for xr_ in [xr] + self.degenerate_density_params():
                    rho, rho_back = cap._density_bloch_from_params(xr_)
                    got, g_rho, g_effects = cap._measured_input_bloch(rho, effects)
                    want = measured_input_information(ch, density_from_params(xr_, 2), povm)
                    assert np.isfinite(got)
                    assert abs(got - want) < 1e-12
                    for g in (g_rho, g_effects, rho_back(g_rho), effects_back(g_effects)):
                        assert np.all(np.isfinite(g))

    def test_measured_input_wider_output(self):
        # dim_in 2, dim_out 3: the pulled-back effects come from the matrix route
        rng = np.random.default_rng(25)
        for seed in range(4):
            ch = measured_channel(random_channel(2, 2, seed=310 + seed), trine_povm())
            assert (ch.dim_in, ch.dim_out) == (2, 3)
            xm = rng.normal(size=n_povm_params(3, 4))
            elements = povm_elements_from_params(xm, 3, 4)
            effects, pull_back = cap._pulled_back_effects(ch, 4)(xm)
            assert pull_back is None  # so the POVM block keeps Nelder-Mead
            for xr in [rng.normal(size=n_density_params(2))] + self.degenerate_density_params():
                got = cap._measured_input_bloch(cap._density_bloch_from_params(xr)[0], effects)[0]
                want = measured_input_information(ch, density_from_params(xr, 2), Povm(tuple(elements)))
                assert abs(got - want) < 1e-12

    def test_wider_output_estimate_reproduces_value(self):
        ch = measured_channel(random_channel(2, 2, seed=320), trine_povm())
        res = measured_input_bound(ch, QUICK)
        assert abs(measured_input_information(ch, res.argmax_rho, res.argmax_povm) - res.value) < 1e-12


def _block_solves(monkeypatch, estimator, ch, cfg=OptimizerConfig(restarts=1, max_iters=1)):
    """(objective, start, budget, jac) of every ``_maximize`` call the estimator makes on ``ch``."""
    solves, maximize = [], cap._maximize

    def recording(fun, x0, maxfev, jac=False):
        solves.append((fun, np.array(x0), maxfev, jac))
        return maximize(fun, x0, maxfev, jac)

    monkeypatch.setattr(cap, "_maximize", recording)
    estimator(ch, cfg)
    monkeypatch.undo()
    return solves


def _central_difference(f, x, h=1e-6):
    return np.array([(f(x + e) - f(x - e)) / (2.0 * h) for e in h * np.eye(len(x))])


class TestBlochGradients:
    """The gradients of the qubit block objectives against central differences of their values."""

    N_STATES, N_OUT = 4, 4

    def cases(self):
        rng = np.random.default_rng(28)
        channels = [random_channel(2, 1 + i % 4, seed=340 + i) for i in range(12)]  # Kraus rank 1-4
        for ch in channels + [identity_channel(2), amplitude_damping_channel(0.5)]:
            yield (
                ch,
                rng.dirichlet(np.ones(self.N_STATES)),
                rng.normal(scale=1.5, size=n_state_params(2, self.N_STATES)),
                rng.normal(size=n_povm_params(2, self.N_OUT)),
                rng.normal(size=n_density_params(2)),
            )

    def assert_gradient(self, objective, x):
        grad = objective(x)[1]
        want = _central_difference(lambda v: objective(v)[0], x)
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, want, rtol=0.0, atol=1e-7 * max(1.0, np.abs(want).max()))

    def test_mi_signals(self):
        for ch, w, xs, xm, _ in self.cases():
            effects = cap._pulled_back_effects(ch, self.N_OUT)(xm)[0]
            objective, jac = cap._mi_signal_objective(w, effects, 2, self.N_STATES)
            assert jac
            self.assert_gradient(objective, xs)

    def test_mi_povm(self):
        for ch, w, xs, xm, _ in self.cases():
            pulled, bloch = cap._pulled_back_effects(ch, self.N_OUT), cap._bloch_of_angles(xs)[0]

            def objective(v):
                effects, pull_back = pulled(v)
                value, _, g_effects = cap._mi_bloch(w, bloch, effects)
                return value, pull_back(g_effects)

            self.assert_gradient(objective, xm)

    def test_mi_joint(self, monkeypatch):
        # the one block shannon_capacity solves on a 2->2 channel: signals, then POVM
        for ch, _, xs, xm, _ in self.cases():
            (objective, x0, _, _), *_ = _block_solves(monkeypatch, shannon_capacity, ch)
            self.assert_gradient(objective, x0)
            self.assert_gradient(objective, np.concatenate([xs, xm]))

    def test_chi(self):
        for ch, w, xs, _, _ in self.cases():
            chi = cap._qubit_chi_objective(ch)
            self.assert_gradient(lambda v: chi(w, v), xs)

    def test_measured_input(self):
        for ch, _, _, xm, xr in self.cases():
            pulled = cap._pulled_back_effects(ch, self.N_OUT)
            for xr_ in (xr, np.concatenate([[0.0, -800.0], xr[2:]])):  # full rank, then pure

                joint = cap._joint_objective(cap._density_bloch_from_params, pulled, cap._measured_input_bloch, 10)
                self.assert_gradient(joint, np.concatenate([xr_, xm]))

    def test_entropy_slope(self):
        # dS/dlam = -slope for kept eigenvalues; dropped ones (<= EIG_CLIP) count 0
        lam = np.array([0.7, 0.2, 1e-3, 0.5e-12, 0.0])
        want = _central_difference(cap._eig_entropy, lam[:3], h=1e-7)
        np.testing.assert_allclose(-cap._eig_entropy_slope(lam[:3]), want, rtol=1e-7)
        np.testing.assert_array_equal(cap._eig_entropy_slope(lam)[3:], 0.0)

    def test_mi_kernel_gradient(self):
        rng = np.random.default_rng(29)
        kernel = rng.dirichlet(np.ones(3), size=4)
        kernel[1, 2] = 0.0  # a clipped entry: its gradient is taken as 0
        w = rng.dirichlet(np.ones(4))
        value, grad = cap._mi_and_grad(w, kernel)
        assert value == cap._mi_fixed_weights(w, kernel)
        assert grad[1, 2] == 0.0
        flat = _central_difference(lambda v: cap._mi_fixed_weights(w, v.reshape(4, 3)), kernel.ravel())
        kept = kernel.ravel() > 0.0
        np.testing.assert_allclose(grad.ravel()[kept], flat[kept], atol=1e-8)

    def test_degenerate_parameters_pull_back_zeros(self):
        # the matrix-route fallbacks report no slope, so L-BFGS-B stops there
        params, rng = TestBlochObjectives(), np.random.default_rng(30)
        pulled = cap._pulled_back_effects(random_channel(2, 3, seed=360), self.N_OUT)
        for x in params.degenerate_povm_params():
            grad = rng.normal(size=(self.N_OUT, 4))
            for pull_back in (cap._povm_pauli_from_params(x, self.N_OUT)[1], pulled(x)[1]):
                np.testing.assert_array_equal(pull_back(grad), np.zeros_like(x))
        for i, x in enumerate(params.degenerate_density_params()):
            grad = cap._density_bloch_from_params(x)[1](rng.normal(size=5))
            assert np.all(np.isfinite(grad))
            if i in (0, 1, 2, 5, 6):  # zero g, zero or tiny first column
                np.testing.assert_array_equal(grad, np.zeros_like(x))

    @pytest.mark.parametrize("estimator, n_params", [(shannon_capacity, 8 + 16), (measured_input_bound, 10 + 16)])
    def test_one_joint_solve_per_sweep(self, monkeypatch, estimator, n_params):
        # on a 2->2 channel every block solve is one L-BFGS-B call over all the
        # parameters at the usual budget: no split blocks and no polish
        solves = _block_solves(monkeypatch, estimator, random_channel(2, 3, seed=361), QUICK)
        assert solves
        for _, x0, maxfev, jac in solves:
            assert jac and len(x0) == n_params and maxfev == 60 * n_params

    def test_maximize_keeps_start_on_non_finite_result(self):
        # a value and slope of 1e308 overflow inside L-BFGS-B, which then returns NaN
        x0 = np.array([0.3, -0.2])

        def overflowing(v):
            return (-float(v @ v) if np.all(np.abs(v) < 1.0) else -np.inf), np.full_like(v, -1e308)

        with np.errstate(all="ignore"):
            x = cap._maximize(overflowing, x0, 100, jac=True)
        np.testing.assert_array_equal(x, x0)
