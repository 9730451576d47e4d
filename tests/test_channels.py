import json

import numpy as np
import pytest

from chancap.channels import (
    Povm,
    QuantumChannel,
    amplitude_damping_channel,
    apply,
    basis_povm,
    bit_flip_channel,
    channel_to_json,
    completely_noisy_channel,
    depolarizing_channel,
    dual_apply,
    dual_povm,
    identity_channel,
    load_channel,
    matrix_to_json,
    measured_channel,
    measurement_channel,
    omega_channel,
    phase_damping_channel,
    product_channel,
    pretty_good_measurement,
    projective_povm,
    random_channel,
    trine_povm,
    unitary_channel,
)
from chancap.errors import ChannelSpecError, DimensionMismatchError, InvariantViolation
from chancap.linalg import tensor, von_neumann_entropy
from chancap.rand import random_density_matrix, random_hermitian, random_povm


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(apply(identity_channel(2), rho), rho, atol=1e-12)

    def test_completely_noisy(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            np.testing.assert_allclose(apply(completely_noisy_channel(2), rho), np.eye(2) / 2, atol=1e-12)

    def test_depolarizing_closed_form(self):
        # (1-p) rho + p I/2 expanded by hand for rho = |0><0|, p = 1/2
        out = apply(depolarizing_channel(0.5), np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-12)

    def test_trace_and_positivity(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            ch = random_channel(2, int(rng.integers(1, 5)), seed=seed)
            rho = random_density_matrix(2, rng)
            out = apply(ch, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out).min() > -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(identity_channel(2), np.eye(3, dtype=complex) / 3)


class TestDuality:
    def test_unitality(self):
        for seed in range(5):
            ch = random_channel(2, 3, seed=seed)
            np.testing.assert_allclose(dual_apply(ch, np.eye(2, dtype=complex)), np.eye(2), atol=1e-9)

    def test_identity_channel_dual(self):
        e = random_hermitian(2, np.random.default_rng(3))
        np.testing.assert_allclose(dual_apply(identity_channel(2), e), e, atol=1e-12)

    def test_trace_duality(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            ch = random_channel(2, int(rng.integers(1, 5)), seed=100 + seed)
            rho = random_density_matrix(2, rng)
            e = random_hermitian(2, rng)
            lhs = np.trace(apply(ch, rho) @ e)
            rhs = np.trace(rho @ dual_apply(ch, e))
            assert abs(lhs - rhs) < 1e-10

    def test_dual_povm_identity(self):
        m = basis_povm(2)
        md = dual_povm(identity_channel(2), m)
        for a, b in zip(m.elements, md.elements):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dual_povm_noisy(self):
        # the replacer map pulls any projective measurement back to {I/2, I/2}
        md = dual_povm(completely_noisy_channel(2), basis_povm(2))
        for e in md.elements:
            np.testing.assert_allclose(e, np.eye(2) / 2, atol=1e-12)

    def test_dual_povm_completeness(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            ch = random_channel(2, int(rng.integers(1, 5)), seed=200 + seed)
            md = dual_povm(ch, random_povm(2, 3, rng))
            np.testing.assert_allclose(sum(md.elements), np.eye(2), atol=1e-9)


class TestProductChannel:
    def test_identity_product(self):
        prod = product_channel(identity_channel(2), identity_channel(2))
        rho = random_density_matrix(4, np.random.default_rng(6))
        np.testing.assert_allclose(apply(prod, rho), rho, atol=1e-12)

    def test_factor_separation(self):
        rng = np.random.default_rng(7)
        ch = random_channel(2, 2, seed=77)
        prod = product_channel(ch, identity_channel(2))
        r1, r2 = random_density_matrix(2, rng), random_density_matrix(2, rng)
        out = apply(prod, tensor(r1, r2))
        np.testing.assert_allclose(out, tensor(apply(ch, r1), r2), atol=1e-10)

    def test_trace_preserving(self):
        a = random_channel(2, 3, seed=8)
        b = random_channel(2, 2, seed=9)
        prod = product_channel(a, b)
        comp = sum(k.conj().T @ k for k in prod.kraus)
        np.testing.assert_allclose(comp, np.eye(4), atol=1e-9)


class TestOmegaChannel:
    def test_dephasing(self):
        basis_states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        om = omega_channel(basis_states, basis_povm(2))
        rho = random_density_matrix(2, np.random.default_rng(10))
        np.testing.assert_allclose(apply(om, rho), np.diag(np.diag(rho)), atol=1e-12)

    def test_constant_channel(self):
        sigma = random_density_matrix(2, np.random.default_rng(11))
        om = omega_channel([sigma], Povm((np.eye(2, dtype=complex),)))
        rho = random_density_matrix(2, np.random.default_rng(12))
        np.testing.assert_allclose(apply(om, rho), sigma, atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(13)
        states = [random_density_matrix(2, rng) for _ in range(3)]
        povm = random_povm(2, 3, rng)
        om = omega_channel(states, povm)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            direct = sum(r * np.trace(rho @ x) for r, x in zip(states, povm.elements))
            np.testing.assert_allclose(apply(om, rho), direct, atol=1e-10)

    def test_qc_output_diagonal(self):
        rng = np.random.default_rng(14)
        states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        om = omega_channel(states, random_povm(2, 2, rng))
        out = apply(om, random_density_matrix(2, rng))
        assert abs(out[0, 1]) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            omega_channel([np.eye(2, dtype=complex) / 2], basis_povm(2))


class TestMeasuredChannel:
    def test_identity_projective(self):
        ch = measured_channel(identity_channel(2), basis_povm(2))
        rho = np.diag([0.3, 0.7]).astype(complex)
        np.testing.assert_allclose(apply(ch, rho), rho, atol=1e-12)

    def test_always_diagonal(self):
        rng = np.random.default_rng(15)
        ch = measured_channel(random_channel(2, 2, seed=16), random_povm(2, 3, rng))
        out = apply(ch, random_density_matrix(2, rng))
        np.testing.assert_allclose(out, np.diag(np.diag(out)), atol=1e-12)

    def test_matches_direct_readout_formula(self):
        # independent route: sum_b |e_b><e_b| Tr[P dual(E_b)]
        rng = np.random.default_rng(17)
        base = random_channel(2, 3, seed=18)
        m = random_povm(2, 3, rng)
        ch = measured_channel(base, m)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            direct = np.diag([np.trace(rho @ dual_apply(base, e)).real for e in m.elements])
            np.testing.assert_allclose(apply(ch, rho), direct, atol=1e-10)

    def test_output_dimension_is_outcome_count(self):
        ch = measured_channel(identity_channel(2), trine_povm())
        assert ch.dim_out == 3
        assert ch.dim_in == 2

    def test_measurement_channel_unconditional(self):
        m = basis_povm(2)
        direct = measurement_channel(m)
        via_measured = measured_channel(identity_channel(2), m)
        rho = random_density_matrix(2, np.random.default_rng(19))
        np.testing.assert_allclose(apply(direct, rho), apply(via_measured, rho), atol=1e-12)


class TestNamedChannels:
    def test_bit_flip_is_binary_symmetric(self):
        ch = bit_flip_channel(0.1)
        out0 = apply(ch, np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out0, np.diag([0.9, 0.1]), atol=1e-12)
        # coherences cannot survive the readout
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        np.testing.assert_allclose(apply(ch, plus), np.eye(2) / 2, atol=1e-12)

    def test_amplitude_damping_fixed_point(self):
        ch = amplitude_damping_channel(1.0)
        rho = random_density_matrix(2, np.random.default_rng(20))
        np.testing.assert_allclose(apply(ch, rho), np.diag([1.0, 0.0]), atol=1e-12)

    def test_phase_damping_kills_coherence(self):
        ch = phase_damping_channel(1.0)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        np.testing.assert_allclose(apply(ch, plus), np.eye(2) / 2, atol=1e-12)

    def test_parameter_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(InvariantViolation):
                depolarizing_channel(bad)


class TestRandomChannel:
    def test_rank_one_is_unitary(self):
        rng = np.random.default_rng(21)
        ch = random_channel(2, 1, seed=5)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            assert abs(von_neumann_entropy(apply(ch, rho)) - von_neumann_entropy(rho)) < 1e-9

    def test_determinism(self):
        a = random_channel(3, 2, seed=123)
        b = random_channel(3, 2, seed=123)
        for ka, kb in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ka, kb)

    def test_many_seeds_trace_preserving(self):
        for seed in range(1000):
            ch = random_channel(2, 1 + seed % 4, seed=seed)
            comp = sum(k.conj().T @ k for k in ch.kraus)
            assert np.max(np.abs(comp - np.eye(2))) < 1e-9

    def test_rank_bounds(self):
        with pytest.raises(InvariantViolation):
            random_channel(2, 5, seed=0)


class TestLoadChannel:
    def test_identity_kind(self):
        ch = load_channel('{"kind": "identity", "dim": 2}')
        assert ch.dim_in == ch.dim_out == 2
        assert len(ch.kraus) == 1

    @pytest.mark.parametrize("kind", ["identity", "completely-noisy"])
    def test_dim_is_an_integer_in_scope(self, kind):
        assert load_channel(f'{{"kind": "{kind}"}}').dim_in == 2  # the default
        for dim in (1, 16):
            assert load_channel(f'{{"kind": "{kind}", "dim": {dim}}}').dim_out == dim
        for dim in ("2.7", "2.0", "true", '"3"', "null", "[2]", "0", "-1", "17"):  # no array is built for 17
            with pytest.raises(ChannelSpecError, match=r"'dim' must be an integer in \[1, 16\]"):
                load_channel(f'{{"kind": "{kind}", "dim": {dim}}}')

    def test_depolarizing_zero_is_identity(self):
        ch = load_channel('{"kind": "depolarizing", "p": 0.0}')
        rho = random_density_matrix(2, np.random.default_rng(22))
        np.testing.assert_allclose(apply(ch, rho), rho, atol=1e-12)

    def test_non_cptp_kraus_rejected(self):
        spec = json.dumps({"kind": "kraus", "operators": [matrix_to_json(np.eye(2) * 0.9)]})
        with pytest.raises(InvariantViolation) as err:
            load_channel(spec)
        assert "sum K" in str(err.value)

    def test_malformed_json(self):
        with pytest.raises(ChannelSpecError) as err:
            load_channel("{not json")
        assert "line" in str(err.value)

    def test_missing_field(self):
        with pytest.raises(ChannelSpecError):
            load_channel('{"kind": "depolarizing"}')

    def test_unknown_kind(self):
        with pytest.raises(ChannelSpecError):
            load_channel('{"kind": "teleporter"}')

    def test_unitary_kind(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ch = load_channel(json.dumps({"kind": "unitary", "matrix": matrix_to_json(h)}))
        np.testing.assert_allclose(apply(ch, np.diag([1.0, 0.0]).astype(complex)), 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_qc_kind(self):
        spec = json.dumps(
            {
                "kind": "qc",
                "states": [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))],
                "povm": [matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.diag([0.0, 1.0]))],
            }
        )
        ch = load_channel(spec)
        rho = random_density_matrix(2, np.random.default_rng(23))
        np.testing.assert_allclose(apply(ch, rho), np.diag(np.diag(rho)), atol=1e-12)

    def test_named_kinds_all_parse(self):
        for spec in (
            '{"kind": "amplitude-damping", "gamma": 0.3}',
            '{"kind": "phase-damping", "lambda": 0.3}',
            '{"kind": "bit-flip", "p": 0.2}',
            '{"kind": "completely-noisy", "dim": 3}',
        ):
            load_channel(spec)

    def test_json_round_trip(self):
        for dim, rank, seed in ((2, 3, 24), (3, 2, 25)):
            ch = random_channel(dim, rank, seed=seed)
            back = load_channel(channel_to_json(ch))
            assert (back.dim_in, back.dim_out) == (dim, dim)
            assert len(back.kraus) == len(ch.kraus)
            for k, k_back in zip(ch.kraus, back.kraus):
                np.testing.assert_array_equal(k_back, k)


class TestPovmInvariants:
    def test_completeness_enforced(self):
        with pytest.raises(InvariantViolation):
            Povm((np.eye(2, dtype=complex) * 0.5,))

    def test_psd_enforced(self):
        e = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantViolation):
            Povm((e, np.eye(2) - e))

    def test_bounded_by_identity(self):
        e = np.diag([1.5, 0.5]).astype(complex)
        with pytest.raises(InvariantViolation):
            Povm((e, np.eye(2) - e))

    def test_channel_completeness_message_names_deviation(self):
        with pytest.raises(InvariantViolation) as err:
            QuantumChannel((np.eye(2, dtype=complex) * 0.9,))
        assert "1.900e-01" in str(err.value) or "0.19" in str(err.value)


class TestPrettyGoodMeasurement:
    def test_completeness(self):
        rng = np.random.default_rng(24)
        probs = np.array([0.3, 0.7])
        states = [random_density_matrix(2, rng) for _ in range(2)]
        m = pretty_good_measurement(probs, states)
        np.testing.assert_allclose(sum(m.elements), np.eye(2), atol=1e-9)

    def test_singular_average_extended(self):
        # parallel pure states leave the average rank deficient
        probs = np.array([0.5, 0.5])
        zero = np.diag([1.0, 0.0]).astype(complex)
        m = pretty_good_measurement(probs, [zero, zero])
        np.testing.assert_allclose(sum(m.elements), np.eye(2), atol=1e-9)
        # the completion lives outside the ensemble's support, so outcome
        # statistics are those of the uncompleted family: 50/50 here
        deficit = np.diag([0.0, 1.0])
        assert abs(np.trace(zero @ deficit).real) < 1e-12
        assert abs(np.trace(zero @ m.elements[0]).real - 0.5) < 1e-12
        assert abs(np.trace(zero @ m.elements[1]).real - 0.5) < 1e-12

    def test_orthogonal_states_give_projectors(self):
        probs = np.array([0.5, 0.5])
        states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        m = pretty_good_measurement(probs, states)
        np.testing.assert_allclose(m.elements[0], np.diag([1.0, 0.0]), atol=1e-9)


class TestProjectiveConstructions:
    def test_projective_along_x(self):
        m = projective_povm([1.0, 0.0, 0.0])
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        assert abs(np.trace(plus @ m.elements[0]).real - 1.0) < 1e-12

    def test_trine_completeness(self):
        m = trine_povm()
        assert len(m.elements) == 3
        np.testing.assert_allclose(sum(m.elements), np.eye(2), atol=1e-12)

    def test_unitary_channel_rejects_nonunitary(self):
        with pytest.raises(InvariantViolation):
            unitary_channel(np.array([[1.0, 0.0], [0.0, 0.5]]))
