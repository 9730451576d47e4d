import numpy as np
import pytest

from chancap.blocks import (
    BlockDiagonalState,
    block_entropy,
    block_relative_entropy,
    entropy_decomposition,
    reduction,
    scaled_block_state,
)
from chancap.channels import basis_povm, random_channel
from chancap.errors import DimensionMismatchError, InvariantViolation
from chancap.information import classical_joint, input_outcome_block_state, joint_block_state
from chancap.linalg import relative_entropy, shannon_entropy
from chancap.rand import random_ensemble, random_povm


def random_instance(seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(2, int(rng.integers(1, 5)), seed=seed)
    ens = random_ensemble(2, int(rng.integers(2, 4)), rng)
    povm = random_povm(2, int(rng.integers(2, 4)), rng)
    return ch, ens, povm


def dense_direct_sum(state: BlockDiagonalState) -> np.ndarray:
    d = state.block_dim
    n = len(state.blocks)
    out = np.zeros((n * d, n * d), dtype=complex)
    for i, b in enumerate(state.blocks):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = b
    return out


class TestConstruction:
    def test_total_trace_enforced(self):
        with pytest.raises(InvariantViolation):
            BlockDiagonalState(("B",), "R", ((0,),), (np.eye(2, dtype=complex),))

    def test_psd_enforced(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantViolation):
            BlockDiagonalState(("B",), "R", ((0,),), (bad,))

    def test_label_length(self):
        with pytest.raises(DimensionMismatchError):
            BlockDiagonalState(("A", "B"), "Q", ((0,),), (np.eye(2, dtype=complex) / 2,))


class TestEntropy:
    def test_matches_dense_direct_sum(self):
        # oracle: eigensolve the materialised block-diagonal matrix
        from chancap.linalg import entropy

        for seed in range(10):
            ch, ens, povm = random_instance(seed)
            state = joint_block_state(ch, ens, povm)
            assert abs(block_entropy(state) - entropy(dense_direct_sum(state))) < 1e-10

    def test_decomposition(self):
        for seed in range(10):
            ch, ens, povm = random_instance(50 + seed)
            state = joint_block_state(ch, ens, povm)
            label_term, cond_term = entropy_decomposition(state)
            assert abs(block_entropy(state) - (label_term + cond_term)) < 1e-10


class TestRelativeEntropy:
    def test_matches_dense_oracle(self):
        for seed in range(10):
            ch, ens, povm = random_instance(100 + seed)
            joint = joint_block_state(ch, ens, povm)
            paq = reduction(joint, "AQ")
            prod = scaled_block_state(("A",), "Q", reduction(joint, "A"), reduction(joint, "Q"))
            lhs = block_relative_entropy(paq, prod)
            rhs = relative_entropy(dense_direct_sum(paq), dense_direct_sum(prod))
            assert abs(lhs - rhs) < 1e-9

    def test_label_mismatch(self):
        s = scaled_block_state(("B",), "R", np.array([0.4, 0.6]), np.eye(2, dtype=complex) / 2)
        t = scaled_block_state(("B",), "R", np.array([0.3, 0.3, 0.4]), np.eye(2, dtype=complex) / 2)
        with pytest.raises(DimensionMismatchError):
            block_relative_entropy(s, t)


class TestReductions:
    def test_joint_reductions(self):
        for seed in range(10):
            ch, ens, povm = random_instance(200 + seed)
            joint = joint_block_state(ch, ens, povm)

            table = reduction(joint, "AB")
            np.testing.assert_allclose(table, classical_joint(ch, ens, povm), atol=1e-10)
            np.testing.assert_allclose(reduction(joint, "A"), ens.probs, atol=1e-10)
            np.testing.assert_allclose(reduction(joint, "B"), table.sum(axis=0), atol=1e-10)

            from chancap.channels import apply

            avg_out = apply(ch, ens.average_state())
            np.testing.assert_allclose(reduction(joint, "Q"), avg_out, atol=1e-10)

            paq = reduction(joint, "AQ")
            for j, (p, s) in enumerate(zip(ens.probs, ens.states)):
                np.testing.assert_allclose(paq.block((j,)), p * apply(ch, s), atol=1e-10)

    def test_input_outcome_reductions(self):
        for seed in range(5):
            ch, ens, povm = random_instance(300 + seed)
            rho = ens.average_state()
            pbr = input_outcome_block_state(ch, rho, povm)
            np.testing.assert_allclose(reduction(pbr, "R"), rho, atol=1e-10)
            tau = reduction(pbr, "B")
            assert abs(tau.sum() - 1.0) < 1e-10
            same = reduction(pbr, "BR")
            assert isinstance(same, BlockDiagonalState)
            np.testing.assert_allclose(same.blocks[0], pbr.blocks[0], atol=1e-12)

    def test_reduction_follows_requested_order(self):
        ch, ens, povm = random_instance(402)
        joint = joint_block_state(ch, ens, povm)
        np.testing.assert_array_equal(reduction(joint, "BA"), reduction(joint, "AB").T)
        ab, ba = reduction(joint, "ABQ"), reduction(joint, "BAQ")
        assert ba.axes == ("B", "A") and ba.labels == tuple(sorted((b, a) for a, b in ab.labels))
        for a, b in ab.labels:
            np.testing.assert_array_equal(ba.block((b, a)), ab.block((a, b)))

    def test_unsupported_reduction(self):
        ch, ens, povm = random_instance(400)
        joint = joint_block_state(ch, ens, povm)
        with pytest.raises(DimensionMismatchError):
            reduction(joint, "XZ")

    def test_entropy_identities_on_reductions(self):
        ch, ens, povm = random_instance(401)
        joint = joint_block_state(ch, ens, povm)
        table = reduction(joint, "AB")
        # the diagonal joint state has the classical entropy of its table
        assert abs(shannon_entropy(table.ravel()) - shannon_entropy(np.asarray(table).ravel())) < 1e-12

    def test_single_element_povm_blocks(self):
        from chancap.channels import apply
        from chancap.information import basis_identity_povm

        ch, ens, _ = random_instance(402)
        joint = joint_block_state(ch, ens, basis_identity_povm(2))
        for j, (p, s) in enumerate(zip(ens.probs, ens.states)):
            np.testing.assert_allclose(joint.block((j, 0)), p * apply(ch, s), atol=1e-10)
