"""Batched stack operations against per-matrix reference loops.

Every functional and validator that works on a whole (n, d, d) stack at once
is compared here with a loop that treats one matrix at a time, written the
way the package computed it before the stacks: values must agree within
1e-12, and a bad stack must raise the same exception type naming the same
first offending element.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chancap.adaptive import (
    AdaptiveStrategy,
    first_stage_ensemble,
    flatten,
    second_stage_ensemble,
)
from chancap.blocks import (
    BlockDiagonalState,
    block_entropy,
    block_relative_entropy,
    entropy_decomposition,
    reduction,
    scaled_block_state,
)
from chancap.channels import Povm, QuantumChannel, apply, dual_apply, dual_povm, random_channel
from chancap.errors import DimensionMismatchError, InvariantViolation, SupportError
from chancap.information import (
    Ensemble,
    holevo_information,
    joint_block_state,
    measured_input_information,
    mutual_information,
    outcome_distribution,
)
from chancap.linalg import (
    ATOL_COMPLETENESS,
    ATOL_HERMITIAN,
    ATOL_PSD,
    ATOL_TRACE,
    EIG_CLIP,
    assert_density_matrix,
    entropy,
    matrix_sqrt,
    partial_trace,
    relative_entropy,
    shannon_entropy,
)
from chancap.rand import random_density_matrix, random_ensemble, random_povm

TOL = 1e-12
CASES = settings(max_examples=40, deadline=None, derandomize=True, database=None)
dims = st.integers(2, 4)
counts = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# Per-matrix references
# ---------------------------------------------------------------------------

def ref_entropy(m):
    lam = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    assert lam.min() >= -ATOL_PSD
    lam = lam[lam > EIG_CLIP]
    return max(float(-(lam * np.log2(lam)).sum()), 0.0)


def ref_shannon(p):
    p = np.asarray(p, dtype=float)
    sub_unit = p.size == 0 or p.max() <= 1.0 + 1e-12
    p = p[p > EIG_CLIP]
    val = float(-(p * np.log2(p)).sum())
    return max(val, 0.0) if sub_unit else val


def ref_relative_entropy(p, q):
    """(value, None) or (None, (SupportError, eigenvector index)) for one pair."""
    lp, vp = np.linalg.eigh(0.5 * (p + p.conj().T))
    lq, vq = np.linalg.eigh(0.5 * (q + q.conj().T))
    null_q = vq[:, lq <= EIG_CLIP]
    for i in np.nonzero(lp > 1e-10)[0]:
        if np.linalg.norm(null_q.conj().T @ vp[:, i]) ** 2 > 1e-9:
            return None, int(i)
    keep_p, keep_q = lp > EIG_CLIP, lq > EIG_CLIP
    term_p = float(np.sum(lp[keep_p] * np.log2(lp[keep_p])))
    weights = np.array([(vq[:, k].conj() @ p @ vq[:, k]).real for k in np.nonzero(keep_q)[0]])
    return term_p - float(np.sum(weights * np.log2(lq[keep_q]))), None


def ref_apply(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def ref_dual_apply(kraus, e):
    return sum(k.conj().T @ e @ k for k in kraus)


def ref_mutual_information(probs, states, elements):
    table = np.array([[max(np.trace(s @ e).real, 0.0) for e in elements] for s in states])
    val = ref_shannon(probs @ table) - sum(p * ref_shannon(row) for p, row in zip(probs, table) if p > 1e-12)
    return max(val, 0.0)


def ref_holevo(kraus, probs, states):
    outs = [ref_apply(kraus, s) for s in states]
    avg = sum(p * o for p, o in zip(probs, outs))
    return max(ref_entropy(avg) - sum(p * ref_entropy(o) for p, o in zip(probs, outs) if p > 1e-12), 0.0)


def ref_sqrt(m):
    lam, vec = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T


def ref_measured_input(kraus, rho, elements):
    root = ref_sqrt(rho)
    blocks = [root @ ref_dual_apply(kraus, e) @ root for e in elements]
    tau = [max(np.trace(b).real, 0.0) for b in blocks]
    middle = sum(ref_entropy(b) for b, t in zip(blocks, tau) if t > 1e-12)
    return max(ref_entropy(rho) - middle + ref_shannon(tau), 0.0)


def ref_povm_violation(elements):
    """(exception type, first offending element or None) of the element-by-element check."""
    d = elements[0].shape[0]
    for i, e in enumerate(elements):
        if np.max(np.abs(e - e.conj().T)) > ATOL_HERMITIAN:
            return InvariantViolation, i
        lam = np.linalg.eigvalsh(0.5 * (e + e.conj().T))
        if lam.min() < -ATOL_PSD or lam.max() > 1.0 + ATOL_PSD:
            return InvariantViolation, i
    if np.max(np.abs(sum(elements) - np.eye(d))) > ATOL_COMPLETENESS:
        return InvariantViolation, None
    return None, None


def ref_density_violation(states):
    for i, s in enumerate(states):
        lam = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
        if (
            np.max(np.abs(s - s.conj().T)) > ATOL_HERMITIAN
            or lam.min() < -ATOL_PSD
            or abs(np.trace(s).real - 1.0) > ATOL_TRACE
        ):
            return i
    return None


def named_index(exc, word):
    found = re.search(rf"{word} (\d+)", str(exc))
    return int(found.group(1)) if found else None


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def psd_stack(rng, n, d):
    return np.array([random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))) for _ in range(n)])


def corrupt(rng, stack, n_bad, kinds):
    """Copy of ``stack`` with ``n_bad`` random elements broken in one of ``kinds`` each."""
    out = np.array(stack)
    d = out.shape[-1]
    for i in rng.choice(len(out), size=min(n_bad, len(out)), replace=False):
        kind = kinds[int(rng.integers(len(kinds)))]
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        if kind == "hermitian":
            out[i, 0, -1] += 1e-6j  # its mirror entry stays
        elif kind == "psd":
            out[i] = out[i] - (np.linalg.eigvalsh(out[i]).max() + 1e-6) * np.outer(v, v.conj())
        elif kind == "identity":
            out[i] = out[i] + (1.0 + 1e-6) * np.outer(v, v.conj())
        else:  # trace
            out[i] = out[i] * (1.0 + 1e-6)
    return out


def channel_instance(seed, d):
    rng = np.random.default_rng(seed)
    ch = random_channel(d, int(rng.integers(1, 5)), seed=seed % 100_000)
    ens = random_ensemble(d, int(rng.integers(1, 5)), rng, pure=bool(rng.integers(2)))
    m = random_povm(d, int(rng.integers(1, 5)), rng)
    return rng, ch, ens, m


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

@CASES
@given(d=dims, n=counts, seed=seeds)
def test_entropies_match_loops(d, n, seed):
    rng = np.random.default_rng(seed)
    stack = psd_stack(rng, n, d) * rng.uniform(0.2, 1.0, size=(n, 1, 1))
    np.testing.assert_allclose(entropy(stack), [ref_entropy(m) for m in stack], rtol=0, atol=TOL)
    assert abs(entropy(stack[0]) - ref_entropy(stack[0])) <= TOL
    rows = np.abs(rng.normal(size=(n, d))) * (rng.random((n, d)) > 0.3)
    np.testing.assert_allclose(shannon_entropy(rows), [ref_shannon(r) for r in rows], rtol=0, atol=TOL)
    np.testing.assert_allclose(matrix_sqrt(stack), [ref_sqrt(m) for m in stack], rtol=0, atol=TOL)


@CASES
@given(d=dims, n=counts, seed=seeds)
def test_relative_entropy_matches_loop(d, n, seed):
    rng = np.random.default_rng(seed)
    p, q = psd_stack(rng, n, d), psd_stack(rng, n, d)
    refs = [ref_relative_entropy(a, b) for a, b in zip(p, q)]
    first_bad = next((k for k, (_, bad) in enumerate(refs) if bad is not None), None)
    if first_bad is None:
        np.testing.assert_allclose(relative_entropy(p, q), [v for v, _ in refs], rtol=0, atol=TOL)
        return
    with pytest.raises(SupportError) as err:
        relative_entropy(p, q)
    assert err.value.eigenvector_index == refs[first_bad][1]
    assert f"of P {first_bad} " in str(err.value)


@CASES
@given(d=dims, seed=seeds)
def test_channel_actions_match_loops(d, seed):
    rng, ch, ens, m = channel_instance(seed, d)
    states, elements = np.asarray(ens.states), np.asarray(m.elements)
    np.testing.assert_allclose(apply(ch, states), [ref_apply(ch.kraus, s) for s in states], rtol=0, atol=TOL)
    dual = [ref_dual_apply(ch.kraus, e) for e in elements]
    np.testing.assert_allclose(dual_apply(ch, elements), dual, rtol=0, atol=TOL)
    np.testing.assert_allclose(dual_povm(ch, m).elements, dual, rtol=0, atol=TOL)
    table = [[max(np.trace(s @ e).real, 0.0) for e in elements] for s in states]
    np.testing.assert_allclose(outcome_distribution(states, m), table, rtol=0, atol=TOL)


@CASES
@given(d=dims, seed=seeds)
def test_information_matches_loops(d, seed):
    rng, ch, ens, m = channel_instance(seed, d)
    outs = [ref_apply(ch.kraus, s) for s in ens.states]
    assert abs(mutual_information(Ensemble(ens.probs, outs), m) - ref_mutual_information(ens.probs, outs, m.elements)) <= TOL
    assert abs(holevo_information(ch, ens) - ref_holevo(ch.kraus, ens.probs, ens.states)) <= TOL
    rho = ens.average_state()
    assert abs(measured_input_information(ch, rho, m) - ref_measured_input(ch.kraus, rho, m.elements)) <= TOL


@CASES
@given(d=dims, seed=seeds)
def test_block_functionals_match_loops(d, seed):
    rng, ch, ens, m = channel_instance(seed, d)
    joint = joint_block_state(ch, ens, m)
    expected = [
        p * (ref_sqrt(o) @ e @ ref_sqrt(o))
        for p, o in zip(ens.probs, (ref_apply(ch.kraus, s) for s in ens.states))
        for e in m.elements
    ]
    np.testing.assert_allclose(joint.blocks, expected, rtol=0, atol=TOL)
    assert joint.labels == tuple((j, b) for j in range(len(ens)) for b in range(len(m)))
    assert abs(block_entropy(joint) - sum(ref_entropy(b) for b in expected)) <= TOL

    by_label = {}
    for (j, b), block in zip(joint.labels, expected):
        by_label[(j,)] = by_label.get((j,), 0) + block
    merged = reduction(joint, "AQ")
    assert merged.labels == tuple(sorted(by_label))
    np.testing.assert_allclose(merged.blocks, [by_label[k] for k in merged.labels], rtol=0, atol=TOL)
    np.testing.assert_allclose(reduction(joint, "Q"), sum(expected), rtol=0, atol=TOL)
    table = np.zeros((len(ens), len(m)))
    for (j, b), block in zip(joint.labels, expected):
        table[j, b] += np.trace(block).real
    np.testing.assert_allclose(reduction(joint, "AB"), table, rtol=0, atol=TOL)

    traces = [np.trace(b).real for b in expected]
    label_term, cond = entropy_decomposition(joint)
    assert abs(label_term - ref_shannon(traces)) <= TOL
    assert abs(cond - sum(t * ref_entropy(b / t) for t, b in zip(traces, expected) if t > 1e-12)) <= TOL

    prod = scaled_block_state(("A", "B"), "Q", table, ens.average_state())
    refs = [ref_relative_entropy(bp, bq) for bp, bq, t in zip(joint.blocks, prod.blocks, traces) if t > 1e-12]
    if all(bad is None for _, bad in refs):
        assert abs(block_relative_entropy(joint, prod) - sum(v for v, _ in refs)) <= TOL
    else:
        with pytest.raises(SupportError):
            block_relative_entropy(joint, prod)


@CASES
@given(seed=seeds, depth=st.integers(1, 3))
def test_flatten_and_stage_ensembles_match_loops(seed, depth):
    rng = np.random.default_rng(seed)
    stages, frontier = {}, [()]
    for _ in range(depth):
        nxt = []
        for prefix in frontier:
            stages[prefix] = random_povm(2, int(rng.integers(1, 4)), rng)
            nxt.extend(prefix + (b,) for b in range(len(stages[prefix])))
        frontier = nxt
    strategy = AdaptiveStrategy(depth, stages)

    def leaves(path, acc):
        if len(path) == depth:
            return [acc]
        return [x for c, e in enumerate(stages[path].elements) for x in leaves(path + (c,), np.kron(acc, e))]

    expected = [x for b, e in enumerate(stages[()].elements) for x in leaves((b,), e)]
    np.testing.assert_array_equal(flatten(strategy).elements, expected)

    ch1 = random_channel(2, int(rng.integers(1, 5)), seed=seed % 100_000)
    e12 = random_ensemble(4, int(rng.integers(2, 5)), rng)
    reduced = [np.trace(s.reshape(2, 2, 2, 2), axis1=1, axis2=3) for s in e12.states]
    np.testing.assert_allclose(first_stage_ensemble(e12, (2, 2)).states, reduced, rtol=0, atol=TOL)
    np.testing.assert_allclose(partial_trace(np.asarray(e12.states), [2, 2], [0]), reduced, rtol=0, atol=TOL)

    m1 = stages[()]
    for b, f in enumerate(m1.elements):
        effect = np.kron(ref_dual_apply(ch1.kraus, f), np.eye(2))
        p_bj = np.array([max(np.trace(s @ effect).real, 0.0) for s in e12.states])
        p_b = float(e12.probs @ p_bj)
        e2, got_p_b = second_stage_ensemble(e12, ch1, m1, b, (2, 2))
        if p_b <= 1e-12:
            assert e2 is None
            continue
        assert abs(got_p_b - p_b) <= TOL
        keep = p_bj * e12.probs / p_b > 1e-12
        blocks = [np.trace((s @ effect).reshape(2, 2, 2, 2), axis1=0, axis2=2) for s in np.asarray(e12.states)[keep]]
        np.testing.assert_allclose(e2.states, [blk / np.trace(blk).real for blk in blocks], rtol=0, atol=1e-9)
        np.testing.assert_allclose(e2.probs, (p_bj * e12.probs)[keep] / p_b, rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

@CASES
@given(d=dims, n=counts, seed=seeds, n_bad=st.integers(0, 3))
def test_povm_validation_matches_loop(d, n, seed, n_bad):
    rng = np.random.default_rng(seed)
    elements = corrupt(rng, random_povm(d, n, rng).elements, n_bad, ["hermitian", "psd", "identity", "trace"])
    kind, index = ref_povm_violation(list(elements))
    if kind is None:
        np.testing.assert_array_equal(Povm(tuple(elements)).elements, elements)
        return
    with pytest.raises(kind) as err:
        Povm(tuple(elements))
    if index is None:
        assert "completeness" in str(err.value)
    else:
        assert named_index(err.value, "element") == index


@CASES
@given(d=dims, n=counts, seed=seeds, n_bad=st.integers(0, 3))
def test_density_validation_matches_loop(d, n, seed, n_bad):
    rng = np.random.default_rng(seed)
    states = corrupt(rng, psd_stack(rng, n, d), n_bad, ["hermitian", "psd", "trace"])
    index = ref_density_violation(states)
    probs = np.full(n, 1.0 / n)
    if index is None:
        assert_density_matrix(states)
        np.testing.assert_array_equal(Ensemble(probs, tuple(states)).states, states)
        return
    with pytest.raises(InvariantViolation) as err:
        Ensemble(probs, tuple(states))
    assert named_index(err.value, "density matrix") == index


@CASES
@given(d=dims, n=counts, seed=seeds, n_bad=st.integers(0, 3))
def test_block_validation_matches_loop(d, n, seed, n_bad):
    rng = np.random.default_rng(seed)
    blocks = corrupt(rng, psd_stack(rng, n, d) / n, n_bad, ["psd"])
    labels = tuple((i,) for i in range(n))
    low = [np.linalg.eigvalsh(0.5 * (b + b.conj().T)).min() for b in blocks]
    index = next((i for i, v in enumerate(low) if v < -ATOL_PSD), None)
    if index is None:
        np.testing.assert_array_equal(BlockDiagonalState(("B",), "R", labels, tuple(blocks)).blocks, blocks)
        return
    with pytest.raises(InvariantViolation) as err:
        BlockDiagonalState(("B",), "R", labels, tuple(blocks))
    assert f"block {labels[index]} " in str(err.value)


@CASES
@given(d=dims, seed=seeds, scale=st.sampled_from([1.0, 1.0 + 1e-6, 0.9]))
def test_channel_validation_matches_loop(d, seed, scale):
    ch = random_channel(d, 1 + seed % 4, seed=seed % 100_000)
    kraus = [k * (scale if i == 0 else 1.0) for i, k in enumerate(ch.kraus)]
    dev = np.max(np.abs(sum(k.conj().T @ k for k in kraus) - np.eye(d)))
    if dev <= ATOL_COMPLETENESS:
        np.testing.assert_array_equal(QuantumChannel(tuple(kraus)).kraus, kraus)
        return
    with pytest.raises(InvariantViolation) as err:
        QuantumChannel(tuple(kraus))
    assert "sum K†K" in str(err.value)


@pytest.mark.parametrize("make", [
    lambda bad: Povm((np.eye(2) / 2, np.eye(2) / 2, bad)),
    lambda bad: QuantumChannel((np.eye(2), np.eye(2), bad)),
    lambda bad: Ensemble(np.full(3, 1 / 3), (np.eye(2) / 2, np.eye(2) / 2, bad)),
    lambda bad: BlockDiagonalState(("B",), "R", ((0,), (1,), (2,)), (np.eye(2) / 4, np.eye(2) / 4, bad)),
])
def test_shape_mismatch_names_element(make):
    with pytest.raises(DimensionMismatchError) as err:
        make(np.eye(3) / 3)
    assert " 2 has shape (3, 3)" in str(err.value)


def test_public_tuples_are_read_only_views():
    rng = np.random.default_rng(5)
    m = random_povm(3, 3, rng)
    ens = random_ensemble(3, 2, rng)
    ch = random_channel(3, 2, seed=5)
    for items in (m.elements, ens.states, ch.kraus):
        assert isinstance(items, tuple)
        assert all(not x.flags.writeable for x in items)
        assert all(x.base is items[0].base for x in items)
