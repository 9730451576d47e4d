"""Adaptive product measurements on few-copy product channels.

An :class:`AdaptiveStrategy` is a tree of POVMs: the stage applied to copy
k depends on the outcomes observed on copies 0..k-1.  ``ConditionalPovm``
builds the depth-2 tree from a first POVM and one second-stage POVM per
first outcome.  Flattening a strategy yields an ordinary POVM whose
elements are tensor products indexed by outcome strings.  The experiments
here probe how the optimised information of such strategies relates to the
single-copy capacities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .capacity import (
    CapacityResult,
    OptimizerConfig,
    blahut_arimoto,
    fixed_measurement_capacity,
    n_state_params,
    pure_states_from_params,
    shannon_capacity,
    _bloch_angles,
    _bloch_of_angles,
    _kernel,
    _mi_and_grad,
    _pauli_form,
    _search,
    _signal_information,
)
from .channels import PAULI, Povm, QuantumChannel, dual_apply, dual_povm, identity_channel, projective_povm
from .errors import DimensionMismatchError, InvariantViolation
from .information import Ensemble, PROB_FLOOR, mutual_information
from .linalg import ATOL_COMPLETENESS, hermitize, partial_trace, tensor, tensor_pairs


@dataclass(frozen=True, eq=False)
class AdaptiveStrategy:
    """Depth-n adaptive measurement tree.

    ``stages[prefix]`` is the POVM applied to subsystem ``len(prefix)`` after
    observing the outcome tuple ``prefix`` on the earlier subsystems.  Every
    reachable prefix shorter than ``depth`` must be present, no other prefix
    may be, and the stages of one level act on one dimension.
    """

    depth: int
    stages: Mapping[tuple[int, ...], Povm]

    def __post_init__(self):
        if self.depth < 1:
            raise InvariantViolation("strategy depth must be at least 1")
        levels = self.levels
        on_tree = {prefix for level in levels[:-1] for prefix in level}
        off_tree = next((prefix for prefix in self.stages if prefix not in on_tree), None)
        if off_tree is not None:
            raise InvariantViolation(f"stage for outcome prefix {off_tree} lies off the outcome tree")
        for k, level in enumerate(levels[:-1]):
            if len({self.stages[prefix].dim for prefix in level}) != 1:
                raise DimensionMismatchError(f"stages for level {k} act on different dimensions")

    @functools.cached_property
    def levels(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The outcome tree level by level: entry k lists the outcome strings of length k.

        Each level is in lexicographic order; entries 0..depth-1 are the stage
        prefixes and entry ``depth`` the outcome strings of the flattened POVM.
        """
        walk = [((),)]
        for _ in range(self.depth):
            missing = next((prefix for prefix in walk[-1] if prefix not in self.stages), None)
            if missing is not None:
                raise InvariantViolation(f"missing stage POVM for outcome prefix {missing}")
            walk.append(tuple(prefix + (b,) for prefix in walk[-1] for b in range(len(self.stages[prefix]))))
        return tuple(walk)

    def stage(self, prefix: tuple[int, ...]) -> Povm:
        return self.stages[prefix]


def ConditionalPovm(first: Povm, second: Sequence[Povm]) -> AdaptiveStrategy:
    """Two-stage adaptive measurement: ``second[b]`` measures the second subsystem after first outcome b."""
    if len(second) != len(first):
        raise DimensionMismatchError(f"{len(second)} second-stage POVMs for {len(first)} first outcomes")
    return AdaptiveStrategy(2, {(): first, **{(b,): povm for b, povm in enumerate(second)}})


def flatten(strategy: AdaptiveStrategy) -> Povm:
    """Flatten an adaptive measurement into one POVM on the product space.

    Elements are the tensor products along each outcome path, ordered
    lexicographically by outcome string; completeness of the result is
    re-verified and a violation names the offending first-stage outcome.
    """
    flat = np.ones((1, 1, 1), dtype=complex)
    for level in strategy.levels[:-1]:  # one tensor product per stage level, left to right along each path
        stages = [strategy.stage(prefix).elements for prefix in level]
        flat = tensor(np.repeat(flat, [len(s) for s in stages], axis=0), np.concatenate(stages))
    first = strategy.stage(()).elements
    starts = np.searchsorted([path[0] for path in strategy.levels[-1]], np.arange(len(first)))
    totals = np.add.reduceat(flat, starts, axis=0)
    expect = tensor(first, np.eye(flat.shape[-1] // first.shape[-1], dtype=complex))
    bad = np.abs(totals - expect).max(axis=(1, 2)) > ATOL_COMPLETENESS
    if bad.any():
        raise InvariantViolation(
            f"conditional stages under first outcome {int(np.argmax(bad))} do not resolve the identity"
        )
    return Povm(flat)


def dual_conditional(channels: list[QuantumChannel], strategy: AdaptiveStrategy) -> AdaptiveStrategy:
    """Pull every stage POVM back through its copy's channel."""
    if len(channels) != strategy.depth:
        raise DimensionMismatchError(f"{len(channels)} channels for depth {strategy.depth}")
    stages = {
        prefix: dual_povm(channels[len(prefix)], povm) for prefix, povm in strategy.stages.items()
    }
    return AdaptiveStrategy(strategy.depth, stages)


# ---------------------------------------------------------------------------
# Induced ensembles
# ---------------------------------------------------------------------------

def first_stage_ensemble(e12: Ensemble, dims: tuple[int, int]) -> Ensemble:
    """Reduced ensemble on the first subsystem."""
    return Ensemble(e12.probs, partial_trace(e12.states, list(dims), keep=[0]))


def second_stage_ensemble(
    e12: Ensemble, ch1: QuantumChannel, m1: Povm, b: int, dims: tuple[int, int]
) -> tuple[Ensemble | None, float]:
    """Conditional ensemble on the second subsystem given first outcome ``b``.

    The conditional states are the first-subsystem-contracted blocks, of
    trace p(b|j), normalised to unit trace; the weights are the posterior
    p(j|b).  Normalising a block of tiny p(b|j) lifts its rounding to
    eigenvalues below 0 (about -1e-6 where p(b|j) ~ 1e-10), so every block
    is first projected onto the PSD cone; that moves it by about the size of
    its negative eigenvalues, and a PSD block only by rounding.  Returns
    ``(None, 0.0)`` when the outcome probability is below the floor.
    """
    effect = tensor(dual_apply(ch1, m1.elements[b]), np.eye(dims[1], dtype=complex))
    p_b_given_j = np.clip(np.einsum("jab,ba->j", e12.states, effect).real, 0.0, None)
    p_b = float(e12.probs @ p_b_given_j)
    if p_b <= PROB_FLOOR:
        return None, 0.0
    weights = p_b_given_j * e12.probs / p_b
    live = weights > PROB_FLOOR
    blocks = partial_trace(e12.states[live] @ effect, list(dims), keep=[1])
    lam, vec = np.linalg.eigh(hermitize(blocks, atol=1e-10))
    lam = np.clip(lam, 0.0, None)
    conditional = (vec * (lam / lam.sum(axis=-1, keepdims=True))[:, None, :]) @ vec.conj().swapaxes(-1, -2)
    posts = weights[live]
    return Ensemble(posts / posts.sum(), conditional), p_b


def chain_identity_check(
    e12: Ensemble,
    ch1: QuantumChannel,
    ch2: QuantumChannel,
    strategy: AdaptiveStrategy,
) -> tuple[float, float, float]:
    """Two routes to the information of a two-stage adaptive measurement.

    Left: mutual information of the ensemble against the flattened pulled-back
    measurement.  Right: first-stage information plus the outcome-averaged
    conditional second-stage informations.  Returns (lhs, rhs, gap).
    """
    dims = (ch1.dim_in, ch2.dim_in)
    dual = dual_conditional([ch1, ch2], strategy)
    lhs = mutual_information(e12, flatten(dual))

    rhs = mutual_information(first_stage_ensemble(e12, dims), dual.stage(()))
    for prefix in strategy.levels[1]:
        e2, p_b = second_stage_ensemble(e12, ch1, strategy.stage(()), prefix[0], dims)
        if e2 is None:
            continue
        rhs += p_b * mutual_information(e2, dual.stage(prefix))
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Conditional-strategy search and the additivity experiments
# ---------------------------------------------------------------------------

def _strategy_param_count(depth: int) -> int:
    # one (theta, phi) projective direction per stage node; 2-outcome stages
    return 2 * (2 ** depth - 1)


def _stage_prefixes(depth: int) -> list[tuple[int, ...]]:
    """Stage nodes of a depth-``depth`` tree of 2-outcome stages, level by level in lexicographic order."""
    return [prefix for level in range(depth) for prefix in product(range(2), repeat=level)]


def _strategy_from_params(x: np.ndarray, depth: int) -> AdaptiveStrategy:
    directions = _bloch_of_angles(x)[0]
    return AdaptiveStrategy(depth, {p: projective_povm(n) for p, n in zip(_stage_prefixes(depth), directions)})


def _require_qubit_outputs(channels: list[QuantumChannel]) -> None:
    dims = [ch.dim_out for ch in channels]
    if any(d != 2 for d in dims):
        raise DimensionMismatchError(f"conditional strategies measure qubit outputs, got output dimensions {dims}")


def _stage_operators(channels: list[QuantumChannel]) -> np.ndarray:
    """Products over the copies of (I, sigma_x, sigma_y, sigma_z), each pulled back through its copy.

    Rows, first copy major.
    """
    paulis = np.stack((np.eye(2, dtype=complex),) + PAULI)
    ops = np.ones((1, 1, 1), dtype=complex)
    for ch in channels:
        ops = tensor_pairs(ops, dual_apply(ch, paulis))
    return ops.reshape(len(ops), -1)


def _path_products(directions: np.ndarray, moments: np.ndarray):
    """Outcome-string values of a tree of projective qubit stages, and their pull-back.

    Stage node P (rows of ``directions``, in ``_stage_prefixes`` order)
    measures (I +- n_P . sigma) / 2, whose Pauli coordinates are
    m = (1, +-n_P) / 2 for outcomes 0 and 1.  For each row of ``moments``,
    given against the products of Pauli coordinates (first stage major), the
    result holds sum_alpha moments[alpha] prod_k m_k(b)[alpha_k] for every
    outcome string b in lexicographic order: one contraction per level, by
    the product rule.  The pull-back takes a gradient in the result to the
    gradient in the directions (rows).
    """
    n, depth = len(moments), (len(directions) + 1).bit_length() - 1
    signs = np.array([1.0, -1.0])[None, :, None]
    levels, inputs, r = [], [], moments
    for k in range(depth):
        nodes = directions[2 ** k - 1: 2 ** (k + 1) - 1, None, :]
        levels.append(0.5 * np.concatenate([np.ones((2 ** k, 2, 1)), signs * nodes], axis=2))
        inputs.append(r.reshape(n, 2 ** k, 4, -1))  # (state, prefix, this stage's coordinate, later ones)
        r = levels[-1] @ inputs[-1]

    def pull_back(g):
        g, grads = g.reshape(r.shape), []
        for k in reversed(range(depth)):
            grads.append((g @ inputs[k].swapaxes(2, 3)).sum(axis=0))
            if k:
                g = (levels[k].swapaxes(1, 2) @ g).reshape(n, 2 ** (k - 1), 2, -1)
        return 0.5 * np.concatenate([m[:, 0, 1:] - m[:, 1, 1:] for m in reversed(grads)])

    return r.reshape(n, -1), pull_back


def _pauli_moments(states: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Re Tr(rho_j O_alpha) of a state stack against the ``_stage_operators`` rows."""
    return (states.reshape(len(states), -1).conj() @ ops.T).real


def _stage_effects(directions: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The pulled-back flattened effects (rows) of the projective stages along ``directions``."""
    return _path_products(directions, np.eye(len(ops)))[0].T @ ops


def _strategy_information(weights: np.ndarray, moments: np.ndarray):
    """Stage angles -> mutual information at fixed weights of the states with these Pauli moments."""
    def objective(xm):
        directions, angles_back = _bloch_of_angles(xm)
        kern, kern_back = _path_products(directions, moments)
        info, g = _mi_and_grad(weights, np.maximum(kern, 0.0))
        return info, angles_back(kern_back(g))

    return objective


def best_conditional_information(
    channels: list[QuantumChannel],
    cfg: OptimizerConfig,
    init_ensemble: Ensemble | None = None,
    init_strategy: AdaptiveStrategy | None = None,
) -> tuple[float, Ensemble, AdaptiveStrategy]:
    """Local search over joint input ensembles and projective adaptive strategies.

    Ensembles hold up to ``cfg.ensemble_size_cap`` pure states on the product
    space; stages are two-outcome projective measurements of each copy's
    qubit output.  Weights come from the exact weight solve on the flattened
    kernel.  The value is a feasible lower bound on the conditional-measurement
    supremum.
    """
    _require_qubit_outputs(channels)
    depth = len(channels)
    dim_total = int(np.prod([c.dim_in for c in channels]))
    n_states = max(cfg.ensemble_size_cap, 2)
    ns = n_state_params(dim_total, n_states)
    nm = _strategy_param_count(depth)
    ops = _stage_operators(channels)

    def moments_of(xs):
        return _pauli_moments(pure_states_from_params(xs, dim_total, n_states), ops)

    def kernel(x):  # of the signal then stage-angle parameters
        return np.maximum(_path_products(_bloch_of_angles(x[ns:])[0], moments_of(x[:ns]))[0], 0.0)

    def state_block(x, w):
        return _signal_information(w, _stage_effects(_bloch_of_angles(x[ns:])[0], ops), dim_total, n_states)

    def start(restart, rng, draw):
        if restart > 0 or init_strategy is None:
            return draw(np.ones(ns + nm), n_draws=12)
        xs = rng.normal(size=ns) if init_ensemble is None else _state_params_of(init_ensemble, dim_total, n_states)
        return np.concatenate([xs, _strategy_params_of(init_strategy)])

    (ens, xm), _ = _search(
        cfg,
        lambda x, _: blahut_arimoto(kernel(x)),  # cold: warm starts move depth-3 values
        [(slice(ns), state_block), (slice(ns, None), lambda x, w: _strategy_information(w, moments_of(x[:ns])))],
        start,
        lambda x, weights, _: (Ensemble(weights, pure_states_from_params(x[:ns], dim_total, n_states)), x[ns:]),
        maxfev_per_param=50,
    )
    strat = _strategy_from_params(xm, depth)
    exact = mutual_information(ens, flatten(dual_conditional(channels, strat)))
    return exact, ens, strat


def _state_params_of(e: Ensemble, dim: int, n_states: int) -> np.ndarray:
    """Parameters reproducing (up to the cap) the pure states of an ensemble."""
    x = np.zeros(n_state_params(dim, n_states))
    order = np.argsort(e.probs)[::-1][:n_states]
    for slot, j in enumerate(order):
        lam, vec = np.linalg.eigh(e.states[j])
        v = vec[:, np.argmax(lam)]
        if dim == 2:
            theta = 2.0 * np.arccos(np.clip(np.abs(v[0]), 0.0, 1.0))
            phi = float(np.angle(v[1]) - np.angle(v[0]))
            x[2 * slot], x[2 * slot + 1] = theta, phi
        else:
            v = v * np.exp(-1j * np.angle(v[np.argmax(np.abs(v))]))
            x[2 * dim * slot: 2 * dim * slot + dim] = v.real
            x[2 * dim * slot + dim: 2 * dim * (slot + 1)] = v.imag
    return x


def _strategy_params_of(strategy: AdaptiveStrategy) -> np.ndarray:
    """Bloch angles of the direction of each stage's first element, in ``_strategy_from_params`` order."""
    firsts = np.stack([strategy.stage(p).elements[0] for p in _stage_prefixes(strategy.depth)])
    x = []
    for n in 2.0 * _pauli_form(firsts)[1]:
        norm = np.linalg.norm(n)
        x.extend(_bloch_angles(n / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])))
    return np.asarray(x)


@dataclass(frozen=True)
class AdditivityReport:
    """Outcome of the two-copy conditional-measurement experiment."""

    capacity_1: float
    capacity_2: float
    conditional_best: float
    product_value: float

    @property
    def capacity_sum(self) -> float:
        return self.capacity_1 + self.capacity_2

    def upper_bound_ok(self, slack: float = 1e-4) -> bool:
        return self.conditional_best <= self.capacity_sum + slack

    def lower_bound_ok(self, slack: float = 2e-3) -> bool:
        return self.product_value >= self.capacity_sum - slack


def product_strategy_value(
    ch1: QuantumChannel,
    ch2: QuantumChannel,
    r1: CapacityResult,
    r2: CapacityResult,
) -> float:
    """Information of the product ensemble and unconditioned product POVM."""
    states = _product_ensemble(r1, r2).states
    dual = Povm(tensor_pairs(dual_apply(ch1, r1.argmax_povm.elements), dual_apply(ch2, r2.argmax_povm.elements)))
    kern = _kernel(states, dual.elements)
    _, weights = blahut_arimoto(kern)
    return mutual_information(Ensemble(weights, states), dual)


def additivity_experiment(
    ch1: QuantumChannel, ch2: QuantumChannel, cfg: OptimizerConfig
) -> AdditivityReport:
    """Compare two-copy conditional strategies against the single-copy capacities.

    Reports the single-copy capacity estimates, the best entangled-ensemble
    conditional-measurement value found (seeded with the product solution so
    the search starts at the additivity point), and the product-strategy
    value.  The conditional best cannot exceed the capacity sum beyond
    optimizer noise; the product value cannot fall below it.  Both channels
    must have qubit outputs, which the conditional stages measure.
    """
    _require_qubit_outputs([ch1, ch2])
    r1 = shannon_capacity(ch1, cfg)
    r2 = shannon_capacity(ch2, cfg)
    product_value = product_strategy_value(ch1, ch2, r1, r2)

    init_strategy = AdaptiveStrategy(
        2,
        {
            (): _projective_like(r1.argmax_povm),
            (0,): _projective_like(r2.argmax_povm),
            (1,): _projective_like(r2.argmax_povm),
        },
    )
    init_ensemble = _product_ensemble(r1, r2)
    conditional_best, _, _ = best_conditional_information(
        [ch1, ch2], cfg, init_ensemble=init_ensemble, init_strategy=init_strategy
    )
    conditional_best = max(conditional_best, product_value)
    return AdditivityReport(r1.value, r2.value, conditional_best, product_value)


def _product_ensemble(r1: CapacityResult, r2: CapacityResult) -> Ensemble:
    probs = np.outer(r1.argmax_ensemble.probs, r2.argmax_ensemble.probs).ravel()
    return Ensemble(probs, tensor_pairs(r1.argmax_ensemble.states, r2.argmax_ensemble.states))


def _projective_like(m: Povm) -> Povm:
    """Nearest two-outcome projective measurement to a qubit POVM's strongest axis."""
    bloch = 2.0 * _pauli_form(m.elements)[1]
    norms = [np.linalg.norm(n) for n in bloch]
    i = int(np.argmax(norms))
    return projective_povm(bloch[i] / norms[i] if norms[i] >= 1e-9 else np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True)
class FixedMeasurementReport:
    """Ensemble-optimised information of a fixed adaptive strategy vs per-stage sums."""

    joint_value: float
    stage_values: tuple[float, ...]

    @property
    def stage_sum(self) -> float:
        return float(sum(self.stage_values))

    @property
    def gap(self) -> float:
        return abs(self.joint_value - self.stage_sum)


def fixed_measurement_additivity(
    channels: list[QuantumChannel],
    strategy: AdaptiveStrategy,
    cfg: OptimizerConfig,
) -> FixedMeasurementReport:
    """Ensemble-only optimisation at a fixed adaptive measurement.

    The joint value optimises input ensembles on the full product space with
    the flattened pulled-back strategy; each stage value is the single-copy
    ensemble optimisation under that stage's POVM (the worst case over the
    stage's prefix-dependent POVMs).  When every stage reuses one POVM, the
    joint value matches the stage sum up to optimizer noise.
    """
    flat = flatten(dual_conditional(channels, strategy))
    joint = fixed_measurement_capacity(identity_channel(flat.dim), flat, cfg)
    stage_values = tuple(
        max(0.0, *(fixed_measurement_capacity(ch, strategy.stage(prefix), cfg).value for prefix in level))
        for ch, level in zip(channels, strategy.levels)
    )
    return FixedMeasurementReport(joint.value, stage_values)
