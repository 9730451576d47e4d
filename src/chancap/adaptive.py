"""Conditional (adaptive) product measurements on few-copy product channels.

A conditional measurement applies a POVM to the first subsystem and, for each
outcome, a possibly different POVM to the next; flattening the stages yields
an ordinary POVM whose elements are tensor products indexed by outcome
strings.  The experiments here probe how the optimised information of such
strategies relates to the single-copy capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .capacity import (
    CapacityResult,
    OptimizerConfig,
    blahut_arimoto,
    fixed_measurement_capacity,
    n_state_params,
    pure_states_from_params,
    shannon_capacity,
    _best_of_draws,
    _best_restart,
    _bloch_angles,
    _bloch_of_angles,
    _block_ascent,
    _block_weights,
    _kernel,
    _mi_fixed_weights,
    _pauli_form,
)
from .channels import Povm, QuantumChannel, dual_apply, dual_povm, projective_povm
from .errors import DimensionMismatchError, InvariantViolation
from .information import Ensemble, PROB_FLOOR, mutual_information
from .linalg import ATOL_COMPLETENESS, hermitize, partial_trace, tensor, tensor_pairs


@dataclass(frozen=True)
class ConditionalPovm:
    """Two-stage adaptive measurement: second-stage POVM depends on the first outcome."""

    first: Povm
    second: tuple[Povm, ...]

    def __post_init__(self):
        if len(self.second) != len(self.first.elements):
            raise DimensionMismatchError(
                f"{len(self.second)} second-stage POVMs for {len(self.first.elements)} first outcomes"
            )
        dims = {m.dim for m in self.second}
        if len(dims) != 1:
            raise DimensionMismatchError("second-stage POVMs act on different dimensions")


@dataclass(frozen=True)
class AdaptiveStrategy:
    """Depth-n adaptive measurement tree.

    ``stages[prefix]`` is the POVM applied to subsystem ``len(prefix)`` after
    observing the outcome tuple ``prefix`` on the earlier subsystems.  Every
    reachable prefix shorter than ``depth`` must be present.
    """

    depth: int
    stages: Mapping[tuple[int, ...], Povm]

    def __post_init__(self):
        if self.depth < 1:
            raise InvariantViolation("strategy depth must be at least 1")
        if () not in self.stages:
            raise InvariantViolation("strategy must define the stage for the empty prefix")
        for prefix in self._prefixes():
            if prefix not in self.stages:
                raise InvariantViolation(f"missing stage POVM for outcome prefix {prefix}")

    def _prefixes(self):
        frontier = [()]
        for _ in range(self.depth - 1):
            nxt = []
            for prefix in frontier:
                povm = self.stages.get(prefix)
                if povm is None:
                    yield prefix  # caught by the validation loop
                    continue
                for b in range(len(povm.elements)):
                    nxt.append(prefix + (b,))
            frontier = nxt
            yield from frontier

    def stage(self, prefix: tuple[int, ...]) -> Povm:
        return self.stages[prefix]


def flatten(measurement: ConditionalPovm | AdaptiveStrategy) -> Povm:
    """Flatten an adaptive measurement into one POVM on the product space.

    Elements are the tensor products along each outcome path, ordered
    lexicographically by outcome string; completeness of the result is
    re-verified and a violation names the offending first-stage outcome.
    """
    strategy = as_strategy(measurement)
    paths, flat = [()], np.ones((1, 1, 1), dtype=complex)
    for _ in range(strategy.depth):  # one tensor product per stage level, left to right along each path
        stages = [np.asarray(strategy.stage(p).elements) for p in paths]
        flat = tensor(np.repeat(flat, [len(s) for s in stages], axis=0), np.concatenate(stages))
        paths = [p + (c,) for p, s in zip(paths, stages) for c in range(len(s))]
    first = np.asarray(strategy.stage(()).elements)
    starts = np.searchsorted([p[0] for p in paths], np.arange(len(first)))
    totals = np.add.reduceat(flat, starts, axis=0)
    expect = tensor(first, np.eye(flat.shape[-1] // first.shape[-1], dtype=complex))
    bad = np.abs(totals - expect).max(axis=(1, 2)) > ATOL_COMPLETENESS
    if bad.any():
        raise InvariantViolation(
            f"conditional stages under first outcome {int(np.argmax(bad))} do not resolve the identity"
        )
    return Povm(flat)


def as_strategy(measurement: ConditionalPovm | AdaptiveStrategy) -> AdaptiveStrategy:
    if isinstance(measurement, AdaptiveStrategy):
        return measurement
    stages: dict[tuple[int, ...], Povm] = {(): measurement.first}
    for b, povm in enumerate(measurement.second):
        stages[(b,)] = povm
    return AdaptiveStrategy(2, stages)


def dual_conditional(
    channels: list[QuantumChannel], measurement: ConditionalPovm | AdaptiveStrategy
) -> AdaptiveStrategy:
    """Pull every stage POVM back through its copy's channel."""
    strategy = as_strategy(measurement)
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
    return Ensemble(e12.probs, partial_trace(np.asarray(e12.states), list(dims), keep=[0]))


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
    states = np.asarray(e12.states)
    p_b_given_j = np.clip(np.einsum("jab,ba->j", states, effect).real, 0.0, None)
    p_b = float(e12.probs @ p_b_given_j)
    if p_b <= PROB_FLOOR:
        return None, 0.0
    weights = p_b_given_j * e12.probs / p_b
    live = weights > PROB_FLOOR
    blocks = partial_trace(states[live] @ effect, list(dims), keep=[1])
    lam, vec = np.linalg.eigh(hermitize(blocks, atol=1e-10))
    lam = np.clip(lam, 0.0, None)
    conditional = (vec * (lam / lam.sum(axis=-1, keepdims=True))[:, None, :]) @ vec.conj().swapaxes(-1, -2)
    posts = weights[live]
    return Ensemble(posts / posts.sum(), conditional), p_b


def chain_identity_check(
    e12: Ensemble,
    ch1: QuantumChannel,
    ch2: QuantumChannel,
    cp: ConditionalPovm,
) -> tuple[float, float, float]:
    """Two routes to the information of a two-stage adaptive measurement.

    Left: mutual information of the ensemble against the flattened pulled-back
    measurement.  Right: first-stage information plus the outcome-averaged
    conditional second-stage informations.  Returns (lhs, rhs, gap).
    """
    dims = (ch1.dim_in, ch2.dim_in)
    dual = dual_conditional([ch1, ch2], cp)
    lhs = mutual_information(e12, flatten(dual))

    rhs = mutual_information(first_stage_ensemble(e12, dims), dual.stage(()))
    for b in range(len(cp.first.elements)):
        e2, p_b = second_stage_ensemble(e12, ch1, cp.first, b, dims)
        if e2 is None:
            continue
        rhs += p_b * mutual_information(e2, dual.stage((b,)))
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


def best_conditional_information(
    channels: list[QuantumChannel],
    cfg: OptimizerConfig,
    init_ensemble: Ensemble | None = None,
    init_strategy: AdaptiveStrategy | None = None,
) -> tuple[float, Ensemble, AdaptiveStrategy]:
    """Local search over joint input ensembles and projective adaptive strategies.

    Ensembles hold up to ``cfg.ensemble_size_cap`` pure states on the product
    space; stages are two-outcome projective measurements.  Weights come from
    the exact weight solve on the flattened kernel.  The value is a feasible lower
    bound on the conditional-measurement supremum.
    """
    depth = len(channels)
    dim_total = int(np.prod([c.dim_in for c in channels]))
    n_states = max(cfg.ensemble_size_cap, 2)
    ns = n_state_params(dim_total, n_states)
    nm = _strategy_param_count(depth)

    def effects_of(xm):
        strat = _strategy_from_params(xm, depth)
        flat = flatten(dual_conditional(channels, strat))
        return np.stack(flat.elements), strat

    last = {"w": None}  # weights of the last value call, held fixed inside both blocks of a sweep

    def value(xs, xm):
        kern = _kernel(pure_states_from_params(xs, dim_total, n_states), effects_of(xm)[0])
        c, last["w"] = blahut_arimoto(kern, tol=1e-9, max_iters=250)
        return c

    def state_block(_, xm):
        w, effects = _block_weights(last["w"]), effects_of(xm)[0]
        return (lambda v: _mi_fixed_weights(w, _kernel(pure_states_from_params(v, dim_total, n_states), effects))), False

    def strategy_block(xs, _):
        w, states = _block_weights(last["w"]), pure_states_from_params(xs, dim_total, n_states)
        return (lambda v: _mi_fixed_weights(w, _kernel(states, effects_of(v)[0]))), False

    def run(restart, rng):
        if restart == 0 and init_strategy is not None:
            xm = _strategy_params_of(init_strategy)
            xs = (
                _state_params_of(init_ensemble, dim_total, n_states)
                if init_ensemble is not None
                else rng.normal(scale=1.0, size=ns)
            )
        else:
            cat = _best_of_draws(
                lambda v: value(v[:ns], v[ns:]),
                lambda r: np.concatenate([r.normal(scale=1.0, size=ns), r.normal(size=nm)]),
                rng,
                n_draws=12,
            )
            xs, xm = cat[:ns], cat[ns:]

        (xs, xm), _, _ = _block_ascent([xs, xm], value, [state_block, strategy_block], cfg, maxfev_per_param=50)

        effects, strat = effects_of(xm)
        states = pure_states_from_params(xs, dim_total, n_states)
        c, weights = blahut_arimoto(_kernel(states, effects), tol=1e-10, max_iters=3000)
        return c, (Ensemble(weights, tuple(states)), strat)

    _, (ens, strat), _ = _best_restart(run, cfg)
    flat = flatten(dual_conditional(channels, strat))
    exact = mutual_information(ens, flat)
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
    kern = _kernel(np.stack(states), np.stack(dual.elements))
    _, weights = blahut_arimoto(kern, tol=1e-10, max_iters=3000)
    return mutual_information(Ensemble(weights, states), dual)


def additivity_experiment(
    ch1: QuantumChannel, ch2: QuantumChannel, cfg: OptimizerConfig
) -> AdditivityReport:
    """Compare two-copy conditional strategies against the single-copy capacities.

    Reports the single-copy capacity estimates, the best entangled-ensemble
    conditional-measurement value found (seeded with the product solution so
    the search starts at the additivity point), and the product-strategy
    value.  The conditional best cannot exceed the capacity sum beyond
    optimizer noise; the product value cannot fall below it.
    """
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
    bloch = 2.0 * _pauli_form(np.stack(m.elements))[1]
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
    strategy: AdaptiveStrategy | ConditionalPovm,
    cfg: OptimizerConfig,
) -> FixedMeasurementReport:
    """Ensemble-only optimisation at a fixed adaptive measurement.

    The joint value optimises input ensembles on the full product space with
    the flattened pulled-back strategy; each stage value is the single-copy
    ensemble optimisation under that stage's POVM (the worst case over the
    stage's prefix-dependent POVMs).  When every stage reuses one POVM, the
    joint value matches the stage sum up to optimizer noise.
    """
    strategy = as_strategy(strategy)
    flat = flatten(dual_conditional(channels, strategy))
    dim_total = int(np.prod([c.dim_in for c in channels]))
    joint = fixed_measurement_capacity(None, flat, cfg, dim=dim_total)

    stage_values = []
    prefixes = [()]
    for k, ch in enumerate(channels):
        best_stage = 0.0
        for prefix in prefixes:
            res = fixed_measurement_capacity(ch, strategy.stage(prefix), cfg)
            best_stage = max(best_stage, res.value)
        stage_values.append(best_stage)
        prefixes = [p + (b,) for p in prefixes for b in range(len(strategy.stage(p).elements))]
    return FixedMeasurementReport(joint.value, tuple(stage_values))
