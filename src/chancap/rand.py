"""Seeded random instances for tests, experiments and the CLI.

Every generator takes an explicit ``numpy.random.Generator`` so that a single
seed reproduces a whole experiment.
"""

from __future__ import annotations

import numpy as np

from .channels import Povm
from .information import Ensemble
from .linalg import matrix_pinv_sqrt


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = random_state_vector(dim, rng)
    return np.outer(v, v.conj())


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_probability_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


def random_ensemble(dim: int, n_states: int, rng: np.random.Generator, pure: bool = True) -> Ensemble:
    probs = random_probability_vector(n_states, rng)
    maker = random_pure_state if pure else random_density_matrix
    return Ensemble(probs, [maker(dim, rng) for _ in range(n_states)])


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """General-rank POVM: random PSD seeds renormalised by their sum.

    With A_b PSD and S = sum A_b, the family S^{-1/2} A_b S^{-1/2} is complete
    by construction and every element sits between 0 and I.
    """
    seeds = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        seeds.append(g @ g.conj().T)
    total = sum(seeds)
    isq = matrix_pinv_sqrt(total)
    return Povm([isq @ a @ isq for a in seeds])


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * np.where(np.abs(d) > 0, np.sign(d), 1.0)
