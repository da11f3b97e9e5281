"""Seeded random generators shared across the test modules, and the
protocols the benchmark's generators write."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from qgas.observers import Observer
from qgas.quantum import Povm, StatisticalMatrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


def random_hermitian(rng, dim, scale=1.0):
    c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (c + c.conj().T) / 2


def random_state(rng, dim):
    c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = c @ c.conj().T
    return StatisticalMatrix(rho / np.trace(rho))


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(c)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_povm(rng, dim, outcomes):
    """Random complete POVM: effects B_i G^(-1/2) with G = sum B_i^dag B_i."""
    blocks = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for _ in range(outcomes)]
    gram = sum(b.conj().T @ b for b in blocks)
    w, v = np.linalg.eigh(gram)
    root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(b @ root_inv for b in blocks))


def random_observer(rng, lab_dim, obs_dim, sectors):
    """An observer whose stacked sectors are the orthonormal columns of a
    random (sectors * obs_dim, lab_dim) matrix."""
    c = rng.normal(size=(sectors * obs_dim, lab_dim)) \
        + 1j * rng.normal(size=(sectors * obs_dim, lab_dim))
    q, _ = np.linalg.qr(c)
    return Observer("random", q.reshape(sectors, obs_dim, lab_dim))


def random_orthogonal_pair(rng, dim):
    """Two orthogonal pure states."""
    u = random_unitary(rng, dim)
    return StatisticalMatrix.pure(u[:, 0]), StatisticalMatrix.pure(u[:, 1])


def skewed_ket(rng, basis, lowest=-4.5):
    """Unit amplitude on one random column of the orthonormal basis and
    amplitudes of 10**lowest to 1e-2.5, with random phases, on all the
    others: outcome probabilities of about 10**(2 lowest) (1e-9 by default)
    to 1e-5 in that basis."""
    dim = basis.shape[0]
    amps = 10.0 ** rng.uniform(lowest, -2.5, size=dim)
    amps = amps * np.exp(2j * np.pi * rng.uniform(size=dim))
    amps[rng.integers(dim)] = 1.0
    return basis @ amps


@functools.cache
def _workloads():
    """bench/workloads.py, loaded once from its file."""
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    # registered before it runs: its dataclasses look their module up by name
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated_sources(workload, seed):
    """The texts of the protocols that the benchmark's ``workload``
    generator (eigen-d8 or long-script) writes for ``seed``."""
    return [p.text for p in _workloads().generate(workload, seed)]
