"""A small family of named observables with known ground truth, used by the
certifier cross-checks and handy for demos."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import FunctionalObservable, custom, power, quadratic


@dataclass(frozen=True)
class ZooEntry:
    name: str
    observable: FunctionalObservable
    is_quadratic: bool


def _rank1(dim: int, index: int = 0) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return m


def _spread_diag(dim: int) -> np.ndarray:
    w = np.arange(1, dim + 1, dtype=float)
    return np.diag(w / w.sum()).astype(complex)


def _offdiag_hermitian(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        m[j, j] = 0.1 * (j + 1)
        for k in range(j + 1, dim):
            m[j, k] = 0.2 + 0.1j * (j - k)
            m[k, j] = np.conj(m[j, k])
    return m


def builtin_observables(dim: int) -> list[ZooEntry]:
    """Named observables of one dimension, tagged quadratic or not."""
    if dim < 2:
        raise ValueError("zoo entries need dimension >= 2")
    p0 = _rank1(dim, 0)
    p1 = _rank1(dim, 1)

    def product_eval(batch: np.ndarray) -> np.ndarray:
        a = np.abs(batch[:, 0]) ** 2
        b = np.abs(batch[:, 1]) ** 2
        return a * b

    entries = [
        ZooEntry("identity", quadratic(np.eye(dim, dtype=complex)), True),
        ZooEntry("spread-diagonal", quadratic(_spread_diag(dim)), True),
        ZooEntry("rank1-projector", quadratic(p0), True),
        ZooEntry("offdiag-hermitian", quadratic(_offdiag_hermitian(dim)), True),
        ZooEntry("power2-projector", power(p0, 2), False),
        ZooEntry("power3-projector", power(p0, 3), False),
        ZooEntry("projection-product", custom(product_eval, dim, batch=True), False),
        ZooEntry("power2-plane", power(p0 + p1, 2), False) if dim >= 3 else None,
    ]
    return [e for e in entries if e is not None]
