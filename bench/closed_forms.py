"""Closed forms that the benchmark checks cylgauge's outputs against.

Written apart from cylgauge on purpose: a check that reused the program's own
helpers would pass whatever those helpers compute.  Only math and numpy.

Conventions follow the README: su(2) basis e_j = i sigma_j / 2, orthonormal
under <X, Y> = -2 tr(XY), so the SU(2) irrep n has dimension n + 1 and
Casimir n(n+2)/4; the U(1) winding k has Casimir k^2.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def su2_casimir(n: int) -> float:
    return n * (n + 2) / 4.0


def su2_characters(n_max: int, traces) -> np.ndarray:
    """chi_0 .. chi_n_max at elements of trace `traces`, by the Chebyshev
    recursion chi_n = tr chi_{n-1} - chi_{n-2}; shape (n_max + 1,) + traces.shape."""
    t = np.asarray(traces, dtype=complex)
    chars = [np.ones_like(t), t]
    for _ in range(2, n_max + 1):
        chars.append(t * chars[-1] - chars[-2])
    return np.stack(chars[: n_max + 1])


def su2_heat_moment(n: int, s: float) -> float:
    """E[chi_n(h)] under the time-s heat kernel: d_n exp(-s c_n / 2)."""
    return (n + 1) * math.exp(-s * su2_casimir(n) / 2.0)


def u1_heat_moment(k: int, s: float) -> float:
    """E[h^k] under the time-s heat kernel on U(1): exp(-s k^2 / 2)."""
    return math.exp(-s * k * k / 2.0)


def su2_gram_target(a: int, b: int, s: float) -> float:
    """<chi_a, chi_b> in L2(SU(2), rho_s dx): the Clebsch-Gordan labels
    k = |a-b|, |a-b|+2, ..., a+b each contribute d_k exp(-s c_k / 2)."""
    return sum(su2_heat_moment(k, s) for k in range(abs(a - b), a + b + 1, 2))


def heat_flowed_character(n: int, t: float, trace) -> complex:
    """(exp(t Lap / 2) chi_n)(g) = exp(-t c_n / 2) chi_n(g), from tr g."""
    return complex(math.exp(-t * su2_casimir(n) / 2.0) * su2_characters(n, trace)[n])


def su2_exp(coords) -> np.ndarray:
    """exp((i/2) c.sigma) for real or complex coordinates c (shape (3,)):
    the square of M = (i/2) c.sigma is -(c.c)/4 times the identity."""
    c = np.asarray(coords, dtype=complex)
    m = 0.5j * np.einsum("j,jab->ab", c, PAULI)
    mu = np.sqrt(-(c @ c) / 4.0 + 0j)
    sinhc = 1.0 + mu**2 / 6.0 if abs(mu) < 1e-8 else np.sinh(mu) / mu
    return np.cosh(mu) * np.eye(2) + sinhc * m


def su2_holonomy(values) -> np.ndarray:
    """exp(A_{N-1}/N) ... exp(A_0/N) for site values of shape (N, 3), real
    (SU(2)) or complex (SL(2, C)), by plain matrix products."""
    values = np.asarray(values)
    n = values.shape[0]
    h = np.eye(2, dtype=complex)
    for a in values:
        h = su2_exp(a / n) @ h
    return h


def unitarity_defect(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def det2(m) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
