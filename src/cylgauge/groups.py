"""Structure groups U(1) and SU(2), their complexifications, and Haar integration.

Conventions used throughout the package:

* Lie algebra vectors are coefficient arrays in a fixed orthonormal basis.
  For su(2) the basis is e_j = i*sigma_j/2 (sigma_j the Pauli matrices),
  orthonormal under the Ad-invariant inner product <X, Y> = -2 tr(XY).
  For u(1) the basis element is i, with <X, Y> = Im(X) Im(Y).
* Group elements are unit complex numbers (U1) or SU(2) matrices; their
  complexifications live in C* (nonzero) and SL(2, C) (det = 1).
* Long products drift off the group in floating point; elements carry a
  staleness counter and are re-projected every REPROJECT_EVERY factors.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .montecarlo import MCEstimate, chunked_mc_vector

REPROJECT_EVERY = 64

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

_EYE2 = np.eye(2, dtype=complex)


class GroupKind(Enum):
    """The compact structure group: U(1) or SU(2)."""

    U1 = "u1"
    SU2 = "su2"

    @property
    def algebra_dim(self) -> int:
        return 1 if self is GroupKind.U1 else 3


# plain module names: each GroupKind.U1 read goes through the enum metaclass
_U1, _SU2 = GroupKind.U1, GroupKind.SU2


class BranchCutError(ValueError):
    """Group logarithm requested too close to the antipode of the identity."""


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to meet its tolerance."""


# ---------------------------------------------------------------------------
# Lie algebra vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlgebraVector:
    """Element of the Lie algebra in the fixed orthonormal basis."""

    group: GroupKind
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.group.algebra_dim,):
            raise ValueError(
                f"expected {self.group.algebra_dim} coordinates, got shape {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise ValueError("algebra coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def embed(self) -> Union[complex, np.ndarray]:
        """Matrix form: i*x for u(1), (i/2) x.sigma for su(2)."""
        return embed_algebra(self.group, self.coords)

    def __rmul__(self, c: float) -> "AlgebraVector":
        return AlgebraVector(self.group, c * self.coords)


def zero_vector(group: GroupKind) -> AlgebraVector:
    return AlgebraVector(group, np.zeros(group.algebra_dim))


def embed_algebra(group: GroupKind, coords: np.ndarray) -> Union[complex, np.ndarray]:
    """Embed coordinate arrays (real or complex) as algebra matrices.

    Accepts a trailing coordinate axis of batched input: shape (..., dim).
    """
    coords = np.asarray(coords)
    if group is _U1:
        val = 1j * coords[..., 0]
        return complex(val) if val.ndim == 0 else val
    return 0.5j * np.einsum("...j,jab->...ab", coords, PAULI)


def unembed_algebra(group: GroupKind, matrix) -> np.ndarray:
    """Inverse of :func:`embed_algebra`; returns real coordinates.

    The anti-Hermitian / purely-imaginary part is taken, so small Hermitian
    float noise is discarded.
    """
    if group is _U1:
        return np.array([np.imag(matrix)])
    m = np.asarray(matrix)
    coords = np.einsum("jab,...ba->...j", PAULI, m) / 1j
    return np.real(coords)


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------


def _project_unitary(value, group: GroupKind):
    """Nearest group value; SU2 input may be stacked (..., 2, 2)."""
    if group is _U1:
        return value / abs(value)
    u, _, vh = np.linalg.svd(value)
    p = u @ vh
    if p.ndim == 2:
        return p / np.sqrt(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])
    # stacked: det from real parts, as the scalar complex multiply above forms
    # it (numpy's array complex multiply may round differently)
    a, b, c, d = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]
    det = np.empty(a.shape, dtype=complex)
    det.real = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    det.imag = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return p / np.sqrt(det)[..., None, None]


def _det2(m) -> complex:
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _project_det_one(value, group: GroupKind):
    if group is _U1:
        return value
    return value / np.sqrt(_det2(value))


class ComplexGroupElement:
    """Point of the complexified group: C* (U1) or SL(2, C) (SU2)."""

    __slots__ = ("group", "value", "_staleness")

    _unitary = False
    _validate_tol = 1e-8

    def __init__(self, group: GroupKind, value):
        self.group = group
        if group is _U1:
            value = complex(value)
        else:
            value = np.asarray(value, dtype=complex)
            if value.shape != (2, 2):
                raise ValueError("SU2-side elements are 2x2 complex matrices")
        self.value = value
        self._staleness = 0
        self._validate()

    @classmethod
    def _checked(cls, group: GroupKind, value, staleness: int = 0):
        """Validated element of a value the class formed itself: no coercion."""
        g = cls.__new__(cls)
        g.group, g.value, g._staleness = group, value, staleness
        g._validate()
        return g

    def _validate(self):
        # one pass, in Python complexes (numpy's per-call overhead on 2x2 arrays
        # would dominate every product), accepts a value within tol: every
        # comparison is False on NaN or inf, so passing implies finite entries.
        # validate_values judges a miss: it names the first check that fails
        tol, v = self._validate_tol, self.value
        try:
            if self.group is _U1:
                if abs(abs(v) - 1.0) <= tol if self._unitary else v != 0 and cmath.isfinite(v):
                    return
            else:  # the det error, then the three terms of unitarity_defect
                (a, b), (c, d) = v.tolist()
                if abs(a * d - b * c - 1.0) <= tol and (not self._unitary or (
                    abs(a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0) <= tol
                    and abs(b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0) <= tol
                    and abs(a.conjugate() * b + c.conjugate() * d) <= tol
                )):
                    return
        except OverflowError:  # a modulus beyond the double range
            pass
        validate_values(self.group, np.asarray(v)[None], self._unitary)

    def trace(self) -> complex:
        if self.group is _U1:
            return complex(self.value)
        (a, _), (_, d) = self.value.tolist()  # one numpy call, not two indexings
        return a + d

    def unitarity_defect(self) -> float:
        """Largest entry of |V* V - I|; the off-diagonal pair are conjugates.
        A modulus beyond the double range reads as inf, as in validate_values."""
        try:
            if self.group is _U1:
                return abs(abs(self.value) - 1.0)
            (a, b), (c, d) = self.value.tolist()
            col0 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
            col1 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
            return max(abs(col0 - 1.0), abs(col1 - 1.0), abs(a.conjugate() * b + c.conjugate() * d))
        except OverflowError:
            return math.inf

    def inverse(self) -> "ComplexGroupElement":
        if self.group is _U1:
            return self._checked(self.group, 1.0 / self.value)
        if self._unitary:
            return self._checked(self.group, self.value.conj().T)
        m = self.value
        adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        return self._checked(self.group, adj / _det2(m))

    def __mul__(self, other: "ComplexGroupElement") -> "ComplexGroupElement":
        group = self.group
        if group is not other.group:
            raise ValueError("cannot multiply elements of different groups")
        cls = GroupElement if self._unitary and other._unitary else ComplexGroupElement
        if group is _U1:
            value = self.value * other.value
        else:
            value = self.value.dot(other.value)  # cheaper than @ on 2x2, same bits
        staleness = self._staleness + other._staleness + 1
        if staleness >= REPROJECT_EVERY:
            if cls is GroupElement:
                value = _project_unitary(value, group)
            else:
                value = _project_det_one(value, group)
            staleness = 0
        g = cls.__new__(cls)  # as _checked, without the classmethod call
        g.group, g.value, g._staleness = group, value, staleness
        g._validate()
        return g

    def isclose(self, other: "ComplexGroupElement", tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(np.asarray(self.value) - np.asarray(other.value))) <= tol)

    def __repr__(self):
        return f"{type(self).__name__}({self.group.value}, {self.value!r})"


class GroupElement(ComplexGroupElement):
    """Point of the compact group K itself (unitary, det 1 for SU2)."""

    __slots__ = ()
    _unitary = True


@np.errstate(over="ignore", invalid="ignore")  # overflow reads as inf, and fails
def validate_values(group: GroupKind, values: np.ndarray, unitary: bool = True) -> np.ndarray:
    """The element checks, in order, with their tolerance and messages, over
    a stack of values: (...,) for U1, (..., 2, 2) for SU2.  unitary judges
    K values as GroupElement, else C* or SL(2, C) values as
    ComplexGroupElement.  Returns values."""
    tol, defect = ComplexGroupElement._validate_tol, 0.0
    if group is _U1:
        if not np.all(np.isfinite(values) & (values != 0)):
            raise ValueError("U(1)-side elements must be finite and nonzero")
        if unitary:
            defect = np.abs(np.abs(values) - 1.0)
    else:
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must be finite")
        a, b, c, d = values[..., 0, 0], values[..., 0, 1], values[..., 1, 0], values[..., 1, 1]
        # det cancellation error grows with the entry scale; an err within tol
        # passes at any scale, and past it an overflowing err or scale is no verdict
        scale = np.maximum(1.0, np.max(np.abs(values), axis=(-2, -1)) ** 2)
        err = np.abs(a * d - b * c - 1.0)
        if not (unitary or np.all((err <= tol) | np.isfinite(err + scale))):
            raise OverflowError("SL(2,C) determinant check overflows double precision")
        if np.any(err > tol * scale):
            raise ValueError("SL(2,C) elements must have determinant 1")
        if unitary:
            sq = values.real**2 + values.imag**2
            col0, col1 = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
            off = np.abs(a.conj() * b + c.conj() * d)
            defect = np.maximum(np.maximum(np.abs(col0 - 1.0), np.abs(col1 - 1.0)), off)
    if not np.all(defect <= tol):  # a NaN defect fails too
        raise ValueError("group element is not unitary")
    return values


def _elements(group: GroupKind, values: np.ndarray):
    """GroupElements over the rows of a stack that validate_values has
    passed, without checking each row again."""
    for value in values.tolist() if group is _U1 else values:
        g = GroupElement.__new__(GroupElement)
        g.group, g.value, g._staleness = group, value, 0
        yield g


def identity(group: GroupKind) -> GroupElement:
    if group is _U1:
        return GroupElement(group, 1.0 + 0.0j)
    return GroupElement(group, _EYE2.copy())


# ---------------------------------------------------------------------------
# Exponential map, logarithm, polar decomposition
# ---------------------------------------------------------------------------


def expm_traceless(m: np.ndarray) -> np.ndarray:
    """Exponential of traceless 2x2 matrices (batched over leading axes).

    Uses m^2 = -det(m) I:  exp(m) = cosh(mu) I + sinhc(mu) m,  mu^2 = -det(m).
    Exact up to rounding, valid for complex entries.
    """
    m = np.asarray(m, dtype=complex)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    mu = np.sqrt(-det + 0j)
    small = np.abs(mu) < 1e-6
    mu_safe = np.where(small, 1.0, mu)
    sinhc = np.where(small, 1.0 + mu**2 / 6.0, np.sinh(mu_safe) / mu_safe)
    cosh = np.cosh(mu)
    out = sinhc[..., None, None] * m
    out[..., 0, 0] += cosh
    out[..., 1, 1] += cosh
    return out


def exp_map(
    x: AlgebraVector, complex_part: Optional[AlgebraVector] = None
) -> ComplexGroupElement:
    """exp(embed(x)) in K, or exp(embed(x) + i embed(y)) in the complexified group."""
    group = x.group
    coords = x.coords.astype(complex)
    if complex_part is not None:
        if complex_part.group is not group:
            raise ValueError("real and imaginary parts must share the group")
        coords = coords + 1j * complex_part.coords
    if group is _U1:
        value = np.exp(1j * coords[0])
        cls = GroupElement if complex_part is None else ComplexGroupElement
        return cls(group, value)
    m = embed_algebra(group, coords)
    value = expm_traceless(m)
    if complex_part is None:
        return GroupElement(group, _project_unitary(value, group))
    return ComplexGroupElement(group, value)


def group_log(g: GroupElement) -> AlgebraVector:
    """Principal logarithm on K, inverse of exp_map near the identity.

    Raises BranchCutError at (or numerically near) the antipode, where the
    principal branch is ill-defined.
    """
    group = g.group
    if group is _U1:
        return AlgebraVector(group, np.array([math.atan2(g.value.imag, g.value.real)]))
    u = g.value
    c0 = float(np.real(u[0, 0] + u[1, 1])) / 2.0  # cos(theta/2)
    w = np.real(np.einsum("jab,ba->j", PAULI, u) / 2j)  # sin(theta/2) * axis
    s = float(np.linalg.norm(w))
    if s < 1e-12:
        if c0 < 0:
            raise BranchCutError("logarithm at the antipode -I is undefined")
        return zero_vector(group)
    theta = 2.0 * math.atan2(s, c0)
    if abs(theta - 2.0 * math.pi) < 1e-9:
        raise BranchCutError("logarithm too close to the branch cut")
    return AlgebraVector(group, (theta / s) * w)


def group_distance(a: GroupElement, b: GroupElement) -> float:
    """Bi-invariant Riemannian distance |log(a^-1 b)|."""
    return group_log(a.inverse() * b).norm


@dataclass(frozen=True, eq=False)
class PolarCoordinates:
    """Pair (x, y) with x in K, y in the Lie algebra; represents x exp(i y)."""

    x: GroupElement
    y: AlgebraVector

    def reconstruct(self) -> ComplexGroupElement:
        return self.x * exp_map(zero_vector(self.x.group), self.y)


def _modulus(z: complex) -> float:
    try:
        return abs(z)
    except OverflowError:  # accepted values whose modulus exceeds the double range
        raise OverflowError("positive factor |g| exceeds the double range") from None


def _checked_singular_values(sigma: np.ndarray) -> np.ndarray:
    if sigma[-1] < 1e-12 * sigma[0]:  # a numerical failure, not a bad argument
        raise np.linalg.LinAlgError("positive factor is numerically singular")
    return sigma


def polar_decompose(g: ComplexGroupElement) -> PolarCoordinates:
    """Factor g = x exp(i y) with x unitary and y in the Lie algebra.

    The positive factor is p = (g* g)^(1/2); its unique self-adjoint
    logarithm xi gives y via embed(y) = -i xi.
    """
    group = g.group
    if group is _U1:
        r = _modulus(g.value)
        x = GroupElement(group, g.value / r)
        return PolarCoordinates(x, AlgebraVector(group, np.array([-math.log(r)])))
    u, sigma, vh = np.linalg.svd(g.value)
    _checked_singular_values(sigma)
    x_val = _project_unitary(u @ vh, group)
    v = vh.conj().T
    xi = (v * np.log(sigma)) @ vh  # self-adjoint log of the positive factor
    xi = xi - 0.5 * np.trace(xi) * _EYE2  # scrub determinant drift
    y = AlgebraVector(group, unembed_algebra(group, -1j * xi))
    return PolarCoordinates(GroupElement(group, x_val), y)


def imaginary_radius(g: ComplexGroupElement) -> float:
    """|y| in the polar factorization g = x exp(iy); zero on K itself.

    Off K, from the singular values alone: |log|g|| for U1, and for SU2,
    whose positive factor has eigenvalues exp(+-|y|/2), log(sigma_0/sigma_1).
    """
    if isinstance(g, GroupElement):
        return 0.0
    if g.group is _U1:
        return abs(math.log(_modulus(g.value)))
    sigma = _checked_singular_values(np.linalg.svd(g.value, compute_uv=False))
    return math.log(sigma[0] / sigma[1])


# ---------------------------------------------------------------------------
# Haar measure: sampling and integration
# ---------------------------------------------------------------------------


def haar_sample(group: GroupKind, rng: np.random.Generator) -> GroupElement:
    """One exactly-Haar-distributed element."""
    if group is _U1:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return GroupElement(group, complex(math.cos(theta), math.sin(theta)))
    # _su2_sample_batch(rng, 1)[0] in Python floats, with numpy's operation order
    q0, q1, q2, q3 = rng.normal(size=4).tolist()
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    a, b, c, d = q0 / norm, q1 / norm, q2 / norm, q3 / norm
    return GroupElement(group, np.array([[a + 1j * d, c + 1j * b], [-c + 1j * b, a - 1j * d]]))


def haar_sample_batch(group: GroupKind, rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar draws as validated values, (n,) for U1 or (n, 2, 2) for SU2:
    the rng stream and the values of n calls of haar_sample."""
    if group is _U1:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        values = np.empty(n, dtype=complex)
        values.real, values.imag = np.cos(theta), np.sin(theta)
    else:
        values = _su2_sample_batch(rng, n)
    return validate_values(group, values)


def _su2_sample_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points on the 3-sphere, as SU(2) matrices of shape (n, 2, 2)."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((n, 2, 2), dtype=complex)
    out[:, 0, 0] = a + 1j * d
    out[:, 0, 1] = c + 1j * b
    out[:, 1, 0] = -c + 1j * b
    out[:, 1, 1] = a - 1j * d
    return out


def _gl_nodes(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def su2_euler_grid(level: int):
    """Gauss-Legendre product grid over ZYZ Euler angles with Haar density.

    Returns (matrices (Q,2,2), weights (Q,)) with weights summing to 1.
    """
    al, wal = _gl_nodes(2 * level, 0.0, 2.0 * math.pi)
    be, wbe = _gl_nodes(level, 0.0, math.pi)
    ga, wga = _gl_nodes(2 * level, 0.0, 4.0 * math.pi)
    # U = exp(-i a s3/2) exp(-i b s2/2) exp(-i g s3/2), Haar = sin(b)/(16 pi^2)
    ca, sa = np.exp(-0.5j * al), np.exp(0.5j * al)
    cg, sg = np.exp(-0.5j * ga), np.exp(0.5j * ga)
    cb, sb = np.cos(be / 2.0), np.sin(be / 2.0)
    A, B, G = np.meshgrid(np.arange(al.size), np.arange(be.size), np.arange(ga.size), indexing="ij")
    A, B, G = A.ravel(), B.ravel(), G.ravel()
    mats = np.empty((A.size, 2, 2), dtype=complex)
    mats[:, 0, 0] = ca[A] * cb[B] * cg[G]
    mats[:, 0, 1] = -ca[A] * sb[B] * sg[G]
    mats[:, 1, 0] = sa[A] * sb[B] * cg[G]
    mats[:, 1, 1] = sa[A] * cb[B] * sg[G]
    weights = (wal[A] * np.sin(be[B]) * wbe[B] * wga[G]) / (16.0 * math.pi**2)
    return mats, weights


def su2_weyl_grid(level: int):
    """Eigenvalue-angle grid for class functions: (2/pi) sin^2(t) dt on [0, pi]."""
    t, w = _gl_nodes(4 * level, 0.0, math.pi)
    return t, (2.0 / math.pi) * np.sin(t) ** 2 * w


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float


@functools.lru_cache(maxsize=8)
def _haar_grid(group: GroupKind, level: int, class_function: bool):
    """Quadrature nodes as validated, read-only (values, weights), built once
    per argument triple: (Q,) unit complex numbers for U1, (Q, 2, 2) matrices
    for SU2 on the Euler-angle grid, or on the eigenvalue-angle grid when
    class_function."""
    if group is _U1:
        angles = 2.0 * math.pi * np.arange(level) / level
        values, weights = np.exp(1j * angles), np.full(level, 1.0 / level)
    elif not class_function:
        values, weights = su2_euler_grid(level)
    else:
        thetas, weights = su2_weyl_grid(level)
        values = np.zeros((thetas.size, 2, 2), dtype=complex)
        values[:, 0, 0], values[:, 1, 1] = np.exp(1j * thetas), np.exp(-1j * thetas)
    validate_values(group, values)
    values.flags.writeable = weights.flags.writeable = False
    return values, weights


def _haar_quadrature(group: GroupKind, f, level: int, class_function: bool) -> complex:
    values, weights = _haar_grid(group, level, class_function)
    total = 0.0 + 0.0j
    for g, w in zip(_elements(group, values), weights):
        total += w * f(g)
    return complex(total)


def haar_integrate(
    group: GroupKind,
    f: Callable[[GroupElement], complex],
    *,
    method: str = "quadrature",
    level: int = 16,
    class_function: bool = False,
    n_samples: int = 0,
    seed: Optional[int] = None,
) -> Union[QuadratureResult, MCEstimate]:
    """Integrate f over K against normalized Haar measure.

    method="quadrature": deterministic grids (U1: uniform angles; SU2:
    Gauss-Legendre over Euler angles, or the eigenvalue-angle grid when
    class_function=True).  The error field compares against a coarser grid.
    The grids are cached and read-only, so f must not write into g.value.

    method="monte_carlo": exact Haar sampling, returns an MCEstimate.
    """
    if method == "quadrature":
        if level < 2:
            raise ValueError("quadrature level must be at least 2")
        fine = _haar_quadrature(group, f, level, class_function)
        coarse = _haar_quadrature(group, f, max(2, level // 2), class_function)
        return QuadratureResult(fine, abs(fine - coarse))
    if method == "monte_carlo":
        if seed is None:
            raise ValueError("monte_carlo requires a seed")

        def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
            nodes = _elements(group, haar_sample_batch(group, rng, m))
            return np.array([f(g) for g in nodes], dtype=complex).reshape(m, 1)

        return chunked_mc_vector(sampler, 1, n_samples, seed)[0]
    raise ValueError(f"unknown integration method {method!r}")
