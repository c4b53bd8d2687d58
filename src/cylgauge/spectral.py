"""Irreducible characters, Casimir eigenvalues, and heat kernels on K.

The heat kernel at the identity is the character series

    rho_t = sum_L  d_L exp(-t c_L / 2) chi_L,

convergent on all of the complexified group.  Characters are evaluated by
the trace recursion (SU2) or integer powers (U1), both of which are
polynomial/Laurent in matrix entries and hence give the unique holomorphic
continuation off K.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from .groups import (
    AlgebraVector,
    ComplexGroupElement,
    ConvergenceError,
    GroupElement,
    GroupKind,
    exp_map,
    haar_sample,
    imaginary_radius,
)

MAX_SERIES_TERMS = 10_000
DEFAULT_TOL_COMPACT = 1e-12
DEFAULT_TOL_COMPLEX = 1e-9

# Validate closed-form Casimirs against the finite-difference oracle only up
# to this label; the oracle loses accuracy at high frequencies while the
# normalization is already pinned by the low labels.
_ORACLE_VALIDATION_MAX_LABEL = 6
_ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class IrrepInfo:
    """Dimension and Casimir eigenvalue of one irreducible representation."""

    group: GroupKind
    label: int
    dim: int
    casimir: float


def _casimir_closed_form(group: GroupKind, label: int) -> float:
    if group is GroupKind.U1:
        return float(label * label)
    # spin j = label/2 under the orthonormal basis e_j = i sigma_j / 2
    return label * (label + 2) / 4.0


def finite_difference_casimir(
    group: GroupKind,
    label: int,
    n_points: int = 20,
    step: float = 1e-2,
    seed: int = 321,
) -> float:
    """Casimir via the Laplacian as a sum of second derivatives.

    At random g, apply Richardson-extrapolated central second differences
    along each basis one-parameter subgroup t -> g exp(t e_j), sum over j,
    and solve Delta chi = -c chi in least squares over the sample points.
    """
    rng = np.random.default_rng(seed)
    num = 0.0
    den = 0.0
    for _ in range(n_points):
        g = haar_sample(group, rng)
        chi = character(group, label, g)
        lap = _fd_laplacian_of_character(group, label, g, step)
        num += (-lap * np.conj(chi)).real
        den += abs(chi) ** 2
    if den < 1e-9:
        raise RuntimeError("character vanished at all sampled points")
    return num / den


def _fd_laplacian_of_character(
    group: GroupKind, label: int, g: GroupElement, step: float
) -> complex:
    def second_diff(h: float) -> complex:
        total = 0.0 + 0.0j
        chi0 = character(group, label, g)
        for j in range(group.algebra_dim):
            coords = np.zeros(group.algebra_dim)
            coords[j] = h
            e_plus = exp_map(AlgebraVector(group, coords))
            e_minus = exp_map(AlgebraVector(group, -coords))
            total += (
                character(group, label, g * e_plus)
                - 2.0 * chi0
                + character(group, label, g * e_minus)
            ) / h**2
        return total

    d_h = second_diff(step)
    d_h2 = second_diff(step / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


_validated_casimirs: Dict[tuple, float] = {}


def irrep_info(group: GroupKind, label: int) -> IrrepInfo:
    """Representation data; the Casimir is checked once against the
    finite-difference oracle so the normalization cannot drift silently."""
    label = int(label)
    if group is GroupKind.SU2 and label < 0:
        raise ValueError("SU(2) labels are nonnegative integers")
    key = (group, label)
    if key not in _validated_casimirs:
        c = _casimir_closed_form(group, label)
        if abs(label) <= _ORACLE_VALIDATION_MAX_LABEL:
            c_fd = finite_difference_casimir(group, label)
            if abs(c_fd - c) > _ORACLE_TOL:
                raise AssertionError(
                    f"Casimir mismatch for {group} label {label}: "
                    f"closed form {c}, finite differences {c_fd}"
                )
        _validated_casimirs[key] = c
    dim = 1 if group is GroupKind.U1 else label + 1
    return IrrepInfo(group, label, dim, _validated_casimirs[key])


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def su2_characters_from_traces(n_max: int, traces: np.ndarray) -> np.ndarray:
    """chi_0..chi_n_max at group elements given by their traces.

    chi_n = tr(g) chi_{n-1} - chi_{n-2}, chi_0 = 1; polynomial in tr(g), so
    valid verbatim on SL(2, C).  Returns shape (n_max + 1,) + traces.shape.
    """
    traces = np.asarray(traces, dtype=complex)
    out = np.empty((n_max + 1,) + traces.shape, dtype=complex)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = traces
    for n in range(2, n_max + 1):
        out[n] = traces * out[n - 1] - out[n - 2]
    return out


def character(group: GroupKind, label: int, g: ComplexGroupElement) -> complex:
    """Holomorphically continued irreducible character at g."""
    if group is GroupKind.U1:
        return complex(g.value**label)
    if label < 0:
        raise ValueError("SU(2) labels are nonnegative integers")
    return complex(su2_characters_from_traces(label, np.asarray(g.trace()))[label])


# ---------------------------------------------------------------------------
# Character series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CharacterSeries:
    """Finite linear combination of irreducible characters."""

    group: GroupKind
    coeffs: Dict[int, complex]

    def __post_init__(self):
        cleaned = {}
        for label, c in self.coeffs.items():
            label = int(label)
            if self.group is GroupKind.SU2 and label < 0:
                raise ValueError("SU(2) labels are nonnegative integers")
            c = complex(c)
            if c != 0:
                cleaned[label] = c
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def single(cls, group: GroupKind, label: int, coeff: complex = 1.0) -> "CharacterSeries":
        return cls(group, {label: coeff})

    def norm_sq(self) -> float:
        """Squared L2(K) norm, by character orthonormality."""
        return float(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def max_label(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def __add__(self, other: "CharacterSeries") -> "CharacterSeries":
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0.0) + c
        return CharacterSeries(self.group, coeffs)

    def __rmul__(self, a: complex) -> "CharacterSeries":
        return CharacterSeries(self.group, {k: a * c for k, c in self.coeffs.items()})


def heat_semigroup(group: GroupKind, t: float, phi: CharacterSeries) -> CharacterSeries:
    """Apply exp(t Lap_K / 2): multiply the coefficient at L by exp(-t c_L / 2)."""
    if t < 0:
        raise ValueError("heat time must be nonnegative")
    return CharacterSeries(
        group,
        {k: c * math.exp(-t * irrep_info(group, k).casimir / 2.0) for k, c in phi.coeffs.items()},
    )


def evaluate_series(phi: CharacterSeries, g: ComplexGroupElement) -> complex:
    """Pointwise value of the series at g (holomorphic continuation off K)."""
    if phi.group is GroupKind.U1:
        return complex(sum(c * g.value**k for k, c in phi.coeffs.items()))
    if not phi.coeffs:
        return 0.0 + 0.0j
    chars = su2_characters_from_traces(phi.max_label(), np.asarray(g.trace()))
    return complex(sum(c * chars[k] for k, c in phi.coeffs.items()))


def evaluate_series_at_traces(phi: CharacterSeries, traces: np.ndarray) -> np.ndarray:
    """Vectorized series evaluation; traces means U(1) values for group U1."""
    traces = np.asarray(traces, dtype=complex)
    out = np.zeros(traces.shape, dtype=complex)
    if phi.group is GroupKind.U1:
        for k, c in phi.coeffs.items():
            out += c * traces**k
        return out
    if phi.coeffs:
        chars = su2_characters_from_traces(phi.max_label(), traces)
        for k, c in phi.coeffs.items():
            out += c * chars[k]
    return out


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _series_plan(group: GroupKind, t: float, y_max: float, tol: float) -> tuple:
    """Coefficients of the heat-kernel series, up to where it is truncated.

    U1: exp(-t k^2 / 2), tail bound 2 exp(-t k^2/2 + k y_max).
    SU2: (n+1) exp(-t n(n+2)/8), bound (n+1)^2 exp(-t n(n+2)/8 + n y_max).
    The stopping rule depends only on (t, y_max, tol), so every evaluation
    at those arguments shares one plan; off K each polar radius is its own key.
    """
    u1 = group is GroupKind.U1
    peak = (1.0 if u1 else 4.0) * y_max / t
    if peak > MAX_SERIES_TERMS:
        raise ConvergenceError(
            f"series peak near term {peak:.0f} exceeds the {MAX_SERIES_TERMS} cap"
        )
    coeffs = [1.0]
    for m in range(1, MAX_SERIES_TERMS + 1):
        # next-term bound (log space); 0.1 leaves headroom for the tail
        if u1:
            coeffs.append(math.exp(-t * m * m / 2.0))
            log_bound = math.log(2.0) - t * (m + 1) ** 2 / 2.0 + (m + 1) * y_max
        else:
            c_m = m * (m + 2) / 4.0
            coeffs.append((m + 1) * math.exp(-t * c_m / 2.0))
            log_bound = 2.0 * math.log(m + 2) - t * (m + 1) * (m + 3) / 8.0 + (m + 1) * y_max
        if log_bound < math.log(0.1 * tol) and m >= peak + 1:
            return tuple(coeffs)
    raise ConvergenceError(f"heat kernel series not below {tol} after {MAX_SERIES_TERMS + 1} terms")


def _su2_series(coeffs: tuple, traces, one):
    """sum_n coeffs[n] chi_n by the trace recursion; traces is an array or a real float."""
    total = one + coeffs[1] * traces
    chi_prev, chi = one, traces
    for c in coeffs[2:]:
        chi, chi_prev = traces * chi - chi_prev, chi
        total += c * chi
    return total


def heat_kernel(
    group: GroupKind,
    t: float,
    g: ComplexGroupElement,
    tol: Optional[float] = None,
) -> Union[float, complex]:
    """Heat kernel at the identity, rho_t(g), continued to the complex group.

    Truncates when the next term bound drops below tol (defaults: 1e-12 on K,
    1e-9 off K).  Returns a real number for g in K.
    """
    if t <= 0:
        raise ValueError("heat time must be positive")
    on_group = isinstance(g, GroupElement)
    if tol is None:
        tol = DEFAULT_TOL_COMPACT if on_group else DEFAULT_TOL_COMPLEX
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if group is GroupKind.SU2 and on_group:
        # the trace is real on K: the same recurrence in Python floats
        return _su2_series(_series_plan(group, t, 0.0, tol), g.trace().real, 1.0)
    points = g.value if group is GroupKind.U1 else g.trace()
    val = heat_kernel_at_traces(group, t, points, imaginary_radius(g), tol)
    return float(val.real) if on_group else complex(val)


def heat_kernel_at_traces(
    group: GroupKind, t: float, traces: np.ndarray, y_max: float, tol: float
) -> np.ndarray:
    """Vectorized heat kernel from traces (U1: element values); y_max must
    bound the polar radius |y| over the whole batch."""
    coeffs = _series_plan(group, t, y_max, tol)
    traces = np.asarray(traces, dtype=complex)
    total = np.ones_like(traces)
    with np.errstate(over="ignore", invalid="ignore"):
        if group is GroupKind.SU2:
            total = _su2_series(coeffs, traces, total)
        else:
            # zpow and zninv are rebound before total first grows in place
            zpow = zninv = total
            zinv = 1.0 / traces
            for c in coeffs[1:]:
                zpow = zpow * traces
                zninv = zninv * zinv
                total += c * (zpow + zninv)
    if not np.all(np.isfinite(total)):
        raise ConvergenceError("heat kernel series overflowed before converging")
    return total


# ---------------------------------------------------------------------------
# Closed-form integrals against rho_s (targets for the reduction checks)
# ---------------------------------------------------------------------------


def character_product_labels(group: GroupKind, a: int, b: int) -> list[int]:
    """Labels in the decomposition of chi_a * chi_b into characters."""
    if group is GroupKind.U1:
        return [a + b]
    return list(range(abs(a - b), a + b + 1, 2))


def heat_moment(group: GroupKind, label: int, s: float) -> float:
    """Integral of chi_label against rho_s dx: d_L exp(-s c_L / 2)."""
    info = irrep_info(group, abs(label) if group is GroupKind.U1 else label)
    return info.dim * math.exp(-s * info.casimir / 2.0)


def rho_s_inner_product(group: GroupKind, a: int, b: int, s: float) -> float:
    """<chi_a, chi_b> in L2(K, rho_s dx), via the character product expansion."""
    if group is GroupKind.U1:
        return heat_moment(group, a - b, s)
    return sum(heat_moment(group, m, s) for m in character_product_labels(group, a, b))
