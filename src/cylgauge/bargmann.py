"""Finite-dimensional heat-kernel (Segal-Bargmann) transforms in one variable.

Two normalizations are covered:

* the flat transform against Lebesgue measure,
    C f(z) = (2 pi hbar)^(-1/2) * integral exp(-(z-q)^2 / 2 hbar) f(q) dq,
  which for real z is plain heat evolution by time hbar;
* the two-parameter variant on L2(R, P_s), P_s Gaussian of variance s,
  unitary onto a holomorphic L2 space with Gaussian density split as
  exp(-q^2/r) exp(-p^2/hbar), r = 2s - hbar.

Unitarity is verified through Gram matrices of a polynomial basis, where the
heat evolution terminates exactly, so only quadrature enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as P


class TailTruncationError(ValueError):
    """Requested evaluation point outside the reliable node range."""


@dataclass(frozen=True)
class HeatParams:
    """Regularization variance s and heat time hbar; r = 2s - hbar > 0."""

    s: float
    hbar: float
    r: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.hbar < math.inf:  # NaN fails too
            raise ValueError("hbar must be positive and finite")
        if not self.hbar / 2.0 < self.s < math.inf:
            raise ValueError(
                f"need finite s > hbar/2 (got s={self.s}, hbar={self.hbar}); "
                "the transform is unitary only in that range"
            )
        r = 2.0 * self.s - self.hbar
        if r == math.inf:
            raise ValueError(f"s={self.s} is too large: r = 2s - hbar overflows")
        object.__setattr__(self, "r", r)


def gauss_hermite_lebesgue(n_nodes: int, scale: float):
    """Hermite nodes/weights rescaled for plain-dq integration.

    Returns (q, w) with integral f(q) dq ~= sum w_i f(q_i), accurate when f
    decays like exp(-q^2 / 2 scale^2) times something smooth.
    """
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    q = math.sqrt(2.0) * scale * x
    w_leb = math.sqrt(2.0) * scale * w * np.exp(x**2)
    return q, w_leb


def gauss_hermite_probabilist(n_nodes: int, variance: float):
    """Nodes/weights for integration against the N(0, variance) density."""
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    return math.sqrt(2.0 * variance) * x, w / math.sqrt(math.pi)


@dataclass(frozen=True, eq=False)
class SampledFunction1D:
    """Function on R held as values on quadrature nodes with dq weights."""

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if not (nodes.shape == values.shape == weights.shape):
            raise ValueError("nodes, values and weights must have equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_callable(
        cls, f: Callable[[np.ndarray], np.ndarray], scale: float, n_nodes: int = 96
    ) -> "SampledFunction1D":
        q, w = gauss_hermite_lebesgue(n_nodes, scale)
        return cls(q, np.asarray(f(q), dtype=complex), w)


def c_transform(f: SampledFunction1D, hbar: float, z: complex) -> complex:
    """Heat evolution by time hbar followed by analytic continuation to z."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    z = complex(z)
    reach = abs(z.real) + 8.0 * math.sqrt(hbar)
    if f.nodes[-1] < reach or f.nodes[0] > -reach:
        raise TailTruncationError(
            f"nodes cover [{f.nodes[0]:.3g}, {f.nodes[-1]:.3g}] but the kernel "
            f"needs +-{reach:.3g}"
        )
    kernel = np.exp(-((z - f.nodes) ** 2) / (2.0 * hbar))
    return complex(np.sum(f.weights * kernel * f.values) / math.sqrt(2.0 * math.pi * hbar))


# ---------------------------------------------------------------------------
# Exact heat flow on polynomials
# ---------------------------------------------------------------------------


def heat_evolve_poly(coeffs: Sequence[complex], t: float) -> np.ndarray:
    """exp(t/2 d^2/dq^2) on polynomial coefficients (terminating series)."""
    out = np.asarray(coeffs, dtype=complex)
    term = out
    order = 0
    while term.size > 2:
        order += 1
        term = P.polyder(term, 2) * (t / 2.0) / order
        out = P.polyadd(out, term)
    return out


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def _normalized_monomials(degree: int, s: float) -> list[np.ndarray]:
    """q^j scaled to unit norm in L2(R, P_s): ||q^j||^2 = (2j-1)!! s^j, a finite float."""
    basis = []
    for j in range(degree + 1):
        try:
            norm2 = _double_factorial(2 * j - 1) * s**j
        except OverflowError:  # float ** int raises where float * float gives inf
            norm2 = math.inf
        if norm2 == math.inf:
            raise ValueError(
                f"s={s} is too large for degree {degree}: the norm (2j-1)!! s^j of q^j overflows at j={j}")
        c = np.zeros(j + 1, dtype=complex)
        c[j] = 1.0 / math.sqrt(norm2)
        basis.append(c)
    return basis


@dataclass(frozen=True)
class GramCheckResult:
    """Gram matrices before/after the transform and their disagreement."""

    gram_domain: np.ndarray
    gram_range: np.ndarray
    max_deviation: float


def s_transform_gram_check(params: HeatParams, basis_degree: int) -> GramCheckResult:
    """Unitarity check on the span of monomials of degree <= basis_degree.

    The domain Gram is taken in L2(R, P_s); each basis element is then heat
    evolved exactly and its continuation integrated against the split
    Gaussian density on C by a 2-D product quadrature.  Unitarity forces the
    two Gram matrices to coincide.  Monomials are normalized in L2(P_s) so
    the deviation is meaningful on an absolute scale for any s.
    """
    if basis_degree < 0 or basis_degree > 8:
        raise ValueError("basis_degree must lie in 0..8")
    basis = _normalized_monomials(basis_degree, params.s)

    n_nodes = 64
    q, wq = gauss_hermite_probabilist(n_nodes, params.s)
    vals = np.array([P.polyval(q, c) for c in basis])
    gram_domain = np.einsum("i,ai,bi->ab", wq, vals.conj(), vals)

    evolved = [heat_evolve_poly(c, params.hbar) for c in basis]
    qs, wqs = gauss_hermite_probabilist(n_nodes, params.r / 2.0)
    ps, wps = gauss_hermite_probabilist(n_nodes, params.hbar / 2.0)
    zgrid = qs[:, None] + 1j * ps[None, :]
    w2d = wqs[:, None] * wps[None, :]
    zvals = np.array([P.polyval(zgrid, c) for c in evolved])
    gram_range = np.einsum("ij,aij,bij->ab", w2d, zvals.conj(), zvals)

    dev = float(np.max(np.abs(gram_domain - gram_range)))
    return GramCheckResult(gram_domain, gram_range, dev)


# ---------------------------------------------------------------------------
# Flat-measure limit: the rescaled Grams approach the Lebesgue version
# ---------------------------------------------------------------------------


def _damped_monomials(degree: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    return [lambda q, j=j: q**j * np.exp(-(q**2) / 2.0) for j in range(degree + 1)]


def c_limit_gram_check(hbar: float, s: float) -> dict:
    """Distance between the variance-s Grams (rescaled by (2 pi s)^(1/2))
    and their flat-measure counterparts.  Both deviations shrink like 1/s.

    Monomials themselves are not square integrable against dq, so the basis
    is q^j exp(-q^2/2), normalized in L2(dq).  The transform side is computed
    by quadrature since the basis is no longer polynomial.
    """
    params = HeatParams(s, hbar)
    funcs = _damped_monomials(1)
    sampled = [SampledFunction1D.from_callable(f, 1.0, 192) for f in funcs]
    n_nodes = 48

    q, wq = gauss_hermite_lebesgue(n_nodes, 1.0)
    fvals = np.array([f(q) for f in funcs])
    gram_flat = np.einsum("i,ai,bi->ab", wq, fvals.conj(), fvals)
    damping = np.exp(-(q**2) / (2.0 * s))
    gram_s = np.einsum("i,i,ai,bi->ab", wq, damping, fvals.conj(), fvals)

    # range side: the transform on a product grid in z = q + ip, with node
    # scales matched to the decay of |Cf|^2 times each density
    qs, wqs = gauss_hermite_lebesgue(n_nodes, math.sqrt((1.0 + hbar) / 2.0))
    pp, wpp = gauss_hermite_probabilist(n_nodes, hbar * (1.0 + hbar) / 2.0)
    # reweight the var-matched nodes to the density exp(-p^2/hbar)/sqrt(pi*hbar)
    density_ratio = math.sqrt(1.0 + hbar) * np.exp(-(pp**2) / (1.0 + hbar))
    tvals = np.array(
        [
            [[c_transform(fs, hbar, complex(qq, p)) for p in pp] for qq in qs]
            for fs in sampled
        ]
    )
    flat_density = wqs[:, None] * (wpp * density_ratio)[None, :]
    s_density = flat_density * (
        math.sqrt(2.0 * s / params.r) * np.exp(-(qs[:, None] ** 2) / params.r)
    )
    gram_flat_range = np.einsum("ij,aij,bij->ab", flat_density, tvals.conj(), tvals)
    gram_s_range = np.einsum("ij,aij,bij->ab", s_density, tvals.conj(), tvals)

    # normalize every Gram by the flat-domain basis norms
    scale = 1.0 / np.sqrt(np.real(np.diag(gram_flat)))
    norm = np.outer(scale, scale)
    return {
        "s": s,
        "hbar": hbar,
        "domain_deviation": float(np.max(np.abs(norm * (gram_s - gram_flat)))),
        "range_deviation": float(np.max(np.abs(norm * (gram_s_range - gram_flat_range)))),
    }
