"""Numerical verification that the connection-space Laplacian and heat
semigroup descend to their structure-group counterparts on holonomy
functions, plus the flat radial example and the submersion property.

Everything stochastic here follows one pattern: estimate a moment of the
lattice Gaussian by Monte Carlo and compare with a closed-form heat-kernel
target.  Lattice discretization contributes an O(1/N) bias for SU(2) (the
abelian checks are bias-free), so refinement studies sample at the finest N
and derive the coarser configurations by averaging adjacent sites; the
coupling makes bias differences measurable far below the raw noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .groups import GroupKind, PAULI
from .lattice import (
    AnyConnection,
    LatticeConnection,
    _characters,
    _coupled_levels,
    _gaussian_draw,
    coarsen_coords,
    holonomy,
    holonomy_batch,
    holonomy_traces,
)
from .montecarlo import MCEstimate
from .reporting import Report, ReportRow
from .spectral import (
    CharacterSeries,
    evaluate_series,
    evaluate_series_at_traces,
    heat_moment,
    heat_semigroup,
    irrep_info,
    rho_s_inner_product,
)


class FDStepError(RuntimeError):
    """Step-halving produced inconsistent finite differences (roundoff)."""


# ---------------------------------------------------------------------------
# Laplacian reduction: Delta on connection space vs Delta_K, pointwise
# ---------------------------------------------------------------------------


def _plus_minus_batch(base: np.ndarray, step: float) -> np.ndarray:
    """2 N dim copies of base (N, dim); copies 2i and 2i + 1 move the i-th
    site-major coordinate by +step and -step."""
    n, dim = base.shape
    batch = np.broadcast_to(base, (2 * n * dim,) + base.shape).copy()
    for idx, (k, j) in enumerate(np.ndindex(n, dim)):
        batch[2 * idx, k, j] += step
        batch[2 * idx + 1, k, j] -= step
    return batch


def lattice_laplacian(
    phi: CharacterSeries, L: LatticeConnection, fd_step: float
) -> complex:
    """N * sum of second central differences of phi(h(A)) in the site
    coordinates; the overall N converts to coordinates orthonormal for the
    (1/N)-weighted norm."""
    group, n = L.group, L.n_sites
    batch = _plus_minus_batch(L.values, fd_step)
    shifted = evaluate_series_at_traces(phi, holonomy_traces(group, batch))
    center = complex(evaluate_series_at_traces(phi, holonomy_traces(group, L.values[None, ...]))[0])
    second = (shifted[0::2] + shifted[1::2] - 2.0 * center) / fd_step**2
    return complex(n * second.sum())


def laplacian_reduction_check(
    phi: CharacterSeries,
    L: LatticeConnection,
    fd_step: Optional[float] = None,
    tol: Optional[float] = None,
) -> Report:
    """Compare the lattice Laplacian of phi(h(A)) with (Delta_K phi)(h(A)).

    The finite difference is evaluated at steps h and h/2 and Richardson
    extrapolated; if the two disagree grossly the step has hit roundoff and
    FDStepError is raised.
    """
    group = L.group
    if fd_step is None:
        fd_step = 1e-4 * max(1.0, float(np.max(np.abs(L.values))))
    d_h = lattice_laplacian(phi, L, fd_step)
    d_h2 = lattice_laplacian(phi, L, fd_step / 2.0)
    scale = max(abs(d_h), abs(d_h2), 1e-12)
    if abs(d_h2 - d_h) > 0.5 * scale:
        raise FDStepError(
            f"finite differences at steps {fd_step} and {fd_step / 2} disagree "
            f"({d_h} vs {d_h2}); the step is too small for this configuration"
        )
    estimate = (4.0 * d_h2 - d_h) / 3.0

    h_elem = holonomy(L)
    lap_series = CharacterSeries(
        group,
        {k: -irrep_info(group, abs(k) if group is GroupKind.U1 else k).casimir * c
         for k, c in phi.coeffs.items()},
    )
    target = evaluate_series(lap_series, h_elem)

    if tol is None:
        tol = (
            1e-6 * max(1.0, abs(target))
            if group is GroupKind.U1
            else 8.0 / L.n_sites * max(1.0, abs(target))
        )
    row = ReportRow.deterministic("lattice_laplacian", estimate, target, tol)
    return Report(
        command="laplacian-check",
        params={"N": L.n_sites, "fd_step": fd_step, "group": group.value},
        rows=[row],
        notes={"fd_consistency": abs(d_h2 - d_h)},
    )


# ---------------------------------------------------------------------------
# Heat semigroup reduction (real and complexified base points)
# ---------------------------------------------------------------------------


def semigroup_reduction_check(
    phi: CharacterSeries,
    base: AnyConnection,
    hbar: float,
    n_samples: int,
    seed: int,
    n_workers: Optional[int] = None,
) -> Report:
    """E_B[phi(h(base + B))] with B the time-hbar lattice Gaussian, against
    the closed form: evaluate the heat-flowed series at the (complexified)
    holonomy of the base point."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    group, n = base.group, base.n_sites
    real_base = isinstance(base, LatticeConnection)
    base_coords = base.values if real_base else base.complex_values()
    target = evaluate_series(heat_semigroup(group, hbar, phi), holonomy(base))
    (est,) = _coupled_levels(
        group, _gaussian_draw(group, n, hbar),
        lambda traces: [evaluate_series_at_traces(phi, traces)],
        1, 1, n_samples, seed, bases=[base_coords], n_workers=n_workers,
    )
    row = ReportRow.from_estimate("semigroup_moment", est, target)
    return Report(
        command="semigroup-check",
        params={"N": n, "hbar": hbar, "samples": n_samples, "group": group.value,
                "complex_base": not real_base},
        rows=[row],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Gram / unitarity of the reduced transform under the complex Gaussian
# ---------------------------------------------------------------------------


def gram_isometry_check(
    group: GroupKind,
    n_max: int,
    s: float,
    hbar: float,
    n_sites: int,
    n_samples: int,
    seed: int,
    n_workers: Optional[int] = None,
) -> Report:
    """Gram matrix of the heat-flowed characters under the pushforward of the
    complex lattice Gaussian, versus <chi_a, chi_b> in L2(K, rho_s dx).

    The Monte Carlo side estimates
        E[chi_a(h_C(Z)) conj(chi_b(h_C(Z)))] exp(-hbar (c_a + c_b) / 2)
    and the target expands chi_a chi_b into characters and integrates each
    against rho_s.
    """
    studies = gram_matrix_refinement(
        group, n_max, s, hbar, n_sites, n_samples, seed, n_levels=1, n_workers=n_workers
    )
    rows = [
        ReportRow.from_estimate(f"gram[{a},{b}]", study.estimates[0], study.target)
        for (a, b), study in studies.items()
    ]
    return Report(
        command="gram",
        params={"N": n_sites, "s": s, "hbar": hbar, "samples": n_samples,
                "group": group.value, "n_max": n_max},
        rows=rows,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Radial Laplacian example (flat plane modulo rotations)
# ---------------------------------------------------------------------------


def radial_laplacian_check(
    f: Callable[[float], float],
    r_points: Sequence[float],
    fd_step: float = 1e-4,
    f_prime: Optional[Callable[[float], float]] = None,
    f_second: Optional[Callable[[float], float]] = None,
    tol: float = 1e-6,
) -> Report:
    """Five-point planar Laplacian of f(sqrt(x^2 + y^2)) against the radial
    form f'' + f'/r, plus the orbit-volume correction identity
    grad(log 2 pi r) . grad f = f'/r for circular orbits of circumference
    2 pi r."""
    r_points = list(r_points)
    if any(r <= max(10.0 * fd_step, 1e-3) for r in r_points):
        raise ValueError("radii too close to the singular orbit at r = 0")

    def fp(r: float) -> float:
        if f_prime is not None:
            return f_prime(r)
        return (f(r + fd_step) - f(r - fd_step)) / (2.0 * fd_step)

    def fpp(r: float) -> float:
        if f_second is not None:
            return f_second(r)
        return (f(r + fd_step) - 2.0 * f(r) + f(r - fd_step)) / fd_step**2

    rows = []
    h = fd_step
    for r in r_points:
        x, y = r, 0.0
        five_point = (
            f(math.hypot(x + h, y))
            + f(math.hypot(x - h, y))
            + f(math.hypot(x, y + h))
            + f(math.hypot(x, y - h))
            - 4.0 * f(r)
        ) / h**2
        radial = fpp(r) + fp(r) / r
        rows.append(
            ReportRow.deterministic(f"planar_laplacian[r={r:g}]", five_point, radial, tol)
        )
        # volume term: gradient of log Vol(orbit) dotted with gradient of f
        dlog = (math.log(2.0 * math.pi * (r + h)) - math.log(2.0 * math.pi * (r - h))) / (2.0 * h)
        rows.append(
            ReportRow.deterministic(
                f"volume_term[r={r:g}]", dlog * fp(r), fp(r) / r, tol * max(1.0, abs(fp(r)))
            )
        )
    return Report(command="radial-laplacian", params={"fd_step": fd_step}, rows=rows)


# ---------------------------------------------------------------------------
# Riemannian submersion: singular values of the holonomy differential
# ---------------------------------------------------------------------------


def _batch_su2_log_coords(mats: np.ndarray) -> np.ndarray:
    """Principal log coordinates for a batch of SU(2) matrices (B, 2, 2)."""
    c0 = np.real(mats[:, 0, 0] + mats[:, 1, 1]) / 2.0
    w = np.real(np.einsum("jab,nba->nj", PAULI, mats) / 2j)
    sin_half = np.linalg.norm(w, axis=1)
    theta = 2.0 * np.arctan2(sin_half, c0)
    safe = np.where(sin_half < 1e-14, 1.0, sin_half)
    return (theta / safe)[:, None] * w


def submersion_check(L: LatticeConnection, fd_step: float = 1e-5) -> tuple:
    """Singular values of the differential of A -> holonomy, left translated
    to the identity, in coordinates orthonormal on both sides.

    The quotient metric claim predicts dim(K) singular values equal to 1 up
    to the lattice discretization error O(1/N).
    """
    group, n = L.group, L.n_sites
    base = L.values
    h0 = holonomy(L)
    h0_inv = np.asarray(h0.inverse().value)

    hols = holonomy_batch(group, _plus_minus_batch(base, fd_step))
    if group is GroupKind.U1:
        rel = hols * h0_inv
        coords = np.angle(rel)[:, None]
    else:
        rel = np.einsum("ab,nbc->nac", h0_inv, hols)
        coords = _batch_su2_log_coords(rel)
    grad = (coords[0::2] - coords[1::2]) / (2.0 * fd_step)  # (n*dim, dim)
    jacobian = math.sqrt(n) * grad.T  # orthonormal lattice coordinates
    singular_values = np.linalg.svd(jacobian, compute_uv=False)
    return singular_values, Report(
        command="submersion-check",
        params={"N": n, "group": group.value, "fd_step": fd_step},
        rows=[
            ReportRow.deterministic(
                f"singular_value[{j}]", sv, 1.0, _submersion_tol(L)
            )
            for j, sv in enumerate(singular_values)
        ],
    )


def _submersion_tol(L: LatticeConnection) -> float:
    # measured first-order lattice deviation with headroom; exact for U(1)
    if L.group is GroupKind.U1:
        return 1e-9
    scale = max(1.0, float(np.mean(np.sum(L.values**2, axis=1))))
    return 4.0 * scale / L.n_sites


# ---------------------------------------------------------------------------
# Coupled-refinement machinery for bias studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefinementStudy:
    """Estimates of one moment at N, N/2, N/4, ... from coupled samples.

    extrapolated is the per-sample Richardson combination 2 v_fine - v_half,
    which cancels the leading O(1/N) lattice bias (None for a one-level
    study); bias_ratio estimates (bias at N/2) / (bias at N/4), which is 1/2
    under a clean first-order bias.  targets may differ per level when the
    check's closed form depends on the lattice base point.
    """

    n_sites: tuple
    estimates: tuple
    extrapolated: Optional[MCEstimate]
    targets: tuple

    @property
    def target(self) -> complex:
        return self.targets[0]

    def biases(self) -> list:
        return [e.mean - t for e, t in zip(self.estimates, self.targets)]

    def bias_ratio(self) -> float:
        if len(self.estimates) < 3:
            raise ValueError("need three refinement levels for a bias ratio")
        b = self.biases()
        d1, d2 = b[1] - b[0], b[2] - b[1]
        if abs(d2) == 0.0:
            return math.inf
        return abs(d1) / abs(d2)

    def extrapolated_target(self) -> complex:
        if self.extrapolated is None:
            raise ValueError("need two refinement levels to extrapolate")
        return 2.0 * self.targets[0] - self.targets[1]

    def extrapolated_z(self) -> float:
        target = self.extrapolated_target()
        return self.extrapolated.z_score(target)


def _studies(ests: list, n_fine: int, targets: list) -> list:
    """One RefinementStudy per column of _coupled_levels' output; targets[q]
    holds column q's per-level targets."""
    n_columns, n_levels = len(targets), len(targets[0])
    return [
        RefinementStudy(
            n_sites=tuple(n_fine >> level for level in range(n_levels)),
            estimates=tuple(ests[level * n_columns + q] for level in range(n_levels)),
            extrapolated=ests[n_levels * n_columns + q] if n_levels > 1 else None,
            targets=targets[q],
        )
        for q in range(n_columns)
    ]


def refinement_study(
    group: GroupKind,
    draw_fine: Callable[[np.random.Generator, int], np.ndarray],
    value_of_traces: Callable[[np.ndarray], np.ndarray],
    target: Union[complex, Sequence[complex]],
    n_fine: int,
    n_levels: int,
    n_samples: int,
    seed: int,
    bases: Optional[Sequence[Optional[np.ndarray]]] = None,
    n_workers: Optional[int] = None,
) -> RefinementStudy:
    """Run one moment estimate at n_fine, n_fine/2, ... with shared noise.

    draw_fine(rng, m) supplies the fine-lattice fluctuation; optional bases
    give a deterministic offset per level (e.g. the same smooth profile
    resampled at each resolution), in which case target may also be a
    per-level sequence.
    """
    if n_fine % (1 << (n_levels - 1)):
        raise ValueError("n_fine must be divisible by 2^(n_levels-1)")
    if isinstance(target, (int, float, complex)):
        targets = tuple(complex(target) for _ in range(n_levels))
    else:
        targets = tuple(complex(t) for t in target)
        if len(targets) != n_levels:
            raise ValueError("need one target per refinement level")
    ests = _coupled_levels(
        group, draw_fine, lambda traces: [value_of_traces(traces)], 1, n_levels,
        n_samples, seed, bases=bases, n_workers=n_workers,
    )
    return _studies(ests, n_fine, [targets])[0]


def pushforward_refinement(
    group: GroupKind,
    label: int,
    s: float,
    n_fine: int,
    n_samples: int,
    seed: int,
    n_levels: int = 3,
    n_workers: Optional[int] = None,
) -> RefinementStudy:
    """Coupled-refinement version of the heat-kernel pushforward moment."""
    return refinement_study(
        group, _gaussian_draw(group, n_fine, s),
        lambda traces: _characters(group, (label,), traces)[label],
        heat_moment(group, label, s), n_fine, n_levels, n_samples, seed,
        n_workers=n_workers,
    )


def gram_refinement(
    group: GroupKind,
    a: int,
    b: int,
    s: float,
    hbar: float,
    n_fine: int,
    n_samples: int,
    seed: int,
    n_levels: int = 3,
    n_workers: Optional[int] = None,
) -> RefinementStudy:
    """Coupled-refinement study of one Gram entry.

    Averaging adjacent sites of both the real and imaginary coordinate
    arrays is again an exact draw from the half-resolution complex Gaussian.
    """
    target = rho_s_inner_product(group, a, b, s)
    decay = math.exp(
        -hbar * (irrep_info(group, a).casimir + irrep_info(group, b).casimir) / 2.0
    )

    def value(traces: np.ndarray) -> np.ndarray:
        chars = _characters(group, (a, b), traces)
        return decay * chars[a] * np.conj(chars[b])

    return refinement_study(
        group, _gaussian_draw(group, n_fine, s, hbar), value, target, n_fine,
        n_levels, n_samples, seed, n_workers=n_workers,
    )


def gram_matrix_refinement(
    group: GroupKind,
    n_max: int,
    s: float,
    hbar: float,
    n_fine: int,
    n_samples: int,
    seed: int,
    n_levels: int = 2,
    n_workers: Optional[int] = None,
    conj_first: bool = False,
) -> dict:
    """All Gram entries a <= b <= n_max from one coupled sample stream.

    Returns {(a, b): RefinementStudy}; much cheaper than per-entry studies
    because the holonomy products are shared.  The Monte Carlo side
    estimates E[chi_a(h_C(Z)) conj(chi_b(h_C(Z)))] exp(-hbar (c_a + c_b) / 2)
    against <chi_a, chi_b> in L2(K, rho_s dx); conj_first swaps which factor
    is conjugated, matching the overlap-ordered form
    E[<chi_a|state> <state|chi_b>] of the resolution-of-identity check.
    """
    labels = range(n_max + 1)
    pairs = [(a, b) for a in labels for b in labels if a <= b]
    decay = {a: math.exp(-hbar * irrep_info(group, a).casimir / 2.0) for a in labels}

    def columns(traces: np.ndarray) -> list:
        chars = _characters(group, labels, traces)
        if conj_first:
            return [decay[a] * decay[b] * np.conj(chars[a]) * chars[b] for a, b in pairs]
        return [decay[a] * decay[b] * chars[a] * np.conj(chars[b]) for a, b in pairs]

    ests = _coupled_levels(
        group, _gaussian_draw(group, n_fine, s, hbar), columns, len(pairs), n_levels,
        n_samples, seed, n_workers=n_workers,
    )
    targets = [(complex(rho_s_inner_product(group, a, b, s)),) * n_levels for a, b in pairs]
    return dict(zip(pairs, _studies(ests, n_fine, targets)))
