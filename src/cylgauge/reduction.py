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
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import GroupKind, PAULI
from .lattice import (
    LatticeConnection,
    RefinementStudy,
    _characters,
    _coupled_levels,
    _gaussian_draw,
    holonomy,
    holonomy_batch,
    holonomy_traces,
)
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


def laplacian_reduction_check(phi: CharacterSeries, L: LatticeConnection) -> Report:
    """Compare the lattice Laplacian of phi(h(A)) with (Delta_K phi)(h(A)).

    The finite difference is evaluated at steps h and h/2 and Richardson
    extrapolated; if the two disagree grossly the step has hit roundoff and
    FDStepError is raised.
    """
    group = L.group
    fd_step = (1e-3 * L.n_sites if group is GroupKind.U1  # phi(h(A)) sees only mean(A): roundoff ~ (N / step)^2
               else 1e-4 * max(1.0, float(np.max(np.abs(L.values)))))
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
        {k: -irrep_info(group, k).casimir * c for k, c in phi.coeffs.items()},
    )
    target = evaluate_series(lap_series, h_elem)

    tol = (1e-6 if group is GroupKind.U1 else 8.0 / L.n_sites) * max(1.0, abs(target))
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
    base: LatticeConnection,
    hbar: float,
    n_samples: int,
    seed: int,
    n_workers: Optional[int] = None,
) -> Report:
    """E_B[phi(h(base + B))] with B the time-hbar lattice Gaussian, against
    the closed form: evaluate the heat-flowed series at the (complexified)
    holonomy of the base point."""
    if not 0.0 < hbar < math.inf:  # NaN fails too
        raise ValueError("hbar must be positive and finite")
    group, n = base.group, base.n_sites
    target = evaluate_series(heat_semigroup(group, hbar, phi), holonomy(base))
    (study,) = _coupled_levels(
        group, _gaussian_draw(group, n, hbar),
        lambda traces: [evaluate_series_at_traces(phi, traces)],
        [(target,)], n, n_samples, seed, bases=[base.values], n_workers=n_workers,
    )
    row = ReportRow.from_estimate("semigroup_moment", study.estimates[0], target)
    return Report(
        command="semigroup-check",
        params={"N": n, "hbar": hbar, "samples": n_samples, "group": group.value,
                "complex_base": np.iscomplexobj(base.values)},
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
    f_prime: Callable[[float], float],
    f_second: Callable[[float], float],
) -> Report:
    """Five-point planar Laplacian (step 1e-4) of f(sqrt(x^2 + y^2)) against
    the radial form f'' + f'/r from the given derivatives, plus the
    orbit-volume correction identity grad(log 2 pi r) . grad f = f'/r for
    circular orbits of circumference 2 pi r; both to 1e-6."""
    h, tol = 1e-4, 1e-6
    r_points = list(r_points)
    if not all(1e-3 < r < math.inf for r in r_points):  # NaN fails too
        raise ValueError("radii must be finite and above 1e-3, ten steps from the singular orbit r = 0")

    rows = []
    for r in r_points:
        x, y = r, 0.0
        five_point = (
            f(math.hypot(x + h, y))
            + f(math.hypot(x - h, y))
            + f(math.hypot(x, y + h))
            + f(math.hypot(x, y - h))
            - 4.0 * f(r)
        ) / h**2
        d1 = f_prime(r)
        radial = f_second(r) + d1 / r
        rows.append(
            ReportRow.deterministic(f"planar_laplacian[r={r:g}]", five_point, radial, tol)
        )
        # volume term: gradient of log Vol(orbit) dotted with gradient of f
        dlog = (math.log(2.0 * math.pi * (r + h)) - math.log(2.0 * math.pi * (r - h))) / (2.0 * h)
        rows.append(
            ReportRow.deterministic(
                f"volume_term[r={r:g}]", dlog * d1, d1 / r, tol * max(1.0, abs(d1))
            )
        )
    return Report(command="radial-laplacian", params={"fd_step": h}, rows=rows)


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


def submersion_check(L: LatticeConnection) -> tuple:
    """Singular values of the differential of A -> holonomy, left translated
    to the identity, in coordinates orthonormal on both sides, from central
    differences at step 1e-5.

    The quotient metric claim predicts dim(K) singular values equal to 1 up
    to the lattice discretization error O(1/N).
    """
    group, n = L.group, L.n_sites
    base, fd_step = L.values, 1e-5
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
    (study,) = _coupled_levels(
        group, _gaussian_draw(group, n_fine, s),
        lambda traces: [_characters(group, (label,), traces)[label]],
        [(heat_moment(group, label, s),) * n_levels], n_fine, n_samples, seed,
        n_workers=n_workers,
    )
    return study


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
) -> dict:
    """All Gram entries a <= b <= n_max from one coupled sample stream.

    Returns {(a, b): RefinementStudy}; much cheaper than per-entry studies
    because the holonomy products are shared.  The Monte Carlo side
    estimates E[chi_a(h_C(Z)) conj(chi_b(h_C(Z)))] exp(-hbar (c_a + c_b) / 2)
    against <chi_a, chi_b> in L2(K, rho_s dx).  A bad (s, hbar) raises
    before any target or draw.
    """
    draw = _gaussian_draw(group, n_fine, s, hbar)
    labels = range(n_max + 1)
    pairs = [(a, b) for a in labels for b in labels if a <= b]
    decay = {a: math.exp(-hbar * irrep_info(group, a).casimir / 2.0) for a in labels}

    def columns(traces: np.ndarray) -> list:
        chars = _characters(group, labels, traces)
        return [decay[a] * decay[b] * chars[a] * np.conj(chars[b]) for a, b in pairs]

    targets = [(rho_s_inner_product(group, a, b, s),) * n_levels for a, b in pairs]
    studies = _coupled_levels(group, draw, columns, targets, n_fine, n_samples, seed, n_workers=n_workers)
    return dict(zip(pairs, studies))
