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
    holonomy,
    holonomy_batch,
    holonomy_traces,
    sample_complex_batch,
)
from .montecarlo import MCEstimate, chunked_mc_vector
from .reporting import Report, ReportRow
from .spectral import (
    CharacterSeries,
    evaluate_series,
    evaluate_series_at_traces,
    heat_semigroup,
    irrep_info,
    rho_s_inner_product,
    su2_characters_from_traces,
)


class FDStepError(RuntimeError):
    """Step-halving produced inconsistent finite differences (roundoff)."""


# ---------------------------------------------------------------------------
# Laplacian reduction: Delta on connection space vs Delta_K, pointwise
# ---------------------------------------------------------------------------


def _series_values_on_coords(phi: CharacterSeries, group: GroupKind, coords: np.ndarray):
    return evaluate_series_at_traces(phi, holonomy_traces(group, coords))


def lattice_laplacian(
    phi: CharacterSeries, L: LatticeConnection, fd_step: float
) -> complex:
    """N * sum of second central differences of phi(h(A)) in the site
    coordinates; the overall N converts to coordinates orthonormal for the
    (1/N)-weighted norm."""
    group, n, dim = L.group, L.n_sites, L.group.algebra_dim
    base = L.values
    batch = np.broadcast_to(base, (2 * n * dim,) + base.shape).copy()
    idx = 0
    for k in range(n):
        for j in range(dim):
            batch[idx, k, j] += fd_step
            batch[idx + 1, k, j] -= fd_step
            idx += 2
    shifted = _series_values_on_coords(phi, group, batch)
    center = complex(_series_values_on_coords(phi, group, base[None, ...])[0])
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
    dim = group.algebra_dim
    real_base = isinstance(base, LatticeConnection)
    base_coords = base.values if real_base else base.complex_values()
    target = evaluate_series(heat_semigroup(group, hbar, phi), holonomy(base))

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        noise = rng.normal(scale=math.sqrt(hbar * n), size=(m, n, dim))
        vals = _series_values_on_coords(phi, group, base_coords[None, ...] + noise)
        return vals.reshape(m, 1)

    est = chunked_mc_vector(sampler, 1, n_samples, seed, n_workers=n_workers)[0]
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


def _char_table_at_traces(group: GroupKind, n_max: int, traces: np.ndarray) -> np.ndarray:
    """Rows chi_a(traces) for a = 0..n_max."""
    if group is GroupKind.U1:
        return np.stack([traces**k for k in range(n_max + 1)])
    return su2_characters_from_traces(n_max, traces)


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
    entries = gram_pushforward_estimates(
        group, n_max, s, hbar, n_sites, n_samples, seed, n_workers=n_workers
    )
    rows = [
        ReportRow.from_estimate(f"gram[{a},{b}]", est, target)
        for a, b, est, target in entries
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
    group, n, dim = L.group, L.n_sites, L.group.algebra_dim
    base = L.values
    h0 = holonomy(L)
    h0_inv = np.asarray(h0.inverse().value)

    batch = np.broadcast_to(base, (2 * n * dim,) + base.shape).copy()
    idx = 0
    for k in range(n):
        for j in range(dim):
            batch[idx, k, j] += fd_step
            batch[idx + 1, k, j] -= fd_step
            idx += 2
    hols = holonomy_batch(group, batch)
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


def coarsen_coords(coords: np.ndarray) -> np.ndarray:
    """Average adjacent sites: an exact sample of the half-resolution
    Gaussian, strongly coupled to the fine one."""
    if coords.shape[1] % 2:
        raise ValueError("site count must be even to coarsen")
    return 0.5 * (coords[:, 0::2] + coords[:, 1::2])


@dataclass(frozen=True)
class RefinementStudy:
    """Estimates of one moment at N, N/2, N/4, ... from coupled samples.

    extrapolated is the per-sample Richardson combination 2 v_fine - v_half,
    which cancels the leading O(1/N) lattice bias; bias_ratio estimates
    (bias at N/2) / (bias at N/4), which is 1/2 under a clean first-order
    bias.  targets may differ per level when the check's closed form depends
    on the lattice base point.
    """

    n_sites: tuple
    estimates: tuple
    extrapolated: MCEstimate
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
        return 2.0 * self.targets[0] - self.targets[1]

    def extrapolated_z(self) -> float:
        return self.extrapolated.z_score(self.extrapolated_target())


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
    if bases is None:
        bases = [None] * n_levels
    if isinstance(target, (int, float, complex)):
        targets = tuple(complex(target) for _ in range(n_levels))
    else:
        targets = tuple(complex(t) for t in target)
        if len(targets) != n_levels:
            raise ValueError("need one target per refinement level")

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        noise = draw_fine(rng, m)
        cols = []
        for level in range(n_levels):
            coords = noise if bases[level] is None else noise + bases[level][None, ...]
            cols.append(value_of_traces(holonomy_traces(group, coords)))
            if level + 1 < n_levels:
                noise = coarsen_coords(noise)
        cols.append(2.0 * cols[0] - cols[1])  # per-sample Richardson column
        return np.stack(cols, axis=1)

    ests = chunked_mc_vector(sampler, n_levels + 1, n_samples, seed, n_workers=n_workers)
    sites = tuple(n_fine >> level for level in range(n_levels))
    return RefinementStudy(
        n_sites=sites,
        estimates=tuple(ests[:n_levels]),
        extrapolated=ests[n_levels],
        targets=targets,
    )


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
    info = irrep_info(group, abs(label) if group is GroupKind.U1 else label)
    target = info.dim * math.exp(-s * info.casimir / 2.0)
    dim = group.algebra_dim

    def draw_fine(rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.normal(scale=math.sqrt(s * n_fine), size=(m, n_fine, dim))

    def value(traces: np.ndarray) -> np.ndarray:
        if group is GroupKind.U1:
            return traces**label
        return su2_characters_from_traces(label, traces)[label]

    return refinement_study(
        group, draw_fine, value, target, n_fine, n_levels, n_samples, seed,
        n_workers=n_workers,
    )


def gram_pushforward_estimates(
    group: GroupKind,
    n_max: int,
    s: float,
    hbar: float,
    n_sites: int,
    n_samples: int,
    seed: int,
    conj_first: bool = False,
    n_workers: Optional[int] = None,
) -> list:
    """Shared estimator for the transform Gram under the complex Gaussian.

    Returns [(a, b, MCEstimate, target)] for a <= b <= n_max.  conj_first
    swaps which factor is conjugated, matching the overlap-ordered form
    E[<chi_a|state> <state|chi_b>] used by the resolution-of-identity check.
    """
    labels = range(n_max + 1)
    pairs = [(a, b) for a in labels for b in labels if a <= b]
    decay = {a: math.exp(-hbar * irrep_info(group, a).casimir / 2.0) for a in labels}

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        re, im = sample_complex_batch(group, n_sites, s, hbar, rng, m)
        traces = holonomy_traces(group, re + 1j * im)
        chars = _char_table_at_traces(group, n_max, traces)
        if conj_first:
            cols = [decay[a] * decay[b] * np.conj(chars[a]) * chars[b] for a, b in pairs]
        else:
            cols = [decay[a] * decay[b] * chars[a] * np.conj(chars[b]) for a, b in pairs]
        return np.stack(cols, axis=1)

    ests = chunked_mc_vector(sampler, len(pairs), n_samples, seed, n_workers=n_workers)
    return [
        (a, b, est, rho_s_inner_product(group, a, b, s))
        for (a, b), est in zip(pairs, ests)
    ]


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
    n_top = max(a, b)

    def draw_fine(rng: np.random.Generator, m: int) -> np.ndarray:
        re, im = sample_complex_batch(group, n_fine, s, hbar, rng, m)
        return re + 1j * im

    def value(traces: np.ndarray) -> np.ndarray:
        chars = _char_table_at_traces(group, n_top, traces)
        return decay * chars[a] * np.conj(chars[b])

    return refinement_study(
        group, draw_fine, value, target, n_fine, n_levels, n_samples, seed,
        n_workers=n_workers,
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
) -> dict:
    """All Gram entries a <= b <= n_max from one coupled sample stream.

    Returns {(a, b): RefinementStudy}; much cheaper than per-entry studies
    because the holonomy products are shared.
    """
    labels = range(n_max + 1)
    pairs = [(a, b) for a in labels for b in labels if a <= b]
    decay = {a: math.exp(-hbar * irrep_info(group, a).casimir / 2.0) for a in labels}

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        re, im = sample_complex_batch(group, n_fine, s, hbar, rng, m)
        noise = re + 1j * im
        per_level = []
        for level in range(n_levels):
            chars = _char_table_at_traces(group, n_max, holonomy_traces(group, noise))
            per_level.append(
                [decay[a] * decay[b] * chars[a] * np.conj(chars[b]) for a, b in pairs]
            )
            if level + 1 < n_levels:
                noise = coarsen_coords(noise)
        cols = [col for level_cols in per_level for col in level_cols]
        cols += [2.0 * f - h for f, h in zip(per_level[0], per_level[1])]
        return np.stack(cols, axis=1)

    n_pairs = len(pairs)
    ests = chunked_mc_vector(
        sampler, n_levels * n_pairs + n_pairs, n_samples, seed, n_workers=n_workers
    )
    sites = tuple(n_fine >> level for level in range(n_levels))
    out = {}
    for idx, (a, b) in enumerate(pairs):
        target = rho_s_inner_product(group, a, b, s)
        out[(a, b)] = RefinementStudy(
            n_sites=sites,
            estimates=tuple(ests[level * n_pairs + idx] for level in range(n_levels)),
            extrapolated=ests[n_levels * n_pairs + idx],
            targets=tuple(complex(target) for _ in range(n_levels)),
        )
    return out
