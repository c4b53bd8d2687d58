"""Heat-kernel coherent states on the structure group.

A state is labeled by a point g of the complexified group together with the
heat time hbar and the regularization variance s:

    state_g(x) = conj(rho_hbar(g x^-1)) / rho_s(x),        s finite,
    state_g(x) = conj(rho_hbar(g x^-1)),                   s = infinity,

where rho_t is the analytically continued heat kernel.  Overlaps against a
character series phi compute the holomorphic function exp(hbar Lap/2) phi
at g, which is checked here along two independent routes (series evaluation
versus Haar quadrature) and through sampled resolution-of-identity Grams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import (
    ComplexGroupElement,
    GroupElement,
    GroupKind,
    PolarCoordinates,
    imaginary_radius,
    su2_euler_grid,
    _u1_grid,
)
from .reduction import gram_matrix_refinement
from .reporting import Report, ReportRow
from .spectral import (
    CharacterSeries,
    DEFAULT_TOL_COMPLEX,
    evaluate_series,
    evaluate_series_at_traces,
    heat_kernel,
    heat_kernel_at_traces,
    heat_semigroup,
)


@dataclass(frozen=True, eq=False)
class CoherentLabel:
    """Label (g, hbar, s); s = math.inf selects the limit states."""

    g: ComplexGroupElement
    hbar: float
    s: float = math.inf

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if not math.isinf(self.s) and self.s <= self.hbar / 2.0:
            raise ValueError("finite s must exceed hbar/2")

    @classmethod
    def from_polar(cls, polar: PolarCoordinates, hbar: float, s: float = math.inf):
        return cls(polar.reconstruct(), hbar, s)

    @property
    def group(self) -> GroupKind:
        return self.g.group


def coherent_eval(label: CoherentLabel, x: GroupElement, tol: float = 1e-8) -> complex:
    """Pointwise value of the state at x in K.

    The finite-s denominator rho_s(x) is strictly positive; tol guards the
    division anyway.
    """
    numerator = np.conj(heat_kernel(label.group, label.hbar, label.g * x.inverse()))
    if math.isinf(label.s):
        return complex(numerator)
    denominator = heat_kernel(label.group, label.s, x)
    if denominator <= tol:
        raise ZeroDivisionError(
            f"rho_s(x) = {denominator} below the {tol} guard; state undefined here"
        )
    return complex(numerator / denominator)


@dataclass(frozen=True)
class OverlapResult:
    route_analytic: complex
    route_quadrature: complex

    @property
    def difference(self) -> float:
        return abs(self.route_analytic - self.route_quadrature)


def _grid_for(group: GroupKind, level: int):
    """Haar grid as (traces-or-values, matrices-or-values, weights)."""
    if group is GroupKind.U1:
        values, weights = _u1_grid(level)
        return values, values, weights
    mats, weights = su2_euler_grid(level)
    return np.trace(mats, axis1=-2, axis2=-1), mats, weights


def coherent_overlap(
    label: CoherentLabel,
    phi: CharacterSeries,
    quad_level: int = 16,
    tol: Optional[float] = None,
) -> OverlapResult:
    """<state_g | phi> along two routes.

    Route A evaluates the heat-flowed series at g.  Route B integrates
    conj(state_g(x)) phi(x) against the appropriate weight (rho_s for finite
    s, plain Haar for the limit states) on a quadrature grid.  If tol is
    given and the routes disagree beyond it, the quadrature level was
    insufficient and a ValueError is raised.
    """
    group = label.group
    route_a = evaluate_series(heat_semigroup(group, label.hbar, phi), label.g)

    traces, elems, weights = _grid_for(group, quad_level)
    if group is GroupKind.U1:
        gxinv = label.g.value * np.conj(traces)
    else:
        ginv_mats = np.conj(np.transpose(elems, (0, 2, 1)))  # x^-1 for unitary x
        gxinv = np.einsum("ab,qba->q", label.g.value, ginv_mats)
    y_max = imaginary_radius(label.g)
    hk = heat_kernel_at_traces(group, label.hbar, gxinv, y_max, DEFAULT_TOL_COMPLEX)
    phi_vals = evaluate_series_at_traces(phi, traces)
    if math.isinf(label.s):
        integrand = hk * phi_vals
    else:
        rho_s = np.real(heat_kernel_at_traces(group, label.s, traces, 0.0, 1e-12))
        states = np.conj(hk) / rho_s
        integrand = np.conj(states) * phi_vals * rho_s
    route_b = complex(np.sum(weights * integrand))

    result = OverlapResult(route_a, route_b)
    if tol is not None and result.difference > tol:
        raise ValueError(
            f"overlap routes differ by {result.difference:.3e} (> {tol}); "
            "raise the quadrature level"
        )
    return result


def resolution_identity_check(
    group: GroupKind,
    n_max: int,
    hbar: float,
    s_values: Sequence[float],
    n_sites: int,
    n_samples: int,
    seed: int,
    n_workers: Optional[int] = None,
) -> Report:
    """Sampled resolution-of-identity Grams against their finite-s targets.

    For each s, points g are drawn by pushing the complex lattice Gaussian
    through the holonomy, and R_ab = E[<chi_a|state_g><state_g|chi_b>] is
    estimated with the limit states, whose overlaps are the heat-flowed
    characters.  The closed-form target is <chi_a, chi_b> in L2(K, rho_s dx);
    as s grows both sides approach the identity matrix.
    """
    rows = []
    trend = {}
    for s in s_values:
        studies = gram_matrix_refinement(
            group, n_max, s, hbar, n_sites, n_samples, seed,
            n_levels=1, n_workers=n_workers, conj_first=True,
        )
        off_diag = 0.0
        diag_gap = 0.0
        for (a, b), study in studies.items():
            est, target = study.estimates[0], study.target
            rows.append(ReportRow.from_estimate(f"resolution[s={s:g}][{a},{b}]", est, target))
            if a == b:
                diag_gap = max(diag_gap, abs(target - 1.0))
            else:
                off_diag = max(off_diag, abs(target))
        trend[s] = {"max_offdiag_target": off_diag, "max_diag_gap_target": diag_gap}
    return Report(
        command="resolution-check",
        params={"N": n_sites, "hbar": hbar, "samples": n_samples,
                "group": group.value, "n_max": n_max,
                "s_values": list(map(float, s_values))},
        rows=rows,
        seed=seed,
        notes={"s_trend": trend},
    )


def holomorphy_witness(
    label: CoherentLabel,
    phi: CharacterSeries,
    direction: np.ndarray,
    fd_step: float = 1e-5,
) -> float:
    """Cauchy-Riemann defect of g -> overlap along one algebra direction.

    Holomorphy demands d/dt F(g exp(t i E)) = i d/dt F(g exp(t E)); returns
    the absolute difference of the two central-difference derivatives.
    """
    from .groups import AlgebraVector, exp_map, zero_vector

    group = label.group
    direction = np.asarray(direction, dtype=float)
    zero = zero_vector(group)
    flowed = heat_semigroup(group, label.hbar, phi)

    def overlap_at(g: ComplexGroupElement) -> complex:
        return evaluate_series(flowed, g)

    def along(step: float, imaginary: bool) -> complex:
        vec = AlgebraVector(group, step * direction)
        move = exp_map(zero, vec) if imaginary else exp_map(vec)
        return overlap_at(label.g * move)

    d_real = (along(fd_step, False) - along(-fd_step, False)) / (2.0 * fd_step)
    d_imag = (along(fd_step, True) - along(-fd_step, True)) / (2.0 * fd_step)
    return abs(d_imag - 1j * d_real)
