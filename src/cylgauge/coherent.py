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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .groups import ComplexGroupElement, GroupKind, imaginary_radius, _haar_grid
from .reduction import gram_matrix_refinement
from .reporting import Report, ReportRow
from .spectral import (
    CharacterSeries,
    DEFAULT_TOL_COMPLEX,
    evaluate_series,
    evaluate_series_at_traces,
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
        if not 0.0 < self.hbar < math.inf:  # NaN fails too
            raise ValueError("hbar must be positive and finite")
        if not self.s > self.hbar / 2.0:  # NaN and -inf fail too
            raise ValueError("s must exceed hbar/2 (math.inf selects the limit states)")

    @property
    def group(self) -> GroupKind:
        return self.g.group


@dataclass(frozen=True)
class OverlapResult:
    route_analytic: complex
    route_quadrature: complex

    @property
    def difference(self) -> float:
        return abs(self.route_analytic - self.route_quadrature)


def coherent_overlap(label: CoherentLabel, phi: CharacterSeries, quad_level: int = 16) -> OverlapResult:
    """<state_g | phi> along two routes.

    Route A evaluates the heat-flowed series at g.  Route B integrates
    conj(state_g(x)) phi(x) against the appropriate weight (rho_s for finite
    s, plain Haar for the limit states) on a quadrature grid.  The routes
    agree when the quadrature level resolves the integrand.
    """
    group = label.group
    route_a = evaluate_series(heat_semigroup(group, label.hbar, phi), label.g)

    nodes, weights = _haar_grid(group, quad_level, False)
    if group is GroupKind.U1:
        traces = nodes  # U1 series are evaluated at the values themselves
        gxinv = label.g.value * np.conj(traces)
    else:
        traces = np.trace(nodes, axis1=-2, axis2=-1)
        ginv_mats = np.conj(np.transpose(nodes, (0, 2, 1)))  # x^-1 for unitary x
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
    return OverlapResult(route_a, route_b)


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
            n_levels=1, n_workers=n_workers,
        )
        off_diag = 0.0
        diag_gap = 0.0
        for (a, b), study in studies.items():
            # <chi_a|state><state|chi_b> is the conjugate of the Gram moment and
            # the target is real; 0.0 - im keeps a zero imaginary part +0.0
            est, target = study.estimates[0], study.target
            est = replace(est, mean=complex(est.mean.real, 0.0 - est.mean.imag))
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

