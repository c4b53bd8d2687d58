"""Classical free motion on lattice connection space and its reduction to
geodesics on the structure group.

The free flow (A, P) -> (A + tP, P) conserves the kinetic energy
(1/2)|P|^2.  When the momentum is the parallel transport of a single
algebra vector X0 along A (the lattice form of the constraint surface), the
holonomy moves along the group geodesic h(A) exp(t X0) up to the O(1/N)
discretization error; for a generic unconstrained momentum it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import (
    AlgebraVector,
    GroupElement,
    GroupKind,
    exp_map,
    group_distance,
    group_log,
    unembed_algebra,
)
from .lattice import (
    LatticeConnection,
    _conjugate,
    holonomy,
    links_of,
    ordered_products,
)


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Position connection and a momentum field of the same shape."""

    a: LatticeConnection
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != self.a.values.shape:
            raise ValueError("momentum must match the connection shape")
        object.__setattr__(self, "p", p)

    @property
    def group(self) -> GroupKind:
        return self.a.group

    @property
    def n_sites(self) -> int:
        return self.a.n_sites


def evolve_free(pt: PhasePoint, t: float) -> PhasePoint:
    """Exact free flow (A, P) -> (A + tP, P)."""
    return PhasePoint(LatticeConnection(pt.group, pt.a.values + t * pt.p), pt.p)


def partial_holonomies(L: LatticeConnection) -> list:
    """T_0 = e, T_k = exp(A_{k-1}/N) ... exp(A_0/N): transport to site k."""
    group, n = L.group, L.n_sites
    if group is GroupKind.U1:
        acc = np.concatenate([[0.0], np.cumsum(L.values[:, 0])]) / n
        return [GroupElement(group, np.exp(1j * a)) for a in acc[:n]]
    return [GroupElement(group, m) for m in ordered_products(links_of(L).links[:-1])]


def make_constrained_pair(L: LatticeConnection, x0: AlgebraVector) -> PhasePoint:
    """Momentum by parallel transport: P_k = T_k X0 T_k^{-1}.

    This is the lattice horizontality condition; the discrete covariant
    difference P_{k+1} - U_k P_k U_k^{-1} vanishes identically on interior
    links (the section may jump at the base point, as the based constraint
    allows).
    """
    group, n = L.group, L.n_sites
    if group is GroupKind.U1:
        return PhasePoint(L, np.tile(x0.coords, (n, 1)))
    transports = np.array([t_k.value for t_k in partial_holonomies(L)])
    return PhasePoint(L, unembed_algebra(group, _conjugate(transports, x0.embed())))


def effective_velocity(pt: PhasePoint) -> AlgebraVector:
    """X_eff = log(h(A)^{-1} h(A + eps P)) / eps, eps = 1e-5, the initial
    holonomy velocity in the group."""
    eps = 1e-5
    h0 = holonomy(pt.a)
    h_eps = holonomy(evolve_free(pt, eps).a)
    return (1.0 / eps) * group_log(h0.inverse() * h_eps)


def geodesic_compare(pt: PhasePoint, t_grid: Sequence[float]) -> tuple:
    """Deviation of the evolved holonomy from the group geodesic.

    Returns (max deviation, per-time deviations) of
    dist(h(A + tP), h(A) exp(t X_eff)) over the grid.
    """
    x_eff = effective_velocity(pt)
    h0 = holonomy(pt.a)
    devs = []
    for t in t_grid:
        evolved = holonomy(evolve_free(pt, t).a)
        geodesic = h0 * exp_map(AlgebraVector(pt.group, t * x_eff.coords))
        devs.append(group_distance(evolved, geodesic))
    return max(devs), devs
