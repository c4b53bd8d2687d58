"""Finite lattice discretization of connections on the spatial circle.

A connection is held as N algebra vectors A_k ~ A(k/N); its squared norm is
the Riemann sum (1/N) sum_k |A_k|^2.  The Gaussian measure with formal
density exp(-|A|^2 / 2s) therefore has per-coordinate variance s N, which
diverges with N exactly as the continuum white-noise picture demands.

The holonomy solves dh/dtau = A(tau) h(tau), h(0) = e, so the product form
is exp(A_{N-1}/N) ... exp(A_0/N) with the latest factor leftmost.  Under a
based gauge map the link variables transform as U_k -> g_{k+1} U_k g_k^{-1},
which telescopes: the holonomy is exactly invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .groups import (
    AlgebraVector,
    ComplexGroupElement,
    GroupElement,
    GroupKind,
    embed_algebra,
    expm_traceless,
    group_log,
    identity,
    unembed_algebra,
    _project_unitary,
)
from .montecarlo import MCEstimate, chunked_mc_vector
from .spectral import heat_moment, su2_characters_from_traces


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LatticeConnection:
    """Real connection on N sites of the circle."""

    group: GroupKind
    values: np.ndarray  # (N, dim)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != self.group.algebra_dim:
            raise ValueError("values must have shape (N >= 2, algebra_dim)")
        if not np.all(np.isfinite(values)):
            raise ValueError("lattice values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n_sites(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return 1.0 / self.n_sites

    def norm_sq(self) -> float:
        return float(np.sum(self.values**2) / self.n_sites)

    def site(self, k: int) -> AlgebraVector:
        return AlgebraVector(self.group, self.values[k])

    def __add__(self, other: "LatticeConnection") -> "LatticeConnection":
        return LatticeConnection(self.group, self.values + other.values)

    def __rmul__(self, c: float) -> "LatticeConnection":
        return LatticeConnection(self.group, c * self.values)


@dataclass(frozen=True, eq=False)
class ComplexLatticeConnection:
    """Complexified connection Z_k = A_k + i P_k."""

    group: GroupKind
    real_part: np.ndarray
    imag_part: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.real_part, dtype=float)
        im = np.asarray(self.imag_part, dtype=float)
        if re.shape != im.shape:
            raise ValueError("real and imaginary parts must be aligned")
        if re.ndim != 2 or re.shape[0] < 2 or re.shape[1] != self.group.algebra_dim:
            raise ValueError("parts must have shape (N >= 2, algebra_dim)")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ValueError("lattice values must be finite")
        object.__setattr__(self, "real_part", re)
        object.__setattr__(self, "imag_part", im)

    @property
    def n_sites(self) -> int:
        return self.real_part.shape[0]

    def complex_values(self) -> np.ndarray:
        return self.real_part + 1j * self.imag_part


AnyConnection = Union[LatticeConnection, ComplexLatticeConnection]


@dataclass(frozen=True, eq=False)
class LatticeGaugeMap:
    """Based gauge map: group elements g_0..g_{N-1} with g_0 = e; g_N = e implied."""

    group: GroupKind
    elements: tuple

    def __post_init__(self):
        elems = tuple(self.elements)
        if len(elems) < 2:
            raise ValueError("need at least two sites")
        if elems[0].unitarity_defect() > 1e-12 or not elems[0].isclose(identity(self.group), 1e-12):
            raise ValueError("gauge map must be based: g_0 = identity")
        object.__setattr__(self, "elements", elems)

    @property
    def n_sites(self) -> int:
        return len(self.elements)

    def element(self, k: int) -> GroupElement:
        """g_k with the periodic identification g_N = g_0 = e."""
        return self.elements[k % self.n_sites]


@dataclass(frozen=True, eq=False)
class LinkConfiguration:
    """Link variables U_k, one per lattice interval."""

    group: GroupKind
    links: np.ndarray  # (N,) complex for U1, (N, 2, 2) for SU2

    @property
    def n_sites(self) -> int:
        return self.links.shape[0]

    def holonomy(self) -> GroupElement:
        if self.group is GroupKind.U1:
            return GroupElement(self.group, complex(np.prod(self.links)))
        h = np.eye(2, dtype=complex)
        for k in range(self.n_sites):
            h = self.links[k] @ h
        return GroupElement(self.group, _project_unitary(h, self.group))

    def link(self, k: int) -> GroupElement:
        return GroupElement(self.group, self.links[k])


# ---------------------------------------------------------------------------
# Batched holonomy kernel
#
# An SU(2) step is a quaternion (w, v) standing for w I + v.sigma, and
# (w1, v1)(w2, v2) = (w1 w2 + v1.v2, w1 v2 + w2 v1 + i v1 x v2).  Real
# connections keep b = -i v (value w I + i b.sigma) and stay in floats.
# The components are four site-major (N, B) arrays, so sites k and k+1 of all
# B configurations are two contiguous rows; each level of the pairwise
# product tree is a few whole-array operations, an odd last site carried up.
# Operation and operand order are fixed (numpy's complex a b and b a may
# round differently), so the bits do not depend on batch size or layout.
# ---------------------------------------------------------------------------


def _su2_steps(coords: np.ndarray, real: bool) -> list:
    """Steps exp((i/2) c.sigma / N) for coords (B, N, 3) as [w, x, y, z],
    each (N, B): (w, b) for real coordinates, (w, v) for complex ones."""
    comps = np.divide(coords.transpose(2, 1, 0), coords.shape[1], order="C")
    sq = (comps[0] * comps[0] + comps[1] * comps[1]) + comps[2] * comps[2]
    if real:
        theta = 0.5 * np.sqrt(sq)
        small = theta < 1e-8
        safe = np.where(small, 1.0, theta) if small.any() else theta
        w, scale = np.cos(theta), 0.5 * np.sin(safe) / safe
        scale[small] = 0.5 * (1.0 - theta[small] ** 2 / 6.0)
    else:
        mu = 0.5 * np.sqrt(-sq + 0j)
        small = np.abs(mu) < 1e-8
        safe = np.where(small, 1.0, mu) if small.any() else mu
        w, scale = np.cosh(mu), np.sinh(safe) / safe
        scale[small] = 1.0 + mu[small] ** 2 / 6.0
        scale = 0.5j * scale
    return [w] + [np.multiply(scale, c, out=c) for c in comps]


def _quat_mul(q1: list, q2: list, real: bool, w_only: bool) -> list:
    """Product q1 q2 of component lists; [w] alone when w_only."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    dot = (x1 * x2 + y1 * y2) + z1 * z2
    w = w1 * w2 - dot if real else w1 * w2 + dot
    if w_only:
        return [w]
    vec = (w1 * x2 + w2 * x1, w1 * y2 + w2 * y1, w1 * z2 + w2 * z1)
    cross = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
    if real:
        return [w] + [v - c for v, c in zip(vec, cross)]
    return [w] + [v + 1j * c for v, c in zip(vec, cross)]


def _holonomy_quats(coords: np.ndarray, w_only: bool = False) -> list:
    """Ordered products q[N-1] ... q[0] as [w, x, y, z] of shape (B,), or
    [w] alone when w_only."""
    if len(coords) > 1024:  # blocks of 1024 configurations keep a level's arrays in cache
        starts = range(0, len(coords), 1024)
        blocks = [_holonomy_quats(coords[lo:lo + 1024], w_only) for lo in starts]
        return [np.concatenate(parts) for parts in zip(*blocks)]
    real = not np.iscomplexobj(coords)
    q = _su2_steps(coords, real)
    while len(q[0]) > 1:
        n = len(q[0])
        odd = n % 2
        left, right = [a[1:n - odd:2] for a in q], [a[0:n - odd:2] for a in q]
        prod = _quat_mul(left, right, real, w_only and n == 2)
        q = [np.concatenate([p, a[n - 1:]]) if odd else p for p, a in zip(prod, q)]
    return [a[0] for a in q]


def _quat_to_matrix(q: list, real: bool) -> np.ndarray:
    w, x, y, z = q
    if real:
        w = w.astype(complex)
        x, y, z = 1j * x, 1j * y, 1j * z
    return np.stack([np.stack([w + z, x - 1j * y], -1), np.stack([x + 1j * y, w - z], -1)], -2)


def holonomy_batch(group: GroupKind, coords: np.ndarray) -> np.ndarray:
    """Holonomy of a batch of configurations, coords of shape (B, N, dim).

    Complex coordinate arrays give the complexified holonomy.  Returns (B,)
    complex values for U1 and (B, 2, 2) matrices for SU2.
    """
    coords = np.asarray(coords)
    if group is GroupKind.U1:
        return np.exp(1j * coords[..., 0].mean(axis=1))
    return _quat_to_matrix(_holonomy_quats(coords), not np.iscomplexobj(coords))


def holonomy_traces(group: GroupKind, coords: np.ndarray) -> np.ndarray:
    """Batch holonomy reduced to traces (U1: the element values themselves)."""
    coords = np.asarray(coords)
    if group is GroupKind.U1:
        return np.exp(1j * coords[..., 0].mean(axis=1))
    return 2.0 * _holonomy_quats(coords, w_only=True)[0].astype(complex)


def _element_from_matrix(group: GroupKind, value, real: bool):
    if real:
        return GroupElement(group, _project_unitary(value, group))
    return ComplexGroupElement(group, value)


def holonomy(L: AnyConnection, method: str = "product"):
    """Holonomy around the circle; complex input gives the complexified one.

    method="product": exact solution for the piecewise-constant connection.
    method="rk4": classical Runge-Kutta with step 1/(4N) on the periodic
    linear interpolation of the site values.
    """
    real = isinstance(L, LatticeConnection)
    coords = L.values if real else L.complex_values()
    if method == "product":
        value = holonomy_batch(L.group, coords[None, ...])[0]
        return _element_from_matrix(L.group, value, real)
    if method != "rk4":
        raise ValueError(f"unknown holonomy method {method!r}")
    n = L.n_sites
    substeps = 4
    dt = 1.0 / (substeps * n)
    if L.group is GroupKind.U1:
        h = 1.0 + 0.0j
    else:
        h = np.eye(2, dtype=complex)
    for k in range(n):
        a = embed_algebra(L.group, coords[k])
        # one classical RK4 substep of h' = a h with constant a equals
        # multiplication by the degree-4 Taylor polynomial of exp(a dt)
        if L.group is GroupKind.U1:
            z = a * dt
            step = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
            h = step**substeps * h
        else:
            z = a * dt
            z2 = z @ z
            step = np.eye(2, dtype=complex) + z + z2 / 2.0 + (z2 @ z) / 6.0 + (z2 @ z2) / 24.0
            for _ in range(substeps):
                h = step @ h
    return _element_from_matrix(L.group, h, real)


def links_of(L: LatticeConnection) -> LinkConfiguration:
    """Link variables U_k = exp(A_k / N)."""
    n = L.n_sites
    if L.group is GroupKind.U1:
        return LinkConfiguration(L.group, np.exp(1j * L.values[:, 0] / n))
    return LinkConfiguration(L.group, expm_traceless(embed_algebra(L.group, L.values / n)))


# ---------------------------------------------------------------------------
# Gauge action
# ---------------------------------------------------------------------------


def gauge_transform(
    L: Union[LatticeConnection, LinkConfiguration],
    gauge: LatticeGaugeMap,
    level: str = "link",
):
    """Apply a based gauge map.

    level="link": U_k -> g_{k+1} U_k g_k^{-1} on link variables (holonomy is
    exactly invariant by telescoping).  Accepts a connection (converted via
    links_of) or a LinkConfiguration; returns a LinkConfiguration.

    level="algebra": A_k -> g_k A_k g_k^{-1} + N log(g_{k+1} g_k^{-1}), the
    discretization of conjugation plus the derivative translation term; the
    holonomy then drifts by O(1/N).
    """
    if gauge.n_sites != L.n_sites:
        raise ValueError("gauge map and configuration must share the site count")
    group = L.group
    n = L.n_sites
    if level == "link":
        cfg = links_of(L) if isinstance(L, LatticeConnection) else L
        if group is GroupKind.U1:
            g = np.array([e.value for e in gauge.elements], dtype=complex)
            g_next = np.roll(g, -1)
            return LinkConfiguration(group, g_next * cfg.links / g)
        new_links = np.empty_like(cfg.links)
        for k in range(n):
            gk = gauge.element(k).value
            gk1 = gauge.element(k + 1).value
            new_links[k] = gk1 @ cfg.links[k] @ gk.conj().T
        return LinkConfiguration(group, new_links)
    if level != "algebra":
        raise ValueError(f"unknown gauge level {level!r}")
    if not isinstance(L, LatticeConnection):
        raise ValueError("algebra-level action applies to LatticeConnection")
    new_values = np.empty_like(L.values)
    for k in range(n):
        gk = gauge.element(k)
        gk1 = gauge.element(k + 1)
        translation = n * group_log(gk1 * gk.inverse()).coords
        if group is GroupKind.U1:
            new_values[k] = L.values[k] + translation
        else:
            rotated = gk.value @ embed_algebra(group, L.values[k]) @ gk.value.conj().T
            new_values[k] = unembed_algebra(group, rotated) + translation
    return LatticeConnection(group, new_values)


def gauge_map_between(a: LinkConfiguration, b: LinkConfiguration) -> LatticeGaugeMap:
    """Based gauge map carrying links a to links b, from the telescoping
    recursion g_{k+1} = b_k g_k a_k^{-1}.

    The recursion closes up (g_N = e) exactly when the two holonomies agree;
    the caller can measure the returned map's closure defect via
    closure_defect().
    """
    if a.group is not b.group or a.n_sites != b.n_sites:
        raise ValueError("configurations must share group and site count")
    group = a.group
    g = identity(group)
    elems = [g]
    for k in range(a.n_sites - 1):
        g = b.link(k) * g * a.link(k).inverse()
        elems.append(g)
    return LatticeGaugeMap(group, tuple(elems))


def closure_defect(gauge: LatticeGaugeMap, a: LinkConfiguration, b: LinkConfiguration) -> float:
    """|g_N - e| for the recursion above; 0 iff the map truly carries a to b."""
    k = a.n_sites - 1
    g_n = b.link(k) * gauge.element(k) * a.link(k).inverse()
    ident = identity(a.group)
    return float(np.max(np.abs(np.asarray(g_n.value) - np.asarray(ident.value))))


# ---------------------------------------------------------------------------
# Gaussian sampling
# ---------------------------------------------------------------------------


def sample_connection(
    group: GroupKind, n_sites: int, s: float, rng: np.random.Generator
) -> LatticeConnection:
    """Draw from the lattice Gaussian with formal density exp(-|A|^2 / 2s)."""
    if s < 0:
        raise ValueError("variance parameter s must be nonnegative")
    if n_sites < 2:
        raise ValueError("need at least two sites")
    values = rng.normal(scale=math.sqrt(s * n_sites), size=(n_sites, group.algebra_dim))
    return LatticeConnection(group, values)


def sample_complex_connection(
    group: GroupKind,
    n_sites: int,
    s: float,
    hbar: float,
    rng: np.random.Generator,
) -> ComplexLatticeConnection:
    """Draw Z = A + iP from the split Gaussian with densities exp(-q^2/r),
    exp(-p^2/hbar) per unit-norm coordinate, r = 2s - hbar."""
    re, im = sample_complex_batch(group, n_sites, s, hbar, rng, 1)
    return ComplexLatticeConnection(group, re[0], im[0])


def sample_complex_batch(group, n_sites, s, hbar, rng, batch):
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    if s <= hbar / 2.0:
        raise ValueError(f"need s > hbar/2 (got s={s}, hbar={hbar})")
    r = 2.0 * s - hbar
    dim = group.algebra_dim
    re = rng.normal(scale=math.sqrt(r / 2.0 * n_sites), size=(batch, n_sites, dim))
    im = rng.normal(scale=math.sqrt(hbar / 2.0 * n_sites), size=(batch, n_sites, dim))
    return re, im


# ---------------------------------------------------------------------------
# Monte Carlo moments of the lattice Gaussian: one coupled-level runner
# ---------------------------------------------------------------------------


def coarsen_coords(coords: np.ndarray) -> np.ndarray:
    """Average adjacent sites: an exact sample of the half-resolution
    Gaussian, strongly coupled to the fine one."""
    if coords.shape[1] % 2:
        raise ValueError("site count must be even to coarsen")
    return 0.5 * (coords[:, 0::2] + coords[:, 1::2])


def _gaussian_draw(group: GroupKind, n_sites: int, s: float, hbar: Optional[float] = None):
    """draw(rng, m) giving m configurations (m, n_sites, dim) of the
    variance-s lattice Gaussian or, with hbar, of the complex (s, hbar)
    Gaussian of sample_complex_batch as Z = A + iP."""
    dim = group.algebra_dim
    if hbar is None:
        scale = math.sqrt(s * n_sites)
        return lambda rng, m: rng.normal(scale=scale, size=(m, n_sites, dim))

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        re, im = sample_complex_batch(group, n_sites, s, hbar, rng, m)
        return re + 1j * im

    return draw


def _characters(group: GroupKind, labels, traces: np.ndarray) -> dict:
    """{label: chi_label at traces}; traces are the elements themselves for
    U1, whose labels may be negative."""
    if group is GroupKind.U1:
        return {k: traces**k for k in labels}
    table = su2_characters_from_traces(max(labels), traces)
    return {k: table[k] for k in labels}


def _coupled_levels(
    group: GroupKind,
    draw,
    columns,
    n_columns: int,
    n_levels: int,
    n_samples: int,
    seed: int,
    bases: Optional[list] = None,
    n_workers: Optional[int] = None,
) -> list:
    """Means of columns(traces) at n_levels coupled resolutions N, N/2, ...

    draw(rng, m) supplies the finest-lattice fluctuation, each coarser level
    averages adjacent sites of the one before, and bases[level], when given
    and not None, is a deterministic offset added at that level.
    columns(traces) returns the n_columns value arrays of one level.  Returns
    the MCEstimates level by level, followed, with two or more levels, by the
    n_columns per-sample Richardson columns 2 v_N - v_{N/2}, which cancel the
    leading O(1/N) lattice bias.
    """

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        noise = draw(rng, m)
        per_level = []
        for level in range(n_levels):
            base = None if bases is None else bases[level]
            coords = noise if base is None else noise + base[None, ...]
            per_level.append(columns(holonomy_traces(group, coords)))
            if level + 1 < n_levels:
                noise = coarsen_coords(noise)
        cols = [col for level_cols in per_level for col in level_cols]
        if n_levels > 1:
            cols += [2.0 * f - h for f, h in zip(per_level[0], per_level[1])]
        return np.stack(cols, axis=1)

    n_quantities = n_columns * (n_levels + 1 if n_levels > 1 else 1)
    return chunked_mc_vector(sampler, n_quantities, n_samples, seed, n_workers=n_workers)


def pushforward_moment(
    group: GroupKind,
    label: int,
    s: float,
    n_sites: int,
    n_samples: int,
    seed: int,
    n_workers: Optional[int] = None,
) -> tuple[MCEstimate, float]:
    """Monte Carlo estimate of E[chi_label(h(A))] under the variance-s
    Gaussian, with the closed-form heat-kernel target d exp(-s c / 2)."""
    target = heat_moment(group, label, s)
    (estimate,) = _coupled_levels(
        group, _gaussian_draw(group, n_sites, s),
        lambda traces: [_characters(group, (label,), traces)[label]],
        1, 1, n_samples, seed, n_workers=n_workers,
    )
    return estimate, target


# ---------------------------------------------------------------------------
# Serialization (replay of failing cases)
# ---------------------------------------------------------------------------


def connection_to_json(L: AnyConnection) -> str:
    doc = {"group": L.group.value, "n_sites": L.n_sites}
    if isinstance(L, LatticeConnection):
        doc["values"] = L.values.tolist()
    else:
        doc["values"] = L.real_part.tolist()
        doc["imag_values"] = L.imag_part.tolist()
    return json.dumps(doc)


def connection_from_json(text: str) -> AnyConnection:
    doc = json.loads(text)
    group = GroupKind(doc["group"])
    values = np.asarray(doc["values"], dtype=float)
    if values.shape[0] != doc["n_sites"]:
        raise ValueError("n_sites does not match the values array")
    if "imag_values" in doc:
        return ComplexLatticeConnection(group, values, np.asarray(doc["imag_values"], dtype=float))
    return LatticeConnection(group, values)


# ---------------------------------------------------------------------------
# Smooth deterministic profiles (shared by refinement studies and the CLI)
# ---------------------------------------------------------------------------


def smooth_connection(
    group: GroupKind,
    n_sites: int,
    rng: np.random.Generator,
    n_modes: int = 3,
    amplitude: float = 1.0,
) -> LatticeConnection:
    """Low-frequency random connection: trigonometric polynomial sampled at
    the sites, so refinements at different N share the underlying profile."""
    coeffs = rng.normal(size=(2, n_modes, group.algebra_dim)) * amplitude
    tau = np.arange(n_sites) / n_sites
    values = np.zeros((n_sites, group.algebra_dim))
    for m in range(n_modes):
        phase = 2.0 * math.pi * (m + 1) * tau
        values += np.cos(phase)[:, None] * coeffs[0, m] + np.sin(phase)[:, None] * coeffs[1, m]
    return LatticeConnection(group, values)


def smooth_gauge_map(
    group: GroupKind,
    n_sites: int,
    rng: np.random.Generator,
    n_modes: int = 3,
    amplitude: float = 0.5,
) -> LatticeGaugeMap:
    """Smooth based loop g(tau) = exp(f(tau)) with f(0) = f(1) = 0."""
    coeffs = rng.normal(size=(n_modes, group.algebra_dim)) * amplitude
    tau = np.arange(n_sites) / n_sites
    f = np.zeros((n_sites, group.algebra_dim))
    for m in range(n_modes):
        f += np.sin(2.0 * math.pi * (m + 1) * tau)[:, None] * coeffs[m]
    elems = []
    for k in range(n_sites):
        if group is GroupKind.U1:
            elems.append(GroupElement(group, np.exp(1j * f[k, 0])))
        else:
            mat = expm_traceless(embed_algebra(group, f[k]))
            elems.append(GroupElement(group, _project_unitary(mat, group)))
    return LatticeGaugeMap(group, tuple(elems))
