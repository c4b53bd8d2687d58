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

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bargmann import HeatParams
from .groups import (
    ComplexGroupElement,
    GroupElement,
    GroupKind,
    embed_algebra,
    expm_traceless,
    group_log,
    haar_sample_batch,
    identity,
    unembed_algebra,
    validate_values,
    _project_det_one,
    _project_unitary,
)
from .montecarlo import MCEstimate, chunked_mc_vector
from .spectral import heat_moment, su2_characters_from_traces


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LatticeConnection:
    """Connection on N sites of the circle: real A_k, or complex Z_k = A_k + i P_k
    on the complexified connection space."""

    group: GroupKind
    values: np.ndarray  # (N, dim), float or complex

    def __post_init__(self):
        values = np.asarray(self.values)
        values = values.astype(complex if np.iscomplexobj(values) else float, copy=False)
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != self.group.algebra_dim:
            raise ValueError("values must have shape (N >= 2, algebra_dim)")
        if not np.all(np.isfinite(values)):
            raise ValueError("lattice values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n_sites(self) -> int:
        return self.values.shape[0]


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


@dataclass(frozen=True, eq=False)
class LinkConfiguration:
    """Link variables U_k, one per lattice interval."""

    group: GroupKind
    links: np.ndarray  # (N,) complex for U1, (N, 2, 2) for SU2

    @property
    def n_sites(self) -> int:
        return self.links.shape[0]

    def holonomy(self) -> GroupElement:
        return GroupElement(self.group, link_holonomy_values(self.group, self.links))


def ordered_products(links: np.ndarray) -> list:
    """Prefix products [P_0, ..., P_N], P_0 = I and P_{k+1} = U_k P_k, of SU2
    links (N, 2, 2) or of B stacked configurations (B, N, 2, 2); P_N is the
    holonomy.

    Each P_k with k >= 1 is (2, 2) or (B, 2, 2) and comes from one stacked
    matmul, which rounds exactly as the 2x2 one.
    """
    prods = [np.eye(2, dtype=complex)]
    for step in links.swapaxes(0, -3):  # site axis first
        prods.append(step @ prods[-1])
    return prods


def link_holonomy_values(group: GroupKind, links: np.ndarray) -> np.ndarray:
    """Holonomy U_{N-1} ... U_0 of links (N,) for U1 or (N, 2, 2) for SU2,
    or of B stacked configurations (B, N[, 2, 2]); SU2 products are
    projected onto the group."""
    if group is GroupKind.U1:
        return np.prod(links, axis=-1)
    return _project_unitary(ordered_products(links)[-1], group)


# ---------------------------------------------------------------------------
# Batched holonomy kernel
#
# An SU(2) step is a quaternion (w, v) standing for w I + v.sigma, and
# (w1, v1)(w2, v2) = (w1 w2 + v1.v2, w1 v2 + w2 v1 + i v1 x v2).  Real
# connections keep b = -i v (value w I + i b.sigma) and stay in floats.
# The steps of a block of B configurations are one site-major (4, N, B)
# _Workspace array, so sites k and k+1 of all B configurations are two
# contiguous rows; each product tree level is a few whole-array operations.
# Operation and operand order are fixed (numpy's complex a b and b a may
# round differently), so the bits do not depend on batch size or layout.
#
# A complex step needs cosh mu and sinh(mu)/mu at mu^2 = u = -c.c/4, both
# entire in u: two Horner series of one fixed degree, exact to roundoff for
# |u| <= 1.  An element with |Re u| + |Im u| > 1 is scaled by 4^-j, j chosen
# from its own u (never from its blockmates'), and doubled back j times on
# e = cosh - 1: e(2m) = 2 e (e + 2), sinh(2m)/(2m) = (sinh(m)/m)(1 + e).
# The doublings run in long double, which keeps their rounding below that of
# the double input.  numpy may round an aliased in-place complex multiply of
# length 1 differently from every other (without FMA, on AVX-512 builds), so
# complex products always go to a buffer that none of their inputs share.
# ---------------------------------------------------------------------------


BLOCK_VALUES = 3 * 2**14  # coordinates (16,384 SU(2) links) per block of stacked work: its arrays stay in cache
SERIES_DEGREE = 9  # first omitted term at |u| = 1: 1/20! < 4.2e-19
_COSHM1_COEFFS = [1.0 / math.factorial(2 * k + 2) for k in range(SERIES_DEGREE)]  # (cosh - 1)/u
_SINHC_COEFFS = [1.0 / math.factorial(2 * k + 1) for k in range(SERIES_DEGREE + 1)]


class _Workspace(dict):
    """Scratch arrays of one thread: a buffer per name and dtype, grown on demand."""

    def __call__(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        key, size = (name, np.dtype(dtype)), math.prod(shape)
        if key not in self or self[key].size < size:
            self[key] = np.empty(size, dtype)
        return self[key][:size].reshape(shape)


def _horner(u: np.ndarray, coeffs: list, ws: _Workspace) -> np.ndarray:
    """sum_k coeffs[k] u^k in one of two ws buffers; products go to the other."""
    acc, spare = ws("h0", u.shape, complex), ws("h1", u.shape, complex)
    np.multiply(u, coeffs[-1], out=acc)
    for a in coeffs[-2:0:-1]:
        acc += a
        np.multiply(acc, u, out=spare)
        acc, spare = spare, acc
    acc += coeffs[0]
    return acc


def _cosh_sinhc(u: np.ndarray, e: np.ndarray, ws: _Workspace) -> np.ndarray:
    """cosh(mu) into e, and sinh(mu)/mu, at mu^2 = u elementwise; u is overwritten."""
    bound = np.abs(u.real, out=ws("bound", u.shape))
    bound += np.abs(u.imag, out=ws("bound_im", u.shape))  # >= |u|
    big = np.flatnonzero(bound > 1.0)
    halvings = (np.frexp(bound.flat[big])[1] + 1) // 2  # 4^halvings > bound
    u.flat[big] = u.flat[big] * np.ldexp(1.0, -2 * halvings)
    np.multiply(_horner(u, _COSHM1_COEFFS, ws), u, out=e)
    sinhc = _horner(u, _SINHC_COEFFS, ws)
    eb, sb = e.flat[big].astype(np.clongdouble), sinhc.flat[big].astype(np.clongdouble)
    for done in range(halvings.max(initial=0)):
        sel = halvings > done
        es, ss = eb[sel], sb[sel]
        sb[sel] = ss + ss * es
        eb[sel] = 2.0 * (es * (es + 2.0))
    e.flat[big], sinhc.flat[big] = eb, sb
    e += 1.0
    return sinhc


def _su2_steps(coords: np.ndarray, real: bool, ws: _Workspace) -> np.ndarray:
    """Steps exp((i/2) c.sigma / N) for coords (B, N, 3) as a (4, N, B) array
    [w, x, y, z] in ws: (w, b) for real coordinates, (w, v) for complex ones."""
    xs, dtype, n = coords.transpose(2, 1, 0), (float if real else complex), coords.shape[1]
    q = ws("q0", (4,) + xs.shape[1:], dtype)
    # complex x / N is Smith's (Re x + Im x * 0) * (1 / N): x * (1 / N) has its bits, bar zero signs
    # (-0.0 + 1j gives +0.0 by division, -0.0 here), at a quarter of the cost; float x / N has no twin
    comps = np.divide(xs, n, out=q[1:]) if real else np.multiply(xs, 1.0 / n, out=ws("comps", xs.shape, dtype))
    sq, t = ws("t0", xs.shape[1:], dtype), ws("t1", xs.shape[1:], dtype)
    np.multiply(comps[0], comps[0], out=sq)
    sq += np.multiply(comps[1], comps[1], out=t)
    sq += np.multiply(comps[2], comps[2], out=t)
    if real:
        theta = np.multiply(0.5, np.sqrt(sq, out=sq), out=sq)
        small = theta < 1e-8
        safe = np.where(small, 1.0, theta) if small.any() else theta
        np.cos(theta, out=q[0])
        scale = np.divide(np.multiply(0.5, np.sin(safe, out=t), out=t), safe, out=t)
        scale[small] = 0.5 * (1.0 - theta[small] ** 2 / 6.0)
        comps *= scale
    else:
        sinhc = _cosh_sinhc(np.multiply(-0.25, sq, out=t), q[0], ws)
        np.multiply(np.multiply(0.5j, sinhc, out=sq), comps, out=q[1:])
    return q


def _quat_mul(q1: np.ndarray, q2: np.ndarray, real: bool, w_only: bool, out: np.ndarray, ws: _Workspace):
    """Product q1 q2 into out, out[0] alone when w_only; cross term c is a1 b2 - b1 a2."""
    (w1, x1, y1, z1), (w2, x2, y2, z2) = q1, q2
    dot, t = ws("t0", w1.shape, out.dtype), ws("t1", w1.shape, out.dtype)
    np.multiply(x1, x2, out=dot)
    dot += np.multiply(y1, y2, out=t)
    dot += np.multiply(z1, z2, out=t)
    sign = np.subtract if real else np.add  # real steps carry b = -i v
    sign(np.multiply(w1, w2, out=out[0]), dot, out=out[0])
    if w_only:
        return
    axes = ((x1, x2, y1, z2, z1, y2), (y1, y2, z1, x2, x1, z2), (z1, z2, x1, y2, y1, x2))
    for v, (c1, c2, a1, b2, b1, a2) in zip(out[1:], axes):
        np.multiply(w1, c2, out=v)
        v += np.multiply(w2, c1, out=t)
        cross = np.multiply(a1, b2, out=dot)
        cross -= np.multiply(b1, a2, out=t)
        sign(v, cross if real else np.multiply(1j, cross, out=t), out=v)


def _holonomy_quats(coords: np.ndarray, ws: _Workspace, w_only: bool = False) -> np.ndarray:
    """Ordered products q[N-1] ... q[0] of coords (B, N, 3) as a (4, B)
    array [w, x, y, z], or (1, B) [w] when w_only, worked through in blocks."""
    real = not np.iscomplexobj(coords)
    quats = np.empty((1 if w_only else 4, len(coords)), dtype=float if real else complex)
    rows = max(1, BLOCK_VALUES // (coords.shape[1] * 3))
    for lo in range(0, len(coords), rows):
        q, spare = _su2_steps(coords[lo:lo + rows], real, ws), "q1"
        while (n := q.shape[1]) > 1:
            half, odd = divmod(n, 2)
            nxt = ws(spare, (4, half + odd, q.shape[2]), q.dtype)
            _quat_mul(q[:, 1:n - odd:2], q[:, 0:n - odd:2], real, w_only and n == 2, nxt[:, :half], ws)
            nxt[:, half:] = q[:, n - odd:]  # an odd last site carried up
            q, spare = nxt, "q0" if spare == "q1" else "q1"
        quats[:, lo:lo + rows] = q[:len(quats), 0]
    return quats


def _quat_to_matrix(q: np.ndarray, real: bool) -> np.ndarray:
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
    return _quat_to_matrix(_holonomy_quats(coords, _Workspace()), not np.iscomplexobj(coords))


def holonomy_traces(group: GroupKind, coords: np.ndarray, workspace: Optional[_Workspace] = None) -> np.ndarray:
    """Batch holonomy reduced to traces (U1: the element values themselves), in workspace if given."""
    if group is GroupKind.U1:
        return holonomy_batch(group, coords)
    w = _holonomy_quats(np.asarray(coords), _Workspace() if workspace is None else workspace, w_only=True)[0]
    return 2.0 * w.astype(complex)


def _element_from_matrix(group: GroupKind, value, real: bool):
    if real:
        return GroupElement(group, _project_unitary(value, group))
    return ComplexGroupElement(group, value)


def holonomy(L: LatticeConnection, method: str = "product"):
    """Holonomy around the circle; complex values give the complexified one.

    method="product": exact solution for the piecewise-constant connection.
    method="rk4": classical Runge-Kutta with step 1/(4N), each site value
    held constant over its interval; the result is projected onto the group
    (det 1 for the complexified one).
    """
    coords = L.values
    real = not np.iscomplexobj(coords)
    if method == "product":
        value = holonomy_batch(L.group, coords[None, ...])[0]
        return _element_from_matrix(L.group, value, real)
    if method != "rk4":
        raise ValueError(f"unknown holonomy method {method!r}")
    n = L.n_sites
    substeps = 4
    dt = 1.0 / (substeps * n)
    h = 1.0 + 0.0j if L.group is GroupKind.U1 else np.eye(2, dtype=complex)
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
    # the Taylor steps drift off det 1; the real result is projected below
    return _element_from_matrix(L.group, h if real else _project_det_one(h, L.group), real)


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
    """Apply a based gauge map to a real connection or to link variables.

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
    if isinstance(L, LatticeConnection) and np.iscomplexobj(L.values):
        raise ValueError("gauge maps act on real connections")
    if level == "link":
        cfg = links_of(L) if isinstance(L, LatticeConnection) else L
        g = np.array([e.value for e in gauge.elements], dtype=complex)
        return LinkConfiguration(group, gauge_links(group, g, cfg.links))
    if level != "algebra":
        raise ValueError(f"unknown gauge level {level!r}")
    if not isinstance(L, LatticeConnection):
        raise ValueError("algebra-level action applies to LatticeConnection")
    g = gauge.elements + gauge.elements[:1]  # g_N = g_0
    translation = n * np.array([group_log(g[k + 1] * g[k].inverse()).coords for k in range(n)])
    if group is GroupKind.U1:
        return LatticeConnection(group, L.values + translation)
    values = np.array([e.value for e in gauge.elements])
    rotated = unembed_algebra(group, _conjugate(values, embed_algebra(group, L.values)))
    return LatticeConnection(group, rotated + translation)


def _conjugate(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g_k x_k g_k^{-1} for stacked SU2 matrices (..., 2, 2)."""
    return g @ x @ g.conj().swapaxes(-1, -2)


def gauge_links(group: GroupKind, g: np.ndarray, links: np.ndarray) -> np.ndarray:
    """U_k -> g_{k+1} U_k g_k^{-1} for stacked gauge values g of shape
    (..., N) for U1 or (..., N, 2, 2) for SU2, with g_N = g_0; links
    broadcast against g.  The caller guarantees g_0 = e."""
    if group is GroupKind.U1:
        return np.roll(g, -1, axis=-1) * links / g
    return np.roll(g, -1, axis=-3) @ links @ g.conj().swapaxes(-1, -2)


def haar_gauge_drift(L: LatticeConnection, trials: int, rng: np.random.Generator) -> float:
    """Largest entry of |h(g.U) - h(L)| over `trials` based gauge maps g with
    Haar-random g_1 .. g_{N-1}, acting on the links U of L.

    The trials run in blocks of as many site elements as an SU(2) kernel
    block has links, so memory stays flat in N: one Haar draw, one stacked
    gauge action and one ordered product each, consuming rng as one trial
    at a time would.
    """
    group, n = L.group, L.n_sites
    h0 = np.asarray(holonomy(L).value)
    links = links_of(L).links
    e = identity(group).value
    block = max(1, BLOCK_VALUES // (n * 3))
    worst = 0.0
    for start in range(0, trials, block):
        m = min(block, trials - start)
        draws = haar_sample_batch(group, rng, m * (n - 1)).reshape((m, n - 1) + np.shape(e))
        g = np.concatenate([np.broadcast_to(e, (m, 1) + np.shape(e)), draws], axis=1)
        h1 = validate_values(group, link_holonomy_values(group, gauge_links(group, g, links)))
        worst = max(worst, float(np.max(np.abs(h1 - h0))))
    return worst


# ---------------------------------------------------------------------------
# Gaussian sampling
# ---------------------------------------------------------------------------


def sample_connection(
    group: GroupKind, n_sites: int, s: float, rng: np.random.Generator
) -> LatticeConnection:
    """Draw from the lattice Gaussian with formal density exp(-|A|^2 / 2s)."""
    return LatticeConnection(group, next(_gaussian_draw(group, n_sites, s)(rng, 1, 1))[0][0])


# ---------------------------------------------------------------------------
# Monte Carlo moments of the lattice Gaussian: one coupled-level runner
# ---------------------------------------------------------------------------


def _normal(rng: np.random.Generator, scale: float, size: tuple) -> np.ndarray:
    """rng.normal(scale=scale, size=size) bit for bit (0 + scale z); unlike normal(), fills without the GIL."""
    return np.multiply(z := rng.standard_normal(size), scale, out=z)


def _gaussian_draw(group: GroupKind, n_sites: int, s: float, hbar: Optional[float] = None):
    """draw(rng, m, block) yielding real and imaginary parts (b <= block, n_sites, dim) of m
    configurations of the variance-s Gaussian (imaginary part None) or, with hbar, of Z = A + iP
    from the split Gaussian with densities exp(-q^2/r), exp(-p^2/hbar) per unit-norm
    coordinate, r = 2s - hbar, consuming rng as one whole draw: real part first."""
    shape = (n_sites, group.algebra_dim)
    if hbar is None and not 0.0 <= s < math.inf:  # NaN fails too
        raise ValueError(f"variance parameter s must be finite and nonnegative (got s={s})")
    re_scale = math.sqrt((s if hbar is None else HeatParams(s, hbar).r / 2.0) * n_sites)
    if re_scale == math.inf:
        raise ValueError(f"s={s} is too large for N={n_sites} sites: the draw's scale overflows")
    if hbar is None:
        return lambda rng, m, block: (
            (_normal(rng, re_scale, (min(block, m - lo),) + shape), None) for lo in range(0, m, block))
    im_scale = math.sqrt(hbar / 2.0 * n_sites)

    def draw(rng: np.random.Generator, m: int, block: int):
        re = _normal(rng, re_scale, (m,) + shape)
        for lo in range(0, m, block):
            yield re[lo:lo + block], _normal(rng, im_scale, re[lo:lo + block].shape)

    return draw


def _characters(group: GroupKind, labels, traces: np.ndarray) -> dict:
    """{label: chi_label at traces}; traces are the elements themselves for
    U1, whose labels may be negative."""
    if group is GroupKind.U1:
        return {k: traces**k for k in labels}
    table = su2_characters_from_traces(max(labels), traces)
    return {k: table[k] for k in labels}


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

    def bias_ratio(self) -> float:
        if len(self.estimates) < 3:
            raise ValueError("need three refinement levels for a bias ratio")
        b = [e.mean - t for e, t in zip(self.estimates, self.targets)]
        d1, d2 = b[1] - b[0], b[2] - b[1]
        if abs(d2) == 0.0:
            return math.inf
        return abs(d1) / abs(d2)

    def extrapolated_z(self) -> float:
        if self.extrapolated is None:
            raise ValueError("need two refinement levels to extrapolate")
        return self.extrapolated.z_score(2.0 * self.targets[0] - self.targets[1])


def _coupled_levels(
    group: GroupKind,
    draw,
    columns,
    targets: list,
    n_fine: int,
    n_samples: int,
    seed: int,
    bases: Optional[list] = None,
    n_workers: Optional[int] = None,
) -> list:
    """One RefinementStudy per column of columns(traces), at the coupled
    resolutions n_fine, n_fine/2, ...

    draw(rng, m, block), a _gaussian_draw, supplies the n_fine-site fluctuation
    in blocks whose coarsest level fills a kernel block, each coarser level
    averages adjacent sites of the one before, and bases[level], if given, is added.
    targets[q][level] is column q's closed form at that level, so the length
    of each targets[q] is the number of levels.  With two or more levels each
    study also carries the per-sample Richardson column 2 v_N - v_{N/2}.
    """
    n_columns, n_levels = len(targets), len(targets[0]) if targets else 0
    if n_levels < 1 or n_fine % (1 << (n_levels - 1)):
        raise ValueError(
            "n_levels must be at least 1 and n_fine divisible by 2^(n_levels-1) "
            f"(got n_levels={n_levels}, n_fine={n_fine})"
        )

    # blocks are held in the layout the kernel reads: SU2 (dim, N, b), U1 (b, N, 1)
    flip = (2, 1, 0) if group is GroupKind.SU2 else (0, 1, 2)
    offsets = [None] * n_levels if bases is None else [np.asarray(b)[None].transpose(flip) for b in bases]
    block = max(1, BLOCK_VALUES // ((n_fine >> (n_levels - 1)) * group.algebra_dim))

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        ws, traces = _Workspace(), np.empty((n_levels, m), dtype=complex)
        for lo, (re, im) in zip(range(0, m, block), draw(rng, m, block)):
            noise = ws("noise", re.transpose(flip).shape, float if im is None else complex)
            noise.real[...] = re.transpose(flip)
            if im is not None:
                noise.imag[...] = im.transpose(flip)
            for level, offset in enumerate(offsets):
                n = n_fine >> level
                coords = noise[:, :n]
                if offset is not None:
                    coords = np.add(coords, offset, out=ws("based", coords.shape, np.result_type(coords, offset)))
                traces[level, lo:lo + len(re)] = holonomy_traces(group, coords.transpose(flip), workspace=ws)
                if level + 1 < n_levels:  # average adjacent sites: the coupled N/2 sample
                    np.multiply(0.5, noise[:, 0:n:2] + noise[:, 1:n:2], out=noise[:, :n // 2])
        del ws, re, im  # free the draw and the buffers before the columns are formed
        per_level = [columns(row) for row in traces]
        cols = [col for level_cols in per_level for col in level_cols]
        if n_levels > 1:
            cols += [2.0 * f - h for f, h in zip(per_level[0], per_level[1])]
        return np.stack(cols, axis=1)

    n_quantities = n_columns * (n_levels + 1 if n_levels > 1 else 1)
    ests = chunked_mc_vector(sampler, n_quantities, n_samples, seed, n_workers=n_workers)
    n_sites = tuple(n_fine >> level for level in range(n_levels))
    return [
        RefinementStudy(
            n_sites=n_sites,
            estimates=tuple(ests[q:n_levels * n_columns:n_columns]),
            extrapolated=ests[n_levels * n_columns + q] if n_levels > 1 else None,
            targets=tuple(complex(t) for t in targets[q]),
        )
        for q in range(n_columns)
    ]


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
    (study,) = _coupled_levels(
        group, _gaussian_draw(group, n_sites, s),
        lambda traces: [_characters(group, (label,), traces)[label]],
        [(target,)], n_sites, n_samples, seed, n_workers=n_workers,
    )
    return study.estimates[0], target


# ---------------------------------------------------------------------------
# Smooth deterministic profiles (shared by refinement studies and the CLI)
# ---------------------------------------------------------------------------


SMOOTH_MODES = 3  # Fourier modes of the smooth profiles


def smooth_connection(
    group: GroupKind, n_sites: int, rng: np.random.Generator, amplitude: float = 1.0
) -> LatticeConnection:
    """Low-frequency random connection: trigonometric polynomial sampled at
    the sites, so refinements at different N share the underlying profile."""
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite (got amplitude={amplitude})")
    coeffs = rng.normal(size=(2, SMOOTH_MODES, group.algebra_dim)) * amplitude
    tau = np.arange(n_sites) / n_sites
    values = np.zeros((n_sites, group.algebra_dim))
    for m in range(SMOOTH_MODES):
        phase = 2.0 * math.pi * (m + 1) * tau
        values += np.cos(phase)[:, None] * coeffs[0, m] + np.sin(phase)[:, None] * coeffs[1, m]
    return LatticeConnection(group, values)


def smooth_gauge_map(group: GroupKind, n_sites: int, rng: np.random.Generator) -> LatticeGaugeMap:
    """Smooth based loop g(tau) = exp(f(tau)) with f(0) = f(1) = 0, Fourier
    amplitudes of scale 0.5."""
    coeffs = rng.normal(size=(SMOOTH_MODES, group.algebra_dim)) * 0.5
    tau = np.arange(n_sites) / n_sites
    f = np.zeros((n_sites, group.algebra_dim))
    for m in range(SMOOTH_MODES):
        f += np.sin(2.0 * math.pi * (m + 1) * tau)[:, None] * coeffs[m]
    if group is GroupKind.U1:
        values = np.exp(1j * f[:, 0])
    else:
        values = _project_unitary(expm_traceless(embed_algebra(group, f)), group)
    return LatticeGaugeMap(group, tuple(GroupElement(group, v) for v in values))
