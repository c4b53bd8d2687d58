"""The scalar element layer keeps its bits.

sha256 digests of long product chains, seeded Haar draws, characters, heat
kernels and Haar quadrature values, taken before the scalar paths lost their
per-call overhead (module-level group aliases, one-step products, list-read
traces, Python-float Haar draws, cached quadrature grids).  Any change to a
floating-point operation or its order moves a digest.
"""

import hashlib

import numpy as np
import pytest

from cylgauge.groups import (
    AlgebraVector,
    GroupKind,
    exp_map,
    haar_integrate,
    haar_sample,
    identity,
)
from cylgauge.spectral import character, heat_kernel

U1, SU2 = GroupKind.U1, GroupKind.SU2
IDS = ["u1", "su2"]


def _update(digest, *values):
    for v in values:
        digest.update(np.asarray(v, dtype=complex).tobytes())


def _haar_points(group, seed, n):
    rng = np.random.default_rng(seed)
    return [haar_sample(group, rng) for _ in range(n)]


CHAIN_DIGESTS = {
    U1: "5c9e8906bd9f96e6c30dd23a376a34d968a3a4ba5ec5add790c35df5234bd63d",
    SU2: "f9195bed3caabb9b018c0780b31dabff4af8573ce08968aa0df877435aacb23f",
}


@pytest.mark.parametrize("group", [U1, SU2], ids=IDS)
def test_long_product_chain_pinned(group):
    assert _chain_digest(group) == CHAIN_DIGESTS[group]


def _chain_digest(group):
    # 10,000 factors pass the reprojection after every 64 (REPROJECT_EVERY)
    rng = np.random.default_rng(1601)
    factors = [exp_map(AlgebraVector(group, rng.normal(scale=0.3, size=group.algebra_dim)))
               for _ in range(61)]
    digest = hashlib.sha256()
    g = identity(group)
    for k in range(10_000):
        f = factors[k % len(factors)]
        g = g * f if k % 2 else f * g
        _update(digest, g.value, g.trace())
        digest.update(g._staleness.to_bytes(1, "little"))
    return digest.hexdigest()


DRAW_DIGESTS = {
    U1: "70713efbcccb85e59d02a30a1f356d3ff5e5736445c19ef5fca14521b4418298",
    SU2: "7fd071c67964ec7c3169c964241c2346343c2c76502e4a917caed141d0019bef",
}


@pytest.mark.parametrize("group", [U1, SU2], ids=IDS)
def test_seeded_haar_draws_pinned(group):
    assert _draw_digest(group) == DRAW_DIGESTS[group]


def _draw_digest(group):
    digest = hashlib.sha256()
    for g in _haar_points(group, 1602, 500):
        _update(digest, g.value)
    return digest.hexdigest()


SERIES_DIGESTS = {
    U1: "9ed1dfbfc0f2307deb23776b76a54441abe80b915b4aedc91277fc0effe7d7dd",
    SU2: "2aae55fd8a937abfc63520128e5d5a158ffc64ab23f79ea4a674a179ac0a292a",
}


@pytest.mark.parametrize("group", [U1, SU2], ids=IDS)
def test_characters_and_heat_kernels_pinned(group):
    assert _series_digest(group) == SERIES_DIGESTS[group]


def _series_digest(group):
    digest = hashlib.sha256()
    for g in _haar_points(group, 1603, 1000):
        _update(digest, *(character(group, label, g) for label in range(4)))
        _update(digest, heat_kernel(group, 0.3, g), heat_kernel(group, 1.7, g))
    return digest.hexdigest()


OFF_K_DIGESTS = {
    U1: "2e280d36dd98ca230787e48e93264dcb9d0c4026ce62974a37ea294ac1a642be",
    SU2: "ffba5262c9f8d11e15b144a194d3785534aadf83b7216d699d0fd6f6143ba0ce",
}


@pytest.mark.parametrize("group", [U1, SU2], ids=IDS)
def test_off_group_heat_kernels_pinned(group):
    assert _off_group_digest(group) == OFF_K_DIGESTS[group]


def _off_group_digest(group):
    # the polar radius |y| sets where the series is truncated
    rng = np.random.default_rng(1604)
    digest = hashlib.sha256()
    for _ in range(500):
        x, y = (AlgebraVector(group, rng.normal(scale=s, size=group.algebra_dim)) for s in (1.0, 0.8))
        g = exp_map(x, y)
        _update(digest, heat_kernel(group, 0.5, g), heat_kernel(group, 2.0, g))
    return digest.hexdigest()


def _su2_integrand(g):
    # reads entries beyond the trace, so a wrong node order or value shows
    return heat_kernel(SU2, 0.8, g) * character(SU2, 2, g) + 1j * g.value[0, 1].real


def _weyl_integrand(g):
    return heat_kernel(SU2, 0.4, g) * character(SU2, 3, g) + 1j * g.value[1, 1].imag


QUADRATURE_DIGEST = "1ac6dd26c147229b8bd2ab3ae271af6de3008b1a79792ef98cfdbe2e8cc67172"


def test_haar_quadrature_pinned():
    assert _quadrature_digest() == QUADRATURE_DIGEST


def _quadrature_digest():
    digest = hashlib.sha256()
    for result in (
        haar_integrate(SU2, _su2_integrand, level=12),
        haar_integrate(SU2, _weyl_integrand, level=24, class_function=True),
        haar_integrate(U1, lambda g: heat_kernel(U1, 0.6, g) * g.value**2, level=48),
    ):
        _update(digest, result.value, result.error)
    return digest.hexdigest()
