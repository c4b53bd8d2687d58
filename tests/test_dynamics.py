import numpy as np
import pytest

from cylgauge.dynamics import (
    PhasePoint,
    effective_velocity,
    evolve_free,
    geodesic_compare,
    make_constrained_pair,
    partial_holonomies,
)
from cylgauge.groups import AlgebraVector, GroupKind, embed_algebra, unembed_algebra
from cylgauge.lattice import (
    LatticeConnection,
    _conjugate,
    holonomy,
    links_of,
    sample_connection,
    smooth_connection,
)

U1, SU2 = GroupKind.U1, GroupKind.SU2


def covariant_residual(pt):
    """max over interior links of |N (P_{k+1} - U_k P_k U_k^{-1})|: zero for
    momenta built by parallel transport."""
    group, n = pt.group, pt.n_sites
    if group is U1:
        return float(n * np.max(np.abs(np.diff(pt.p[:, 0]))))
    steps = links_of(pt.a).links[:-1]
    diff = pt.p[1:] - unembed_algebra(group, _conjugate(steps, embed_algebra(group, pt.p[:-1])))
    return float(n * np.max(np.linalg.norm(diff, axis=1)))


def unit_vector(group, rng):
    v = rng.normal(size=group.algebra_dim)
    return AlgebraVector(group, v / np.linalg.norm(v))


class TestEnergy:
    def test_shape_mismatch_rejected(self):
        L = LatticeConnection(SU2, np.zeros((8, 3)))
        with pytest.raises(ValueError):
            PhasePoint(L, np.zeros((4, 3)))


class TestFreeFlow:
    def test_time_zero(self):
        rng = np.random.default_rng(2)
        L = sample_connection(U1, 8, 1.0, rng)
        pt = PhasePoint(L, rng.normal(size=(8, 1)))
        out = evolve_free(pt, 0.0)
        assert np.array_equal(out.a.values, pt.a.values)
        assert np.array_equal(out.p, pt.p)

    def test_energy_conserved_exactly(self):
        rng = np.random.default_rng(3)
        L = sample_connection(SU2, 12, 1.0, rng)
        pt = PhasePoint(L, rng.normal(size=(12, 3)))
        # the kinetic energy (1/2)|P|^2 is conserved because P is untouched
        for t in (0.5, 2.0, -3.0):
            assert evolve_free(pt, t).p.tobytes() == pt.p.tobytes()

    def test_composition_exact(self):
        rng = np.random.default_rng(4)
        L = sample_connection(SU2, 12, 1.0, rng)
        pt = PhasePoint(L, rng.normal(size=(12, 3)))
        a = evolve_free(evolve_free(pt, 0.7), 1.1)
        b = evolve_free(pt, 1.8)
        assert np.allclose(a.a.values, b.a.values, atol=1e-14)


class TestConstrainedPairs:
    def test_u1_transport_is_trivial(self):
        rng = np.random.default_rng(6)
        L = sample_connection(U1, 12, 1.0, rng)
        x0 = AlgebraVector(U1, [0.8])
        pt = make_constrained_pair(L, x0)
        assert np.max(np.abs(pt.p - 0.8)) == 0.0

    def test_flat_connection_transport_is_constant(self):
        L = LatticeConnection(SU2, np.zeros((10, 3)))
        x0 = AlgebraVector(SU2, [0.1, 0.2, -0.3])
        pt = make_constrained_pair(L, x0)
        assert np.max(np.abs(pt.p - x0.coords)) < 1e-14

    def test_interior_covariant_residual_vanishes(self):
        rng = np.random.default_rng(7)
        for n in (16, 32):
            L = smooth_connection(SU2, n, rng)
            pt = make_constrained_pair(L, unit_vector(SU2, rng))
            assert covariant_residual(pt) < 8.0 / n  # in fact ~1e-13

    def test_partial_holonomies_compose_to_full(self):
        rng = np.random.default_rng(8)
        L = sample_connection(SU2, 16, 1.0, rng)
        transports = partial_holonomies(L)
        from cylgauge.groups import expm_traceless, embed_algebra

        last_step = expm_traceless(embed_algebra(SU2, L.values[-1] / 16))
        full = last_step @ transports[-1].value
        assert np.max(np.abs(full - holonomy(L).value)) < 1e-12

    def test_partial_holonomies_match_link_loop(self):
        from cylgauge.groups import expm_traceless, embed_algebra

        rng = np.random.default_rng(10)
        for n in (2, 3, 16, 33):
            L = sample_connection(SU2, n, 2.0, rng)
            steps = expm_traceless(embed_algebra(SU2, L.values / n))
            mats = [np.eye(2, dtype=complex)]
            for k in range(n - 1):
                mats.append(steps[k] @ mats[-1])
            transports = partial_holonomies(L)
            assert len(transports) == n
            for t_k, m in zip(transports, mats):
                assert np.array_equal(t_k.value, m)

    def test_link_steps_keep_their_bits(self):
        # partial_holonomies and covariant_residual read links_of(L); the
        # steps they built themselves before give the same bits
        from cylgauge.groups import expm_traceless
        from cylgauge.lattice import ordered_products

        rng = np.random.default_rng(12)
        for n in (2, 3, 16, 33):
            L = sample_connection(SU2, n, 2.0, rng)
            steps = expm_traceless(embed_algebra(SU2, L.values / n))
            for t_k, m in zip(partial_holonomies(L), ordered_products(steps[:-1])):
                assert t_k.value.tobytes() == m.tobytes()
            for pt in (make_constrained_pair(L, unit_vector(SU2, rng)), PhasePoint(L, rng.normal(size=(n, 3)))):
                old = expm_traceless(embed_algebra(SU2, pt.a.values[:-1] / n))
                diff = pt.p[1:] - unembed_algebra(SU2, _conjugate(old, embed_algebra(SU2, pt.p[:-1])))
                expected = float(n * np.max(np.linalg.norm(diff, axis=1)))
                assert covariant_residual(pt).hex() == expected.hex()


class TestGeodesicReduction:
    def test_u1_exact(self):
        rng = np.random.default_rng(9)
        L = sample_connection(U1, 16, 1.0, rng)
        pt = make_constrained_pair(L, AlgebraVector(U1, [0.5]))
        dev, _ = geodesic_compare(pt, np.linspace(0.0, 2.0, 9))
        assert dev < 1e-10

    def test_zero_momentum_stays_put(self):
        rng = np.random.default_rng(10)
        L = sample_connection(SU2, 16, 1.0, rng)
        pt = PhasePoint(L, np.zeros((16, 3)))
        dev, _ = geodesic_compare(pt, np.linspace(0.0, 2.0, 5))
        assert dev < 1e-9

    def test_su2_deviation_halves(self):
        rng = np.random.default_rng(11)
        x0 = unit_vector(SU2, rng)
        devs = []
        for n in (32, 64):
            L = smooth_connection(SU2, n, np.random.default_rng(2), amplitude=1.0)
            pt = make_constrained_pair(L, x0)
            dev, _ = geodesic_compare(pt, np.linspace(0.0, 2.0, 9))
            devs.append(dev)
        assert devs[0] < 4.0 / 32
        assert 0.3 <= devs[1] / devs[0] <= 0.7

    def test_unconstrained_momentum_negative_control(self):
        devs = []
        for n in (32, 64):
            L = smooth_connection(SU2, n, np.random.default_rng(2), amplitude=1.0)
            rng = np.random.default_rng(12)
            p = rng.normal(size=(n, 3))
            dev, _ = geodesic_compare(PhasePoint(L, p), np.linspace(0.0, 2.0, 9))
            devs.append(dev)
        # does not shrink toward zero with refinement
        assert min(devs) > 0.02

    def test_effective_velocity_near_transport_vector(self):
        rng = np.random.default_rng(13)
        x0 = unit_vector(SU2, rng)
        L = smooth_connection(SU2, 64, rng, amplitude=0.8)
        pt = make_constrained_pair(L, x0)
        x_eff = effective_velocity(pt)
        assert np.linalg.norm(x_eff.coords - x0.coords) < 0.2
