import hashlib
import math

import numpy as np
import pytest

from cylgauge import groups
from cylgauge.groups import (
    AlgebraVector,
    BranchCutError,
    ComplexGroupElement,
    GroupElement,
    GroupKind,
    PolarCoordinates,
    exp_map,
    group_distance,
    group_log,
    haar_integrate,
    haar_sample,
    identity,
    polar_decompose,
    zero_vector,
    _haar_grid,
    _haar_quadrature,
    _project_unitary,
    su2_euler_grid,
    su2_weyl_grid,
)
from cylgauge.coherent import CoherentLabel, coherent_overlap
from cylgauge.montecarlo import chunked_mc_vector
from cylgauge.spectral import CharacterSeries, character, heat_kernel

U1, SU2 = GroupKind.U1, GroupKind.SU2


def expm_series(m, terms=25):
    """Truncated power-series exponential, the independent oracle."""
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestExpMap:
    def test_u1_zero_is_one(self):
        g = exp_map(zero_vector(U1))
        assert g.value == 1.0 + 0.0j

    def test_u1_half_turn(self):
        g = exp_map(AlgebraVector(U1, [math.pi]))
        assert abs(g.value - (-1.0)) < 1e-14

    def test_su2_matches_power_series(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            theta = rng.uniform(0.1, 3.0)
            x = AlgebraVector(SU2, theta * direction)
            g = exp_map(x)
            assert np.max(np.abs(g.value - expm_series(x.embed()))) < 1e-12

    def test_one_parameter_subgroup_law(self):
        rng = np.random.default_rng(3)
        for group in (U1, SU2):
            x = AlgebraVector(group, rng.normal(size=group.algebra_dim))
            for _ in range(10):
                s, t = rng.uniform(-2, 2, size=2)
                lhs = exp_map(AlgebraVector(group, (s + t) * x.coords))
                rhs = exp_map(AlgebraVector(group, s * x.coords)) * exp_map(
                    AlgebraVector(group, t * x.coords)
                )
                assert np.max(np.abs(np.asarray(lhs.value) - np.asarray(rhs.value))) < 1e-10

    def test_complex_part_lands_in_complexification(self):
        x = AlgebraVector(SU2, [0.1, 0.2, 0.3])
        y = AlgebraVector(SU2, [0.3, -0.1, 0.2])
        g = exp_map(x, y)
        assert isinstance(g, ComplexGroupElement) and not isinstance(g, GroupElement)
        (a, b), (c, d) = g.value
        assert abs(a * d - b * c - 1.0) < 1e-10
        assert g.unitarity_defect() > 1e-3  # genuinely off the compact group

    def test_group_log_inverts_exp(self):
        rng = np.random.default_rng(11)
        for group in (U1, SU2):
            for _ in range(10):
                coords = rng.normal(scale=0.7, size=group.algebra_dim)
                x = AlgebraVector(group, coords)
                assert np.max(np.abs(group_log(exp_map(x)).coords - coords)) < 1e-10

    def test_log_branch_cut_reported(self):
        minus_one = GroupElement(SU2, -np.eye(2, dtype=complex))
        with pytest.raises(BranchCutError):
            group_log(minus_one)


class TestPolarDecomposition:
    def test_identity(self):
        for group in (U1, SU2):
            pc = polar_decompose(identity(group))
            assert pc.y.norm < 1e-14
            assert pc.x.isclose(identity(group), 1e-14)

    def test_diag_example_matches_hermitian_log_oracle(self):
        g = ComplexGroupElement(SU2, np.diag([2.0, 0.5]))
        pc = polar_decompose(g)
        # oracle: eigendecomposition of the positive factor (g* g)^(1/2)
        evals, vecs = np.linalg.eigh(g.value.conj().T @ g.value)
        xi = (vecs * (0.5 * np.log(evals))) @ vecs.conj().T
        assert np.max(np.abs(pc.x.value - np.eye(2))) < 1e-12
        assert np.max(np.abs(pc.y.embed() - (-1j) * xi)) < 1e-12
        assert np.max(np.abs(pc.y.embed() - (-1j) * np.diag([math.log(2), -math.log(2)]))) < 1e-12

    def test_thousand_roundtrips(self):
        rng = np.random.default_rng(7)
        for group in (U1, SU2):
            dim = group.algebra_dim
            worst = 0.0
            for _ in range(1000):
                x = AlgebraVector(group, rng.normal(size=dim))
                y = AlgebraVector(group, rng.normal(scale=0.8, size=dim))
                g = exp_map(x) * exp_map(zero_vector(group), y)
                rec = polar_decompose(g).reconstruct()
                err = np.max(np.abs(np.asarray(rec.value) - np.asarray(g.value)))
                worst = max(worst, err / max(1.0, float(np.max(np.abs(np.asarray(g.value))))))
            assert worst < 1e-9

    def test_reconstruct_definition(self):
        x = exp_map(AlgebraVector(SU2, [0.4, 0.0, -0.2]))
        y = AlgebraVector(SU2, [0.1, 0.5, 0.0])
        pc = PolarCoordinates(x, y)
        from cylgauge.groups import expm_traceless

        manual = x.value @ expm_traceless(1j * np.asarray(y.embed()))
        assert np.max(np.abs(pc.reconstruct().value - manual)) < 1e-13


class TestProducts:
    def test_long_product_chain_stays_on_group(self):
        rng = np.random.default_rng(0)
        factors = [
            exp_map(AlgebraVector(SU2, rng.normal(scale=0.3, size=3))) for _ in range(64)
        ]
        g = identity(SU2)
        for i in range(1_000_000):
            g = factors[i % 64] * g
        assert g.unitarity_defect() < 1e-10
        (a, b), (c, d) = g.value
        assert abs(a * d - b * c - 1.0) < 1e-10

    def test_u1_long_chain(self):
        z = exp_map(AlgebraVector(U1, [0.1]))
        g = identity(U1)
        for _ in range(1_000_000):
            g = z * g
        assert abs(abs(g.value) - 1.0) < 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(5)
        g = haar_sample(SU2, rng)
        assert (g * g.inverse()).isclose(identity(SU2), 1e-12)
        gc = exp_map(AlgebraVector(SU2, rng.normal(size=3)), AlgebraVector(SU2, rng.normal(size=3)))
        prod = gc * gc.inverse()
        assert np.max(np.abs(prod.value - np.eye(2))) < 1e-10

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError):
            identity(U1) * identity(SU2)

    # sha256 of the values and staleness along each chain and of the inverses,
    # computed when every product still went through __init__'s coercion
    CHAIN_DIGESTS = {
        "su2": "99c70e3988d8a63002c31d50225aa97b311798aaf7c8df259f47d1ad74d00d56",
        "sl2c": "d1bc93e3cc68ee3683e0124cb102dd7d5783765df5a0468b52d1a4779d264bf5",
        "u1": "04d92f1ed64b82b65be5e865645ce6364bbe7be49eacbc24a2fe6a45ff284aec",
        "cstar": "64542f2c2a4847d5f1608e3c18a97e760d91da4815f9eb4572584fcf989eb47c",
    }

    @pytest.mark.parametrize("name", sorted(CHAIN_DIGESTS))
    def test_product_chain_bits(self, name):
        # 200 factors cross the reprojection at 64, 128 and 192
        group = SU2 if name in ("su2", "sl2c") else U1
        rng = np.random.default_rng(17)
        digest = hashlib.sha256()
        g = identity(group)
        for _ in range(200):
            x = AlgebraVector(group, rng.normal(scale=0.3, size=group.algebra_dim))
            y = None
            if name in ("sl2c", "cstar"):
                y = AlgebraVector(group, rng.normal(scale=0.05, size=group.algebra_dim))
            g = exp_map(x, y) * g
            inv = g.inverse()
            assert type(inv) is type(g)
            for v in (g.value, inv.value):
                digest.update(np.asarray(v, dtype=complex).tobytes())
            digest.update(g._staleness.to_bytes(1, "little"))
        assert digest.hexdigest() == self.CHAIN_DIGESTS[name]

    def test_stacked_projection_matches_scalar_formula(self):
        # the 2x2 projection as it was before it took stacked input: det by
        # numpy's scalar complex multiply
        def scalar_projection(value):
            u, _, vh = np.linalg.svd(value)
            p = u @ vh
            return p / np.sqrt(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])

        rng = np.random.default_rng(6)
        values = rng.normal(size=(3000, 2, 2)) + 1j * rng.normal(size=(3000, 2, 2))
        values[:1000] = np.eye(2) + 1e-9 * values[:1000]  # near the group, as in long products
        stacked = _project_unitary(values, SU2)
        for value, projected in zip(values, stacked):
            expected = scalar_projection(value)
            assert np.array_equal(_project_unitary(value, SU2), expected)
            assert np.array_equal(projected, expected)


def numpy_unitarity_defect(m):
    """max |V* V - I| by a numpy matrix product, the reference for the scalar form."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


class TestValidation:
    def test_unitarity_threshold(self):
        # diag(1 + d, 1 / (1 + d)) has det 1 and unitarity defect about 2d
        for d, accepted in ((0.4e-8, True), (0.6e-8, False)):
            m = np.diag([1.0 + d, 1.0 / (1.0 + d)]).astype(complex)
            assert (numpy_unitarity_defect(m) < 1e-8) is accepted
            ComplexGroupElement(SU2, m)  # only the determinant is checked off K
            if accepted:
                GroupElement(SU2, m)
            else:
                with pytest.raises(ValueError, match="^group element is not unitary$"):
                    GroupElement(SU2, m)

    def test_unitarity_defect_matches_numpy_product(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m /= np.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
            g = ComplexGroupElement(SU2, m)
            assert abs(g.unitarity_defect() - numpy_unitarity_defect(m)) < 1e-14 * max(
                1.0, numpy_unitarity_defect(m)
            )

    def test_determinant_tolerance_scales_with_entries(self):
        # entries near 1e3: the det tolerance is 1e-8 * 1e6 = 1e-2
        s = 1e3
        ComplexGroupElement(SU2, np.diag([s * (1.0 + 5e-3), 1.0 / s]))
        with pytest.raises(ValueError, match="^SL\\(2,C\\) elements must have determinant 1$"):
            ComplexGroupElement(SU2, np.diag([s * (1.0 + 2e-2), 1.0 / s]))
        with pytest.raises(ValueError, match="determinant 1"):
            ComplexGroupElement(SU2, np.diag([1.0 + 2e-8, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_entries(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for cls in (GroupElement, ComplexGroupElement):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                cls(SU2, m)

    @pytest.mark.parametrize("bad", [0.0, math.nan, complex(math.inf, 0.0)])
    def test_u1_zero_and_non_finite(self, bad):
        for cls in (GroupElement, ComplexGroupElement):
            with pytest.raises(ValueError, match="must be finite and nonzero$"):
                cls(U1, bad)

    def test_u1_unitarity_threshold(self):
        GroupElement(U1, 1.0 + 0.9e-8)
        with pytest.raises(ValueError, match="not unitary"):
            GroupElement(U1, 1.0 + 1.1e-8)

    def test_unprojected_product_validates(self):
        rng = np.random.default_rng(13)
        factors = [exp_map(AlgebraVector(SU2, rng.normal(scale=0.3, size=3))) for _ in range(63)]
        g = identity(SU2)
        for f in factors:
            g = f * g
        # one factor short of the reprojection: the raw drift must pass the checks
        assert isinstance(g, GroupElement) and g._staleness == 63
        assert numpy_unitarity_defect(g.value) < 1e-12

    def test_internal_products_are_checked(self):
        g = haar_sample(SU2, np.random.default_rng(14))
        broken = haar_sample(SU2, np.random.default_rng(15))
        broken.value = 1.1 * broken.value
        with pytest.raises(ValueError, match="determinant 1"):
            g * broken


class TestHaarIntegration:
    def test_normalization(self):
        for group in (U1, SU2):
            res = haar_integrate(group, lambda g: 1.0, level=8)
            assert abs(res.value - 1.0) < 1e-12

    def test_su2_character_orthogonality(self):
        res = haar_integrate(SU2, lambda g: character(SU2, 1, g), level=12, class_function=True)
        assert abs(res.value) < 1e-12
        res = haar_integrate(
            SU2, lambda g: abs(character(SU2, 1, g)) ** 2, level=12, class_function=True
        )
        assert abs(res.value - 1.0) < 1e-12

    def test_euler_grid_agrees_with_weyl_grid(self):
        f = lambda g: abs(character(SU2, 2, g)) ** 2
        full = haar_integrate(SU2, f, level=10)
        weyl = haar_integrate(SU2, f, level=10, class_function=True)
        assert abs(full.value - weyl.value) < 1e-9

    def test_grid_refinement_converges(self):
        # brute-force refinement oracle for a non-class function
        f = lambda g: np.real(np.asarray(g.value)[0, 0]) ** 2
        coarse = haar_integrate(SU2, f, level=6).value
        fine = haar_integrate(SU2, f, level=12).value
        assert abs(fine - coarse) < 1e-8

    def test_u1_characters(self):
        res = haar_integrate(U1, lambda g: g.value**3, level=32)
        assert abs(res.value) < 1e-14
        res = haar_integrate(U1, lambda g: abs(g.value**3) ** 2, level=32)
        assert abs(res.value - 1.0) < 1e-14

    def test_left_invariance_monte_carlo(self):
        rng = np.random.default_rng(21)
        a = haar_sample(SU2, rng)
        f = lambda g: np.real(np.trace(a.value @ g.value)) ** 2
        plain = haar_integrate(SU2, f, method="monte_carlo", n_samples=20000, seed=1)
        shifted = haar_integrate(
            SU2, lambda g: f(a * g), method="monte_carlo", n_samples=20000, seed=2
        )
        gap = abs(plain.mean - shifted.mean)
        assert gap < 3.0 * math.hypot(plain.std_error, shifted.std_error)

    def test_monte_carlo_matches_quadrature(self):
        f = lambda g: abs(character(SU2, 1, g)) ** 2
        mc = haar_integrate(SU2, f, method="monte_carlo", n_samples=40000, seed=3)
        assert mc.z_score(1.0) < 4.0

    def test_invalid_mode_arguments(self):
        with pytest.raises(ValueError):
            haar_integrate(SU2, lambda g: 1.0, level=1)
        with pytest.raises(ValueError):
            haar_integrate(SU2, lambda g: 1.0, method="monte_carlo", n_samples=0, seed=1)
        with pytest.raises(ValueError):
            haar_integrate(SU2, lambda g: 1.0, method="monte_carlo", n_samples=10)

    def test_haar_sampling_is_uniform_on_angles(self):
        # SU(2) eigenvalue angle has density (2/pi) sin^2; check the mean of
        # cos(angle) which should be -1/2 * ... integral cos * (2/pi) sin^2 = -1/2? no:
        # E[cos theta] = (2/pi) int_0^pi cos t sin^2 t dt = 0; E[cos^2] = 1/4.
        rng = np.random.default_rng(17)
        angles = []
        for _ in range(4000):
            g = haar_sample(SU2, rng)
            angles.append(math.acos(max(-1.0, min(1.0, np.real(np.trace(g.value)) / 2.0))))
        angles = np.array(angles)
        assert abs(np.mean(np.cos(angles))) < 4.0 / math.sqrt(len(angles))
        assert abs(np.mean(np.cos(angles) ** 2) - 0.25) < 4.0 / math.sqrt(len(angles))


class TestHaarGridCache:
    """haar_integrate and coherent_overlap share one read-only grid per
    (group, level, class_function); the public grid builders stay fresh."""

    @pytest.mark.parametrize("group, class_function", [(U1, False), (SU2, False), (SU2, True)])
    def test_repeated_grid_is_shared_and_read_only(self, group, class_function):
        values, weights = _haar_grid(group, 6, class_function)
        again = _haar_grid(group, 6, class_function)
        assert again[0] is values and again[1] is weights
        assert not values.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("class_function", [False, True])
    def test_writing_integrand_raises_and_leaves_the_grid(self, class_function):
        f = lambda g: heat_kernel(SU2, 0.7, g) * character(SU2, 2, g) + 1j * g.value[0, 0].imag
        before = haar_integrate(SU2, f, level=6, class_function=class_function)

        def writer(g):
            g.value[0, 0] = 2.0
            return 0.0

        with pytest.raises(ValueError, match="read-only"):
            haar_integrate(SU2, writer, level=6, class_function=class_function)
        assert haar_integrate(SU2, f, level=6, class_function=class_function) == before

    @pytest.mark.parametrize("use", [
        lambda: haar_integrate(SU2, lambda g: 1.0, level=6),
        lambda: coherent_overlap(CoherentLabel(identity(SU2), 1.0), CharacterSeries.single(SU2, 1), quad_level=6),
    ], ids=["haar_integrate", "coherent_overlap"])
    def test_corrupted_grid_raises_on_first_use(self, monkeypatch, use):
        # the grid is checked once, when built, for every reader of the cache
        def corrupted(level):
            mats, weights = su2_euler_grid(level)  # this module's name stays unpatched
            return 1.01 * mats, weights

        monkeypatch.setattr(groups, "su2_euler_grid", corrupted)
        _haar_grid.cache_clear()
        with pytest.raises(ValueError, match="determinant 1"):
            use()

    def test_public_grids_are_fresh_and_writable(self):
        for class_function in (False, True):
            _haar_grid(SU2, 5, class_function)  # cached grids built by the two below
        for build in (su2_euler_grid, su2_weyl_grid):
            first, second = build(5), build(5)
            for a, b in zip(first, second):
                assert a.flags.writeable and not np.shares_memory(a, b)
                a[...] = 0.0  # the next grid is unaffected
            assert all(np.array_equal(a, b) for a, b in zip(build(5), second))


def _su2_probe(g):
    # reads entries beyond the trace, so a wrong node order or value shows
    return heat_kernel(SU2, 1.0, g) * character(SU2, 1, g) + 1j * g.value[0, 1].real


def _u1_probe(g):
    return heat_kernel(U1, 0.7, g) + g.value**2


class TestStackedNodes:
    """Haar draws and grid nodes are validated as one stack, then wrapped:
    the loops below, one validated GroupElement per node, are the reference."""

    @pytest.mark.parametrize("group, f", [(U1, _u1_probe), (SU2, _su2_probe)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monte_carlo_matches_per_sample_loop(self, group, f, seed):
        def per_sample(rng, m):
            if group is U1:
                elems = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=m))
                return np.array([[f(GroupElement(group, z))] for z in elems], dtype=complex)
            mats = groups._su2_sample_batch(rng, m)
            return np.array([[f(GroupElement(group, u))] for u in mats], dtype=complex)

        n = 10_001  # one full chunk of 8192 and a partial one
        est = haar_integrate(group, f, method="monte_carlo", n_samples=n, seed=seed)
        (ref,) = chunked_mc_vector(per_sample, 1, n, seed)
        assert complex(est.mean) == complex(ref.mean)
        assert float(est.std_error).hex() == float(ref.std_error).hex()

    @pytest.mark.parametrize("level", [2, 3, 6, 12])
    def test_euler_quadrature_matches_per_node_loop(self, level):
        mats, weights = su2_euler_grid(level)
        total = 0.0 + 0.0j
        for m, w in zip(mats, weights):
            total += w * _su2_probe(GroupElement(SU2, m))
        assert _haar_quadrature(SU2, _su2_probe, level, False) == complex(total)

    @pytest.mark.parametrize("level", [2, 6, 17, 24, 48])
    def test_weyl_and_u1_quadrature_match_per_node_loops(self, level):
        f = lambda g: heat_kernel(SU2, 0.6, g) + 1j * g.value[1, 1].imag
        thetas, weights = su2_weyl_grid(level)
        total = 0.0 + 0.0j
        for t, w in zip(thetas, weights):
            total += w * f(GroupElement(SU2, np.diag([np.exp(1j * t), np.exp(-1j * t)])))
        assert _haar_quadrature(SU2, f, level, True) == complex(total)
        values, weights = _haar_grid(U1, level, False)
        total = sum(w * _u1_probe(GroupElement(U1, v)) for v, w in zip(values, weights))
        assert _haar_quadrature(U1, _u1_probe, level, False) == complex(total)

    def test_corrupted_haar_batch_raises(self, non_unitary_su2_batch):
        with pytest.raises(ValueError, match="group element is not unitary"):
            haar_integrate(SU2, _su2_probe, method="monte_carlo", n_samples=100, seed=1)

    def test_product_matches_matmul(self):
        # __mul__ forms 2x2 products with dot; @ is the reference
        rng = np.random.default_rng(8)
        for _ in range(1500):
            g, h = haar_sample(SU2, rng), haar_sample(SU2, rng)
            assert np.array_equal((g * h).value, g.value @ h.value)
            x, y = rng.normal(size=3), rng.normal(size=3)
            z = exp_map(AlgebraVector(SU2, x), AlgebraVector(SU2, y))
            assert np.array_equal((z * g).value, z.value @ g.value)


class TestAlgebraVector:
    def test_embed_antihermitian_traceless(self):
        rng = np.random.default_rng(2)
        x = AlgebraVector(SU2, rng.normal(size=3))
        m = x.embed()
        assert np.max(np.abs(m + m.conj().T)) < 1e-12
        assert abs(np.trace(m)) < 1e-12

    def test_u1_embed_purely_imaginary(self):
        m = AlgebraVector(U1, [1.7]).embed()
        assert m == 1.7j

    def test_orthonormality_of_basis(self):
        from cylgauge.groups import PAULI

        for j in range(3):
            for k in range(3):
                ej = 0.5j * PAULI[j]
                ek = 0.5j * PAULI[k]
                inner = -2.0 * np.trace(ej @ ek)
                assert abs(inner - (1.0 if j == k else 0.0)) < 1e-14

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            AlgebraVector(SU2, [1.0, 2.0])
        with pytest.raises(ValueError):
            AlgebraVector(U1, [math.nan])


def test_group_distance_is_geodesic_length():
    x = AlgebraVector(SU2, [0.3, 0.0, 0.0])
    a = identity(SU2)
    b = exp_map(x)
    assert abs(group_distance(a, b) - 0.3) < 1e-12
