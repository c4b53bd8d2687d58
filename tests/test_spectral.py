import math

import numpy as np
import pytest

from cylgauge import spectral
from cylgauge.groups import (
    AlgebraVector,
    ComplexGroupElement,
    ConvergenceError,
    GroupElement,
    GroupKind,
    exp_map,
    haar_integrate,
    haar_sample,
    identity,
    su2_euler_grid,
    su2_weyl_grid,
    zero_vector,
)
from cylgauge.spectral import (
    CharacterSeries,
    _series_plan,
    character,
    evaluate_series,
    finite_difference_casimir,
    heat_kernel,
    heat_kernel_at_traces,
    heat_semigroup,
    irrep_info,
    rho_s_inner_product,
    su2_characters_from_traces,
)

U1, SU2 = GroupKind.U1, GroupKind.SU2


class TestIrrepInfo:
    def test_trivial_representation(self):
        info = irrep_info(SU2, 0)
        assert info.dim == 1 and info.casimir == 0.0

    def test_su2_fundamental_casimir_from_oracle(self):
        info = irrep_info(SU2, 1)
        assert info.dim == 2
        oracle = finite_difference_casimir(SU2, 1, seed=99)
        assert abs(info.casimir - oracle) < 1e-6
        assert abs(info.casimir - 0.75) < 1e-9  # value under this inner product

    def test_u1_casimir_is_squared_winding(self):
        info = irrep_info(U1, 2)
        assert info.dim == 1
        oracle = finite_difference_casimir(U1, 2, seed=13)
        assert abs(info.casimir - 4.0) < 1e-12
        assert abs(oracle - 4.0) < 1e-6

    def test_u1_label_sign_shares_one_validation(self, monkeypatch):
        oracle_labels = []
        monkeypatch.setattr(spectral, "_validated_casimirs", {})
        monkeypatch.setattr(spectral, "finite_difference_casimir",
                            lambda group, label: oracle_labels.append(label) or float(label * label))
        infos = [irrep_info(U1, k) for k in (-3, 3, -3)]
        assert oracle_labels == [3]
        assert [(i.label, i.casimir) for i in infos] == [(-3, 9.0), (3, 9.0), (-3, 9.0)]

    def test_negative_su2_label_rejected(self):
        with pytest.raises(ValueError):
            irrep_info(SU2, -1)

    @pytest.mark.parametrize("group,labels", [(SU2, range(5)), (U1, range(-4, 5))])
    def test_fd_laplacian_eigenvalue_identity(self, group, labels):
        # Delta chi = -c chi at random points, second-order differences with
        # one Richardson halving
        rng = np.random.default_rng(31)
        for label in labels:
            info = irrep_info(group, label)
            for _ in range(20):
                g = haar_sample(group, rng)
                lap = _fd_laplacian(group, label, g, 0.01)
                chi = character(group, label, g)
                assert abs(lap + info.casimir * chi) < 1e-6


def _oracle_reference(group, label, seed, n_points=20, step=1e-2):
    """finite_difference_casimir one point and one displacement at a time,
    each product a validated GroupElement."""
    def times(g, e):
        # SU(2) by @, apart from GroupElement.__mul__
        return g * e if group is U1 else GroupElement(group, g.value @ e.value)

    rng = np.random.default_rng(seed)
    num = 0.0
    den = 0.0
    for _ in range(n_points):
        g = haar_sample(group, rng)
        chi = character(group, label, g)

        def second_diff(h):
            total = 0.0 + 0.0j
            for j in range(group.algebra_dim):
                coords = np.zeros(group.algebra_dim)
                coords[j] = h
                e_plus = exp_map(AlgebraVector(group, coords))
                e_minus = exp_map(AlgebraVector(group, -coords))
                total += (
                    character(group, label, times(g, e_plus))
                    - 2.0 * chi
                    + character(group, label, times(g, e_minus))
                ) / h**2
            return total

        lap = (4.0 * second_diff(step / 2.0) - second_diff(step)) / 3.0
        num += (-lap * np.conj(chi)).real
        den += abs(chi) ** 2
    return num / den


# finite_difference_casimir(U1, label) at the default seed 321, labels -6..6
U1_ORACLE_HEX = {
    -6: "0x1.1fffffd484321p+5",
    -5: "0x1.8fffffe2df781p+4",
    -4: "0x1.fffffff0ba523p+3",
    -3: "0x1.1ffffffd4799ep+3",
    -2: "0x1.ffffffff0c76ep+1",
    -1: "0x1.ffffffffeb642p-1",
    0: "0x0.0p+0",
    1: "0x1.fffffffff1f9ep-1",
    2: "0x1.ffffffff0c6fep+1",
    3: "0x1.1ffffffd482aep+3",
    4: "0x1.fffffff0bb2b0p+3",
    5: "0x1.8fffffe2e0298p+4",
    6: "0x1.1fffffd48488ep+5",
}


class TestCasimirOracle:
    @pytest.mark.parametrize("seed", [321, 0, 1, 5])
    def test_su2_stacked_oracle_matches_reference(self, seed):
        for label in range(7):
            expected = _oracle_reference(SU2, label, seed)
            assert finite_difference_casimir(SU2, label, seed=seed).hex() == expected.hex()

    def test_u1_oracle_bits(self):
        for label, expected in U1_ORACLE_HEX.items():
            assert finite_difference_casimir(U1, label).hex() == expected
            assert _oracle_reference(U1, label, 321).hex() == expected

    def test_corrupted_haar_batch_raises(self, non_unitary_su2_batch):
        with pytest.raises(ValueError, match="group element is not unitary"):
            finite_difference_casimir(SU2, 2)


def _fd_laplacian(group, label, g, h):
    def second(step):
        total = 0.0 + 0.0j
        chi0 = character(group, label, g)
        for j in range(group.algebra_dim):
            coords = np.zeros(group.algebra_dim)
            coords[j] = step
            plus = g * exp_map(AlgebraVector(group, coords))
            minus = g * exp_map(AlgebraVector(group, -coords))
            total += (
                character(group, label, plus) - 2 * chi0 + character(group, label, minus)
            ) / step**2
        return total

    return (4.0 * second(h / 2) - second(h)) / 3.0


class TestCharacters:
    def test_dimension_at_identity(self):
        for n in range(6):
            assert abs(character(SU2, n, identity(SU2)) - (n + 1)) < 1e-14

    def test_defining_representation_is_trace(self):
        rng = np.random.default_rng(8)
        g = haar_sample(SU2, rng)
        assert abs(character(SU2, 1, g) - np.trace(g.value)) < 1e-14

    def test_chi2_at_diagonal_point(self):
        # z^2 + 1 + z^-2 at z = 2, frozen from the eigenvalue-formula oracle
        g = ComplexGroupElement(SU2, np.diag([2.0, 0.5]))
        assert abs(character(SU2, 2, g) - 5.25) < 1e-13

    def test_eigenvalue_formula_oracle_on_complex_points(self):
        # chi_n(diag(z, 1/z)) = (z^(n+1) - z^-(n+1)) / (z - 1/z)
        rng = np.random.default_rng(14)
        for _ in range(10):
            z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            g = ComplexGroupElement(SU2, np.diag([z, 1.0 / z]))
            for n in range(7):
                oracle = (z ** (n + 1) - z ** -(n + 1)) / (z - 1.0 / z)
                assert abs(character(SU2, n, g) - oracle) < 1e-10 * max(1.0, abs(oracle))

    def test_u1_character_is_power(self):
        g = ComplexGroupElement(U1, 1.3 * np.exp(0.4j))
        assert abs(character(U1, -2, g) - g.value**-2) < 1e-14

    def test_orthonormality_all_pairs(self):
        for a in range(7):
            for b in range(a, 7):
                res = haar_integrate(
                    SU2,
                    lambda g: character(SU2, a, g) * np.conj(character(SU2, b, g)),
                    level=16,
                    class_function=True,
                )
                assert abs(res.value - (1.0 if a == b else 0.0)) < 1e-10


class TestHeatKernel:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_su2_normalization(self, t):
        res = haar_integrate(
            SU2, lambda g: heat_kernel(SU2, t, g), level=24, class_function=True
        )
        assert abs(res.value - 1.0) < 1e-9

    def test_u1_wrapped_gaussian_oracle(self):
        # Poisson summation: sum_k e^{-tk^2/2} e^{ik theta}
        #                  = sqrt(2 pi / t) sum_m e^{-(theta+2 pi m)^2 / 2t}
        t, theta = 1.0, 0.7
        g = GroupElement(U1, np.exp(1j * theta))
        oracle = math.sqrt(2.0 * math.pi / t) * sum(
            math.exp(-((theta + 2.0 * math.pi * m) ** 2) / (2.0 * t)) for m in range(-30, 31)
        )
        assert abs(heat_kernel(U1, t, g) - oracle) < 1e-10

    def test_u1_wrapped_gaussian_on_grid(self):
        t = 0.8
        for theta in np.linspace(-math.pi, math.pi, 100):
            g = GroupElement(U1, np.exp(1j * theta))
            oracle = math.sqrt(2.0 * math.pi / t) * sum(
                math.exp(-((theta + 2.0 * math.pi * m) ** 2) / (2.0 * t))
                for m in range(-30, 31)
            )
            assert abs(heat_kernel(U1, t, g) - oracle) < 1e-10

    def test_flattening_as_time_grows(self):
        rng = np.random.default_rng(5)
        grid = [haar_sample(SU2, rng) for _ in range(25)]
        sups = []
        for t in (1.0, 5.0, 25.0):
            sups.append(max(abs(heat_kernel(SU2, t, g) - 1.0) for g in grid))
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-2

    def test_positivity_on_compact_group(self):
        # positive up to the series truncation tolerance: at small t the
        # kernel decays below 1e-12 far from the identity
        rng = np.random.default_rng(6)
        for t in (0.1, 0.5, 1.0, 5.0, 25.0):
            for _ in range(40):
                assert heat_kernel(SU2, t, haar_sample(SU2, rng)) > -1e-12
                assert heat_kernel(U1, t, haar_sample(U1, rng)) > -1e-12

    def test_real_on_group(self):
        rng = np.random.default_rng(9)
        val = heat_kernel(SU2, 0.7, haar_sample(SU2, rng))
        assert isinstance(val, float)

    def test_complex_continuation_consistent_with_restriction(self):
        rng = np.random.default_rng(10)
        x = AlgebraVector(SU2, rng.normal(size=3))
        on_k = exp_map(x)
        off_k = exp_map(x, zero_vector(SU2))  # same point, complex container
        assert abs(heat_kernel(SU2, 1.2, on_k) - heat_kernel(SU2, 1.2, off_k)) < 1e-9

    def test_divergence_guard(self):
        far = exp_map(zero_vector(SU2), AlgebraVector(SU2, [25.0, 0.0, 0.0]))
        # series peak beyond the term cap
        with pytest.raises(ConvergenceError):
            heat_kernel(SU2, 0.005, far)
        # feasible peak but the character recursion overflows first
        with pytest.raises(ConvergenceError):
            heat_kernel(SU2, 0.1, far)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_scalar_su2_bits_match_batched(self, t):
        # the scalar path runs the recurrence in real floats; the batched one
        # in complex arrays, here at traces whose imaginary part is roundoff
        rng = np.random.default_rng(16)
        haar = [haar_sample(SU2, rng) for _ in range(500)]
        angles = su2_weyl_grid(24)[0]
        weyl = [GroupElement(SU2, np.diag([np.exp(1j * a), np.exp(-1j * a)])) for a in angles]
        euler = [GroupElement(SU2, m) for m in su2_euler_grid(6)[0]]
        products = [haar[0] * x.inverse() for x in euler]
        points = haar + weyl + euler + products
        traces = np.array([g.trace() for g in points])
        assert np.count_nonzero(traces.imag) > 0
        scalar = np.array([heat_kernel(SU2, t, g) for g in points])
        batched = heat_kernel_at_traces(SU2, t, traces, 0, 1e-12).real
        assert scalar.tobytes() == batched.tobytes()

    def test_series_plan_cache_is_bounded(self):
        maxsize = _series_plan.cache_info().maxsize
        assert maxsize is not None
        rng = np.random.default_rng(17)
        for _ in range(maxsize + 10):
            x, y = rng.normal(size=3), rng.normal(scale=0.5, size=3)
            g = exp_map(AlgebraVector(SU2, x), AlgebraVector(SU2, y))
            heat_kernel(SU2, 1.0, g)
        assert _series_plan.cache_info().currsize <= maxsize

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            heat_kernel(SU2, -1.0, identity(SU2))


class TestHeatSemigroup:
    def test_time_zero_is_identity(self):
        phi = CharacterSeries(SU2, {0: 1.0, 1: 2.0, 3: -0.5j})
        out = heat_semigroup(SU2, 0.0, phi)
        assert out.coeffs == phi.coeffs

    def test_single_character_decay(self):
        phi = CharacterSeries.single(SU2, 1)
        out = heat_semigroup(SU2, 1.0, phi)
        assert abs(out.coeffs[1] - math.exp(-irrep_info(SU2, 1).casimir / 2.0)) < 1e-15

    def test_linearity(self):
        a, b = 1.3 - 0.2j, 0.7j
        combo = heat_semigroup(SU2, 0.9, CharacterSeries(SU2, {1: a, 2: b}))
        separate = {k: c * heat_semigroup(SU2, 0.9, CharacterSeries.single(SU2, k)).coeffs[k]
                    for k, c in ((1, a), (2, b))}
        for k in combo.coeffs:
            assert abs(combo.coeffs[k] - separate[k]) < 1e-15

    def test_semigroup_law_exact_on_coefficients(self):
        phi = CharacterSeries(SU2, {0: 0.2, 1: 1.0, 2: -2.0, 4: 0.1})
        once = heat_semigroup(SU2, 0.3, heat_semigroup(SU2, 0.7, phi))
        direct = heat_semigroup(SU2, 1.0, phi)
        for k in phi.coeffs:
            assert once.coeffs[k] == pytest.approx(direct.coeffs[k], abs=0.0, rel=1e-15)

    def test_convolution_identity(self):
        # integral rho_t(g x^-1) phi(x) dx = (heat-flowed phi)(g) on K
        t = 1.0
        phi = CharacterSeries.single(SU2, 1)
        flowed = heat_semigroup(SU2, t, phi)
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = haar_sample(SU2, rng)
            conv = haar_integrate(
                SU2,
                lambda x: heat_kernel(SU2, t, g * x.inverse()) * character(SU2, 1, x),
                level=12,
            )
            assert abs(conv.value - evaluate_series(flowed, g)) < 1e-8


class TestEvaluateSeries:
    def test_restriction_consistency(self):
        rng = np.random.default_rng(15)
        phi = CharacterSeries(SU2, {0: 1.0, 1: -0.5, 2: 2.0})
        g = haar_sample(SU2, rng)
        manual = sum(c * character(SU2, k, g) for k, c in phi.coeffs.items())
        assert abs(evaluate_series(phi, g) - manual) < 1e-13

    def test_u1_monomial_continuation(self):
        r, theta, k = 1.7, 0.3, 3
        g = ComplexGroupElement(U1, r * np.exp(1j * theta))
        phi = CharacterSeries.single(U1, k)
        assert abs(evaluate_series(phi, g) - r**k * np.exp(1j * k * theta)) < 1e-12

    def test_empty_series(self):
        assert evaluate_series(CharacterSeries(SU2, {}), identity(SU2)) == 0.0

    def test_su2_bits_match_python_sum(self):
        # the scalar SU(2) value goes through the batched evaluator; the
        # reference is the per-label Python sum over the character recurrence
        rng = np.random.default_rng(18)
        for _ in range(3000):
            g = exp_map(AlgebraVector(SU2, rng.normal(size=3)),
                        AlgebraVector(SU2, rng.normal(scale=0.8, size=3)))
            labels = rng.choice(7, size=rng.integers(1, 5), replace=False)
            phi = CharacterSeries(SU2, {int(k): complex(*rng.normal(size=2)) for k in labels})
            chars = su2_characters_from_traces(phi.max_label(), np.asarray(g.trace()))
            reference = complex(sum(c * chars[k] for k, c in phi.coeffs.items()))
            value = evaluate_series(phi, g)
            assert (value.real.hex(), value.imag.hex()) == (reference.real.hex(), reference.imag.hex())



def test_rho_s_inner_product_clebsch_gordan():
    s = 2.0
    c2 = irrep_info(SU2, 2).casimir
    assert abs(rho_s_inner_product(SU2, 1, 1, s) - (1.0 + 3.0 * math.exp(-s * c2 / 2.0))) < 1e-14
    assert abs(rho_s_inner_product(U1, 2, 2, s) - 1.0) < 1e-14
    assert abs(rho_s_inner_product(U1, 2, 0, s) - math.exp(-2.0 * s)) < 1e-14
