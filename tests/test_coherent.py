import math

import numpy as np
import pytest

from cylgauge.coherent import (
    CoherentLabel,
    coherent_overlap,
    resolution_identity_check,
)
from cylgauge.groups import (
    AlgebraVector,
    ComplexGroupElement,
    GroupKind,
    exp_map,
    identity,
)
from cylgauge.reduction import gram_isometry_check
from cylgauge.spectral import (
    CharacterSeries,
    irrep_info,
    rho_s_inner_product,
)

U1, SU2 = GroupKind.U1, GroupKind.SU2


def random_complex_point(group, rng, x_scale=0.8, y_scale=0.4):
    dim = group.algebra_dim
    return exp_map(
        AlgebraVector(group, rng.normal(scale=x_scale, size=dim)),
        AlgebraVector(group, rng.normal(scale=y_scale, size=dim)),
    )


class TestCoherentEval:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            CoherentLabel(identity(SU2), hbar=-1.0)
        for s in (0.4, 0.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="must exceed"):
                CoherentLabel(identity(SU2), hbar=1.0, s=s)


class TestOverlap:
    def test_trivial_series_total_mass(self):
        rng = np.random.default_rng(3)
        for s in (math.inf, 4.0):
            label = CoherentLabel(random_complex_point(SU2, rng), 0.8, s)
            res = coherent_overlap(label, CharacterSeries.single(SU2, 0), quad_level=16)
            assert abs(res.route_analytic - 1.0) < 1e-12
            assert abs(res.route_quadrature - 1.0) < 1e-8

    def test_su2_diagonal_closed_form(self):
        w, hbar = 1.3, 1.0
        g = ComplexGroupElement(SU2, np.diag([w, 1.0 / w]))
        label = CoherentLabel(g, hbar)
        res = coherent_overlap(label, CharacterSeries.single(SU2, 1), quad_level=16)
        expected = math.exp(-hbar * irrep_info(SU2, 1).casimir / 2.0) * (w + 1.0 / w)
        assert res.difference < 1e-7
        assert abs(res.route_analytic - expected) < 1e-12

    def test_u1_closed_form(self):
        r, alpha, k, hbar = 1.4, 0.6, 2, 0.5
        g = ComplexGroupElement(U1, r * np.exp(1j * alpha))
        res = coherent_overlap(CoherentLabel(g, hbar), CharacterSeries.single(U1, k), quad_level=64)
        expected = math.exp(-(k**2) * hbar / 2.0) * r**k * np.exp(1j * k * alpha)
        assert abs(res.route_analytic - expected) < 1e-12
        assert res.difference < 1e-10

    def test_twenty_random_pairs_agree(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            group = SU2 if trial % 2 == 0 else U1
            g = random_complex_point(group, rng)
            s = math.inf if trial % 3 == 0 else 4.0
            label = CoherentLabel(g, 0.8, s)
            max_label = 3 if group is SU2 else 2
            phi_label = int(rng.integers(0, max_label + 1))
            res = coherent_overlap(
                label, CharacterSeries.single(group, phi_label),
                quad_level=16 if group is SU2 else 64,
            )
            assert res.difference < 1e-7

    def test_finite_s_overlaps_are_s_independent(self):
        rng = np.random.default_rng(5)
        g = random_complex_point(SU2, rng)
        phi = CharacterSeries(SU2, {0: 0.3, 1: 1.0, 2: -0.2})
        values = []
        for s in (1.0, 4.0, 16.0):
            res = coherent_overlap(CoherentLabel(g, 0.5, s), phi, quad_level=14)
            values.append(res.route_quadrature)
        assert abs(values[0] - values[1]) < 1e-7
        assert abs(values[1] - values[2]) < 1e-7


class TestResolutionIdentity:
    def test_trivial_block_is_unity(self):
        rep = resolution_identity_check(SU2, 0, 0.5, [2.0, 8.0], 16, 2000, seed=1)
        for row in rep.rows:
            assert row.target == 1.0
            assert row.estimate == 1.0 + 0.0j

    def test_u1_matches_closed_forms(self):
        rep = resolution_identity_check(U1, 2, 0.5, [2.0], 16, 60_000, seed=2)
        for row in rep.rows:
            assert row.z < 4.0

    def test_su2_targets_and_trend(self):
        s_values = [2.0, 8.0, 32.0]
        rep = resolution_identity_check(SU2, 2, 0.5, s_values, 16, 20_000, seed=3)
        trend = rep.notes["s_trend"]
        offs = [trend[s]["max_offdiag_target"] for s in s_values]
        gaps = [trend[s]["max_diag_gap_target"] for s in s_values]
        assert offs[0] > offs[1] > offs[2]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_reconstruction_from_sampled_gram(self):
        # isometry form: <phi, phi> in L2(rho_s) reconstructed from R_ab
        s, hbar, n_max = 2.0, 0.5, 2
        coeff = {0: 0.5 + 0.0j, 1: 1.0 + 0.0j, 2: -0.3 + 0.2j}
        rep = resolution_identity_check(SU2, n_max, hbar, [s], 32, 120_000, seed=4)
        sampled = {}
        for row in rep.rows:
            tag = row.quantity.split("]")[-2].strip("[")
            a, b = (int(part) for part in tag.split(","))
            sampled[(a, b)] = row
        total = 0.0 + 0.0j
        exact = 0.0 + 0.0j
        error_budget = 0.0
        for a in range(n_max + 1):
            for b in range(n_max + 1):
                row = sampled[(min(a, b), max(a, b))]
                est = row.estimate if a <= b else np.conj(row.estimate)
                weight = np.conj(coeff[a]) * coeff[b]
                total += weight * est
                exact += weight * rho_s_inner_product(SU2, a, b, s)
                error_budget += abs(weight) * (row.std_error + 8.0 / 32)
        assert abs(total - exact) <= 3.0 * error_budget

    @pytest.mark.parametrize("group", [U1, SU2], ids=["u1", "su2"])
    def test_estimates_are_conjugates_of_the_gram(self, group):
        # E[<chi_a|state><state|chi_b>] is the conjugate of the Gram moment
        # E[chi_a conj(chi_b)] on the same draws, bit for bit
        s, hbar = 2.0, 0.5
        gram = gram_isometry_check(group, 2, s, hbar, 16, 5000, seed=6, n_workers=2)
        res = resolution_identity_check(group, 2, hbar, [s], 16, 5000, seed=6, n_workers=2)
        assert len(res.rows) == len(gram.rows) == 6
        for g, r in zip(gram.rows, res.rows):
            assert r.quantity == g.quantity.replace("gram", "resolution[s=2]")
            assert r.estimate.real == g.estimate.real and r.estimate.imag == -g.estimate.imag
            assert (r.std_error, r.z) == (g.std_error, g.z)
        assert res.rows[0].quantity.endswith("[0,0]")
        assert math.copysign(1.0, res.rows[0].estimate.imag) == 1.0  # +0.0, not -0.0

    def test_s_below_bound_rejected(self):
        with pytest.raises(ValueError):
            resolution_identity_check(SU2, 1, 1.0, [0.4], 16, 100, seed=0)

