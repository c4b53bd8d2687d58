import inspect
import math

import numpy as np
import pytest

from cylgauge import lattice, reduction
from cylgauge.groups import GroupKind
from cylgauge.lattice import (
    LatticeConnection,
    _coupled_levels,
    _gaussian_draw,
    holonomy,
    pushforward_moment,
    smooth_connection,
)
from cylgauge.montecarlo import MCEstimate, chunked_mc_vector
from cylgauge.reduction import (
    FDStepError,
    gram_isometry_check,
    gram_matrix_refinement,
    laplacian_reduction_check,
    lattice_laplacian,
    pushforward_refinement,
    radial_laplacian_check,
    semigroup_reduction_check,
    submersion_check,
)
from cylgauge.spectral import (
    CharacterSeries,
    evaluate_series,
    heat_semigroup,
    irrep_info,
    rho_s_inner_product,
    su2_characters_from_traces,
)

U1, SU2 = GroupKind.U1, GroupKind.SU2


class TestLaplacianReduction:
    def test_constant_series_both_sides_zero(self):
        L = smooth_connection(SU2, 16, np.random.default_rng(0))
        phi = CharacterSeries.single(SU2, 0)
        rep = laplacian_reduction_check(phi, L)
        row = rep.rows[0]
        assert abs(row.estimate) < 1e-9 and abs(row.target) < 1e-14

    def test_u1_exact_identity(self):
        # N Sum_k (-k^2/N^2) = -k^2 makes the two sides coincide identically
        for n in (8, 24):
            L = smooth_connection(U1, n, np.random.default_rng(1), amplitude=2.0)
            rep = laplacian_reduction_check(CharacterSeries.single(U1, 2), L)
            row = rep.rows[0]
            assert row.error < 1e-6 * max(1.0, abs(row.target))

    def test_su2_error_halves_or_better(self):
        errs = []
        for n in (16, 32):
            L = smooth_connection(SU2, n, np.random.default_rng(7), amplitude=1.0)
            rep = laplacian_reduction_check(CharacterSeries.single(SU2, 1), L)
            row = rep.rows[0]
            errs.append(row.error / abs(row.target))
        assert errs[1] <= 0.7 * errs[0]

    def test_mixed_series(self):
        L = smooth_connection(SU2, 24, np.random.default_rng(3), amplitude=0.8)
        phi = CharacterSeries(SU2, {0: 0.5, 1: 1.0, 2: -0.25})
        rep = laplacian_reduction_check(phi, L)
        assert rep.rows[0].passed

    def test_roundoff_dominated_step_reported(self, monkeypatch):
        # the steps the check picks, times 2e-4: roundoff far above the second difference
        L = smooth_connection(SU2, 16, np.random.default_rng(4))
        real = reduction.lattice_laplacian
        monkeypatch.setattr(reduction, "lattice_laplacian", lambda phi, L, step: real(phi, L, 2e-4 * step))
        with pytest.raises(FDStepError):
            laplacian_reduction_check(CharacterSeries.single(SU2, 1), L)


class TestSemigroupReduction:
    def test_trivial_series_exact(self):
        base = smooth_connection(SU2, 16, np.random.default_rng(5))
        rep = semigroup_reduction_check(CharacterSeries.single(SU2, 0), base, 0.5, 500, seed=1)
        row = rep.rows[0]
        assert row.estimate == 1.0 + 0.0j and row.target == 1.0 + 0.0j
        assert row.std_error == 0.0

    def test_u1_real_base_exact_gaussian(self):
        k, hbar = 2, 0.5
        base = smooth_connection(U1, 16, np.random.default_rng(6), amplitude=1.0)
        theta0 = base.values[:, 0].mean()
        rep = semigroup_reduction_check(CharacterSeries.single(U1, k), base, hbar, 100_000, seed=2)
        row = rep.rows[0]
        exact = math.exp(-(k**2) * hbar / 2.0) * np.exp(1j * k * theta0)
        assert abs(row.target - exact) < 1e-12
        assert row.z < 3.0

    def test_u1_complex_base_exact(self):
        k, hbar = 1, 0.5
        re = smooth_connection(U1, 16, np.random.default_rng(8), amplitude=1.0)
        im = smooth_connection(U1, 16, np.random.default_rng(9), amplitude=0.4)
        base = LatticeConnection(U1, re.values + 1j * im.values)
        rep = semigroup_reduction_check(CharacterSeries.single(U1, k), base, hbar, 100_000, seed=3)
        row = rep.rows[0]
        z0 = (re.values[:, 0] + 1j * im.values[:, 0]).mean()
        exact = math.exp(-hbar / 2.0) * np.exp(1j * z0)
        assert abs(row.target - exact) < 1e-12
        assert row.z < 3.0

    def test_su2_complex_base_extrapolated(self):
        # lattice bias is O(1/N); remove it with a coupled refinement and
        # require the extrapolated estimate to sit within 3 sigma
        hbar, n_fine = 0.5, 32
        phi = CharacterSeries.single(SU2, 1)
        flowed_targets = []
        bases = []
        for level in range(2):
            n = n_fine >> level
            re = smooth_connection(SU2, n, np.random.default_rng(40), amplitude=0.8)
            im = smooth_connection(SU2, n, np.random.default_rng(41), amplitude=0.25)
            base = LatticeConnection(SU2, re.values + 1j * im.values)
            bases.append(base.values)
            flowed_targets.append(
                evaluate_series(heat_semigroup(SU2, hbar, phi), holonomy(base))
            )

        def columns(traces):
            return [su2_characters_from_traces(1, traces)[1]]

        (study,) = _coupled_levels(
            SU2, _gaussian_draw(SU2, n_fine, hbar), columns, [flowed_targets], n_fine, 150_000,
            seed=44, bases=bases,
        )
        assert study.extrapolated_z() < 3.0

    def test_invalid_hbar(self):
        base = smooth_connection(SU2, 8, np.random.default_rng(10))
        with pytest.raises(ValueError):
            semigroup_reduction_check(CharacterSeries.single(SU2, 1), base, -1.0, 100, seed=0)


class TestGramIsometry:
    def test_trivial_entry_exact(self):
        rep = gram_isometry_check(SU2, 0, 2.0, 0.5, 16, 1000, seed=1)
        row = rep.rows[0]
        assert row.estimate == 1.0 + 0.0j and row.std_error == 0.0

    def test_u1_diagonal_is_unity(self):
        rep = gram_isometry_check(U1, 2, 2.0, 0.5, 16, 60_000, seed=2)
        for row in rep.rows:
            a, b = eval(row.quantity.replace("gram", ""))
            if a == b:
                assert abs(row.target - 1.0) < 1e-12
            assert row.z < 4.0

    def test_su2_entry_target_closed_form(self):
        s, hbar = 2.0, 0.5
        c2 = irrep_info(SU2, 2).casimir
        rep = gram_isometry_check(SU2, 1, s, hbar, 32, 50_000, seed=3)
        by_name = {r.quantity: r for r in rep.rows}
        assert abs(by_name["gram[1,1]"].target - (1.0 + 3.0 * math.exp(-s * c2 / 2.0))) < 1e-12

    def test_su2_refined_entry_within_three_sigma(self):
        study = gram_matrix_refinement(SU2, 1, 2.0, 0.5, 32, 150_000, seed=4)[1, 1]
        assert study.extrapolated_z() < 3.0

    def test_u1_negative_label_entry(self):
        # chi_{-1} is the conjugate of chi_1, not a row counted from the end
        est, target = pushforward_moment(U1, -1, 2.0, 16, 20_000, seed=5)
        assert abs(target - math.exp(-1.0)) < 1e-12
        assert est.z_score(target) < 4.0

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            gram_isometry_check(SU2, 1, 0.25, 0.5, 16, 100, seed=0)

    def test_diagram_consistency_real_vs_complex_side(self):
        # E_{P_s} |chi_1(h(A))|^2 and the complex-side Gram share the target
        s, n = 1.0, 32
        target = rho_s_inner_product(SU2, 1, 1, s)

        def sampler(rng, m):
            coords = rng.normal(scale=math.sqrt(s * n), size=(m, n, 3))
            from cylgauge.lattice import holonomy_traces

            chi = su2_characters_from_traces(1, holonomy_traces(SU2, coords))[1]
            return (np.abs(chi) ** 2 + 0.0j)[:, None]

        (real_side,) = chunked_mc_vector(sampler, 1, 100_000, seed=5)
        assert abs(real_side.mean - target) < 3.0 * real_side.std_error + 8.0 / n

    def test_s_trend_of_targets_toward_identity(self):
        olds = None
        for s in (2.0, 8.0, 32.0):
            off = rho_s_inner_product(SU2, 0, 2, s)
            diag_gap = abs(rho_s_inner_product(SU2, 1, 1, s) - 1.0)
            if olds is not None:
                assert off < olds[0] and diag_gap < olds[1]
            olds = (off, diag_gap)
        assert olds[0] < 1e-10 and olds[1] < 1e-10


class TestBiasOrder:
    def test_pushforward_bias_ratio_first_order(self):
        ratios = []
        for seed in range(5):
            study = pushforward_refinement(SU2, 1, 1.0, 64, 150_000, seed=100 + seed)
            ratios.append(study.bias_ratio())
        assert 0.3 <= float(np.mean(ratios)) <= 0.7

    def test_extrapolation_and_levels(self):
        study = pushforward_refinement(SU2, 1, 1.0, 64, 100_000, seed=2)
        assert study.n_sites == (64, 32, 16)
        assert study.extrapolated_z() < 4.0

    def test_coarsen_preserves_gaussian_law(self):
        # the runner's coupled N/2 sample: adjacent sites of the N-site draw averaged
        rng = np.random.default_rng(11)
        fine = rng.normal(scale=math.sqrt(32.0), size=(4000, 32, 1))
        half = 0.5 * (fine[:, 0::2] + fine[:, 1::2])
        assert half.shape == (4000, 16, 1)
        assert abs(half.var() - 16.0) < 4.0 * 16.0 * math.sqrt(2.0 / half.size)


class TestCoupledLevels:
    @staticmethod
    def run(n_columns, n_levels, n_fine=16):
        def columns(traces):
            chars = su2_characters_from_traces(n_columns, traces)
            return [chars[k + 1] for k in range(n_columns)]

        targets = [(float(k + 2),) * n_levels for k in range(n_columns)]
        return _coupled_levels(
            SU2, _gaussian_draw(SU2, n_fine, 1.0), columns, targets, n_fine, 2000, seed=6
        )

    @pytest.mark.parametrize("n_columns", [1, 3])
    @pytest.mark.parametrize("n_levels", [1, 2, 3])
    def test_estimate_count(self, n_columns, n_levels):
        studies = self.run(n_columns, n_levels)
        assert len(studies) == n_columns
        for k, study in enumerate(studies):
            assert study.n_sites == (16, 8, 4)[:n_levels]
            assert len(study.estimates) == n_levels
            assert study.targets == (complex(k + 2),) * n_levels
            assert (study.extrapolated is None) == (n_levels == 1)

    def test_richardson_columns_follow_the_levels(self):
        for study in self.run(2, 3):
            fine, half = study.estimates[:2]
            assert abs(study.extrapolated.mean - (2.0 * fine.mean - half.mean)) < 1e-12

    def test_one_level_study_has_no_extrapolation(self):
        study = pushforward_refinement(SU2, 1, 1.0, 16, 2000, seed=1, n_levels=1)
        assert study.n_sites == (16,) and study.extrapolated is None
        with pytest.raises(ValueError):
            study.extrapolated_z()
        with pytest.raises(ValueError):
            study.bias_ratio()

    def test_one_level_gram_matrix(self):
        studies = gram_matrix_refinement(SU2, 1, 2.0, 0.5, 16, 2000, seed=1, n_levels=1)
        assert sorted(studies) == [(0, 0), (0, 1), (1, 1)]
        assert all(len(st.estimates) == 1 and st.extrapolated is None for st in studies.values())

    @pytest.mark.parametrize("n_fine, n_levels", [(15, 2), (16, 0)])
    @pytest.mark.parametrize("consumer", [
        lambda n, levels: pushforward_refinement(SU2, 1, 1.0, n, 100, 1, n_levels=levels),
        lambda n, levels: gram_matrix_refinement(SU2, 1, 2.0, 0.5, n, 100, 1, n_levels=levels),
    ], ids=["pushforward_refinement", "gram_matrix_refinement"])
    def test_bad_levels_rejected_before_drawing(self, consumer, n_fine, n_levels, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew samples before checking the levels")

        monkeypatch.setattr(lattice, "chunked_mc_vector", no_draw)
        with pytest.raises(ValueError, match=r"n_levels must be at least 1 and n_fine divisible"):
            consumer(n_fine, n_levels)

    def test_benchmark_bound_names(self):
        # the benchmark calls these by name and reads n_samples by keyword
        for fn in (pushforward_refinement, gram_matrix_refinement):
            params = inspect.signature(fn).parameters
            assert {"n_samples", "n_levels", "n_workers"} <= set(params)
        # bench/workloads.py::_check_study reads these fields of each study
        studies = [pushforward_refinement(SU2, 1, 1.0, 16, 200, seed=1, n_levels=2)]
        studies += gram_matrix_refinement(SU2, 1, 2.0, 0.5, 16, 200, seed=1).values()
        for study in studies:
            assert len(study.n_sites) == len(study.estimates) == len(study.targets) == 2
            assert all(isinstance(e, MCEstimate) for e in study.estimates)
            assert isinstance(study.extrapolated, MCEstimate)
        # and unpacks lattice.pushforward_moment as (estimate, target)
        est, target = lattice.pushforward_moment(U1, 1, 1.0, 16, 200, seed=1)
        assert isinstance(est, MCEstimate) and abs(target - math.exp(-0.5)) < 1e-14


class TestRadialLaplacian:
    def test_quadratic_profile(self):
        rep = radial_laplacian_check(
            lambda r: r**2, [0.5, 1.0, 2.0], f_prime=lambda r: 2 * r, f_second=lambda r: 2.0
        )
        for row in rep.rows:
            assert row.passed
        planar = [r for r in rep.rows if r.quantity.startswith("planar")]
        assert all(abs(r.estimate - 4.0) < 1e-6 for r in planar)

    def test_log_profile_harmonic(self):
        rep = radial_laplacian_check(
            math.log, [0.5, 1.0, 2.0], f_prime=lambda r: 1 / r, f_second=lambda r: -1 / r**2
        )
        planar = [r for r in rep.rows if r.quantity.startswith("planar")]
        assert all(abs(r.estimate) < 1e-6 for r in planar)

    def test_constant_profile(self):
        rep = radial_laplacian_check(
            lambda r: 3.0, [1.0], f_prime=lambda r: 0.0, f_second=lambda r: 0.0
        )
        assert all(r.passed for r in rep.rows)

    def test_singular_orbit_rejected(self):
        with pytest.raises(ValueError):
            radial_laplacian_check(
                lambda r: r**2, [1e-5], f_prime=lambda r: 2 * r, f_second=lambda r: 2.0
            )


class TestSubmersion:
    def test_u1_single_singular_value_is_one(self):
        L = LatticeConnection(U1, np.random.default_rng(1).normal(size=(16, 1)))
        sv, rep = submersion_check(L)
        assert sv.shape == (1,)
        assert abs(sv[0] - 1.0) < 1e-9

    def test_su2_flat_connection(self):
        sv, rep = submersion_check(LatticeConnection(SU2, np.zeros((16, 3))))
        assert np.max(np.abs(sv - 1.0)) < 1e-6

    def test_su2_smooth_deviation_shrinks(self):
        devs = []
        for n in (16, 32):
            L = smooth_connection(SU2, n, np.random.default_rng(7), amplitude=1.0)
            sv, rep = submersion_check(L)
            assert len(sv) == 3
            assert all(r.passed for r in rep.rows)
            devs.append(np.max(np.abs(sv - 1.0)))
        assert devs[1] <= 0.7 * devs[0]


def test_lattice_laplacian_direct_value():
    # cross-check the batched second differences against a plain loop
    L = smooth_connection(U1, 6, np.random.default_rng(2), amplitude=1.0)
    phi = CharacterSeries.single(U1, 1)
    h = 1e-4

    def f(values):
        return np.exp(1j * values[:, 0].mean())

    acc = 0.0
    for k in range(6):
        plus = L.values.copy()
        minus = L.values.copy()
        plus[k, 0] += h
        minus[k, 0] -= h
        acc += (f(plus) - 2 * f(L.values) + f(minus)) / h**2
    acc *= 6
    assert abs(lattice_laplacian(phi, L, h) - acc) < 1e-10
