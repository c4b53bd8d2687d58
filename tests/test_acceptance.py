"""Acceptance criteria for the toolkit, one test per criterion.

Each test pins the tolerances stated for the corresponding check and prints
one PASS line (visible with -s; pytest -v shows one PASSED/FAILED line per
criterion either way).  Stochastic criteria run at fixed seeds, so the suite
is deterministic.  Where a criterion allows "3 sigma + O(1/N)", the leading
lattice bias is removed by Richardson extrapolation over coupled refinements
and the extrapolated estimate must sit within 3 sigma.
"""

import math
import time

import numpy as np

from cylgauge.bargmann import (
    HeatParams,
    s_transform_gram_check,
)
from cylgauge.cli import run_euclid_unitarity, run_gauge_check, run_heat_kernel_check, run_polar_check
from cylgauge.coherent import CoherentLabel, coherent_overlap
from cylgauge.dynamics import PhasePoint, geodesic_compare, make_constrained_pair
from cylgauge.groups import (
    AlgebraVector,
    ComplexGroupElement,
    GroupKind,
    exp_map,
    haar_sample,
    polar_decompose,
)
from cylgauge.lattice import (
    holonomy,
    pushforward_moment,
    smooth_connection,
)
from cylgauge.reduction import (
    gram_matrix_refinement,
    laplacian_reduction_check,
    pushforward_refinement,
    radial_laplacian_check,
    submersion_check,
)
from cylgauge.spectral import (
    CharacterSeries,
    character,
    irrep_info,
    rho_s_inner_product,
)

U1, SU2 = GroupKind.U1, GroupKind.SU2


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"
        return elapsed


def test_criterion_01_euclidean_unitarity():
    budget = Budget(5.0)
    worst = 0.0
    for s, hbar in ((1.0, 0.5), (2.0, 1.0), (5.0, 0.1)):
        result = s_transform_gram_check(HeatParams(s, hbar), 8)
        worst = max(worst, result.max_deviation)
        assert result.max_deviation < 1e-7
    elapsed = budget.check()
    print(f"[criterion 01] euclidean unitarity: PASS (max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_flat_transform_closed_form():
    budget = Budget(1.0)
    report = run_euclid_unitarity({"s": 1.0, "hbar": 1.0, "degree": 0, "c_limit": False, "seed": 20})
    (worst,) = [row.error for row in report.rows if row.quantity == "flat_gaussian_closed_form"]
    assert worst < 1e-8
    elapsed = budget.check()
    print(f"[criterion 02] flat transform closed form: PASS (max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_heat_kernel_validation():
    budget = Budget(5.0)
    rows = run_heat_kernel_check({}).rows
    for row in rows:
        assert row.error < row.tol, row.quantity
    worst_u1 = rows[0].error
    worst_su2 = max(row.error for row in rows[1:])
    elapsed = budget.check()
    print(
        f"[criterion 03] heat kernels: PASS (U1 oracle gap {worst_u1:.2e}, "
        f"SU2 mass gap {worst_su2:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_04_casimir_oracle():
    budget = Budget(5.0)
    rng = np.random.default_rng(21)
    worst = 0.0
    for group, labels in ((SU2, range(5)), (U1, range(-4, 5))):
        for label in labels:
            info = irrep_info(group, label)
            for _ in range(20):
                g = haar_sample(group, rng)
                lap = _fd_laplacian(group, label, g, 0.01)
                resid = abs(lap + info.casimir * character(group, label, g))
                worst = max(worst, resid)
    assert worst < 1e-6
    elapsed = budget.check()
    print(f"[criterion 04] casimir oracle: PASS (max residual {worst:.2e}, {elapsed:.2f}s)")


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


def test_criterion_05_gauge_invariance():
    budget = Budget(10.0)
    reports = {
        group: run_gauge_check({"group": group, "links": 16, "s": 1.0, "trials": 500, "seed": 22})
        for group in ("u1", "su2")
    }
    for rep in reports.values():
        for row in rep.rows:
            assert row.error < row.tol, row.quantity
    worst = max(rep.rows[0].error for rep in reports.values())
    # the SU(2) algebra-level drift halves per refinement: ratio in 0.5 +- 0.2
    ratio_row = reports["su2"].rows[1]
    assert ratio_row.quantity == "algebra_drift_halving_ratio"
    mean_ratio = ratio_row.estimate.real
    elapsed = budget.check()
    print(
        f"[criterion 05] gauge invariance: PASS (link drift {worst:.2e}, "
        f"algebra ratio {mean_ratio:.2f}, {elapsed:.2f}s)"
    )


def test_criterion_06_pushforward_to_heat_kernel():
    budget = Budget(60.0)
    # abelian tier: exactly zero lattice bias, any N
    target_u1 = math.exp(-0.5)
    z_u1 = []
    for n in (4, 64):
        est, target = pushforward_moment(U1, 1, 1.0, n, 100_000, seed=23)
        assert abs(target - target_u1) < 1e-14
        z_u1.append(est.z_score(target))
        assert est.z_score(target) < 3.0

    # SU(2) tier at N = 64: Richardson-extrapolated estimate within 3 sigma
    study = pushforward_refinement(SU2, 1, 1.0, 64, 100_000, seed=24)
    z_su2 = study.extrapolated_z()
    assert z_su2 < 3.0

    # bias halves between successive refinements, averaged over 5 seeds
    ratios = [
        pushforward_refinement(SU2, 1, 1.0, 64, 100_000, seed=500 + k).bias_ratio()
        for k in range(5)
    ]
    mean_ratio = float(np.mean(ratios))
    assert 0.3 <= mean_ratio <= 0.7
    elapsed = budget.check()
    print(
        f"[criterion 06] pushforward moments: PASS (U1 z {max(z_u1):.2f}, "
        f"SU2 extrapolated z {z_su2:.2f}, bias ratio {mean_ratio:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_07_semigroup_reduction():
    budget = Budget(120.0)
    from cylgauge.lattice import LatticeConnection, _coupled_levels, _gaussian_draw
    from cylgauge.reduction import semigroup_reduction_check
    from cylgauge.spectral import evaluate_series, heat_semigroup, su2_characters_from_traces

    # abelian tier, real and complex base points: exact targets, plain z
    hbar = 0.5
    zs = []
    for complex_base in (False, True):
        re = smooth_connection(U1, 32, np.random.default_rng(50), amplitude=1.0)
        if complex_base:
            im = smooth_connection(U1, 32, np.random.default_rng(51), amplitude=0.4)
            base = LatticeConnection(U1, re.values + 1j * im.values)
        else:
            base = re
        rep = semigroup_reduction_check(
            CharacterSeries.single(U1, 2), base, hbar, 100_000, seed=25
        )
        zs.append(rep.rows[0].z)
        assert rep.rows[0].z < 3.0

    # SU(2) tier at N = 32, real then complex base, extrapolated z < 3
    n_fine = 32
    phi = CharacterSeries.single(SU2, 1)
    su2_zs = []
    for complex_base in (False, True):
        bases, targets = [], []
        for level in range(2):
            n = n_fine >> level
            re = smooth_connection(SU2, n, np.random.default_rng(52), amplitude=0.8)
            if complex_base:
                im = smooth_connection(SU2, n, np.random.default_rng(53), amplitude=0.25)
                base = LatticeConnection(SU2, re.values + 1j * im.values)
            else:
                base = re
            bases.append(base.values)
            targets.append(evaluate_series(heat_semigroup(SU2, hbar, phi), holonomy(base)))

        def columns(traces):
            return [su2_characters_from_traces(1, traces)[1]]

        (study,) = _coupled_levels(
            SU2, _gaussian_draw(SU2, n_fine, hbar), columns, [targets], n_fine, 100_000,
            seed=26, bases=bases,
        )
        su2_zs.append(study.extrapolated_z())
        assert study.extrapolated_z() < 3.0
    elapsed = budget.check()
    print(
        f"[criterion 07] semigroup reduction: PASS (U1 z {max(zs):.2f}, "
        f"SU2 extrapolated z {max(su2_zs):.2f}, {elapsed:.1f}s)"
    )


def test_criterion_08_unitarity_diagram():
    budget = Budget(120.0)
    s, hbar = 2.0, 0.5
    c2 = irrep_info(SU2, 2).casimir
    study = gram_matrix_refinement(SU2, 1, s, hbar, 32, 100_000, seed=27)[1, 1]
    assert abs(study.target - (1.0 + 3.0 * math.exp(-s * c2 / 2.0))) < 1e-14
    z_11 = study.extrapolated_z()
    assert z_11 < 3.0

    matrix = gram_matrix_refinement(SU2, 2, s, hbar, 32, 100_000, seed=28)
    worst = max(entry.extrapolated_z() for entry in matrix.values())
    assert worst < 3.0
    elapsed = budget.check()
    print(
        f"[criterion 08] unitarity diagram: PASS (entry(1,1) z {z_11:.2f}, "
        f"matrix max z {worst:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_09_coherent_states():
    budget = Budget(300.0)
    rng = np.random.default_rng(29)
    worst_gap = 0.0
    for trial in range(20):
        group = SU2 if trial % 2 == 0 else U1
        dim = group.algebra_dim
        g = exp_map(
            AlgebraVector(group, rng.normal(scale=0.8, size=dim)),
            AlgebraVector(group, rng.normal(scale=0.4, size=dim)),
        )
        label = CoherentLabel(g, 0.8, math.inf if trial % 3 == 0 else 4.0)
        max_label = 3 if group is SU2 else 2
        phi = CharacterSeries.single(group, int(rng.integers(0, max_label + 1)))
        res = coherent_overlap(label, phi, quad_level=16 if group is SU2 else 64)
        worst_gap = max(worst_gap, res.difference)
    assert worst_gap < 1e-7

    # resolution-of-identity Grams: monotone approach to delta_ab in s, and
    # every finite-s entry consistent with its character-product target.
    # The site count scales with s so the per-link variance stays resolved.
    hbar = 0.5
    s_values = (2.0, 8.0, 32.0)
    prev_off, prev_gap = math.inf, math.inf
    worst_z = 0.0
    for s in s_values:
        n_sites = max(32, int(8 * s))
        matrix = gram_matrix_refinement(SU2, 2, s, hbar, n_sites, 60_000, seed=30)
        off, gap = 0.0, 0.0
        for (a, b), study in matrix.items():
            worst_z = max(worst_z, study.extrapolated_z())
            target = rho_s_inner_product(SU2, a, b, s)
            if a == b:
                gap = max(gap, abs(target - 1.0))
            else:
                off = max(off, abs(target))
        assert off < prev_off and gap < prev_gap
        prev_off, prev_gap = off, gap
    assert worst_z < 3.0
    # slowest off-diagonal target decays like 2 exp(-s c_1 / 2)
    assert prev_off < 3.0 * math.exp(-s_values[-1] * irrep_info(SU2, 1).casimir / 2.0)
    assert prev_gap < 1e-4
    elapsed = budget.check()
    print(
        f"[criterion 09] coherent states: PASS (route gap {worst_gap:.2e}, "
        f"resolution max z {worst_z:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_10_polar_decomposition():
    budget = Budget(1.0)
    rows = run_polar_check({"seed": 31}).rows
    for row in rows:
        assert row.error < row.tol, row.quantity
    worst = rows[0].error

    pc = polar_decompose(ComplexGroupElement(SU2, np.diag([2.0, 0.5])))
    assert np.max(np.abs(pc.x.value - np.eye(2))) < 1e-12
    elapsed = budget.check()
    print(f"[criterion 10] polar decomposition: PASS (max rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_11_laplacian_reduction():
    budget = Budget(60.0)
    # abelian tier: identity exact up to finite differences, at the default
    # step the CLI uses
    L = smooth_connection(U1, 24, np.random.default_rng(32), amplitude=1.5)
    rep = laplacian_reduction_check(CharacterSeries.single(U1, 2), L)
    u1_err = rep.rows[0].error / max(1.0, abs(rep.rows[0].target))
    assert u1_err < 1e-6

    # SU(2): relative error halves (or better) from N = 16 to N = 32
    errs = []
    for n in (16, 32):
        Ls = smooth_connection(SU2, n, np.random.default_rng(33), amplitude=1.0)
        r = laplacian_reduction_check(CharacterSeries.single(SU2, 1), Ls).rows[0]
        errs.append(r.error / abs(r.target))
    assert errs[1] <= 0.7 * errs[0]

    # flat radial example with the 2 pi r orbit-volume factor
    rep = radial_laplacian_check(
        lambda r: r**2, [0.5, 1.0, 2.0], f_prime=lambda r: 2 * r, f_second=lambda r: 2.0
    )
    assert all(row.error < 1e-6 * max(1.0, abs(row.target)) for row in rep.rows)
    rep = radial_laplacian_check(
        math.log, [0.5, 1.0, 2.0], f_prime=lambda r: 1 / r, f_second=lambda r: -1 / r**2
    )
    assert all(row.error < 1e-6 * max(1.0, abs(row.target)) for row in rep.rows)
    # decomposition: planar Laplacian = radial part + grad(log 2 pi r).grad
    for r in (0.5, 1.0, 2.0):
        h = 1e-4
        five = (
            (r + h) ** 2 + (r - h) ** 2 + 2 * (math.hypot(r, h)) ** 2 - 4 * r**2
        ) / h**2
        dlog = (math.log(2 * math.pi * (r + h)) - math.log(2 * math.pi * (r - h))) / (2 * h)
        assert abs(five - (2.0 + dlog * 2 * r)) < 1e-6

    # submersion: singular values near (1, 1, 1), tightening with N
    devs = []
    for n in (16, 32):
        Ls = smooth_connection(SU2, n, np.random.default_rng(34), amplitude=1.0)
        sv, rep = submersion_check(Ls)
        assert len(sv) == 3 and all(row.passed for row in rep.rows)
        devs.append(float(np.max(np.abs(sv - 1.0))))
    assert devs[1] <= 0.7 * devs[0]
    elapsed = budget.check()
    print(
        f"[criterion 11] Laplacian reduction: PASS (U1 {u1_err:.2e}, SU2 ratio "
        f"{errs[1] / errs[0]:.2f}, submersion dev {devs[1]:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_12_classical_reduction():
    budget = Budget(10.0)
    rng = np.random.default_rng(35)
    x0 = rng.normal(size=3)
    x0 = AlgebraVector(SU2, x0 / np.linalg.norm(x0))
    devs = []
    for n in (32, 64):
        L = smooth_connection(SU2, n, np.random.default_rng(36), amplitude=1.0)
        pt = make_constrained_pair(L, x0)
        dev, _ = geodesic_compare(pt, np.linspace(0.0, 2.0, 9))
        devs.append(dev)
    assert devs[0] < 4.0 / 32
    ratio = devs[1] / devs[0]
    assert 0.3 <= ratio <= 0.7

    control = []
    for n in (32, 64):
        L = smooth_connection(SU2, n, np.random.default_rng(36), amplitude=1.0)
        p = np.random.default_rng(37).normal(size=(n, 3))
        dev, _ = geodesic_compare(PhasePoint(L, p), np.linspace(0.0, 2.0, 9))
        control.append(dev)
    assert min(control) > 0.02
    elapsed = budget.check()
    print(
        f"[criterion 12] classical reduction: PASS (ratio {ratio:.2f}, "
        f"control {min(control):.3f}, {elapsed:.1f}s)"
    )
