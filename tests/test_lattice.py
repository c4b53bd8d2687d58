import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from cylgauge import cli, groups, lattice
from cylgauge.groups import (
    AlgebraVector,
    ComplexGroupElement,
    GroupElement,
    GroupKind,
    exp_map,
    haar_sample,
    haar_sample_batch,
    identity,
    validate_values,
)
from cylgauge.lattice import (
    LatticeConnection,
    LatticeGaugeMap,
    LinkConfiguration,
    gauge_transform,
    haar_gauge_drift,
    holonomy,
    holonomy_batch,
    holonomy_traces,
    link_holonomy_values,
    links_of,
    ordered_products,
    pushforward_moment,
    sample_connection,
    smooth_connection,
    smooth_gauge_map,
)
from cylgauge.montecarlo import MCEstimate
from cylgauge.reduction import gram_matrix_refinement, pushforward_refinement

U1, SU2 = GroupKind.U1, GroupKind.SU2


def complex_connection(group, n, s, hbar, rng):
    """One draw Z = A + iP of the complex (s, hbar) lattice Gaussian."""
    re, im = next(lattice._gaussian_draw(group, n, s, hbar)(rng, 1, 1))
    return LatticeConnection(group, re[0] + 1j * im[0])


def random_based_map(group, n, rng):
    elems = [identity(group)] + [haar_sample(group, rng) for _ in range(n - 1)]
    return LatticeGaugeMap(group, tuple(elems))


class TestSampling:
    def test_per_coordinate_variance(self):
        s, n = 1.0, 16
        rng = np.random.default_rng(0)
        draws = np.stack(
            [sample_connection(SU2, n, s, rng).values for _ in range(2000)]
        )
        var = draws.var()
        n_eff = draws.size
        # variance of the sample variance of a Gaussian: 2 sigma^4 / n
        assert abs(var - s * n) < 4.0 * s * n * math.sqrt(2.0 / n_eff)

    def test_norm_expectation_diverges_with_n(self):
        s = 0.7
        rng = np.random.default_rng(1)
        for n in (8, 32):
            norms = [float(np.sum(sample_connection(SU2, n, s, rng).values ** 2) / n) for _ in range(800)]
            expected = 3.0 * s * n  # dim(algebra) * s * N
            assert abs(np.mean(norms) - expected) < 4.0 * np.std(norms) / math.sqrt(len(norms))

    def test_small_s_limit(self):
        rng = np.random.default_rng(2)
        L = sample_connection(SU2, 8, 1e-12, rng)
        assert np.max(np.abs(L.values)) < 1e-4

    def test_complex_variances(self):
        s, hbar, n = 2.0, 1.0, 16
        r = 2 * s - hbar
        rng = np.random.default_rng(3)
        draws = [complex_connection(SU2, n, s, hbar, rng) for _ in range(2000)]
        re = np.stack([d.values.real for d in draws])
        im = np.stack([d.values.imag for d in draws])
        assert abs(re.var() - r / 2 * n) < 4 * (r / 2 * n) * math.sqrt(2.0 / re.size)
        assert abs(im.var() - hbar / 2 * n) < 4 * (hbar / 2 * n) * math.sqrt(2.0 / im.size)

    def test_r_to_zero_limit(self):
        s = 0.5
        hbar = 2 * s - 1e-9
        rng = np.random.default_rng(4)
        d = complex_connection(U1, 8, s, hbar, rng)
        assert np.max(np.abs(d.values.real)) < 1e-3

    def test_complex_holonomy_in_sl2c(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = complex_connection(SU2, 16, 2.0, 1.0, rng)
            h = holonomy(z)
            assert isinstance(h, ComplexGroupElement)
            (a, b), (c, d) = h.value
            assert abs(a * d - b * c - 1.0) < 1e-9 * max(1.0, float(np.max(np.abs(h.value))) ** 2)

    def test_boundary_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            lattice._gaussian_draw(SU2, 8, 0.5, 1.0)
        with pytest.raises(ValueError):
            sample_connection(SU2, 1, 1.0, rng)


class TestHolonomy:
    def test_flat_connection(self):
        L = LatticeConnection(SU2, np.zeros((12, 3)))
        assert holonomy(L).isclose(identity(SU2), 1e-14)

    def test_constant_connection_exact(self):
        x = AlgebraVector(SU2, [0.4, -0.2, 0.9])
        L = LatticeConnection(SU2, np.tile(x.coords, (16, 1)))
        assert np.max(np.abs(holonomy(L).value - exp_map(x).value)) < 1e-13

    def test_u1_is_exponential_of_mean(self):
        rng = np.random.default_rng(7)
        L = sample_connection(U1, 32, 1.0, rng)
        expected = np.exp(1j * L.values[:, 0].mean())
        assert abs(holonomy(L).value - expected) < 1e-14

    def test_u1_rk4_close_to_product(self):
        L = smooth_connection(U1, 64, np.random.default_rng(8), amplitude=0.5)
        assert abs(holonomy(L).value - holonomy(L, "rk4").value) < 1e-10

    def test_su2_rk4_second_order_agreement(self):
        devs = []
        for n in (16, 32, 64):
            L = smooth_connection(SU2, n, np.random.default_rng(9), amplitude=1.0)
            devs.append(
                np.max(np.abs(holonomy(L).value - holonomy(L, "rk4").value))
            )
        # O(1/N^2) or better: scaled deviations must not grow
        assert devs[1] * 32**2 <= devs[0] * 16**2 * 1.1
        assert devs[2] * 64**2 <= devs[1] * 32**2 * 1.1

    @pytest.mark.parametrize("n, bound", [(2, 1e-3), (7, 5e-5), (32, 3e-6)])
    def test_complex_rk4_matches_product(self, n, bound):
        # the independent oracle on complexified Gaussian draws; largest
        # relative deviations over these seeds: 3.2e-4, 1.7e-5 and 9.7e-7
        for seed in range(20):
            z = complex_connection(SU2, n, 2.0, 0.7, np.random.default_rng(seed))
            product, rk4 = holonomy(z).value, holonomy(z, "rk4").value
            assert np.max(np.abs(rk4 - product)) <= bound * np.max(np.abs(product))

    def test_complex_restricted_to_real_matches(self):
        rng = np.random.default_rng(10)
        L = sample_connection(SU2, 16, 1.0, rng)
        z = LatticeConnection(SU2, L.values + 1j * np.zeros_like(L.values))
        assert np.max(np.abs(holonomy(L).value - holonomy(z).value)) < 1e-12

    def test_unknown_method(self):
        L = LatticeConnection(U1, np.zeros((4, 1)))
        with pytest.raises(ValueError):
            holonomy(L, "euler")


def telescoping_map(a, b):
    """Based gauge map carrying links a to links b when their holonomies
    agree: g_{k+1} = b_k g_k a_k^{-1}, g_0 = e."""
    g = identity(a.group)
    elems = [g]
    for k in range(a.n_sites - 1):
        g = GroupElement(a.group, b.links[k]) * g * GroupElement(a.group, a.links[k]).inverse()
        elems.append(g)
    return LatticeGaugeMap(a.group, tuple(elems))


class TestGaugeAction:
    def test_identity_map_fixes_connection(self):
        rng = np.random.default_rng(11)
        L = sample_connection(SU2, 12, 1.0, rng)
        gm = LatticeGaugeMap(SU2, tuple(identity(SU2) for _ in range(12)))
        out = gauge_transform(L, gm, level="algebra")
        assert np.max(np.abs(out.values - L.values)) < 1e-12
        cfg = gauge_transform(L, gm, level="link")
        assert np.max(np.abs(cfg.links - links_of(L).links)) < 1e-14

    def test_link_level_exact_invariance_thousand_maps(self):
        rng = np.random.default_rng(12)
        for group in (U1, SU2):
            L = sample_connection(group, 16, 1.0, rng)
            h0 = np.asarray(holonomy(L).value)
            worst = 0.0
            for _ in range(500):
                gm = random_based_map(group, 16, rng)
                h1 = np.asarray(gauge_transform(L, gm, level="link").holonomy().value)
                worst = max(worst, float(np.max(np.abs(h1 - h0))))
            assert worst < 1e-10

    def test_algebra_level_drift_halves(self):
        ratios = []
        for seed in range(5):
            drifts = []
            for n in (16, 32):
                L = smooth_connection(SU2, n, np.random.default_rng(100 + seed))
                gm = smooth_gauge_map(SU2, n, np.random.default_rng(200 + seed))
                out = gauge_transform(L, gm, level="algebra")
                drifts.append(
                    float(np.max(np.abs(np.asarray(holonomy(out).value) - np.asarray(holonomy(L).value))))
                )
            ratios.append(drifts[1] / drifts[0])
        assert 0.3 <= float(np.mean(ratios)) <= 0.7

    def test_rotation_part_is_pointwise_isometry(self):
        rng = np.random.default_rng(13)
        L = sample_connection(SU2, 16, 1.0, rng)
        gm = random_based_map(SU2, 16, rng)
        # strip the translation term by transforming a momentum-like field
        from cylgauge.groups import embed_algebra, unembed_algebra

        for k in range(16):
            g = gm.elements[k].value
            rotated = unembed_algebra(SU2, g @ embed_algebra(SU2, L.values[k]) @ g.conj().T)
            assert abs(np.linalg.norm(rotated) - np.linalg.norm(L.values[k])) < 1e-12

    def test_non_based_map_rejected(self):
        rng = np.random.default_rng(14)
        elems = tuple(haar_sample(SU2, rng) for _ in range(8))
        with pytest.raises(ValueError):
            LatticeGaugeMap(SU2, elems)

    def test_holonomy_classification_constructive(self):
        # two link configurations with equal holonomy are gauge related by
        # the telescoping recursion, exactly
        rng = np.random.default_rng(15)
        for group in (U1, SU2):
            n = 12
            cfg1 = links_of(sample_connection(group, n, 1.0, rng))
            links = [haar_sample(group, rng) for _ in range(n - 1)]
            partial = links[0]
            for u in links[1:]:
                partial = u * partial
            closing = cfg1.holonomy() * partial.inverse()
            if group is U1:
                arr = np.array([u.value for u in links] + [closing.value])
            else:
                arr = np.stack([u.value for u in links] + [closing.value])
            cfg2 = LinkConfiguration(group, arr)
            assert np.max(np.abs(np.asarray(cfg2.holonomy().value) - np.asarray(cfg1.holonomy().value))) < 1e-12
            gm = telescoping_map(cfg1, cfg2)
            carried = gauge_transform(cfg1, gm, level="link")
            assert np.max(np.abs(carried.links - cfg2.links)) < 1e-10


def old_project_unitary(value):
    u, _, vh = np.linalg.svd(value)
    p = u @ vh
    return p / np.sqrt(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])


def old_link_holonomy(group, links):
    """The per-link loop that stacked ordered products replace."""
    if group is U1:
        return complex(np.prod(links))
    h = np.eye(2, dtype=complex)
    for k in range(len(links)):
        h = links[k] @ h
    return old_project_unitary(h)


def old_gauge_links(group, g, links):
    """The per-site loop that the stacked link gauge action replaces, for
    gauge values g with g[0] = e."""
    if group is U1:
        return np.roll(g, -1) * links / g
    out = np.empty_like(links)
    for k in range(len(links)):
        gk, gk1 = g[k], g[(k + 1) % len(g)]
        out[k] = gk1 @ links[k] @ gk.conj().T
    return out


def trial_loop_drifts(group, n, seed, checkpoints):
    """haar_gauge_drift one trial and one site at a time: the running worst
    drift after each trial count in checkpoints (each count's rng stream is
    a prefix of the next one's)."""
    rng = np.random.default_rng(seed)
    L = sample_connection(group, n, 1.0, rng)
    h0 = np.asarray(holonomy(L).value)
    links = links_of(L).links
    # haar_sample_batch is the stream of haar_sample calls (tested below)
    draws = haar_sample_batch(group, rng, max(checkpoints) * (n - 1))
    worst, drifts = 0.0, []
    for trial in range(1, max(checkpoints) + 1):
        g = np.concatenate([[identity(group).value], draws[(trial - 1) * (n - 1):trial * (n - 1)]])
        h1 = np.asarray(old_link_holonomy(group, old_gauge_links(group, g, links)))
        worst = max(worst, float(np.max(np.abs(h1 - h0))))
        if trial in checkpoints:
            drifts.append(worst)
    return drifts


class TestStackedLinkPath:
    @pytest.mark.parametrize("group", [U1, SU2])
    def test_haar_gauge_drift_matches_trial_loop(self, group):
        # hex equality on seeds 1-20; 1500 trials cross a block boundary
        checkpoints = (1, 7, 1024, 1500)
        for seed in range(1, 21):
            expected = trial_loop_drifts(group, 16, seed, checkpoints)
            for trials, drift in zip(checkpoints, expected):
                rng = np.random.default_rng(seed)
                L = sample_connection(group, 16, 1.0, rng)
                assert haar_gauge_drift(L, trials, rng).hex() == drift.hex(), (seed, trials)

    def test_haar_gauge_drift_blocks_bound_trials_times_sites(self, monkeypatch):
        # 256 sites give blocks of 64 trials, so 100 trials cross a boundary
        sizes = []
        real = lattice.haar_sample_batch
        monkeypatch.setattr(
            lattice, "haar_sample_batch", lambda g, rng, n: sizes.append(n) or real(g, rng, n)
        )
        for group in (U1, SU2):
            (expected,) = trial_loop_drifts(group, 256, 3, (100,))
            rng = np.random.default_rng(3)
            L = sample_connection(group, 256, 1.0, rng)
            assert haar_gauge_drift(L, 100, rng).hex() == expected.hex()
        assert max(sizes) == 64 * 255  # draws per block: trials x (N - 1) sites

    def test_gauge_check_reports_haar_gauge_drift(self):
        rng = np.random.default_rng(2)
        L = sample_connection(SU2, 16, 1.0, rng)
        o = {"group": "su2", "links": 16, "s": 1.0, "trials": 30, "seed": 2}
        assert cli.run_gauge_check(o).rows[0].estimate.real == haar_gauge_drift(L, 30, rng)

    @pytest.mark.parametrize("group", [U1, SU2])
    def test_gauge_transform_matches_site_loop(self, group):
        rng = np.random.default_rng(17)
        for n in (2, 5, 16):
            cfg = links_of(sample_connection(group, n, 1.0, rng))
            gm = random_based_map(group, n, rng)
            stacked = gauge_transform(cfg, gm, level="link").links
            g = np.array([e.value for e in gm.elements], dtype=complex)
            assert np.array_equal(stacked, old_gauge_links(group, g, cfg.links))

    @pytest.mark.parametrize("group", [U1, SU2])
    def test_link_holonomy_matches_link_loop(self, group):
        rng = np.random.default_rng(18)
        for n in (2, 3, 16, 64):
            cfg = links_of(sample_connection(group, n, 2.0, rng))
            value = np.asarray(cfg.holonomy().value)
            assert np.array_equal(value, old_link_holonomy(group, cfg.links))

    def test_stacked_products_match_single_configurations(self):
        rng = np.random.default_rng(19)
        links = haar_sample_batch(SU2, rng, 40 * 9).reshape(40, 9, 2, 2)
        stacked = ordered_products(links)
        holonomies = link_holonomy_values(SU2, links)
        for b in range(40):
            single = ordered_products(links[b])
            assert len(stacked) == len(single) == 10
            for p_stacked, p_single in zip(stacked[1:], single[1:]):
                assert np.array_equal(p_stacked[b], p_single)
            assert np.array_equal(holonomies[b], old_link_holonomy(SU2, links[b]))

    @pytest.mark.parametrize("group", [U1, SU2])
    def test_haar_batch_is_the_haar_sample_stream(self, group):
        a, b = np.random.default_rng(20), np.random.default_rng(20)
        batch = haar_sample_batch(group, a, 300)
        single = np.array([haar_sample(group, b).value for _ in range(300)])
        assert np.array_equal(batch, single)
        assert a.uniform() == b.uniform()

    def test_corrupted_haar_draw_raises(self, monkeypatch):
        real = groups._su2_sample_batch

        def corrupted(rng, n):
            out = real(rng, n)
            out[n // 2] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(groups, "_su2_sample_batch", corrupted)
        rng = np.random.default_rng(1)
        L = sample_connection(SU2, 8, 1.0, rng)
        with pytest.raises(ValueError, match="determinant 1"):
            haar_gauge_drift(L, 30, rng)

    def test_corrupted_holonomy_raises(self, monkeypatch):
        real = lattice.link_holonomy_values
        monkeypatch.setattr(lattice, "link_holonomy_values", lambda g, links: 2.0 * real(g, links))
        rng = np.random.default_rng(1)
        L = sample_connection(SU2, 8, 1.0, rng)
        with pytest.raises(ValueError, match="not unitary|determinant 1"):
            haar_gauge_drift(L, 3, rng)

    @pytest.mark.parametrize("group", [U1, SU2])
    def test_validate_values_keeps_element_checks(self, group):
        rng = np.random.default_rng(22)
        values = haar_sample_batch(group, rng, 50)
        assert validate_values(group, values) is values
        messages = ["finite", "not unitary"]
        if group is SU2:
            messages = ["finite", "determinant 1", "not unitary"]
        for message in messages:
            bad = values.copy()
            if message == "finite":
                bad[17] *= np.nan
            elif message == "determinant 1":
                bad[17] *= 1.0 + 1e-6
            elif group is U1:
                bad[17] *= 1.0 + 1e-6
            else:
                bad[17] = bad[17] @ np.diag([1.0 + 1e-6, 1.0 / (1.0 + 1e-6)])
            with pytest.raises(ValueError, match=message):
                validate_values(group, bad)
            with pytest.raises(ValueError, match=message):
                groups.GroupElement(group, bad[17])

    @pytest.mark.parametrize("group", [U1, SU2])
    def test_unbased_gauge_map_raises(self, group):
        rng = np.random.default_rng(21)
        elems = (haar_sample(group, rng),) + random_based_map(group, 6, rng).elements[1:]
        with pytest.raises(ValueError, match="based"):
            LatticeGaugeMap(group, elems)


class TestPushforward:
    def test_trivial_label_is_exactly_one(self):
        est, target = pushforward_moment(SU2, 0, 1.0, 16, 2000, seed=1)
        assert target == 1.0
        assert est.mean == 1.0 + 0.0j
        assert est.std_error == 0.0

    def test_u1_unbiased_in_n(self):
        # the abelian holonomy angle is exactly Gaussian for every N
        s = 1.0
        target = math.exp(-s / 2.0)
        for n in (4, 64):
            est, tgt = pushforward_moment(U1, 1, s, n, 100_000, seed=23)
            assert tgt == pytest.approx(target)
            assert est.z_score(tgt) < 3.0

    def test_su2_within_three_sigma_plus_bias(self):
        est, target = pushforward_moment(SU2, 1, 1.0, 64, 100_000, seed=29)
        assert abs(est.mean - target) < 3.0 * est.std_error + 8.0 / 64

    def test_workers_do_not_change_values(self):
        a, _ = pushforward_moment(SU2, 1, 1.0, 16, 20_000, seed=5, n_workers=1)
        b, _ = pushforward_moment(SU2, 1, 1.0, 16, 20_000, seed=5, n_workers=4)
        assert a.mean == b.mean and a.std_error == b.std_error


class TestOneConnectionType:
    """Real and complex connections share LatticeConnection; complex values
    hold Z = A + iP and select the complexified holonomy."""

    def test_complex_dtype_kept_and_real_cast_to_float(self):
        z = LatticeConnection(U1, [[1 + 2j], [3 + 0j]])
        assert z.values.dtype == complex and z.values[0, 0] == 1 + 2j
        assert LatticeConnection(U1, [[1], [3]]).values.dtype == float

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_checks_apply_to_complex_values(self, bad):
        values = np.zeros((4, 3), dtype=complex)
        values[2, 1] = complex(0.5, bad)
        with pytest.raises(ValueError, match="finite"):
            LatticeConnection(SU2, values)
        with pytest.raises(ValueError, match="shape"):
            LatticeConnection(SU2, np.zeros((4, 2), dtype=complex))

    @pytest.mark.parametrize("level", ["link", "algebra"])
    def test_gauge_transform_rejects_complex_values(self, level):
        rng = np.random.default_rng(31)
        for group in (U1, SU2):
            z = complex_connection(group, 6, 2.0, 1.0, rng)
            with pytest.raises(ValueError, match="real connections"):
                gauge_transform(z, random_based_map(group, 6, rng), level=level)

    @pytest.mark.parametrize("group, draws_digest, complex_holonomy_digest", [
        (U1, "8885dc3b06316dcccea2ed519d01038d3158f7e312d9ef8a770d5823e2c0192a",
         "f2b47a6bc3eddabf12ffeb5e316e179e53b669ff42e539c21d61bc515e7ae3f5"),
        (SU2, "15efe5c7779d698e1654da910665b7119402ac1d5463b39abff856afc2270105",
         "85c36cb5799913fa058f5bd3e7376b6a5e55c83d116889e76736ec9dbfadee26"),
    ], ids=["u1", "su2"])
    def test_seeded_draws_and_holonomies_pinned(self, group, draws_digest, complex_holonomy_digest):
        # real and complex draws and real holonomies keep the bits of the
        # two-class implementation; complexified SU(2) holonomies are pinned
        # as the series steps give them (TestComplexStepAccuracy backs them)
        draws, complex_holonomies = hashlib.sha256(), hashlib.sha256()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for n in (2, 7, 32):
                L = sample_connection(group, n, 1.3, rng)
                z = complex_connection(group, n, 2.0, 0.7, rng)
                for arr in (L.values, holonomy(L).value, z.values):
                    draws.update(np.ascontiguousarray(arr).tobytes())
                complex_holonomies.update(np.ascontiguousarray(holonomy(z).value).tobytes())
        assert draws.hexdigest() == draws_digest
        assert complex_holonomies.hexdigest() == complex_holonomy_digest


def test_holonomy_traces_match_elementwise():
    rng = np.random.default_rng(20)
    coords = rng.normal(size=(5, 12, 3))
    traces = holonomy_traces(SU2, coords)
    for i in range(5):
        h = holonomy(LatticeConnection(SU2, coords[i]))
        assert abs(np.trace(h.value) - traces[i]) < 1e-12


# Pauli matrices written out here, so the oracle shares no code with cylgauge
SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def expm_2x2(x):
    """exp(x) by scaling, a 20-term Taylor series and squaring."""
    squarings = max(0, int(np.ceil(np.log2(max(np.abs(x).sum(), 1e-300)))) + 1)
    x = x / 2.0**squarings
    term = np.eye(2, dtype=complex)
    out = term.copy()
    for k in range(1, 20):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def oracle_holonomy(coords):
    """exp(A_{N-1}/N) ... exp(A_0/N) with A_k = (i/2) c_k.sigma, as a plain
    product of 2x2 matrices."""
    n = coords.shape[0]
    h = np.eye(2, dtype=complex)
    for c in coords:
        h = expm_2x2(0.5j * np.einsum("j,jab->ab", c, SIGMA) / n) @ h
    return h


class TestKernelOracle:
    """holonomy_traces and holonomy_batch against the matrix-product oracle."""

    @staticmethod
    def draw(n, batch, complexified, scale, seed):
        rng = np.random.default_rng(seed)
        coords = rng.normal(scale=scale * math.sqrt(n), size=(batch, n, 3))
        if complexified:
            coords = coords + 0.5j * rng.normal(scale=scale * math.sqrt(n), size=(batch, n, 3))
        return coords

    def check(self, coords):
        hols = holonomy_batch(SU2, coords)
        traces = holonomy_traces(SU2, coords)
        assert hols.shape == (coords.shape[0], 2, 2) and traces.shape == (coords.shape[0],)
        for i, c in enumerate(coords):
            expected = oracle_holonomy(c)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(hols[i] - expected)) < tol
            assert abs(traces[i] - np.trace(expected)) < tol

    @pytest.mark.parametrize("complexified", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 7, 12, 64])
    def test_random_coordinates(self, n, complexified):
        self.check(self.draw(n, 6, complexified, 1.0, 40 + n))

    @pytest.mark.parametrize("complexified", [False, True])
    def test_single_configuration(self, complexified):
        self.check(self.draw(7, 1, complexified, 1.0, 41))

    @pytest.mark.parametrize("complexified", [False, True])
    def test_large_batch_matches_single_configurations_exactly(self, complexified):
        # the kernel works through long batches in blocks; bits must not move
        coords = self.draw(7, 2500, complexified, 1.0, 42)
        traces, hols = holonomy_traces(SU2, coords), holonomy_batch(SU2, coords)
        rows = lattice.BLOCK_VALUES // (7 * 3)  # configurations per kernel block
        assert rows < 2500
        for i in (0, 1023, 1024, rows - 1, rows, 2499):
            assert traces[i] == holonomy_traces(SU2, coords[i:i + 1])[0]
            assert np.array_equal(hols[i], holonomy_batch(SU2, coords[i:i + 1])[0])

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_complex_batch_across_halving_threshold_matches_single_configurations(self, n):
        # steps at |u| <= 1e-9, ~1 and >> 1 mixed within every block, so each
        # row's blockmates reach other |u| than the row itself
        rng = np.random.default_rng(43 + n)
        direction = rng.normal(size=(1100, n, 3)) + 1j * rng.normal(size=(1100, n, 3))
        direction /= np.linalg.norm(direction, axis=2, keepdims=True)
        magnitude = rng.choice([1e-5 * n, 2.0 * n, 20.0 * n], size=(1100, n, 1))
        coords = magnitude * direction
        traces, hols = holonomy_traces(SU2, coords), holonomy_batch(SU2, coords)
        for i in range(len(coords)):
            assert traces[i] == holonomy_traces(SU2, coords[i:i + 1])[0]
            assert np.array_equal(hols[i], holonomy_batch(SU2, coords[i:i + 1])[0])

    @pytest.mark.parametrize("n, digest", [
        (3, "002e6b8c7a74008764838c5ea552f72ba955d149967dfa01fd56e135e4a19dc5"),
        (7, "08c562f54ffa7a462c973e6b5758874cc99f8384f4c57722f57a3f9ddfb6a4ba"),
        (12, "9c0f3642ff5fe99415465200a69e0da8e0d3eebe6be332b1400efa5d174550d1"),
        (32, "671071b7c432a49d658376ee7ac2ea0b415079becca0f8bc8e5fa8c826558f6d"),
        (64, "6307637426ab8b5a799a8b3dfb847b25fd92530991e3a0fe68860218ba5b42b4"),
    ])
    def test_batched_complex_traces_pinned(self, n, digest):
        # several kernel blocks at small N, every third row scaled past the
        # halving threshold; the digests are those of complex steps formed
        # as x / N, which x * (1 / N) must keep bit for bit
        coords = self.draw(n, 6000, True, 1.0, 80 + n)
        coords[::3] *= 8.0
        assert hashlib.sha256(holonomy_traces(SU2, coords).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("complexified", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 7, 12, 64])
    def test_zero_and_near_zero_coordinates(self, n, complexified):
        # steps below the small-angle threshold mixed with ordinary ones
        coords = self.draw(n, 4, complexified, 1e-9, 60 + n)
        coords[0] = 0.0
        coords[3] *= 1e9
        self.check(coords)


class TestComplexStepAccuracy:
    """Complexified steps (w and the vector part) against long-double cosh
    and sinh of the same double inputs.  Errors are in units of 2^-52
    relative to max(1, |reference|), the largest over 4000 inputs with |u|
    within 10% of the stated value, mu = sqrt(u) along the real or imaginary
    axis, or u from a random complex c (mixed)."""

    # (|u|, direction): (error of the csqrt/ccosh/csinh steps these replaced,
    # bound = that error plus 25%, at least 0.5)
    CASES = {
        (0.0, "real"): (0.002, 0.5), (0.0, "imag"): (0.002, 0.5), (0.0, "mixed"): (0.002, 0.5),
        (1e-6, "real"): (0.50, 0.63), (1e-6, "imag"): (0.25, 0.5), (1e-6, "mixed"): (1.18, 1.5),
        (0.2, "real"): (0.74, 0.93), (0.2, "imag"): (0.46, 0.58), (0.2, "mixed"): (1.56, 2.0),
        (1.0, "real"): (1.88, 2.4), (1.0, "imag"): (1.05, 1.4), (1.0, "mixed"): (5.12, 6.5),
        (4.0, "real"): (2.40, 3.0), (4.0, "imag"): (2.00, 2.5), (4.0, "mixed"): (46.2, 58),
        (42.0, "real"): (4.74, 6.0), (42.0, "imag"): (4.17, 5.3), (42.0, "mixed"): (72.6, 91),
        (200.0, "real"): (9.63, 13), (200.0, "imag"): (10.0, 13), (200.0, "mixed"): (265, 340),
    }

    @staticmethod
    def inputs(level, direction, rng, m=4000):
        """coords (m, 1, 3) whose steps have |u| = |c.c| / 4 near level."""
        target = max(level, 1e-18) * rng.uniform(0.9, 1.1, m)
        if direction == "mixed":
            c = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
            c *= np.sqrt(4.0 * target / np.abs(np.sum(c * c, axis=1)))[:, None]
        else:
            n = rng.normal(size=(m, 3))
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            mu = np.sqrt(target) * (1.0 if direction == "real" else 1j)
            c = (2j * mu)[:, None] * n
        return c[:, None, :]

    @pytest.mark.parametrize("level, direction", list(CASES), ids=[f"{u:g}-{d}" for u, d in CASES])
    def test_steps_against_long_double(self, level, direction):
        coords = self.inputs(level, direction, np.random.default_rng([int(level * 1000), "rim".index(direction[0])]))
        w, x, y, z = (a[0] for a in lattice._su2_steps(coords.copy(), False, lattice._Workspace()))
        c = coords[:, 0, :].astype(np.clongdouble)
        mu = np.sqrt(-np.sum(c * c, axis=1)) / 2
        ref_w = np.cosh(mu)
        ref_v = (0.5j * np.where(mu == 0, 1, np.sinh(mu) / np.where(mu == 0, 1, mu)))[:, None] * c
        v = np.stack([x, y, z], axis=1)
        err_w = np.abs(w - ref_w) / np.maximum(1, np.abs(ref_w))
        err_v = np.max(np.abs(v - ref_v), axis=1) / np.maximum(1, np.max(np.abs(ref_v), axis=1))
        error = float(max(err_w.max(), err_v.max())) / np.finfo(float).eps
        assert error <= self.CASES[level, direction][1]


class TestStreamedSampler:
    """The coupled-level sampler draws, coarsens and reduces a chunk block by
    block; its output must keep the bits of the whole-chunk computation."""

    @staticmethod
    def streamed(monkeypatch, group, draw, columns, n_levels, n_fine, bases=None, n_workers=None):
        """The sampler closure that _coupled_levels hands to chunked_mc_vector."""
        captured = []

        def capture(sampler, n_quantities, n_samples, seed, n_workers=None):
            captured.append(sampler)
            return [MCEstimate(0j, 0.0, n_samples)] * n_quantities

        monkeypatch.setattr(lattice, "chunked_mc_vector", capture)
        targets = [(0.0,) * n_levels] * len(columns(np.ones(1, dtype=complex)))
        lattice._coupled_levels(group, draw, columns, targets, n_fine, 1, seed=0, bases=bases, n_workers=n_workers)
        return captured[0]

    @staticmethod
    def whole_chunk(group, noise, columns, n_levels, bases=None):
        """The reference: the whole chunk's traces per level, each coarser
        level the average of adjacent sites of the one before."""
        per_level = []
        for level in range(n_levels):
            coords = noise if bases is None else noise + bases[level][None, ...]
            per_level.append(columns(holonomy_traces(group, coords)))
            if level + 1 < n_levels:
                noise = 0.5 * (noise[:, 0::2] + noise[:, 1::2])
        cols = [col for level_cols in per_level for col in level_cols]
        if n_levels > 1:
            cols += [2.0 * f - h for f, h in zip(per_level[0], per_level[1])]
        return np.stack(cols, axis=1)

    @staticmethod
    def complex_parts(rng, n_fine, hbar, size):
        """Real and imaginary parts of the complex Gaussian at s = 2, drawn
        whole: variances (2s - hbar)/2 N and hbar/2 N per coordinate."""
        re = rng.normal(scale=math.sqrt((2.0 * 2.0 - hbar) / 2.0 * n_fine), size=size)
        return re, rng.normal(scale=math.sqrt(hbar / 2.0 * n_fine), size=size)

    @staticmethod
    def whole_draw(group, n_fine, hbar, rng, m):
        size = (m, n_fine, group.algebra_dim)
        if hbar is None:
            return rng.normal(scale=math.sqrt(2.0 * n_fine), size=size)
        re, im = TestStreamedSampler.complex_parts(rng, n_fine, hbar, size)
        z = np.empty(re.shape, dtype=complex)
        z.real, z.imag = re, im
        return z

    @staticmethod
    def columns(group):
        labels = (1, -2) if group is U1 else (1, 2)
        return lambda traces: [lattice._characters(group, labels, traces)[k] for k in labels]

    @staticmethod
    def bases(group, n_fine, n_levels, complexified):
        out = []
        for level in range(n_levels):
            n = n_fine >> level
            values = smooth_connection(group, n, np.random.default_rng(70), amplitude=0.8).values
            if complexified:
                values = values + 0.25j * smooth_connection(group, n, np.random.default_rng(71)).values
            out.append(values)
        return out

    @pytest.mark.parametrize("n_levels", [1, 2, 3])
    @pytest.mark.parametrize("hbar", [None, 0.5], ids=["real", "complex"])
    @pytest.mark.parametrize("group, n_fine", [(SU2, 64), (U1, 64), (SU2, 12)])
    def test_chunks_keep_the_whole_chunk_bits(self, monkeypatch, group, n_fine, hbar, n_levels):
        columns = self.columns(group)
        sampler = self.streamed(
            monkeypatch, group, lattice._gaussian_draw(group, n_fine, 2.0, hbar), columns, n_levels, n_fine
        )
        block = lattice.BLOCK_VALUES // ((n_fine >> (n_levels - 1)) * group.algebra_dim)
        for m in (1, 2 * block + 5):  # one configuration; a ragged last block
            got = sampler(np.random.default_rng(m), m)
            noise = self.whole_draw(group, n_fine, hbar, np.random.default_rng(m), m)
            assert got.tobytes() == self.whole_chunk(group, noise, columns, n_levels).tobytes()

    @pytest.mark.parametrize("complex_base", [False, True], ids=["real_base", "complex_base"])
    @pytest.mark.parametrize("group", [SU2, U1])
    def test_semigroup_bases_keep_the_whole_chunk_bits(self, monkeypatch, group, complex_base):
        n_fine, n_levels = 32, 2
        columns, bases = self.columns(group), self.bases(group, n_fine, n_levels, complex_base)
        sampler = self.streamed(
            monkeypatch, group, lattice._gaussian_draw(group, n_fine, 2.0), columns, n_levels, n_fine, bases
        )
        m = 2 * lattice.BLOCK_VALUES // ((n_fine >> (n_levels - 1)) * group.algebra_dim) + 3
        noise = self.whole_draw(group, n_fine, None, np.random.default_rng(9), m)
        expected = self.whole_chunk(group, noise, columns, n_levels, bases)
        assert sampler(np.random.default_rng(9), m).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hbar", [None, 0.5], ids=["real", "complex"])
    def test_block_split_draw_is_the_one_shot_stream(self, hbar):
        blocks = list(lattice._gaussian_draw(SU2, 16, 2.0, hbar)(np.random.default_rng(8), 1000, 300))
        assert [len(re) for re, _ in blocks] == [300, 300, 300, 100]
        re = np.concatenate([re for re, _ in blocks])
        rng = np.random.default_rng(8)
        if hbar is None:
            assert all(im is None for _, im in blocks)
            assert re.tobytes() == rng.normal(scale=math.sqrt(2.0 * 16), size=(1000, 16, 3)).tobytes()
        else:
            one_re, one_im = self.complex_parts(rng, 16, hbar, (1000, 16, 3))
            assert re.tobytes() == one_re.tobytes()
            assert np.concatenate([im for _, im in blocks]).tobytes() == one_im.tobytes()

    def test_chunk_memory_does_not_grow_with_workers(self, monkeypatch):
        # each worker thread runs its chunks alone: its blocks and buffers
        # must be the same size whatever the worker count
        peaks = {}
        for n_workers in (1, 8):
            sampler = self.streamed(
                monkeypatch, SU2, lattice._gaussian_draw(SU2, 32, 2.0, 0.5), self.columns(SU2), 1, 32,
                n_workers=n_workers,
            )
            sampler(np.random.default_rng(3), 8192)  # warm caches, so only the chunk's own arrays are traced
            tracemalloc.start()
            try:
                sampler(np.random.default_rng(3), 8192)
                peaks[n_workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[8] / peaks[1] - 1.0) < 0.05, {w: f"{p / 2**20:.1f} MiB" for w, p in peaks.items()}

    def test_bad_complex_parameters_fail_before_any_draw(self):
        with pytest.raises(ValueError, match="s > hbar/2"):
            lattice._gaussian_draw(SU2, 16, 0.2, 0.5)


# Peak traced memory of one 8192-sample chunk, parent of the streamed
# sampler: 48.0 MiB (complex N = 64, 2 levels: the real and imaginary parts
# and their complex copy) and 18.4 MiB (real N = 64, 3 levels).  The
# streamed sampler must stay below half of each.
CHUNK_PEAKS = {"gram_matrix_refinement": 48.0 / 2, "pushforward_refinement": 18.4 / 2}


@pytest.mark.parametrize("name", sorted(CHUNK_PEAKS))
def test_one_chunk_peak_memory(name):
    run = {
        "gram_matrix_refinement": lambda: gram_matrix_refinement(SU2, 2, 2.0, 0.5, 64, 8192, 1, n_levels=2),
        "pushforward_refinement": lambda: pushforward_refinement(SU2, 1, 1.0, 64, 8192, 1, n_levels=3),
    }[name]
    run()  # warm caches, so only the chunk's own arrays are traced
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_PEAKS[name], f"{name}: {peak:.1f} MiB"
