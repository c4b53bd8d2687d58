import threading

import numpy as np
import pytest

from cylgauge.montecarlo import MCEstimate, chunked_mc_vector


def gaussian_sampler(rng, m):
    return rng.normal(size=m) + 0.0j


def gaussian_column(rng, m):
    return gaussian_sampler(rng, m)[:, None]


class TestChunkedMC:
    def test_mean_and_error_of_standard_gaussian(self):
        (est,) = chunked_mc_vector(gaussian_column, 1, 50_000, seed=1)
        assert est.n_samples == 50_000
        assert abs(est.mean) < 4.0 * est.std_error
        # SE of the mean of N(0,1) is 1/sqrt(n)
        assert est.std_error == pytest.approx(1.0 / np.sqrt(50_000), rel=0.05)

    def test_seed_reproducibility(self):
        (a,) = chunked_mc_vector(gaussian_column, 1, 10_000, seed=7)
        (b,) = chunked_mc_vector(gaussian_column, 1, 10_000, seed=7)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_worker_count_does_not_change_result(self):
        (a,) = chunked_mc_vector(gaussian_column, 1, 40_000, seed=3, n_workers=1)
        (b,) = chunked_mc_vector(gaussian_column, 1, 40_000, seed=3, n_workers=4)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_error_scales_as_inverse_sqrt_n(self):
        (small,) = chunked_mc_vector(gaussian_column, 1, 5_000, seed=5)
        (big,) = chunked_mc_vector(gaussian_column, 1, 80_000, seed=5)
        ratio = big.std_error / small.std_error
        assert ratio == pytest.approx(0.25, rel=0.1)

    def test_ragged_final_chunk(self):
        (est,) = chunked_mc_vector(gaussian_column, 1, 10_001, seed=2, chunk_size=4096)
        assert est.n_samples == 10_001

    def test_vector_quantities_share_the_stream(self):
        def sampler(rng, m):
            x = rng.normal(size=m)
            return np.stack([x + 0j, x**2 + 0j], axis=1)

        first, second = chunked_mc_vector(sampler, 2, 30_000, seed=11)
        assert abs(first.mean) < 4 * first.std_error
        assert abs(second.mean - 1.0) < 4 * second.std_error

    def test_large_offset_keeps_standard_error(self):
        # a sum-of-squares variance loses about 16 digits to a 1e8 mean
        (plain,) = chunked_mc_vector(lambda rng, m: rng.normal(size=(m, 1)), 1, 100_000, 1)
        (offset,) = chunked_mc_vector(lambda rng, m: 1e8 + rng.normal(size=(m, 1)), 1, 100_000, 1)
        assert offset.std_error == pytest.approx(plain.std_error, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        def bad(rng, m):
            return np.zeros((m, 3), dtype=complex)

        with pytest.raises(ValueError):
            chunked_mc_vector(bad, 2, 100, seed=0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            chunked_mc_vector(gaussian_column, 1, 0, seed=1)
        with pytest.raises(ValueError):
            chunked_mc_vector(gaussian_column, 1, 10, seed=1, chunk_size=0)
        for n_workers in (0, -3):
            with pytest.raises(ValueError, match="n_workers must be at least 1"):
                chunked_mc_vector(gaussian_column, 1, 10, seed=1, n_workers=n_workers)


class TestWorkerThreads:
    """Five chunks: the caller runs chunks beside min(n_workers, 5) - 1
    helper threads, and the estimates keep their bits."""

    N_CHUNKS = 5

    @classmethod
    def run(cls, n_workers, fails=lambda: False):
        threads = []  # of each chunk: Thread objects, as a finished thread's ident can be reused

        def sampler(rng, m):
            threads.append(threading.current_thread())
            if fails():
                raise RuntimeError("chunk failed")
            return np.stack([rng.normal(size=m) + 0j, rng.normal(size=m) * 1j], axis=1)

        ests = chunked_mc_vector(sampler, 2, 1000 * cls.N_CHUNKS, seed=4, chunk_size=1000, n_workers=n_workers)
        return [(e.mean, e.std_error) for e in ests], threads

    @pytest.mark.parametrize("n_workers", [None, 1, 2, 3, 5, 8])
    def test_caller_works_beside_the_helpers(self, n_workers):
        _, threads = self.run(n_workers)
        caller = threading.current_thread()
        assert len(threads) == self.N_CHUNKS and caller in threads
        assert len(set(threads) - {caller}) == min(n_workers or 1, self.N_CHUNKS) - 1

    def test_estimates_keep_their_bits_at_every_worker_count(self):
        serial, _ = self.run(None)
        for n_workers in (1, 2, 3, 8):
            assert self.run(n_workers)[0] == serial

    @pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "helper"])
    def test_chunk_exception_propagates(self, on_caller):
        caller = threading.current_thread()
        with pytest.raises(RuntimeError, match="chunk failed"):
            self.run(3, lambda: (threading.current_thread() is caller) == on_caller)


class TestMCEstimate:
    def test_z_score(self):
        est = MCEstimate(1.5 + 0.0j, 0.25, 100)
        assert est.z_score(1.0) == pytest.approx(2.0)

    def test_degenerate_z(self):
        exact = MCEstimate(1.0 + 0.0j, 0.0, 100)
        assert exact.z_score(1.0) == 0.0
        assert exact.z_score(2.0) == np.inf
