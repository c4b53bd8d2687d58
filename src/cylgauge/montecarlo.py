"""Seeded, chunked Monte Carlo accumulation.

The sample budget is split into fixed-size chunks; chunk i draws from its own
generator spawned deterministically from the master seed, and partial sums are
reduced in chunk order.  Results are therefore bit-identical for a given
(seed, chunk_size) no matter how many worker threads evaluate the chunks.
The calling thread is one of them: it works its share of the chunks beside
the helper threads, so n_workers threads hold chunk memory, not n_workers
helpers and an idle caller.
The variance merges per-chunk centred second moments in the same order
(Chan, Golub & LeVeque 1979), so a large common offset costs no precision.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEFAULT_CHUNK_SIZE = 8192


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with standard error of the mean."""

    mean: complex
    std_error: float
    n_samples: int

    def z_score(self, target: complex) -> float:
        if self.std_error == 0.0:
            return 0.0 if abs(self.mean - target) == 0.0 else math.inf
        return abs(self.mean - target) / self.std_error


def _chunk_sizes(n_samples: int, chunk_size: int) -> list[int]:
    n_chunks = (n_samples + chunk_size - 1) // chunk_size
    sizes = [chunk_size] * n_chunks
    sizes[-1] = n_samples - chunk_size * (n_chunks - 1)
    return sizes


def chunked_mc_vector(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n_quantities: int,
    n_samples: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    n_workers: Optional[int] = None,
) -> list[MCEstimate]:
    """Estimate several means at once; sampler(rng, m) returns shape (m, Q).

    All Q quantities are computed from the same sample stream.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if n_workers is None:
        n_workers = 1
    elif n_workers < 1:
        raise ValueError(f"n_workers must be at least 1 (got {n_workers})")
    sizes = _chunk_sizes(n_samples, chunk_size)
    streams = np.random.SeedSequence(seed).spawn(len(sizes))

    def run_chunk(idx: int):
        rng = np.random.default_rng(streams[idx])
        vals = np.asarray(sampler(rng, sizes[idx]), dtype=complex)
        if vals.shape != (sizes[idx], n_quantities):
            raise ValueError(
                f"sampler returned shape {vals.shape}, expected {(sizes[idx], n_quantities)}"
            )
        parts = np.stack([vals.real, vals.imag])
        sums = parts.sum(axis=1)
        return sums, ((parts - sums[:, None] / sizes[idx]) ** 2).sum(axis=1)

    # thread t runs chunks t, t + T, ...; the caller is thread 0
    n_threads = min(n_workers, len(sizes))
    partials, errors = [None] * len(sizes), []

    def work(first: int):
        for idx in range(first, len(sizes), n_threads):
            partials[idx] = run_chunk(idx)

    def helper(first: int):
        try:
            work(first)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=helper, args=(t,)) for t in range(1, n_threads)]
    for thread in helpers:
        thread.start()
    try:
        work(0)
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]

    # rows: real and imaginary parts; fixed chunk order keeps it reproducible
    sums = np.zeros((2, n_quantities))
    m2 = np.zeros((2, n_quantities))
    done = 0
    for size, (chunk_sums, chunk_m2) in zip(sizes, partials):
        delta = chunk_sums / size - (sums / done if done else 0.0)
        m2 += chunk_m2 + delta**2 * (done * size / (done + size))
        sums += chunk_sums
        done += size

    n = float(n_samples)
    mean_re, mean_im = sums / n
    if n_samples > 1:
        std_err = np.sqrt(m2.sum(axis=0) / (n - 1.0) / n)
    else:
        std_err = np.zeros(n_quantities)
    return [
        MCEstimate(complex(mean_re[q], mean_im[q]), float(std_err[q]), n_samples)
        for q in range(n_quantities)
    ]
