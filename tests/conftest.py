import numpy as np
import pytest

from cylgauge import groups


@pytest.fixture
def non_unitary_su2_batch(monkeypatch):
    """Make every SU(2) Haar batch break unitarity, with det kept at 1, in
    its middle row."""
    real = groups._su2_sample_batch

    def corrupted(rng, n):
        out = real(rng, n)
        out[n // 2] = out[n // 2] @ np.diag([1.0 + 1e-6, 1.0 / (1.0 + 1e-6)])
        return out

    monkeypatch.setattr(groups, "_su2_sample_batch", corrupted)
