"""Self-tests of the benchmark's closed forms and of BENCHMARK.json.

    python3 -m pytest bench/test_closed_forms.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import closed_forms as cf
import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n", range(8))
def test_characters_at_plus_minus_identity(n):
    assert cf.su2_characters(n, 2.0)[n] == pytest.approx(n + 1)
    assert cf.su2_characters(n, -2.0)[n] == pytest.approx((-1) ** n * (n + 1))


def test_characters_match_weyl_formula():
    theta = np.linspace(0.1, 3.0, 7)
    chars = cf.su2_characters(5, 2.0 * np.cos(theta))
    for n in range(6):
        np.testing.assert_allclose(chars[n].real, np.sin((n + 1) * theta) / np.sin(theta), atol=1e-12)


def test_heat_moments_at_trivial_labels():
    assert cf.su2_heat_moment(0, 3.0) == 1.0
    assert cf.u1_heat_moment(0, 3.0) == 1.0
    assert cf.su2_heat_moment(1, 2.0) == pytest.approx(2.0 * math.exp(-0.75))
    assert cf.u1_heat_moment(2, 0.5) == pytest.approx(math.exp(-1.0))


def test_gram_at_zero_time_counts_dimensions():
    # s = 0: every Clebsch-Gordan label contributes its dimension
    for a in range(4):
        for b in range(4):
            assert cf.su2_gram_target(a, b, 0.0) == pytest.approx((a + 1) * (b + 1))


def test_gram_tends_to_identity():
    for s, tol in ((8.0, 0.2), (32.0, 1e-4), (128.0, 1e-19)):
        gram = np.array([[cf.su2_gram_target(a, b, s) for b in range(4)] for a in range(4)])
        np.testing.assert_allclose(gram, gram.T)
        assert np.max(np.abs(gram - np.eye(4))) < tol


def test_heat_flowed_character():
    assert cf.heat_flowed_character(3, 0.0, 0.7) == pytest.approx(cf.su2_characters(3, 0.7)[3])
    assert cf.heat_flowed_character(1, 2.0, 1.5) == pytest.approx(math.exp(-0.75) * 1.5)


def test_exponential_on_and_off_the_group():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=3), rng.normal(size=3)
    u = cf.su2_exp(x)
    assert cf.unitarity_defect(u) < 1e-14
    assert cf.det2(u) == pytest.approx(1.0)
    assert np.trace(u).real == pytest.approx(2.0 * math.cos(np.linalg.norm(x) / 2.0))
    g = cf.su2_exp(x + 1j * y)
    assert cf.det2(g) == pytest.approx(1.0)
    np.testing.assert_allclose(g @ cf.su2_exp(-(x + 1j * y)), np.eye(2), atol=1e-12)


def test_holonomy_of_constant_connection():
    c = np.array([0.4, -1.1, 2.0])
    np.testing.assert_allclose(cf.su2_holonomy(np.tile(c, (16, 1))), cf.su2_exp(c), atol=1e-13)


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_run_tables_match_the_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [line.split()[0] for line in workloads.README_COMMANDS] == list(run.CLI_COMMANDS)
