"""Decision table for group-element validation.

Each row is a value; both element classes judge it, and the stacked
`validate_values` must give GroupElement's verdict with unitary=True and
ComplexGroupElement's with unitary=False, without a RuntimeWarning.  It is
the one judge: each verdict's message is raised in one place.  The
reference is a copy of the ordered checks as every construction ran them
before validation became one pass: finite entries, |det - 1| <= tol *
scale, then unitarity.  Every row states its verdicts; the reference must
agree with them except on the overflow rows, where it raised a bare
OverflowError or judged a determinant that cannot be formed.
"""

import ast
import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from cylgauge.cli import NUMERICAL_ERRORS
from cylgauge.groups import (
    AlgebraVector,
    ComplexGroupElement,
    GroupElement,
    GroupKind,
    exp_map,
    imaginary_radius,
    polar_decompose,
    validate_values,
    zero_vector,
)
from cylgauge.spectral import heat_kernel

U1, SU2 = GroupKind.U1, GroupKind.SU2
TOL = 1e-8
DET = (ValueError, "SL(2,C) elements must have determinant 1")
NOT_UNITARY = (ValueError, "group element is not unitary")
NOT_FINITE = (ValueError, "matrix entries must be finite")
U1_BAD = (ValueError, "U(1)-side elements must be finite and nonzero")
OVERFLOW = (OverflowError, "SL(2,C) determinant check overflows double precision")


def reference_verdict(group, value, unitary):
    """The former ordered checks: (exception class, message), or None."""
    try:
        if group is U1:
            v = complex(value)
            if v == 0 or not cmath.isfinite(v):
                raise ValueError("U(1)-side elements must be finite and nonzero")
            defect = abs(abs(v) - 1.0) if unitary else 0.0
        else:
            (a, b), (c, d) = np.asarray(value, dtype=complex).tolist()
            if not all(map(cmath.isfinite, (a, b, c, d))):
                raise ValueError("matrix entries must be finite")
            scale = max(1.0, max(abs(a), abs(b), abs(c), abs(d)) ** 2)
            if abs(a * d - b * c - 1.0) > TOL * scale:
                raise ValueError("SL(2,C) elements must have determinant 1")
            defect = 0.0
            if unitary:
                col0 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
                col1 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
                off = abs(a.conjugate() * b + c.conjugate() * d)
                defect = max(abs(col0 - 1.0), abs(col1 - 1.0), off)
        if defect > TOL:
            raise ValueError("group element is not unitary")
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


def verdict(make):
    try:
        make()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


def stacked_verdict(group, value, unitary):
    values = np.asarray(value, dtype=complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return verdict(lambda: validate_values(group, values, unitary))


def _with(position, entry):
    m = np.eye(2, dtype=complex)
    m[position] = entry
    return m


def _cosh_sinh(r):
    c, s = np.cosh(r), np.sinh(r)
    return np.array([[c, -s], [-s, c]])


POSITIONS = [(0, 0), (0, 1), (1, 0), (1, 1)]
NON_FINITE = {"nan": complex(np.nan, 0.0), "inf": complex(np.inf, 0.0), "-inf": complex(-np.inf, 0.0)}
ABOVE_TOL = np.nextafter(TOL, 1.0)

# (id, group, value, GroupElement verdict, ComplexGroupElement verdict)
ROWS = [
    *[
        (f"{name}-at-{i}{j}", SU2, _with((i, j), bad), NOT_FINITE, NOT_FINITE)
        for name, bad in NON_FINITE.items()
        for i, j in POSITIONS
    ],
    ("nan-imaginary-part", SU2, _with((1, 0), complex(0.0, np.nan)), NOT_FINITE, NOT_FINITE),
    ("identity", SU2, np.eye(2), None, None),
    # det - 1 = i * err exactly, entries of modulus 1 to rounding
    ("det-error-at-tol", SU2, np.diag([1.0, 1.0 + TOL * 1j]), None, None),
    ("det-error-above-tol", SU2, np.diag([1.0, 1.0 + ABOVE_TOL * 1j]), DET, DET),
    # entry scale 4: err = 2 tol lies between tol and 4 tol
    ("det-error-between-tol-and-scaled-tol", SU2, np.diag([2.0, 0.5 + TOL * 1j]), NOT_UNITARY, None),
    ("det-error-above-scaled-tol", SU2, np.diag([2.0, 0.5 + 3 * TOL * 1j]), DET, DET),
    # diag(1 + e, 1 / (1 + e)) has det 1 and unitarity defect about 2e
    ("diagonal-defect-below-tol", SU2, np.diag([1.0 + 0.4 * TOL, 1.0 / (1.0 + 0.4 * TOL)]), None, None),
    ("diagonal-defect-above-tol", SU2, np.diag([1.0 + 0.6 * TOL, 1.0 / (1.0 + 0.6 * TOL)]), NOT_UNITARY, None),
    # [[1, x], [0, 1]] has det 1 and off-diagonal defect x
    ("off-diagonal-defect-below-tol", SU2, np.array([[1.0, 0.9 * TOL], [0.0, 1.0]]), None, None),
    ("off-diagonal-defect-above-tol", SU2, np.array([[1.0, 1.1 * TOL], [0.0, 1.0]]), NOT_UNITARY, None),
    ("u1-zero", U1, 0.0, U1_BAD, U1_BAD),
    ("u1-nan", U1, complex(np.nan, 0.0), U1_BAD, U1_BAD),
    ("u1-inf", U1, complex(np.inf, 0.0), U1_BAD, U1_BAD),
    ("u1-minus-inf", U1, complex(0.0, -np.inf), U1_BAD, U1_BAD),
    ("u1-one", U1, 1.0, None, None),
    # |v| - 1 rounds to 0.99999999 tol above and 1.000000005 tol below
    ("u1-one-plus-tol", U1, 1.0 + TOL, None, None),
    ("u1-one-minus-tol", U1, 1.0 - TOL, NOT_UNITARY, None),
    ("u1-off-k", U1, 2.0j, NOT_UNITARY, None),
]

# values beyond the double range, where the reference raised a bare
# OverflowError from an entry scale or a modulus, or judged a determinant
# that cannot be formed
OVERFLOW_ROWS = [
    # det exactly 1, entry scale 1e320
    ("huge-and-tiny-diagonal", SU2, np.diag([1e160, 1e-160]), NOT_UNITARY, None),
    ("huge-diagonal-det-two", SU2, np.diag([1e160, 2e-160]), NOT_UNITARY, OVERFLOW),
    # exp(-360 sigma_1), the value of exp_map(0, y = (720, 0, 0)): entries
    # near 1e156, det by inf - inf
    ("complexified-exp-at-720", SU2, _cosh_sinh(360.0), NOT_UNITARY, OVERFLOW),
    # det overflows to -inf and the off-diagonal defect is inf - inf
    ("huge-entries-nan-defect", SU2, np.array([[1e200, 1e200], [1e200, -1e200]]), NOT_UNITARY, OVERFLOW),
    # modulus of an entry beyond the double range, det 0
    ("entry-modulus-overflows", SU2, np.diag([1.5e308 + 1.5e308j, 0.0]), NOT_UNITARY, OVERFLOW),
    # |det| beyond the double range: inf against a finite and an inf scale
    ("det-overflows-at-finite-scale", SU2, np.array([[1e154, 1e154], [-1e154, 1e154]]), DET, OVERFLOW),
    ("det-modulus-overflows", SU2, np.diag([1.3e154 * (1 + 1j), 1e154]), NOT_UNITARY, OVERFLOW),
    # det 1, but the off-diagonal unitarity term's modulus overflows
    (
        "defect-modulus-overflows",
        SU2,
        np.array([[1.2e154, 1.2e154 * (1 + 1j)], [0.0, 1 / 1.2e154]]),
        NOT_UNITARY,
        None,
    ),
    ("u1-modulus-overflows", U1, 1.5e308 + 1.5e308j, NOT_UNITARY, None),
]


def _check(group, value, on_k, off_k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verdict(lambda: GroupElement(group, value)) == on_k
        assert verdict(lambda: ComplexGroupElement(group, value)) == off_k
    assert stacked_verdict(group, value, True) == on_k
    assert stacked_verdict(group, value, False) == off_k


@pytest.mark.parametrize("row_id, group, value, on_k, off_k", ROWS, ids=[r[0] for r in ROWS])
def test_verdicts(row_id, group, value, on_k, off_k):
    assert reference_verdict(group, value, True) == on_k
    assert reference_verdict(group, value, False) == off_k
    _check(group, value, on_k, off_k)


@pytest.mark.parametrize(
    "row_id, group, value, on_k, off_k", OVERFLOW_ROWS, ids=[r[0] for r in OVERFLOW_ROWS]
)
def test_overflow_verdicts(row_id, group, value, on_k, off_k):
    # the fix: the reference differs on each of these rows
    assert (reference_verdict(group, value, True), reference_verdict(group, value, False)) != (on_k, off_k)
    _check(group, value, on_k, off_k)


SRC = Path(__file__).resolve().parents[1] / "src" / "cylgauge"


@pytest.mark.parametrize("message", [v[1] for v in (DET, NOT_UNITARY, NOT_FINITE, U1_BAD, OVERFLOW)],
                         ids=["det", "not-unitary", "not-finite", "u1-bad", "overflow"])
def test_each_verdict_is_raised_in_one_place(message):
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and any(isinstance(c, ast.Constant) and c.value == message for c in ast.walk(node))
    ]
    assert len(sites) == 1, sites


def test_determinant_overflow_is_a_numerical_error():
    assert issubclass(OVERFLOW[0], NUMERICAL_ERRORS)
    with pytest.raises(NUMERICAL_ERRORS, match="overflows double precision"):
        exp_map(zero_vector(SU2), AlgebraVector(SU2, [720.0, 0.0, 0.0]))


# accepted (det 1, or finite and nonzero), but a modulus of the unitarity
# terms lies beyond the double range
HUGE_SL2C = np.array([[1.2e154, 1.2e154 * (1 + 1j)], [0, 1 / 1.2e154]])
HUGE_C_STAR = complex(1.5e308, 1.5e308)


@pytest.mark.parametrize("group, value", [(SU2, HUGE_SL2C), (U1, HUGE_C_STAR)], ids=["sl2c", "c_star"])
def test_overflowing_unitarity_defect_reads_as_inf(group, value):
    assert ComplexGroupElement(group, value).unitarity_defect() == math.inf


@pytest.mark.parametrize("call", [polar_decompose, imaginary_radius, lambda g: heat_kernel(SU2, 1.0, g)],
                         ids=["polar_decompose", "imaginary_radius", "heat_kernel"])
def test_singular_positive_factor_is_a_numerical_error(call):
    g = ComplexGroupElement(SU2, HUGE_SL2C)
    with pytest.raises(NUMERICAL_ERRORS, match="positive factor is numerically singular"):
        call(g)


@pytest.mark.parametrize("call", [polar_decompose, imaginary_radius, lambda g: heat_kernel(U1, 1.0, g)],
                         ids=["polar_decompose", "imaginary_radius", "heat_kernel"])
def test_overflowing_c_star_modulus_is_a_named_numerical_error(call):
    g = ComplexGroupElement(U1, HUGE_C_STAR)
    with pytest.raises(NUMERICAL_ERRORS, match="positive factor .g. exceeds the double range"):
        call(g)


def test_product_and_inverse_use_the_same_checks():
    # values that only a failing product or inverse could form
    g = GroupElement(SU2, np.eye(2))
    broken = GroupElement(SU2, np.eye(2))
    broken.value = np.diag([1.0 + 0.6 * TOL, 1.0 / (1.0 + 0.6 * TOL)]).astype(complex)
    assert verdict(lambda: g * broken) == NOT_UNITARY
    assert verdict(broken.inverse) == NOT_UNITARY
    # det error within tol * scale at entries near 1e86; the square's det overflows
    z = ComplexGroupElement(SU2, _cosh_sinh(200.0))
    assert verdict(lambda: z * z) == OVERFLOW
