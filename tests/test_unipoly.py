import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwquartic.errors import CapacityError, ModulusError
from hwquartic.families import c6_coeff_polys
from hwquartic.ffield import Fp2Element, FpElement, components, modulus
from hwquartic.unipoly import (UniPoly, derivative, divides, eval_all_ext2,
                               ext2_elements, horner_ext2, is_separable,
                               poly_gcd, roots_over)


def P(coeffs, p):
    return UniPoly(coeffs, modulus(p))


def test_construction_trims_and_canonicalizes():
    f = P([1, 2, 0, 0], 5)
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    z = P([0, 0], 7)
    assert z.is_zero and z.degree == -1 and z.coeffs == ()
    assert P([7, 14], 7).is_zero


def test_poly_mul():
    # (r+1)(r-1) = r^2 + 4 over F_5
    assert P([1, 1], 5) * P([-1, 1], 5) == P([4, 0, 1], 5)
    assert (P([1, 2, 3], 5) * UniPoly.zero(modulus(5))).is_zero
    # (r^2+1)^2 = r^4 + 2r^2 + 1 over F_5
    f = P([1, 0, 1], 5)
    assert f * f == P([1, 0, 2, 0, 1], 5)
    with pytest.raises(ModulusError):
        P([1], 5) * P([1], 7)


def test_poly_gcd():
    assert poly_gcd(P([-1, 0, 1], 7), P([-1, 1], 7)) == P([-1, 1], 7)
    # gcd with zero is the monic scaling of the other argument: (2+4r)/4
    assert poly_gcd(P([2, 4], 7), UniPoly.zero(modulus(7))) == P([4, 1], 7)
    # by-hand Euclid over F_7: r^2-1 = (r+1)(r-1), r^2+3r+2 = (r+1)(r+2)
    assert poly_gcd(P([-1, 0, 1], 7), P([2, 3, 1], 7)) == P([1, 1], 7)
    assert poly_gcd(P([1, 0, 1], 7), P([0, 1, 1], 7)) == P([1], 7)
    with pytest.raises(ValueError):
        poly_gcd(UniPoly.zero(modulus(7)), UniPoly.zero(modulus(7)))


def test_derivative():
    assert derivative(P([0, 0, 0, 0, 0, 1], 5)).is_zero  # d/dr r^5 over F_5
    assert derivative(P([1, 1, 1], 5)) == P([1, 2], 5)
    assert derivative(P([3], 5)).is_zero
    assert derivative(UniPoly.zero(modulus(5))).is_zero


def test_is_separable():
    assert is_separable(P([-1, 0, 1], 7))
    assert not is_separable(P([-1, 1], 7) * P([-1, 1], 7))
    # f' = 0 with deg > 0 means a p-th power
    assert not is_separable(P([1, 0, 0, 0, 0, 1], 5))
    assert is_separable(P([3], 5))
    with pytest.raises(ValueError):
        is_separable(UniPoly.zero(modulus(5)))


def test_c2_at_17_is_separable_with_two_ext2_roots():
    c2 = c6_coeff_polys(modulus(17)).c2
    assert c2.degree == 2
    assert is_separable(c2)
    roots = roots_over(c2, 2)
    assert len(roots) == 2
    for r in roots:
        assert c2.eval(r).is_zero()


def test_eval():
    f = P([1, 0, 1], 5)
    assert f.eval(2).value == 0
    assert f.eval(FpElement(2, modulus(5))).value == 0
    assert P([4, 1, 3], 5).eval(0).value == 4
    assert UniPoly.zero(modulus(5)).eval(3).value == 0
    m = modulus(5)
    x = Fp2Element(1, 2, m)
    assert f.eval(x) == x * x + 1
    with pytest.raises(ModulusError):
        f.eval(FpElement(1, modulus(7)))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from((5, 11, 17)),
       st.lists(st.integers(0, 30), max_size=6),
       st.lists(st.integers(0, 30), max_size=6),
       st.integers(0, 30))
def test_eval_is_a_ring_homomorphism(p, fc, gc, xv):
    m = modulus(p)
    f, g, x = UniPoly(fc, m), UniPoly(gc, m), FpElement(xv, m)
    assert (f * g).eval(x) == f.eval(x) * g.eval(x)
    assert (f + g).eval(x) == f.eval(x) + g.eval(x)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from((5, 11)),
       st.lists(st.integers(0, 30), max_size=8),
       st.lists(st.integers(0, 30), min_size=1, max_size=5))
def test_euclidean_division_law(p, fc, gc):
    m = modulus(p)
    f, g = UniPoly(fc, m), UniPoly(gc, m)
    if g.is_zero:
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_roots_over():
    assert roots_over(P([-1, 0, 1], 7), 1) == {FpElement(1, modulus(7)),
                                               FpElement(6, modulus(7))}
    m = modulus(11)
    s = m.nonresidue
    f = P([-s, 0, 1], 11)  # r^2 - s
    assert roots_over(f, 1) == set()
    w = Fp2Element(0, 1, m)
    assert roots_over(f, 2) == {w, -w}
    # roots of a polynomial with F_p roots appear embedded in the ext scan
    assert roots_over(P([-1, 0, 1], 7), 2) == {Fp2Element(1, 0, modulus(7)),
                                               Fp2Element(6, 0, modulus(7))}


def test_roots_over_capacity_and_zero():
    f = P([1, 1], 521)
    roots_over(f, 1)
    with pytest.raises(CapacityError):
        roots_over(f, 2)  # 521^2 > 250000
    with pytest.raises(CapacityError):
        roots_over(P([1, 1], 7), 2, limit=10)
    with pytest.raises(ValueError):
        roots_over(UniPoly.zero(modulus(7)), 1)
    with pytest.raises(ValueError):
        roots_over(f, 3)


def test_divides():
    assert divides(P([-1, 1], 5), P([-1, 0, 1], 5))
    assert divides(P([1, 1], 5), UniPoly.zero(modulus(5)))
    assert not divides(P([1, 1], 5), P([1, 0, 1], 5))
    with pytest.raises(ZeroDivisionError):
        divides(UniPoly.zero(modulus(5)), P([1, 1], 5))


def test_c2_divides_c1_at_23():
    polys = c6_coeff_polys(modulus(23))
    assert divides(polys.c2, polys.c1)
    assert divides(polys.d2, polys.d1)


def test_separable_root_count_bound():
    for p in (13, 17):
        polys = c6_coeff_polys(modulus(p))
        f = polys.root_locus_poly()
        if is_separable(f):
            assert len(roots_over(f, 2)) <= f.degree


# ---------------------------------------------------------------------------
# the F_{p^2} evaluation kernel

PAIRS = st.tuples(st.integers(0, 60), st.integers(0, 60))


def horner_fp2(coeffs, x):
    """Reference: Horner's rule with Fp2Element arithmetic."""
    acc = Fp2Element(0, 0, x.modulus)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((5, 7, 13, 31, 491)), st.lists(PAIRS, max_size=7),
       st.integers(0, 490), st.integers(0, 490))
def test_horner_ext2_matches_fp2_element_horner(p, cs, xa, xb):
    m = modulus(p)
    coeffs = [Fp2Element(a, b, m) for a, b in cs]
    x = Fp2Element(xa, xb, m)
    got = horner_ext2([components(c) for c in coeffs], x.a, x.b, m)
    assert Fp2Element(*got, m) == horner_fp2(coeffs, x)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((5, 7, 11)), st.lists(PAIRS, min_size=1, max_size=6))
def test_horner_ext2_over_all_of_fp2(p, cs):
    m = modulus(p)
    coeffs = [Fp2Element(a, b, m) for a, b in cs]
    A, B = ext2_elements(p)
    va, vb = horner_ext2([components(c) for c in coeffs], A, B, m)
    f = UniPoly([a for a, _ in cs], m)
    fa, fb = eval_all_ext2(f)
    assert len(va) == len(fa) == p * p
    for i in range(p * p):
        x = Fp2Element(*divmod(i, p), m)
        assert (A[i], B[i]) == components(x)
        assert Fp2Element(va[i], vb[i], m) == horner_fp2(coeffs, x)
        assert Fp2Element(fa[i], fb[i], m) == f.eval(x)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((5, 7, 11)),
       st.lists(st.lists(PAIRS, min_size=1, max_size=5), min_size=1, max_size=6))
def test_horner_ext2_broadcasts_a_column_against_a_row(p, rows):
    """Column k of coefficient arrays against the row of all points
    gives, in row k, the 1-D evaluation of the k-th coefficient list."""
    m = modulus(p)
    deg = max(len(r) for r in rows)
    rows = [[(a % p, b % p) for a, b in r] + [(0, 0)] * (deg - len(r))
            for r in rows]
    column = [tuple(np.array([r[d][t] for r in rows], dtype=np.int64)[:, np.newaxis]
                    for t in (0, 1)) for d in range(deg)]
    X = ext2_elements(p)
    va, vb = horner_ext2(column, *X, m)
    assert va.shape == vb.shape == (len(rows), p * p)
    for k, r in enumerate(rows):
        ra, rb = horner_ext2(r, *X, m)
        assert np.array_equal(va[k], ra) and np.array_equal(vb[k], rb)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from((5, 7, 13)), st.integers(-200, 200), st.integers(-200, 200))
def test_components_round_trip(p, a, b):
    m = modulus(p)
    x = Fp2Element(a, b, m)
    assert components(x) == (x.a, x.b)
    assert Fp2Element(*components(x), m) == x
    y = FpElement(a, m)
    assert components(y) == (a % p, 0)
    assert FpElement(components(y)[0], m) == y
