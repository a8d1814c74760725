from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import derivative, divides, kronecker_slots

from hwquartic.errors import CapacityError, IntegrityError, ModulusError
from hwquartic.families import LOCUS_SLOT, c6_coeff_polys, coeff_of_power
from hwquartic.ffield import (Fp2Element, FpElement, components, is_prime,
                              is_square_fp2, modulus)
from hwquartic.harness import main
from hwquartic.hwcore import hw_targets
from hwquartic.unipoly import (FFT_CROSSOVER, UniPoly, _blocks, _divmod_arrays,
                               _mul_arrays, _plan, _Reducer, eval_all_ext2,
                               ext2_elements, ext2_root_counts, horner,
                               is_separable, poly_gcd, roots_over)


def P(coeffs, p):
    return UniPoly(coeffs, modulus(p))


def test_construction_trims_and_canonicalizes():
    f = P([1, 2, 0, 0], 5)
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    z = P([0, 0], 7)
    assert z.is_zero and z.degree == -1 and z.coeffs == ()
    assert P([7, 14], 7).is_zero
    # the constructor for residues in [0, p) only trims
    assert UniPoly._reduced((1, 2, 0, 0), modulus(5)) == f
    assert UniPoly._reduced([0, 0], modulus(7)).coeffs == ()


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
    c2 = c6_coeff_polys(modulus(17))[2][0]
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
    """Also the raw y-coefficients of (y^4 + r y^2 + 1)^(p-1-i/3) behind
    c1 and c2, before the binomial scalar."""
    m = modulus(23)
    grid = c6_coeff_polys(m)
    assert divides(grid[2][0], grid[0][2])
    (i1, j1, _), (i2, j2, _) = hw_targets(23)[0][2], hw_targets(23)[2][0]
    d1 = coeff_of_power(22 - i1 // 3, j1, m)
    d2 = coeff_of_power(22 - i2 // 3, j2, m)
    assert divides(d2, d1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((5, 7, 11, 13)), st.lists(st.integers(0, 12), max_size=6),
       st.lists(st.integers(0, 12), min_size=1, max_size=5), st.integers(0, 40))
def test_pow_mod_matches_reduced_power(p, fc, gc, e):
    f, g = P(fc, p), P(gc, p)
    if g.is_zero:
        g = P([1, 1], p)
    assert pow(f, e, g) == (f ** e).divmod(g)[1]


# ---------------------------------------------------------------------------
# products and powmod against the schoolbook oracles

def schoolbook_mul(f, g):
    """Reference: the quadratic product loop."""
    p = f.modulus.p
    if f.is_zero or g.is_zero:
        return UniPoly.zero(f.modulus)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = (out[i + j] + a * b) % p
    return UniPoly(out, f.modulus)


def schoolbook_divmod(f, g):
    """Reference: long division one coefficient at a time on Python ints."""
    p = f.modulus.p
    rem, dv = list(f.coeffs), g.coeffs
    dn = len(dv) - 1
    lead_inv = pow(dv[-1], p - 2, p)
    q = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem[i + dn] * lead_inv % p
        if c:
            q[i] = c
            for j, b in enumerate(dv):
                rem[i + j] = (rem[i + j] - c * b) % p
    return UniPoly(q, f.modulus), UniPoly(rem[:dn], f.modulus)


def schoolbook_gcd(f, g):
    """Reference: Euclid's remainder sequence by schoolbook_divmod."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, schoolbook_divmod(a, b)[1]
    return a.monic()


def divmod_powmod(f, e, m):
    """Reference: square and multiply, each step reduced by schoolbook_divmod."""
    out, base = UniPoly((1,), f.modulus), f
    while e:
        if e & 1:
            out = schoolbook_divmod(schoolbook_mul(out, base), m)[1]
        base = schoolbook_divmod(schoolbook_mul(base, base), m)[1]
        e >>= 1
    return schoolbook_divmod(out, m)[1]


MERSENNE_61 = 2 ** 61 - 1
PRIMES = st.sampled_from([q for q in range(5, 10 ** 4) if is_prime(q)]
                         + [MERSENNE_61])


#: the array kernels (division, products, powmod) run on int64 below 2^31
#: and on Python ints above; a product there overflows int64 (but for a
#: factor of 1-2 coefficients at 2^31 - 1, 1 at 2^31 + 11) and takes the
#: convolution on Python ints; above 2^64 a residue is wider than a uint64
WIDE_PRIMES = (2 ** 31 - 1, 2 ** 31 + 11, MERSENNE_61, 2 ** 64 + 13)
ARRAY_PRIMES = st.one_of(
    st.sampled_from([q for q in range(5, 10 ** 4) if is_prime(q)]),
    st.sampled_from(WIDE_PRIMES))


@st.composite
def polys(draw, p, max_len):
    """Coefficient lists biased to p - 1, where product sums are largest."""
    c = st.one_of(st.just(p - 1), st.just(0), st.integers(0, p - 1))
    return P(draw(st.lists(c, max_size=max_len)), p)


@settings(max_examples=200, deadline=None)
@given(PRIMES, st.data())
def test_mul_matches_schoolbook(p, data):
    f, g = data.draw(polys(p, 40)), data.draw(polys(p, 40))
    assert f * g == schoolbook_mul(f, g)
    assert g * f == f * g
    e = data.draw(st.integers(0, 5))
    assert f ** e == reduce(schoolbook_mul, [f] * e, P([1], p))


@pytest.mark.parametrize("p", (7, 127, 9973, 1048573, 2 ** 29 - 3, MERSENNE_61,
                               2 ** 64 + 13))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64,
                               65, 128))
def test_mul_at_slot_width_steps(p, n):
    """All coefficients p - 1 raise every coefficient of the product to
    its largest value n (p-1)^2, which the int64 convolution must hold
    below 2^63: at every n here for 7 up to 1048573, the largest table
    prime; at p = 2^29 - 3 up to n = 32, and from n = 33 such products
    take the convolution on Python ints (object dtype), as every product
    at 2^61 - 1 and 2^64 + 13 does."""
    widest = {2 ** 29 - 3: 32, MERSENNE_61: 0, 2 ** 64 + 13: 0}.get(p, 128)
    assert _plan(n, n, p) == (np.int64 if n <= widest else object)
    f = P([p - 1] * n, p)
    for g in (f, P([p - 1] * (n + 5), p), P([p - 1], p), P([3], p)):
        assert f * g == schoolbook_mul(f, g)


def test_production_products_stay_on_int64(monkeypatch, capsys):
    """With np.convolve made to refuse object-dtype input, the Euler
    identity and the expectation check still pass at primes near 3000:
    their series products, squares and reductions (about 500
    coefficients) take the FFT, the Newton steps below FFT_CROSSOVER the
    int64 convolution, the products by t scalar steps and the gcds int64
    division.  A product at 2^61 - 1, too wide for int64, reaches the
    object path."""
    convolve, calls = np.convolve, []

    def int64_only(a, v, *args, **kwargs):
        if np.asarray(a).dtype == object or np.asarray(v).dtype == object:
            raise AssertionError("np.convolve called on object dtype")
        calls.append(a)
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", int64_only)
    for argv in (["verify", "euler", "--p", "2909"],
                 ["verify", "expectation", "--p", "2999"]):
        assert main(argv) == 0
        assert ",PASS," in capsys.readouterr().out
    assert calls
    with pytest.raises(AssertionError, match="object dtype"):
        P([1, 2], MERSENNE_61) * P([3, 4], MERSENNE_61)


@pytest.mark.parametrize("p", (5, 491, 2 ** 20 - 3))
def test_reducer_inverse_of_the_reversed_modulus(p):
    """_Reducer(m).inv, seeded by the series recurrence for min(n, 8)
    terms and lifted by Newton steps, times rev(m) is 1 mod t^n, for
    deg m = n = 1..40 and leading coefficients other than 1; checked by a
    schoolbook product on Python ints."""
    rng = np.random.default_rng(p)
    for n in range(1, 41):
        c = rng.integers(0, p, n + 1).tolist()
        c[-1] = int(rng.integers(2, p))
        rev, inv = c[::-1], _Reducer(P(c, p)).inv.tolist()
        assert len(inv) == n
        assert [sum(inv[i] * rev[k - i] for i in range(k + 1)) % p
                for k in range(n)] == [1] + [0] * (n - 1), (n, c)


#: factor lengths on both sides of FFT_CROSSOVER
FACTOR_LENGTHS = st.one_of(st.integers(1, 40),
                           st.integers(FFT_CROSSOVER - 16, FFT_CROSSOVER + 16),
                           st.integers(400, 1500))
#: small (491), middling (30011) and the largest p of the FFT, 2^20 - 3,
#: whose all-(p-1) factors carry the largest limbs, FFT values and int64
#: convolution sums
PRODUCT_PRIMES = st.sampled_from((491, 30011, 2 ** 20 - 3))
FILLS = st.sampled_from(("uniform", "mixed", "top"))


def residues(p, length, fill, rng):
    """length residues mod p with a nonzero last one: uniform, about half
    of them p - 1 (mixed), or all p - 1 (top)."""
    c = np.full(length, p - 1) if fill == "top" else rng.integers(0, p, length)
    if fill == "mixed":
        c[rng.random(length) < 0.5] = p - 1
    c[-1] = c[-1] or 1
    return c.tolist()


@settings(max_examples=150, deadline=None)
@given(PRODUCT_PRIMES, FACTOR_LENGTHS, FACTOR_LENGTHS, FILLS,
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3000))
@example(2 ** 20 - 3, 1500, 1500, "top", 0, 2000)
@example(491, FFT_CROSSOVER - 1, FFT_CROSSOVER, "top", 0, 300)
def test_products_match_the_byte_slot_oracle(p, la, lb, fill, seed, n):
    """UniPoly.__mul__, squares (b is a) and products truncated below t^n,
    on the int64 convolution and on the FFT, against the byte-slot kernel."""
    rng = np.random.default_rng(seed)
    a, b = residues(p, la, fill, rng), residues(p, lb, fill, rng)
    f, g = P(a, p), P(b, p)
    assert (f * g).coeffs == tuple(kronecker_slots(a, b, p).tolist())
    assert (f * f).coeffs == tuple(kronecker_slots(a, a, p).tolist())
    x, y = np.asarray(a, np.int64), np.asarray(b, np.int64)
    assert _mul_arrays(x, y, p, n).tolist() == kronecker_slots(a, b, p, n).tolist()
    assert _mul_arrays(x, x, p, n).tolist() == kronecker_slots(a, a, p, n).tolist()


@settings(max_examples=40, deadline=None)
@given(PRODUCT_PRIMES, FACTOR_LENGTHS.filter(lambda k: k > 1), FILLS,
       st.integers(0, 2 ** 32 - 1), st.integers(0, 10 ** 4))
def test_pow_mod_matches_the_oracle_across_the_crossover(p, k, fill, seed, e):
    """pow(f, e, m) with m of k coefficients, so that its reductions run on
    either side of the crossover (and by the scalar step after each product
    by t), against right-to-left square and multiply by the byte-slot
    kernel and long division."""
    rng = np.random.default_rng(seed)
    m = P(residues(p, k, fill, rng), p)

    def mulmod(u, v):
        if u.is_zero or v.is_zero:
            return UniPoly.zero(u.modulus)
        return UniPoly(kronecker_slots(u.coeffs, v.coeffs, p).tolist(), p).divmod(m)[1]

    for f in (P([0, 1], p), P(residues(p, 2 * k, fill, rng), p)):
        out, base, bits = P([1], p).divmod(m)[1], f.divmod(m)[1], e
        while bits:
            if bits & 1:
                out = mulmod(out, base)
            base, bits = mulmod(base, base), bits >> 1
        assert pow(f, e, m) == out


def test_fft_product_of_all_top_factors_at_the_largest_size():
    """Factors of p - 1 only, at p = 2^20 - 3 (the largest limbs) and at
    the lengths of the Euler product at p = 1048571 (2^19 points, the
    largest FFT the program runs), equal the closed form
    (p-1)^2 min(k+1, la, lb, la+lb-1-k) mod p."""
    p, la, lb = 2 ** 20 - 3, 349525, 174762
    k = np.arange(la + lb - 1)
    count = np.minimum(np.minimum(k + 1, la + lb - 1 - k), lb)
    exact = count % p * ((p - 1) ** 2 % p) % p
    assert np.array_equal(_mul_arrays(np.full(la, p - 1), np.full(lb, p - 1), p), exact)


def test_a_perturbed_fft_value_raises_integrity_error(monkeypatch):
    """A value 0.3 off an integer, out of np.fft.irfft, fails the rounding
    check; the same product passes unpatched."""
    irfft = np.fft.irfft

    def perturbed(*args, **kwargs):
        v = irfft(*args, **kwargs)
        v[0, 0] += 0.3
        return v

    f = P(range(1, FFT_CROSSOVER + 1), 30011)
    assert f * f == P(kronecker_slots(f.coeffs, f.coeffs, 30011).tolist(), 30011)
    monkeypatch.setattr(np.fft, "irfft", perturbed)
    with pytest.raises(IntegrityError, match="1/4"):
        f * f
    with pytest.raises(IntegrityError, match="1/4"):
        f * P(range(2, FFT_CROSSOVER + 2), 30011)


def test_mul_zero_and_constants():
    for p in (5, MERSENNE_61):
        z, one, c = UniPoly.zero(modulus(p)), P([1], p), P([p - 2], p)
        f = P(range(1, 9), p)
        assert (z * f).is_zero and (f * z).is_zero and (z * z).is_zero
        assert one * f == f == f * one
        assert c * c == P([4], p)
        assert c * f == f.scale(p - 2)


@settings(max_examples=200, deadline=None)
@given(ARRAY_PRIMES, st.data(), st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6)))
def test_pow_mod_matches_divmod_oracle(p, data, e):
    f = data.draw(polys(p, 20))
    m = data.draw(polys(p, 9).filter(lambda m: not m.is_zero))
    assert pow(f, e, m) == divmod_powmod(f, e, m)


@pytest.mark.parametrize("p", (5, 9973, MERSENNE_61))
@pytest.mark.parametrize("m", ([3], [1, 1], [2, 0, 1], [1, 2, 3, 4, 5, 6]))
@pytest.mark.parametrize("e", (0, 1, 2, 3, 17, 1000))
def test_pow_mod_edge_cases(p, m, e):
    """deg m in {0, 1}, e in {0, 1} and bases of degree above 2 deg m."""
    m = P(m, p)
    for f in (UniPoly.zero(modulus(p)), P([7], p), P([0, 1], p),
              P([0, 0, 0, 1], p),                 # r^3 mod 1 + r at e = 2
              P(range(1, 4 * m.degree + 4), p)):
        assert pow(f, e, m) == divmod_powmod(f, e, m)
        if e <= 3:
            assert pow(f, e, m) == (f ** e).divmod(m)[1]


# ---------------------------------------------------------------------------
# division and gcd against the schoolbook oracles

def nonzero(p, max_len):
    return polys(p, max_len).filter(lambda f: not f.is_zero)


def check_kernel(f, g):
    """The array kernel returns reduced, trimmed arrays of the oracle's
    quotient and remainder, in the dtype the prime calls for."""
    p = f.modulus.p
    q, r = _divmod_arrays(f.coeffs, g.coeffs, p)
    sq, sr = schoolbook_divmod(f, g)
    assert (tuple(q.tolist()), tuple(r.tolist())) == (sq.coeffs, sr.coeffs)
    assert r.dtype == q.dtype == (np.int64 if p < 2 ** 31 else object)
    assert f.divmod(g) == (sq, sr)


@settings(max_examples=200, deadline=None)
@given(ARRAY_PRIMES, st.data())
def test_divmod_matches_schoolbook(p, data):
    f, g = data.draw(polys(p, 30)), data.draw(nonzero(p, 12))
    check_kernel(f, g)


@settings(max_examples=150, deadline=None)
@given(ARRAY_PRIMES, st.data())
def test_gcd_matches_schoolbook(p, data):
    """A common factor h makes the gcd nontrivial most of the time."""
    f, g = data.draw(polys(p, 12)), data.draw(polys(p, 12))
    h = data.draw(nonzero(p, 6))
    f, g = f * h, g * h
    if f.is_zero and g.is_zero:
        return
    d = poly_gcd(f, g)
    assert d == schoolbook_gcd(f, g)
    assert d.leading().value == 1
    assert divides(d, f) and divides(d, g) and divides(h.monic(), d)


@pytest.mark.parametrize("p", (5, 9973) + WIDE_PRIMES)
def test_divmod_edge_cases(p):
    m = modulus(p)
    z = UniPoly.zero(m)
    f = P([p - 1, 3, 0, 7, p - 2, 1, 5], p)
    c = P([p - 3], p)
    # a divisor of degree 0: exact, the quotient is f / c
    assert f.divmod(c) == (f.scale(pow(p - 3, p - 2, p)), z)
    # a dividend shorter than the divisor, and a zero dividend
    g = P([1, 2, 3], p)
    assert g.divmod(f) == (z, g)
    assert z.divmod(f) == (z, z)
    # f = q*g + r with deg r = 1 < deg g - 1: the top coefficients of the
    # remainder cancel and must be trimmed
    g, q, r = P([2, 0, 1, 4, 1], p), P([1, p - 1, 6], p), P([p - 5, 8], p)
    assert (q * g + r).divmod(g) == (q, r)
    for a, b in ((f, c), (g, f), (z, f), (q * g + r, g), (q * g, g), (f, g)):
        check_kernel(a, b)


@pytest.mark.parametrize("p", (5, 9973) + WIDE_PRIMES)
def test_division_and_gcd_edge_operands(p):
    """Zero operands and equal degrees against the schoolbook oracles, at p
    just below 2^31 (int64) and above (object dtype).  Without a quotient
    the kernel divides an array of its dtype in place and returns a view."""
    z = UniPoly.zero(modulus(p))
    f, g = P([p - 1, 3, 0, 7, 1], p), P([2, p - 1, 5, 0, p - 4], p)
    for a, b in ((f, g), (g, f), (f, f), (z, g), (f, P([p - 2], p))):
        check_kernel(a, b)
        arr = np.array(a.coeffs, np.int64 if p < 2 ** 31 else object)
        q, r = _divmod_arrays(arr, b.coeffs, p, quotient=False)
        assert q is None and (len(r) == 0 or np.shares_memory(r, arr))
        assert tuple(r.tolist()) == schoolbook_divmod(a, b)[1].coeffs
    for a, b in ((f, g), (g, f), (f, f), (z, g), (g, z), (f * g, g * g)):
        assert poly_gcd(a, b) == schoolbook_gcd(a, b)
    assert poly_gcd(z, g) == g.monic() and poly_gcd(f, z) == f.monic()


@pytest.mark.parametrize("p", (7, 9973) + WIDE_PRIMES)
def test_gcd_of_products_with_a_known_factor(p):
    """gcd(f*g, g*h) = monic g for coprime f, h; f*g^2 is inseparable.
    The roots 1, 7 | 3, 5 | 2, -2, 11 of f | h | g are distinct mod p."""
    f = P([7, -8, 1], p)
    h = P([15, -8, 1], p)
    g = P([-4, 0, 1], p) * P([-11 * 3, 3], p)
    assert poly_gcd(f * g, g * h) == g.monic() == schoolbook_gcd(f * g, g * h)
    assert poly_gcd(f * g, g * h).degree == 3
    assert is_separable(f * g)
    assert not is_separable(f * g * g)
    assert poly_gcd(f * g * g, derivative(f * g * g)) == g.monic()


def test_gcd_mixed_moduli():
    with pytest.raises(ModulusError):
        poly_gcd(P([1, 1], 5), P([1, 1], 7))


def test_pow_zero_modulus():
    with pytest.raises(ZeroDivisionError):
        pow(P([1, 1], 5), 3, UniPoly.zero(modulus(5)))


def test_pow_uses_one_product_per_squaring(monkeypatch):
    """f ** 2**k is k squarings, with no square after the top bit; with a
    modulus the base is reduced by the one divmod of the powmod."""
    counts = {"mul": 0, "divmod": 0}
    mul, dm = UniPoly.__mul__, UniPoly.divmod

    def counting_mul(f, g):
        counts["mul"] += 1
        return mul(f, g)

    def counting_divmod(f, g):
        counts["divmod"] += 1
        return dm(f, g)

    monkeypatch.setattr(UniPoly, "__mul__", counting_mul)
    monkeypatch.setattr(UniPoly, "divmod", counting_divmod)
    f, m = P([1, 2, 3], 11), P([1, 0, 0, 0, 5, 1], 11)
    for k in range(6):
        counts.update(mul=0, divmod=0)
        f ** 2 ** k
        assert counts == {"mul": k, "divmod": 0}
        counts.update(mul=0, divmod=0)
        pow(f, 2 ** k, m)
        assert counts["divmod"] == 1


def test_powmod_converts_to_a_polynomial_a_fixed_number_of_times(monkeypatch):
    """The powmod runs on arrays from the reduced base to the result: the
    UniPoly rows it builds (the divmod's quotient and remainder, the
    result) do not grow with the exponent."""
    calls = []
    reduced = UniPoly._reduced.__func__

    def counting_reduced(cls, coeffs, mod):
        calls.append(len(coeffs))
        return reduced(cls, coeffs, mod)

    monkeypatch.setattr(UniPoly, "_reduced", classmethod(counting_reduced))
    f, m = P([1, 2, 3, 4, 5, 6, 7], 9973), P([3, 1, 4, 1, 5, 9, 2, 6, 5, 1], 9973)
    counts = []
    for e in (0, 1, 2, 3, 2 ** 10 + 5, 2 ** 20, 2 ** 20 - 1):
        calls.clear()
        got = pow(f, e, m)
        counts.append(len(calls))
        assert got == divmod_powmod(f, e, m)
    assert counts == [3] * 7


SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@st.composite
def factored_polys(draw):
    """Products of factors whose roots reach every case of the count: F_p
    roots (0 among them), F_{p^2} roots that are squares or not, roots
    outside F_{p^2} (an irreducible cubic) and repeated roots."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    m = modulus(p)
    coeff = st.integers(0, p - 1)
    f = P([draw(st.integers(1, p - 1))], p)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("linear", "ext2", "cubic", "any")))
        if kind == "linear":
            factor = P([-draw(coeff), 1], p)
        elif kind == "ext2":  # minimal polynomial of a + b*w, b != 0
            a, b = draw(coeff), draw(st.integers(1, p - 1))
            factor = P([a * a - m.nonresidue * b * b, -2 * a, 1], p)
        elif kind == "cubic":  # no root in F_p, so irreducible
            c = [draw(coeff), draw(coeff), draw(coeff), 1]
            while roots_over(P(c, p), 1):
                c[0] = (c[0] + 1) % p
                c[1] = (c[1] + (c[0] == 0)) % p
            factor = P(c, p)
        else:
            factor = P(draw(st.lists(coeff, min_size=1, max_size=5)), p)
        if not factor.is_zero:
            f = f * factor
    return f


@settings(max_examples=150, deadline=None)
@given(factored_polys())
@example(P([3, 0, 1], 5))                  # t^2 - w^2: w is not a square in F_25
@example(P([1, 1, 0, 1], 5))               # irreducible cubic, roots in F_125
@example(P([0, 1], 5) * P([3, 0, 1], 5) * P([1, 1, 0, 1], 5) * P([1, 1], 5) ** 2)
def test_ext2_root_counts_match_exhaustion(f):
    roots = roots_over(f, 2)
    assert ext2_root_counts(f) == (len(roots), sum(map(is_square_fp2, roots)))


def test_ext2_root_counts_rejects_the_zero_polynomial():
    """Every element is a root of 0: a ValueError up front, as roots_over
    raises, not the powmod's division by zero."""
    for p in (7, 491):
        with pytest.raises(ValueError, match="zero polynomial"):
            ext2_root_counts(UniPoly.zero(modulus(p)))


def test_separable_root_count_bound():
    for p in (13, 17):
        row, col = LOCUS_SLOT[p % 6]
        f = c6_coeff_polys(modulus(p))[row - 1][col - 1]
        if is_separable(f):
            assert len(roots_over(f, 2)) <= f.degree


# ---------------------------------------------------------------------------
# the evaluation kernel

PAIRS = st.tuples(st.integers(0, 60), st.integers(0, 60))

#: ints never overflow, so any p; int64 arrays hold every product below 2^31
INT_PRIMES = (5, 7, 13, 491, 2 ** 31 - 1, MERSENNE_61)
ARRAY_PRIMES = (5, 7, 11, 9973, 2 ** 31 - 1)


def element_horner(coeffs, x):
    """Reference: Horner's rule with FpElement or Fp2Element arithmetic."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def kernel_coeffs(coeffs, width):
    """Coefficients in horner's format: residues at width 1, pairs at 2."""
    return [components(c)[0] if width == 1 else components(c) for c in coeffs]


@st.composite
def kernel_cases(draw, primes):
    """(m, width, coefficients, points): elements of F_p (width 1) or
    F_{p^2} (width 2), biased to 0, 1 and p - 1."""
    p = draw(st.sampled_from(primes))
    m = modulus(p)
    width = draw(st.sampled_from((1, 2)))
    residue = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))

    def element():
        if width == 1:
            return FpElement(draw(residue), m)
        return Fp2Element(draw(residue), draw(residue), m)

    coeffs = [element() for _ in range(draw(st.integers(0, 7)))]
    points = [element() for _ in range(draw(st.integers(1, 8)))]
    return m, width, coeffs, points


@settings(max_examples=150, deadline=None)
@given(kernel_cases(INT_PRIMES))
def test_horner_matches_element_horner(case):
    m, width, coeffs, points = case
    for x in points:
        got = horner(kernel_coeffs(coeffs, width), components(x)[:width], m)
        assert got == components(element_horner(coeffs, x))[:width]


@settings(max_examples=150, deadline=None)
@given(kernel_cases(ARRAY_PRIMES))
def test_horner_on_int64_arrays_matches_element_horner(case):
    m, width, coeffs, points = case
    X = tuple(np.array([components(x)[t] for x in points], np.int64)
              for t in range(width))
    got = horner(kernel_coeffs(coeffs, width), X, m)
    assert len(got) == width
    assert all(v.dtype == np.int64 and v.shape == (len(points),) for v in got)
    for i, x in enumerate(points):
        assert (tuple(int(v[i]) for v in got)
                == components(element_horner(coeffs, x))[:width])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((5, 7, 11)), st.lists(PAIRS, min_size=1, max_size=6))
def test_horner_over_all_of_the_field(p, cs):
    m = modulus(p)
    coeffs = [Fp2Element(a, b, m) for a, b in cs]
    A, B = ext2_elements(p)
    va, vb = horner([components(c) for c in coeffs], (A, B), m)
    f = UniPoly([a for a, _ in cs], m)
    fa, fb = eval_all_ext2(f)
    assert len(va) == len(fa) == p * p
    for i in range(p * p):
        x = Fp2Element(*divmod(i, p), m)
        assert (A[i], B[i]) == components(x)
        assert Fp2Element(va[i], vb[i], m) == element_horner(coeffs, x)
        assert Fp2Element(fa[i], fb[i], m) == f.eval(x)
    fp_coeffs = [FpElement(a, m) for a, _ in cs]
    assert f.eval_all().tolist() == [
        element_horner(fp_coeffs, FpElement(x, m)).value for x in range(p)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((5, 7, 11)), st.sampled_from((1, 2)),
       st.lists(st.lists(PAIRS, min_size=1, max_size=5), min_size=1, max_size=6))
def test_horner_broadcasts_a_column_against_a_row(p, width, rows):
    """Column k of coefficient arrays against the row of all points
    gives, in row k, the 1-D evaluation of the k-th coefficient list."""
    m = modulus(p)
    deg = max(len(r) for r in rows)
    rows = [[(a % p, b % p) for a, b in r] + [(0, 0)] * (deg - len(r))
            for r in rows]
    column = [tuple(np.array([r[d][t] for r in rows], dtype=np.int64)[:, np.newaxis]
                    for t in (0, 1)) for d in range(deg)]
    if width == 1:
        rows = [[c[0] for c in r] for r in rows]
        column = [c[0] for c in column]
    X = ext2_elements(p) if width == 2 else (np.arange(p, dtype=np.int64),)
    got = horner(column, X, m)
    assert all(v.shape == (len(rows), len(X[0])) for v in got)
    for k, r in enumerate(rows):
        assert all(np.array_equal(v[k], u) for v, u in zip(got, horner(r, X, m)))


def power_sum(coeffs, x, p, s):
    """Reference: sum_k c_k x^k on Python-int component tuples, one power
    of x after another (w^2 = s at width 2)."""
    def times(u, v):
        if len(u) == 1:
            return (u[0] * v[0] % p,)
        return ((u[0] * v[0] + s * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)
    total, xk = (0,) * len(x), (1, 0)[:len(x)]
    for c in coeffs:
        term = times(c if len(x) == 2 else (c,), xk)
        total = tuple((t + u) % p for t, u in zip(total, term))
        xk = times(xk, x)
    return total


#: 2^31 - 1 caps the block size at 2, so the plain loop runs there
BLOCK_PRIMES = (5, 7, 1009, 1048573, 2 ** 31 - 1)


@st.composite
def long_horner_cases(draw):
    """(mod, coefficients, x, pairs) at width 1 or 2, with 1 to 401
    coefficients (dense around the 25 where blocks start) and x as ints,
    as 1-D arrays or as 2-D arrays that broadcast (a column against a row
    at width 2).  Values are biased to 0, 1 and p - 1.  At width 2 the
    coefficients are pairs, or residues of F_p (which take the blocked
    step on arrays); pairs are the coefficients as the power sum reads
    them."""
    p = draw(st.sampled_from(BLOCK_PRIMES))
    width = draw(st.sampled_from((1, 2)))
    n = draw(st.one_of(st.integers(1, 401), st.integers(16, 40)))
    rng = draw(st.randoms(use_true_random=False))

    def residue():
        return rng.choice((0, 1, p - 1, rng.randrange(p)))

    real = width == 2 and draw(st.booleans())
    coeffs = [residue() if width == 1 or real else (residue(), residue())
              for _ in range(n)]
    pairs = [(c, 0) for c in coeffs] if real else coeffs
    form = draw(st.sampled_from(("int", "1d", "2d")))
    if form == "int":
        x = tuple(residue() for _ in range(width))
    elif form == "1d":
        k = draw(st.integers(1, 9))
        x = tuple(np.array([residue() for _ in range(k)], np.int64)
                  for _ in range(width))
    else:
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        shapes = [(rows, cols)] if width == 1 else [(rows, 1), (1, cols)]
        x = tuple(np.array([residue() for _ in range(a * b)], np.int64).reshape(a, b)
                  for a, b in shapes)
    return modulus(p), coeffs, x, pairs


@settings(max_examples=300, deadline=None)
@given(long_horner_cases())
def test_horner_matches_the_power_sum_on_both_sides_of_the_crossover(case):
    mod, coeffs, x, pairs = case
    p, s = mod.p, mod.nonresidue
    got = horner(coeffs, x, mod)
    assert len(got) == len(x)
    if isinstance(x[0], int):
        assert got == power_sum(pairs, x, p, s)
        return
    X = np.broadcast_arrays(*x)
    for v in got:
        assert v.dtype == np.int64 and v.shape == X[0].shape
    for i in np.ndindex(X[0].shape):
        point = tuple(int(c[i]) for c in X)
        assert tuple(int(v[i]) for v in got) == power_sum(pairs, point, p, s)


@pytest.mark.parametrize("p", (1358187913, 1358187923))
@pytest.mark.parametrize("width", (1, 2))
def test_horner_blocks_at_the_int64_edge(p, width):
    """1358187913 is the largest prime with 5 (p - 1)^2 < 2^63: the cap
    lets blocks of 5 run there, where blocks of isqrt(401) = 20 would
    overflow; at the next prime it forces the plain loop.  At width 2
    these pairs have b != 0 and take the plain loop at both primes;
    test_blocks_take_fp_coefficients_only runs width-2 blocks here."""
    mod = modulus(p)
    top = (p - 1, p - 1) if width == 2 else p - 1
    coeffs = [top] * 394 + [(3, 1) if width == 2 else 3] * 7
    x = tuple(np.array([p - 1, 1, 0, 12345, p // 2 + 7], np.int64)
              for _ in range(width))
    got = horner(coeffs, x, mod)
    for i in range(5):
        point = tuple(int(c[i]) for c in x)
        assert tuple(int(v[i]) for v in got) == power_sum(
            coeffs, point, p, mod.nonresidue)


@pytest.mark.parametrize("p", (1009, 1358187913))
def test_blocks_take_fp_coefficients_only(p):
    """At width 2 the blocked step takes residue coefficients, also at the
    int64 edge of blocks of 5, and declines a list of pairs, even with
    every b = 0, which the plain loop evaluates; both agree with the power
    sum."""
    mod = modulus(p)
    row = np.array([p - 1, 1, 0, 12345 % p, p // 2 + 7], np.int64)
    x = row, row.copy()
    pairs = [(p - 1, 0)] * 394 + [(3, 0)] * 7
    for coeffs, blocked in (([a for a, _ in pairs], True), (pairs, False)):
        assert (_blocks(coeffs, x, mod)[0] is not coeffs) == blocked
        got = horner(coeffs, x, mod)
        for i in range(5):
            point = tuple(int(c[i]) for c in x)
            assert tuple(int(v[i]) for v in got) == power_sum(
                pairs, point, p, mod.nonresidue)


def test_eval_all_and_eval_all_ext2_match_eval_at_every_point():
    mod = modulus(101)
    f = UniPoly([(7 * k * k + 3 * k + 1) % 101 for k in range(61)], mod)
    assert f.degree == 60
    assert f.eval_all().tolist() == [f.eval(x).value for x in range(101)]
    fa, fb = eval_all_ext2(f)
    for i in range(101 * 101):
        x = Fp2Element(*divmod(i, 101), mod)
        assert components(f.eval(x)) == (fa[i], fb[i])


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


def test_scale_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    f = UniPoly([1, 2], m)
    assert f.scale(FpElement(3, m)) == f.scale(np.int64(14)) == UniPoly([3, 6], m)
    with pytest.raises(ModulusError):
        f.scale(FpElement(3, modulus(7)))
    with pytest.raises(TypeError):
        f.scale(2.5)


def test_constructor_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    assert UniPoly([np.int64(13), FpElement(3, m), True], m) == UniPoly([2, 3, 1], m)
    with pytest.raises(ModulusError):
        UniPoly([2, FpElement(3, modulus(7))], m)
    with pytest.raises(TypeError):
        UniPoly([2.5, FpElement(3, m)], m)


def test_eval_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    f = UniPoly([1, 2], m)
    assert f.eval(np.int64(13)) == f.eval(FpElement(2, m)) == 5
    assert f.eval(Fp2Element(2, 1, m)) == Fp2Element(5, 2, m)
    for foreign in (FpElement(2, modulus(7)), Fp2Element(2, 1, modulus(7))):
        with pytest.raises(ModulusError):
            f.eval(foreign)
    with pytest.raises(TypeError):
        f.eval(2.5)
