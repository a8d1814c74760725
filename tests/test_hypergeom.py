import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import embed, pochhammer

from hwquartic import hypergeom
from hwquartic.errors import ModulusError, PoleError
from hwquartic.families import LOCUS_SLOT, c6_entry_poly
from hwquartic.ffield import (Fp2Element, FpElement, binomial, is_prime,
                              is_square_fp2, modulus, sqrt_fp2_of_fp)
from hwquartic.hypergeom import (expectation_check, gauss_truncated,
                                 verify_euler, verify_gauss_lemma)
from hwquartic.unipoly import UniPoly, roots_over


def test_rational_param_reduction():
    """A rational parameter is a (num, den) tuple of ints, reduced to its
    residue mod p; the pole message still prints it as num/den."""
    m = modulus(11)
    assert (gauss_truncated((14, -4), 1, 1, 5, m)
            == gauss_truncated((-7, 2), 1, 1, 5, m))
    assert pochhammer((7, 6), 1, m).value == 7 * pow(6, 9, 11) % 11
    for bad in ((2.5, 1), (1, 2.0)):
        with pytest.raises(TypeError):
            gauss_truncated(bad, 1, 1, 2, m)
    with pytest.raises(ZeroDivisionError):
        gauss_truncated((1, 0), 1, 1, 2, m)
    with pytest.raises(ModulusError):
        gauss_truncated((1, 7), 1, 1, 2, modulus(7))
    with pytest.raises(PoleError, match=r"for c = 7/6: series"):
        gauss_truncated((1, 3), (1, 2), (7, 6), (5 * 11 - 1) // 6, m)


def test_pochhammer_basics():
    m = modulus(11)
    assert pochhammer((1, 3), 0, m).value == 1
    # (1; n) = n!
    for n in range(11):
        assert pochhammer(1, n, m).value == m.factorials.fact[n]
    assert pochhammer(1, 5, m).value == 120 % 11
    with pytest.raises(ValueError):
        pochhammer(1, -1, m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((11, 17, 23)), st.integers(0, 40), st.integers(0, 15))
def test_pochhammer_recurrence(p, x0, n):
    m = modulus(p)
    x = FpElement(x0, m)
    assert pochhammer(x, n + 1, m) == pochhammer(x, n, m) * (x + n)


def test_appendix_congruence_example_p11_i2():
    # (-1)^2 (1/3; 2) = 4 * 5 = 9 mod 11, and 7!/5! = 42 = 9 mod 11
    m = modulus(11)
    lhs = pochhammer((1, 3), 2, m)
    assert lhs.value == 9
    fact = m.factorials.fact.tolist()
    assert lhs == fact[7] * FpElement(fact[5], modulus(11)).inverse()


@pytest.mark.parametrize("p", (11, 17, 23, 29))
def test_appendix_congruences(p):
    """(-1)^i (1/3; i), (-1)^i (1/2; i) and ((2p+7)/6; i) against their
    factorial-ratio forms, for 0 <= i <= (p-1)/2."""
    m = modulus(p)
    fact = m.factorials
    one_third_top = (2 * p - 1) // 3
    one_half_top = (p - 1) // 2
    c_base = (p + 1) // 6
    for i in range((p - 1) // 2 + 1):
        sgn = (-1) ** i
        lhs = pochhammer((1, 3), i, m) * sgn
        assert lhs.value == fact.fact[one_third_top] * \
            fact.inv_fact[one_third_top - i] % p
        lhs = pochhammer((1, 2), i, m) * sgn
        assert lhs.value == fact.fact[one_half_top] * \
            fact.inv_fact[one_half_top - i] % p
        lhs = pochhammer((7, 6), i, m)
        assert lhs.value == fact.fact[c_base + i] * fact.inv_fact[c_base] % p


def scalar_pochhammer(x0, n, p):
    """Reference: (x; n) as n factors, for a residue x0."""
    out = 1
    for k in range(n):
        out = out * ((x0 + k) % p) % p
    return out


def scalar_gauss_truncated(a0, b0, c0, d, p):
    """Reference: the term ratios accumulated one inverse at a time, for
    residues a0, b0, c0; None where a denominator factor vanishes."""
    coeffs, term = [1], 1
    for n in range(1, d + 1):
        den = (c0 + n - 1) % p * (n % p) % p
        if den == 0:
            return None, n
        num = (a0 + n - 1) % p * ((b0 + n - 1) % p) % p
        term = term * num % p * pow(den, p - 2, p) % p
        coeffs.append(term)
    return coeffs, None


SERIES_PRIMES = (5, 7, 11, 13, 17, 29, 101, 1009, 2999)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SERIES_PRIMES), st.data())
def test_gauss_truncated_matches_the_term_ratio_loop(p, data):
    """Residue-0 parameters, d = 0, the last degree before the pole onset
    n = p - c + 1 (c read in [1, p]) and the onset itself; the pole keeps
    the loop's PoleError and its n."""
    m = modulus(p)
    residue = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    a0, b0, c0 = data.draw(residue), data.draw(residue), data.draw(residue)
    onset = p - ((c0 - 1) % p + 1) + 1
    d = data.draw(st.one_of(st.sampled_from((0, onset - 1, onset, p)),
                            st.integers(0, p + 2)))
    coeffs, pole = scalar_gauss_truncated(a0, b0, c0, d, p)
    if pole is None:
        assert gauss_truncated(a0, b0, c0, d, m) == UniPoly(coeffs, m)
    else:
        assert pole == onset
        with pytest.raises(PoleError, match=rf"^\(c;{pole}\) vanishes mod {p} "
                                            rf"for c = {c0}: series"):
            gauss_truncated(a0, b0, c0, d, m)
    n = data.draw(st.integers(0, 2 * p))
    assert pochhammer(a0, n, m).value == scalar_pochhammer(a0, n, p)
    assert pochhammer((a0, 1), n, m).value == scalar_pochhammer(a0, n, p)


@pytest.mark.parametrize("p", SERIES_PRIMES)
def test_one_minus_t_power_matches_the_binomial_loop(p):
    """(1 - t)^e, 0 <= e < p, is G(-e, 1, 1; t) truncated to degree e, the
    factor verify_euler builds."""
    m = modulus(p)
    for e in sorted({0, 1, 2, (p + 1) // 3, p - 2, p - 1}):
        row = [binomial(e, k, m).value * (-1) ** k for k in range(e + 1)]
        assert gauss_truncated(-e, 1, 1, e, m) == UniPoly(row, m)


def test_gauss_truncated_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    assert (gauss_truncated(FpElement(3, m), np.int64(2), (7, 6), 3, m)
            == gauss_truncated(3, 2, (7, 6), 3, m))
    with pytest.raises(ModulusError):
        gauss_truncated(FpElement(3, modulus(7)), (1, 2), (7, 6), 2, m)
    with pytest.raises(TypeError):
        gauss_truncated(2.5, (1, 2), (7, 6), 2, m)


def test_gauss_truncated_trivial_cases():
    m = modulus(11)
    s = gauss_truncated((1, 3), (1, 2), (7, 6), 0, m)
    assert s == UniPoly([1], m)
    assert s.degree == 0
    # a = 0 kills every term beyond the constant
    s = gauss_truncated(0, (1, 2), (7, 6), 5, m)
    assert s == UniPoly([1], m)
    with pytest.raises(ValueError):
        gauss_truncated(0, 0, (7, 6), -1, m)


def test_series_coefficient_vanishing_range():
    """With c = (2p+7)/6 the (1/2; n) factor kills coefficients for
    (p+1)/2 <= n and the (5/6; n) factor for (p+1)/6 <= n; the truncation
    boundary coefficients (p-1)/2 resp. (p-5)/6 themselves survive.  They
    must: the truncations match coefficient polynomials of exactly those
    degrees."""
    for p in (11, 17, 23):
        m = modulus(p)
        pole_onset = (5 * p - 1) // 6  # where (c; n) itself vanishes
        g = gauss_truncated((1, 3), (1, 2), (7, 6), pole_onset - 1, m)
        assert g.coeffs[(p - 1) // 2] != 0
        for n in range((p + 1) // 2, pole_onset - 1):
            assert g.coeffs[n] == 0 if n < len(g.coeffs) else True
        assert g.degree == (p - 1) // 2
        g = gauss_truncated((5, 6), (2, 3), (7, 6), (p - 5) // 6, m)
        assert g.degree == (p - 5) // 6


def test_gauss_truncated_pole_error():
    m = modulus(11)
    with pytest.raises(PoleError):
        gauss_truncated((1, 3), (1, 2), (7, 6), (5 * 11 - 1) // 6, m)


@pytest.mark.parametrize("p", (11, 17, 23, 29, 41))
def test_verify_euler(p):
    assert verify_euler(modulus(p))


def test_verify_euler_wrong_class():
    with pytest.raises(ModulusError):
        verify_euler(modulus(7))


def test_verify_euler_up_to_200():
    from hwquartic.harness import primes_in
    for p in primes_in(5, 200):
        if p % 6 == 5:
            assert verify_euler(modulus(p)), p


def alpha_beta(r, mod):
    """Reference: the pair with alpha + beta = r and alpha * beta = 1 in
    F_{p^2}, the roots of Y^2 - r Y + 1, from a Tonelli-Shanks square root
    and Fp2Element arithmetic."""
    root = sqrt_fp2_of_fp(r * r - 4)
    half = embed(FpElement(2, mod).inverse())
    return (embed(r) + root) * half, (embed(r) - root) * half


def test_alpha_beta():
    for p in (11, 23):
        m = modulus(p)
        for rv in range(p):
            r = FpElement(rv, m)
            alpha, beta = alpha_beta(r, m)
            assert alpha + beta == embed(r)
            assert alpha * beta == embed(FpElement(1, m))
    # r = 0: alpha = -beta, still on the unit "circle"
    alpha, beta = alpha_beta(FpElement(0, modulus(11)), modulus(11))
    assert alpha == -beta
    assert (alpha / beta) == embed(FpElement(-1, modulus(11)))


@pytest.mark.parametrize("p", (11, 23, 47))
def test_verify_gauss_lemma(p):
    assert verify_gauss_lemma(modulus(p))


def test_verify_gauss_lemma_wrong_class():
    with pytest.raises(ModulusError):
        verify_gauss_lemma(modulus(13))


def scalar_gauss_lemma(mod):
    """Reference: both congruences one r at a time, with Fp2Element
    arithmetic and scalar UniPoly.eval.  Reads the series, the binomials
    and the entry polynomials through the hypergeom module, so that a
    monkeypatched perturbation reaches it too.  The (1,3) and (3,1)
    entries are (-1)^k times the series' y-coefficients, with k =
    (p-2)/3 resp. (2p-1)/3, whose parities agree."""
    p = mod.p
    c = (7, 6)
    g1 = hypergeom.gauss_truncated((1, 3), (1, 2), c, (p - 1) // 2, mod)
    g2 = hypergeom.gauss_truncated((5, 6), (2, 3), c, (p - 5) // 6, mod)
    c1 = hypergeom.c6_entry_poly(mod, 1, 3)
    c2 = hypergeom.c6_entry_poly(mod, 3, 1)
    sign = (-1) ** ((p - 2) // 3)
    bin1 = embed(hypergeom.binomial((2 * p - 1) // 3, (p + 1) // 6, mod)) * sign
    bin2 = embed(hypergeom.binomial((p - 2) // 3, (p + 1) // 6, mod)) * sign
    for rv in range(p):
        if rv in (2, p - 2):
            continue
        r = FpElement(rv, mod)
        alpha, beta = alpha_beta(r, mod)
        t = alpha / beta
        if bin1 * beta ** ((p - 1) // 2) * g1.eval(t) != embed(c1.eval(r)):
            return False
        if bin2 * beta ** ((p - 5) // 6) * g2.eval(t) != embed(c2.eval(r)):
            return False
    return True


def test_gauss_lemma_matches_scalar_oracle():
    """The batched check takes its square roots from a table of squares,
    the oracle from Tonelli-Shanks.  Swapping alpha and beta left the
    oracle true at every p = 5 mod 6 in 11..59 and at 683, so the choice
    of root must not matter; this comparison pins that."""
    primes = [p for p in range(5, 200) if p % 6 == 5 and is_prime(p)] + [683]
    for p in primes:
        assert verify_gauss_lemma(modulus(p)) is scalar_gauss_lemma(modulus(p)) is True
    assert len(primes) == 24


def bump_top(f):
    """f + t^deg f: a different polynomial, changed at every t != 0."""
    return f + UniPoly([0] * f.degree + [1], f.modulus)


@pytest.mark.parametrize("p", (11, 17, 29))
@pytest.mark.parametrize("which", ("d1", "d2", "g1", "g2"))
def test_gauss_lemma_fails_on_a_perturbed_side(monkeypatch, p, which):
    """d1 and d2 bump the coefficient side, the (1,3) resp. (3,1) entry
    polynomial; g1 and g2 bump a series."""
    series, entry_poly = hypergeom.gauss_truncated, hypergeom.c6_entry_poly
    degree = {"g1": (p - 1) // 2, "g2": (p - 5) // 6}.get(which)
    slot = {"d1": (1, 3), "d2": (3, 1)}.get(which)

    def perturbed_series(a, b, c, d, mod):
        g = series(a, b, c, d, mod)
        return bump_top(g) if d == degree else g

    def perturbed_entry(mod, row, col):
        f = entry_poly(mod, row, col)
        return bump_top(f) if (row, col) == slot else f

    monkeypatch.setattr(hypergeom, "gauss_truncated", perturbed_series)
    monkeypatch.setattr(hypergeom, "c6_entry_poly", perturbed_entry)
    assert verify_gauss_lemma(modulus(p)) is False
    assert scalar_gauss_lemma(modulus(p)) is False


def series(p):
    """G^((p-5)/6)(5/6, 2/3, (2p+7)/6; t), the series expectation_check counts."""
    return gauss_truncated((5, 6), (2, 3), (7, 6), (p - 5) // 6, modulus(p))


def test_expectation_check_p17():
    rep = expectation_check(modulus(17))
    assert rep.all_square is True
    assert rep.degree == 2 and rep.missing == 0
    assert {(z.a, z.b) for z in roots_over(series(17), 2)} == {(8, 0), (15, 0)}
    assert rep.found == 2


def test_expectation_check_p23():
    rep = expectation_check(modulus(23))
    assert rep.all_square is True
    assert rep.degree == 3 and rep.missing == 0


def test_expectation_check_preconditions():
    with pytest.raises(ValueError):
        expectation_check(modulus(11))  # p >= 17 required
    with pytest.raises(ModulusError):
        expectation_check(modulus(13))  # wrong residue class


def test_expectation_check_matches_exhaustion():
    """The powmod count against root exhaustion at every p = 5 mod 6 in [17, 200]."""
    primes = [p for p in range(17, 201) if p % 6 == 5 and is_prime(p)]
    for p in primes:
        roots = roots_over(series(p), 2)
        rep = expectation_check(modulus(p))
        assert rep.found == len(roots), p
        assert rep.all_square == all(map(is_square_fp2, roots)), p
        assert rep.missing == rep.degree - len(roots), p
    assert len(primes) == 21


@pytest.mark.parametrize("p", (17, 23, 29))
def test_c2_roots_match_series_roots(p):
    """c2(r) = 0 iff the degree-(p-5)/6 series vanishes at t = alpha/beta."""
    m = modulus(p)
    c2 = c6_entry_poly(m, *LOCUS_SLOT[5])
    g = gauss_truncated((5, 6), (2, 3), (7, 6), (p - 5) // 6, m)
    for rv in range(p):
        if rv in (2, p - 2):
            continue
        r = FpElement(rv, m)
        alpha, beta = alpha_beta(r, m)
        assert c2.eval(r).is_zero() == g.eval(alpha / beta).is_zero()


@pytest.mark.parametrize("p", (11, 17, 29))
def test_gauss_lemma_checks_the_w_component(monkeypatch, p):
    """Binomials scaled by 1 + w turn each left side d(r) into d(r) + d(r)*w:
    the F_p components all still match, so only the w components can fail."""
    binomial = hypergeom.binomial
    monkeypatch.setattr(hypergeom, "binomial", lambda n, k, mod:
                        embed(binomial(n, k, mod)) * Fp2Element(1, 1, mod))
    assert verify_gauss_lemma(modulus(p)) is False
    assert scalar_gauss_lemma(modulus(p)) is False


def test_pochhammer_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    assert pochhammer(FpElement(3, m), 2, m) == pochhammer(np.int64(14), 2, m) == 12
    with pytest.raises(ModulusError):
        pochhammer(FpElement(3, modulus(7)), 2, m)
    with pytest.raises(TypeError):
        pochhammer(2.5, 2, m)
