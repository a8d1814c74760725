import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import embed

from hwquartic import ffield
from hwquartic.errors import CapacityError, ModulusError
from hwquartic.ffield import (MAX_TABLE_PRIME, FactorialTable, Fp2Element,
                              FpElement, PrimeModulus, binomial, is_prime,
                              is_square_fp2, modulus, multinomial, sqrt_fp,
                              sqrt_fp2_of_fp)

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23)
#: the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 399165290221 * 798330580441      # 318665857834031151167461
PSI_13 = 1287836182261 * 2575672364521    # 3317044064679887385961981


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(2, 42):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # psi_12 passes Miller-Rabin at every base up to 37; base 41 rejects it.
    # From psi_13 on the 13 bases prove nothing, so is_prime raises.
    assert not is_prime(PSI_12)
    for n in (PSI_13, PSI_13 + 2):
        with pytest.raises(ModulusError):
            is_prime(n)


def test_modulus_rejects_bad_values():
    for bad in (4, 6, 1, 0, -7, 9, 2, 3, PSI_12, PSI_13):
        with pytest.raises(ModulusError):
            PrimeModulus(bad)
    for bad in ("11", 13.0, True):
        with pytest.raises(ModulusError, match="is not an integer"):
            PrimeModulus(bad)
    m = modulus(np.int64(13))
    assert m == PrimeModulus(13) and type(m.p) is int


def test_modulus_holds_one_prime_and_computes_its_data_once(monkeypatch):
    """modulus(p) keeps the last prime only; a modulus builds its factorial
    table and finds its non-residue once, on first use."""
    first = modulus(17)
    assert modulus(17) is first
    modulus(13)
    assert modulus(17) is not first and modulus(17) == first

    calls = []
    table, power = ffield.FactorialTable, pow

    def counted_table(p):
        calls.append("table")
        return table(p)

    def counted_pow(*args):
        calls.append("pow")
        return power(*args)

    monkeypatch.setattr(ffield, "FactorialTable", counted_table)
    m = PrimeModulus(23)
    assert m.factorials is m.factorials
    assert calls == ["table"]
    monkeypatch.setattr(ffield, "pow", counted_pow, raising=False)
    s = m.nonresidue
    searched = len(calls)
    assert s == m.nonresidue == 5 and searched > 1
    assert len(calls) == searched


def test_factorial_tables():
    assert modulus(5).factorials.fact.tolist() == [1, 1, 2, 1, 4]
    # Wilson: (p-1)! = -1 mod p
    assert modulus(7).factorials.fact[6] == 6
    assert modulus(13).factorials.fact[4] == 24 % 13
    for p in SMALL_PRIMES:
        t = modulus(p).factorials
        assert t.fact[0] == 1
        for n in range(1, p):
            assert t.fact[n] == t.fact[n - 1] * n % p
            assert t.fact[n] * t.inv_fact[n] % p == 1
        assert t.fact[p - 1] == p - 1


def scalar_factorial_table(p):
    """Reference: n! by one product per step, 1/n! by one inverse and a
    downward product per step."""
    values = [1] * p
    for n in range(1, p):
        values[n] = values[n - 1] * n % p
    inverses = [1] * p
    inverses[p - 1] = pow(values[p - 1], p - 2, p)
    for n in range(p - 1, 0, -1):
        inverses[n - 1] = inverses[n] * n % p
    return values, inverses


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from((5, 7, 11, 13, 17, 9973)),
                 st.integers(5, 10 ** 4).filter(is_prime)))
def test_factorial_table_matches_the_scalar_loops(p):
    """The blocked prefix products and the Wilson reflection give the
    scalar loops' tables, as int64 arrays."""
    t = FactorialTable(p)
    values, inverses = scalar_factorial_table(p)
    assert t.fact.dtype == t.inv_fact.dtype == np.int64
    assert t.fact.tolist() == values and t.inv_fact.tolist() == inverses


def test_factorial_table_capacity_bound():
    """Beyond MAX_TABLE_PRIME the table raises before allocating anything."""
    tracemalloc.start()
    try:
        above = next(q for q in range(MAX_TABLE_PRIME + 1, 2 * MAX_TABLE_PRIME)
                     if is_prime(q))
        for p in (above, 2 ** 31 - 1, 2 ** 61 - 1):
            with pytest.raises(CapacityError, match=str(MAX_TABLE_PRIME)):
                FactorialTable(p)
            with pytest.raises(CapacityError):
                binomial(3, 1, modulus(p))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_binomial_values():
    assert binomial(4, 2, 7).value == 6
    assert binomial(9, 0, 11).value == 1
    # (2p-1)/3 = 7, (p+1)/6 = 2 at p = 11
    assert binomial(7, 2, 11).value == 21 % 11
    assert binomial(3, 5, 7).value == 0


def test_binomial_rejects_large_top_index():
    with pytest.raises(ValueError):
        binomial(7, 2, 7)
    with pytest.raises(ValueError):
        binomial(-1, 0, 7)
    with pytest.raises(ValueError):
        binomial(4, -2, 7)


def test_binomial_factorial_law():
    # C(n,k) * k! * (n-k)! = n! for all n < p
    for p in (5, 7, 31):
        t = modulus(p).factorials
        for n in range(p):
            for k in range(n + 1):
                lhs = binomial(n, k, p).value * t.fact[k] % p * t.fact[n - k] % p
                assert lhs == t.fact[n]


def test_multinomial():
    assert multinomial(3, [1, 1, 1], 7).value == 6
    assert multinomial(9, [9], 11).value == 1
    assert multinomial(4, [2, 1, 1], 5).value == 12 % 5
    with pytest.raises(ValueError):
        multinomial(4, [2, 1], 5)
    with pytest.raises(ValueError):
        multinomial(4, [5, -1], 5)


def test_fp_arithmetic():
    m = modulus(7)
    a, b = FpElement(3, m), FpElement(5, m)
    assert (a + b).value == 1
    assert (a - b).value == 5
    assert (a * b).value == 1
    assert (a / b).value == (3 * pow(5, 5, 7)) % 7
    assert (-a).value == 4
    assert (a ** -1 * a).value == 1
    assert a + 4 == 0 and 4 + a == 0
    assert 1 - a == FpElement(5, m)
    assert bool(FpElement(0, m)) is False
    with pytest.raises(ZeroDivisionError):
        a / FpElement(0, m)
    with pytest.raises(ZeroDivisionError):
        FpElement(0, m).inverse()
    with pytest.raises(ModulusError):
        a + FpElement(1, modulus(11))


def test_fp2_arithmetic():
    m = modulus(11)
    s = m.nonresidue
    w = Fp2Element(0, 1, m)
    assert w * w == s
    x = Fp2Element(3, 4, m)
    y = Fp2Element(5, 9, m)
    # (a+bw)(c+dw) = (ac + bds) + (ad+bc)w
    z = x * y
    assert z.a == (3 * 5 + 4 * 9 * s) % 11
    assert z.b == (3 * 9 + 4 * 5) % 11
    assert (x * x.inverse()) == 1
    assert x / x == 1
    assert x + FpElement(2, m) == Fp2Element(5, 4, m)
    assert FpElement(2, m) * x == Fp2Element(6, 8, m)
    assert x ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        x / Fp2Element(0, 0, m)


def test_frobenius_involution_fixes_base_field():
    for p in (5, 7):
        m = modulus(p)
        for a in range(p):
            for b in range(p):
                x = Fp2Element(a, b, m)
                conj = Fp2Element(x.a, -x.b, m)
                assert Fp2Element(conj.a, -conj.b, m) == x
                assert x ** p == conj
                assert (conj == x) == (x.b == 0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.integers(0, 100), st.integers(0, 100),
       st.integers(0, 100), st.integers(0, 100))
def test_fp2_mul_commutes_and_distributes(p, a, b, c, d):
    m = modulus(p)
    x, y = Fp2Element(a, b, m), Fp2Element(c, d, m)
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y


@pytest.mark.parametrize("x", ((3, 5), (7,)))
@pytest.mark.parametrize("e", (0, 1, 2, 3, 5, 6, 1025))
def test_power_makes_one_product_per_square_and_set_bit(monkeypatch, x, e):
    """Left to right: a square per bit below the top bit and a product per
    set bit below it, (bitlen e - 1) + (popcount e - 1) products, none at
    e = 0; the value equals e products by x starting from 1."""
    mod = modulus(13)
    expect = (1, 0)[:len(x)]
    for _ in range(e):
        expect = ffield.mul(expect, x, mod)
    calls = []
    mul = ffield.mul

    def counting_mul(u, v, m):
        calls.append(1)
        return mul(u, v, m)

    monkeypatch.setattr(ffield, "mul", counting_mul)
    got = ffield.power(x, e, mod)
    assert len(calls) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)
    assert got == expect


def _squares(p):
    m = modulus(p)
    out = set()
    for a in range(p):
        for b in range(p):
            y = Fp2Element(a, b, m)
            out.add((y * y).a * p + (y * y).b)
    return out


@pytest.mark.parametrize("p", (5, 7, 11))
def test_is_square_fp2_matches_exhaustive_squaring(p):
    m = modulus(p)
    squares = _squares(p)
    for a in range(p):
        for b in range(p):
            x = Fp2Element(a, b, m)
            assert is_square_fp2(x) == (a * p + b in squares)


def test_is_square_fp2_omega_and_generator():
    # w = sqrt(s) is a square in F_{p^2} iff p = 3 mod 4: w^((p^2-1)/2)
    # = s^((p-1)/2 * (p+1)/2) = (-1)^((p+1)/2); exhaustive squaring agrees
    for p, expect in ((5, False), (7, True), (11, True), (13, False)):
        m = modulus(p)
        assert is_square_fp2(Fp2Element(0, 1, m)) is expect
    # a generator of F_{p^2}^x is never a square
    p = 5
    m = modulus(p)
    order = p * p - 1
    for a in range(p):
        for b in range(p):
            g = Fp2Element(a, b, m)
            if g.is_zero():
                continue
            if all((g ** (order // q)) != 1 for q in (2, 3)):
                assert not is_square_fp2(g)
    assert is_square_fp2(Fp2Element(1, 0, m))
    assert is_square_fp2(Fp2Element(0, 0, m))


def test_sqrt_fp():
    for p in SMALL_PRIMES:
        m = modulus(p)
        for v in range(p):
            rt = sqrt_fp(FpElement(v, m))
            if pow(v, (p - 1) // 2, p) == p - 1:
                assert rt is None
            else:
                assert rt is not None and rt * rt == v


def test_sqrt_fp2_of_fp():
    for p in (5, 7, 11, 13):
        m = modulus(p)
        for v in range(p):
            rt = sqrt_fp2_of_fp(FpElement(v, m))
            assert rt * rt == embed(FpElement(v, m))


def test_nonresidue_is_deterministic_and_minimal():
    for p in SMALL_PRIMES:
        m = modulus(p)
        s = m.nonresidue
        assert pow(s, (p - 1) // 2, p) == p - 1
        for t in range(2, s):
            assert pow(t, (p - 1) // 2, p) == 1


# ---------------------------------------------------------------------------
# The operator table: every binary operator, reflected ones included, on
# ints, FpElement and Fp2Element (b = 0 and b != 0), against a model on
# components (a, b) with a + b*w and w^2 = s, written out here.

BINARY_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _model(op, x, y, p, s):
    """op on component pairs; None for a zero divisor."""
    (a, b), (c, d) = x, y
    if op is operator.truediv:
        n = (c * c - s * d * d) % p
        if n == 0:
            return None
        ni = pow(n, p - 2, p)
        c, d = c * ni, -d * ni  # 1/y = (c - d*w) / (c^2 - s*d^2)
        op = operator.mul
    if op is operator.mul:
        return (a * c + s * b * d) % p, (a * d + b * c) % p
    return op(a, c) % p, op(b, d) % p


def _model_pow(x, e, p, s):
    out = (1, 0)
    if e < 0:
        x, e = _model(operator.truediv, (1, 0), x, p, s), -e
        if x is None:
            return None
    for _ in range(e):
        out = _model(operator.mul, out, x, p, s)
    return out


@st.composite
def _operand(draw, m):
    """(value, components, width): an int (width 0), an FpElement (1) or
    an Fp2Element with b = 0 or b != 0 (2)."""
    p = m.p
    kind = draw(st.sampled_from(("int", "fp", "fp2_b0", "fp2")))
    if kind == "int":
        v = draw(st.integers(-3 * p, 3 * p))
        return v, (v % p, 0), 0
    a = draw(st.integers(0, p - 1))
    if kind == "fp":
        return FpElement(a, m), (a, 0), 1
    b = 0 if kind == "fp2_b0" else draw(st.integers(1, p - 1))
    return Fp2Element(a, b, m), (a, b), 2


def _check_element(z, comps, width, m):
    assert type(z) is (Fp2Element if width == 2 else FpElement)
    assert z.modulus == m
    a, b = comps
    if width == 2:
        assert (z.a, z.b) == (a, b)
    else:
        assert b == 0 and z.value == a and int(z) == a
    assert repr(z) == (f"{a}" if b == 0 else f"{a}+{b}*w")
    assert bool(z) is (comps != (0, 0)) and z.is_zero() is (comps == (0, 0))
    # an Fp2Element with b = 0 equals and hashes as the FpElement
    twin = Fp2Element(a, b, m) if width == 1 or b else FpElement(a, m)
    if width == 1 or b == 0:
        assert z == twin and twin == z and hash(z) == hash(twin)
    else:
        assert z != FpElement(a, m) and FpElement(a, m) != z


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_operator_table(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    m = modulus(p)
    s = m.nonresidue
    x, xc, xw = data.draw(_operand(m))
    y, yc, yw = data.draw(_operand(m))
    if xw == yw == 0:
        x = FpElement(x, m)
        xw = 1
    width = max(xw, yw, 1)
    for op in BINARY_OPS:
        expect = _model(op, xc, yc, p, s)
        if expect is None:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        _check_element(op(x, y), expect, width, m)
    assert (x == y) is (xc == yc) and (x != y) is (xc != yc)
    if xc == yc and xw and yw:
        assert hash(x) == hash(y)
    for v, vc, vw in ((x, xc, xw), (y, yc, yw)):
        if not vw:
            continue
        _check_element(v, vc, vw, m)
        _check_element(-v, ((-vc[0]) % p, (-vc[1]) % p), vw, m)
        for e in (-3, -1, 0, 1, 2, 5):
            expect = _model_pow(vc, e, p, s)
            if expect is None:
                with pytest.raises(ZeroDivisionError):
                    v ** e
            else:
                _check_element(v ** e, expect, vw, m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_operator_table_rejects_foreign_operands(data):
    p, q = data.draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=2,
                              max_size=2, unique=True))
    x, _, xw = data.draw(_operand(modulus(p)))
    y, _, yw = data.draw(_operand(modulus(q)))
    for v, vw in ((x, xw), (y, yw)):
        if not vw:
            continue
        for op in BINARY_OPS + (operator.pow,):
            with pytest.raises(TypeError):
                op(v, 2.5)
            if op is not operator.pow:
                with pytest.raises(TypeError):
                    op(2.5, v)
        assert (v == 2.5) is False and (v != 2.5) is True
    if xw and yw:
        for op in BINARY_OPS + (operator.eq,):
            with pytest.raises(ModulusError):
                op(x, y)
            with pytest.raises(ModulusError):
                op(y, x)
