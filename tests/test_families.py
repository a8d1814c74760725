import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_hwcore import frobenius_cube, rank_by_elimination

from hwquartic import families
from hwquartic.errors import IntegrityError, ModulusError
from hwquartic.families import (LOCUS_SLOT, Classification, TABLE_C6, TABLE_C9,
                                _c9_solve_slot, c6_classify, c6_classify_all,
                                c6_coeff_polys, c6_count_max_a, c6_entry_poly,
                                c6_form, c6_hw, c9_classify, c9_form, c9_hw,
                                coeff_of_power)
from hwquartic.ffield import Fp2Element, FpElement, components, modulus, multinomial
from hwquartic.harness import main, primes_in
from hwquartic.hwcore import (a_number, hw_matrix, hw_matrix_oracle, hw_targets,
                              rank3, stable_rank)
from hwquartic.unipoly import UniPoly, divides, is_separable, roots_over


def test_coeff_of_power_examples():
    # s=1, m=4 at p=5: the y^4 coefficient of (y^4+ry^2+1) is 1
    assert coeff_of_power(1, 4, modulus(5)) == UniPoly([1], modulus(5))
    # s=3, m=10 at p=11: 3r
    assert coeff_of_power(3, 10, modulus(11)) == UniPoly([0, 3], modulus(11))
    assert coeff_of_power(4, 7, modulus(11)).is_zero  # odd degree
    assert coeff_of_power(2, 40, modulus(11)).is_zero  # unreachable degree
    with pytest.raises(ValueError):
        coeff_of_power(11, 4, modulus(11))


def scalar_coeff_of_power(s, m, mod):
    """Reference: one multinomial(s; a, b, s-a-b) per term r^b, 4a + 2b = m."""
    if m % 2:
        return UniPoly.zero(mod)
    coeffs = [0] * (m // 2 + 1)
    for a in range(min(s, m // 4) + 1):
        b = (m - 4 * a) // 2
        c = s - a - b
        if c < 0:
            continue
        coeffs[b] = (coeffs[b] + multinomial(s, (a, b, c), mod).value) % mod.p
    return UniPoly(coeffs, mod)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(primes_in(5, 3000)), st.data())
def test_coeff_of_power_matches_the_multinomial_loop(p, data):
    """Every s in [0, p-1], every m up to past the top degree 4s, odd m too."""
    s = data.draw(st.one_of(st.integers(0, p - 1), st.sampled_from((0, 1, p - 1))))
    m = data.draw(st.one_of(st.integers(0, 4 * s + 5), st.sampled_from((0, 2 * s, 4 * s))))
    assert coeff_of_power(s, m, modulus(p)) == scalar_coeff_of_power(s, m, modulus(p))


def test_c6_coeff_polys_closed_forms():
    m5 = modulus(5)
    p5 = c6_coeff_polys(m5)
    assert p5.c2 == UniPoly([4], m5)  # c2 = -1
    m11 = modulus(11)
    p11 = c6_coeff_polys(m11)
    assert p11.c2 == UniPoly([0, 8], m11)  # c2 = -3r
    p13 = c6_coeff_polys(modulus(13))
    assert p13.ct1.degree == (13 - 1) // 6


def test_c6_coeff_polys_degrees():
    for p in (11, 17, 23, 29, 41):
        polys = c6_coeff_polys(modulus(p))
        assert polys.c1.degree == (p - 1) // 2
        assert polys.c2.degree == (p - 5) // 6
    for p in (7, 13, 19, 31, 37):
        polys = c6_coeff_polys(modulus(p))
        assert polys.ct1.degree == (p - 1) // 6


def test_c6_polys_match_oracle_at_sampled_r():
    for p in (7, 13):
        m = modulus(p)
        polys = c6_coeff_polys(m)
        for r in range(p):
            if r in (2, p - 2):
                continue
            H = hw_matrix_oracle(c6_form(m, r))
            assert polys.ct1.eval(r) == H[1, 1]
            assert polys.ct2.eval(r) == H[2, 2]
            assert polys.ct3.eval(r) == H[3, 3]
    for p in (5, 11, 17, 23):
        m = modulus(p)
        polys = c6_coeff_polys(m)
        for r in range(p):
            if r in (2, p - 2):
                continue
            H = hw_matrix_oracle(c6_form(m, r))
            assert polys.c1.eval(r) == H[1, 3]
            assert polys.c2.eval(r) == H[3, 1]


def test_c6_entry_poly_structure():
    for p in (11, 13, 29, 31):
        m = modulus(p)
        live = {(1, 3), (3, 1)} if p % 6 == 5 else {(1, 1), (2, 2), (3, 3)}
        for row in (1, 2, 3):
            for col in (1, 2, 3):
                poly = c6_entry_poly(m, row, col)
                assert poly.is_zero == ((row, col) not in live)
        polys = c6_coeff_polys(m)
        for row in (1, 2, 3):
            for col in (1, 2, 3):
                assert polys.entries[row - 1][col - 1] == c6_entry_poly(m, row, col)
        E = polys.entries
        assert (polys.c1, polys.c2) == (E[0][2], E[2][0])
        assert (polys.ct1, polys.ct2, polys.ct3) == (E[0][0], E[1][1], E[2][2])
        if p % 6 == 5:
            assert c6_entry_poly(m, 1, 3) == polys.c1
            assert c6_entry_poly(m, 3, 1) == polys.c2
        else:
            assert c6_entry_poly(m, 1, 1) == polys.ct1
            assert c6_entry_poly(m, 2, 2) == polys.ct2
            assert c6_entry_poly(m, 3, 3) == polys.ct3


def test_divisibility_and_root_structure():
    for p in (11, 17, 23, 29, 41, 47):
        polys = c6_coeff_polys(modulus(p))
        assert divides(polys.c2, polys.c1)
        assert is_separable(polys.c2)
        assert not polys.c2.eval(2).is_zero()
        assert not polys.c2.eval(p - 2).is_zero()
        assert polys.c2.eval(0).is_zero() == (p % 12 == 11)
    for p in (7, 13, 19, 31, 37, 43):
        polys = c6_coeff_polys(modulus(p))
        assert divides(polys.ct1, polys.ct3)
        assert is_separable(polys.ct1)
        assert not polys.ct1.eval(2).is_zero()
        assert not polys.ct1.eval(p - 2).is_zero()


def test_ct2_has_no_roots_besides_pm2():
    for p in (7, 13, 19, 31, 37):
        m = modulus(p)
        ct2 = c6_coeff_polys(m).ct2
        allowed = {Fp2Element(2, 0, m), Fp2Element(p - 2, 0, m)}
        assert roots_over(ct2, 2) <= allowed


def test_dt2_is_scaled_power_of_r2_minus_4():
    """dt2 = ct2 / binom(p-1, (p-1)/3), the raw y-coefficient behind ct2,
    is binom((2p-2)/3, (p-1)/3) * (r^2 - 4)^((p-1)/6) exactly, which pins
    every root of ct2 to +-2 for all p = 1 mod 6 up to 500."""
    from hwquartic.ffield import binomial

    for p in primes_in(7, 500):
        if p % 6 != 1:
            continue
        m = modulus(p)
        polys = c6_coeff_polys(m)
        base = UniPoly([-4, 0, 1], m)
        expect = (base ** ((p - 1) // 6)).scale(
            binomial((2 * p - 2) // 3, (p - 1) // 3, m))
        assert polys.ct2 == expect.scale(binomial(p - 1, (p - 1) // 3, m)), p


def test_c6_hw_values():
    m = modulus(5)
    H = c6_hw(m, 1)
    assert H[3, 1] == 4 and H[1, 3] == 4
    assert all(H[r, c].is_zero() for r in (1, 2, 3) for c in (1, 2, 3)
               if (r, c) not in ((1, 3), (3, 1)))
    # p = 7, r = 1: diagonal (2, 3, 2), all nonzero
    H = c6_hw(modulus(7), 1)
    assert (H[1, 1], H[2, 2], H[3, 3]) == (2, 3, 2)
    with pytest.raises(ValueError):
        c6_hw(m, 2)
    with pytest.raises(ValueError):
        c6_hw(m, -2)


def test_c6_hw_matches_general_machinery():
    for p in (5, 7, 11, 13, 19, 23):
        m = modulus(p)
        polys = c6_coeff_polys(m)
        for r in range(p):
            if r in (2, p - 2):
                continue
            assert c6_hw(m, r, polys) == hw_matrix(c6_form(m, r))


def test_c6_hw_ext2_parameter():
    m = modulus(13)
    r = Fp2Element(3, 1, m)
    assert c6_hw(m, r) == hw_matrix(c6_form(m, r))


def test_c6_classify_ext2_max_a_parameters():
    # p = 13: the ct1 roots satisfy r^2 = 8, a non-residue, so the two
    # max-a curves have r in F_169 \ F_13 (and r^2 in F_p)
    m = modulus(13)
    ct1 = c6_coeff_polys(m).ct1
    roots = roots_over(ct1, 2)
    assert len(roots) == 2
    assert all(z.b != 0 for z in roots)
    for r in roots:
        assert r * r == Fp2Element(8, 0, m)
        cls = c6_classify(m, r)
        assert (cls.a_number, cls.p_rank) == (2, 1)


def test_c6_classify():
    cls = c6_classify(modulus(13), 1)
    assert (cls.a_number, cls.p_rank) == (0, 3)
    assert cls.newton_polygon == "3(1,0)+3(0,1)" and cls.eo_type == (1, 2, 3)
    cls = c6_classify(modulus(11), 1)
    assert (cls.a_number, cls.p_rank) == (1, 2)
    assert cls.newton_polygon == "2(1,0)+(1,1)+2(0,1)" and cls.eo_type == (1, 2, 2)
    with pytest.raises(ValueError):
        c6_classify(modulus(11), 0)
    with pytest.raises(ValueError):
        c6_classify(modulus(11), 2)


def test_c6_superspecial_member():
    # p = 17: c2 has roots; any root r gives the zero matrix and a = 3
    m = modulus(17)
    c2 = c6_coeff_polys(m).c2
    roots = [z for z in roots_over(c2, 2) if z.b == 0]
    assert roots, "no F_p-rational superspecial parameter at p = 17"
    r = FpElement(roots[0].a, m)
    cls = c6_classify(m, r)
    assert (cls.a_number, cls.p_rank) == (3, 0)
    assert cls.eo_type == (0, 0, 0)
    assert c6_hw(m, r).is_zero()


def test_c6_isomorphic():
    # C_r and C_r' are isomorphic iff r^2 = r'^2
    m = modulus(11)
    r1, r3, r8 = (FpElement(v, m) for v in (1, 3, 8))
    assert r3 * r3 == r8 * r8  # r and -r
    assert r3 * r3 == r3 * r3
    assert r1 * r1 != r3 * r3  # 1 != 9
    assert c6_classify(m, r3) == c6_classify(m, r8)


def test_c6_count_max_a_examples():
    assert c6_count_max_a(modulus(5)) == 0
    assert c6_count_max_a(modulus(13)) == 1
    assert c6_count_max_a(modulus(37)) == 3
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        assert c6_count_max_a(modulus(p)) == p // 12


def test_c6_count_max_a_rejects_an_inseparable_locus(monkeypatch, capsys):
    """A squared root locus has every root twice: the count would double,
    so the separability guard must stop it, and verify counts exits 1."""
    entry = families.c6_entry_poly

    def squared_locus(mod, row, col):
        f = entry(mod, row, col)
        return f * f if (row, col) == LOCUS_SLOT[mod.p % 6] else f

    monkeypatch.setattr(families, "c6_entry_poly", squared_locus)
    with pytest.raises(IntegrityError, match="inseparable"):
        c6_count_max_a(modulus(17))
    assert main(["verify", "counts", "--p", "17"]) == 1
    assert "inseparable" in capsys.readouterr().err


def check_c6_against_elimination(m, rs, polys):
    """c6_hw, c6_classify and the batch c6_classify_all at each r of rs
    against the oracle: hw_matrix of the quartic, ranked by elimination."""
    width = 2 if isinstance(rs[0], Fp2Element) else 1
    batch = c6_classify_all(
        m, tuple(np.array([components(r)[t] for r in rs]) for t in range(width)),
        polys)
    for r, cls in zip(rs, batch):
        H = hw_matrix(c6_form(m, r))
        a = 3 - rank_by_elimination(H.entries)
        f = rank_by_elimination(frobenius_cube(H.entries))
        assert c6_hw(m, r, polys) == H, r
        assert (cls.a_number, cls.p_rank) == (a, f), r
        assert c6_classify(m, r, polys) == cls, r


@pytest.mark.parametrize("p", [1009, 1013])  # 1 and 5 mod 6
def test_batched_classes_match_c6_classify(p):
    m = modulus(p)
    rng = random.Random(p)
    rs = rng.sample([r for r in range(1, p) if r not in (2, p - 2)], 24)
    check_c6_against_elimination(m, rs, c6_coeff_polys(m))


@pytest.mark.parametrize("p", [11, 13])
def test_c6_fp2_parameters_match_elimination(p):
    """Every r = a + b*w with b != 0: the width-2 one-parameter path."""
    m = modulus(p)
    rs = [Fp2Element(a, b, m) for a in range(p) for b in range(1, p)]
    check_c6_against_elimination(m, rs, c6_coeff_polys(m))


def test_attained_a_numbers_skip_middle_value():
    for p in (11, 17, 23, 29):
        m = modulus(p)
        polys = c6_coeff_polys(m)
        seen = {a_number(c6_hw(m, r, polys)) for r in range(p)
                if r not in (0, 2, p - 2)}
        assert seen <= {1, 3}
    for p in (7, 13, 19, 37):
        m = modulus(p)
        polys = c6_coeff_polys(m)
        seen = {a_number(c6_hw(m, r, polys)) for r in range(p)
                if r not in (0, 2, p - 2)}
        assert seen <= {0, 2}


def test_c9_hw_patterns():
    H = c9_hw(modulus(19))  # 19 = 1 mod 9: diagonal, nonzero
    for r in (1, 2, 3):
        for c in (1, 2, 3):
            assert H[r, c].is_zero() == (r != c)
    assert not any(H[i, i].is_zero() for i in (1, 2, 3))
    assert c9_hw(modulus(17)).is_zero()  # 17 = 8 mod 9
    H = c9_hw(modulus(13))  # 13 = 4 mod 9: single entry at (3, 2)
    assert H[3, 2] == 8
    assert sum(0 if H[r, c].is_zero() else 1
               for r in (1, 2, 3) for c in (1, 2, 3)) == 1


def test_c9_hw_matches_oracle_and_fast_path():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = modulus(p)
        F = c9_form(m)
        assert c9_hw(m) == hw_matrix(F)
        assert c9_hw(m) == hw_matrix_oracle(F)


# C9 slot tables, kept here as an oracle for the slot solver: slot
# (row, col) is active exactly in one residue class mod 9, with the
# multinomial exponents (a, b, c) below.
_C9_ABC = {
    (1, 1): lambda p: (2 * (p - 1) // 3, (p - 1) // 9, 2 * (p - 1) // 9),
    (2, 1): lambda p: ((2 * p - 1) // 3, (p - 5) // 9, (2 * p - 1) // 9),
    (3, 1): lambda p: ((2 * p - 1) // 3, (p - 2) // 9, 2 * (p - 2) // 9),
    (1, 2): lambda p: ((p - 2) // 3, (5 * p - 1) // 9, (p - 2) // 9),
    (2, 2): lambda p: ((p - 1) // 3, 5 * (p - 1) // 9, (p - 1) // 9),
    (3, 2): lambda p: ((p - 1) // 3, (5 * p - 2) // 9, (p - 4) // 9),
    (1, 3): lambda p: ((p - 2) // 3, (2 * p - 1) // 9, 2 * (2 * p - 1) // 9),
    (2, 3): lambda p: ((p - 1) // 3, (2 * p - 5) // 9, (4 * p - 1) // 9),
    (3, 3): lambda p: ((p - 1) // 3, 2 * (p - 1) // 9, 4 * (p - 1) // 9),
}

_C9_ACTIVE = {
    1: {(1, 1), (2, 2), (3, 3)},
    2: {(1, 2), (3, 1)},
    4: {(3, 2)},
    5: {(2, 1), (1, 3)},
    7: {(2, 3)},
    8: set(),
}


def test_c9_hw_matches_slot_tables():
    for p in primes_in(5, 2999):
        m = modulus(p)
        H = c9_hw(m)
        tg = hw_targets(p)
        for row in (1, 2, 3):
            for col in (1, 2, 3):
                target = tg[row - 1][col - 1]
                if (row, col) in _C9_ACTIVE[p % 9]:
                    abc = _C9_ABC[(row, col)](p)
                    assert _c9_solve_slot(p, target) == abc, (p, row, col)
                    assert H[row, col] == multinomial(p - 1, abc, m), (p, row, col)
                    assert not H[row, col].is_zero(), (p, row, col)
                else:
                    assert _c9_solve_slot(p, target) is None, (p, row, col)
                    assert H[row, col].is_zero(), (p, row, col)


def test_c9_classify_table():
    expect = {
        19: (0, 3, "3(1,0)+3(0,1)", (1, 2, 3)),
        11: (1, 0, "3(1,1)", (0, 1, 2)),  # 11 = 2 mod 9
        23: (1, 0, "3(1,1)", (0, 1, 2)),  # 23 = 5 mod 9
        13: (2, 0, "(2,1)+(1,2)", (0, 1, 1)),  # 4 mod 9
        7: (2, 0, "(2,1)+(1,2)", (0, 1, 1)),  # 7 mod 9
        17: (3, 0, "3(1,1)", (0, 0, 0)),  # 8 mod 9
    }
    for p, (a, f, np_tag, eo) in expect.items():
        cls = c9_classify(modulus(p))
        assert cls == Classification(a, f, np_tag, eo)


def test_classification_consistency_rules():
    with pytest.raises(IntegrityError):
        Classification(0, 3, "3(1,0)+3(0,1)", (1, 3, 3))  # phi jump > 1
    with pytest.raises(IntegrityError):
        Classification(1, 3, "3(1,0)+3(0,1)", (1, 2, 3))  # a != 3 - phi(3)
    with pytest.raises(IntegrityError):
        Classification(0, 2, "3(1,0)+3(0,1)", (1, 2, 3))  # wrong p-rank
    for (_, a), (f, np_tag, eo) in TABLE_C6.items():
        Classification(a, f, np_tag, eo)
    for a, f, np_tag, eo in TABLE_C9.values():
        Classification(a, f, np_tag, eo)


def test_stable_rank_equals_rank_on_family():
    for p in (11, 13, 17, 19, 23):
        m = modulus(p)
        polys = c6_coeff_polys(m)
        for r in range(p):
            if r in (0, 2, p - 2):
                continue
            H = c6_hw(m, r, polys)
            assert stable_rank(H) == rank3(H)


def test_c6_hw_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    assert c6_hw(m, np.int64(3)) == c6_hw(m, FpElement(3, m)) == c6_hw(m, 14)
    for foreign in (FpElement(3, modulus(7)), Fp2Element(3, 1, modulus(7))):
        with pytest.raises(ModulusError):
            c6_hw(m, foreign)
    with pytest.raises(TypeError):
        c6_hw(m, 3.5)
