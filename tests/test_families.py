import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import divides
from test_hwcore import frobenius_cube, rank_by_elimination

from hwquartic import families, hwcore
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
from hwquartic.unipoly import UniPoly, is_separable, roots_over


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
    assert p5[2][0] == UniPoly([4], m5)  # c2 = -1
    m11 = modulus(11)
    p11 = c6_coeff_polys(m11)
    assert p11[2][0] == UniPoly([0, 8], m11)  # c2 = -3r
    p13 = c6_coeff_polys(modulus(13))
    assert p13[0][0].degree == (13 - 1) // 6


def test_c6_coeff_polys_degrees():
    for p in (11, 17, 23, 29, 41):
        grid = c6_coeff_polys(modulus(p))
        assert grid[0][2].degree == (p - 1) // 2
        assert grid[2][0].degree == (p - 5) // 6
    for p in (7, 13, 19, 31, 37):
        grid = c6_coeff_polys(modulus(p))
        assert grid[0][0].degree == (p - 1) // 6


def test_c6_polys_match_oracle_at_sampled_r():
    for p in (7, 13):
        m = modulus(p)
        grid = c6_coeff_polys(m)
        for r in range(p):
            if r in (2, p - 2):
                continue
            H = hw_matrix_oracle(c6_form(m, r))
            assert grid[0][0].eval(r) == H[1, 1]
            assert grid[1][1].eval(r) == H[2, 2]
            assert grid[2][2].eval(r) == H[3, 3]
    for p in (5, 11, 17, 23):
        m = modulus(p)
        grid = c6_coeff_polys(m)
        for r in range(p):
            if r in (2, p - 2):
                continue
            H = hw_matrix_oracle(c6_form(m, r))
            assert grid[0][2].eval(r) == H[1, 3]
            assert grid[2][0].eval(r) == H[3, 1]


def test_c6_entry_poly_structure():
    for p in (11, 13, 29, 31):
        m = modulus(p)
        live = {(1, 3), (3, 1)} if p % 6 == 5 else {(1, 1), (2, 2), (3, 3)}
        for row in (1, 2, 3):
            for col in (1, 2, 3):
                poly = c6_entry_poly(m, row, col)
                assert poly.is_zero == ((row, col) not in live)
        grid = c6_coeff_polys(m)
        assert isinstance(grid, list) and len(grid) == 3
        assert all(isinstance(row, list) and len(row) == 3 for row in grid)
        assert all(isinstance(f, UniPoly) and f.modulus == m
                   for row in grid for f in row)
        for row in (1, 2, 3):
            for col in (1, 2, 3):
                assert grid[row - 1][col - 1] == c6_entry_poly(m, row, col)
    for row, col in ((0, 1), (1, 0), (-1, 1), (4, 1), (1, 4)):
        with pytest.raises(IndexError):
            c6_entry_poly(modulus(11), row, col)


def test_divisibility_and_root_structure():
    for p in (11, 17, 23, 29, 41, 47):
        grid = c6_coeff_polys(modulus(p))
        c1, c2 = grid[0][2], grid[2][0]
        assert divides(c2, c1)
        assert is_separable(c2)
        assert not c2.eval(2).is_zero()
        assert not c2.eval(p - 2).is_zero()
        assert c2.eval(0).is_zero() == (p % 12 == 11)
    for p in (7, 13, 19, 31, 37, 43):
        grid = c6_coeff_polys(modulus(p))
        ct1, ct3 = grid[0][0], grid[2][2]
        assert divides(ct1, ct3)
        assert is_separable(ct1)
        assert not ct1.eval(2).is_zero()
        assert not ct1.eval(p - 2).is_zero()


def test_ct2_has_no_roots_besides_pm2():
    for p in (7, 13, 19, 31, 37):
        m = modulus(p)
        ct2 = c6_entry_poly(m, 2, 2)
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
        base = UniPoly([-4, 0, 1], m)
        expect = (base ** ((p - 1) // 6)).scale(
            binomial((2 * p - 2) // 3, (p - 1) // 3, m))
        assert c6_entry_poly(m, 2, 2) == expect.scale(binomial(p - 1, (p - 1) // 3, m)), p


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
        for r in range(p):
            if r in (2, p - 2):
                continue
            assert c6_hw(m, r) == hw_matrix(c6_form(m, r))


def test_c6_hw_ext2_parameter():
    m = modulus(13)
    r = Fp2Element(3, 1, m)
    assert c6_hw(m, r) == hw_matrix(c6_form(m, r))


def test_c6_classify_ext2_max_a_parameters():
    # p = 13: the ct1 roots satisfy r^2 = 8, a non-residue, so the two
    # max-a curves have r in F_169 \ F_13 (and r^2 in F_p)
    m = modulus(13)
    ct1 = c6_entry_poly(m, 1, 1)
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
    c2 = c6_entry_poly(m, *LOCUS_SLOT[5])
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


def _euclid_count(mod):
    """The count certified by a gcd with the derivative: the quadratic
    oracle for c6_count_max_a."""
    locus = c6_entry_poly(mod, *LOCUS_SLOT[mod.p % 6])
    assert is_separable(locus), mod.p
    n = locus.degree - sum(locus.eval(r).is_zero() for r in (0, 2, mod.p - 2))
    assert n % 2 == 0, mod.p
    return n // 2


def _locus_parameters(p):
    """(s, n) of the root locus [u^n](1 + r u + u^2)^s at p."""
    row, col = LOCUS_SLOT[p % 6]
    i, j, _ = hw_targets(p)[row - 1][col - 1]
    return p - 1 - i // 3, j // 2


def test_c6_count_max_a_matches_the_euclid_count():
    for p in primes_in(5, 2999):
        m = modulus(p)
        assert c6_count_max_a(m) == _euclid_count(m) == p // 12, p


@pytest.mark.parametrize("p", [17, 997, 2999])
def test_c6_count_max_a_rejects_a_perturbed_locus(monkeypatch, capsys, p):
    """One coefficient bumped by 1 breaks the Gegenbauer equation."""
    entry = families.c6_entry_poly

    def bumped_locus(mod, row, col):
        f = entry(mod, row, col)
        if (row, col) != LOCUS_SLOT[mod.p % 6]:
            return f
        c = list(f.coeffs)
        c[len(c) // 2] += 1
        return UniPoly(c, mod)

    monkeypatch.setattr(families, "c6_entry_poly", bumped_locus)
    with pytest.raises(IntegrityError, match="Gegenbauer equation fails"):
        c6_count_max_a(modulus(p))
    assert main(["verify", "counts", "--p", str(p)]) == 1
    assert "inseparable" in capsys.readouterr().err


def test_locus_at_plus_minus_two_is_a_nonzero_binomial():
    """P(2) = binom(2s, n) and P(-2) = (-1)^n binom(2s, n), with n <= 2s < p,
    so the locus has no root at +-2."""
    for p in primes_in(5, 2999):
        s, n = _locus_parameters(p)
        assert n <= 2 * s < p, p
        P = coeff_of_power(s, 2 * n, modulus(p))
        b = math.comb(2 * s, n) % p
        assert b and P.eval(2) == b and P.eval(p - 2) == (-1) ** n * b % p, p


def test_verify_counts_at_the_largest_table_prime(capsys):
    """The largest prime below MAX_TABLE_PRIME: the locus has degree
    174762, so a quadratic certificate would take minutes here."""
    assert main(["verify", "counts", "--p", "1048573"]) == 0
    row = "count=87381 floor(p/12)=87381 class-form=87381"
    assert row in capsys.readouterr().out


def check_c6_against_elimination(m, rs):
    """c6_hw, c6_classify and the batch c6_classify_all at each r of rs
    against the oracle: hw_matrix of the quartic, ranked by elimination."""
    width = 2 if isinstance(rs[0], Fp2Element) else 1
    batch = c6_classify_all(
        m, tuple(np.array([components(r)[t] for r in rs]) for t in range(width)))
    for r, cls in zip(rs, batch):
        H = hw_matrix(c6_form(m, r))
        a = 3 - rank_by_elimination(H.entries)
        f = rank_by_elimination(frobenius_cube(H.entries))
        assert c6_hw(m, r) == H, r
        assert (cls.a_number, cls.p_rank) == (a, f), r
        assert c6_classify(m, r) == cls, r


@pytest.mark.parametrize("p", [1009, 1013])  # 1 and 5 mod 6
def test_batched_classes_match_c6_classify(p):
    m = modulus(p)
    rng = random.Random(p)
    rs = rng.sample([r for r in range(1, p) if r not in (2, p - 2)], 24)
    check_c6_against_elimination(m, rs)


@pytest.mark.parametrize("p", [11, 13])
def test_c6_fp2_parameters_match_elimination(p):
    """Every r = a + b*w with b != 0: the width-2 one-parameter path."""
    m = modulus(p)
    rs = [Fp2Element(a, b, m) for a in range(p) for b in range(1, p)]
    check_c6_against_elimination(m, rs)


def test_attained_a_numbers_skip_middle_value():
    for p in (11, 17, 23, 29):
        m = modulus(p)
        seen = {a_number(c6_hw(m, r)) for r in range(p)
                if r not in (0, 2, p - 2)}
        assert seen <= {1, 3}
    for p in (7, 13, 19, 37):
        m = modulus(p)
        seen = {a_number(c6_hw(m, r)) for r in range(p)
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


@pytest.mark.parametrize("p", [19, 11, 13, 23, 7, 17])  # p mod 9: 1 2 4 5 7 8
def test_c9_classify_ranks_once(p, monkeypatch):
    """c9_classify takes rank and p-rank from one grid_ranks call and
    reads the table; the one-matrix wrappers are never reached."""
    calls = []
    grid_ranks = families.grid_ranks

    def counted(M, mod):
        calls.append(mod.p)
        return grid_ranks(M, mod)

    def unused(*_args):
        raise AssertionError("one-matrix rank wrapper called")

    monkeypatch.setattr(families, "grid_ranks", counted)
    for name in ("rank3", "stable_rank", "a_number"):
        monkeypatch.setattr(hwcore, name, unused)
        monkeypatch.setattr(families, name, unused, raising=False)
    cls = c9_classify(modulus(p))
    assert calls == [p]
    assert cls is TABLE_C9[p % 9, cls.a_number]


def test_classification_consistency_rules():
    with pytest.raises(IntegrityError):
        Classification(0, 3, "3(1,0)+3(0,1)", (1, 3, 3))  # phi jump > 1
    with pytest.raises(IntegrityError):
        Classification(1, 3, "3(1,0)+3(0,1)", (1, 2, 3))  # a != 3 - phi(3)
    with pytest.raises(IntegrityError):
        Classification(0, 2, "3(1,0)+3(0,1)", (1, 2, 3))  # wrong p-rank
    for table in (TABLE_C6, TABLE_C9):
        for (_, a), cls in table.items():
            assert isinstance(cls, Classification) and cls.a_number == a
            Classification(a, cls.p_rank, cls.newton_polygon, cls.eo_type)


def test_stable_rank_equals_rank_on_family():
    for p in (11, 13, 17, 19, 23):
        m = modulus(p)
        for r in range(p):
            if r in (0, 2, p - 2):
                continue
            H = c6_hw(m, r)
            assert stable_rank(H) == rank3(H)


def test_c6_hw_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    assert c6_hw(m, np.int64(3)) == c6_hw(m, FpElement(3, m)) == c6_hw(m, 14)
    for foreign in (FpElement(3, modulus(7)), Fp2Element(3, 1, modulus(7))):
        with pytest.raises(ModulusError):
            c6_hw(m, foreign)
    with pytest.raises(TypeError):
        c6_hw(m, 3.5)
