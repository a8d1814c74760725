"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines as they complete).  Every expected value here is either checked
against an independent computation in-process (expansion oracle, brute
enumeration) or frozen from one.
"""

import random

import numpy as np
from oracles import divides, elliptic_e0_supersingular, pochhammer

from hwquartic.families import (LOCUS_SLOT, TABLE_C6, TABLE_C9, c6_coeff_polys,
                                c6_count_max_a, c6_entry_poly, c6_form,
                                c6_hw, c6_stack, c9_classify, c9_form, c9_hw)
from hwquartic.ffield import FpElement, modulus
from hwquartic.harness import (count_points_ext2, is_maximal_ext2,
                               oracle_corpus, primes_in)
from hwquartic.hwcore import (HWMatrix, a_number, hw_matrix, hw_matrix_oracle,
                              rank3, stable_rank)
from hwquartic.hypergeom import (expectation_check, verify_euler,
                                 verify_gauss_lemma)
from hwquartic.unipoly import is_separable


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def c6_hw_all(grid, rs):
    """c6_hw at each int r of rs, from one c6_stack of a c6_coeff_polys
    grid built once per prime (c6_hw rebuilds the grid per call); the
    tests check it against c6_hw at a seeded r per prime."""
    mod = grid[0][0].modulus
    stack = c6_stack(grid, (np.array(rs, np.int64),))
    return [HWMatrix([[FpElement(int(v[k]), mod) for (v,) in row]
                      for row in stack], mod) for k in range(len(rs))]


def test_criterion_01_oracle_equivalence():
    """hw_matrix == hw_matrix_oracle entrywise on the full corpus."""
    total = 0
    for p in (5, 7, 11, 13):
        m = modulus(p)
        for name, F in oracle_corpus(m):
            assert hw_matrix(F) == hw_matrix_oracle(F), (p, name)
            total += 1
    _report(1, f"oracle equivalence on {total} forms at p in {{5,7,11,13}}")


def test_criterion_02_closed_form_spot_checks():
    m5, m11 = modulus(5), modulus(11)
    assert c6_entry_poly(m5, 3, 1).coeffs == (4,)        # c2 = -1
    assert c6_entry_poly(m11, 3, 1).coeffs == (0, 8)     # c2 = -3r
    assert c9_hw(modulus(17)).is_zero()
    H = c9_hw(modulus(13))
    nonzero = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)
               if not H[r, c].is_zero()]
    assert nonzero == [(3, 2)]
    _report(2, "c2 closed forms at p=5,11; C9 matrix shapes at p=13,17")


def test_criterion_03_structure_lemmas():
    """For all p <= 500 and all r: anti-diagonal with zero center
    (p = 5 mod 6) or diagonal (p = 1 mod 6); a-numbers avoid 2 resp. 1.

    Entry polynomials cover all r at once for the vanishing slots; the
    general coefficient extractor cross-checks them per-r for p <= 200
    and at sampled r beyond.
    """
    for p in primes_in(5, 500):
        m = modulus(p)
        anti = p % 6 == 5
        live = {(1, 3), (3, 1)} if anti else {(1, 1), (2, 2), (3, 3)}
        grid = c6_coeff_polys(m)
        for row in (1, 2, 3):
            for col in (1, 2, 3):
                poly = grid[row - 1][col - 1]
                assert poly == c6_entry_poly(m, row, col), (p, row, col)
                if (row, col) not in live:
                    assert poly.is_zero, (p, row, col)
        row, col = LOCUS_SLOT[p % 6]
        va = grid[row - 1][col - 1].eval_all()
        vb = (grid[0][2] if anti else grid[2][2]).eval_all()
        vm = None if anti else grid[1][1].eval_all()
        forbidden = 2 if anti else 1
        for r in range(p):
            if r in (0, 2, p - 2):
                continue
            rk = int(va[r] != 0) + int(vb[r] != 0)
            if not anti:
                rk += int(vm[r] != 0)
            assert 3 - rk != forbidden, (p, r)
        if p <= 200:
            sample = [r for r in range(p) if r not in (2, p - 2)]
        else:
            rng = random.Random(p)
            sample = rng.sample(range(3, p - 2), 3)
        matrices = c6_hw_all(grid, sample)
        for r, H in zip(sample, matrices):
            assert hw_matrix(c6_form(m, r)) == H, (p, r)
        k = random.Random(f"c6-hw-{p}").randrange(len(sample))
        assert c6_hw(m, sample[k]) == matrices[k], (p, sample[k])
    _report(3, "C6 matrix shape and attained a-numbers for all p <= 500, all r")


def test_criterion_04_counting_theorem():
    for p in primes_in(5, 1000):
        n = c6_count_max_a(modulus(p))
        assert n == p // 12, p
        per_class = (p - 5) // 12 if p % 6 == 5 else (p - 1) // 12
        assert n == per_class, p
    _report(4, "max-a class count = floor(p/12) = residue-class form, p <= 1000")


def test_criterion_05_c9_table():
    for p in primes_in(5, 1000):
        m = modulus(p)
        M = c9_hw(m)
        a, f = a_number(M), stable_rank(M)
        [((_, ta), row)] = [(k, v) for k, v in TABLE_C9.items() if k[0] == p % 9]
        assert (a, f) == (ta, row.p_rank), p
        cls = c9_classify(m)
        assert (cls.newton_polygon, cls.eo_type) == (row.newton_polygon,
                                                     row.eo_type), p
    _report(5, "C9 a-number/p-rank from the matrix match the table, p <= 1000")


def test_criterion_06_divisibility_separability_degrees():
    for p in primes_in(5, 500):
        grid = c6_coeff_polys(modulus(p))
        if p % 6 == 5:
            c1, c2 = grid[0][2], grid[2][0]
            assert divides(c2, c1), p
            assert is_separable(c2), p
            assert c2.degree == (p - 5) // 6, p
            assert c1.degree == (p - 1) // 2, p
            assert not c2.eval(2).is_zero(), p
            assert not c2.eval(p - 2).is_zero(), p
            assert c2.eval(0).is_zero() == (p % 12 == 11), p
        else:
            ct1, ct3 = grid[0][0], grid[2][2]
            assert divides(ct1, ct3), p
            assert ct1.degree == (p - 1) // 6, p
    _report(6, "divisibility, separability, degrees and c2(0) rule, p <= 500")


def test_criterion_07_hypergeometric_identities():
    euler = gauss = 0
    for p in primes_in(5, 100):
        if p % 6 != 5:
            continue
        m = modulus(p)
        assert verify_euler(m), p
        euler += 1
        assert verify_gauss_lemma(m), p
        gauss += 1
    for p in (11, 17, 23, 29):
        m = modulus(p)
        fact = m.factorials
        top13, top12, base = (2 * p - 1) // 3, (p - 1) // 2, (p + 1) // 6
        for i in range((p - 1) // 2 + 1):
            sgn = (-1) ** i
            assert (pochhammer((1, 3), i, m) * sgn).value == \
                fact.fact[top13] * fact.inv_fact[top13 - i] % p, (p, i)
            assert (pochhammer((1, 2), i, m) * sgn).value == \
                fact.fact[top12] * fact.inv_fact[top12 - i] % p, (p, i)
            assert pochhammer((7, 6), i, m).value == \
                fact.fact[base + i] * fact.inv_fact[base] % p, (p, i)
    _report(7, f"Euler ({euler} primes), series congruences ({gauss} primes), "
               "Pochhammer factorials at p in {11,17,23,29}")


def test_criterion_08_expectation_reverification():
    checked = 0
    for p in primes_in(17, 500):
        if p % 6 != 5:
            continue
        rep = expectation_check(modulus(p))
        assert rep.all_square, p
        assert rep.missing == 0, p
        checked += 1
    _report(8, f"every series root lies in (F_p2^x)^2 for {checked} primes "
               "17 <= p <= 500")


def test_criterion_09_maximality():
    assert count_points_ext2(c9_form(modulus(17))) == 392
    for p in (5, 7, 13, 19, 23, 29, 31, 37, 41, 43, 47):
        assert not is_maximal_ext2(c9_form(modulus(p))), p
        assert p % 18 != 17, p
    assert is_maximal_ext2(c9_form(modulus(17)))
    _report(9, "C9 is F_p2-maximal exactly at p = 17 among primes <= 47; "
               "count(17) = 392")


def test_criterion_10_p_rank_consistency():
    for p in primes_in(5, 500):
        m = modulus(p)
        grid = c6_coeff_polys(m)
        params = [r for r in range(1, p) if r not in (2, p - 2)]
        matrices = c6_hw_all(grid, params)
        k = random.Random(f"c6-hw-{p}").randrange(len(params))
        assert c6_hw(m, params[k]) == matrices[k], (p, params[k])
        for r, M in zip(params, matrices):
            a = a_number(M)
            f = stable_rank(M)
            assert f == TABLE_C6[(p % 6, a)].p_rank, (p, r)
            assert f == rank3(M), (p, r)
    for p in primes_in(5, 1000):
        assert elliptic_e0_supersingular(modulus(p)) == (p % 6 == 5), p
    _report(10, "stable rank matches table p-rank for all p <= 500, all r; "
                "E0 supersingular iff p = 5 mod 6, p <= 1000")
