import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import elliptic_e0_supersingular

from hwquartic import harness, hwcore
from hwquartic.errors import CapacityError, ModulusError
from hwquartic.families import c6_form, c6_hw, c9_form, c9_hw
from hwquartic.ffield import Fp2Element, FpElement, components, is_prime, modulus
from hwquartic.harness import fermat_form, random_sparse_quartic
from hwquartic.hwcore import (MAX_CANDIDATES, ORACLE_PRIME_BOUND, HWMatrix,
                              QuarticForm, _pivots, a_number,
                              coefficient_in_power, hw_matrix,
                              hw_matrix_oracle, hw_targets, rank3, stable_rank)

MONOMIALS = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
ORACLE_PRIMES = [p for p in range(5, ORACLE_PRIME_BOUND + 1) if is_prime(p)]


def M(entries, p):
    m = modulus(p)
    return HWMatrix([[FpElement(v, m) for v in row] for row in entries], m)


def rank_by_elimination(entries):
    """Rank of a 3x3 matrix of field elements by Gaussian elimination: the
    oracle of the rank rule."""
    rows = [list(r) for r in entries]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if not rows[r][col].is_zero()),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [e * inv for e in rows[rank]]
        for r in range(3):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def product(A, B):
    """A @ B on 3x3 lists of field elements."""
    return [[sum((A[i][k] * B[k][j] for k in range(3)), start=A[0][0] * 0)
             for j in range(3)] for i in range(3)]


def frobenius_cube(A):
    """A * A^(p) * A, A^(p) raising every entry to the p-th power."""
    p = A[0][0].modulus.p
    return product(product(A, [[e ** p for e in row] for row in A]), A)


def test_quartic_form_validation():
    m = modulus(7)
    with pytest.raises(ValueError):
        QuarticForm({(3, 0, 0): 1}, m)  # degree 3
    with pytest.raises(ValueError):
        QuarticForm({(5, 0, -1): 1}, m)
    F = QuarticForm({(4, 0, 0): 1, (0, 4, 0): 0}, m)
    assert list(F.terms) == [(4, 0, 0)]  # zero coefficient dropped


def test_oracle_on_degenerate_single_term():
    # z^4: F^{p-1} is a single monomial, far from every matrix slot; its
    # one exponent vector lies on a line, so the walk refuses it, as it
    # does the zero form
    for p in (5, 11):
        F = QuarticForm({(0, 0, 4): 1}, modulus(p))
        assert hw_matrix_oracle(F).is_zero()
        for G in (F, QuarticForm({}, modulus(p))):
            with pytest.raises(ValueError, match="lie on a line"):
                hw_matrix(G)


def test_matrix_entries_are_indexed_1_to_3():
    H = c6_hw(modulus(11), 3)
    assert H[3, 1] == H.entries[2][0]
    for rc in ((0, 1), (1, 0), (-1, 3), (4, 1), (1, 4)):
        with pytest.raises(IndexError):
            H[rc]


def test_fermat_p5_is_scalar():
    # each diagonal slot has the unique solution (2,1,1)-pattern:
    # multinomial(4; 2,1,1) = 12 = 2 mod 5, off-diagonals empty
    F = fermat_form(modulus(5))
    expected = M([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 5)
    assert hw_matrix_oracle(F) == expected
    assert hw_matrix(F) == expected


def test_c6_matrix_shape_and_value_p5():
    m = modulus(5)
    for r in (0, 1, 3, 4):  # r = 2, 3 = -2 singular; keep r != +-2
        if r in (2, 3):
            continue
        H = hw_matrix(c6_form(m, r))
        for row in (1, 2, 3):
            for col in (1, 2, 3):
                if (row, col) not in ((1, 3), (3, 1)):
                    assert H[row, col].is_zero()
        assert H[3, 1] == 4  # c2 = -1 for p = 5, independent of r


def test_c6_entry_value_p11_r1():
    H = hw_matrix(c6_form(modulus(11), 1))
    assert H[3, 1] == 8  # c2(r) = -3r at p = 11


def test_c9_matrix_p13():
    H = hw_matrix(c9_form(modulus(13)))
    for row in (1, 2, 3):
        for col in (1, 2, 3):
            if (row, col) != (3, 2):
                assert H[row, col].is_zero()
    # multinomial(12; 4, 7, 1) = 3960 = 8 mod 13
    assert H[3, 2] == 8


def test_oracle_equivalence_small_sample():
    rng = random.Random(20240811)
    for p in (5, 7, 11):
        m = modulus(p)
        forms = [c9_form(m), fermat_form(m)]
        forms += [random_sparse_quartic(rng, m) for _ in range(10)]
        for F in forms:
            assert hw_matrix(F) == hw_matrix_oracle(F)


def test_oracle_equivalence_ext2_coefficients():
    for p in (5, 7):
        m = modulus(p)
        r = Fp2Element(1, 2, m)
        F = c6_form(m, r)
        assert F.uses_ext_field()
        assert hw_matrix(F) == hw_matrix_oracle(F)


def test_oracle_capacity_bound():
    with pytest.raises(CapacityError):
        hw_matrix_oracle(fermat_form(modulus(37)))


def test_coefficient_in_power_total_degree():
    # the coefficient of the full power of one variable is coeff^(p-1)
    p = 11
    m = modulus(p)
    F = QuarticForm({(4, 0, 0): 3, (0, 4, 0): 1, (0, 0, 4): 1}, m)
    [c] = coefficient_in_power(F, [(4 * (p - 1), 0, 0)])
    assert c == pow(3, p - 1, p)


@st.composite
def random_forms(draw):
    """A quartic on 3-15 random monomials, not all on a line, with nonzero
    int or F_{p^2} coefficients, at p <= 31 (at most 8 terms above p = 13,
    where the enumeration of a denser support outgrows MAX_CANDIDATES)."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    m = modulus(p)
    support = draw(st.lists(st.sampled_from(MONOMIALS), min_size=3,
                            max_size=15 if p <= 13 else 8, unique=True))
    assume(np.linalg.matrix_rank(support) == 3)
    if draw(st.booleans()):
        coeff = st.builds(lambda a, b: Fp2Element(a, b, m),
                          st.integers(0, p - 1), st.integers(0, p - 1))
        coeff = coeff.filter(lambda c: not c.is_zero())
    else:
        coeff = st.integers(1, p - 1)
    return QuarticForm({e: draw(coeff) for e in support}, m)


@settings(max_examples=60, deadline=None)
@given(random_forms())
def test_hw_matrix_matches_oracle_on_random_supports(F):
    assert hw_matrix(F) == hw_matrix_oracle(F)


@st.composite
def forms_of_each_rank(draw):
    """(F, targets): a form whose exponent matrix has rank 1, 2 or 3 (one
    monomial, monomials on one line, or any support), with F_p or F_{p^2}
    coefficients at p <= 31, and a list of Hasse-Witt targets and
    off-range targets with a duplicate."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    m = modulus(p)
    rank = draw(st.sampled_from((1, 2, 3)))
    a, b = draw(st.lists(st.sampled_from(MONOMIALS), min_size=2, max_size=2,
                         unique=True))
    line = [e for e in MONOMIALS if np.linalg.matrix_rank([a, b, e]) < 3]
    pool = {1: [a], 2: line, 3: MONOMIALS}[rank]
    support = draw(st.lists(st.sampled_from(pool), min_size=rank,
                            max_size=15 if p <= 13 else 8, unique=True))
    assume(np.linalg.matrix_rank(support) == rank)
    if draw(st.booleans()):
        coeff = st.builds(lambda a, b: Fp2Element(a, b, m),
                          st.integers(0, p - 1), st.integers(1, p - 1))
    else:
        coeff = st.integers(1, p - 1)
    F = QuarticForm({e: draw(coeff) for e in support}, m)
    n = 4 * (p - 1)
    off = [(-1, n + 1, 0), (n, 4, -4), (n + 4, 0, 0), (0, 0, 0)]
    targets = draw(st.lists(st.sampled_from(
        [t for row in hw_targets(p) for t in row] + off), min_size=1, max_size=12))
    return F, targets + targets[:1]


@settings(max_examples=60, deadline=None)
@given(forms_of_each_rank())
def test_one_walk_matches_each_target_and_the_oracle(case):
    """Rank 3: the walk agrees with the oracle target by target.  Rank 1
    and 2 (the exponents on a line, a singular quartic): ValueError."""
    F, targets = case
    if np.linalg.matrix_rank(list(F.terms)) < 3:
        for call in (lambda: coefficient_in_power(F, targets), lambda: hw_matrix(F)):
            with pytest.raises(ValueError, match="lie on a line"):
                call()
        return
    H = hw_matrix_oracle(F)
    expected = {t: H[a + 1, b + 1] for a, row in enumerate(hw_targets(F.modulus.p))
                for b, t in enumerate(row)}
    zero = H[1, 1] * 0
    values = coefficient_in_power(F, targets)
    assert values == [coefficient_in_power(F, [t])[0] for t in targets]
    assert values == [expected.get(t, zero) for t in targets]


@pytest.mark.parametrize("support", [
    [(4, 0, 0)],                                # rank 1
    [(4, 0, 0), (2, 2, 0), (0, 4, 0)],          # rank 2, no z
    [(3, 1, 0), (1, 3, 0), (2, 1, 1)],          # rank 3, pivot minor 8
])
@pytest.mark.parametrize("ext", [False, True])
def test_hw_matrix_matches_oracle_on_degenerate_supports(support, ext):
    """The rank-3 support agrees with the oracle; the walk refuses the
    supports on a line, where every quartic is singular."""
    rng = random.Random(11)
    for p in ORACLE_PRIMES:
        m = modulus(p)
        coeff = ((lambda: Fp2Element(rng.randrange(1, p), rng.randrange(p), m))
                 if ext else (lambda: rng.randrange(1, p)))
        F = QuarticForm({e: coeff() for e in support}, m)
        if np.linalg.matrix_rank(support) < 3:
            with pytest.raises(ValueError, match="lie on a line"):
                hw_matrix(F)
        else:
            assert hw_matrix(F) == hw_matrix_oracle(F)


def test_coefficient_in_power_off_range_targets_are_zero():
    p = 13
    n = p - 1
    F = QuarticForm({(4, 0, 0): 3, (0, 4, 0): 5, (2, 1, 1): 7}, modulus(p))
    assert coefficient_in_power(F, [(4 * n, 0, 0)]) == [pow(3, n, p)]
    for target in [(4 * n + 4, -4, 0), (4 * n, 4, -4), (-2, 4 * n, 2),
                   (4 * n, 0, 4), (4 * n - 4, 0, 0), (0, 0, 0)]:
        assert coefficient_in_power(F, [target])[0].is_zero()
    Fx = QuarticForm({(4, 0, 0): Fp2Element(1, 1, modulus(p)), (0, 4, 0): 1,
                      (0, 0, 4): 1}, modulus(p))
    [zero] = coefficient_in_power(Fx, [(-4, 4 * n + 4, 0)])
    assert isinstance(zero, Fp2Element) and zero.is_zero()


@pytest.mark.parametrize("p", [37, 101, 311, 997])
def test_hw_matrix_matches_closed_forms_beyond_the_oracle(p):
    m = modulus(p)
    assert hw_matrix(c9_form(m)) == c9_hw(m)
    for r in (FpElement(1, m), FpElement(p // 3, m), Fp2Element(3, 1, m),
              Fp2Element(p - 5, 7, m)):
        assert hw_matrix(c6_form(m, r)) == c6_hw(m, r)


def _swap_xy(F):
    return QuarticForm({(j, i, k): c for (i, j, k), c in F.terms.items()},
                       F.modulus)


CYCLIC5 = {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1, (2, 1, 1): 2, (1, 1, 2): 3}
# every multiplicity is capped near p by the target alone, so only the
# pivot interval of the last free term keeps the rows near p/2, not p^2/4
SQUARES5 = {(0, 2, 2): 1, (1, 1, 2): 2, (2, 0, 2): 3, (2, 1, 1): 4, (2, 2, 0): 5}


@pytest.mark.parametrize("p, terms", [(1009, CYCLIC5), (1321, CYCLIC5),
                                      (2311, SQUARES5)])
def test_swapping_x_and_y_permutes_the_matrix(p, terms):
    # x <-> y swaps the first two basis vectors, so the matrix is
    # conjugated by that permutation; the swapped form sorts its terms,
    # and so picks its pivots, in another order
    F = QuarticForm(terms, modulus(p))
    G = hw_matrix(_swap_xy(F))
    H = hw_matrix(F)
    swap = {1: 2, 2: 1, 3: 3}
    assert all(G[swap[a], swap[b]] == H[a, b]
               for a in (1, 2, 3) for b in (1, 2, 3))
    assert rank3(H) == 3


def test_dense_support_hits_the_capacity_bound():
    F = QuarticForm({e: 1 for e in MONOMIALS}, modulus(211))
    with pytest.raises(CapacityError, match=str(MAX_CANDIDATES)):
        hw_matrix(F)


def test_capacity_boundary_of_the_dense_support():
    # all 15 monomials: one target needs at most 112 851 rows at p = 13
    # and more than MAX_CANDIDATES at p = 17, so p = 13 is computed (the
    # matrix pinned from the per-target enumerator) and p = 17 exits 3
    text = " + ".join(f"{n + 1}*x^{i}*y^{j}*z^{k}"
                      for n, (i, j, k) in enumerate(MONOMIALS))
    F = harness.parse_quartic(text, modulus(13))
    assert hw_matrix(F) == M([[7, 2, 10], [11, 8, 2], [8, 9, 6]], 13)
    assert harness.main(["hw", "--quartic", text, "--p", "17"]) == 3


@pytest.mark.parametrize("field", ("fp", "fp2"))
def test_walk_splits_the_targets_into_groups_under_the_cap(monkeypatch, field):
    """Run splitting at both widths: over F_{p^2} one coefficient is 1 + w.
    The largest level of one target has 984 rows, the nine together 4499."""
    mod = modulus(7)
    terms = {e: n + 1 for n, e in enumerate(MONOMIALS)}
    if field == "fp2":
        terms[MONOMIALS[0]] = Fp2Element(1, 1, mod)
    F = QuarticForm(terms, mod)
    targets = [t for row in hw_targets(7) for t in row]
    sizes = []  # the row count of every level the walk allocates
    branch = hwcore._branch

    def recording(*args):
        row, k = branch(*args)
        sizes.append(len(row))
        return row, k

    monkeypatch.setattr(hwcore, "_branch", recording)
    per_target = []
    for t in targets:
        sizes.clear()
        coefficient_in_power(F, [t])
        per_target.append(max(sizes))
    sizes.clear()
    coefficient_in_power(F, targets)
    cap = max(per_target)
    assert max(sizes) > cap        # the nine targets together exceed it
    monkeypatch.setattr(hwcore, "MAX_CANDIDATES", cap)
    sizes.clear()
    assert hw_matrix(F) == hw_matrix_oracle(F)
    assert max(sizes) <= cap
    monkeypatch.setattr(hwcore, "MAX_CANDIDATES", cap - 1)
    with pytest.raises(CapacityError, match=str(cap - 1)):
        hw_matrix(F)
    with pytest.raises(CapacityError):
        coefficient_in_power(F, [targets[per_target.index(cap)]])


def test_pivots_have_the_least_nonzero_det():
    # terms 0, 1, 2 (the first triple in index order) have |det| 64, terms
    # 0, 1, 3 and 0, 2, 3 have 16, terms 1, 2, 3 have 32
    support = [(0, 0, 4), (0, 4, 0), (4, 0, 0), (1, 1, 2)]
    pivots, det, adj = _pivots(support)
    assert (pivots, det) == ([0, 1, 3], 16)
    assert (np.array(support)[pivots].T @ adj == 16 * np.eye(3)).all()
    # terms on a line: x^3*y, x^2*y^2, x*y^3, and one term
    for line in ([(3, 1, 0), (2, 2, 0), (1, 3, 0)], [(0, 0, 4)], []):
        with pytest.raises(ValueError, match="lie on a line"):
            _pivots(line)


def exhaustive_pivots(exponents):
    """Reference: (pivots, |det|) of every 3 x 3 minor, the least nonzero
    |det| and the first in index order on ties; None on a line."""
    minors = [(abs(round(np.linalg.det([exponents[v] for v in pivots]))),
               list(pivots)) for pivots in combinations(range(len(exponents)), 3)]
    minors = [(pivots, d) for d, pivots in minors if d]
    return min(minors, key=lambda m: m[1]) if minors else None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=9,
                unique=True))
def test_pivots_stop_where_the_exhaustive_scan_ends(support):
    """Stopping at |det| 4 picks the exhaustive scan's minor, and adj
    inverts it up to det; supports on a line come up as well."""
    expected = exhaustive_pivots(support)
    if expected is None:
        with pytest.raises(ValueError, match="lie on a line"):
            _pivots(support)
        return
    pivots, det, adj = _pivots(support)
    assert (pivots, det) == expected
    assert (np.array(support)[pivots].T @ adj == det * np.eye(3)).all()


def test_rank3_and_a_number():
    assert rank3(M([[0] * 3] * 3, 7)) == 0
    assert a_number(M([[0] * 3] * 3, 7)) == 3
    assert rank3(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7)) == 3
    assert a_number(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7)) == 0
    anti = M([[0, 0, 2], [0, 0, 0], [3, 0, 0]], 7)
    assert rank3(anti) == 2
    assert a_number(M([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 7)) == 2  # rank 1
    assert rank3(M([[1, 2, 0], [0, 1, 0], [1, 0, 3]], 5)) == 3


def test_rank3_over_ext_field():
    m = modulus(5)
    w = Fp2Element(0, 1, m)
    zero = Fp2Element(0, 0, m)
    rows = [[w, zero, zero], [zero, w + 1, zero], [w, zero, zero]]
    assert rank3(HWMatrix(rows, m)) == 2


def test_stable_rank():
    assert stable_rank(M([[0] * 3] * 3, 7)) == 0
    assert stable_rank(M([[2, 0, 0], [0, 3, 0], [0, 0, 1]], 7)) == 3
    anti = M([[0, 0, 2], [0, 0, 0], [3, 0, 0]], 7)
    assert stable_rank(anti) == 2 == rank3(anti)
    # unpaired anti-diagonal entry: rank 1 but nilpotent Frobenius
    nil = M([[0, 0, 2], [0, 0, 0], [0, 0, 0]], 7)
    assert rank3(nil) == 1
    assert stable_rank(nil) == 0
    # F_{p^2} entries: M = u v^T with v . u^(p) = 0 but v . u != 0, so
    # M * M^(p) = 0 while M^3 = 4M; only the p-twisted product sees it
    m = modulus(5)
    w = Fp2Element(0, 1, m)  # w^2 = 2, and 3w = w/2
    zero = Fp2Element(0, 0, m)
    one = Fp2Element(1, 0, m)
    twisted = HWMatrix([[one, 3 * w, zero], [w, one, zero],
                        [zero, zero, zero]], m)
    cube = product(product(twisted.entries, twisted.entries), twisted.entries)
    assert rank3(twisted) == rank3(HWMatrix(cube, m)) == 1
    assert stable_rank(twisted) == 0


def test_stable_rank_at_most_rank():
    rng = random.Random(7)
    for p in (5, 11):
        m = modulus(p)
        for _ in range(50):
            A = M([[rng.randrange(p) for _ in range(3)] for _ in range(3)], p)
            assert stable_rank(A) <= rank3(A)
            assert a_number(A) + rank3(A) == 3


def rank_rule_samples(m, width):
    """(name, entries, (rank, p-rank)), built by hand for every reachable
    pair over F_p (width 1) or F_{p^2} (width 2)."""
    if width == 1:
        return [(name, [[FpElement(v, m) for v in row] for row in rows], pair)
                for name, rows, pair in (
            ("zero", [[0, 0, 0]] * 3, (0, 0)),
            ("nilpotent", [[0, 1, 0], [0, 0, 0], [0, 0, 0]], (1, 0)),
            ("projection", [[1, 0, 0], [0, 0, 0], [0, 0, 0]], (1, 1)),
            ("J3", [[0, 1, 0], [0, 0, 1], [0, 0, 0]], (2, 0)),
            ("J2 + (1)", [[0, 1, 0], [0, 0, 0], [0, 0, 1]], (2, 1)),
            # tr N = 0 while tr adj N != 0
            ("diag(1, -1, 0)", [[1, 0, 0], [0, -1, 0], [0, 0, 0]], (2, 2)),
            # tr N = tr adj N = 0 while det N != 0
            ("3-cycle", [[0, 0, 1], [1, 0, 0], [0, 1, 0]], (3, 3)))]
    zero = Fp2Element(0, 0, m)
    w = Fp2Element(0, 1, m)
    v = w / m.nonresidue  # 1/w
    return [(name, [[zero + e for e in row] for row in rows], pair)
            for name, rows, pair in (
        ("zero", [[0, 0, 0]] * 3, (0, 0)),
        # u v^T, u = (1, w, 0), v = (1, 1/w, 0): v.u^(p) = 0, so M M^(p) = 0,
        # though v.u = 2 and M is not nilpotent
        ("twisted nilpotent", [[1, v, 0], [w, 1, 0], [0, 0, 0]], (1, 0)),
        # v = (1, -1/w, 0): M^2 = 0, but v.u^(p) = 2
        ("twisted projection", [[1, -v, 0], [w, -1, 0], [0, 0, 0]], (1, 1)),
        ("w J3", [[0, w, 0], [0, 0, w], [0, 0, 0]], (2, 0)),
        ("twisted nilpotent + (w)", [[1, v, 0], [w, 1, 0], [0, 0, w]], (2, 1)),
        # M M^(p) != M^(p) M
        ("noncommuting", [[w, 1, 0], [1, 0, 0], [0, 0, 0]], (2, 2)),
        ("invertible", [[w, 1, 0], [1, 0, 0], [0, 0, w]], (3, 3)))]


@pytest.mark.parametrize("p", [5, 7, 2 ** 61 - 1])
@pytest.mark.parametrize("width", [1, 2])
def test_rank_rule_on_hand_built_matrices(p, width):
    """Each reachable (rank, p-rank) pair, one matrix at a time and as one
    stack (object dtype at 2^61 - 1), against elimination of M M^(p) M."""
    m = modulus(p)
    samples = rank_rule_samples(m, width)
    assert {pair for _, _, pair in samples} == {
        (r, f) for r in range(4) for f in range(r + 1) if f == 3 or r < 3}
    for name, A, pair in samples:
        H = HWMatrix(A, m)
        assert (rank3(H), stable_rank(H), a_number(H)) == (*pair, 3 - pair[0]), name
        assert (rank_by_elimination(A),
                rank_by_elimination(frobenius_cube(A))) == pair, name
    dtype = np.int64 if p < 2 ** 31 else object
    grid = [[tuple(np.array([components(A[i][j])[c] for _, A, _ in samples], dtype)
                   for c in range(width)) for j in range(3)] for i in range(3)]
    rank, f = hwcore.grid_ranks(grid, m)
    assert list(zip(rank.tolist(), f.tolist())) == [pair for _, _, pair in samples]
    if width == 2:
        A = {name: A for name, A, _ in samples}["noncommuting"]
        Ap = [[e ** p for e in row] for row in A]
        assert product(A, Ap) != product(Ap, A)


#: both sides of the int64 bound 2^31 of the stacks, up to 2^61 - 1
KERNEL_PRIMES = [5, 7, 11, 13, 1009, 2 ** 31 - 1, 2 ** 31 + 11, 2 ** 61 - 1]


@st.composite
def matrix_stacks(draw):
    """(modulus, width, matrices): 1-4 random 3x3 matrices over F_p (width
    1) or F_{p^2} (width 2), each U @ V for random 3 x k and k x 3 factors,
    k = 0..3, with entries often 0, 1 or -1 so that ranks drop."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    m = modulus(p)
    width = draw(st.sampled_from((1, 2)))
    residue = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))

    def element():
        if width == 1:
            return FpElement(draw(residue), m)
        return Fp2Element(draw(residue), draw(residue), m)

    zero = element() * 0
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, 3))
        U = [[element() for _ in range(k)] for _ in range(3)]
        V = [[element() for _ in range(3)] for _ in range(k)]
        mats.append([[sum((U[i][t] * V[t][j] for t in range(k)), start=zero)
                      for j in range(3)] for i in range(3)])
    return m, width, mats


@settings(max_examples=200, deadline=None)
@given(matrix_stacks())
def test_rank_kernel_matches_elimination(case):
    m, width, mats = case
    dtype = np.int64 if m.p < 2 ** 31 else object
    grid = [[tuple(np.array([components(A[i][j])[c] for A in mats], dtype)
                   for c in range(width)) for j in range(3)] for i in range(3)]
    ranks = [rank_by_elimination(A) for A in mats]
    stable = [rank_by_elimination(frobenius_cube(A)) for A in mats]
    rank, f = hwcore.grid_ranks(grid, m)
    assert rank.tolist() == ranks
    assert f.tolist() == stable
    for A, r, f in zip(mats, ranks, stable):
        H = HWMatrix(A, m)
        assert (rank3(H), stable_rank(H), a_number(H)) == (r, f, 3 - r)


def test_one_setup_serves_every_target():
    F = QuarticForm(CYCLIC5, modulus(101))
    targets = [t for row in hw_targets(101) for t in row] + [(-1, 0, 401)]
    assert coefficient_in_power(F, targets) == [
        coefficient_in_power(F, [t])[0] for t in targets]


def test_elliptic_e0_supersingular():
    assert elliptic_e0_supersingular(5) is True
    assert elliptic_e0_supersingular(7) is False
    assert elliptic_e0_supersingular(11) is True
    for p in (13, 17, 19, 23, 29, 31, 37, 41):
        assert elliptic_e0_supersingular(p) == (p % 6 == 5)


def test_quartic_form_takes_ints_and_same_modulus_elements_only():
    m = modulus(11)
    assert QuarticForm({(4, 0, 0): np.int64(16)}, m) == QuarticForm({(4, 0, 0): 5}, m)
    assert QuarticForm({(4, 0, 0): FpElement(5, m)}, m).terms == {(4, 0, 0): 5}
    for foreign in (FpElement(5, modulus(7)), Fp2Element(5, 1, modulus(7))):
        with pytest.raises(ModulusError):
            QuarticForm({(4, 0, 0): foreign}, m)
    with pytest.raises(TypeError):
        QuarticForm({(4, 0, 0): 2.7}, m)
    # exponents likewise: numpy ints read as ints, floats and text refused
    assert QuarticForm({tuple(map(np.int64, (2, 1, 1))): 1}, m).terms == {
        (2, 1, 1): 1}
    for expo in ((2.5, 1, 1), (2.0, 1, 1), ("2", 1, 1)):
        with pytest.raises(TypeError):
            QuarticForm({expo: 1}, m)
