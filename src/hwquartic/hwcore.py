"""Hasse-Witt matrices of plane quartics over F_p.

The matrix of the p-power Frobenius on H^1(C, O_C), in the ordered basis

    1/(x^2 y z),  1/(x y^2 z),  1/(x y z^2),

consists of nine specific coefficients of F^{p-1}: the entry in row a,
column b is the coefficient of the monomial with exponent vector
p*beta_b - beta_a, where beta_1 = (2,1,1), beta_2 = (1,2,1),
beta_3 = (1,1,2).  hw_targets(p) is the one place that states this rule:
hw_matrix, hw_matrix_oracle and the closed forms of the C6/C9 families
all fill its 3x3 grid.  The orientation is pinned by the expansion
oracle in the test suite; do not transpose it.

hw_matrix extracts a target coefficient WITHOUT expanding F^{p-1}: the
multinomial exponents k_u of the t terms e_u solve sum k_u * e_u = target
(which forces sum k_u = p - 1) with k_u >= 0.  coefficient_in_power
solves r = rank pivot terms exactly by an integer adjugate and enumerates
the other multiplicities as numpy rows, about p^(t-3) of them, up to
MAX_CANDIDATES.  hw_matrix_oracle expands F^{p-1} outright and is
feasible for p <= 31; the two must agree everywhere.

Ranks come from one kernel on a 3x3 grid of component tuples, (a,) over
F_p or (a, b) for a + b*w, each an int (one matrix) or an array (a
stack): int64 while p < 2^31, where every residue product fits, object
dtype above.  rank M = [M != 0] + [adj M != 0] + [det M != 0], exact as
the conditions are nested; M^(p) is the conjugate (a, -b) of M.  Its
products, and those of the extractor's term tables, are ffield.mul.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import CapacityError, ModulusError
from .ffield import (Fp2Element, FpElement, _as_modulus, binomial,
                     components, element, mul)

BASIS = ((2, 1, 1), (1, 2, 1), (1, 1, 2))

ORACLE_PRIME_BOUND = 31

#: most candidate rows the lattice enumerator of coefficient_in_power may
#: hold; dense supports need more and raise CapacityError instead
MAX_CANDIDATES = 1 << 20


class QuarticForm:
    """Sparse ternary quartic: map from exponent triples (i,j,k) to coefficients.

    Coefficients may be FpElement or Fp2Element values (or ints, reduced
    mod p); explicitly zero coefficients are dropped.
    """

    __slots__ = ("terms", "modulus")

    def __init__(self, terms, mod):
        mod = _as_modulus(mod)
        clean = {}
        for expo, coeff in dict(terms).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != 3 or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent triple {expo}")
            if sum(expo) != 4:
                raise ValueError(f"term {expo} has degree {sum(expo)}, want 4")
            if isinstance(coeff, Fp2Element):
                if coeff.modulus.p != mod.p:
                    raise ModulusError("coefficient modulus mismatch")
                if coeff.is_zero():
                    continue
                c = coeff
            else:
                v = int(coeff) % mod.p
                if v == 0:
                    continue
                c = FpElement(v, mod)
            if expo in clean:
                raise ValueError(f"duplicate term {expo}")
            clean[expo] = c
        self.terms = clean
        self.modulus = mod

    def uses_ext_field(self) -> bool:
        return any(isinstance(c, Fp2Element) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, QuarticForm):
            return NotImplemented
        return self.modulus.p == other.modulus.p and self.terms == other.terms

    def __repr__(self):
        def mono(expo):
            out = []
            for v, e in zip("xyz", expo):
                if e == 1:
                    out.append(v)
                elif e > 1:
                    out.append(f"{v}^{e}")
            return "*".join(out)

        parts = [f"{c}*{mono(e)}" for e, c in sorted(self.terms.items(), reverse=True)]
        return " + ".join(parts) + f"  (mod {self.modulus.p})"


class HWMatrix:
    """3x3 matrix of field elements in the fixed cohomology basis."""

    __slots__ = ("entries", "modulus")

    def __init__(self, entries, mod):
        self.modulus = _as_modulus(mod)
        rows = [list(r) for r in entries]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 entry array")
        self.entries = rows

    def __getitem__(self, rc):
        """entry((row, col)), 1-indexed to match the written matrix."""
        r, c = rc
        return self.entries[r - 1][c - 1]

    def __eq__(self, other):
        if not isinstance(other, HWMatrix):
            return NotImplemented
        return (self.modulus.p == other.modulus.p
                and all(self.entries[i][j] == other.entries[i][j]
                        for i in range(3) for j in range(3)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        rows = ["[" + ", ".join(str(e) for e in row) + "]" for row in self.entries]
        return "HWMatrix(" + "; ".join(rows) + f", p={self.modulus.p})"


def _det(m):
    """Determinant of a small square integer matrix, by cofactor expansion."""
    if len(m) < 2:
        return m[0][0] if m else 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _pivot_minor(exponents):
    """(coords, pivots): a nonzero r x r minor of the 3 x t exponent matrix,
    r its rank; the first such choice of terms in index order."""
    for r in (3, 2, 1):
        for pivots in combinations(range(len(exponents)), r):
            for coords in combinations(range(3), r):
                if _det([[exponents[v][c] for v in pivots] for c in coords]):
                    return list(coords), list(pivots)
    return [], []


def _sub(x, y, p):
    if len(x) == 1:
        return ((x[0] - y[0]) % p,)
    return (x[0] - y[0]) % p, (x[1] - y[1]) % p


def _dot(xs, ys, mod):
    """sum x*y over three pairs of component tuples."""
    p = mod.p
    a, b, c = map(mul, xs, ys, (mod,) * 3)
    if len(a) == 1:
        return ((a[0] + b[0] + c[0]) % p,)
    return (a[0] + b[0] + c[0]) % p, (a[1] + b[1] + c[1]) % p


def _term_tables(coeffs, length, mod, width):
    """Components of c^k / k! for 0 <= k < length, one row per coefficient
    c; the powers by doubling."""
    p = mod.p
    step = tuple(np.array(v, np.int64)[:, None]
                 for v in zip(*map(components, coeffs)))[:width]
    tab = (np.ones_like(step[0]), np.zeros_like(step[0]))[:width]
    while tab[0].shape[1] < length:  # step = c^(columns so far)
        tab = tuple(np.concatenate(pair, axis=1)
                    for pair in zip(tab, mul(tab, step, mod)))
        step = mul(step, step, mod)
    inverses = np.array(mod.factorials.inverses[:length], np.int64)
    return tuple(v[:, :length] * inverses % p for v in tab)


def _branch(lo, hi):
    """(row, k): every row index once per multiplicity k in [lo, hi]."""
    counts = np.maximum(hi - lo + 1, 0)
    total = int(counts.sum())
    if total > MAX_CANDIDATES:
        raise CapacityError(
            f"coefficient extraction needs {total} candidate rows, "
            f"more than MAX_CANDIDATES = {MAX_CANDIDATES}")
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(total) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def coefficient_in_power(F: QuarticForm, target):
    """The coefficient of x^i y^j z^k in F^(p-1), without expanding.

    target is a triple, or a list of them (then the result is a list, and
    the setup that depends on F alone is made once).  Zero when a target
    has a negative coordinate or not total degree 4(p-1).  Raises
    CapacityError when the enumeration would hold more than
    MAX_CANDIDATES rows.
    """
    mod = F.modulus
    p = mod.p
    items = sorted(F.terms.items())
    width = 2 if F.uses_ext_field() else 1
    exps = [e for e, _ in items]
    E = np.array(exps, np.int64).reshape(-1, 3).T      # 3 x t
    coords, pivots = _pivot_minor(exps)
    free = [u for u in range(len(exps)) if u not in pivots]
    B = [[exps[v][c] for v in pivots] for c in coords]
    r = len(B)
    det = _det(B)
    sign = 1 if det > 0 else -1
    det *= sign
    # sign * adjugate of B, so that B @ adj = det * I with det > 0
    adj = np.array([[sign * (-1) ** (i + j) * _det(
        [row[:i] + row[i + 1:] for m, row in enumerate(B) if m != j])
        for j in range(r)] for i in range(r)], np.int64).reshape(r, r)

    def solutions(tgt):  # rows of free, then pivot multiplicities
        if min(tgt) < 0 or sum(tgt) != 4 * (p - 1):
            return np.zeros((0, len(exps)), np.int64)
        ks = np.zeros((1, 0), np.int64)      # multiplicities of the free terms
        rem = np.array([tgt], np.int64)      # the part of the target left
        for u in free:
            e = exps[u]
            # rem sums to 4 times the degree left, so this also caps k by it
            hi = np.min([rem[:, c] // e[c] for c in range(3) if e[c]], axis=0)
            lo = np.zeros_like(hi)
            if u == free[-1]:
                # det * (pivot multiplicities) = a - k*b must stay >= 0
                a = rem[:, coords] @ adj.T
                b = adj @ E[coords, u]
                for ai, bi in zip(a.T, b):
                    if bi > 0:
                        hi = np.minimum(hi, ai // bi)
                    elif bi < 0:
                        lo = np.maximum(lo, -(ai // -bi))
                    else:
                        hi = np.where(ai < 0, -1, hi)
            row, k = _branch(lo, hi)
            ks = np.column_stack((ks[row], k))
            rem = rem[row] - np.outer(k, e)
        num = rem[:, coords] @ adj.T         # det * (pivot multiplicities)
        keep = ((num % det == 0).all(axis=1) & (num >= 0).all(axis=1)
                & (num @ E[:, pivots].T == det * rem).all(axis=1))
        return np.column_stack((ks[keep], num[keep] // det))

    tab = (np.zeros((len(items), 0), np.int64),) * width

    def value(ks):
        nonlocal tab
        if ks.max(initial=-1) >= tab[0].shape[1]:  # grow the tables
            tab = _term_tables([c for _, c in items],
                               min(2 * int(ks.max()) + 2, p), mod, width)
        val = (np.full(len(ks), mod.factorials.values[p - 1]),
               np.zeros(len(ks), np.int64))[:width]
        for col, u in enumerate(free + pivots):
            val = mul(val, tuple(t[u, ks[:, col]] for t in tab), mod)
        return element([int(v.sum() % p) for v in val], mod)

    if np.ndim(target) == 1:
        return value(solutions(target))
    return [value(solutions(t)) for t in target]


def hw_targets(p):
    """The exponent targets p*beta_b - beta_a of the nine entries, as a
    3x3 grid: row a, column b (0-indexed)."""
    return [[(p * b0 - a0, p * b1 - a1, p * b2 - a2) for b0, b1, b2 in BASIS]
            for a0, a1, a2 in BASIS]


def hw_matrix(F: QuarticForm) -> HWMatrix:
    """Hasse-Witt matrix via constrained coefficient extraction."""
    values = coefficient_in_power(
        F, [t for row in hw_targets(F.modulus.p) for t in row])
    return HWMatrix([values[k:k + 3] for k in (0, 3, 6)], F.modulus)


def hw_matrix_oracle(F: QuarticForm) -> HWMatrix:
    """Hasse-Witt matrix by full expansion of F^(p-1) (p <= 31 only)."""
    mod = F.modulus
    p = mod.p
    if p > ORACLE_PRIME_BOUND:
        raise CapacityError(
            f"oracle expansion needs p <= {ORACLE_PRIME_BOUND}, got {p}")
    ext = F.uses_ext_field()
    s = mod.nonresidue if ext else 0
    base = {e: components(c) for e, c in F.terms.items()}
    acc = {(0, 0, 0): (1, 0)}
    for _ in range(p - 1):
        nxt = {}
        for ea, (a0, a1) in acc.items():
            for eb, (b0, b1) in base.items():
                key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c0, c1 = nxt.get(key, (0, 0))
                nxt[key] = ((c0 + a0 * b0 + s * a1 * b1) % p,
                            (c1 + a0 * b1 + a1 * b0) % p)
        acc = {k: v for k, v in nxt.items() if v != (0, 0)}

    return HWMatrix([[element(acc.get(t, (0, 0))[:1 + ext], mod) for t in row]
                     for row in hw_targets(p)], mod)


def _grid(M: HWMatrix):
    """The component grid of M: (a,) entries, or (a, b) if any entry lies
    in F_{p^2}."""
    width = 1 + any(isinstance(e, Fp2Element) for row in M.entries for e in row)
    return [[components(e)[:width] for e in row] for row in M.entries]


def _nonzero(entries):
    """Whether any of the component tuples is nonzero, per matrix."""
    return 1 * reduce(operator.or_, (c != 0 for e in entries for c in e))


def grid_rank(M, mod):
    """Rank of each matrix of the grid M, as
    [M != 0] + [adj M != 0] + [det M != 0]."""
    # cof[i][j]: the cofactor of entry (i, j), its sign from the cyclic order
    cof = [[_sub(mul(M[i - 2][j - 2], M[i - 1][j - 1], mod),
                 mul(M[i - 2][j - 1], M[i - 1][j - 2], mod), mod.p)
            for j in range(3)] for i in range(3)]
    return (_nonzero(sum(M, [])) + _nonzero(sum(cof, []))
            + _nonzero([_dot(M[0], cof[0], mod)]))


def grid_stable_rank(M, mod):
    """Rank of each M * M^(p) * M of the grid M, M^(p) its conjugate."""
    conj = [[e[:1] + tuple(-b % mod.p for b in e[1:]) for e in row] for row in M]
    for B in (conj, M):
        M = [[_dot(row, col, mod) for col in zip(*B)] for row in M]
    return grid_rank(M, mod)


def rank3(M: HWMatrix) -> int:
    """Rank over the coefficient field; grid_rank on one matrix."""
    return grid_rank(_grid(M), M.modulus)


def stable_rank(M: HWMatrix) -> int:
    """Rank of M * M^(p) * M^(p^2); equals the p-rank for genus 3.

    M^(q) raises entries to the q-th power (the matrix of the iterated
    p-linear Frobenius).  Entries lie in F_{p^2}, so M^(p^2) = M and M^(p)
    is the conjugate (a, -b) of M (M itself over F_p).  grid_stable_rank
    on one matrix: the rank rule on int components (on a stack, int64
    arrays while p < 2^31, object dtype above).
    """
    return grid_stable_rank(_grid(M), M.modulus)


def a_number(M: HWMatrix) -> int:
    """g - rank(H) for g = 3; the value 3 means superspecial."""
    return 3 - rank3(M)


def elliptic_e0_supersingular(mod) -> bool:
    """Supersingularity of Y^2 = X^3 + 1: the x^(p-1) coefficient of
    (x^3+1)^((p-1)/2) vanishes mod p."""
    mod = _as_modulus(mod)
    p = mod.p
    if (p - 1) % 3:
        return True
    return binomial((p - 1) // 2, (p - 1) // 3, mod).is_zero()
