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

hw_matrix extracts the nine coefficients WITHOUT expanding F^{p-1}: the
multinomial exponents k_u of the t terms e_u solve sum k_u * e_u = target
(which forces sum k_u = p - 1) with k_u >= 0.  coefficient_in_power
solves r = rank pivot terms by the adjugate of the r x r minor of least
nonzero |det| and walks the other multiplicities once for all targets:
one numpy pass per free term, each row tagged by its target and held as
(parent, k), the values summed by tag at the end.  MAX_CANDIDATES bounds
the rows of one target at one level; a level over it for all targets
splits into runs of whole targets.  hw_matrix_oracle expands F^{p-1}
outright and is feasible for p <= 31; the two must agree everywhere.

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
from itertools import combinations, product

import numpy as np

from .errors import CapacityError
from .ffield import _as_modulus, as_element, binomial, components, element, mul

BASIS = ((2, 1, 1), (1, 2, 1), (1, 1, 2))

ORACLE_PRIME_BOUND = 31

#: most rows of one target at one level of the lattice walk of
#: coefficient_in_power; dense supports need more and raise CapacityError
MAX_CANDIDATES = 1 << 20


class QuarticForm:
    """Sparse ternary quartic: map from exponent triples (i,j,k) to coefficients.

    Coefficients may be FpElement or Fp2Element values of the same modulus
    or ints (ffield.as_element: reduced mod p, floats rejected); explicitly
    zero coefficients are dropped.
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
            c = as_element(coeff, mod)
            if c.is_zero():
                continue
            if expo in clean:
                raise ValueError(f"duplicate term {expo}")
            clean[expo] = c
        self.terms = clean
        self.modulus = mod

    def uses_ext_field(self) -> bool:
        return any(len(c.comps) == 2 for c in self.terms.values())

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
    """(coords, pivots): an r x r minor of the 3 x t exponent matrix, r its
    rank, with the least nonzero |det|; the first such choice of terms in
    index order on ties.  A smaller det leaves fewer rows to discard.  The
    scan stops at |det| 1, or 4 for r = 3: each exponent column sums to 4."""
    for r, least in ((3, 4), (2, 1), (1, 1)):
        minors = []
        for pivots, coords in product(combinations(range(len(exponents)), r),
                                      combinations(range(3), r)):
            if d := abs(_det([[exponents[v][c] for v in pivots] for c in coords])):
                minors.append((d, list(coords), list(pivots)))
                if d == least:
                    break
        if minors:
            return min(minors, key=lambda m: m[0])[1:]
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


def _term_tables(coeffs, mod, width):
    """Components of c^k / k! for 0 <= k < p, one row per coefficient c;
    the powers by doubling."""
    p = mod.p
    step = tuple(np.array([components(c)[i] for c in coeffs], np.int64)[:, None]
                 for i in range(width))
    tab = (np.ones_like(step[0]), np.zeros_like(step[0]))[:width]
    while tab[0].shape[1] < p:  # step = c^(columns so far)
        tab = tuple(np.concatenate(pair, axis=1)
                    for pair in zip(tab, mul(tab, step, mod)))
        step = mul(step, step, mod)
    return tuple(v[:, :p] * mod.factorials.inv_fact % p for v in tab)


def _branch(lo, counts, start):
    """(row, k): each row index from start on, once per k in [lo, lo + count)."""
    row = np.repeat(np.arange(start, start + len(counts)), counts)
    return row, np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def coefficient_in_power(F: QuarticForm, target):
    """The coefficient of x^i y^j z^k in F^(p-1), without expanding.

    target is a triple, or a list of them (then the result is a list).
    Zero when a target has a negative coordinate or not total degree
    4(p-1).  Raises CapacityError when the rows of one target at one
    level of the walk would outnumber MAX_CANDIDATES.
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
    tab = _term_tables([c for _, c in items], mod, width)
    tgt = np.array(target, np.int64).reshape(-1, 3)
    tgt[tgt.sum(axis=1) != 4 * (p - 1)] = -1    # no solution, no rows
    sums = np.zeros((width, len(tgt)), np.int64)

    def finish(rem, e, a, b, row, k, chain):
        """Add each solution among the last rows (row, k) to the sum of
        its tag.  The pivots det * k_v = a - k*b are >= 0 by the interval
        and divisible by det on these rows; when r < 3 they must also
        match rem off the minor."""
        # the multiplicity of the i-th pivot term, on the rows kept so far
        pivot = lambda i: (a[row, i] - k * b[i]) // det
        if r < 3:
            keep = np.all([sum(pivot(i) * E[c, v] for i, v in enumerate(pivots))
                           + k * e[c] == rem[row, c] for c in range(3)], axis=0)
            row, k = row[keep], k[keep]
        val = (np.full(len(row), mod.factorials.fact[p - 1]),
               np.zeros(len(row), np.int64))[:width]
        for i, u in enumerate(pivots + free[-1:]):  # one column at a time
            m = pivot(i) if i < r else k
            val = mul(val, tuple(t[u, m] for t in tab), mod)
        for (parent, k), u in zip(reversed(chain), reversed(free[:-1])):
            val = mul(val, tuple(t[u, k[row]] for t in tab), mod)
            row = parent[row]
        # row is now the tag of each solution, in nondecreasing order
        edges = np.searchsorted(row, np.arange(len(tgt) + 1))
        for s, v in zip(sums, val):
            s += np.diff(np.concatenate(([0], np.cumsum(v)))[edges])

    def walk(rem, bounds, chain):
        """Branch the rows rem, the target left after the free terms of
        chain (tag i owns rows bounds[i]:bounds[i + 1]), on the next free
        term, in runs of whole tags of at most MAX_CANDIDATES rows."""
        last = len(chain) >= len(free) - 1
        e = E[:, free[len(chain)]] if free else np.zeros(3, np.int64)
        # rem sums to 4 times the degree left, so this also caps k by it;
        # with no free term at all, k = 0
        hi = np.min([rem[:, c] // e[c] for c in range(3) if e[c]]
                    or [0 * rem[:, 0]], axis=0)
        lo = np.zeros_like(hi)
        if last:
            # det * (pivot multiplicities) = a - k*b must stay >= 0
            a = rem[:, coords] @ adj.T
            b = adj @ e[coords]
            for ai, bi in zip(a.T, b):
                if bi > 0:
                    hi = np.minimum(hi, ai // bi)
                elif bi < 0:
                    lo = np.maximum(lo, -(ai // -bi))
                else:
                    hi = np.where(ai < 0, -1, hi)
        counts = np.maximum(hi - lo + 1, 0)
        cut = np.concatenate(([0], np.cumsum(counts)))[bounds]
        most = np.diff(cut).max(initial=0)
        if most > MAX_CANDIDATES:
            raise CapacityError(f"coefficient extraction needs {most} rows for one "
                                f"target, more than MAX_CANDIDATES = {MAX_CANDIDATES}")
        t0 = 0
        for t1 in range(1, len(cut)):
            if t1 + 1 < len(cut) and cut[t1 + 1] - cut[t0] <= MAX_CANDIDATES:
                continue
            s = slice(bounds[t0], bounds[t1])
            row, k = _branch(lo[s], counts[s], s.start)
            if last and det > 1:
                # keep the rows whose pivots det divides; dropping the rest
                # here, not in finish, frees them before the values are built
                keep = np.all([(ai[row] - k * bi) % det == 0
                               for ai, bi in zip(a.T, b)], axis=0)
                row, k = row[keep], k[keep]
            if last:
                finish(rem, e, a, b, row, k, chain)
            else:
                walk(rem[row] - np.outer(k, e), cut[t0:t1 + 1] - cut[t0],
                     chain + [(row, k)])
            t0 = t1

    walk(tgt, np.arange(len(tgt) + 1), [])
    values = [element(c, mod) for c in zip(*(sums % p).tolist())]
    return values[0] if np.ndim(target) == 1 else values


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
    width = max(len(e.comps) for row in M.entries for e in row)
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
