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
solves three pivot terms by the integer adjugate of the 3 x 3 minor of
least nonzero |det| and walks the other multiplicities once for all
targets: one numpy pass per free term, each row tagged by its target and
held as (parent, k), the values summed by tag at the end.  Exponents on a
line raise ValueError: a smooth quartic has a term x_i^4 or x_i^3 x_j for
each i, three independent vectors.  MAX_CANDIDATES bounds the rows of one
target at one level; a level over it for all targets splits into runs of
whole targets.  hw_matrix_oracle expands F^{p-1} outright and is feasible
for p <= 31; the two must agree on every form the walk takes.

Ranks come from one kernel, grid_ranks, on a 3x3 grid of component
tuples, (a,) over F_p or (a, b) for a + b*w, each an int (one matrix) or
an array (a stack): int64 while p < 2^31, where every residue product
fits, object dtype above.  It returns rank and p-rank together; rank3,
stable_rank and a_number take one of them for one HWMatrix.
rank M = [M != 0] + [adj M != 0] + [det M != 0], exact as the
conditions are nested.  The p-rank, the stable rank of N = M M^(p)
(M^(p) the conjugate (a, -b); N = M over F_p), is by Fitting's lemma 3 -
ord_t of t^3 - e1 t^2 + e2 t - e3, e1 = tr N, e2 = tr adj N, e3 = det N;
over F_{p^2} e1, e2 are sum A_ij conj(A_ji) for A = M, adj M and e3 is
the norm of det M, so no 3x3 product is formed.  Products are ffield.mul.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import CapacityError
from .ffield import _as_modulus, as_element, components, element, mul

BASIS = ((2, 1, 1), (1, 2, 1), (1, 1, 2))

ORACLE_PRIME_BOUND = 31

#: most rows of one target at one level of the lattice walk of
#: coefficient_in_power; dense supports need more and raise CapacityError
MAX_CANDIDATES = 1 << 20


class QuarticForm:
    """Sparse ternary quartic: map from exponent triples (i,j,k) to coefficients.

    Exponents are ints (operator.index) and coefficients FpElement or
    Fp2Element values of the same modulus or ints (ffield.as_element:
    reduced mod p); floats are rejected.  Zero coefficients are dropped.
    """

    __slots__ = ("terms", "modulus")

    def __init__(self, terms, mod):
        mod = _as_modulus(mod)
        clean = {}
        for expo, coeff in dict(terms).items():
            expo = tuple(map(operator.index, expo))
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
        if not (0 < r < 4 and 0 < c < 4):  # a list index would wrap
            raise IndexError(f"entry {rc} outside rows and columns 1..3")
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


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _pivots(exps):
    """(pivots, det, adj): the first three terms in index order whose
    exponent vectors b0, b1, b2 have the least nonzero |det|, det =
    b0 . (b1 x b2) made positive, and adj, with B @ adj = det * I for B =
    [b0 b1 b2].  A smaller det leaves fewer rows to discard; each vector
    sums to 4, so 4 divides det and the scan stops at 4."""
    best = None
    for pivots in combinations(range(len(exps)), 3):
        b0, b1, b2 = (exps[v] for v in pivots)
        det = sum(map(operator.mul, b0, _cross(b1, b2)))
        if det and (best is None or abs(det) < abs(best[1])):
            best = list(pivots), det
            if abs(det) == 4:
                break
    if best is None:
        raise ValueError("the exponents lie on a line, so the quartic is singular")
    pivots, det = best
    b0, b1, b2 = (exps[v] for v in pivots)
    adj = [_cross(b1, b2), _cross(b2, b0), _cross(b0, b1)]
    return pivots, abs(det), np.sign(det) * np.array(adj, np.int64)


def _sub(x, y, p):
    return ((x[0] - y[0]) % p,) if len(x) == 1 else ((x[0] - y[0]) % p, (x[1] - y[1]) % p)


def _dot(xs, ys, mod):
    """sum x*y over pairs of component tuples."""
    return tuple(sum(c) % mod.p for c in zip(*map(mul, xs, ys, [mod] * len(xs))))


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
    4(p-1).  Raises ValueError for exponents on a line (_pivots), and
    CapacityError past MAX_CANDIDATES rows of one target at one level.
    """
    mod = F.modulus
    p = mod.p
    items = sorted(F.terms.items())
    width = 2 if F.uses_ext_field() else 1
    exps = [e for e, _ in items]
    pivots, det, adj = _pivots(exps)
    free = [u for u in range(len(exps)) if u not in pivots]
    tab = _term_tables([c for _, c in items], mod, width)
    tgt = np.array(target, np.int64).reshape(-1, 3)
    tgt[tgt.sum(axis=1) != 4 * (p - 1)] = -1    # no solution, no rows
    sums = np.zeros((width, len(tgt)), np.int64)

    def finish(a, b, row, k, chain):
        """Add each solution among the last rows (row, k) to the sum of
        its tag.  The pivots det * k_v = a - k*b are >= 0 by the interval
        and divisible by det on these rows."""
        val = (np.full(len(row), mod.factorials.fact[p - 1]),
               np.zeros(len(row), np.int64))[:width]
        for i, u in enumerate(pivots + free[-1:]):  # one column at a time
            m = (a[row, i] - k * b[i]) // det if i < 3 else k
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
        e = np.array(exps[free[len(chain)]] if free else (0, 0, 0), np.int64)
        # rem sums to 4 times the degree left, so this also caps k by it;
        # with no free term at all, k = 0
        hi = np.min([rem[:, c] // e[c] for c in range(3) if e[c]]
                    or [0 * rem[:, 0]], axis=0)
        lo = np.zeros_like(hi)
        if last:
            # det * (pivot multiplicities) = a - k*b must stay >= 0
            a = rem @ adj.T
            b = adj @ e
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
            if last:
                # keep the rows whose pivots det divides; dropping the rest
                # here, not in finish, frees them before the values are built
                keep = np.all([(ai[row] - k * bi) % det == 0
                               for ai, bi in zip(a.T, b)], axis=0)
                row, k = row[keep], k[keep]
                finish(a, b, row, k, chain)
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


def grid_ranks(M, mod):
    """(rank, p-rank) of each matrix of the grid M, from one cofactor pass."""
    p = mod.p
    # cof[i][j]: the cofactor of entry (i, j), its sign from the cyclic order
    cof = [[_sub(mul(M[i - 2][j - 2], M[i - 1][j - 1], mod),
                 mul(M[i - 2][j - 1], M[i - 1][j - 2], mod), p)
            for j in range(3)] for i in range(3)]
    det = _dot(M[0], cof[0], mod)
    if len(M[0][0]) == 1:
        traces = [(sum(A[i][i][0] for i in range(3)) % p,) for A in (M, cof)]
    else:
        traces = [_dot(sum(A, []), [e[:1] + (-e[1] % p,) for col in zip(*A)
                                    for e in col], mod) for A in (M, cof)]
    z1, z2, z3 = (1 - _nonzero([e]) for e in traces + [det])  # [e_k == 0]
    return (_nonzero(sum(M, [])) + _nonzero(sum(cof, [])) + _nonzero([det]),
            3 - z3 * (1 + z2 * (1 + z1)))


def rank3(M: HWMatrix) -> int:
    """Rank over the coefficient field; grid_ranks on one matrix."""
    return grid_ranks(_grid(M), M.modulus)[0]


def stable_rank(M: HWMatrix) -> int:
    """The p-rank, the stable rank of Frobenius: 3 - ord_t of det(t - N) for
    N = M * M^(p), M^(p) the entries to the p-th power (grid_ranks)."""
    return grid_ranks(_grid(M), M.modulus)[1]


def a_number(M: HWMatrix) -> int:
    """g - rank(H) for g = 3; the value 3 means superspecial."""
    return 3 - rank3(M)
