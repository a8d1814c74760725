"""Hasse-Witt matrices of plane quartics over F_p.

The matrix of the p-power Frobenius on H^1(C, O_C), in the ordered basis

    1/(x^2 y z),  1/(x y^2 z),  1/(x y z^2),

consists of nine specific coefficients of F^{p-1}: the entry in row a,
column b is the coefficient of the monomial with exponent vector
p*beta_b - beta_a, where beta_1 = (2,1,1), beta_2 = (1,2,1),
beta_3 = (1,1,2).  This orientation is pinned by the expansion oracle in
the test suite; do not transpose it.

hw_matrix extracts a target coefficient WITHOUT expanding F^{p-1}: for a
t-term form, the multinomial exponents (k_1, ..., k_t) of contributing
terms solve the integer system

    sum k_u = p - 1,    sum k_u * e_u = target   (componentwise),

and the solver enumerates only the free parameters of that system
(interval pruning collapses the search to a point or a short segment for
the sparse forms that occur here).  hw_matrix_oracle expands F^{p-1}
outright and is feasible for p <= 31; the two must agree everywhere.
"""

from __future__ import annotations

from .errors import CapacityError, ModulusError
from .ffield import Fp2Element, FpElement, _as_modulus, binomial

BASIS = ((2, 1, 1), (1, 2, 1), (1, 1, 2))

ORACLE_PRIME_BOUND = 31


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

    def power_entrywise(self, q: int) -> "HWMatrix":
        return HWMatrix([[e ** q for e in row] for row in self.entries], self.modulus)

    def __mul__(self, other: "HWMatrix") -> "HWMatrix":
        a, b = self.entries, other.entries
        out = [[sum((a[i][k] * b[k][j] for k in range(3)),
                    start=FpElement(0, self.modulus)) for j in range(3)]
               for i in range(3)]
        return HWMatrix(out, self.modulus)

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


def _solution_interval(term, others, target, n):
    """[lo, hi] for the multiplicity of `term` given the remaining terms.

    For each coordinate c the remaining n-k parts contribute between
    (n-k)*m_c and (n-k)*M_c, which bounds k; an empty and cheap reject
    happens here rather than deep in the recursion.
    """
    lo, hi = 0, n
    for c in range(3):
        e = term[c]
        t = target[c]
        if others:
            mc = min(o[c] for o in others)
            Mc = max(o[c] for o in others)
        else:
            mc = Mc = 0
        # t - k*e <= (n-k)*Mc
        d = e - Mc
        num = t - n * Mc
        if d > 0:
            lo = max(lo, -(-num // d))
        elif d < 0:
            hi = min(hi, num // d)
        elif num > 0:
            return 1, 0
        # t - k*e >= (n-k)*mc
        d = e - mc
        num = t - n * mc
        if d > 0:
            hi = min(hi, num // d)
        elif d < 0:
            lo = max(lo, -(-num // d))
        elif num < 0:
            return 1, 0
    return lo, hi


def _solve_pair(ta, tb, target, n):
    """Exact multiplicities for the final two distinct terms, if any."""
    for c in range(3):
        if ta[c] != tb[c]:
            num = target[c] - n * tb[c]
            den = ta[c] - tb[c]
            if num % den:
                return None
            ka = num // den
            break
    kb = n - ka
    if ka < 0 or kb < 0:
        return None
    for c in range(3):
        if ka * ta[c] + kb * tb[c] != target[c]:
            return None
    return ka, kb


def _enumerate_compositions(exponents, target, n):
    """Yield all (k_1, ..., k_t) >= 0 with sum n and sum k_u * e_u = target.

    Adaptive order: at each level the term with the tightest feasible
    interval is branched on, so uniquely-determined multiplicities (for
    instance a variable appearing in a single term) cost nothing.
    """
    t = len(exponents)
    if t == 0:
        if n == 0 and target == (0, 0, 0):
            yield ()
        return
    if t == 1:
        e = exponents[0]
        if all(n * e[c] == target[c] for c in range(3)):
            yield (n,)
        return
    if t == 2:
        got = _solve_pair(exponents[0], exponents[1], target, n)
        if got is not None:
            yield got
        return
    # pick the branch variable with the narrowest interval
    best = None
    for u, term in enumerate(exponents):
        others = exponents[:u] + exponents[u + 1:]
        lo, hi = _solution_interval(term, others, target, n)
        if hi < lo:
            return
        if best is None or hi - lo < best[0]:
            best = (hi - lo, u, lo, hi, others)
    _, u, lo, hi, others = best
    term = exponents[u]
    for k in range(lo, hi + 1):
        rest = (target[0] - k * term[0], target[1] - k * term[1],
                target[2] - k * term[2])
        if rest[0] < 0 or rest[1] < 0 or rest[2] < 0:
            continue
        for sub in _enumerate_compositions(others, rest, n - k):
            yield sub[:u] + (k,) + sub[u:]


def coefficient_in_power(F: QuarticForm, target) -> "FpElement | Fp2Element":
    """The coefficient of x^i y^j z^k in F^(p-1), without expanding."""
    mod = F.modulus
    p = mod.p
    n = p - 1
    items = sorted(F.terms.items())
    exponents = [e for e, _ in items]
    coeffs = [c for _, c in items]
    tab = mod.factorials
    ext = F.uses_ext_field()
    acc_a = 0
    acc_b = 0
    target = tuple(int(v) for v in target)
    for ks in _enumerate_compositions(exponents, target, n):
        m = tab.values[n]
        for k in ks:
            m = m * tab.inverses[k] % p
        if ext:
            val = Fp2Element(m, 0, mod)
            for c, k in zip(coeffs, ks):
                if k:
                    val = val * (c ** k)
            acc_a = (acc_a + val.a) % p
            acc_b = (acc_b + val.b) % p
        else:
            for c, k in zip(coeffs, ks):
                if k:
                    m = m * pow(c.value, k, p) % p
            acc_a = (acc_a + m) % p
    if ext:
        return Fp2Element(acc_a, acc_b, mod)
    return FpElement(acc_a, mod)


def _targets(p):
    return [[tuple(p * BASIS[b][t] - BASIS[a][t] for t in range(3))
             for b in range(3)] for a in range(3)]


def hw_matrix(F: QuarticForm) -> HWMatrix:
    """Hasse-Witt matrix via constrained coefficient extraction."""
    tg = _targets(F.modulus.p)
    return HWMatrix([[coefficient_in_power(F, tg[a][b]) for b in range(3)]
                     for a in range(3)], F.modulus)


def hw_matrix_oracle(F: QuarticForm) -> HWMatrix:
    """Hasse-Witt matrix by full expansion of F^(p-1) (p <= 31 only)."""
    mod = F.modulus
    p = mod.p
    if p > ORACLE_PRIME_BOUND:
        raise CapacityError(
            f"oracle expansion needs p <= {ORACLE_PRIME_BOUND}, got {p}")
    ext = F.uses_ext_field()

    def as_pair(c):
        return (c.a, c.b) if isinstance(c, Fp2Element) else (c.value, 0)

    s = mod.nonresidue if ext else 0
    base = {e: as_pair(c) for e, c in F.terms.items()}
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

    def fetch(tgt):
        v = acc.get(tgt, (0, 0))
        if ext:
            return Fp2Element(v[0], v[1], mod)
        return FpElement(v[0], mod)

    tg = _targets(p)
    return HWMatrix([[fetch(tg[a][b]) for b in range(3)] for a in range(3)], mod)


def rank3(M: HWMatrix) -> int:
    """Rank over the coefficient field by Gaussian elimination."""
    rows = [list(r) for r in M.entries]
    rank = 0
    for col in range(3):
        pivot = None
        for r in range(rank, 3):
            if not rows[r][col].is_zero():
                pivot = r
                break
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


def stable_rank(M: HWMatrix) -> int:
    """Rank of M * M^(p) * M^(p^2); equals the p-rank for genus 3.

    M^(q) raises entries to the q-th power (the matrix of the iterated
    p-linear Frobenius).  Entries lie in F_{p^2}, so M^(p^2) = M.
    """
    return rank3(M * M.power_entrywise(M.modulus.p) * M)


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
