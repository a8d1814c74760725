"""The two one-dimensional quartic families with large cyclic symmetry.

* C6 family:  x^3 z + y^4 + r y^2 z^2 + z^4 = 0, nonsingular iff r != 2, -2,
  automorphism group cyclic of order 6 iff additionally r != 0.
* C9 curve:   x^3 y + y^3 z + z^4 = 0, automorphism group cyclic of order 9.

Both fill the 3x3 grid of exponent targets that hwcore.hw_targets fixes.
For C6 each target reduces to a single binomial split: the x-exponent
pins the multiplicity of the x^3*z term, and what remains is the y^m
coefficient of (y^4 + r y^2 + 1)^s (coeff_of_power), a polynomial in r.
So the C6 closed form is a 3x3 grid of polynomials in r, a list of rows
indexed like hw_targets (c6_coeff_polys), and c6_stack evaluates it by
unipoly.horner at r given as a component tuple: ints for one matrix
(c6_hw, c6_classify) or int arrays for a stack (c6_classify_all).
c6_count_max_a builds only the root-locus entry and certifies it
separable by its Gegenbauer equation, in O(p), no gcd.
For C9 each target is hit by at most one multinomial term.

Classification is one path for both: rank and p-rank of every matrix
from one hwcore.grid_ranks call, then _lookup in TABLE_C6 or TABLE_C9,
both keyed (p mod n, a-number) and holding a Classification checked
once, at import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .ffield import (FpElement, _as_modulus, as_element, binomial, element,
                     multinomial)
from .hwcore import HWMatrix, QuarticForm, _grid, grid_ranks, hw_targets
from .unipoly import UniPoly, horner

# Newton polygon tags (formal sums of slope pairs) and Ekedahl-Oort
# triples are literal theory data, never derived here.
NP_ORDINARY = "3(1,0)+3(0,1)"
NP_RANK1 = "(1,0)+2(1,1)+(0,1)"
NP_RANK2 = "2(1,0)+(1,1)+2(0,1)"
NP_SUPERSINGULAR = "3(1,1)"
NP_C9_MIXED = "(2,1)+(1,2)"


@dataclass(frozen=True)
class Classification:
    """Full invariant set of a genus-3 Jacobian at p."""

    a_number: int
    p_rank: int
    newton_polygon: str
    eo_type: tuple

    def __post_init__(self):
        phi = (0,) + self.eo_type
        if len(phi) != 4:
            raise IntegrityError(f"EO type {self.eo_type} must have length 3")
        for i in range(1, 4):
            if not phi[i - 1] <= phi[i] <= phi[i - 1] + 1:
                raise IntegrityError(f"EO type {self.eo_type} is not admissible")
        if self.a_number != 3 - phi[3]:
            raise IntegrityError(
                f"a-number {self.a_number} inconsistent with EO type {self.eo_type}")
        f = 0
        while f < 3 and phi[f + 1] == f + 1:
            f += 1
        if self.p_rank != f:
            raise IntegrityError(
                f"p-rank {self.p_rank} inconsistent with EO type {self.eo_type}")


#: (p mod 6, a-number) -> Classification for the C6 family
TABLE_C6 = {
    (1, 0): Classification(0, 3, NP_ORDINARY, (1, 2, 3)),
    (1, 2): Classification(2, 1, NP_RANK1, (1, 1, 1)),
    (5, 1): Classification(1, 2, NP_RANK2, (1, 2, 2)),
    (5, 3): Classification(3, 0, NP_SUPERSINGULAR, (0, 0, 0)),
}

#: p mod 6 -> the (row, col) entry whose roots are the maximal-a parameters
LOCUS_SLOT = {1: (1, 1), 5: (3, 1)}

#: (p mod 9, a-number) -> Classification for the C9 curve
TABLE_C9 = {
    (1, 0): Classification(0, 3, NP_ORDINARY, (1, 2, 3)),
    (2, 1): Classification(1, 0, NP_SUPERSINGULAR, (0, 1, 2)),
    (4, 2): Classification(2, 0, NP_C9_MIXED, (0, 1, 1)),
    (5, 1): Classification(1, 0, NP_SUPERSINGULAR, (0, 1, 2)),
    (7, 2): Classification(2, 0, NP_C9_MIXED, (0, 1, 1)),
    (8, 3): Classification(3, 0, NP_SUPERSINGULAR, (0, 0, 0)),
}


def c6_form(mod, r) -> QuarticForm:
    """The quartic x^3 z + y^4 + r y^2 z^2 + z^4 over F_p (or F_{p^2})."""
    mod = _as_modulus(mod)
    return QuarticForm({(3, 0, 1): 1, (0, 4, 0): 1, (0, 2, 2): r, (0, 0, 4): 1},
                       mod)


def c9_form(mod) -> QuarticForm:
    """The quartic x^3 y + y^3 z + z^4 over F_p."""
    mod = _as_modulus(mod)
    return QuarticForm({(3, 1, 0): 1, (0, 3, 1): 1, (0, 0, 4): 1}, mod)


def coeff_of_power(s: int, m: int, mod) -> UniPoly:
    """[y^m] (y^4 + r y^2 + 1)^s as a polynomial in r.

    multinomial(s; a, b, s-a-b) at r^b over 4a + 2b = m, all at once as
    s!/(a! b! c!) gathered from the factorial table.  Odd m gives the
    zero polynomial.
    """
    mod = _as_modulus(mod)
    if not 0 <= s <= mod.p - 1:
        raise ValueError(f"exponent {s} outside [0, p-1]")
    if m < 0:
        raise ValueError(f"negative monomial degree {m}")
    if m % 2:
        return UniPoly.zero(mod)
    p, t = mod.p, mod.factorials
    a = np.arange(min(s, m // 4) + 1)
    b = (m - 4 * a) // 2
    c = s - a - b
    a, b, c = a[c >= 0], b[c >= 0], c[c >= 0]
    coeffs = np.zeros(min(m // 2, s) + 1, np.int64)
    coeffs[b] = t.fact[s] * t.inv_fact[a] % p * t.inv_fact[b] % p * t.inv_fact[c] % p
    return UniPoly._reduced(coeffs.tolist(), mod)


def c6_entry_poly(mod, row: int, col: int) -> UniPoly:
    """Entry (row, col) of the C6 Hasse-Witt matrix as a polynomial in r.

    The x^3*z term must be used exactly i/3 times, so the entry is
    binom(p-1, i/3) * [y^j](y^4 + r y^2 + 1)^(p-1-i/3); slots whose
    x-exponent is not a multiple of 3, or whose y-exponent is odd, come
    out identically zero.
    """
    mod = _as_modulus(mod)
    p = mod.p
    if not (0 < row < 4 and 0 < col < 4):  # a list index would wrap
        raise IndexError(f"entry ({row}, {col}) outside rows and columns 1..3")
    i, j, _ = hw_targets(p)[row - 1][col - 1]
    if i % 3:
        return UniPoly.zero(mod)
    return coeff_of_power(p - 1 - i // 3, j, mod).scale(binomial(p - 1, i // 3, mod))


def c6_coeff_polys(mod) -> list:
    """The C6 Hasse-Witt matrix at p as a 3x3 grid of polynomials in r:
    entry [a][b] is c6_entry_poly(mod, a + 1, b + 1).  Only (1,3) and
    (3,1) are nonzero for p = 5 mod 6, only the diagonal for p = 1 mod 6."""
    mod = _as_modulus(mod)
    return [[c6_entry_poly(mod, row, col) for col in (1, 2, 3)]
            for row in (1, 2, 3)]


def _reject_singular(mod, r):
    """The parameter r != +-2 as a component tuple: (a,) for r in F_p (an
    int or FpElement), (a, b) for an Fp2Element r = a + b*w."""
    p = mod.p
    r = as_element(r, mod).comps
    if r[0] in (2, p - 2) and not any(r[1:]):
        raise ValueError("r = 2 or -2 gives a singular quartic")
    return r


def c6_hw(mod, r) -> HWMatrix:
    """Hasse-Witt matrix of C_r: c6_stack at the one parameter r."""
    mod = _as_modulus(mod)
    r = _reject_singular(mod, r)
    grid = c6_stack(c6_coeff_polys(mod), r)
    return HWMatrix([[element(v, mod) for v in row] for row in grid], mod)


def c6_stack(grid, r):
    """The C6 Hasse-Witt matrices at r, a component tuple of ints (one
    matrix) or int arrays (a stack), from the c6_coeff_polys grid: a grid
    of component tuples."""
    mod = grid[0][0].modulus
    return [[horner(poly.coeffs if len(r) == 1 else [(c, 0) for c in poly.coeffs],
                    r, mod) for poly in row] for row in grid]


def _lookup(table, n, p, rank, f):
    """The Classification of each matrix of rank rank and p-rank f (int
    arrays of a stack, or ints), after checking every pair that occurs
    (a = 3 - rank and f in 0..3, so 4a + f tells them apart) against
    table, keyed by (p mod n, a-number)."""
    a, f = np.ravel(3 - rank), np.ravel(f)
    found = {}
    for key in np.flatnonzero(np.bincount(4 * a + f)).tolist():
        av, fv = divmod(key, 4)
        cls = table.get((p % n, av))
        if cls is None:
            raise IntegrityError(
                f"a-number {av} not admissible for p = {p % n} mod {n}")
        if fv != cls.p_rank:
            raise IntegrityError(f"computed p-rank {fv} disagrees with the "
                                 f"table value {cls.p_rank}")
        found[av] = cls
    return [found[av] for av in a.tolist()]


def c6_classify(mod, r) -> Classification:
    """a-number and p-rank from the matrix; NP and EO from the lookup table."""
    mod = _as_modulus(mod)
    r = _reject_singular(mod, r)
    if not any(r):
        raise ValueError("r = 0 has automorphism group of order 48, not 6")
    return c6_classify_all(mod, r)[0]


def c6_classify_all(mod, r) -> list:
    """c6_classify at each parameter of the component tuple r (ints, or
    int arrays for a batch; r != 0, +-2), from one stack."""
    mod = _as_modulus(mod)
    rank, f = grid_ranks(c6_stack(c6_coeff_polys(mod), r), mod)
    return _lookup(TABLE_C6, 6, mod.p, rank, f)


def c6_count_max_a(mod) -> int:
    """Number of isomorphism classes of C_r (r != 0, 2, -2) attaining the
    maximal a-number (3 for p = 5 mod 6, 2 for p = 1 mod 6).

    The count is the degree of the root locus minus its root at 0, halved
    (r and -r give isomorphic curves).  Up to sign the locus is the
    Gegenbauer polynomial P(r) = [u^n](1 + r u + u^2)^s = C_n^(-s)(-r/2),
    so 4(k+1)(k+2) a_{k+2} = (k-n)(k+n-2s) a_k (Szego, Orthogonal
    Polynomials, 4.7), checked here in one pass over its gathered
    coefficients.  With deg P < p, Igusa's Taylor argument (PNAS 44,
    1958) makes P separable away from +-2, and P(+-2) = +-binom(2s, n)
    with n <= 2s < p.  A failed check is an implementation bug.
    """
    mod = _as_modulus(mod)
    p = mod.p
    row, col = LOCUS_SLOT[p % 6]
    i, j, _ = hw_targets(p)[row - 1][col - 1]
    s, n = p - 1 - i // 3, j // 2
    locus = c6_entry_poly(mod, row, col)
    a = np.array(locus.coeffs + (0, 0), np.int64)
    k = np.arange(len(a) - 2)
    bad = np.flatnonzero(4 * (k + 1) * (k + 2) % p * a[2:] % p
                         != (k - n) * (k + n - 2 * s) % p * a[:-2] % p)
    if bad.size:
        raise IntegrityError(f"root locus unexpectedly inseparable at p={p}: "
                             f"Gegenbauer equation fails at r^{bad[0]}")
    if locus.degree >= p:
        raise IntegrityError(f"root locus degree {locus.degree} >= p={p}")
    if any(locus.eval(r).is_zero() for r in (2, p - 2)):
        raise IntegrityError(f"root locus vanishes at r = +-2 at p={p}")
    d = locus.degree - (not locus.coeffs[0])
    if d % 2:
        raise IntegrityError(
            f"root count {d} away from excluded parameters is odd at p={p}")
    return d // 2


def _c9_solve_slot(p: int, target):
    """Multinomial exponents (a, b, c) hitting the exponent target (i, j, k),
    if integral.

    x^(3a) y^(a+3b) z^(b+4c) = x^i y^j z^k with a + b + c = p - 1.
    """
    i, j, k = target
    if i % 3:
        return None
    a = i // 3
    if (j - a) % 3:
        return None
    b = (j - a) // 3
    c = p - 1 - a - b
    if b < 0 or c < 0 or b + 4 * c != k:
        return None
    return a, b, c


def c9_hw(mod) -> HWMatrix:
    """Hasse-Witt matrix of x^3 y + y^3 z + z^4, assembled slot by slot.

    A slot is nonzero exactly when its exponent system has an integral
    solution (a, b, c), and then holds multinomial(p-1; a, b, c).
    """
    mod = _as_modulus(mod)
    p = mod.p

    def entry(target):
        abc = _c9_solve_slot(p, target)
        return FpElement(0, mod) if abc is None else multinomial(p - 1, abc, mod)

    return HWMatrix([[entry(t) for t in row] for row in hw_targets(p)], mod)


def c9_classify(mod) -> Classification:
    """a-number and p-rank from the matrix; NP and EO from the lookup table."""
    mod = _as_modulus(mod)
    rank, f = grid_ranks(_grid(c9_hw(mod)), mod)
    return _lookup(TABLE_C9, 9, mod.p, rank, f)[0]
