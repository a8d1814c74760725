"""Truncated Gauss hypergeometric series mod p and the identities they satisfy.

G(a,b,c;t) = sum_n (a;n)(b;n) / ((c;n)(1;n)) t^n with the rising
Pochhammer product (x;n) = x(x+1)...(x+n-1).  Rational parameters are
reduced to F_p residues before use, so e.g. the parameter written
(2p+7)/6 is handled as 7/6 mod p.  Read in [1, p], a residue x gives
(x;n) = (x+n-1)!/(x-1)!, or 0 once x+n-1 >= p, so a series row is one
gather from the factorial table.  Truncations stay below the first
vanishing denominator factor; hitting one raises PoleError since the
parameter choices used here never do.  The Gauss-lemma check runs at
every r at once on component arrays (ffield.mul/power, unipoly.horner).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ModulusError, PoleError
from .families import c6_coeff_polys
from .ffield import (FpElement, _as_modulus, as_element, binomial, components,
                     mul, power)
from .unipoly import UniPoly, ext2_root_counts, horner


@dataclass(frozen=True)
class RationalParam:
    """A rational hypergeometric parameter num/den in lowest terms."""

    num: int
    den: int = 1

    def __post_init__(self):
        if self.den == 0:
            raise ZeroDivisionError("zero denominator")
        g = gcd(self.num, self.den)
        sign = -1 if self.den < 0 else 1
        object.__setattr__(self, "num", sign * self.num // g)
        object.__setattr__(self, "den", sign * self.den // g)

    def residue(self, mod) -> FpElement:
        mod = _as_modulus(mod)
        if self.den % mod.p == 0:
            raise ModulusError(
                f"denominator {self.den} vanishes mod {mod.p}")
        return FpElement(self.num, mod) / self.den

    def __repr__(self):
        return f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"


def _as_param(x, mod) -> RationalParam:
    """x as a RationalParam: a (num, den) tuple, or by ffield.as_element."""
    if isinstance(x, RationalParam):
        return x
    if isinstance(x, tuple):
        return RationalParam(*x)
    return RationalParam(int(as_element(x, mod)))


def _rising(x1: int, n, mod):
    """(x;n) = (x+n-1)!/(x-1)! mod p for x read in [1, p], x1 = x - 1, at n
    an int or an int array; 0 once x+n-1 >= p, where a factor is p."""
    p, t = mod.p, mod.factorials
    return np.where(x1 + n < p, t.fact[np.minimum(x1 + n, p - 1)] * t.inv_fact[x1] % p, 0)


def pochhammer(x, n: int, mod) -> FpElement:
    """(x; n) = x (x+1) ... (x+n-1) mod p (empty product for n = 0)."""
    mod = _as_modulus(mod)
    if n < 0:
        raise ValueError(f"negative Pochhammer length {n}")
    x1 = (_as_param(x, mod).residue(mod).value - 1) % mod.p
    return FpElement(_rising(x1, n, mod), mod)


def gauss_truncated(a, b, c, d: int, mod) -> UniPoly:
    """Truncation of G(a,b,c;t) mod p to degree d.

    Every term (a;n) (b;n) / ((c;n) n!) at once, as factorial ratios.  A
    vanishing denominator factor (c;n), n <= d, is a pole: with c read in
    [1, p], c + d - 1 >= p raises PoleError before any work.
    """
    mod = _as_modulus(mod)
    if d < 0:
        raise ValueError(f"negative truncation degree {d}")
    a, b, c = (_as_param(x, mod) for x in (a, b, c))
    p, t = mod.p, mod.factorials
    a1, b1, c1 = ((x.residue(mod).value - 1) % p for x in (a, b, c))
    if c1 + d >= p:
        raise PoleError(f"(c;{p - c1}) vanishes mod {p} for c = {c}: "
                        "series truncation too deep")
    n = np.arange(d + 1)
    coeffs = (_rising(a1, n, mod) * _rising(b1, n, mod) % p * t.fact[c1] % p
              * t.inv_fact[c1 + n] % p * t.inv_fact[n] % p)
    return UniPoly._reduced(coeffs.tolist(), mod)


def _require_residue_5_mod_6(mod):
    mod = _as_modulus(mod)
    if mod.p % 6 != 5:
        raise ModulusError(f"p = {mod.p} is not 5 mod 6")
    return mod


def one_minus_t_power(e: int, mod) -> UniPoly:
    """(1 - t)^e as a polynomial, 0 <= e < p: the row (-1)^k e!/(k!(e-k)!)."""
    mod = _as_modulus(mod)
    p, t = mod.p, mod.factorials
    if not 0 <= e < p:
        raise ValueError(f"(1 - t)^e needs 0 <= e < p = {p}, got e = {e}")
    k = np.arange(e + 1)
    row = t.fact[e] * t.inv_fact[k] % p * t.inv_fact[e - k] % p
    row[1::2] = p - row[1::2]
    return UniPoly._reduced(row.tolist(), mod)


def verify_euler(mod) -> bool:
    """Truncated Euler transformation for the parameters in play:

    G^((p-1)/2)(1/3, 1/2, (2p+7)/6; t)
        = (1-t)^((p+1)/3) * G^((p-5)/6)(5/6, 2/3, (2p+7)/6; t)

    as polynomials mod p, for p = 5 mod 6.
    """
    mod = _require_residue_5_mod_6(mod)
    p = mod.p
    c = RationalParam(7, 6)
    lhs = gauss_truncated((1, 3), (1, 2), c, (p - 1) // 2, mod)
    g2 = gauss_truncated((5, 6), (2, 3), c, (p - 5) // 6, mod)
    rhs = one_minus_t_power((p + 1) // 3, mod) * g2
    return lhs == rhs


def verify_gauss_lemma(mod) -> bool:
    """The two series-vs-coefficient congruences behind the divisibility
    argument, checked pointwise at every r in F_p away from 2 and -2:

    binom((2p-1)/3, (p+1)/6) * beta^((p-1)/2)
        * G^((p-1)/2)(1/3, 1/2, (2p+7)/6; alpha/beta)  =  d1(r)
    binom((p-2)/3, (p+1)/6) * beta^((p-5)/6)
        * G^((p-5)/6)(5/6, 2/3, (2p+7)/6; alpha/beta)  =  d2(r)

    where alpha, beta = (r +- sqrt(r^2 - 4))/2 in F_{p^2} are the roots of
    Y^2 - r Y + 1, i.e. y^4 + r y^2 + 1 = (y^2 + alpha)(y^2 + beta).  So
    alpha*beta = 1: the (alpha*beta)^(-(p+1)/6) factor is 1, and t =
    alpha/beta = alpha^2.  Pointwise evaluation at all p - 2 parameters is
    a complete identity test: both sides are polynomial of degree < p in
    r.  Everything is computed at every r at once, on component arrays;
    the square roots come from one table of squares, with sqrt(v) =
    w*sqrt(v/s) for a non-residue v.
    """
    mod = _require_residue_5_mod_6(mod)
    p = mod.p
    c = RationalParam(7, 6)
    g1 = gauss_truncated((1, 3), (1, 2), c, (p - 1) // 2, mod)
    g2 = gauss_truncated((5, 6), (2, 3), c, (p - 5) // 6, mod)
    polys = c6_coeff_polys(mod)
    r = np.array([rv for rv in range(p) if rv not in (2, p - 2)], np.int64)
    x = np.arange((p + 1) // 2, dtype=np.int64)
    root = np.full(p, -1, np.int64)  # root[x^2] = x, -1 at the non-residues
    root[x * x % p] = x
    # exactly one of v = r^2 - 4 (!= 0) and v/s is a square; the other's -1
    # clips to the 0 component
    v = (r * r - 4) % p
    s_inv = pow(mod.nonresidue, p - 2, p)
    sq = np.maximum(root[v], 0), np.maximum(root[v * s_inv % p], 0)
    half = (p + 1) // 2  # 1/2 mod p
    alpha = (r + sq[0]) * half % p, sq[1] * half % p
    beta = (r - sq[0]) * half % p, -sq[1] * half % p
    t = mul(alpha, alpha, mod)
    for n, e, g, d in (((2 * p - 1) // 3, (p - 1) // 2, g1, polys.d1),
                       ((p - 2) // 3, (p - 5) // 6, g2, polys.d2)):
        factor = mul(components(binomial(n, (p + 1) // 6, mod)), power(beta, e, mod), mod)
        va, vb = mul(factor, horner([(k, 0) for k in g.coeffs], t, mod), mod)
        if vb.any() or not np.array_equal(va, horner(d.coeffs, (r,), mod)[0]):
            return False
    return True


@dataclass(frozen=True)
class ExpectationReport:
    """Roots of G^((p-5)/6)(5/6, 2/3, (2p+7)/6; t) inside F_{p^2}.

    found counts the distinct roots in F_{p^2}, all_square says whether
    each is a square in F_{p^2}^x, and missing = degree - found counts
    the rest (outside F_{p^2} or repeated; 0 means g splits there).
    """

    p: int
    all_square: bool
    found: int
    degree: int
    missing: int


def expectation_check(mod) -> ExpectationReport:
    """Re-verification of the superspecial-parameter rationality expectation.

    For p = 5 mod 6, p >= 17: count the roots of the degree-(p-5)/6
    truncated series g in F_{p^2}, and the squares among them (g(0) = 1),
    by one powmod.  This op reports; the statement remains a conjecture
    and nothing here asserts it.
    """
    mod = _require_residue_5_mod_6(mod)
    p = mod.p
    if p < 17:
        raise ValueError(
            f"p = {p} < 17: the truncated series has no admissible roots")
    c = RationalParam(7, 6)
    g = gauss_truncated((5, 6), (2, 3), c, (p - 5) // 6, mod)
    found, squares = ext2_root_counts(g)
    return ExpectationReport(p=p, all_square=squares == found, found=found,
                             degree=g.degree, missing=g.degree - found)
