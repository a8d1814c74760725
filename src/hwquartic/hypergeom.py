"""Truncated Gauss hypergeometric series mod p and the identities they satisfy.

G(a,b,c;t) = sum_n (a;n)(b;n) / ((c;n)(1;n)) t^n with the rising
Pochhammer product (x;n) = x(x+1)...(x+n-1).  A parameter is an int, a
same-modulus element or a (num, den) tuple for a rational; each is
reduced to its F_p residue before use, so e.g. the parameter written
(2p+7)/6 is passed as (7, 6).  Read in [1, p], a residue x gives
(x;n) = (x+n-1)!/(x-1)!, or 0 once x+n-1 >= p, so a series row is one
gather from the factorial table.  Truncations stay below the first
vanishing denominator factor; hitting one raises PoleError since the
parameter choices used here never do.  The Gauss-lemma check runs at
every r at once on component arrays (ffield.mul/power, unipoly.horner).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ModulusError, PoleError
from .families import c6_entry_poly
from .ffield import (FpElement, _as_modulus, as_element, binomial, components,
                     mul, power)
from .unipoly import UniPoly, ext2_root_counts, horner


def _residue(x, mod) -> int:
    """The residue mod p of a series parameter: a (num, den) tuple of ints
    for num/den, or a field value by ffield.as_element."""
    if not isinstance(x, tuple):
        return int(as_element(x, mod))
    num, den = map(operator.index, x)
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    g = gcd(num, den)
    num, den = num // g, den // g
    if den % mod.p == 0:
        raise ModulusError(f"denominator {den} vanishes mod {mod.p}")
    return num * pow(den, -1, mod.p) % mod.p


def _rising(x1: int, n, mod):
    """(x;n) = (x+n-1)!/(x-1)! mod p for x read in [1, p], x1 = x - 1, at n
    an int or an int array; 0 once x+n-1 >= p, where a factor is p."""
    p, t = mod.p, mod.factorials
    return np.where(x1 + n < p, t.fact[np.minimum(x1 + n, p - 1)] * t.inv_fact[x1] % p, 0)


def gauss_truncated(a, b, c, d: int, mod) -> UniPoly:
    """Truncation of G(a,b,c;t) mod p to degree d.

    Every term (a;n) (b;n) / ((c;n) n!) at once, as factorial ratios.  A
    vanishing denominator factor (c;n), n <= d, is a pole: with c read in
    [1, p], c + d - 1 >= p raises PoleError before any work.
    """
    mod = _as_modulus(mod)
    if d < 0:
        raise ValueError(f"negative truncation degree {d}")
    p, t = mod.p, mod.factorials
    a1, b1, c1 = ((_residue(x, mod) - 1) % p for x in (a, b, c))
    if c1 + d >= p:
        shown = "/".join(map(str, c)) if isinstance(c, tuple) else (c1 + 1) % p
        raise PoleError(f"(c;{p - c1}) vanishes mod {p} for c = {shown}: "
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


def verify_euler(mod) -> bool:
    """Truncated Euler transformation for the parameters in play:

    G^((p-1)/2)(1/3, 1/2, (2p+7)/6; t)
        = (1-t)^((p+1)/3) * G^((p-5)/6)(5/6, 2/3, (2p+7)/6; t)

    as polynomials mod p, for p = 5 mod 6; (1-t)^e is G(-e, 1, 1; t)
    truncated to degree e.
    """
    mod = _require_residue_5_mod_6(mod)
    p = mod.p
    e = (p + 1) // 3
    lhs = gauss_truncated((1, 3), (1, 2), (7, 6), (p - 1) // 2, mod)
    g2 = gauss_truncated((5, 6), (2, 3), (7, 6), (p - 5) // 6, mod)
    rhs = gauss_truncated(-e, 1, 1, e, mod) * g2
    return lhs == rhs


def verify_gauss_lemma(mod) -> bool:
    """The two series-vs-coefficient congruences behind the divisibility
    argument, checked pointwise at every r in F_p away from 2 and -2:

    sign * binom((2p-1)/3, (p+1)/6) * beta^((p-1)/2)
        * G^((p-1)/2)(1/3, 1/2, (2p+7)/6; alpha/beta)  =  c1(r)
    sign * binom((p-2)/3, (p+1)/6) * beta^((p-5)/6)
        * G^((p-5)/6)(5/6, 2/3, (2p+7)/6; alpha/beta)  =  c2(r)

    where alpha, beta = (r +- sqrt(r^2 - 4))/2 in F_{p^2} are the roots of
    Y^2 - r Y + 1, i.e. y^4 + r y^2 + 1 = (y^2 + alpha)(y^2 + beta).  So
    alpha*beta = 1: the (alpha*beta)^(-(p+1)/6) factor is 1, and t =
    alpha/beta = alpha^2.  Pointwise evaluation at all p - 2 parameters is
    a complete identity test: both sides are polynomial of degree < p in
    r.  Everything is computed at every r at once, on component arrays;
    the square roots come from one table of squares, with sqrt(v) =
    w*sqrt(v/s) for a non-residue v.

    c1 and c2 are the (1,3) and (3,1) entries of the C6 matrix
    (c6_entry_poly), each binom(p-1, k) = (-1)^k times the y-coefficient
    of (y^4 + r y^2 + 1)^(p-1-k) that its series reproduces.  The two
    slots' k, (p-2)/3 and (2p-1)/3, differ by (p+1)/3, an even number, so
    one sign = (-1)^((p-2)/3) serves both.
    """
    mod = _require_residue_5_mod_6(mod)
    p = mod.p
    g1 = gauss_truncated((1, 3), (1, 2), (7, 6), (p - 1) // 2, mod)
    g2 = gauss_truncated((5, 6), (2, 3), (7, 6), (p - 5) // 6, mod)
    sign = -1 if (p - 2) // 3 % 2 else 1
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
    for n, e, g, f in (((2 * p - 1) // 3, (p - 1) // 2, g1, c6_entry_poly(mod, 1, 3)),
                       ((p - 2) // 3, (p - 5) // 6, g2, c6_entry_poly(mod, 3, 1))):
        factor = mul(components(binomial(n, (p + 1) // 6, mod) * sign),
                     power(beta, e, mod), mod)
        va, vb = mul(factor, horner([(k, 0) for k in g.coeffs], t, mod), mod)
        if vb.any() or not np.array_equal(va, horner(f.coeffs, (r,), mod)[0]):
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
    g = gauss_truncated((5, 6), (2, 3), (7, 6), (p - 5) // 6, mod)
    found, squares = ext2_root_counts(g)
    return ExpectationReport(p=p, all_square=squares == found, found=found,
                             degree=g.degree, missing=g.degree - found)
