"""Exact arithmetic in F_p and F_{p^2} for a prime p >= 5.

F_{p^2} is realized as F_p[w] with w^2 = s, where s is the smallest
positive quadratic non-residue mod p.  Fixing s this way keeps the
representation deterministic across runs, so elements can be printed,
parsed and compared reproducibly.

The field operations are written once, on component tuples: (a,) over
F_p or (a, b) for a + b*w, of ints or int64 arrays.  mul is the one
F_{p^2} product and power its square-and-multiply; vectorized code calls
them directly.  FpElement and Fp2Element are the width-1 and width-2
cases of one element class, whose operators run mul, power and the
componentwise sum on x.comps, the tuple at the element's own width.
Other modules convert through one pair: components(x) = (a, b), padded
to width 2, and element(c, mod) back; as_element(x, mod) is the input
rule for values handed in (an int or an element of the same modulus).
FactorialTable holds n! and 1/n! mod p as int64 arrays to gather rows
from; the inverses need no second pass, by Wilson's reflection
n! (p-1-n)! = (-1)^(n+1) mod p.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import CapacityError, ModulusError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: largest p with factorial tables: two int64 arrays of p entries (16 MiB
#: at the bound; int64 gathers need p < 2^31)
MAX_TABLE_PRIME = 2 ** 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3 * 10^24)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FactorialTable:
    """fact[n] = n! and inv_fact[n] = 1/n! mod p, 0 <= n < p, as int64
    arrays (values and inverses as lists).  n! by prefix products over
    runs of about sqrt(p/16) factors, one numpy pass per place in a run,
    then a carry per run.  CapacityError, before any allocation, when
    p > MAX_TABLE_PRIME."""

    def __init__(self, p: int):
        if p > MAX_TABLE_PRIME:
            raise CapacityError(f"factorial tables mod p need p <= "
                                f"{MAX_TABLE_PRIME}, got {p}")
        w = int((p / 16) ** 0.5) + 1
        t = np.ones(-(-p // w) * w, np.int64)
        t[1:p] = np.arange(1, p)
        t = t.reshape(-1, w)
        for j in range(1, w):
            t[:, j] = t[:, j] * t[:, j - 1] % p
        carry = accumulate(t[:-1, -1].tolist(), lambda x, y: x * y % p, initial=1)
        self.p = p
        self.fact = (t * np.fromiter(carry, np.int64, len(t))[:, None] % p).ravel()[:p]
        # 1/n! = (-1)^(n+1) (p-1-n)!: negate the even slots of the reversal
        self.inv_fact = self.fact[::-1].copy()
        self.inv_fact[0::2] = p - self.inv_fact[0::2]

    values = property(lambda self: self.fact.tolist())
    inverses = property(lambda self: self.inv_fact.tolist())


class PrimeModulus:
    """A prime p >= 5 together with per-prime cached data.

    Instances compare equal by p, so independently constructed moduli
    interoperate; use :func:`modulus` to share the cached tables.
    """

    __slots__ = ("p", "_factorials", "_nonresidue")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise ModulusError(f"modulus {p!r} is not a prime")
        if p < 5:
            raise ModulusError(f"modulus {p} is too small (need p >= 5)")
        self.p = p
        self._factorials = None
        self._nonresidue = None

    @property
    def factorials(self) -> FactorialTable:
        if self._factorials is None:
            self._factorials = FactorialTable(self.p)
        return self._factorials

    @property
    def nonresidue(self) -> int:
        """Smallest positive quadratic non-residue mod p (the s with w^2 = s)."""
        if self._nonresidue is None:
            p = self.p
            for s in range(2, p):
                if pow(s, (p - 1) // 2, p) == p - 1:
                    self._nonresidue = s
                    break
        return self._nonresidue

    def __eq__(self, other):
        return isinstance(other, PrimeModulus) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"PrimeModulus({self.p})"


@lru_cache(maxsize=None)
def modulus(p: int) -> PrimeModulus:
    """Shared PrimeModulus instance for p (factorial tables built once)."""
    return PrimeModulus(p)


def _as_modulus(mod) -> PrimeModulus:
    if isinstance(mod, PrimeModulus):
        return mod
    return modulus(mod)


def binomial(n: int, k: int, mod) -> "FpElement":
    """C(n, k) mod p for 0 <= n < p.

    n >= p is rejected on purpose: every binomial arising here has top
    index below p, so a reduction via Lucas' theorem would only mask an
    index computation bug.
    """
    mod = _as_modulus(mod)
    if n < 0 or n >= mod.p:
        raise ValueError(f"binomial top index {n} outside [0, p) for p={mod.p}")
    if k < 0:
        raise ValueError(f"binomial lower index {k} is negative")
    if k > n:
        return FpElement(0, mod)
    t = mod.factorials
    return FpElement(int(t.fact[n] * t.inv_fact[k] % mod.p * t.inv_fact[n - k] % mod.p), mod)


def multinomial(n: int, parts, mod) -> "FpElement":
    """n! / prod(parts_i!) mod p, with sum(parts) == n and n < p."""
    mod = _as_modulus(mod)
    if n < 0 or n >= mod.p:
        raise ValueError(f"multinomial top index {n} outside [0, p) for p={mod.p}")
    if any(k < 0 for k in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts sum {sum(parts)} != {n}")
    t = mod.factorials
    out = int(t.fact[n])
    for k in parts:
        out = out * int(t.inv_fact[k]) % mod.p
    return FpElement(out, mod)


def mul(x, y, mod):
    """x*y on component tuples: (a,) over F_p, (a, b) for a + b*w, w^2 = s.

    Components are ints or int64 arrays (which broadcast); int64 holds
    every intermediate while p < 2^31."""
    p = mod.p
    if len(x) == 1:
        return (x[0] * y[0] % p,)
    (xa, xb), (ya, yb) = x, y
    return (xa * ya + mod.nonresidue * (xb * yb % p)) % p, (xa * yb + xb * ya) % p


def power(x, e: int, mod):
    """x^e (e >= 0) on a component tuple, by square-and-multiply."""
    out = (1, 0)[:len(x)]
    while e:
        if e & 1:
            out = mul(out, x, mod)
        e >>= 1
        if e:
            x = mul(x, x, mod)
    return out


def _inverse(c, mod):
    """1/c on an int component tuple: conj(c) / (c * conj(c)), where conj,
    the Frobenius a + b*w -> a - b*w, is the identity on F_p, so the
    denominator lies in F_p."""
    p = mod.p
    conj = c[:1] + tuple(-v % p for v in c[1:])
    n = mul(c, conj, mod)[0]
    if n == 0:
        where = f"mod {p}" if len(c) == 1 else f"in F_{p}^2"
        raise ZeroDivisionError(f"0 has no inverse {where}")
    n = pow(n, p - 2, p)
    return tuple(v * n % p for v in conj)


def _binary(op):
    """The method x.op(other) from op(x, y, mod) on component tuples of
    x's width; the result has x's class, whose constructor reduces it."""

    def method(self, other):
        y = self._other(other)
        if y is None:
            return NotImplemented
        return type(self)(*op(self.comps, y, self.modulus), self.modulus)

    return method


class _Element:
    """The field operations, written once on comps, the component tuple
    at the element's own width: (value,) for an FpElement, (a, b) for an
    Fp2Element.

    An operator runs at self's width, so the wider operand's class runs
    it: an int or FpElement operand of an Fp2Element is widened with
    b = 0, and an FpElement leaves an Fp2Element operand to that
    element's reflected operator.  Immutable; all arithmetic exact.
    """

    __slots__ = ("comps", "modulus")

    def _other(self, other):
        """other's components at self's width; None for an operand that is
        neither an int nor an element, or is a wider element."""
        width = len(self.comps)
        if isinstance(other, int):
            return (other % self.modulus.p, 0)[:width]
        if not isinstance(other, _Element) or len(other.comps) > width:
            return None
        if other.modulus.p != self.modulus.p:
            raise ModulusError(
                f"mixed moduli {self.modulus.p} and {other.modulus.p}")
        return (other.comps + (0,))[:width]

    __add__ = __radd__ = _binary(lambda x, y, mod: map(operator.add, x, y))
    __sub__ = _binary(lambda x, y, mod: map(operator.sub, x, y))
    __rsub__ = _binary(lambda x, y, mod: map(operator.sub, y, x))
    __mul__ = __rmul__ = _binary(mul)
    __truediv__ = _binary(lambda x, y, mod: mul(x, _inverse(y, mod), mod))
    __rtruediv__ = _binary(lambda x, y, mod: mul(y, _inverse(x, mod), mod))

    def __neg__(self):
        return type(self)(*map(operator.neg, self.comps), self.modulus)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return type(self)(*power(self.comps, e, self.modulus), self.modulus)

    def inverse(self):
        return type(self)(*_inverse(self.comps, self.modulus), self.modulus)

    def __eq__(self, other):
        y = self._other(other)
        return NotImplemented if y is None else self.comps == y

    def __hash__(self):
        # b = 0 hashes as the FpElement that the Fp2Element equals
        c = self.comps
        return hash((self.modulus.p,) + (c[:1] if c[1:] == (0,) else c))

    def __bool__(self):
        return any(self.comps)

    def is_zero(self) -> bool:
        return not any(self.comps)

    def __repr__(self):
        c = self.comps
        return f"{c[0]}+{c[1]}*w" if any(c[1:]) else f"{c[0]}"


class FpElement(_Element):
    """A residue mod p: the width-1 element, comps = (value,)."""

    __slots__ = ()

    def __init__(self, value, modulus: PrimeModulus):
        self.comps = (int(value) % modulus.p,)
        self.modulus = modulus

    value = property(lambda self: self.comps[0])

    def __int__(self):
        return self.comps[0]


class Fp2Element(_Element):
    """a + b*w in F_{p^2} with w^2 = s (s the smallest non-residue mod p):
    the width-2 element, comps = (a, b).

    Frobenius x -> x^p sends a + b*w to a - b*w.
    """

    __slots__ = ()

    def __init__(self, a, b, modulus: PrimeModulus):
        self.comps = (int(a) % modulus.p, int(b) % modulus.p)
        self.modulus = modulus

    a = property(lambda self: self.comps[0])
    b = property(lambda self: self.comps[1])

    def norm(self) -> FpElement:
        """Norm to F_p: (a + b*w)(a - b*w) = a^2 - s*b^2."""
        return FpElement(self.a * self.a - self.modulus.nonresidue * self.b * self.b,
                         self.modulus)


def element(c, mod):
    """The field element with component tuple c, (a,) or (a, b)."""
    return Fp2Element(*c, mod) if len(c) == 2 else FpElement(*c, mod)


def components(x):
    """(a, b) with x = a + b*w; an F_p element or int has b = 0.  An
    element's own width is x.comps."""
    if isinstance(x, _Element):
        return (x.comps + (0,))[:2]
    return int(x), 0


def as_element(x, mod):
    """The input rule for a field value mod p: an element of modulus p as
    it is, an int (Python or numpy, by operator.index) as an FpElement.
    Raises ModulusError for an element of another modulus and TypeError
    for anything else, such as a float, rather than re-reducing it."""
    if isinstance(x, _Element):
        if x.modulus.p != mod.p:
            raise ModulusError(f"mixed moduli {mod.p} and {x.modulus.p}")
        return x
    return FpElement(operator.index(x), mod)


def embed(x, mod=None) -> Fp2Element:
    """Embed an F_p element (or int, by the as_element rule) into F_{p^2}."""
    if not isinstance(x, _Element):
        x = as_element(x, _as_modulus(mod))
    return Fp2Element(*components(x), x.modulus)


def sqrt_fp(x) -> "FpElement | None":
    """A square root of x in F_p via Tonelli-Shanks, or None if x is not a square."""
    mod = x.modulus
    p = mod.p
    a = x.value
    if a == 0:
        return FpElement(0, mod)
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return FpElement(pow(a, (p + 1) // 4, p), mod)
    # Tonelli-Shanks, p = 1 mod 4
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = mod.nonresidue
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return FpElement(r, mod)


def sqrt_fp2_of_fp(x) -> Fp2Element:
    """A square root in F_{p^2} of an F_p element (always exists)."""
    rt = sqrt_fp(x)
    if rt is not None:
        return embed(rt)
    # x is a non-residue, so x/s is a residue and sqrt(x) = w * sqrt(x/s)
    mod = x.modulus
    rt = sqrt_fp(x / mod.nonresidue)
    return Fp2Element(0, rt.value, mod)


def is_square_fp2(x: Fp2Element) -> bool:
    """True iff x is a square in F_{p^2} (0 counts as a square)."""
    if x.is_zero():
        return True
    p = x.modulus.p
    return x ** ((p * p - 1) // 2) == 1
