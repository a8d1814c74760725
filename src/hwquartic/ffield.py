"""Exact arithmetic in F_p and F_{p^2} for a prime p >= 5.

F_{p^2} is realized as F_p[w] with w^2 = s, where s is the smallest
positive quadratic non-residue mod p.  Fixing s this way keeps the
representation deterministic across runs, so elements can be printed,
parsed and compared reproducibly.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ModulusError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    """values[n] = n! mod p for 0 <= n <= p-1, plus inverse factorials."""

    def __init__(self, p: int):
        values = [1] * p
        for n in range(1, p):
            values[n] = values[n - 1] * n % p
        inverses = [1] * p
        inverses[p - 1] = pow(values[p - 1], p - 2, p)
        for n in range(p - 1, 0, -1):
            inverses[n - 1] = inverses[n] * n % p
        self.p = p
        self.values = values
        self.inverses = inverses


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
    return FpElement(t.values[n] * t.inverses[k] % mod.p * t.inverses[n - k] % mod.p, mod)


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
    out = t.values[n]
    for k in parts:
        out = out * t.inverses[k] % mod.p
    return FpElement(out, mod)


class FpElement:
    """A residue mod p. Immutable; all arithmetic exact."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus: PrimeModulus):
        self.value = int(value) % modulus.p
        self.modulus = modulus

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.modulus.p != self.modulus.p:
                raise ModulusError(
                    f"mixed moduli {self.modulus.p} and {other.modulus.p}")
            return other.value
        if isinstance(other, int):
            return other % self.modulus.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement((self.value + v) % self.modulus.p, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement((self.value - v) % self.modulus.p, self.modulus)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement((v - self.value) % self.modulus.p, self.modulus)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v % self.modulus.p, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.value % self.modulus.p, self.modulus)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FpElement(pow(self.value, e, self.modulus.p), self.modulus)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.modulus.p}")
        return FpElement(pow(self.value, self.modulus.p - 2, self.modulus.p),
                         self.modulus)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero mod {self.modulus.p}")
        return FpElement(self.value * pow(v, self.modulus.p - 2, self.modulus.p)
                         % self.modulus.p, self.modulus)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v, self.modulus) / self

    def __eq__(self, other):
        if isinstance(other, Fp2Element):
            return NotImplemented
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.value == v

    def __hash__(self):
        return hash((self.modulus.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def is_zero(self) -> bool:
        return self.value == 0

    def __repr__(self):
        return f"{self.value}"


class Fp2Element:
    """a + b*w in F_{p^2} with w^2 = s (s the smallest non-residue mod p).

    Frobenius x -> x^p sends a + b*w to a - b*w.
    """

    __slots__ = ("a", "b", "modulus")

    def __init__(self, a, b, modulus: PrimeModulus):
        self.a = int(a) % modulus.p
        self.b = int(b) % modulus.p
        self.modulus = modulus

    def _coerce(self, other):
        # returns component pair or None
        if isinstance(other, Fp2Element):
            if other.modulus.p != self.modulus.p:
                raise ModulusError(
                    f"mixed moduli {self.modulus.p} and {other.modulus.p}")
            return other.a, other.b
        if isinstance(other, FpElement):
            if other.modulus.p != self.modulus.p:
                raise ModulusError(
                    f"mixed moduli {self.modulus.p} and {other.modulus.p}")
            return other.value, 0
        if isinstance(other, int):
            return other % self.modulus.p, 0
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        p = self.modulus.p
        return Fp2Element((self.a + c[0]) % p, (self.b + c[1]) % p, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        p = self.modulus.p
        return Fp2Element((self.a - c[0]) % p, (self.b - c[1]) % p, self.modulus)

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        p = self.modulus.p
        return Fp2Element((c[0] - self.a) % p, (c[1] - self.b) % p, self.modulus)

    def __mul__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        p = self.modulus.p
        s = self.modulus.nonresidue
        a, b = self.a, self.b
        return Fp2Element((a * c[0] + s * b * c[1]) % p,
                          (a * c[1] + b * c[0]) % p, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        p = self.modulus.p
        return Fp2Element(-self.a % p, -self.b % p, self.modulus)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = Fp2Element(1, 0, self.modulus)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def norm(self) -> FpElement:
        """Norm to F_p: (a + b*w)(a - b*w) = a^2 - s*b^2."""
        p = self.modulus.p
        s = self.modulus.nonresidue
        return FpElement((self.a * self.a - s * self.b * self.b) % p, self.modulus)

    def inverse(self) -> "Fp2Element":
        n = self.norm().value
        if n == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.modulus.p}^2")
        p = self.modulus.p
        ni = pow(n, p - 2, p)
        return Fp2Element(self.a * ni % p, -self.b * ni % p, self.modulus)

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return self * Fp2Element(c[0], c[1], self.modulus).inverse()

    def __rtruediv__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Fp2Element(c[0], c[1], self.modulus) * self.inverse()

    def __eq__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return (self.a, self.b) == c

    def __hash__(self):
        if self.b == 0:
            return hash((self.modulus.p, self.a))
        return hash((self.modulus.p, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}*w"


def components(x):
    """(a, b) with x = a + b*w; an F_p element has b = 0."""
    if isinstance(x, Fp2Element):
        return x.a, x.b
    return int(x), 0


def embed(x, mod=None) -> Fp2Element:
    """Embed an F_p element (or int) into F_{p^2}."""
    if isinstance(x, Fp2Element):
        return x
    if isinstance(x, FpElement):
        return Fp2Element(x.value, 0, x.modulus)
    return Fp2Element(x, 0, _as_modulus(mod))


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
    y = x ** ((p * p - 1) // 2)
    return y.a == 1 and y.b == 0
