"""Dense univariate polynomials over F_p.

Coefficients are stored low-to-high as plain ints in [0, p); the zero
polynomial is the empty coefficient tuple (degree -1), so trimming keeps
the representation canonical.  Root finding is exhaustive evaluation,
which at desk scale (p^ext up to a configurable bound) is simple and
certain.  ext2_elements and horner_ext2 are the one numpy evaluation
kernel over F_{p^2}: the root scan and the point counts share it.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ModulusError
from .ffield import Fp2Element, FpElement, _as_modulus

#: default cap on p**ext for exhaustive root finding (p <= 500 for ext=2)
DEFAULT_ROOT_BOUND = 250_000


class UniPoly:
    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, mod):
        mod = _as_modulus(mod)
        p = mod.p
        cl = [int(c) % p for c in coeffs]
        while cl and cl[-1] == 0:
            cl.pop()
        self.coeffs = tuple(cl)
        self.modulus = mod

    @classmethod
    def zero(cls, mod) -> "UniPoly":
        return cls((), mod)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> FpElement:
        v = self.coeffs[k] if 0 <= k < len(self.coeffs) else 0
        return FpElement(v, self.modulus)

    def leading(self) -> FpElement:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return FpElement(self.coeffs[-1], self.modulus)

    def _check(self, other: "UniPoly"):
        if self.modulus.p != other.modulus.p:
            raise ModulusError(
                f"mixed moduli {self.modulus.p} and {other.modulus.p}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return UniPoly(a, self.modulus)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return UniPoly(a, self.modulus)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], self.modulus)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.modulus)
        p = self.modulus.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return UniPoly(out, self.modulus)

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = UniPoly((1,), self.modulus)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c) -> "UniPoly":
        c = int(c) % self.modulus.p
        return UniPoly([a * c for a in self.coeffs], self.modulus)

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(self.leading().inverse())

    def divmod(self, other: "UniPoly"):
        """Euclidean division: self = q*other + r with deg r < deg other."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.modulus.p
        rem = list(self.coeffs)
        dv = other.coeffs
        dn = len(dv) - 1
        lead_inv = pow(dv[-1], p - 2, p)
        q = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - dn - 1, -1, -1):
            f = rem[i + dn] * lead_inv % p
            if f:
                q[i] = f
                for j, c in enumerate(dv):
                    rem[i + j] = (rem[i + j] - f * c) % p
        return UniPoly(q, self.modulus), UniPoly(rem[:dn], self.modulus)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.modulus.p == other.modulus.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.modulus.p, self.coeffs))

    def eval(self, x):
        """Horner evaluation at an FpElement or Fp2Element."""
        p = self.modulus.p
        if isinstance(x, Fp2Element):
            if x.modulus.p != p:
                raise ModulusError(f"mixed moduli {p} and {x.modulus.p}")
            s = x.modulus.nonresidue
            xa, xb = x.a, x.b
            aa = ab = 0
            for c in reversed(self.coeffs):
                aa, ab = (aa * xa + s * ab * xb + c) % p, (aa * xb + ab * xa) % p
            return Fp2Element(aa, ab, x.modulus)
        if isinstance(x, FpElement):
            if x.modulus.p != p:
                raise ModulusError(f"mixed moduli {p} and {x.modulus.p}")
            xv = x.value
        else:
            xv = int(x) % p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * xv + c) % p
        return FpElement(acc, self.modulus)

    def eval_all(self) -> np.ndarray:
        """Values at 0, 1, ..., p-1 as an int64 array."""
        p = self.modulus.p
        xs = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for c in reversed(self.coeffs):
            acc = (acc * xs + c) % p
        return acc

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if k == 0 else (f"r^{k}" if c == 1 else f"{c}*r^{k}"))
        return "UniPoly(" + " + ".join(terms) + f", p={self.modulus.p})"


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; rejects gcd(0, 0)."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def derivative(f: UniPoly) -> UniPoly:
    p = f.modulus.p
    return UniPoly([k * c % p for k, c in enumerate(f.coeffs)][1:], f.modulus)


def is_separable(f: UniPoly) -> bool:
    """True iff gcd(f, f') is constant, i.e. no repeated roots in the closure."""
    if f.is_zero:
        raise ValueError("separability of the zero polynomial is undefined")
    d = derivative(f)
    if d.is_zero:
        # nonzero constant is vacuously separable; higher degree with f'=0
        # means f is a p-th power, hence inseparable
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


def divides(f: UniPoly, g: UniPoly) -> bool:
    """True iff f | g (f nonzero; everything divides 0)."""
    if f.is_zero:
        raise ZeroDivisionError("divisibility by the zero polynomial")
    if g.is_zero:
        return True
    return g.divmod(f)[1].is_zero


def ext2_elements(p: int):
    """Components (A, B) of every a + b*w in F_{p^2}, at index a*p + b."""
    A = np.repeat(np.arange(p, dtype=np.int64), p)
    B = np.tile(np.arange(p, dtype=np.int64), p)
    return A, B


def horner_ext2(coeffs, xa, xb, mod):
    """Horner's rule over F_{p^2} = F_p[w], w^2 = s, on component pairs.

    coeffs lists the (a, b) components of the coefficients, low degree
    first; x = xa + xb*w.  Every component lies in [0, p) and may be an
    int or an int64 array, and arrays broadcast (a column of coefficients against a row
    of points gives a 2-D table).  Returns the value's components (va, vb).
    """
    p = mod.p
    sxb = mod.nonresidue * xb % p
    va = vb = 0
    for ca, cb in reversed(coeffs):
        va, vb = (va * xa + vb * sxb + ca) % p, (va * xb + vb * xa + cb) % p
    return va, vb


def eval_all_ext2(f: UniPoly):
    """Values of f over all of F_{p^2}: component arrays (va, vb) of
    length p^2, indexed as ext2_elements."""
    A, B = ext2_elements(f.modulus.p)
    return horner_ext2([(c, 0) for c in f.coeffs] or [(0, 0)], A, B, f.modulus)


def roots_over(f: UniPoly, ext: int, limit: int | None = None):
    """All roots of f in F_p (ext=1) or F_{p^2} (ext=2), by exhaustion.

    Multiplicities are not reported; pair with is_separable when the
    distinction matters.  Raises CapacityError when p**ext exceeds the
    exhaustion bound (DEFAULT_ROOT_BOUND unless overridden).
    """
    if f.is_zero:
        raise ValueError("every element is a root of the zero polynomial")
    if ext not in (1, 2):
        raise ValueError(f"ext must be 1 or 2, got {ext}")
    bound = DEFAULT_ROOT_BOUND if limit is None else limit
    mod = f.modulus
    p = mod.p
    if p ** ext > bound:
        raise CapacityError(
            f"root exhaustion over {p}^{ext} points exceeds bound {bound}")
    if ext == 1:
        vals = f.eval_all()
        return {FpElement(int(x), mod) for x in np.nonzero(vals == 0)[0]}
    va, vb = eval_all_ext2(f)
    return {Fp2Element(*divmod(int(i), p), mod)
            for i in np.nonzero((va == 0) & (vb == 0))[0]}
