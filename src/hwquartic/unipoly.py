"""Dense univariate polynomials over F_p.

Coefficients are stored low-to-high as plain ints in [0, p); the zero
polynomial is the empty coefficient tuple (degree -1), so trimming keeps
the representation canonical.  The constructor takes coefficients by
the ffield.as_element rule, _reduced takes residues.  Kronecker products;
powmod by a precomputed inverse of rev(m); divmod and gcd by one long
division in place on int64 arrays (object dtype at p >= 2^31), its scalar
steps on Python ints; a gcd converts to arrays once.
ext2_root_counts counts the roots in F_{p^2} by one powmod; roots_over
lists them by exhaustive evaluation (p^ext <= DEFAULT_ROOT_BOUND).
horner is the one evaluation loop: at a component tuple, (a,) in F_p or
(a, b) for a + b*w in F_{p^2}, of ints or broadcasting int64 arrays.
eval, eval_all, eval_all_ext2, the point counts and the C6 matrices all
call it.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, ModulusError
from .ffield import Fp2Element, FpElement, _as_modulus, as_element, element

#: cap on p**ext for exhaustive root finding (p <= 500 for ext=2)
DEFAULT_ROOT_BOUND = 250_000


class UniPoly:
    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, mod):
        mod = _as_modulus(mod)
        cl = [int(as_element(c, mod)) for c in coeffs]
        while cl and cl[-1] == 0:
            cl.pop()
        self.coeffs = tuple(cl)
        self.modulus = mod

    @classmethod
    def _reduced(cls, coeffs, mod) -> "UniPoly":
        """From residues in [0, p) and a PrimeModulus: only trims zeros."""
        f, n = cls.__new__(cls), len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        f.coeffs, f.modulus = tuple(coeffs[:n]), mod
        return f

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

    def leading(self) -> FpElement:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return FpElement(self.coeffs[-1], self.modulus)

    def _check(self, other: "UniPoly"):
        if self.modulus.p != other.modulus.p:
            raise ModulusError(
                f"mixed moduli {self.modulus.p} and {other.modulus.p}")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self._combine(other, -1)

    def _combine(self, other: "UniPoly", sign: int) -> "UniPoly":
        """self + sign * other."""
        self._check(other)
        p = self.modulus.p
        a = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += sign * c
        return UniPoly._reduced([c % p for c in a], self.modulus)

    def __neg__(self) -> "UniPoly":
        p = self.modulus.p
        return UniPoly._reduced([-c % p for c in self.coeffs], self.modulus)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        """Kronecker substitution: one int product of the factors packed
        into k-byte slots, wide enough for any coefficient of the result."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(self.modulus)
        p = self.modulus.p
        k = (2 * (p - 1).bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
        n = k * (len(a) + len(b) - 1)
        prod = (_pack(a, k) * _pack(b, k)).to_bytes(n, "little")
        return UniPoly._reduced([int.from_bytes(prod[i:i + k], "little") % p
                                 for i in range(0, n, k)], self.modulus)

    def __pow__(self, e: int, m: "UniPoly | None" = None) -> "UniPoly":
        """self**e; pow(self, e, m) reduces mod m at every step, each
        reduction two products with the inverse of rev(m) (_Reducer)."""
        if e < 0:
            raise ValueError("negative polynomial power")
        base, reduce = self, lambda f: f
        if m is not None:
            base, reduce = self.divmod(m)[1], _Reducer(m)
        out = None
        while e:
            if e & 1:
                out = base if out is None else reduce(out * base)
            e >>= 1
            if e:
                base = reduce(base * base)
        return reduce(UniPoly((1,), self.modulus)) if out is None else out

    def scale(self, c) -> "UniPoly":
        c, p = int(as_element(c, self.modulus)), self.modulus.p
        return UniPoly._reduced([a * c % p for a in self.coeffs], self.modulus)

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self.scale(self.leading().inverse())

    def divmod(self, other: "UniPoly"):
        """Euclidean division: self = q*other + r with deg r < deg other."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod_arrays(self.coeffs, other.coeffs, self.modulus.p)
        return (UniPoly._reduced(q.tolist(), self.modulus),
                UniPoly._reduced(r.tolist(), self.modulus))

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.modulus.p == other.modulus.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.modulus.p, self.coeffs))

    def eval(self, x):
        """Value at an FpElement, an Fp2Element or an int."""
        mod = self.modulus
        x = as_element(x, mod).comps
        coeffs = self.coeffs if len(x) == 1 else [(c, 0) for c in self.coeffs]
        return element(horner(coeffs, x, mod), mod)

    def eval_all(self) -> np.ndarray:
        """Values at 0, 1, ..., p-1 as an int64 array."""
        p = self.modulus.p
        return horner(self.coeffs, (np.arange(p, dtype=np.int64),), self.modulus)[0]

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if k == 0 else (f"r^{k}" if c == 1 else f"{c}*r^{k}"))
        return "UniPoly(" + " + ".join(terms) + f", p={self.modulus.p})"


def _divmod_arrays(a, b, p: int, quotient=True):
    """Long division of trimmed coefficient sequences (low degree first, b
    nonzero): arrays (q, r) with a = q*b + r and r trimmed, q None unless
    asked.  int64 holds every product of two residues while p < 2^31;
    object dtype above.  An array a of that dtype is divided in place (r
    is a view of it); the scalar steps run on Python ints."""
    dtype = np.int64 if p < 2 ** 31 else object
    r, b = np.asarray(a, dtype), np.asarray(b, dtype)
    db = len(b) - 1
    q = np.zeros(max(len(r) - db, 0), dtype) if quotient else None
    inv = pow(b.item(db), -1, p)
    for i in range(len(r) - db - 1, -1, -1):
        c = r.item(i + db) * inv % p
        if c:
            if quotient:
                q[i] = c
            seg = r[i:i + db + 1]
            seg -= c * b
            seg %= p
    n = min(db, len(r))
    while n and not r.item(n - 1):
        n -= 1
    return q, r[:n]


def _pack(coeffs, k: int) -> int:
    """The int with coeffs[i] in little-endian byte slot i of k bytes."""
    return int.from_bytes(b"".join([c.to_bytes(k, "little") for c in coeffs]),
                          "little")


class _Reducer:
    """f mod m for deg f < 2 deg m, by two products.

    With n = deg m and rev_d(f) = t^d f(1/t), the quotient of f (degree
    D) by m is rev_{D-n}(rev_D(f) / rev_n(m) mod t^(D-n+1)) (von zur
    Gathen-Gerhard, Modern Computer Algebra, 9.1).  The power series
    1/rev_n(m) is computed once, to precision n, by Newton iteration
    g <- g (2 - rev_n(m) g)."""

    def __init__(self, m: UniPoly):
        self.m, self.n, mod = m, m.degree, m.modulus
        rev = m.coeffs[::-1]
        g, prec = UniPoly((pow(rev[0], mod.p - 2, mod.p),), mod), 1
        while prec < self.n:
            prec = min(2 * prec, self.n)
            e = UniPoly._reduced(rev[:prec], mod) * g
            g = UniPoly._reduced((g * (UniPoly((2,), mod) - e)).coeffs[:prec], mod)
        self.inv = g.coeffs

    def __call__(self, f: UniPoly) -> UniPoly:
        d = len(f.coeffs) - self.n
        if d <= 0:
            return f
        mod = f.modulus
        qrev = (UniPoly._reduced(f.coeffs[:-d - 1:-1], mod)
                * UniPoly._reduced(self.inv[:d], mod)).coeffs[:d]
        return f - UniPoly._reduced((0,) * (d - len(qrev)) + qrev[::-1], mod) * self.m


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; rejects gcd(0, 0)."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    f._check(g)
    a, b = f.coeffs, g.coeffs
    while len(b):
        a, b = b, _divmod_arrays(a, b, f.modulus.p, quotient=False)[1]
    return UniPoly._reduced([int(c) for c in a], f.modulus).monic()


def derivative(f: UniPoly) -> UniPoly:
    p = f.modulus.p
    return UniPoly._reduced([k * c % p for k, c in enumerate(f.coeffs)][1:], f.modulus)


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


def horner(coeffs, x, mod):
    """Horner's rule at x, a component tuple: (a,) for a in F_p, or (a, b)
    for a + b*w in F_{p^2} = F_p[w], w^2 = s.

    coeffs lists the coefficients low degree first: residues for x = (a,),
    component pairs (a, b) for x = (a, b).  Every component lies in
    [0, p) and may be an int or an int64 array (p < 2^31); arrays
    broadcast, so a column of coefficients against a row of points gives
    a 2-D table.  Returns the value's component tuple, of x's width.
    """
    p = mod.p
    if len(x) == 1:
        (xa,) = x
        va = 0 * xa
        for c in reversed(coeffs):
            va = (va * xa + c) % p
        return (va,)
    xa, xb = x
    sxb = mod.nonresidue * xb % p
    va = vb = 0 * xa
    for ca, cb in reversed(coeffs):
        va, vb = (va * xa + vb * sxb + ca) % p, (va * xb + vb * xa + cb) % p
    return va, vb


def eval_all_ext2(f: UniPoly):
    """Values of f over all of F_{p^2}: component arrays (va, vb) of
    length p^2, indexed as ext2_elements."""
    return horner([(c, 0) for c in f.coeffs], ext2_elements(f.modulus.p),
                  f.modulus)


def ext2_root_counts(f: UniPoly):
    """(found, squares): how many distinct roots f != 0 has in F_q, q = p^2,
    and how many of those are squares in F_q (0 counts as one).

    F_q and its squares are the roots of the squarefree t^q - t and
    t^((q+1)/2) - t, which mod f are t*h^2 - t and t*h - t for
    h = t^((q-1)/2) mod f; each count is the degree of a gcd with f.  One
    powmod (Cantor-Zassenhaus, Math. Comp. 1981)."""
    t = UniPoly((0, 1), f.modulus)
    h = pow(t, (f.modulus.p ** 2 - 1) // 2, f)
    return poly_gcd(f, t * h * h - t).degree, poly_gcd(f, t * h - t).degree


def roots_over(f: UniPoly, ext: int):
    """All roots of f in F_p (ext=1) or F_{p^2} (ext=2), by exhaustion.

    Multiplicities are not reported; pair with is_separable when the
    distinction matters.  Raises CapacityError when p**ext exceeds
    DEFAULT_ROOT_BOUND.
    """
    if f.is_zero:
        raise ValueError("every element is a root of the zero polynomial")
    if ext not in (1, 2):
        raise ValueError(f"ext must be 1 or 2, got {ext}")
    mod = f.modulus
    p = mod.p
    if p ** ext > DEFAULT_ROOT_BOUND:
        raise CapacityError(f"root exhaustion over {p}^{ext} points exceeds "
                            f"bound {DEFAULT_ROOT_BOUND}")
    if ext == 1:
        vals = f.eval_all()
        return {FpElement(int(x), mod) for x in np.nonzero(vals == 0)[0]}
    va, vb = eval_all_ext2(f)
    return {Fp2Element(*divmod(int(i), p), mod)
            for i in np.nonzero((va == 0) & (vb == 0))[0]}
