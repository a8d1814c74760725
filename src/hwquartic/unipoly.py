"""Dense univariate polynomials over F_p.

Coefficients are stored low-to-high as plain ints in [0, p); the zero
polynomial is the empty coefficient tuple (degree -1), so trimming keeps
the representation canonical.  The constructor takes coefficients by
the ffield.as_element rule, _reduced takes residues.  The array kernels
hold residues as int64 while p < 2^31, where every product of two fits,
and as object dtype above (_dtype).  Products by _mul_arrays: np.convolve
below FFT_CROSSOVER, an exact FFT from it on.  powmod by ffield._power on
arrays from the reduced base to the result, each reduction two truncated
products with an inverse of rev(m) seeded by scalar steps; divmod and
gcd by one long division in place on arrays, its scalar steps on Python
ints; a gcd converts to arrays once.
ext2_root_counts counts the roots in F_{p^2} by one powmod; roots_over,
the tests' oracle, lists them by exhaustion (p^ext <= DEFAULT_ROOT_BOUND).
horner is the one evaluation loop: at a component tuple, (a,) in F_p or
(a, b) for a + b*w in F_{p^2}, of ints or broadcasting int64 arrays, on
arrays in blocks of ~sqrt(d) coefficients if d is long.  Coefficients
are residues (in F_p, at either width of x) or pairs (a, b) (in F_{p^2}).
eval, eval_all, eval_all_ext2, the point counts and the C6 matrices all
call it.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, IntegrityError, ModulusError
from .ffield import (Fp2Element, FpElement, _as_modulus, _power, as_element,
                     element, mul)

#: cap on p**ext for exhaustive root finding (p <= 500 for ext=2)
DEFAULT_ROOT_BOUND = 250_000


class UniPoly:
    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, mod):
        self.modulus = mod = _as_modulus(mod)
        self.coeffs = tuple(_trimmed([int(as_element(c, mod)) for c in coeffs]))

    @classmethod
    def _reduced(cls, coeffs, mod) -> "UniPoly":
        """From residues in [0, p) and a PrimeModulus: only trims zeros."""
        f = cls.__new__(cls)
        f.coeffs, f.modulus = tuple(_trimmed(coeffs)), mod
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
        self._check(other)
        return UniPoly._reduced(
            _mul_arrays(self.coeffs, other.coeffs, self.modulus.p).tolist(),
            self.modulus)

    def __pow__(self, e: int, m: "UniPoly | None" = None) -> "UniPoly":
        """self**e; pow(self, e, m) reduces mod m at every step on residue
        arrays (_Reducer) and converts back once."""
        if e < 0:
            raise ValueError("negative polynomial power")
        if m is None:
            return _power(self, e, lambda f, g: f * g, UniPoly((1,), self.modulus))
        p = self.modulus.p
        base = np.asarray(self.divmod(m)[1].coeffs, _dtype(p))
        reduce = _Reducer(m)
        out = _power(base, e, lambda f, g: reduce(_mul_arrays(f, g, p)),
                     reduce(np.ones(1, base.dtype)))
        return UniPoly._reduced(out.tolist(), self.modulus)

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
        return element(horner(self.coeffs, as_element(x, mod).comps, mod), mod)

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


def _dtype(p: int):
    """int64 holds every product of two residues while p < 2^31; object
    dtype (Python ints) above."""
    return np.int64 if p < 2 ** 31 else object


def _trimmed(r):
    """r, a sequence or an array, without its high zeros (a slice)."""
    n = len(r)
    while n and not r[n - 1]:
        n -= 1
    return r[:n]


def _divmod_arrays(a, b, p: int, quotient=True):
    """Long division of trimmed coefficient sequences (low degree first, b
    nonzero): arrays (q, r) with a = q*b + r and r trimmed, q None unless
    asked, in the dtype of _dtype(p).  An array a of that dtype is divided
    in place (r is a view of it); the scalar steps run on Python ints."""
    dtype = _dtype(p)
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
    return q, _trimmed(r[:min(db, len(r))])


FFT_CROSSOVER = 384  #: the shorter factor's length from which products take the FFT


def _mul_arrays(a, b, p: int, n=None):
    """The coefficients of a*b below t^n (all of them if n is None), for
    residue sequences a, b low degree first, as an array of _dtype(p).

    Below FFT_CROSSOVER coefficients in the shorter factor, one direct
    np.convolve of the factors cut to n, on int64 while every product
    coefficient, at most min(len a, len b) (p-1)^2, is below 2^63 and on
    Python ints (object dtype) above; from it on, at p < 2^20, an exact
    float64 FFT of two 10-bit limbs (lo*lo, hi*hi and (lo+hi)^2 from 4
    rffts, 2 for a square, and 3 inverse ones), with IntegrityError unless
    every value lies within 1/4 of an integer (4.9e-4 at most, all p - 1
    at 2^19 points).  On balanced factors the two tie at about 384
    coefficients (80 us) and the FFT leads from 448, at p = 491, 2999 and
    30011 alike (best of 50, one core of a 2-core Xeon sandbox)."""
    if not len(a) or not len(b):
        return np.zeros(0, _dtype(p))
    n = len(a) + len(b) - 1 if n is None else min(n, len(a) + len(b) - 1)
    plan = _plan(len(a), len(b), p)
    x = _pack(a, plan)
    return _product(x, x if b is a else _pack(b, plan), plan, n, p)


def _plan(la: int, lb: int, p: int):
    """From FFT_CROSSOVER on (p < 2^20), an FFT size 2^k or 3*2^k
    >= la + lb - 1; below, np.convolve's dtype: int64 while
    max(min(la, lb), 1) (p-1)^2 < 2^63, else object."""
    if min(la, lb) >= FFT_CROSSOVER and p < 2 ** 20:
        return min(m << ((la + lb - 2) // m).bit_length() for m in (1, 3))
    return np.dtype(np.int64 if max(min(la, lb), 1) * (p - 1) ** 2 < 2 ** 63 else object)


def _pack(a, plan):
    """Residues a as _product takes them under plan."""
    if isinstance(plan, np.dtype):
        return np.asarray(a, plan)
    return np.fft.rfft(np.asarray(a, np.int64) >> np.array([[0], [10]]) & 1023, plan)


def _product(x, y, plan, n: int, p: int):
    """The n lowest coefficients of the product of x and y, packed by plan."""
    if isinstance(plan, np.dtype):
        return (np.convolve(x[:n], y[:n])[:n] % p).astype(_dtype(p), copy=False)
    v = np.fft.irfft(np.stack((x[0] * y[0], x[1] * y[1],
                               (x[0] + x[1]) * (y[0] + y[1]))), plan)[:, :n]
    r = np.rint(v)
    v -= r
    if np.abs(v, out=v).max() > 0.25:
        raise IntegrityError(f"an FFT product mod {p} is off an integer by over 1/4")
    lo, hi, mid = r.astype(np.int64)
    return (lo + (mid - lo - hi) % p * 2 ** 10 + hi % p * 2 ** 20) % p


class _Reducer:
    """f mod m for deg f < 2 deg m, on residue arrays, by two truncated
    products.

    With n = deg m and rev_d(f) = t^d f(1/t), the quotient of f (degree
    D) by m is rev_{D-n}(rev_D(f) / rev_n(m) mod t^(D-n+1)) (von zur
    Gathen-Gerhard, Modern Computer Algebra, 9.1), and the remainder is
    f - q m, of which only the low n coefficients are formed.  The power
    series 1/rev_n(m) is computed once, to precision n: min(n, 8) terms
    by g_k = -g_0 sum_{j=1..k} r_j g_(k-j) on Python ints, then Newton
    doublings g <- g (2 - rev_n(m) g) (4 at n = 81, not 7).  It and m's
    low part are packed once for np.convolve below FFT_CROSSOVER or the
    FFT from it on.  One excess coefficient (t times a remainder) is a
    scalar step."""

    def __init__(self, m: UniPoly):
        p = self.p = m.modulus.p
        c = np.asarray(m.coeffs, _dtype(p))
        self.n, self.low = len(c) - 1, c[:-1]
        rev, r, g = c[::-1], m.coeffs[::-1], [pow(m.coeffs[-1], -1, p)]
        for k in range(1, min(self.n, 8)):
            g.append(-g[0] * sum(r[j] * g[k - j] for j in range(1, k + 1)) % p)
        g, prec = np.array(g, c.dtype), len(g)
        while prec < self.n:
            prec = min(2 * prec, self.n)
            e = -_mul_arrays(rev[:prec], g, p, prec)
            e[0] += 2
            g = _mul_arrays(g, e % p, p, prec)
        self.inv, self.plan = g, _plan(self.n - 1, self.n, p)  # d <= n - 1 by n
        self.packed = _pack(g, self.plan), _pack(self.low, self.plan)

    def __call__(self, f):
        n, p, plan, (inv, low) = self.n, self.p, self.plan, self.packed
        d = len(f) - n
        if d <= 0:
            return f
        if d == 1:
            return _trimmed((f[:n] - f.item(n) * self.inv.item(0) % p * self.low) % p)
        q = _product(_pack(f[:-d - 1:-1], plan), inv, plan, d, p)[::-1]
        return _trimmed((f[:n] - _product(_pack(q, plan), low, plan, n, p)) % p)


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; rejects gcd(0, 0)."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    f._check(g)
    a, b = f.coeffs, g.coeffs
    while len(b):
        a, b = b, _divmod_arrays(a, b, f.modulus.p, quotient=False)[1]
    return UniPoly._reduced([int(c) for c in a], f.modulus).monic()


def is_separable(f: UniPoly) -> bool:
    """True iff gcd(f, f') is constant, i.e. no repeated roots in the closure."""
    if f.is_zero:
        raise ValueError("separability of the zero polynomial is undefined")
    p = f.modulus.p
    d = UniPoly._reduced([k * c % p for k, c in enumerate(f.coeffs)][1:], f.modulus)
    if d.is_zero:
        # nonzero constant is vacuously separable; higher degree with f'=0
        # means f is a p-th power, hence inseparable
        return f.degree == 0
    return poly_gcd(f, d).degree == 0


def ext2_elements(p: int):
    """Components (A, B) of every a + b*w in F_{p^2}, at index a*p + b."""
    A = np.repeat(np.arange(p, dtype=np.int64), p)
    B = np.tile(np.arange(p, dtype=np.int64), p)
    return A, B


def horner(coeffs, x, mod):
    """Horner's rule at x, a component tuple: (a,) for a in F_p, or (a, b)
    for a + b*w in F_{p^2} = F_p[w], w^2 = s.

    coeffs lists the coefficients low degree first: residues (F_p, at
    either width of x) or pairs (a, b) (F_{p^2}, at width 2).  Every
    component lies in [0, p) and may be an int or an int64 array
    (p < 2^31); arrays broadcast, so a column of coefficients against a
    row of points gives a 2-D table.  Returns the value's component
    tuple, of x's width.  With arrays x, residues and 5 <= m = isqrt(d+1)
    <= (2^63-1) // (p-1)^2 (exact block sums), _blocks first writes
    f(x) = sum_i B_i(x) (x^m)^i, all B_i in <= 2^23 cells from one int64
    product per component (Paterson-Stockmeyer, SIAM J. Comput. 2(1), 1973).
    """
    p = mod.p
    coeffs, x = _blocks(coeffs, x, mod)
    if len(x) == 1:
        (xa,) = x
        va = 0 * xa
        for c in reversed(coeffs):
            va = (va * xa + c) % p
        return (va,)
    xa, xb = x
    sxb = mod.nonresidue * xb % p
    va = vb = 0 * xa
    for c in reversed(coeffs):
        ca, cb = c if isinstance(c, tuple) else (c, 0)
        va, vb = (va * xa + vb * sxb + ca) % p, (va * xb + vb * xa + cb) % p
    return va, vb


def _blocks(coeffs, x, mod):
    """(B_i(x) for each i, x^m) for residues, or (coeffs, x); crossover 20-25."""
    p, w = mod.p, len(x)
    m = min(int(len(coeffs) ** 0.5), (2 ** 63 - 1) // (p - 1) ** 2)
    if (m < 5 or not isinstance(x[0], np.ndarray)
            or isinstance(coeffs[0], (tuple, np.ndarray))
            or w * (m + len(coeffs) // m + 1) * np.broadcast(*x).size > 2 ** 23):
        return coeffs, x
    table = np.zeros((w, m) + np.broadcast(*x).shape, np.int64)  # x^0..x^(m-1)
    table[0, 0] = 1
    for k in range(1, m):
        table[:, k] = mul(tuple(table[:, k - 1]), x, mod)
    c = np.zeros((-(-len(coeffs) // m), m), np.int64)  # last block padded
    c.reshape(-1)[:len(coeffs)] = coeffs
    b = [np.tensordot(c, t, 1) % p for t in table]
    return b[0] if w == 1 else list(zip(*b)), mul(tuple(table[:, -1]), x, mod)


def eval_all_ext2(f: UniPoly):
    """Values of f over all of F_{p^2}: component arrays (va, vb) of
    length p^2, indexed as ext2_elements."""
    return horner(f.coeffs, ext2_elements(f.modulus.p), f.modulus)


def ext2_root_counts(f: UniPoly):
    """(found, squares): how many distinct roots f != 0 has in F_q, q = p^2,
    and how many of those are squares in F_q (0 counts as one).

    F_q and its squares are the roots of the squarefree t^q - t and
    t^((q+1)/2) - t, which mod f are t*h^2 - t and t*h - t for
    h = t^((q-1)/2) mod f; each count is the degree of a gcd with f.  One
    powmod (Cantor-Zassenhaus, Math. Comp. 1981)."""
    if f.is_zero:
        raise ValueError("every element is a root of the zero polynomial")
    mod, p = f.modulus, f.modulus.p
    h = np.asarray(pow(UniPoly((0, 1), mod), (p * p - 1) // 2, f).coeffs or (0,),
                   _dtype(p))
    th = np.concatenate(([0], h))
    counts = []
    for g in (_mul_arrays(th, h, p), th):  # t*h^2 and t*h, >= 2 coefficients
        g[1] = (g[1] - 1) % p
        counts.append(poly_gcd(f, UniPoly._reduced(g.tolist(), mod)).degree)
    return tuple(counts)


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
