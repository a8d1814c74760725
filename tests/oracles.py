"""Reference functions that only the tests call.

The program needs two of them in one place each and computes them
inline there: the derivative in unipoly.is_separable and the embedding
of F_p into F_{p^2} in ffield.sqrt_fp2_of_fp.  pochhammer is the
series kernel hypergeom._rising at one length.  kronecker_slots, a
product by Kronecker substitution on byte slots, has no twin in the
program; it is the exact, independent oracle of both regimes of
unipoly._mul_arrays (the direct convolution and the FFT).  Each
docstring states the inputs the function is meant for.
"""

from math import comb

import numpy as np

from hwquartic.ffield import Fp2Element, FpElement, _as_modulus, components
from hwquartic.hypergeom import _residue, _rising
from hwquartic.unipoly import UniPoly


def derivative(f: UniPoly) -> UniPoly:
    """The formal derivative of f, any polynomial over F_p (zero included)."""
    return UniPoly([k * c for k, c in enumerate(f.coeffs)][1:], f.modulus)


def divides(f: UniPoly, g: UniPoly) -> bool:
    """True iff f | g, for f and g over the same F_p.  f must be nonzero
    (ZeroDivisionError otherwise); every f divides 0."""
    if f.is_zero:
        raise ZeroDivisionError("divisibility by the zero polynomial")
    return g.is_zero or g.divmod(f)[1].is_zero


def embed(x) -> Fp2Element:
    """x, an element of F_p or F_{p^2} for any prime p >= 5, as an
    Fp2Element of the same modulus."""
    return Fp2Element(*components(x), x.modulus)


def elliptic_e0_supersingular(mod) -> bool:
    """Supersingularity of Y^2 = X^3 + 1 over F_p, a prime p >= 5 (an int
    or a modulus): the x^(p-1) coefficient of (x^3 + 1)^((p-1)/2),
    binom((p-1)/2, (p-1)/3) or 0 when 3 does not divide p - 1, vanishes
    mod p.  The binomial is exact, so the cost grows with p; meant for p
    up to a few thousand."""
    p = _as_modulus(mod).p
    return (p - 1) % 3 != 0 or comb((p - 1) // 2, (p - 1) // 3) % p == 0


def pochhammer(x, n: int, mod) -> FpElement:
    """(x; n) = x (x+1) ... (x+n-1) mod p, the empty product 1 at n = 0,
    for any n >= 0 (ValueError below; 0 once a factor is p) and x a series
    parameter as gauss_truncated takes it: an int, an element of F_p of
    the same modulus, or a (num, den) tuple with p not dividing den."""
    mod = _as_modulus(mod)
    if n < 0:
        raise ValueError(f"negative Pochhammer length {n}")
    return FpElement(_rising((_residue(x, mod) - 1) % mod.p, n, mod), mod)


def kronecker_slots(a, b, p: int, n=None) -> np.ndarray:
    """The coefficients of a*b below t^n (all of them if n is None) as a
    uint64 array, for nonempty residue sequences a, b mod p, low degree
    first, by Kronecker substitution on k-byte slots.

    Each factor is packed into little-endian slots of k bytes, k wide
    enough for any product coefficient (at most min(len a, len b)
    (p-1)^2), the two ints are multiplied once and each slot is read back
    as one uint64 reduced by % p.  The program multiplies by neither
    packing: below unipoly.FFT_CROSSOVER by np.convolve on int64 (or
    Python ints), from it on by the limb FFT, and this kernel checks
    both.  Meant for k <= 8, which holds at every p <= 2^20 below 2^24
    coefficients; ValueError beyond."""
    full = len(a) + len(b) - 1
    n = full if n is None else min(n, full)
    k = (2 * (p - 1).bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    if k > 8:
        raise ValueError(f"{k}-byte slots do not fit a uint64")

    def packed(c):
        u = np.asarray(c, "<u8").view(np.uint8).reshape(-1, 8)
        return int.from_bytes(u[:, :k].tobytes(), "little")

    slots = np.zeros((n, 8), np.uint8)
    slots[:, :k] = np.frombuffer((packed(a) * packed(b)).to_bytes(k * full, "little"),
                                 np.uint8, k * n).reshape(n, k)
    return slots.view("<u8")[:, 0] % p
