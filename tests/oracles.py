"""Reference functions that only the tests call.

The program needs two of them in one place each and computes them
inline there: the derivative in unipoly.is_separable and the embedding
of F_p into F_{p^2} in ffield.sqrt_fp2_of_fp.  Each docstring states the
inputs the function is meant for.
"""

from math import comb

from hwquartic.ffield import Fp2Element, _as_modulus, components
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
