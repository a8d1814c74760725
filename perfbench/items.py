"""Seeded item lists for the three benchmark workloads.

An item is one call of the CLI entry point ``hwquartic.harness.main``:
a dict with an ``id``, the ``argv`` list the program receives, the
``kind`` of check that applies to its output, the prime ``p`` and, where
the check needs it, the generated input (``terms`` or ``r``).  The same
(workload, seed) pair always gives the same list.  Nothing here imports
the program, so the inputs do not depend on the code being measured.
"""

from __future__ import annotations

import random

#: capacity bounds documented by the program, fixed here so that a later
#: change to the program's defaults cannot change the inputs
POINT_BOUND = 60          # exact F_{p^2} point counting: p <= 60
ROOT_BOUND = 250_000      # root exhaustion over F_{p^2}: p^2 <= 250000

#: (p, support) pairs of the `general` workload.  A support lists the
#: exponent triples ijk of x^i y^j z^k.  The composition enumerator's cost
#: depends on the support and p only, never on the coefficients, so the
#: list is fixed and the seed draws only the nonzero coefficients.  The
#: pairs were drawn at random in three bands (p <= 31 with 6-8 terms,
#: p <= 199 with 5-6 terms, p <= 1009 with 4-5 terms) and kept when
#: hw_matrix took 8-150 ms on a 2-core Xeon, so that no item dominates.
SUPPORTS = (
    (13, "013 121 130 211 220 301 310"),
    (13, "004 013 103 112 121 130 310"),
    (13, "013 022 130 211 301 310 400"),
    (13, "004 022 112 130 211 301 310 400"),
    (13, "013 031 040 121 130 202 220 301"),
    (13, "004 013 031 040 103 112 301 400"),
    (17, "103 112 121 130 202 211 400"),
    (17, "004 013 022 112 121 130 211"),
    (17, "013 022 031 112 121 301 400"),
    (17, "022 040 112 130 202 211 310"),
    (17, "013 112 121 130 211 301 310"),
    (17, "022 040 202 211 220 301 400"),
    (17, "004 022 112 202 211 301 400"),
    (17, "004 022 031 040 121 202 220 310"),
    (19, "004 013 112 130 211 220"),
    (19, "031 103 130 301 310 400"),
    (19, "004 013 022 130 220 400"),
    (19, "004 031 112 121 211 220"),
    (19, "004 013 031 040 301 400"),
    (19, "004 022 031 040 202 301 310"),
    (19, "004 022 031 040 103 301 310 400"),
    (23, "013 031 202 211 310 400"),
    (23, "022 040 112 121 130 400"),
    (23, "040 103 121 202 211 301"),
    (23, "013 103 112 121 310 400"),
    (23, "004 013 040 112 130 211"),
    (23, "013 031 040 202 211 400"),
    (23, "013 022 031 130 220 301"),
    (23, "004 013 040 112 121 310"),
    (23, "004 103 121 130 211 220"),
    (23, "040 112 211 220 301 310 400"),
    (29, "013 022 040 130 202 211"),
    (29, "004 031 130 211 301 400"),
    (29, "004 013 040 121 301 400"),
    (29, "004 013 112 121 220 400"),
    (29, "004 040 103 121 130 301"),
    (29, "004 040 103 112 121 130 220"),
    (31, "013 031 112 121 211 310"),
    (31, "004 022 220 301 310 400"),
    (31, "022 031 040 121 130 301 400"),
    (37, "013 103 121 130 220 400"),
    (37, "013 022 103 112 130 400"),
    (41, "013 103 130 211 220"),
    (41, "004 022 031 121 202 220"),
    (43, "022 040 112 211 400"),
    (47, "013 040 103 130 202"),
    (47, "004 031 130 202 211"),
    (47, "121 130 202 211 301 400"),
    (47, "031 103 112 202 310 400"),
    (59, "022 112 130 211 301"),
    (59, "004 013 022 040 112 202"),
    (61, "013 040 103 112 310 400"),
    (67, "022 031 112 130 202"),
    (67, "013 040 121 130 202"),
    (67, "004 040 220 301 310 400"),
    (71, "013 022 031 202 400"),
    (79, "013 103 121 130 202"),
    (79, "040 103 121 130 400"),
    (89, "013 022 031 202 310"),
    (97, "013 112 130 202 301"),
    (97, "013 040 202 211 310"),
    (101, "004 040 130 202 220"),
    (101, "013 103 112 121 211"),
    (101, "013 031 202 301 310"),
    (109, "013 040 130 202 310"),
    (113, "013 022 031 121 220"),
    (113, "022 040 103 112 310"),
    (131, "031 103 112 202 400"),
    (131, "013 022 103 121 211"),
    (149, "112 121 211 301 310"),
    (163, "013 103 112 130 301"),
    (163, "022 121 130 301 310"),
    (163, "004 022 040 202 301"),
    (167, "022 121 202 301 310"),
    (173, "013 103 112 121 130"),
    (179, "004 040 112 202 400"),
    (181, "004 022 031 301 400"),
    (181, "004 022 112 211 400"),
    (191, "004 022 112 121 301"),
    (193, "040 202 220 301 400"),
    (239, "103 112 121 130 301"),
    (241, "013 121 202 310"),
    (263, "022 130 220 301 310"),
    (269, "112 121 130 310 400"),
    (313, "004 013 022 112 220"),
    (397, "103 112 130 220 310"),
    (409, "022 130 211 301"),
    (409, "022 040 130 211"),
    (431, "004 031 220 400"),
    (439, "013 121 130 220"),
    (443, "013 040 112 400"),
    (449, "004 103 112 202 220"),
    (463, "022 103 301 310"),
    (463, "004 031 103 202 400"),
    (487, "040 112 220 301"),
    (503, "004 103 121 202 400"),
    (503, "040 112 130 211 310"),
    (557, "022 040 112 301"),
    (607, "004 022 112 211"),
    (619, "031 103 220 301"),
    (641, "022 040 211 301"),
    (661, "004 031 121 202"),
    (661, "022 031 220 400"),
    (661, "040 103 121 202"),
    (683, "013 022 301 310"),
    (739, "103 130 202 310"),
    (769, "013 130 301 400"),
    (773, "013 031 112 202"),
    (787, "040 112 130 202"),
    (809, "013 040 112 400"),
    (821, "004 022 112 301"),
    (857, "022 211 301 310"),
    (857, "004 013 211 220"),
    (877, "022 112 130 301"),
    (887, "013 022 202 211"),
    (907, "031 121 211 220"),
    (907, "031 202 220 400"),
    (929, "004 112 130 301"),
    (929, "031 103 130 400"),
    (941, "013 031 130 220"),
)


def primes_upto(n: int) -> list:
    """Primes 5 <= p <= n."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for k in range(2, int(n ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytearray(len(sieve[k * k::k]))
    return [k for k in range(5, n + 1) if sieve[k]]


_PRIMES = primes_upto(3000)


def _primes_in(lo: int, hi: int, residue=None) -> list:
    """Primes p >= 5 with lo <= p < hi, optionally only those with p % 6 == residue."""
    return [p for p in _PRIMES
            if lo <= p < hi and (residue is None or p % 6 == residue)]


def _strata(rng, hi, width, k, residue=None):
    """k seeded primes from each stratum [lo, lo + width) below hi."""
    out = []
    for lo in range(0, hi, width):
        pool = _primes_in(lo, lo + width, residue)
        out += sorted(rng.sample(pool, min(k, len(pool))))
    return out


def _verify(suite, p, *flags):
    return {"id": f"{suite}-{p}", "kind": "verify", "p": p,
            "argv": ["verify", suite, "--p", str(p), *flags]}


def families(rng) -> list:
    """The closed-form C6/C9 lane: counts, tables and identities at many primes."""
    items = [_verify("c9-table", p) for p in _primes_in(5, 3000)]
    items += [_verify("counts", p) for p in _strata(rng, 3000, 100, 2)]
    items += [_verify("euler", p) for p in _strata(rng, 3000, 100, 1, 5)]
    items += [_verify("c6-structure", p) for p in _strata(rng, 700, 100, 2)]
    items += [_verify("gauss-lemma", p) for p in _strata(rng, 700, 100, 1, 5)]
    for lo in (990, 1990):
        p = rng.choice(_primes_in(lo, lo + 20))
        items.append({"id": f"enumerate-{p}", "kind": "enumerate", "p": p,
                      "argv": ["enumerate", "--p", str(p)]})
    return items


def quartic_text(terms) -> str:
    """"c*x^i*y^j*z^k + ..." for [(i, j, k, c), ...]."""
    def mono(i, j, k):
        return "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip("xyz", (i, j, k)) if e)
    return " + ".join(f"{c}*{mono(i, j, k)}" for i, j, k, c in terms)


def general(rng) -> list:
    """classify --quartic on the fixed supports, seeded coefficients."""
    items = []
    for n, (p, support) in enumerate(SUPPORTS):
        terms = [tuple(int(d) for d in e) + (rng.randint(1, p - 1),)
                 for e in support.split()]
        items.append({"id": f"general-{n}", "kind": "classify", "p": p,
                      "terms": terms,
                      "argv": ["classify", "--quartic", quartic_text(terms),
                               "--p", str(p)]})
    return items


#: count-points calls per prime: many cheap small-p counts, few near the
#: cap.  The 20 calls at p = 19 hold the median item, so item_p50_ms stays
#: inside one cluster of equal-cost calls whatever primes the seed picks.
_COUNT_DRAWS = {p: 20 if p == 19 else 6 if p <= 23 else 3 if p <= 31 else 1
                for p in _primes_in(5, 48)}


def ext2(rng) -> list:
    """Exhaustion over F_{p^2}: point counts and root finding near their caps."""
    items = []
    for p in _primes_in(5, 48) + [59]:
        if p in (17, 23, 29):
            items.append(_verify("maximality", p, "--c6-question"))
        else:
            items.append(_verify("maximality", p))
    pool = _primes_in(17, 500, 5)
    for n in range(0, len(pool), 2):
        items.append(_verify("expectation", rng.choice(pool[n:n + 2])))
    for p, draws in _COUNT_DRAWS.items():
        allowed = [r for r in range(1, p) if r not in (2, p - 2)]
        for d in range(draws):
            r = rng.choice(allowed)
            items.append({"id": f"count-points-{p}-{d}", "kind": "count-points",
                          "p": p, "r": r,
                          "argv": ["count-points", "--family", "c6",
                                   "--r", str(r), "--p", str(p)]})
    return items


def fp(rng) -> list:
    """Everything over F_p: the closed-form family lane, then general quartics."""
    return families(rng) + general(rng)


WORKLOADS = {"fp": fp, "ext2": ext2}


def build(workload: str, seed: int) -> list:
    """The item list of a workload for a seed; raises on an unknown name."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {tuple(WORKLOADS)}")
    items = WORKLOADS[workload](random.Random(f"{workload}-{seed}"))
    for item in items:
        within_caps(item)
    return items


def within_caps(item) -> None:
    """Reject an item outside the program's capacity bounds."""
    p = item["p"]
    if item["argv"][0] == "count-points" or item["argv"][1:2] == ["maximality"]:
        if p > POINT_BOUND:
            raise ValueError(f"{item['id']}: point counting needs p <= {POINT_BOUND}")
    if item["argv"][1:2] == ["expectation"] and p * p > ROOT_BOUND:
        raise ValueError(f"{item['id']}: root exhaustion needs p^2 <= {ROOT_BOUND}")
