"""Correctness gate of the benchmark, run outside the timed region.

``check`` judges one call's output against an independent reference:

* every ``verify`` row must be PASS, for the requested prime, and the
  C9 point count of ``verify maximality`` must pass the point-count check
  below with M from ``c9_hw``;
* ``enumerate`` must list every class {r, -r} and pass its summary row,
  whose closure count must equal floor(p/12);
* ``classify --quartic`` at p <= 31 must equal the expansion oracle
  ``hw_matrix_oracle`` (a-number and p-rank);
* ``count-points`` must lie in the Hasse-Weil window and satisfy
  #C(F_{p^2}) = 1 - tr(M * M^(p)) (mod p) with M from ``c6_hw``.

A non-zero exit (a capacity error included), anything on stderr, or a
report that does not parse also fails.  For the seeds in ``golden/``
every output must also equal the checked-in digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

COLUMNS = ["p", "family", "param", "a_number", "p_rank", "newton_polygon",
           "eo_type", "status", "detail"]

ORACLE_BOUND = 31

_COUNT_RE = re.compile(r"^points=(\d+) maximal=(True|False) window=\[(-?\d+),(\d+)\]$")
_MAXIMALITY_RE = re.compile(r"^points=(\d+) ")
_ENUM_RE = re.compile(r"closure with a=\d: (\d+) \(floor\(p/12\)=(\d+)\)")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_rows(out: str) -> list:
    table = list(csv.reader(io.StringIO(out)))
    if not table or table[0] != COLUMNS:
        raise ValueError("missing or wrong CSV header")
    if any(len(rec) != len(COLUMNS) for rec in table[1:]):
        raise ValueError("row with the wrong number of columns")
    return [dict(zip(COLUMNS, rec)) for rec in table[1:]]


def check(item, rc, out: str, err: str):
    """None when the call's output is correct, else the reason it is not."""
    if rc != 0:
        return f"exit status {rc}: {err.strip()[:200]}"
    if err:
        return f"stderr: {err.strip()[:200]}"
    try:
        rows = parse_rows(out)
    except ValueError as exc:
        return str(exc)
    if not rows:
        return "empty report"
    if any(row["p"] != str(item["p"]) for row in rows):
        return "row for the wrong prime"
    bad = [row for row in rows if row["status"] != "PASS"]
    if bad:
        return f"status {bad[0]['status']}: {bad[0]['detail']}"
    return _KIND_CHECKS[item["kind"]](item, rows)


def _check_verify(item, rows):
    want = 2 if "--c6-question" in item["argv"] and item["p"] >= 17 else 1
    if len(rows) != want:
        return f"{len(rows)} rows, want {want}"
    if item["argv"][1] == "maximality":
        from hwquartic import c9_hw, modulus
        m = _MAXIMALITY_RE.match(rows[0]["detail"])
        if m is None:
            return f"unparsed detail {rows[0]['detail']!r}"
        return _point_count_reason(item["p"], int(m.group(1)),
                                   c9_hw(modulus(item["p"])))
    return None


def _check_enumerate(item, rows):
    p = item["p"]
    if len(rows) != (p - 1) // 2:
        return f"{len(rows)} rows, want {(p - 1) // 2}"
    summary = rows[-1]
    m = _ENUM_RE.search(summary["detail"])
    if summary["param"] != "max-a-count" or m is None:
        return "missing max-a-count summary row"
    if int(m.group(1)) != p // 12 or int(m.group(2)) != p // 12:
        return f"closure count {m.group(1)} != floor(p/12) = {p // 12}"
    return None


def _check_classify(item, rows):
    from hwquartic import QuarticForm, a_number, hw_matrix_oracle, stable_rank
    if len(rows) != 1:
        return f"{len(rows)} rows, want 1"
    row = rows[0]
    if row["family"] != "general" or row["param"] != item["argv"][2]:
        return "row does not echo the quartic"
    try:
        a, f = int(row["a_number"]), int(row["p_rank"])
    except ValueError:
        return "a-number or p-rank is not an integer"
    if not (0 <= a <= 3 and 0 <= f <= 3 - a):
        return f"impossible invariants a={a} f={f}"
    p = item["p"]
    if p <= ORACLE_BOUND:
        F = QuarticForm({(i, j, k): c for i, j, k, c in item["terms"]}, p)
        M = hw_matrix_oracle(F)
        if (a, f) != (a_number(M), stable_rank(M)):
            return (f"a={a} f={f} but the oracle gives "
                    f"a={a_number(M)} f={stable_rank(M)}")
    return None


def _check_count_points(item, rows):
    from hwquartic import c6_hw, modulus
    if len(rows) != 1:
        return f"{len(rows)} rows, want 1"
    m = _COUNT_RE.match(rows[0]["detail"])
    if m is None:
        return f"unparsed detail {rows[0]['detail']!r}"
    n, lo, hi = int(m.group(1)), int(m.group(3)), int(m.group(4))
    p = item["p"]
    if (lo, hi) != (p * p + 1 - 6 * p, p * p + 1 + 6 * p):
        return f"wrong Hasse-Weil window [{lo},{hi}]"
    if (m.group(2) == "True") != (n == hi):
        return f"{n} points labelled maximal={m.group(2)}"
    return _point_count_reason(p, n, c6_hw(modulus(p), item["r"]))


def _point_count_reason(p, n, hw):
    """Why n cannot be #C(F_{p^2}) for a genus-3 curve with Hasse-Witt
    matrix hw, or None: n must lie in the Hasse-Weil window and satisfy
    n = 1 - tr(M * M^(p)) (mod p)."""
    if abs(n - (p * p + 1)) > 6 * p:
        return f"{n} points outside the Hasse-Weil window"
    M = [[int(e) for e in row] for row in hw.entries]
    Mp = [[pow(e, p, p) for e in row] for row in M]
    trace = sum(M[i][k] * Mp[k][i] for i in range(3) for k in range(3))
    if (n - 1 + trace) % p:
        return f"{n} points contradicts the Hasse-Witt trace mod p"
    return None


_KIND_CHECKS = {
    "verify": _check_verify,
    "enumerate": _check_enumerate,
    "classify": _check_classify,
    "count-points": _check_count_points,
}


def load_golden(workload: str, seed: int):
    """{item id: digest} for a shipped seed, else None."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def judge(items, sweeps, golden=None) -> list:
    """Failure reason per call, sweep by sweep (None for a correct call).

    Each item's first call is checked against the reference and, when
    given, the golden digest; a later call fails too when it returns
    anything other than what the first call returned.
    """
    first = sweeps[0]
    verdict = []
    for item, call in zip(items, first):
        reason = check(item, call.rc, call.out, call.err)
        if reason is None and golden is not None:
            want = golden.get(item["id"])
            if want != call.digest:
                reason = f"output differs from golden digest {want}"
        verdict.append(reason)
    out = []
    for sweep in sweeps:
        out.append([
            reason or (None if (c.rc, c.digest, c.err) == (f.rc, f.digest, f.err)
                       else "output differs from the first sweep")
            for reason, c, f in zip(verdict, sweep, first)])
    return out
