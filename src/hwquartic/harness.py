"""CLI front-end: quartic parsing (the README grammar, as two regexes),
F_{p^2} point counts, verification sweeps.

Report schema (CSV columns, JSON keys identical):

    p,family,param,a_number,p_rank,newton_polygon,eo_type,status,detail

status is PASS, FAIL or SKIP; a_number/p_rank are empty when a row does
not carry a classification.  Exit codes: 0 all rows pass, 1 any failure,
2 usage error, 3 capacity error.  Every command, verify included, is a
row of COMMANDS: a rows function at one prime, which for verify runs the
suite's.  A per-prime precondition is raised once, where the work is, as
a ModulusError or CapacityError whose message is the SKIP detail; the
one per-prime loop, _sweep, re-raises it under --p (exit 2 or 3) and
turns it into a SKIP row in a range.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import families, hypergeom
from .errors import (CapacityError, IntegrityError, ModulusError, ParseError,
                     PoleError)
from .ffield import (Fp2Element, FpElement, _as_modulus, components, is_prime,
                     modulus, power)
from .hwcore import (HWMatrix, QuarticForm, _pivots,
                     _require_oracle_prime, a_number, hw_matrix, hw_matrix_oracle,
                     stable_rank)
from .unipoly import eval_all_ext2, ext2_elements, horner

#: default cap on p for exact F_{p^2} point counting; the grid path of
#: count_points_ext2 makes p^4 evaluations, the triple-cover path p^2
DEFAULT_POINT_BOUND = 60


# ---------------------------------------------------------------------------
# quartic parsing

#: the README grammar, whitespace allowed between tokens: a factor is
#: (x|y|z) ["^" N], a term [sign] [N "*"] factor ("*" factor)*
_FACTOR_RE = re.compile(r"([xyz])(?:\s*\^\s*(\d+))?")
_TERM_RE = re.compile(
    r"\s*(?P<sign>[-+]?)\s*(?P<term>(?:(?P<coeff>\d+)\s*\*\s*)?(?P<mono>{0}"
    r"(?:\s*\*\s*{0})*))".format(_FACTOR_RE.pattern))


def _number(m, group, sign=""):
    """int of group of match m (1 if absent), or a ParseError at it."""
    try:
        return int(sign + (m[group] or "1"))
    except ValueError:
        raise ParseError("number has too many digits", position=m.start(group)) from None


def parse_quartic(text: str, mod) -> QuarticForm:
    """Parse "c*x^i*y^j*z^k + ..." into a QuarticForm, by the README grammar.

    The whole string is matched ('-' or U+2212 may lead, '+' may not)
    before any degree is checked.  Repeated variables and like monomials
    add, coefficients reduce mod p, and the zero form is rejected.
    """
    mod = _as_modulus(mod)
    text = text.replace("−", "-")
    pos, end, matches = 0, len(text.rstrip()), []
    while pos < end:
        m = _TERM_RE.match(text, pos)
        if m is None or m["sign"] == ("" if matches else "+"):
            raise ParseError("expected a term [-] [N*] factor (* factor)*, "
                             "factor x|y|z[^N], joined by + or -", position=pos)
        matches.append(m)
        pos = m.end()
    terms: dict = {}
    for m in matches:
        factors = list(_FACTOR_RE.finditer(text, m.start("mono"), m.end("mono")))
        expo = tuple(sum(_number(f, 2) for f in factors if f[1] == w) for w in "xyz")
        if sum(expo) != 4:
            try:
                degree = f"degree {sum(expo)}"
            except ValueError:  # more digits than str() converts
                degree = "a degree too long to print"
            raise ParseError(f"term '{m['term']}' has {degree}, expected 4",
                             position=m.start("term"))
        coeff = _number(m, "coeff", m["sign"])
        terms[expo] = (terms.get(expo, 0) + coeff) % mod.p
    if not any(terms.values()):
        raise ParseError(f"empty quartic expression: no term is nonzero mod "
                         f"{mod.p}", position=pos)
    return QuarticForm(terms, mod)


_C6_PARAM_RE = re.compile(
    r"^\s*(-?\d+)\s*(?:([+-])\s*(\d+)\s*\*\s*w\s*)?$")


def parse_c6_param(text: str, mod):
    """Parse a C6 parameter: a decimal integer, or "a+b*w" for F_{p^2}."""
    mod = _as_modulus(mod)
    m = _C6_PARAM_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse parameter {text!r}: want N or a+b*w",
                         position=0)
    a = _number(m, 1)
    if m.group(3) is None:
        return FpElement(a, mod)
    b = _number(m, 3, m.group(2))
    return Fp2Element(a, b, mod)


# ---------------------------------------------------------------------------
# point counting over F_{p^2}

def count_points_ext2(F: QuarticForm, bound: int | None = None) -> int:
    """Exact number of projective F_{p^2}-points of F = 0.

    Raises CapacityError before any work when p exceeds the prime bound
    (DEFAULT_POINT_BOUND unless given).  Two paths:

    * Triple cover, when x occurs in a single term c*x^3*l with l in
      {y, z}, so F = c*x^3*l + G(m, l) with {l, m} = {y, z}: every C_r
      and C9.  On the chart l = 1 the points over m = t are the cube
      roots of u(t) = -G(t, 1)/c.  Since q = p^2 = 1 (mod 3), there are
      3, 0 or 1 of them as u(t) is a nonzero cube, a non-cube or zero
      (the cubic character of F_q); the count is their sum over all q
      values of t, read off a table of x -> x^3 on F_q.  The line l = 0
      meets F = 0 in G(m, 0) = g*m^4 = 0: the one point (1:0:0) when
      g != 0, otherwise all q + 1 points of the line.  O(p^2) work.
    * Grid, for any other quartic: F is evaluated at all p^4 points of
      the chart z = 1, then on z = 0.  Also the test oracle of the
      cover path.
    """
    bound = DEFAULT_POINT_BOUND if bound is None else bound
    p = F.modulus.p
    if p > bound:
        raise CapacityError(f"point counting needs p <= {bound}, got {p}")
    x_terms = [e for e in F.terms if e[0]]
    if len(x_terms) == 1 and x_terms[0] in ((3, 1, 0), (3, 0, 1)):
        return _count_points_cover(F, x_terms[0])
    return _count_points_grid(F)


def _count_points_cover(F: QuarticForm, x_term) -> int:
    """Points of c*x^3*l + G(m, l) = 0, c the coefficient of x_term."""
    mod = F.modulus
    p = mod.p
    q = p * p
    m = 2 if x_term[1] else 1
    minus_inv_c = -F.terms[x_term].inverse()
    # u(t) = -G(t, 1)/c, coefficients indexed by the degree of t
    u = [(0, 0)] * 5
    for expo, coeff in F.terms.items():
        if expo != x_term:
            u[expo[m]] = components(coeff * minus_inv_c)
    X = ext2_elements(p)
    ua, ub = horner(u, X, mod)
    # cube_roots[v] = #{x : x^3 = v}, from x^3 at every x
    xa, xb = power(X, 3, mod)
    cube_roots = np.bincount(xa * p + xb, minlength=q)
    count = int(cube_roots[ua * p + ub].sum())
    # the line l = 0: the point (1:0:0) alone, or the whole line
    return count + (1 if u[4] != (0, 0) else q + 1)


def _count_points_grid(F: QuarticForm) -> int:
    """Points of any quartic by evaluation at every point of P^2(F_{p^2}).

    Charts are disjoint by construction: z = 1 (all x, y), then z = 0,
    y = 1 (all x), then the single point (1:0:0).  Evaluation is
    vectorized over F_{p^2} componentwise, p^4 evaluations in all.
    """
    mod = F.modulus
    p = mod.p
    q = p * p
    X = ext2_elements(p)
    # chart z = 1: F(x, y, 1) = sum_j cd_j(x) y^j; cd[j][i] is the x^i y^j
    # coefficient, and the z = 0 chart keeps F(x, 1, 0) = sum_i g[i] x^i
    cd = [[(0, 0)] * 5 for _ in range(5)]
    g = [(0, 0)] * 5
    for (i, j, k), coeff in F.terms.items():
        cd[j][i] = components(coeff)
        if not k:
            g[i] = cd[j][i]
    cd = [horner(c, X, mod) for c in cd]

    count = 0
    chunk = max(1, 1_000_000 // q)
    for lo in range(0, q, chunk):
        # Horner in y: a column of cd_j(x) against the row of all y
        rows = [(ca[lo:lo + chunk, np.newaxis], cb[lo:lo + chunk, np.newaxis])
                for ca, cb in cd]
        va, vb = horner(rows, X, mod)
        count += int(np.count_nonzero((va == 0) & (vb == 0)))

    ga, gb = horner(g, X, mod)
    count += int(np.count_nonzero((ga == 0) & (gb == 0)))

    # the remaining point (1:0:0)
    x4 = F.terms.get((4, 0, 0))
    if x4 is None:
        count += 1
    return count


def hasse_weil_window(p: int):
    """The Hasse-Weil bounds p^2 + 1 -+ 6p on the F_{p^2}-points of genus 3."""
    return p * p + 1 - 6 * p, p * p + 1 + 6 * p


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ReportRow:
    p: int
    family: str = ""
    param: str = ""
    a_number: "int | None" = None
    p_rank: "int | None" = None
    newton_polygon: str = ""
    eo_type: str = ""
    status: str = "PASS"
    detail: str = ""


_FIELDS = fields(ReportRow)
_CSV_COLUMNS = tuple(f.name for f in _FIELDS)
#: the integer columns; a_number and p_rank may be empty (None)
_INT_COLUMNS = ("p", "a_number", "p_rank")
_STATUSES = ("PASS", "FAIL", "SKIP")
#: the families of --family; a row may also name "any" (the oracle suite)
_FAMILIES = ("c6", "c9", "general")


def _cell(f, value):
    """A JSON value as field f holds it: an int (not a bool) or, where f may
    be empty, None in an integer column, a str in any other."""
    if value is None and f.default is None:
        return None
    want = int if f.name in _INT_COLUMNS else str
    if type(value) is want:
        return value
    raise ValueError(f"{f.name} = {value!r} is not "
                     + ("an integer" if want is int else "text"))


def _csv_value(column, text):
    """A CSV cell as JSON holds it: in an integer column "" is None and the
    ASCII digits that str(int) writes are an int; other text stays text."""
    if column in _INT_COLUMNS and re.fullmatch(r"|0|-?[1-9][0-9]*", text):
        return int(text) if text else None
    return text


def _report_row(values, where: str) -> ReportRow:
    """A ReportRow from column -> value; a malformed record, or one that
    the writer cannot emit (p not a prime >= 5, a or f outside 0..3 or a +
    f > 3, an unknown family or status), is a ParseError."""
    try:
        if not isinstance(values, dict) or values.keys() != set(_CSV_COLUMNS):
            raise ValueError(f"want the fields {_CSV_COLUMNS}")
        row = ReportRow(**{f.name: _cell(f, values[f.name]) for f in _FIELDS})
        if row.status not in _STATUSES:
            raise ValueError(f"status {row.status!r} is not one of {_STATUSES}")
        families = (*_FAMILIES, "any")
        if row.family not in families:
            raise ValueError(f"family {row.family!r} is not one of {families}")
        if row.p < 5 or not is_prime(row.p):
            raise ValueError(f"p = {row.p} is not a prime >= 5")
        for name in ("a_number", "p_rank"):
            if getattr(row, name) not in (None, 0, 1, 2, 3):
                raise ValueError(f"{name} = {getattr(row, name)} is outside 0..3")
        if None not in (row.a_number, row.p_rank) and row.a_number + row.p_rank > 3:
            raise ValueError(f"a_number + p_rank = {row.a_number + row.p_rank} > 3")
        return row
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}; got {values!r}") from None


@dataclass
class SweepReport:
    rows: list = field(default_factory=list)

    def add(self, **kw):
        self.rows.append(ReportRow(**kw))

    @property
    def exit_status(self) -> int:
        return int(any(r.status == "FAIL" for r in self.rows))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_CSV_COLUMNS)
        # the csv module writes None, an empty a_number or p_rank, as ""
        w.writerows(map(attrgetter(*_CSV_COLUMNS), self.rows))
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SweepReport":
        rd = csv.reader(io.StringIO(text))
        header = next(rd, None)
        if header is None or tuple(header) != _CSV_COLUMNS:
            raise ParseError(f"unexpected CSV header {header}")
        return cls([_report_row({c: _csv_value(c, t) for c, t in zip(_CSV_COLUMNS, rec)}
                                if len(rec) == len(_CSV_COLUMNS) else rec,
                                f"CSV line {rd.line_num}") for rec in rd])

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.rows], indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        objs = json.loads(text)
        if not isinstance(objs, list):
            raise ParseError("want a JSON array of report rows")
        return cls([_report_row(obj, f"JSON row {i}")
                    for i, obj in enumerate(objs)])


def _classification_columns(cls: families.Classification) -> dict:
    return dict(a_number=cls.a_number, p_rank=cls.p_rank,
                newton_polygon=cls.newton_polygon,
                eo_type="(" + ",".join(str(v) for v in cls.eo_type) + ")")


# ---------------------------------------------------------------------------
# corpora for the oracle suite

def fermat_form(mod) -> QuarticForm:
    return QuarticForm({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, mod)


_EXPONENT_TRIPLES = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]


def random_sparse_quartic(rng: random.Random, mod) -> QuarticForm:
    """Random quartic with 3 to 6 terms and nonzero coefficients; a support
    on a line (always singular, refused by hw_matrix) is drawn again."""
    while True:
        support = rng.sample(_EXPONENT_TRIPLES, rng.randint(3, 6))
        try:
            _pivots(support)
        except ValueError:  # the exponents lie on a line
            continue
        return QuarticForm({e: rng.randint(1, mod.p - 1) for e in support}, mod)


def oracle_corpus(mod):
    """All C_r, the C9 form, Fermat, and 50 seeded random sparse quartics."""
    p = mod.p
    rng = random.Random(f"hw-oracle-{p}")
    forms = [("c6 r=%d" % r, families.c6_form(mod, r))
             for r in range(p) if r not in (2, p - 2)]
    forms.append(("c9", families.c9_form(mod)))
    forms.append(("fermat", fermat_form(mod)))
    for t in range(50):
        forms.append((f"random#{t}", random_sparse_quartic(rng, mod)))
    return forms


# ---------------------------------------------------------------------------
# verification suites

def primes_in(lo: int, hi: int):
    return [p for p in range(max(lo, 5), hi + 1) if is_prime(p)]


def _matrix_detail(M: HWMatrix) -> str:
    return "[" + "; ".join("[" + ",".join(str(e) for e in row) + "]"
                           for row in M.entries) + "]"


def _suite_oracle(report, mod, args):
    _require_oracle_prime(mod.p)  # before the corpus of p + 50 forms
    forms = oracle_corpus(mod)
    bad = [name for name, F in forms if hw_matrix(F) != hw_matrix_oracle(F)]
    report.add(p=mod.p, family="any",
               status="FAIL" if bad else "PASS",
               detail=(f"{len(forms)} forms agree" if not bad
                       else "disagreement on " + ", ".join(bad[:5])))


def _suite_c6_structure(report, mod, args):
    p = mod.p
    anti = p % 6 == 5
    live = {(1, 3), (3, 1)} if anti else {(1, 1), (2, 2), (3, 3)}
    grid = families.c6_coeff_polys(mod)
    problems = [f"slot {(row, col)} nonzero"
                for row in (1, 2, 3) for col in (1, 2, 3)
                if (row, col) not in live
                and not grid[row - 1][col - 1].is_zero]
    rs = np.array([r for r in range(p) if r not in (0, 2, p - 2)])
    try:
        attained = {c.a_number for c in families.c6_classify_all(mod, (rs,))}
    except IntegrityError as exc:
        problems.append(str(exc))
    rng = random.Random(f"hw-structure-{p}")
    candidates = [r for r in range(p) if r not in (2, p - 2)]
    for r in rng.sample(candidates, min(3, len(candidates))):
        if hw_matrix(families.c6_form(mod, r)) != families.c6_hw(mod, r):
            problems.append(f"entry polynomials disagree with hw_matrix at r={r}")
    report.add(p=p, family="c6",
               status="FAIL" if problems else "PASS",
               detail="; ".join(problems) if problems else
               ("anti-diagonal" if anti else "diagonal")
               + f", a-numbers attained {sorted(attained)}")


def _suite_counts(report, mod, args):
    p = mod.p
    n = families.c6_count_max_a(mod)
    per_class = (p - 5) // 12 if p % 6 == 5 else (p - 1) // 12
    ok = n == p // 12 == per_class
    report.add(p=p, family="c6", status="PASS" if ok else "FAIL",
               detail=f"count={n} floor(p/12)={p // 12} class-form={per_class}")


def _suite_c9_table(report, mod, args):
    p = mod.p
    try:
        cls = families.c9_classify(mod)
    except IntegrityError as exc:
        report.add(p=p, family="c9", status="FAIL", detail=str(exc))
        return
    report.add(p=p, family="c9", status="PASS",
               detail=f"p mod 9 = {p % 9}", **_classification_columns(cls))


def _suite_euler(report, mod, args):
    ok = hypergeom.verify_euler(mod)
    report.add(p=mod.p, family="c6", status="PASS" if ok else "FAIL",
               detail="truncated Euler transformation")


def _suite_gauss_lemma(report, mod, args):
    ok = hypergeom.verify_gauss_lemma(mod)
    report.add(p=mod.p, family="c6", status="PASS" if ok else "FAIL",
               detail="series/coefficient congruences at all r")


def _suite_expectation(report, mod, args):
    rep = hypergeom.expectation_check(mod)
    ok = rep.all_square and rep.found == rep.degree
    report.add(p=mod.p, family="c6", status="PASS" if ok else "FAIL",
               detail=f"roots={rep.found} of deg={rep.degree} "
                      f"all_square={rep.all_square}")


def _first_maximal_c6(mod, bound):
    """(r, r in F_p) for the first F_{p^2}-maximal C_r found, or (None, False).

    A maximal curve has Frobenius -p, so F = -V on J[p] and a = 3: the
    matrix vanishes and r is a root of c2.  The caller runs this only
    after the C9 count at p has passed bound; c2 on all of F_{p^2} costs
    the same p^2 evaluations.  Only its roots are counted, r != 0, 2, -2:
    the F_p roots in ascending order, then the others by their components
    (a, b), i.e. the zero indices a*p + b sorted by (b != 0, index).
    """
    p = mod.p
    top = hasse_weil_window(p)[1]
    row, col = families.LOCUS_SLOT[5]
    va, vb = eval_all_ext2(families.c6_coeff_polys(mod)[row - 1][col - 1])
    zeros = np.flatnonzero((va == 0) & (vb == 0)).tolist()
    for i in sorted(zeros, key=lambda i: (i % p != 0, i)):
        a, b = divmod(i, p)
        if not b and a in (0, 2, p - 2):
            continue
        r = Fp2Element(a, b, mod) if b else a
        if count_points_ext2(families.c6_form(mod, r), bound=bound) == top:
            return str(r), not b
    return None, False


def _suite_maximality(report, mod, args):
    p = mod.p
    top = hasse_weil_window(p)[1]
    count = count_points_ext2(families.c9_form(mod), bound=args.bound)
    maximal = count == top
    expected = p % 18 == 17
    report.add(p=p, family="c9",
               status="PASS" if maximal == expected else "FAIL",
               detail=f"points={count} hasse-weil-max={top} "
                      f"maximal={maximal} expected={expected}")
    if not (args.c6_question and p % 6 == 5 and p >= 17):
        return
    # informational search for the open question: is some C_r maximal?
    found, rational = _first_maximal_c6(mod, args.bound)
    coverage = "r swept over F_p only" if rational else "r swept over all of F_p2"
    report.add(p=p, family="c6", param=found or "",
               status="PASS",
               detail=f"maximal C_r {'found at r=' + found if found else 'not found'}"
                      f" ({coverage})")


#: suite -> (family of its SKIP rows, rows at one prime)
_SUITE_FUNCS = {
    "oracle": ("any", _suite_oracle),
    "c6-structure": ("c6", _suite_c6_structure),
    "counts": ("c6", _suite_counts),
    "c9-table": ("c9", _suite_c9_table),
    "euler": ("c6", _suite_euler),
    "gauss-lemma": ("c6", _suite_gauss_lemma),
    "expectation": ("c6", _suite_expectation),
    "maximality": ("c9", _suite_maximality),
}

SUITES = tuple(_SUITE_FUNCS)


# ---------------------------------------------------------------------------
# CLI

def _parse_range(text: str):
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if m is not None:
        lo, hi = _number(m, 1), _number(m, 2)
    if m is None or lo > hi:
        raise ParseError(f"bad range {text!r}: want A..B with A <= B")
    return lo, hi


def _resolve_primes(args):
    """The primes of --p / --p-range."""
    if args.p is not None and args.p_range is not None:
        raise ParseError("--p and --p-range are mutually exclusive")
    if args.p is not None:
        return [modulus(args.p).p]  # ModulusError unless a prime >= 5
    if args.p_range is not None:
        return primes_in(*_parse_range(args.p_range))
    raise ParseError("one of --p or --p-range is required")


def _family_at(args, mod):
    """(param, r, F) at p: r the C_r parameter (r != +-2), F the --quartic."""
    if args.family == "general":
        F = parse_quartic(args.quartic, mod)
        _pivots(list(F.terms))  # ValueError for exponents on a line
        return args.quartic, None, F
    if args.family == "c9":
        return "", None, None
    r = parse_c6_param(args.r, mod)
    families._reject_singular(mod, r)
    return str(r), r, None


def _param_at(args, mod) -> str:
    """The param column of a command's rows at p ("" for verify and
    enumerate, which take no --quartic)."""
    return _family_at(args, mod)[0] if "quartic" in args else ""


def _sweep(primes, args, rows) -> SweepReport:
    """rows(report, mod, args) at each prime.  A ModulusError or
    CapacityError from rows is re-raised under --p, else a SKIP row of
    args.family and _param_at, with the error's message as detail."""
    report = SweepReport()
    for p in primes:
        mod = modulus(int(p))
        try:
            rows(report, mod, args)
        except (ModulusError, CapacityError) as exc:
            if args.p is not None:
                raise
            report.add(p=mod.p, family=args.family, param=_param_at(args, mod),
                       status="SKIP", detail=str(exc))
    return report


def _hw_row(report, mod, args, detail=None):
    param, r, F = _family_at(args, mod)
    M = (families.c6_hw(mod, r) if args.family == "c6"
         else families.c9_hw(mod) if args.family == "c9" else hw_matrix(F))
    report.add(p=mod.p, family=args.family, param=param,
               a_number=a_number(M), p_rank=stable_rank(M),
               detail=detail or _matrix_detail(M))


def _classify_row(report, mod, args):
    if args.family == "general":
        return _hw_row(report, mod, args,
                       "NP/EO lookup applies to c6/c9 families only")
    param, r, _ = _family_at(args, mod)
    cls = (families.c6_classify(mod, r) if args.family == "c6"
           else families.c9_classify(mod))
    report.add(p=mod.p, family=args.family, param=param,
               **_classification_columns(cls))


def _enumerate_rows(report, mod, args):
    """One row per F_p-rational isomorphism class {r, -r}, plus a summary.

    The closure count (the floor(p/12) statement) includes parameters
    living in extensions, so the rational sweep may find fewer.
    """
    p = mod.p
    max_a = 3 if p % 6 == 5 else 2
    rational = 0
    rs = [r for r in range(1, (p - 1) // 2 + 1) if r != 2]
    for r, cls in zip(rs, families.c6_classify_all(mod, (np.array(rs),))):
        if cls.a_number == max_a:
            rational += 1
        report.add(p=p, family="c6", param=f"{r}",
                   **_classification_columns(cls),
                   detail=f"isomorphism class {{{r}, {p - r}}}")
    closure = families.c6_count_max_a(mod)
    expected = p // 12
    report.add(p=p, family="c6", param="max-a-count",
               status="PASS" if closure == expected else "FAIL",
               detail=f"classes over the closure with a={max_a}: {closure} "
                      f"(floor(p/12)={expected}), {rational} with r in F_p")


def _count_points_row(report, mod, args):
    param, r, F = _family_at(args, mod)
    if F is None:
        F = (families.c9_form(mod) if args.family == "c9"
             else families.c6_form(mod, r))
    n = count_points_ext2(F, bound=args.bound)
    lo, hi = hasse_weil_window(mod.p)
    report.add(p=mod.p, family=args.family, param=param,
               detail=f"points={n} maximal={n == hi} window=[{lo},{hi}]")


def _verify_rows(report, mod, args):
    _SUITE_FUNCS[args.suite][1](report, mod, args)


_FAMILY_FLAGS = ("--family", "--r", "--quartic")

#: command -> (rows at one prime, arguments beyond --p, --p-range, --format)
COMMANDS = {
    "hw": (_hw_row, _FAMILY_FLAGS),
    "classify": (_classify_row, _FAMILY_FLAGS),
    "enumerate": (_enumerate_rows, ()),
    "count-points": (_count_points_row, _FAMILY_FLAGS + ("--bound",)),
    "verify": (_verify_rows, ("suite", "--bound", "--c6-question")),
}

#: every argument after the command, declared once
_ARGUMENTS = {
    "suite": dict(choices=SUITES, help="the suite verify runs"),
    "--p": dict(type=int, help="a single prime >= 5"),
    "--p-range": dict(metavar="A..B", help="sweep all primes in [A, B]"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--family": dict(choices=_FAMILIES),
    "--r": dict(help="C6 parameter: integer or a+b*w"),
    "--quartic": dict(metavar="EXPR",
                      help='general quartic, e.g. "x^3*z + y^4 + z^4"'),
    "--bound": dict(type=int, help="point-count prime cap (default "
                    f"{DEFAULT_POINT_BOUND}); verify: maximality only"),
    "--c6-question": dict(action="store_true", help="verify maximality: "
                          "also seek a maximal C_r, r in F_p2"),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of command, holding the arguments COMMANDS gives it (all
    of them when command is not one), so a flag the command does not take
    is unrecognized and abbreviations resolve among its own flags.  main
    takes each parser from _PARSERS, built once at import; --help wraps to
    the terminal width at the time it prints (HelpFormatter reads it then)."""
    takes = (("--p", "--p-range", "--format") + COMMANDS[command][1]
             if command in COMMANDS else _ARGUMENTS)
    ap = argparse.ArgumentParser(
        prog="hwquartic",
        description="Hasse-Witt matrices and invariants of the C6/C9 "
                    "genus-3 quartic families over prime fields.")
    ap.add_argument("command", choices=COMMANDS,
                    help="hw: Hasse-Witt matrix; classify: invariants; enumerate"
                         ": C6 classes; count-points: F_p2 points; verify: suite")
    for name, kw in _ARGUMENTS.items():
        if name in takes:
            ap.add_argument(name, **kw)
    return ap


#: the parser of each command, and of no command (None)
_PARSERS = {command: build_parser(command) for command in (*COMMANDS, None)}


def _settle(args):
    """args.family, the family of every row and SKIP row: the suite's for
    verify, c6 for enumerate, else --family, or the family that --quartic
    or --r implies.  Rejects a flag that cannot apply."""
    if "suite" in args and args.suite != "maximality" and (
            args.bound is not None or args.c6_question):
        raise ParseError("--bound and --c6-question apply to the "
                         f"maximality suite only, not {args.suite}")
    if "quartic" not in args:  # verify and enumerate
        args.family = _SUITE_FUNCS[args.suite][0] if "suite" in args else "c6"
        return
    fam = args.family or ("general" if args.quartic is not None
                          else "c6" if args.r is not None else None)
    if fam is None:
        raise ParseError("need --family (or --quartic / --r)")
    for flag, value, owner in (("--quartic", args.quartic, "general"),
                               ("--r", args.r, "c6")):
        if (value is None) == (fam == owner):
            raise ParseError(f"--family {owner} needs {flag}, and {flag} "
                             f"needs --family {owner} (got {fam})")
    args.family = fam


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        args = _PARSERS.get(command, _PARSERS[None]).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command != command:
            raise ParseError(f"the command must come first, not {command!r}")
        _settle(args)
        report = _sweep(_resolve_primes(args), args, COMMANDS[command][0])
        print(report.to_json() if args.format == "json" else report.to_csv(),
              end="")
        return report.exit_status
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ModulusError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (IntegrityError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
