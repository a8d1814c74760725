import argparse
import gc
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwquartic import families
from hwquartic.errors import CapacityError, IntegrityError, ParseError
from hwquartic.ffield import (Fp2Element, FpElement, _as_modulus, components,
                              modulus)
from hwquartic.harness import (_EXPONENT_TRIPLES, COMMANDS, SUITES,
                               ReportRow, SweepReport, _count_points_grid,
                               build_parser, count_points_ext2, fermat_form,
                               hasse_weil_window, main, oracle_corpus,
                               parse_c6_param, parse_quartic, primes_in)
from hwquartic.hwcore import ORACLE_PRIME_BOUND, QuarticForm
from hwquartic.unipoly import roots_over


# ---------------------------------------------------------------------------
# parsing

def test_parse_quartic_c6():
    F = parse_quartic("x^3*z + y^4 + 3*y^2*z^2 + z^4", 7)
    assert F == families.c6_form(modulus(7), 3)


def test_parse_quartic_c9():
    assert parse_quartic("x^3*y + y^3*z + z^4", 11) == \
        families.c9_form(modulus(11))


def test_parse_quartic_signs_and_reduction():
    F = parse_quartic("2*x^4 - 9*y^4 + x^2*y*z", 7)
    assert F.terms[(4, 0, 0)] == 2
    assert F.terms[(0, 4, 0)] == 7 - 2
    assert F.terms[(2, 1, 1)] == 1
    # coefficients reduce mod p; a term can cancel away entirely
    F = parse_quartic("7*x^4 + y^4", 7)
    assert (4, 0, 0) not in F.terms
    F = parse_quartic("-x^4 + y^4", 5)
    assert F.terms[(4, 0, 0)] == 4
    # repeated variables multiply out
    F = parse_quartic("x*x*y^2", 5)
    assert F.terms == {(2, 2, 0): FpElement(1, modulus(5))}


def test_parse_quartic_degree_error_names_term():
    with pytest.raises(ParseError) as exc:
        parse_quartic("x^3 + y^4", 7)
    assert "x^3" in str(exc.value) and "degree 3" in str(exc.value)


def test_parse_quartic_syntax_errors_carry_position():
    for text in ("x^3*z +", "3 y^4", "x^", "x^3*z ++ y^4", "x^3*w", "", "+x^4"):
        with pytest.raises(ParseError) as exc:
            parse_quartic(text, 7)
        assert exc.value.position is not None


def test_parse_quartic_rejects_the_zero_form():
    for text, p in (("x^4 - x^4", 7), ("7*x^4", 7), ("5*y^4 + 0*z^4", 5),
                    ("", 7), (" \t", 7)):
        with pytest.raises(ParseError, match="empty quartic expression") as exc:
            parse_quartic(text, p)
        assert 0 <= exc.value.position <= len(text)


def test_parse_quartic_checks_syntax_before_degree():
    """A string outside the grammar is a syntax error, even when a term
    read before the bad spot has the wrong degree."""
    for text in ("x^3 + y^4 +", "x^3 + 2 y^4", "x^3*z + y^5 $"):
        with pytest.raises(ParseError, match="expected a term") as exc:
            parse_quartic(text, 7)
        assert 0 <= exc.value.position <= len(text)


# Reference parser for the property below: a tokenizer and a state
# machine, written apart from the grammar regexes of parse_quartic.

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[xyz])|(?P<op>[-+*^]))")


def _tokenize(text):
    out = []
    pos = 0
    text = text.replace("−", "-")
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if stripped == "":
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             position=where)
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "var":
            out.append(("var", m.group("var"), m.start("var")))
        else:
            out.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    return out


def reference_parse_quartic(text: str, mod) -> QuarticForm:
    """Parse "c*x^i*y^j*z^k + ..." into a QuarticForm.

    Every term must have total degree 4; coefficients are integers,
    reduced mod p, with '-' folding into the coefficient sign.
    """
    mod = _as_modulus(mod)
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty quartic expression", position=0)
    terms: dict = {}
    i = 0
    n = len(toks)
    first = True
    while i < n:
        kind, _val, pos = toks[i]
        sign = 1
        if kind in "+-":
            if first and kind == "+":
                raise ParseError("leading '+' is not allowed", position=pos)
            sign = -1 if kind == "-" else 1
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", position=pos)
        first = False
        if i >= n:
            raise ParseError("dangling sign at end of expression", position=pos)
        term_pos = toks[i][2]
        coeff = 1
        if toks[i][0] == "int":
            coeff = toks[i][1]
            i += 1
            if i >= n or toks[i][0] != "*":
                where = toks[i][2] if i < n else term_pos
                raise ParseError("expected '*' between coefficient and monomial",
                                 position=where)
            i += 1
        expo = [0, 0, 0]
        saw_var = False
        while True:
            if i >= n or toks[i][0] != "var":
                where = toks[i][2] if i < n else term_pos
                raise ParseError("expected a variable x, y or z", position=where)
            v = "xyz".index(toks[i][1])
            i += 1
            e = 1
            if i < n and toks[i][0] == "^":
                i += 1
                if i >= n or toks[i][0] != "int":
                    where = toks[i][2] if i < n else term_pos
                    raise ParseError("expected an integer exponent after '^'",
                                     position=where)
                e = toks[i][1]
                i += 1
            expo[v] += e
            saw_var = True
            if i < n and toks[i][0] == "*":
                i += 1
                continue
            break
        if not saw_var:
            raise ParseError("term has no monomial part", position=term_pos)
        if sum(expo) != 4:
            snippet = text[term_pos:toks[i][2]] if i < n else text[term_pos:]
            raise ParseError(
                f"term '{snippet.strip()}' has degree {sum(expo)}, expected 4",
                position=term_pos)
        key = tuple(expo)
        terms[key] = (terms.get(key, 0) + sign * coeff) % mod.p
    return QuarticForm(terms, mod)


_WS = st.sampled_from(["", "", " ", "  ", "\t", " \t "])


@st.composite
def _factors(draw):
    """The factors of one term as "v^e" text: of degree 4 or of a random
    degree, a variable possibly repeated, with "^0" and zero-padded
    exponents such as "^04"."""
    expo = draw(st.sampled_from(_EXPONENT_TRIPLES) | st.tuples(
        *[st.integers(0, 3)] * 3))
    parts = []
    for v, e in zip("xyz", expo):
        cut = draw(st.integers(0, e)) if e >= 2 else 0
        parts += [(v, a) for a in (cut, e - cut) if a]
    parts += [(v, 0) for v in draw(st.lists(st.sampled_from("xyz"), max_size=1))]
    out = []
    for v, e in draw(st.permutations(parts or [("x", 0)])):
        bare = e == 1 and draw(st.booleans())
        out.append(v if bare else v + draw(_WS) + "^" + draw(_WS)
                   + draw(st.sampled_from(["", "0"])) + str(e))
    return out


@st.composite
def near_quartics(draw):
    """1-6 grammar-built terms, then at most one character inserted or
    deleted."""
    def term():
        coeff = draw(st.none() | st.integers(0, 30))
        head = "" if coeff is None else f"{coeff}{draw(_WS)}*{draw(_WS)}"
        return head + f"{draw(_WS)}*{draw(_WS)}".join(draw(_factors()))

    text = draw(_WS) + draw(st.sampled_from(["", "-", "−"])) + draw(_WS) + term()
    for _ in range(draw(st.integers(0, 5))):
        text += draw(_WS) + draw(st.sampled_from("+-−")) + draw(_WS) + term()
    text += draw(_WS)
    edit = draw(st.sampled_from(["none", "insert", "delete"]))
    i = draw(st.integers(0, len(text)))
    if edit == "insert":
        text = text[:i] + draw(st.sampled_from("xyz^*+-− 0123w")) + text[i:]
    elif edit == "delete":
        text = text[:i] + text[i + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(near_quartics(), st.sampled_from([5, 7, 31]))
def test_parse_quartic_matches_the_reference_parser(text, p):
    """Both parsers accept with equal terms or both raise ParseError; the
    reference accepts the zero form, which parse_quartic rejects."""
    try:
        want = reference_parse_quartic(text, p).terms or None
    except ParseError:
        want = None
    try:
        got = parse_quartic(text, p).terms
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        got = None
    assert got == want


def test_parse_c6_param():
    m = modulus(11)
    assert parse_c6_param("5", m) == FpElement(5, m)
    assert parse_c6_param("-3", m) == FpElement(8, m)
    assert parse_c6_param("1+2*w", m) == Fp2Element(1, 2, m)
    assert parse_c6_param("4 - 3*w", m) == Fp2Element(4, 8, m)
    with pytest.raises(ParseError):
        parse_c6_param("w+1", m)


#: more digits than int() converts from a string (4300 by default)
_LONG = "1" * 5000


@pytest.mark.parametrize("argv, position", [
    (["hw", "--quartic", _LONG + "*x^4 + y^4", "--p", "7"], 0),
    (["hw", "--quartic", "x^" + _LONG + " + y^4", "--p", "7"], 2),
    (["hw", "--r", _LONG, "--p", "7"], 0),
    (["hw", "--r", "3+" + _LONG + "*w", "--p", "7"], 2),
    (["verify", "counts", "--p-range", "5.." + _LONG], 3),
    (["verify", "counts", "--p-range", _LONG + "..5"], 0),
])
def test_cli_overlong_number_is_a_parse_error_at_its_position(capsys, argv,
                                                              position):
    """A coefficient, exponent, parameter or range bound with more digits
    than int() takes is a ParseError at the number, not Python's own
    ValueError."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("usage error: number has too many digits "
                                 f"(at position {position})\n")


@pytest.mark.parametrize("cmd", ["hw", "classify", "count-points"])
@pytest.mark.parametrize("text", ["x^4 + y^4", "x^3*y + z^4"])
def test_cli_quartic_on_a_line_is_a_usage_error(capsys, cmd, text):
    """Exponents on a line make every quartic on them singular (a cone
    over points); every --quartic command refuses them by the walk's
    pivot check, exit 2 with no row."""
    assert main([cmd, "--quartic", text, "--p", "13"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("usage error: the exponents lie on a line, "
                                 "so the quartic is singular\n")


def test_cli_degree_too_long_to_print_is_a_parse_error_at_the_term(capsys):
    """Two exponents of 4300 digits each convert, but their 4301-digit sum
    does not print; the degree message says so at the term's position."""
    nines = "9" * 4300
    term = f"x^{nines}*x^{nines}"
    assert main(["hw", "--quartic", f"y^4 + {term}", "--p", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"usage error: term '{term}' has a degree too "
                                 "long to print, expected 4 (at position 6)\n")


# ---------------------------------------------------------------------------
# point counting

def is_maximal(F):
    """True iff the F_{p^2} point count attains p^2 + 1 + 6p."""
    return count_points_ext2(F) == hasse_weil_window(F.modulus.p)[1]


def test_count_points_degenerate_line():
    # z^4 = 0 cuts out the projective line z = 0, which has p^2 + 1 points
    for p in (5, 7):
        F = QuarticForm({(0, 0, 4): 1}, modulus(p))
        assert count_points_ext2(F) == p * p + 1


def test_count_points_c9_17_is_maximal():
    F = families.c9_form(modulus(17))
    assert count_points_ext2(F) == 392 == 17 * 17 + 1 + 6 * 17
    assert is_maximal(F)


def test_count_points_c9_19_below_bound():
    F = families.c9_form(modulus(19))
    n = count_points_ext2(F)
    assert n < 19 * 19 + 1 + 6 * 19


def test_maximality_examples():
    assert not is_maximal(families.c9_form(modulus(13)))
    # no C_r over F_7 is F_49-maximal (maximality needs p = 5 mod 6)
    m = modulus(7)
    assert not any(is_maximal(families.c6_form(m, r))
                   for r in range(7) if r not in (2, 5))


@pytest.mark.parametrize("p, ext", [(11, 2), (17, 1), (23, 1)])
def test_maximal_c6_members_are_superspecial(p, ext):
    """Brute force over every r in F_p^ext (r != +-2): a maximal C_r has
    c2(r) = 0, which is why the --c6-question search counts only there."""
    m = modulus(p)
    c2 = families.c6_coeff_polys(m)[2][0]
    params = [Fp2Element(a, b, m) for a in range(p)
              for b in range(p if ext == 2 else 1)
              if not (b == 0 and a in (2, p - 2))]
    maximal = [r for r in params
               if is_maximal(families.c6_form(m, r))]
    assert maximal
    assert all(c2.eval(r).is_zero() for r in maximal)


@pytest.mark.parametrize("accept", [None, "0+28*w"])
def test_c6_question_search_order(capsys, monkeypatch, accept):
    """F_p roots of c2 in ascending order first, then the roots off F_p by
    (a, b); at p = 29 they are 5, 24 and +-w.  The fake count rejects
    every F_p root, so the search must reach F_{p^2}."""
    from hwquartic import harness

    tried = []

    def fake_count(F, bound=None):
        if (0, 2, 2) not in F.terms:  # the C9 curve, counted first
            return count_points_ext2(F, bound)
        r = str(F.terms[(0, 2, 2)])
        tried.append(r)
        return hasse_weil_window(29)[1] if r == accept else 0

    monkeypatch.setattr(harness, "count_points_ext2", fake_count)
    code, out = run_cli(capsys, "verify", "maximality", "--p-range", "29..29",
                        "--c6-question")
    assert code == 0
    rep = SweepReport.from_csv(out)
    assert tried == ["5", "24", "0+1*w", "0+28*w"]
    row = rep.rows[1]
    assert row.param == (accept or "")
    found = f"found at r={accept}" if accept else "not found"
    assert row.detail == f"maximal C_r {found} (r swept over all of F_p2)"


def test_count_points_capacity():
    with pytest.raises(CapacityError):
        count_points_ext2(families.c9_form(modulus(61)))
    count_points_ext2(families.c9_form(modulus(61)), bound=61)


@pytest.mark.parametrize("p", primes_in(5, 37))
def test_cover_path_matches_grid_on_families(p):
    """C9, every C_r with r in F_p minus +-2, and seeded r off F_p."""
    m = modulus(p)
    rng = random.Random(f"cover-{p}")
    params = [r for r in range(p) if r not in (2, p - 2)]
    params += [Fp2Element(rng.randrange(p), rng.randrange(1, p), m)
               for _ in range(3)]
    forms = [families.c9_form(m)] + [families.c6_form(m, r) for r in params]
    for F in forms:
        assert count_points_ext2(F) == _count_points_grid(F)


@pytest.mark.parametrize("terms", [
    pytest.param(lambda m: {(3, 0, 1): 1, (0, 3, 1): 1}, id="x^3*z+y^3*z"),
    pytest.param(lambda m: {(3, 1, 0): 1, (0, 0, 4): 1}, id="x^3*y+z^4"),
    pytest.param(lambda m: {(3, 1, 0): Fp2Element(2, 3, m), (0, 3, 1): 1,
                            (0, 0, 4): Fp2Element(1, 4, m)},
                 id="fp2-coefficient-on-x^3*y"),
])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_cover_path_matches_grid_on_shapes(p, terms):
    """The line l = 0 inside the curve (x^3*z + y^3*z), the chart l = y,
    and F_{p^2} coefficients, the one on x^3*y included."""
    F = QuarticForm(terms(modulus(p)), modulus(p))
    assert count_points_ext2(F) == _count_points_grid(F)


@pytest.mark.parametrize("text, grid", [
    ("x^4 + x^3*z + y^4 + z^4", True),
    ("x^2*y*z + x^3*z + y^4 + z^4", True),
    ("x^3*y + x^3*z + y^4", True),
    ("x*y^3 + y^4 + z^4", True),
    ("x^3*z + y^4 + 3*y^2*z^2 + z^4", False),
    ("x^3*y + y^3*z + z^4", False),
])
def test_count_points_dispatch(monkeypatch, text, grid):
    from hwquartic import harness

    monkeypatch.setattr(harness, "_count_points_grid", lambda F: -1)
    assert (count_points_ext2(parse_quartic(text, 7)) == -1) == grid


@pytest.mark.parametrize("form", [families.c9_form, fermat_form])
def test_count_points_capacity_before_any_work(monkeypatch, form):
    from hwquartic import harness

    def no_work(*_args):
        raise AssertionError("counted past the capacity bound")

    monkeypatch.setattr(harness, "_count_points_cover", no_work)
    monkeypatch.setattr(harness, "_count_points_grid", no_work)
    with pytest.raises(CapacityError):
        count_points_ext2(form(modulus(61)))
    with pytest.raises(CapacityError):
        count_points_ext2(form(modulus(13)), bound=11)


def test_hasse_weil_window_respected():
    for p in (5, 7, 11):
        m = modulus(p)
        lo, hi = hasse_weil_window(p)
        for r in range(p):
            if r in (2, p - 2):
                continue
            n = count_points_ext2(families.c6_form(m, r))
            assert lo <= n <= hi
        n = count_points_ext2(families.c9_form(m))
        assert lo <= n <= hi


def test_count_points_brute_force_cross_check():
    # independent nested-loop count over all of P^2(F_{p^2}) for one form
    p = 5
    m = modulus(p)
    F = families.c6_form(m, 1)
    pts = 0
    els = [Fp2Element(a, b, m) for a in range(p) for b in range(p)]
    one = Fp2Element(1, 0, m)
    zero = Fp2Element(0, 0, m)

    def ev(x, y, z):
        acc = Fp2Element(0, 0, m)
        for (i, j, k), c in F.terms.items():
            acc = acc + c * x ** i * y ** j * z ** k
        return acc

    for x in els:
        for y in els:
            if ev(x, y, one).is_zero():
                pts += 1
    for x in els:
        if ev(x, one, zero).is_zero():
            pts += 1
    if ev(one, zero, zero).is_zero():
        pts += 1
    assert count_points_ext2(F) == pts


# ---------------------------------------------------------------------------
# reports and suites

def _sample_report():
    rep = SweepReport()
    rep.add(p=13, family="c6", param="3", a_number=0, p_rank=3,
            newton_polygon="3(1,0)+3(0,1)", eo_type="(1,2,3)",
            status="PASS", detail="ok")
    rep.add(p=17, family="c9", status="SKIP", detail="message, with comma")
    return rep


def test_csv_round_trip():
    rep = _sample_report()
    assert SweepReport.from_csv(rep.to_csv()) == rep
    header = rep.to_csv().splitlines()[0]
    assert header == "p,family,param,a_number,p_rank,newton_polygon,eo_type,status,detail"


def test_json_round_trip():
    rep = _sample_report()
    assert SweepReport.from_json(rep.to_json()) == rep
    objs = json.loads(rep.to_json())
    assert objs[0]["a_number"] == 0 and objs[1]["a_number"] is None


_HEADER = "p,family,param,a_number,p_rank,newton_polygon,eo_type,status,detail\n"


@pytest.mark.parametrize("text", [
    _HEADER + "13,c6,3\n",                       # short record
    _HEADER + "13,c6,,,,,,PASS,,extra\n",        # long record
    _HEADER + "x,c6,,,,,,PASS,\n",               # p = x
    _HEADER + ",c6,,,,,,PASS,\n",                # p empty
    _HEADER + "13,c6,,two,,,,PASS,\n",           # a_number not an integer
    _HEADER + "13,c6,,,,,,fail,\n",              # status not PASS/FAIL/SKIP
    _HEADER + "13,c6,,,,,,,\n",                  # status empty
    # values the writer cannot emit: p >= 5, a_number and p_rank in 0..3,
    # family c6, c9, general or any
    _HEADER + "-7,c6,,9,-1,,,PASS,\n",
    _HEADER + "4,nofamily,,,,,,SKIP,\n",
    _HEADER + "3,c6,,,,,,PASS,\n",
    _HEADER + "13,c6,,4,,,,PASS,\n",
    _HEADER + "13,c6,,,-1,,,PASS,\n",
    _HEADER + "13,,,,,,,PASS,\n",
    "",                                          # no header
])
def test_from_csv_rejects_malformed_records(text):
    with pytest.raises(ParseError):
        SweepReport.from_csv(text)


#: a well-formed JSON report row
_JSON_ROW = dict(p=13, family="c6", param="", a_number=None, p_rank=None,
                 newton_polygon="", eo_type="", status="PASS", detail="")


def test_from_json_reads_a_complete_row():
    assert SweepReport.from_json(json.dumps([_JSON_ROW])).rows == [
        ReportRow(**_JSON_ROW)]


@pytest.mark.parametrize("text", [
    '[{"p": 13, "colour": "red"}]',     # unknown key
    '[{"family": "c6"}]',               # no p
    '[{"p": "x"}]',                     # p not an integer
    '[{"p": 13.5}]',                    # p not a whole number
    '[{"p": 13, "detail": null}]',      # text column holding null
    '[13]',                             # row not an object
    '{"p": 13}',                        # not an array
    '[{"p": true}]',                    # p a boolean
    '[{"p": 13, "a_number": false}]',   # a_number a boolean
    '[{"p": 5}]',                       # the other eight keys missing
    json.dumps([{**_JSON_ROW, "p": -7, "a_number": 9, "p_rank": -1}]),
    json.dumps([{**_JSON_ROW, "p": 4, "family": "nofamily", "status": "SKIP"}]),
    # one bad value in a row that has every key
    *(pytest.param(json.dumps([{**_JSON_ROW, key: value}]),
                   id=f"{key}={value!r}")
      for key, value in (("p", "x"), ("p", 13.5), ("p", True),
                         ("a_number", False), ("detail", None),
                         ("status", "fail"), ("status", "OK"), ("p", 3),
                         ("a_number", 4), ("p_rank", -1), ("family", ""))),
])
def test_from_json_rejects_malformed_records(text):
    with pytest.raises(ParseError):
        SweepReport.from_json(text)


@pytest.mark.parametrize("p, a, f, match", [
    (9, None, None, "p = 9 is not a prime >= 5"),
    (10 ** 25, None, None, "primality .* is undecided"),
    (13, 3, 3, "a_number \\+ p_rank = 6 > 3"),
    (13, 2, 2, "a_number \\+ p_rank = 4 > 3"),
], ids=("composite-p", "undecided-p", "a+f=6", "a+f=4"))
def test_report_readers_reject_rows_the_writer_cannot_emit(p, a, f, match):
    """p is always prime, and a + f <= 3 since a = 3 - rank and f <= rank;
    each reader refuses a row that breaks either, and still reads the
    same row at a prime p with a + f = 3."""
    def csv_text(p, a, f):
        a, f = ("" if v is None else v for v in (a, f))
        return _HEADER + f"{p},c9,,{a},{f},,,PASS,\n"

    def json_text(p, a, f):
        return json.dumps([{**_JSON_ROW, "p": p, "family": "c9",
                            "a_number": a, "p_rank": f}])

    for reader, text in ((SweepReport.from_csv, csv_text),
                         (SweepReport.from_json, json_text)):
        with pytest.raises(ParseError, match=match):
            reader(text(p, a, f))
        good = (11, a, None if a is None else 3 - a)
        [row] = reader(text(*good)).rows
        assert (row.p, row.a_number, row.p_rank) == good


@pytest.mark.parametrize("reader, text", [
    *(pytest.param(SweepReport.from_json, json.dumps([{**_JSON_ROW, key: value}]),
                   id=f"json-{key}={value!r}")
      for key, value in (("p", "13"), ("a_number", " 2"), ("p_rank", "1"),
                         ("a_number", ""))),
    *(pytest.param(SweepReport.from_csv, _HEADER + f"{p},c6,,{a},,,,PASS,\n",
                   id=f"csv-p={p!r}-a_number={a!r}")
      for p, a in ((" 13 ", ""), ("+13", ""), ("1_3", ""), ("013", ""),
                   ("١٣", ""), ("13", "+2"), ("13", "-0"), ("13", " 2"))),
])
def test_report_readers_take_only_the_integer_form_they_write(reader, text):
    """A JSON integer column takes a JSON integer (or null where it may be
    empty), a CSV one only the ASCII text str(int) writes; the same value
    in any other form is a ParseError."""
    with pytest.raises(ParseError, match="is not an integer"):
        reader(text)


def test_hasse_weil_window_is_genus_three():
    assert hasse_weil_window(13) == (170 - 78, 170 + 78)


def test_primes_in():
    assert primes_in(5, 20) == [5, 7, 11, 13, 17, 19]
    assert primes_in(1, 6) == [5]


def test_oracle_corpus_is_deterministic():
    m = modulus(7)
    a = oracle_corpus(m)
    b = oracle_corpus(m)
    assert [n for n, _ in a] == [n for n, _ in b]
    assert all(fa == fb for (_, fa), (_, fb) in zip(a, b))
    assert sum(1 for name, _ in a if name.startswith("random")) == 50


def test_run_suite_oracle(capsys):
    code, out = run_cli(capsys, "verify", "oracle", "--p-range", "5..7")
    rep = SweepReport.from_csv(out)
    assert code == rep.exit_status == 0
    assert [r.p for r in rep.rows] == [5, 7]
    assert all(r.status == "PASS" for r in rep.rows)


def test_cli_oracle_above_its_bound_is_a_capacity_error(capsys):
    """An explicitly requested prime above the expansion bound exits 3,
    before the corpus of p + 50 forms is built; in range mode it is a
    SKIP row whose detail is the same message."""
    assert main(["verify", "oracle", "--p", "37"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("capacity error: ")
    assert f"ORACLE_PRIME_BOUND = {ORACLE_PRIME_BOUND}" in err
    code, out = run_cli(capsys, "verify", "oracle", "--p-range", "37..37")
    rep = SweepReport.from_csv(out)
    assert code == rep.exit_status == 0
    assert [r.status for r in rep.rows] == ["SKIP"]
    assert f"capacity error: {rep.rows[0].detail}\n" == err
    start = time.perf_counter()
    assert main(["verify", "oracle", "--p", "1000003"]) == 3
    assert time.perf_counter() - start < 1.0


def test_run_suite_skips_wrong_class_in_range_mode(capsys):
    code, out = run_cli(capsys, "verify", "euler", "--p-range", "7..11")
    rep = SweepReport.from_csv(out)
    assert code == rep.exit_status == 0
    assert [(r.family, r.status) for r in rep.rows] == [("c6", "SKIP"), ("c6", "PASS")]
    assert rep.rows[0].detail == "needs p = 5 mod 6"
    assert main(["verify", "euler", "--p", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: needs p = 5 mod 6\n"


def test_run_suite_unknown_name(capsys):
    assert main(["verify", "nope", "--p", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice" in err and "'nope'" in err


#: the least prime past ffield.MAX_TABLE_PRIME, where every suite that
#: needs a factorial table skips
_PAST_TABLES = 1048583

#: suite -> (a range with primes outside the suite's preconditions, its
#: SKIP rows as (p, family, detail))
_SUITE_SKIPS = {
    "oracle": ("37..37", [(37, "any", "oracle expansion needs p <= "
                                      f"ORACLE_PRIME_BOUND = {ORACLE_PRIME_BOUND}, got 37")]),
    **{suite: (f"{_PAST_TABLES}..{_PAST_TABLES}", [(
        _PAST_TABLES, family,
        f"factorial tables mod p need p <= 1048576, got {_PAST_TABLES}")])
       for suite, family in (("c6-structure", "c6"), ("counts", "c6"),
                             ("c9-table", "c9"), ("gauss-lemma", "c6"))},
    "euler": ("5..13", [(7, "c6", "needs p = 5 mod 6"),
                        (13, "c6", "needs p = 5 mod 6")]),
    "expectation": ("11..11", [(11, "c6", "needs p = 5 mod 6 and p >= 17")]),
    "maximality": ("61..61", [(61, "c9", "point counting needs p <= 60, got 61")]),
}


@pytest.mark.parametrize("suite", SUITES)
def test_verify_skip_rows_carry_the_suite_family(capsys, suite):
    """In a range each suite's SKIP row has that suite's family, an empty
    param and the precondition's message; the sweep still exits 0."""
    from hwquartic import ffield

    assert primes_in(ffield.MAX_TABLE_PRIME, _PAST_TABLES) == [_PAST_TABLES]
    p_range, skips = _SUITE_SKIPS[suite]
    code, out = run_cli(capsys, "verify", suite, "--p-range", p_range)
    assert code == 0
    rows = SweepReport.from_csv(out).rows
    assert [(r.p, r.family, r.param, r.detail) for r in rows
            if r.status == "SKIP"] == [(p, fam, "", detail) for p, fam, detail in skips]


# ---------------------------------------------------------------------------
# CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_hw_general(capsys):
    code, out = run_cli(capsys, "hw", "--p", "7", "--quartic",
                        "x^3*z + y^4 + 3*y^2*z^2 + z^4")
    assert code == 0
    rep = SweepReport.from_csv(out)
    assert rep.rows[0].a_number == 0 and rep.rows[0].p_rank == 3


def test_cli_hw_family_uses_closed_form(capsys, monkeypatch):
    from hwquartic import harness

    def no_extractor(F):
        raise IntegrityError("hw_matrix called")

    monkeypatch.setattr(harness, "hw_matrix", no_extractor)
    assert run_cli(capsys, "hw", "--p", "13", "--family", "c9")[0] == 0
    assert run_cli(capsys, "hw", "--p", "13", "--family", "c6", "--r", "5")[0] == 0
    code, _ = run_cli(capsys, "hw", "--p", "13", "--quartic",
                      "x^3*z + y^4 + 5*y^2*z^2 + z^4")
    assert code == 1


def test_cli_classify_c9_json(capsys):
    code, out = run_cli(capsys, "classify", "--p", "13", "--family", "c9",
                        "--format", "json")
    assert code == 0
    rep = SweepReport.from_json(out)
    assert rep.rows[0].a_number == 2 and rep.rows[0].eo_type == "(0,1,1)"


def test_cli_verify_range(capsys):
    code, out = run_cli(capsys, "verify", "counts", "--p-range", "5..30")
    assert code == 0
    assert SweepReport.from_csv(out).rows


def test_cli_usage_errors(capsys):
    assert main(["verify", "euler", "--p", "7"]) == 2    # wrong class, explicit
    assert main(["classify", "--p", "9", "--family", "c9"]) == 2  # not prime
    assert main(["verify", "counts"]) == 2               # no prime given
    assert main(["hw", "--p", "7", "--family", "c6"]) == 2  # c6 without --r
    assert main(["nonsense"]) == 2
    assert main(["hw", "--p", "7", "--quartic", "x^3"]) == 2
    assert main(["verify", "maximality", "--p", "17", "--sweep-ext2"]) == 2
    assert main(["classify", "--p", "13", "--family", "c6"]) == 2  # no --r
    for cmd in ("hw", "classify", "count-points"):      # general, no --quartic
        assert main([cmd, "--p", "13", "--family", "general"]) == 2
    # flags that cannot apply: --r outside c6, --bound / --c6-question
    # outside verify maximality
    assert main(["hw", "--p", "13", "--family", "c9", "--r", "5"]) == 2
    assert main(["classify", "--p", "13", "--quartic", "x^3*y + y^3*z + z^4",
                 "--r", "3"]) == 2
    for suite in SUITES:
        if suite != "maximality":
            for flags in (["--bound", "60"], ["--c6-question"]):
                assert main(["verify", suite, "--p-range", "5..13", *flags]) == 2


#: the arguments each command takes beyond --p, --p-range and --format
_TAKES = {
    "hw": {"--family", "--r", "--quartic"},
    "classify": {"--family", "--r", "--quartic"},
    "enumerate": set(),
    "count-points": {"--family", "--r", "--quartic", "--bound"},
    "verify": {"suite", "--bound", "--c6-question"},
}

#: label (the argument, then a value if it matters) -> argv; the exit code
#: where the argument applies (at p = 17, with --family c9 or maximality)
_FLAG_ARGS = {
    "suite": (["maximality"], 0),
    "--family": (["--family", "c9"], 0),
    "--r": (["--r", "5"], 0),
    "--quartic": (["--quartic", "x^3*z + y^4 + z^4"], 0),
    "--bound": (["--bound", "60"], 0),
    "--bound 0": (["--bound", "0"], 3),       # a falsy value is still given
    "--c6-question": (["--c6-question"], 0),
}


def test_flag_table_matches_the_cli():
    assert {cmd: set(flags) for cmd, (_, flags) in COMMANDS.items()} == _TAKES


@pytest.mark.parametrize("label", _FLAG_ARGS)
@pytest.mark.parametrize("cmd", _TAKES)
def test_cli_flag_table(capsys, cmd, label):
    """Exit 2 exactly where the argument does not apply to the command."""
    flag = label.split()[0]
    extra, applies_code = _FLAG_ARGS[label]
    argv = [cmd, "--p", "17"]
    if cmd == "verify" and flag != "suite":
        argv.append("maximality")
    if "--family" in _TAKES[cmd] and flag not in ("--family", "--r", "--quartic"):
        argv += ["--family", "c9"]
    code = main(argv + extra)
    out, err = capsys.readouterr()
    if flag in _TAKES[cmd]:
        assert code == applies_code and "usage" not in err
    else:
        assert code == 2 and out == ""
        assert "unrecognized arguments: " + " ".join(extra) in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--p", "13"],
    ["verify", "counts", "--p", "13"],
])
def test_cli_format_abbreviation(capsys, argv):
    """--f abbreviates --format where the command takes no --family."""
    assert run_cli(capsys, *argv, "--f", "json") == \
        run_cli(capsys, *argv, "--format", "json")


def test_cli_ambiguous_abbreviation(capsys):
    """--f is --format or --family under hw: a usage error, as argparse has it."""
    assert main(["hw", "--p", "13", "--family", "c9", "--f", "json"]) == 2
    assert "ambiguous option: --f" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "13"],                        # verify with no suite
    ["verify", "--p-range", "5..13"],
    ["--p", "13", "verify", "counts"],              # a flag before the command
    ["enumerate", "counts", "--p", "13"],           # a suite given to enumerate
])
def test_cli_suite_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_cli_intermixed_suite_and_negative_r(capsys):
    assert run_cli(capsys, "verify", "--p", "13", "counts") == \
        run_cli(capsys, "verify", "counts", "--p", "13")
    code, out = run_cli(capsys, "hw", "--family", "c6", "--r", "-7", "--p", "13")
    assert code == 0
    assert SweepReport.from_csv(out).rows[0].param == "6"


def test_cli_help_names_every_command_and_suite(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in list(_TAKES) + list(SUITES):
        assert re.search(rf"(?<![\w-]){name}(?![\w-])", out), name


@pytest.mark.parametrize("cmd", COMMANDS)
def test_cli_command_help_lists_its_own_flags(capsys, cmd):
    assert main([cmd, "--help"]) == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"(?<![\w-])--[\w-]+", out)) - {"--help"}
    own = {f for f in COMMANDS[cmd][1] if f.startswith("--")}
    assert listed == {"--p", "--p-range", "--format"} | own
    suites = "{" + ",".join(SUITES) + "}"
    assert (suites in out) == ("suite" in COMMANDS[cmd][1])


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_cli_help_and_usage_match_the_default_formatter(capsys, monkeypatch,
                                                        columns):
    """Every --help and a usage error print what the same parser prints
    with argparse's own HelpFormatter, which reads COLUMNS itself."""
    monkeypatch.setenv("COLUMNS", columns)
    usage_error = ["verify", "c9-table", "--p", "7", "--bogus"]
    for argv in [[cmd, "--help"] for cmd in COMMANDS] + [usage_error]:
        code = main(argv)
        got = capsys.readouterr()
        ref = build_parser(argv[0])
        ref.formatter_class = argparse.HelpFormatter
        with pytest.raises(SystemExit) as exc:
            ref.parse_args(argv)
        assert (code, got) == (exc.value.code, capsys.readouterr()), argv


def test_main_builds_no_parser_and_asks_no_terminal_size(capsys, monkeypatch):
    """The parsers are built once, at import: a call that prints no help
    constructs no ArgumentParser and never asks the terminal size."""
    built, asked = [], []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self)
                        or init(self, *a, **kw))
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *a: asked.append(a) or size(*a))
    for _ in range(2):
        assert main(["verify", "c9-table", "--p", "7"]) == 0
    assert (built, asked) == ([], [])
    # the counters see a build
    build_parser("verify")
    assert len(built) == 1 and asked


def test_shared_parsers_keep_no_state_between_calls(capsys):
    """One parser per command serves every call in a process: a flag, a
    usage error or another command's call leaves nothing for the next."""
    maximality = ["verify", "maximality", "--p", "17"]
    code, out = run_cli(capsys, *maximality, "--c6-question")
    assert code == 0 and len(out.splitlines()) == 3
    code, out = run_cli(capsys, *maximality)
    assert code == 0 and len(out.splitlines()) == 2

    def call(argv):
        return main(argv), capsys.readouterr()

    good = ["verify", "c9-table", "--p", "7"]
    alone = call(good)
    code, (out, err) = call(["verify", "--bogus"])
    assert code == 2 and out == "" and err
    assert call(good) == alone

    hw = ["hw", "--family", "c6", "--r", "3", "--p", "13"]
    hw_alone = call(hw)
    assert hw_alone[0] == 0
    for _ in range(2):
        assert call(hw) == hw_alone
        assert call(good) == alone


@pytest.mark.parametrize("argv", [
    ["hw", "--quartic", "x^4 - x^4", "--p", "7"],
    ["classify", "--quartic", "7*x^4", "--p", "7"],
    ["count-points", "--quartic", "x^4 - x^4", "--p", "7"],
    ["count-points", "--quartic", "7*x^4 + 7*y^4 + 7*z^4", "--p-range", "5..7"],
])
def test_cli_rejects_the_zero_form(capsys, argv):
    """A --quartic with no term left mod p is a usage error, and one such
    prime in a range fails the whole command."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: empty quartic expression")


@pytest.mark.parametrize("argv", [
    ["hw", "--p-range", "24..28"],                     # no family
    ["classify", "--family", "c6", "--p-range", "24..28"],   # no --r
    ["count-points", "--family", "c9", "--r", "3", "--p-range", "24..28"],
    ["verify", "counts", "--p-range", "30..10"],       # reversed range
    ["hw", "--family", "c9", "--p-range", "30..10"],
    ["verify", "counts", "--p-range", "24..28", "--bound", "7"],  # not maximality
])
def test_cli_usage_errors_without_primes(capsys, argv):
    """Flags and ranges are checked once, before the first prime, so a
    range with no prime in it still rejects them."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "counts", "--p-range", "24..28"],
    ["hw", "--family", "c9", "--p-range", "24..28"],
])
def test_cli_range_without_primes_is_an_empty_sweep(capsys, argv):
    assert run_cli(capsys, *argv) == (0, _HEADER)


def test_cli_range_of_one_prime(capsys):
    code, out = run_cli(capsys, "verify", "counts", "--p-range", "29..29")
    assert code == 0 and [r.p for r in SweepReport.from_csv(out).rows] == [29]


@pytest.mark.parametrize("cmd", ["hw", "count-points", "classify"])
@pytest.mark.parametrize("r", ["2", "11", "2+0*w"])
def test_cli_rejects_singular_c6(capsys, cmd, r):
    """r = +-2 (here p = 13, so -2 = 11) is a usage error in every command."""
    assert main([cmd, "--p", "13", "--family", "c6", "--r", r]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: r = 2 or -2 gives a singular quartic\n"


@pytest.mark.parametrize("p, rows", [
    (17, ["17,c9,,,,,,PASS,points=392 hasse-weil-max=392 maximal=True expected=True",
          "17,c6,5,,,,,PASS,maximal C_r found at r=5 (r swept over F_p only)"]),
    (23, ["23,c9,,,,,,PASS,points=530 hasse-weil-max=668 maximal=False expected=False",
          "23,c6,10,,,,,PASS,maximal C_r found at r=10 (r swept over F_p only)"]),
])
def test_cli_verify_maximality_c6_question(capsys, p, rows):
    code, out = run_cli(capsys, "verify", "maximality", "--p", str(p),
                        "--c6-question")
    assert code == 0
    assert out.splitlines()[1:] == rows


def test_c6_question_runs_to_the_point_bound(capsys):
    """Past p^2 = 250000 (p >= 503) the c2 search runs under --bound, as
    the C9 count does; each maximal C_r is checked independently."""
    code, out = run_cli(capsys, "verify", "maximality", "--p-range", "490..510",
                        "--bound", "600", "--c6-question")
    assert code == 0
    rows = SweepReport.from_csv(out).rows
    assert [(r.p, r.family, r.status) for r in rows] == [
        (491, "c9", "PASS"), (491, "c6", "PASS"), (499, "c9", "PASS"),
        (503, "c9", "PASS"), (503, "c6", "PASS"), (509, "c9", "PASS"),
        (509, "c6", "PASS")]
    found = [(row.p, parse_c6_param(row.param, row.p))
             for row in rows if row.family == "c6" and row.param]
    assert [p for p, _ in found] == [491, 503, 509]
    for p, r in found:
        assert families.c6_hw(p, r).is_zero()
        assert (count_points_ext2(families.c6_form(modulus(p), r), bound=600)
                == hasse_weil_window(p)[1])


def test_c6_question_checks_the_point_bound_before_counting(capsys, monkeypatch):
    from hwquartic import harness

    def unused(*_args, **_kw):
        raise AssertionError("points counted")

    for name in ("_count_points_cover", "_count_points_grid", "eval_all_ext2"):
        monkeypatch.setattr(harness, name, unused)
    assert main(["verify", "maximality", "--p", "61", "--c6-question"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "capacity error: point counting needs p <= 60, got 61\n"


def test_c6_question_ignores_the_root_exhaustion_bound(capsys, monkeypatch):
    """The c2 search is bounded by --bound alone: unipoly's root bound,
    which binds roots_over only, does not reach it."""
    from hwquartic import unipoly

    monkeypatch.setattr(unipoly, "DEFAULT_ROOT_BOUND", 1)
    code, out = run_cli(capsys, "verify", "maximality", "--p", "17",
                        "--c6-question")
    assert code == 0
    assert out.splitlines()[1:] == [
        "17,c9,,,,,,PASS,points=392 hasse-weil-max=392 maximal=True expected=True",
        "17,c6,5,,,,,PASS,maximal C_r found at r=5 (r swept over F_p only)"]


@pytest.mark.parametrize("p", [29, 41, 101])
def test_c6_search_walks_the_roots_of_c2_in_component_order(monkeypatch, p):
    """The search tries every root of c2 in F_{p^2} except 0 and +-2, the
    F_p roots first, each in the order of its components (a, b), as the
    root-exhaustion oracle lists them."""
    from hwquartic import harness

    tried = []

    def no_point(F, bound=None):
        tried.append(F.terms[(0, 2, 2)])
        return 0

    monkeypatch.setattr(harness, "count_points_ext2", no_point)
    assert harness._first_maximal_c6(modulus(p), 60) == (None, False)
    row, col = families.LOCUS_SLOT[5]
    c2 = families.c6_coeff_polys(modulus(p))[row - 1][col - 1]
    expected = sorted((z for z in roots_over(c2, 2)
                       if z.b or z.a not in (0, 2, p - 2)),
                      key=lambda z: (z.b != 0, z.a, z.b))
    assert any(z.b for z in expected)
    assert [components(r) for r in tried] == [(z.a, z.b) for z in expected]


@pytest.mark.parametrize("cmd", ["hw", "classify"])
@pytest.mark.parametrize("family", [["c6", "--r", "4"], ["c9"]])
def test_cli_family_matrices_build_no_form(monkeypatch, capsys, cmd, family):
    """hw and classify read a family's matrix from its closed form; only
    count-points needs the quartic itself."""
    def unused(*args):
        raise ValueError("family form built")

    monkeypatch.setattr(families, "c6_form", unused)
    monkeypatch.setattr(families, "c9_form", unused)
    code, out = run_cli(capsys, cmd, "--family", *family, "--p-range", "5..40")
    assert code == 0
    assert len(SweepReport.from_csv(out).rows) == 10


def test_python_dash_m_runs_the_cli():
    src = str(Path(families.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hwquartic", "classify", "--p", "13", "--family", "c9"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert SweepReport.from_csv(proc.stdout).rows[0].a_number == 2


def test_cli_capacity_exit_code(capsys):
    assert main(["count-points", "--p", "67", "--family", "c9"]) == 3
    code, out = run_cli(capsys, "verify", "expectation", "--p", "503")
    assert code == 0
    assert out.splitlines()[1:] == ["503,c6,,,,,,PASS,roots=83 of deg=83 all_square=True"]


def test_cli_factorial_table_bound_takes_the_capacity_exit(capsys):
    """A C9 table at 2^61 - 1 (1 mod 9) needs the factorial table and
    exits 3 before allocating it; at 10^9 + 7 (8 mod 9) every slot is
    zero, no table is built, and the row passes."""
    tracemalloc.start()
    try:
        code = main(["verify", "c9-table", "--p", str(2 ** 61 - 1)])
        assert tracemalloc.get_traced_memory()[1] < 2 ** 22
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("capacity error: factorial tables mod p need p <=")
    code, out = run_cli(capsys, "verify", "c9-table", "--p", "1000000007")
    assert code == 0
    assert out.splitlines()[1] == '1000000007,c9,,3,0,"3(1,1)","(0,0,0)",PASS,p mod 9 = 8'


@pytest.mark.parametrize("p", ["318665857834031151167461",    # psi_12
                               "3317044064679887385961981"])  # psi_13
def test_cli_strong_pseudoprime_takes_the_usage_exit(capsys, p):
    """Composites that pass Miller-Rabin at the bases 2..37 are usage
    errors, not requests for a factorial table."""
    code = main(["verify", "c9-table", "--p", p])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")


#: all 15 monomials, with coefficients 1 to 15
DENSE = " + ".join(f"{n}*x^{i}*y^{j}*z^{k}"
                   for n, (i, j, k) in enumerate(_EXPONENT_TRIPLES, 1))


def test_cli_dense_quartic_takes_the_capacity_exit(capsys):
    start = time.perf_counter()
    code = main(["classify", "--quartic", DENSE, "--p", "211"])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("capacity error: coefficient extraction needs")


def test_count_points_skips_the_primes_past_the_point_bound(capsys):
    """In a range a prime past the point bound is a SKIP row with the
    bound's message, as in verify maximality; under --p it exits 3."""
    code, out = run_cli(capsys, "count-points", "--family", "c9",
                        "--p-range", "53..67")
    assert code == 0
    rows = SweepReport.from_csv(out).rows
    assert [(r.p, r.family, r.status) for r in rows] == [
        (53, "c9", "PASS"), (59, "c9", "PASS"), (61, "c9", "SKIP"),
        (67, "c9", "SKIP")]
    assert rows[2].detail == "point counting needs p <= 60, got 61"
    assert main(["count-points", "--family", "c9", "--p", "61"]) == 3
    assert capsys.readouterr().err == f"capacity error: {rows[2].detail}\n"


@pytest.mark.parametrize("cmd", ["hw", "classify"])
def test_dense_quartic_range_skips_the_primes_past_the_walk_cap(
        capsys, monkeypatch, cmd):
    """Under a cap of 1000 rows the dense support is computed at p = 5 and
    7 and needs more at 11 and 13: SKIP rows in a range, exit 3 under --p."""
    from hwquartic import hwcore

    monkeypatch.setattr(hwcore, "MAX_CANDIDATES", 1000)
    code, out = run_cli(capsys, cmd, "--quartic", DENSE, "--p-range", "5..13")
    assert code == 0
    rows = SweepReport.from_csv(out).rows
    assert [(r.p, r.family, r.status) for r in rows] == [
        (5, "general", "PASS"), (7, "general", "PASS"),
        (11, "general", "SKIP"), (13, "general", "SKIP")]
    assert all(r.detail.startswith("coefficient extraction needs")
               and r.a_number is None for r in rows[2:])
    # a SKIP row carries the form, as a PASS row does
    assert all(r.param == DENSE for r in rows)
    assert main([cmd, "--quartic", DENSE, "--p", "11"]) == 3


@pytest.mark.parametrize("cmd", ["hw", "classify"])
def test_c6_range_skip_rows_carry_the_reduced_parameter(capsys, monkeypatch,
                                                        cmd):
    """Past ffield.MAX_TABLE_PRIME (here lowered to 105) a --r range gives
    SKIP rows whose param is r mod p, as a PASS row's is."""
    from hwquartic import ffield

    ffield.modulus.cache_clear()  # no table of an earlier test is reused
    monkeypatch.setattr(ffield, "MAX_TABLE_PRIME", 105)
    code, out = run_cli(capsys, cmd, "--r", "110", "--p-range", "101..109")
    assert code == 0
    rows = SweepReport.from_csv(out).rows
    assert [(r.p, r.family, r.param, r.status) for r in rows] == [
        (101, "c6", "9", "PASS"), (103, "c6", "7", "PASS"),
        (107, "c6", "3", "SKIP"), (109, "c6", "1", "SKIP")]
    assert main([cmd, "--r", "110", "--p", "107"]) == 3


def test_enumerate_skips_the_primes_past_the_table_bound(capsys, monkeypatch):
    """A prime past ffield.MAX_TABLE_PRIME (here lowered to 105) is a SKIP
    row of enumerate in a range and exit 3 under --p."""
    from hwquartic import ffield

    ffield.modulus.cache_clear()  # no table of an earlier test is reused
    monkeypatch.setattr(ffield, "MAX_TABLE_PRIME", 105)
    code, out = run_cli(capsys, "enumerate", "--p-range", "101..109")
    assert code == 0
    rows = SweepReport.from_csv(out).rows
    assert {r.p for r in rows if r.status == "PASS"} == {101, 103}
    assert [(r.p, r.family, r.status, r.detail) for r in rows[-2:]] == [
        (p, "c6", "SKIP", f"factorial tables mod p need p <= 105, got {p}")
        for p in (107, 109)]
    assert main(["enumerate", "--p", "107"]) == 3


def test_a_range_sweep_keeps_one_factorial_table(capsys, monkeypatch):
    """A range of about 300 primes builds each prime's factorial table
    once and leaves at most one of them alive: the modulus that holds a
    table goes once the sweep asks for the next prime."""
    from hwquartic import ffield

    built = []
    table = ffield.FactorialTable

    def recorded(p):
        t = table(p)
        built.append((p, weakref.ref(t)))
        return t

    ffield.modulus.cache_clear()
    monkeypatch.setattr(ffield, "FactorialTable", recorded)
    assert main(["verify", "counts", "--p-range", "5..2000"]) == 0
    capsys.readouterr()
    gc.collect()
    assert [p for p, _ in built] == primes_in(5, 2000)
    assert sum(ref() is not None for _, ref in built) <= 1


def test_cli_failure_exit_code(capsys, monkeypatch):
    from hwquartic import harness

    def fake_suite(report, mod, args):
        report.add(p=mod.p, family="c6", status="FAIL", detail="injected")

    monkeypatch.setitem(harness._SUITE_FUNCS, "counts", ("c6", fake_suite))
    assert main(["verify", "counts", "--p", "13"]) == 1


@pytest.mark.parametrize("a_number", [0, 2])
def test_enumerate_checks_every_class_against_the_table(a_number, capsys,
                                                        monkeypatch):
    # 1009 = 1 mod 6: classes have a = 0 (p-rank 3) or a = 2 (p-rank 1);
    # a computed p-rank that disagrees with the table must fail the call
    table_f = families.TABLE_C6[1, a_number].p_rank
    grid_ranks = families.grid_ranks

    def off_by_one(M, mod):
        rank, f = grid_ranks(M, mod)
        return rank, np.where(3 - rank == a_number, f - 1, f)

    monkeypatch.setattr(families, "grid_ranks", off_by_one)
    assert main(["enumerate", "--p", "1009"]) == 1
    assert (f"computed p-rank {table_f - 1} disagrees with the table value "
            f"{table_f}") in capsys.readouterr().err


def test_c9_table_fails_on_a_computed_p_rank_off_the_table(capsys, monkeypatch):
    # 19 = 1 mod 9: a = 0 and p-rank 3; report p-rank 2 instead
    grid_ranks = families.grid_ranks
    monkeypatch.setattr(families, "grid_ranks",
                        lambda M, mod: (grid_ranks(M, mod)[0], 2))
    code, out = run_cli(capsys, "verify", "c9-table", "--p", "19")
    assert code == 1
    [row] = SweepReport.from_csv(out).rows
    assert row.status == "FAIL"
    assert row.detail == "computed p-rank 2 disagrees with the table value 3"


def test_c6_structure_fails_on_an_a_number_off_the_table(capsys, monkeypatch):
    # 43 = 1 mod 6 attains a = 0 and a = 2; without the a = 2 row, a = 2
    # is not admissible
    monkeypatch.delitem(families.TABLE_C6, (1, 2))
    code, out = run_cli(capsys, "verify", "c6-structure", "--p", "43")
    assert code == 1
    [row] = SweepReport.from_csv(out).rows
    assert (row.status, row.detail) == (
        "FAIL", "a-number 2 not admissible for p = 1 mod 6")


def test_c6_structure_fails_on_a_p_rank_off_the_table(capsys, monkeypatch):
    """The suite checks p-ranks against TABLE_C6 too: one computed p-rank
    raised by one at 43 = 1 mod 6, where a = 2 has p-rank 1, fails it."""
    grid_ranks = families.grid_ranks

    def raise_one(M, mod):
        rank, f = grid_ranks(M, mod)
        f = f.copy()
        f[np.flatnonzero(3 - rank == 2)[0]] += 1
        return rank, f

    monkeypatch.setattr(families, "grid_ranks", raise_one)
    code, out = run_cli(capsys, "verify", "c6-structure", "--p", "43")
    assert code == 1
    [row] = SweepReport.from_csv(out).rows
    assert (row.status, row.detail) == (
        "FAIL", "computed p-rank 2 disagrees with the table value 1")


def test_c6_structure_fails_when_hw_matrix_disagrees(capsys, monkeypatch):
    """The cross-check against the general algorithm: hw_matrix with one
    entry off by one fails every sampled r."""
    from hwquartic import harness
    hw_matrix = harness.hw_matrix

    def off_by_one(F):
        M = hw_matrix(F)
        M.entries[0][0] = M.entries[0][0] + 1
        return M

    monkeypatch.setattr(harness, "hw_matrix", off_by_one)
    code, out = run_cli(capsys, "verify", "c6-structure", "--p", "43")
    assert code == 1
    [row] = SweepReport.from_csv(out).rows
    assert row.status == "FAIL"
    assert row.detail.startswith(
        "entry polynomials disagree with hw_matrix at r=")


@pytest.mark.parametrize("suite, p", [
    ("c6-structure", 101),  # 5 mod 6
    ("c6-structure", 103),  # 1 mod 6
    ("gauss-lemma", 101),
])
def test_a_verify_run_builds_the_c6_grid_of_its_prime_once(capsys, monkeypatch,
                                                           suite, p):
    """Every C6 consumer at one prime reads one cached grid: the run makes
    as many coeff_of_power gathers as one fresh c6_coeff_polys."""
    gathers = []
    gather = families.coeff_of_power

    def counted(*args):
        gathers.append(args)
        return gather(*args)

    monkeypatch.setattr(families, "coeff_of_power", counted)
    families._c6_grid.cache_clear()
    families.c6_coeff_polys(modulus(p))
    one_build = len(gathers)
    families._c6_grid.cache_clear()
    gathers.clear()
    code, _ = run_cli(capsys, "verify", suite, "--p", str(p))
    assert code == 0
    assert len(gathers) == one_build > 0


def test_cli_enumerate(capsys):
    code, out = run_cli(capsys, "enumerate", "--p", "29")
    assert code == 0
    rep = SweepReport.from_csv(out)
    summary = rep.rows[-1]
    assert summary.param == "max-a-count" and summary.status == "PASS"
    # 29 = 5 mod 6: every class has a in {1, 3}
    assert all(r.a_number in (1, 3) for r in rep.rows if r.a_number is not None)
