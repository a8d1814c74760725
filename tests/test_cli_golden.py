"""Golden CLI outputs: exit code and sha256 of stdout and stderr per command.

The digests in cli_golden.json pin the byte-identical output promise of
the verify suites, enumerate and count-points; each output also reads
back through SweepReport.from_csv / from_json and writes the same bytes.
A change that alters a report on purpose regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and says why in its change notes.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hwquartic.harness import SweepReport, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = [
    ["verify", "expectation", "--p-range", "5..500"],
    ["verify", "expectation", "--p-range", "5..500", "--format", "json"],
    ["verify", "expectation", "--p-range", "500..1100"],
    ["verify", "maximality", "--p-range", "5..59", "--c6-question"],
    ["verify", "counts", "--p-range", "5..1000"],
    ["verify", "counts", "--p-range", "2900..3000"],
    ["verify", "c9-table", "--p-range", "5..1000"],
    ["verify", "euler", "--p-range", "5..1000"],
    ["verify", "euler", "--p-range", "2500..3000"],
    ["verify", "gauss-lemma", "--p-range", "5..300"],
    ["verify", "gauss-lemma", "--p-range", "600..700"],
    ["verify", "c6-structure", "--p-range", "5..300"],
    ["verify", "c6-structure", "--p-range", "2900..3000"],
    ["enumerate", "--p", "1009"],
    ["enumerate", "--p", "1999"],
    ["enumerate", "--p", "10007"],
    ["count-points", "--family", "c9", "--p-range", "5..59"],
    ["hw", "--quartic", "x^3*y + y^3*z + z^3*x + 2*x^2*y*z + 3*x*y*z^2",
     "--p-range", "5..300"],
    ["classify", "--quartic",
     "x^4 + y^4 + z^4 + x^2*y*z + 3*x*y^2*z + 5*x^3*y + 7*y*z^3",
     "--p-range", "5..100"],
    ["hw", "--family", "c6", "--r", "1", "--p-range", "5..300"],
    ["hw", "--family", "c6", "--r", "1+2*w", "--p-range", "5..150"],
    ["hw", "--family", "c9", "--p-range", "5..1000"],
    ["classify", "--family", "c6", "--r", "3+5*w", "--p-range", "7..100"],
    ["classify", "--family", "c9", "--p-range", "5..1000", "--format", "json"],
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv):
    """The golden record of one CLI call, and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": _sha256(out.getvalue()),
            "stderr_sha256": _sha256(err.getvalue()),
            "stdout_lines": out.getvalue().count("\n")}, out.getvalue()


def _golden():
    return {" ".join(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    record, out = run(argv)
    assert record == _golden()[" ".join(argv)]
    if "json" in argv:
        assert SweepReport.from_json(out).to_json() == out
    else:
        assert SweepReport.from_csv(out).to_csv() == out


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.write_text(json.dumps([run(argv)[0] for argv in COMMANDS], indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} records to {GOLDEN}")
