"""Span tracer for the traced benchmark run.

Each named public function of the program is wrapped at every binding in
the loaded ``hwquartic`` modules (a name imported into another module is
a second binding, and calls through it would otherwise escape the trace).
Every call records one span: name, start, end, parent span, item id and
whether an exception escaped.  Spans stay in memory; the benchmark
summarizes them per traced sweep and writes the last sweep's spans out.
The wrappers exist only while the tracer is installed, in the benchmark's
own process, and ``restore`` puts every original binding back.

Element-level dunders of FpElement and Fp2Element get no span: a wrapper
would cost more than the operation, so their time lands in the caller's
self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "hwquartic"

#: span name -> "module:qualname" targets inside the package
SPANS = {
    "harness.cli": ["harness:main"],
    "harness.parse": ["harness:parse_quartic", "harness:parse_c6_param"],
    "harness.count_points": ["harness:count_points_ext2"],
    "harness.render": ["harness:SweepReport.to_csv"],
    "hwcore.hw_matrix": ["hwcore:hw_matrix"],
    "hwcore.coefficient": ["hwcore:coefficient_in_power"],
    "hwcore.rank": ["hwcore:rank3", "hwcore:stable_rank", "hwcore:a_number"],
    "unipoly.mul": ["unipoly:UniPoly.__mul__"],
    "unipoly.divmod": ["unipoly:UniPoly.divmod"],
    "unipoly.eval": ["unipoly:UniPoly.eval"],
    "unipoly.eval_all": ["unipoly:UniPoly.eval_all"],
    "unipoly.separable": ["unipoly:is_separable"],
    "unipoly.roots_over": ["unipoly:roots_over"],
    "unipoly.eval_all_ext2": ["unipoly:eval_all_ext2"],
    "ffield.tables": ["ffield:FactorialTable.__init__"],
    "ffield.binomial": ["ffield:binomial"],
    "ffield.multinomial": ["ffield:multinomial"],
    "ffield.sqrt": ["ffield:sqrt_fp2_of_fp"],
    "ffield.is_square": ["ffield:is_square_fp2"],
    "families.coeff_polys": ["families:c6_coeff_polys"],
    "families.coeff_of_power": ["families:coeff_of_power"],
    "families.hw": ["families:c6_hw", "families:c9_hw"],
    "families.classify": ["families:c6_classify", "families:c9_classify"],
    "families.count_max_a": ["families:c6_count_max_a"],
    "hypergeom.gauss_truncated": ["hypergeom:gauss_truncated"],
    "hypergeom.euler": ["hypergeom:verify_euler"],
    "hypergeom.gauss_lemma": ["hypergeom:verify_gauss_lemma"],
    "hypergeom.expectation": ["hypergeom:expectation_check"],
}

LAYERS = ("harness", "hwcore", "unipoly", "ffield", "families", "hypergeom")


def _count_points_work(F, *_args, **_kwargs):
    p = F.modulus.p
    return p ** 4 + p ** 2 + 1


def _roots_over_work(f, ext, *_args, **_kwargs):
    return f.modulus.p ** ext


#: work per call computed from the arguments (labelled as computed): the
#: projective F_{p^2}-points tried, and the candidates of root exhaustion
POINTS = {
    "harness.count_points": _count_points_work,
    "unipoly.roots_over": _roots_over_work,
}


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.item = None
        self._stack = []
        self._saved = []
        self._reset()

    def _reset(self):
        self.spans = []
        self.points = defaultdict(int)
        self.escaped = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *_exc):
        self.restore()

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for span_name, targets in SPANS.items():
            work = POINTS.get(span_name)
            for target in targets:
                modname, qualname = target.split(":")
                owner = sys.modules[f"{PACKAGE}.{modname}"]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self._wrap(span_name, original, work)
                if path:
                    self._bind(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, name, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def drain(self):
        """(spans, points, escaped) recorded since the last drain."""
        out = (self.spans, dict(self.points), self.escaped)
        self._reset()
        return out

    def _escape(self, layer, exc):
        if not any(lay == layer and e is exc for lay, e in self.escaped):
            self.escaped.append((layer, exc))

    def _wrap(self, name, fn, work):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = True
                tracer._escape(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.item, failed)
            if work is not None:
                tracer.points[name] += work(*args, **kwargs)
            return result

        return wrapper


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct children cover.

    The program is single-threaded, so a span's children run one after
    another inside it and the time they cover is the sum of their
    durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _item, _failed in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_n, start, end, _p, _it, _f) in enumerate(spans)]


def summarize(spans, points, escaped) -> dict:
    """Per-layer metrics of one traced sweep, every name always present."""
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = 0
    for name in POINTS:
        out[f"{name}.points"] = points.get(name, 0)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[name.split(".")[0] + ".self_s"] += own
    for layer, _exc in escaped:
        out[f"{layer}.errors"] += 1
    return out
