"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import sys
from types import SimpleNamespace

import pytest

import checks
import items
import reference
import run
import tracer

sys.path.insert(0, str(run.SRC))

import hwquartic  # noqa: E402
from hwquartic import harness, hwcore, unipoly  # noqa: E402


@pytest.mark.parametrize("workload", list(items.WORKLOADS))
def test_same_seed_same_argv_lists(workload):
    first = items.build(workload, 7)
    assert first == items.build(workload, 7)
    assert [i["argv"] for i in first] != [i["argv"] for i in items.build(workload, 8)]
    assert len({i["id"] for i in first}) == len(first) >= 100
    assert all(isinstance(a, str) for i in first for a in i["argv"])


def test_items_outside_the_capacity_bounds_are_rejected():
    with pytest.raises(ValueError, match="p <= 60"):
        items.within_caps({"id": "x", "p": 61, "argv": ["count-points"]})
    with pytest.raises(ValueError, match="p\\^2"):
        items.within_caps({"id": "x", "p": 503, "argv": ["verify", "expectation"]})


def _first(workload, kind, flag=None):
    return next(i for i in items.build(workload, 3)
                if i["kind"] == kind and (flag is None or flag in i["argv"]))


def _one_of_each_kind():
    return [_first("fp", "verify"), _first("fp", "enumerate"),
            _first("fp", "classify"), _first("ext2", "count-points"),
            _first("ext2", "verify", "--c6-question")]


def _corrupt(call, old, new):
    out = call.out.replace(old, new, 1)
    assert out != call.out
    return call._replace(out=out, digest=checks.digest(out))


def test_a_corrupted_row_counts_as_a_failure():
    chosen = _one_of_each_kind()
    clearers = run.cache_clearers("hwquartic")
    calls = run.run_sweep(harness.main, chosen, clearers, True).calls
    assert checks.judge(chosen, [calls]) == [[None] * len(chosen)]

    count_row = calls[3].out.splitlines()[1]
    points = count_row.split("points=")[1].split()[0]
    corrupted = [
        _corrupt(calls[0], "PASS", "FAIL"),
        _corrupt(calls[1], "max-a-count", "max-a"),
        _corrupt(calls[2], ",PASS,", ",PASS,\n13,general,x,0,0,,,PASS,"),
        _corrupt(calls[3], f"points={points}", f"points={int(points) + 1}"),
        calls[4]._replace(rc=3, err="capacity error: p too large\n"),
    ]
    verdict = checks.judge(chosen, [corrupted, calls])
    assert all(verdict[0]) and all(verdict[1])

    later = [calls, calls[:2] + [calls[2]._replace(digest="0" * 16)] + calls[3:]]
    verdict = checks.judge(chosen, later)
    assert sum(r is not None for sweep in verdict for r in sweep) == 1
    assert "first sweep" in verdict[1][2]

    golden = {i["id"]: c.digest for i, c in zip(chosen, calls)}
    golden[chosen[1]["id"]] = "0" * 16
    verdict = checks.judge(chosen, [calls], golden)
    assert [r is not None for r in verdict[0]] == [False, True, False, False, False]


def test_oracle_disagreement_is_caught():
    item = _first("fp", "classify")
    out = run.run_sweep(harness.main, [item], [], True).calls[0].out
    header, row = out.splitlines()
    fields = row.split(",")
    true = (int(fields[3]), int(fields[4]))
    fields[3], fields[4] = map(str, (1, 0) if true != (1, 0) else (0, 0))
    wrong = "\n".join([header, ",".join(fields)]) + "\n"
    assert "oracle" in checks.check(item, 0, wrong, "")


def test_a_slowed_core_is_scaled_back_to_the_nominal_speed():
    def calls(slow):
        # the core is slowed by `slow` for the second half of the sweep
        return [run.Call(0, None, "", "", t * (slow if i >= 20 else 1),
                         1e-3 * (slow if i >= 20 else 1))
                for i, t in enumerate([0.01, 0.02] * 20)]
    steady = run.scaled_latencies(calls(1), 1e-3)
    assert steady == pytest.approx([0.01, 0.02] * 20)
    # away from the change of speed, each call sees only one speed
    slowed = run.scaled_latencies(calls(1.5), 1e-3)
    assert slowed[:10] == pytest.approx(steady[:10])
    assert slowed[30:] == pytest.approx(steady[30:])
    sweeps = [run.Sweep(0, calls(1.5), None), run.Sweep(0, calls(2), None)]
    assert run.best_latencies(sweeps, 1e-3)[30:] == pytest.approx(steady[30:])


@pytest.mark.parametrize("workload", list(items.WORKLOADS))
def test_every_workload_has_a_reference_kernel(workload):
    kernel, nominal = reference.KERNELS[workload]
    assert kernel() == kernel() and 0 < nominal < 0.01


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("harness.cli", 0.0, 10.0, -1, "a", False),
        ("hwcore.hw_matrix", 1.0, 4.0, 0, "a", False),
        ("hwcore.coefficient", 2.0, 3.0, 1, "a", False),
        ("hwcore.coefficient", 3.0, 3.5, 1, "a", False),
        ("harness.render", 5.0, 9.0, 0, "a", True),
    ]
    assert tracer.self_times(spans) == [3.0, 1.5, 1.0, 0.5, 4.0]
    got = tracer.summarize(spans, {"harness.count_points": 7}, [("harness", None)])
    assert got["hwcore.coefficient.calls"] == 2
    assert got["hwcore.coefficient.self_s"] == 1.5
    assert got["hwcore.self_s"] == 3.0
    assert got["harness.self_s"] == 7.0
    assert got["harness.errors"] == 1 and got["unipoly.errors"] == 0
    assert got["harness.count_points.points"] == 7
    assert got["unipoly.mul.calls"] == 0


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "hwquartic" or name.startswith("hwquartic."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("hwquartic"):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    with tracer.Tracer() as tr:
        assert harness.hw_matrix is hwcore.hw_matrix is hwquartic.hw_matrix
        assert harness.hw_matrix is not before[("hwquartic.hwcore", "hw_matrix")]
        assert unipoly.UniPoly.__mul__ is not before[
            ("hwquartic.unipoly", "UniPoly", "__mul__")]
        changed = {k for k, v in _bindings().items() if before.get(k) is not v}
        assert len(changed) >= sum(len(t) for t in tracer.SPANS.values())
        sweep = run.run_sweep(harness.main, [_first("fp", "classify")], [], False, tr)
    spans, _points, escaped = sweep.trace
    names = {s[0] for s in spans}
    assert {"harness.cli", "harness.parse", "hwcore.hw_matrix",
            "hwcore.coefficient", "hwcore.rank", "harness.render"} <= names
    assert all(s[4] == "general-0" for s in spans) and not escaped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_an_escaping_exception_counts_once_per_layer():
    broken = SimpleNamespace(modulus=hwquartic.modulus(13), terms=None)
    with tracer.Tracer() as tr:
        assert harness.main(["count-points", "--family", "c9", "--p", "61"]) == 3
        with pytest.raises(AttributeError):
            hwcore.hw_matrix(broken)
    spans, _points, escaped = tr.drain()
    assert [(s[0], s[5]) for s in spans] == [
        ("harness.cli", False), ("harness.count_points", True),
        ("hwcore.hw_matrix", True), ("hwcore.coefficient", True)]
    got = tracer.summarize(spans, {}, escaped)
    assert (got["harness.errors"], got["hwcore.errors"]) == (1, 1)
