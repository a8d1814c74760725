"""Benchmark of the hwquartic CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload fp --seed 1 --seconds 50 --trace 0

Load model: a closed loop with one client.  The process calls the public
entry point ``hwquartic.harness.main`` with one generated argv list at a
time and sends the next when the previous returns.  Before each call the
program's per-process caches are cleared, because a CLI user pays the
lazy per-prime set-up (factorial tables, non-residue search) on every
call.  Whole sweeps over the item list repeat until ``--seconds`` is
spent.  Just before each call the workload's reference kernel runs, and
each latency is scaled to the kernel's nominal speed (``reference.py``),
so that a core slowed by other tenants does not show as a slower program.
Outputs are checked after the timed sweeps (``checks.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sweeps (``tracer.py``) and reports the per-layer
metrics plus the tracing overhead.  The
last line of stdout is the JSON result; the lines before it are a
human-readable table and the machine facts.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

import checks
import items as items_mod
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"

#: fresh interpreters started to time `import hwquartic` before the sweeps
#: and again after each sweep, so that the median spans the whole run
SETUP_FIRST = 4
SETUP_PER_SWEEP = 3

#: the client is one single-threaded process.  numpy's BLAS pool would
#: otherwise start a thread per core at import, and setup_s would depend on
#: whether the other core is idle; the program does no BLAS work.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

#: reference samples on each side of an item that give its local speed
SPEED_WINDOW = 10

Call = namedtuple("Call", "rc out err digest seconds reference")
Sweep = namedtuple("Sweep", "wall calls trace")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(repeats: int, warm: bool = False) -> list:
    """Seconds from starting a fresh interpreter until `import hwquartic`
    returns (numpy included), one value per interpreter.

    With `warm`, one untimed start first writes the bytecode caches.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import hwquartic, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for n in range(repeats + 1 if warm else repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=60)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import hwquartic")
        if n or not warm:
            times.append(elapsed)
    return times


def cache_clearers(package) -> list:
    """cache_clear of every functools cache bound in the program's modules."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    seen[id(value)] = value.cache_clear
    return list(seen.values())


def run_sweep(main, items, clearers, keep_output, tracer=None, kernel=None) -> Sweep:
    """One pass over the item list; each main(argv) call is timed alone,
    just after one timed run of the reference `kernel` (if given)."""
    calls = []
    start = time.perf_counter()
    for item in items:
        for clear in clearers:
            clear()
        r0 = time.perf_counter()
        if kernel is not None:
            kernel()
        ref_seconds = time.perf_counter() - r0
        if tracer is not None:
            tracer.item = item["id"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(item["argv"])
            except Exception:
                rc = None
                traceback.print_exc(file=err)
            t1 = time.perf_counter()
        text = out.getvalue()
        calls.append(Call(rc, text if keep_output else None, err.getvalue(),
                          checks.digest(text), t1 - t0, ref_seconds))
    wall = time.perf_counter() - start
    return Sweep(wall, calls, None if tracer is None else tracer.drain())


def run_sweeps(main, items, clearers, seconds, kernel):
    """Sweeps until the next one would not finish within `seconds` (at least
    one), with set-up times taken before the first and after each sweep.
    Returns the sweeps and the set-up times."""
    sweeps = []
    start = time.perf_counter()
    setup = measure_setup(SETUP_FIRST, warm=True)
    while True:
        sweeps.append(run_sweep(main, items, clearers, not sweeps, kernel=kernel))
        setup += measure_setup(SETUP_PER_SWEEP)
        if time.perf_counter() - start + sweeps[-1].wall > seconds:
            return sweeps, setup


def run_traced(harness, items, clearers, seconds, kernel):
    """Alternate untraced and traced sweeps until the next pair would not
    finish within `seconds` (at least one pair), so that both see the same
    machine; the tracer is installed only around each traced sweep."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_sweep(harness.main, items, clearers, not untraced,
                                  kernel=kernel))
        with tracer_mod.Tracer() as tracer:
            traced.append(run_sweep(harness.main, items, clearers, False, tracer,
                                    kernel))
        pair = untraced[-1].wall + traced[-1].wall
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced


def machine_facts() -> dict:
    import numpy
    facts = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
             "python": platform.python_version(), "numpy": numpy.__version__,
             "commit": _commit()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
    return facts


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def scaled_latencies(calls, nominal) -> list:
    """The calls' latencies in seconds at the reference kernel's nominal
    speed: each latency times the kernel's `nominal` time over the median
    of its times around the call (``reference.py`` says why)."""
    refs = [c.reference for c in calls]
    out = []
    for i, call in enumerate(calls):
        local = statistics.median(refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        out.append(call.seconds * nominal / local)
    return out


def best_latencies(sweeps, nominal) -> list:
    """Each item's scaled latency as its minimum over the run's sweeps, in
    seconds.  Bursts that the scaling misses only ever add time."""
    return [min(times) for times in zip(*(scaled_latencies(s.calls, nominal)
                                          for s in sweeps))]


def speed_factor(sweeps, nominal) -> float:
    """Median kernel time over its nominal time: above 1 on a slow core."""
    return statistics.median(c.reference for s in sweeps for c in s.calls) / nominal


def end_to_end(sweeps, setup, nominal) -> dict:
    best = best_latencies(sweeps, nominal)
    ms = [t * 1000 for t in best]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "sweep_s": (sum(best), "s", len(sweeps)),
        "item_p50_ms": (statistics.median(ms), "ms", len(ms)),
        "item_p90_ms": (percentile(ms, 0.9), "ms", len(ms)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def per_layer(untraced, traced, nominal) -> dict:
    summaries = [tracer_mod.summarize(*s.trace) for s in traced]
    out = {}
    for name in summaries[0]:
        unit = "s" if name.endswith("self_s") else "count"
        middle = statistics.median if unit == "s" else statistics.median_low
        out[name] = (middle(s[name] for s in summaries), unit, len(summaries))
    overhead = (sum(best_latencies(traced, nominal))
                / sum(best_latencies(untraced, nominal)) - 1)
    out["trace.overhead"] = (overhead, "1", len(traced))
    return out


def write_spans(workload, seed, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(items_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hwquartic" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    items = items_mod.build(args.workload, args.seed)
    os.environ.update(SINGLE_THREAD_ENV)

    sys.path.insert(0, str(SRC))
    import reference  # numpy, after the thread settings
    from hwquartic import harness
    clearers = cache_clearers("hwquartic")
    kernel, nominal = reference.KERNELS[args.workload]

    if args.trace:
        untraced, traced = run_traced(harness, items, clearers, args.seconds, kernel)
        metrics = per_layer(untraced, traced, nominal)
        spans_path = write_spans(args.workload, args.seed, traced[-1].trace[0])
        sweeps = untraced + traced
    else:
        sweeps, setup = run_sweeps(harness.main, items, clearers, args.seconds, kernel)
        metrics = end_to_end(sweeps, setup, nominal)
        spans_path = None

    golden = checks.load_golden(args.workload, args.seed)
    verdicts = checks.judge(items, [s.calls for s in sweeps], golden)
    attempted = sum(len(v) for v in verdicts)
    failed = sum(r is not None for v in verdicts for r in v)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} items={len(items)} sweeps={len(sweeps)} "
          f"golden={'checked' if golden else 'none for this seed'}")
    print("# machine " + json.dumps(machine_facts()))
    unscaled = sum(min(t) for t in zip(*([c.seconds for c in s.calls] for s in sweeps)))
    print(f"# reference kernel {kernel.__name__}: {speed_factor(sweeps, nominal):.4f} x "
          f"its nominal {nominal * 1e3:g} ms; unscaled sweep_s {unscaled:.4f} s")
    if spans_path is not None:
        print(f"# spans of the last traced sweep: {spans_path.relative_to(ROOT)}")
    for item, reasons in zip(items, zip(*verdicts)):
        reason = next((r for r in reasons if r is not None), None)
        if reason is not None:
            print(f"# FAIL {item['id']} {' '.join(item['argv'])}: {reason}")
    print(f"{'metric':34} {'value':>14} {'unit':6} samples")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34} {value:14.6g} {unit:6} {n}")
    if not args.trace:
        print(f"{'fail_ratio':34} {failed / attempted:14.6g} {'1':6} {attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
