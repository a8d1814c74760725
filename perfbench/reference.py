"""Reference kernels: fixed work that tells how fast the core is right now.

Other tenants of a shared host slow the whole core for seconds to minutes
at a time (on a 2-core sandbox a fixed kernel ran in about 85 us or about
125 us depending on what the rest of the host was doing), so whole runs
of identical code differed by over 30%.  The benchmark runs its
workload's kernel just before every call and scales each call's latency
by the kernel's nominal time over its local median time (``run.py``).

Each kernel copies the operation mix its workload spends its time in, so
that it slows the way the workload does; neither uses the program.  An
interpreter kernel did not track the numpy-bound `ext2` workload (scaling
by it spread the sweeps more than no scaling), and the numpy kernel is
too coarse for the interpreter-bound `fp` workload.

A kernel runs right after the previous call, in the caches that call
left, as the next call does; timing a second, warm run instead tracked
the short `fp` items worse.  So a change to how much of the caches the
program's calls use also moves the kernel's time a little, and with it
the scaled latencies."""

from __future__ import annotations

import numpy as np


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for a in range(n + 1):
        for rest in _compositions(n - a, k - 1):
            yield (a,) + rest


def interpreter_kernel() -> int:
    """A recursive generator of tuples, modular powers and dict stores:
    the work of the composition enumerator and the closed-form suites.
    About 0.15 ms."""
    acc, seen = 0, {}
    for t in _compositions(10, 3):
        m = 1
        for v in t:
            m = m * pow(v + 2, 11, 10007) % 10007
        seen[t] = m
        acc = (acc + m * t[0]) % 10007
    return acc


_P = 19
_Q = _P * _P
_XA = np.repeat(np.arange(_P, dtype=np.int64), _P)
_XB = np.tile(np.arange(_P, dtype=np.int64), _P)
#: the kernel's buffers, allocated once: a kernel that allocated its arrays
#: took 4.6 ms after the program's calls and 7.4 ms back to back, because
#: its time followed the state the program left the allocator in
_AA, _AB, _T1, _T2 = (np.empty((_Q, _Q), dtype=np.int64) for _ in range(4))
_Z1, _Z2 = (np.empty((_Q, _Q), dtype=bool) for _ in range(2))


def numpy_kernel() -> int:
    """Two Horner steps over F_{19^2} x F_{19^2} in int64 components: the
    work of one exact point count over F_{p^2}, in preallocated buffers."""
    ya, yb = _XA[np.newaxis, :], _XB[np.newaxis, :]
    np.copyto(_AA, _XA[:, np.newaxis])
    np.copyto(_AB, _XB[:, np.newaxis])
    for _ in range(2):
        np.multiply(_AA, ya, out=_T1)          # aa * ya + 3 * ab * yb + 1
        np.multiply(_AB, yb, out=_T2)
        np.multiply(_T2, 3, out=_T2)
        np.add(_T1, _T2, out=_T1)
        np.add(_T1, 1, out=_T1)
        np.multiply(_AA, yb, out=_T2)          # aa * yb + ab * ya + 2
        np.multiply(_AB, ya, out=_AA)
        np.add(_T2, _AA, out=_T2)
        np.add(_T2, 2, out=_T2)
        np.remainder(_T1, _P, out=_AA)
        np.remainder(_T2, _P, out=_AB)
    np.equal(_AA, 0, out=_Z1)
    np.equal(_AB, 0, out=_Z2)
    np.logical_and(_Z1, _Z2, out=_Z1)
    return int(np.count_nonzero(_Z1))


#: workload -> (kernel, its time in seconds at the speed the reported
#: times are scaled to).  The nominal times are the kernels' medians inside
#: the sweeps on an idle 2-core Xeon sandbox, so scaled times read close to
#: wall times there.
KERNELS = {
    "fp": (interpreter_kernel, 165e-6),
    "ext2": (numpy_kernel, 4e-3),
}
