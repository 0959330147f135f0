"""Independent path slices run in forked worker processes.

Each path of a study is a pure function of (master seed, path index), so the
paths split into contiguous slices that each process reduces on its own, and
the parts joined in slice order have the bits of one serial pass.
``fan_out`` runs slice 0 in the calling process and each other slice in an
``os.fork`` child, which sends back its result, or its exception, pickled
through a pipe.  No child outlives the call: each is reaped before it
returns, and killed first if the caller fails.  A slice whose fork fails
runs in the caller.  If slices fail, the call raises what one serial pass
would meet first: an ``EvaluatorError`` at the earliest step time, any other
exception before every step, the lowest slice on a tie.  ``worker_count``
is the rule for how many processes a call uses.
"""

from __future__ import annotations

import os
import pickle

from .errors import EvaluatorError

# Fewest paths a worker is given.  A worker pays a fork, the copy-on-write
# faults it causes and, in a settle sweep, the whole per-step numpy overhead
# of the batch kernel.  On a 2-vCPU host, two processes of 32 or 64 paths
# were no faster than one process, or slower (noise-check on the README
# cosine over 50 s: 15 -> 22 ms for 64 paths; settle on example1 over 10 s:
# 130 -> 137 ms for 64 paths), and two of 128 paths were 10-40% faster
# (256 paths: noise-check 76-107 -> 59-67 ms, settle 219 -> 170 ms).
MIN_PATHS_PER_WORKER = 128


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(jobs: int, n_paths: int) -> int:
    """Processes used for n_paths paths under ``--jobs jobs``: at most the
    usable CPUs and one per MIN_PATHS_PER_WORKER paths, at least 1."""
    return max(1, min(jobs, usable_cpus(), n_paths // MIN_PATHS_PER_WORKER))


def _run(fn, part):
    try:
        return True, fn(part)
    except Exception as e:
        return False, e


def _fork(fn, part):
    """(pid, read end) of a child that writes ``_run(fn, part)`` pickled."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            data = pickle.dumps(_run(fn, part))
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _step_time(e: Exception) -> float:
    """Where an exception stops a serial pass: an EvaluatorError at its
    step's time, any other exception before every step."""
    return e.t if isinstance(e, EvaluatorError) else -float("inf")


def fan_out(fn, n_paths: int, jobs: int) -> list:
    """[fn(slice(a, b)) for the contiguous slices of range(n_paths)], one
    slice per ``worker_count(jobs, n_paths)`` process, in slice order.

    If a slice raises, the exception object is re-raised once every slice
    has ended: the one a serial pass meets first (see the module note).
    """
    n = worker_count(jobs, n_paths)
    cuts = [n_paths * k // n for k in range(n + 1)]
    parts = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    children = []                           # (slice index, pid, read end)
    outcomes = [None] * n
    try:
        for k in range(1, n):
            try:
                children.append((k, *_fork(fn, parts[k])))
            except OSError:                 # no fork: the slice runs here
                outcomes[k] = _run(fn, parts[k])
        outcomes[0] = _run(fn, parts[0])
        while children:
            k, pid, pipe = children[0]
            data = pipe.read()              # to EOF: the child has written all
            pipe.close()
            children.pop(0)
            os.waitpid(pid, 0)
            outcomes[k] = pickle.loads(data) if data else (False, ChildProcessError(
                f"the worker of paths {parts[k].start}..{parts[k].stop - 1} "
                "ended without a result"))
    finally:
        for _, pid, pipe in children:       # left only if this process failed
            pipe.close()
            os.kill(pid, 9)                 # SIGKILL
            os.waitpid(pid, 0)
    errors = [value for ok, value in outcomes if not ok]
    if errors:
        raise min(errors, key=_step_time)
    return [value for _, value in outcomes]
