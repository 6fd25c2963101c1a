"""Fan-out over forked worker processes, the results in input order.

`forked_map(fn, items)` yields `fn(item)` for each item, in order. With W
usable CPUs (at most one per item), the caller computes items 0, W, 2W, …
itself and each of W − 1 forked workers computes its own stride k, W + k,
…. A worker pickles each result onto its own pipe, which the caller reads
on its own thread when it reaches that item; a full pipe blocks the worker,
so no worker runs more than one item ahead.

Each item is a pure function of what a worker inherits at the fork, so the
results are the bytes of the serial loop. Nothing is handed out to
whichever process is free: the caller's share is fixed, so every call it
makes repeats exactly from run to run.

Each worker is pinned to one CPU of the caller's set, and the caller to
the set's first CPU while it computes an item of its own, so that
`_cpu_count()` is 1 in every item and nothing an item runs fans out again:
a map inside an item, such as the registration of one sequence of a
manifest's, is the serial loop. The caller gets its own set back as each
of its items returns or raises, so the consumer's code between results
runs on the whole set. A worker leaves through `os._exit` on every path:
it never runs the caller's `finally` blocks or `atexit` handlers and never
flushes the caller's buffered output again. The caller kills and reaps
every worker when the map ends, raises or is closed early.

With one usable CPU, or without CPU affinity (`os.sched_setaffinity`:
Windows, macOS), the map is the serial loop in-process.
"""

from __future__ import annotations

import os
import pickle
import signal


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outcome(fn, item) -> tuple[bool, bytes]:
    """Whether fn(item) returned, and the pickled (ok, its value or the
    exception it raised)."""
    try:
        return True, pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
    except Exception as e:
        try:
            return False, pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL)
        except Exception:  # an exception that does not pickle: its type and message
            return False, pickle.dumps((False, RuntimeError(f"{type(e).__name__}: {e}")),
                                       pickle.HIGHEST_PROTOCOL)


def _work(fn, items, start, step, pipe, cpu):
    """A worker's whole life: pin to `cpu`, write the outcome of each of
    items[start::step] to the write end of `pipe`, stop after a failure,
    and exit without returning."""
    status = 1
    try:
        os.close(pipe[0])
        os.sched_setaffinity(0, {cpu})
        with os.fdopen(pipe[1], "wb") as out:
            for i in range(start, len(items), step):
                ok, message = _outcome(fn, items[i])
                out.write(message)
                out.flush()
                if not ok:
                    break
        status = 0
    finally:
        os._exit(status)


def forked_map(fn, items):
    """Yield fn(item) for each of `items`, in order, computed across the
    usable CPUs as the module docstring describes.

    An exception of `fn` is raised here with its type and message, the first
    in input order winning. A worker that exits without a result is a
    RuntimeError naming its exit status. Close the generator (or exhaust
    it) to reap the workers when its consumer may stop early."""
    items = list(items)
    n = min(_cpu_count(), len(items))
    if n < 2 or not hasattr(os, "sched_setaffinity"):  # where it exists, so does os.fork
        for item in items:
            yield fn(item)
        return
    cpus = sorted(os.sched_getaffinity(0))
    workers = {}  # stride -> (pid, reader)
    try:
        for k in range(1, n):
            pipe = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, items, k, n, pipe, cpus[k % len(cpus)])
            os.close(pipe[1])
            workers[k] = pid, os.fdopen(pipe[0], "rb")
        for i, item in enumerate(items):
            if i % n == 0:
                os.sched_setaffinity(0, cpus[:1])
                try:
                    value = fn(item)
                finally:
                    os.sched_setaffinity(0, cpus)
                yield value
                continue
            pid, reader = workers[i % n]
            try:
                ok, value = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):  # the pipe closed early
                del workers[i % n]
                reader.close()
                _, status = os.waitpid(pid, 0)
                raise RuntimeError(f"worker process {pid} exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} without the "
                                   f"result of item {i}") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, reader in workers.values():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
