"""Two independent ``no_grad`` calls on two cores.

``both((f, *f_args), (g, *g_args))`` returns ``(f(*f_args), g(*g_args))``.
With grad off and at least two CPUs in this process's affinity set, ``g``
runs on one persistent helper process, forked on first use, while the caller
runs ``f``. Otherwise both run in the caller, ``f`` first. Training always
takes the serial path: its graph must stay in one process.

The helper computes what the caller would. It is a fork of the caller, runs
the same functions on the same arrays (OpenBLAS is pinned to one thread in
both), and gets every argument, parameters included, with each call, so it
never computes with stale weights. It runs under ``no_grad`` with the
caller's debug-check setting and counts its flops under its own
``FlopCounter``; the caller adds that total to its own counter. An exception
from either half is raised in the caller only after the helper's reply has
been read, so no reply is left in the pipe for the next call. A call that
finds the helper dead runs ``g`` itself, and the next call forks a new one.
Only one call uses the helper at a time; a concurrent one runs serially.
``g`` must be picklable by reference: a module-level function.

The helper is daemonic, closes its copy of the caller's pipe end (so it exits
on end-of-file when the caller exits or dies) and is joined at interpreter
exit. ``multiprocessing`` is imported by the first call that forks. Each
call also sends the CPU the caller runs on, and a helper found there moves
off it (see ``_leave_cpu``).
"""

from __future__ import annotations

import atexit
import copyreg
import ctypes
import io
import os
import pickle
import signal
import threading

from . import autodiff as ad

_lock = threading.Lock()    # one call uses the helper at a time
_helper = None              # (process, connection) once forked
_in_helper = False
_getcpu = None              # libc's sched_getcpu, looked up on first use


def _cpu() -> int:
    """The CPU this process runs on now, or -1 where that is unknown."""
    global _getcpu
    if _getcpu is None:
        try:
            _getcpu = ctypes.CDLL(None).sched_getcpu
        except (AttributeError, OSError, TypeError):    # no glibc
            _getcpu = lambda: -1    # noqa: E731
    return _getcpu()


def _two_cpus() -> bool:
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) >= 2


def _helper_usable() -> bool:
    """Grad off, two CPUs, not in the helper itself, and, before the fork,
    no other thread: a fork copies only the calling thread, so a lock held
    by another would stay held in the helper."""
    return not ad._grad_enabled and not _in_helper and _two_cpus() \
        and (_helper is not None or threading.active_count() == 1)


# a Tensor crosses the pipe as its array: grad and graph links stay behind
_DISPATCH = dict(copyreg.dispatch_table)
_DISPATCH[ad.Tensor] = lambda t: (ad.Tensor, (t.data,))


def _dumps(obj) -> bytes:
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _DISPATCH
    pickler.dump(obj)
    return buf.getvalue()


def both(first: tuple, second: tuple) -> tuple:
    """``(first[0](*first[1:]), second[0](*second[1:]))``, the second on the
    helper process when ``_helper_usable()`` and no other call is using it."""
    if not _helper_usable() or not _lock.acquire(blocking=False):
        return first[0](*first[1:]), second[0](*second[1:])
    try:
        return _both_on_two_cores(first, second)
    finally:
        _lock.release()


def _both_on_two_cores(first: tuple, second: tuple) -> tuple:
    request = _dumps((second, ad._debug_checks, _cpu()))
    try:
        conn = _connection()
        conn.send_bytes(request)
    except OSError:         # no fork, or the helper died since the last call
        _shutdown()
        return first[0](*first[1:]), second[0](*second[1:])
    failure = None
    try:
        result = first[0](*first[1:])
    except BaseException as exc:    # raised once the reply has been read
        failure = exc
    try:
        reply = conn.recv_bytes()
    except (EOFError, OSError):     # the helper died: its half runs here
        _shutdown()
        reply = None
    except BaseException:           # the pipe's state is unknown
        _shutdown()
        raise
    if failure is not None:
        raise failure
    if reply is None:
        return result, second[0](*second[1:])
    ok, value, flops = pickle.loads(reply)
    if not ok:
        raise value
    ad._count(flops)
    return result, value


def _connection():
    global _helper
    if _helper is None:
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        conn, helper_conn = ctx.Pipe()
        process = ctx.Process(target=_serve, args=(helper_conn, conn),
                              name="dualfuse-helper", daemon=True)
        process.start()
        helper_conn.close()
        _helper = (process, conn)
    return _helper[1]


def _shutdown() -> None:
    """Close the caller's pipe end, so the helper exits, and join it."""
    global _helper
    if _helper is None:
        return
    process, conn = _helper
    _helper = None
    conn.close()
    process.join(5.0)
    if process.is_alive():
        process.terminate()
        process.join()


atexit.register(_shutdown)


def _serve(conn, caller_conn) -> None:
    """Helper loop: run each call received, reply (ok, value, flops)."""
    global _in_helper
    _in_helper = True
    caller_conn.close()     # else the caller's death would not end recv
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller handles ^C
    allowed = os.sched_getaffinity(0)
    while True:
        try:
            (call, debug, caller_cpu) = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        _leave_cpu(caller_cpu, allowed)
        ad.set_debug_checks(debug)
        try:
            with ad.no_grad(), ad.FlopCounter() as flops:
                reply = (True, call[0](*call[1:]), flops.total)
        except Exception as exc:
            reply = (False, exc, 0)
        # a reply that cannot be pickled ends the helper: the caller then
        # reads end-of-file and runs the call itself
        try:
            conn.send_bytes(_dumps(reply))
        except OSError:
            return


def _leave_cpu(cpu: int, allowed: set) -> None:
    """Move this process off ``cpu`` when it runs there, by taking ``cpu``
    out of its affinity set (``allowed`` less ``cpu``). A forked helper
    starts on the caller's CPU; where the kernel does not balance load
    across CPUs (a cpuset with ``sched_load_balance`` off) the two can then
    share one CPU for seconds while another idles, and each call takes as
    long as both halves."""
    if cpu < 0 or _cpu() != cpu or not allowed - {cpu}:
        return
    try:
        os.sched_setaffinity(0, allowed - {cpu})
    except OSError:     # the CPUs left are offline: stay where it is
        pass
