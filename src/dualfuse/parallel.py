"""Two calls on two cores, forward and, in a training step, backward.

``both((f, *f_args), (g, *g_args))`` returns ``(f(*f_args), g(*g_args))``.
With at least two CPUs in this process's affinity set, ``g`` runs on one
persistent helper process, forked on first use, while the caller runs
``f``. Otherwise both run in the caller, ``f`` first. With grad off any
call may use the helper; with grad on, only a call inside
``training_step``. A graph-building call anywhere else runs serially,
and so does any call while a held graph's backward waits on a reply.

The helper computes what the caller would. It is a fork of the caller, runs
the same functions on the same arrays (OpenBLAS is pinned to one thread in
both), and gets every argument, parameters included, with each call, so it
never computes with stale weights. It counts its flops under its own
``FlopCounter``; the caller adds that total to its own counter.

Every call sends one kind of request and reads one kind of reply: the
grad modes differ only in whether the request carries a graph key, and
the helper runs ``g`` with grad on when it does. With grad off, tensors
cross both ways as plain arrays, so the call gets no stand-ins and the
helper holds nothing. A grad-mode call keeps ``g``'s graph in the helper
and returns ``g``'s outputs with grad as ``autodiff.StandIn`` leaves. The
helper holds one such graph per call, several in one step: a stage-II
step holds encode(b) and the scan-side fusion block (see
``fusion.fuse_features``). ``g``'s tensors with grad cross as fresh
leaves: parameters, and at most one op result of the caller's graph (the
scan side reads ``pre_mamba``, computed from encode(b)'s stand-in). A
stand-in keeps that op result's Node as a parent, so the caller's graph
above it runs after the stand-in's place.

In backward the caller sends each stand-in's gradient as soon as the last
op reading it has run, back-propagates its own graph while the helper
back-propagates ``g``'s, and, at the place where the serial backward would
have run ``g``'s graph, adds the helper's contributions, to parameters and
to the op result's Node alike, one by one in the helper's order. *The
ordering invariant*: every gradient target, parameter or node, gets the
same contributions in the same order as on the serial path, so gradients,
loss logs and checkpoints keep every byte. The two backwards overlap
where the serial order gives them room: ``autodiff._schedule`` moves the
ops that read a stand-in ahead of the rest when, and only when, that keeps
the invariant, and a graph the serial backward reaches late, as it
reaches the scan side after the attention side and the head, runs in the
helper while the caller runs those. One request at most is in flight: a
request waits for the reply still due, which is kept for its graph, and a
graph's next backward group waits until its last has been added in.

An exception from either half is raised in the caller only after the
helper's reply has been read, so no reply is left in the pipe for the next
call. A training step owns the helper, holding ``_lock`` from start to
end, and its end is the one place that ends a held graph whose backward
did not finish: it reads the reply still due and has the helper drop
every graph it holds, as all are the step's. A call that finds the helper
dead, or loses it before the reply, runs ``g`` itself, and the next call
forks a new one. A helper lost during a held graph's backward is shut
down, and ``training_step`` reruns the whole step serially: the serial
path is the byte oracle, so the rerun gives the same bytes. A call or a
step that finds ``_lock`` held by another thread runs serially.

What cannot cross the pipe runs in the caller, and the helper lives: a
request, value or exception that cannot be pickled makes the call run
``g`` in the caller, and a backward group's reply that cannot be pickled
makes ``training_step`` rerun the step serially. A function crosses the
pipe by module and name, so a wrapper that copies its wrapped function's
name (``functools.wraps``) sends the wrapped function.

The helper is daemonic, closes its copy of the caller's pipe end (so it exits
on end-of-file when the caller exits or dies) and is joined at interpreter
exit. ``multiprocessing`` is imported by the first call that forks. Each
call also sends the CPU the caller runs on, and a helper found there moves
off it (see ``_leave_cpu``). Each reply carries the helper's peak resident
set (``helper_peak_rss``).
"""

from __future__ import annotations

import atexit
import copyreg
import ctypes
import importlib
import io
import itertools
import os
import pickle
import signal
import threading
import types

from . import autodiff as ad

_lock = threading.RLock()   # held by a call and by a training step: one thread
_helper = None              # (process, connection) once forked
_in_helper = False
_in_step = False            # inside training_step, helper allowed
_pending: list = []         # the _Halves whose graphs the helper holds
_due = None                 # the _Half whose reply is due: one at most
_keys = itertools.count()   # names each held graph to the helper
_held: dict = {}            # in the helper: key -> (leaves, nodes, parts)
_helper_peak = 0            # the largest ru_maxrss a helper has replied with
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
    """Grad off or inside a training step, two CPUs, not in the helper
    itself, no reply due to a held graph's backward, and, before the fork,
    no other thread: a fork copies only the calling thread, so a lock held
    by another would stay held in the helper."""
    return (not ad._grad_enabled or _in_step) and not _in_helper \
        and _due is None and _two_cpus() \
        and (_helper is not None or threading.active_count() == 1)


def helper_peak_rss() -> int:
    """The largest peak resident set (``ru_maxrss``) a helper has reported
    in this process, 0 when none ran."""
    return _helper_peak


def training_step(step, targets: list):
    """``step()``, one training step that builds its graph and runs its
    backward, with each grad-mode ``both`` inside allowed to run its second
    call on the helper, which the step owns. A graph the helper still holds
    at the end, because the step failed or its backward never reached the
    stand-ins, is dropped there and only there (see ``_attempt``). When the
    backward cannot finish in the helper (``_HelperLost``), each of
    ``targets`` (the tensors the step adds gradients into) gets back the
    ``grad`` it had before, and ``step()`` runs again serially. Each
    attempt counts its flops into the installed ``FlopCounter`` only when
    it succeeds, so a rerun step counts the serial flops once."""
    saved = [None if t.grad is None else t.grad.copy() for t in targets]
    try:
        return _attempt(step, True)
    except _HelperLost:
        for t, grad in zip(targets, saved):
            t.grad = grad
        return _attempt(step, False)


def _attempt(step, helper: bool):
    """One run of ``step()``. With ``helper``, and ``_lock`` free to take,
    the step owns the helper and holds ``_lock`` to its end, which reads the
    reply still due, has the helper drop its graphs, finishes each pending
    ``_Half`` and releases ``_lock``. Otherwise it runs serially."""
    global _in_step
    owner = helper and _lock.acquire(blocking=False)
    if owner:
        _in_step = True
    try:
        with ad.FlopCounter() as flops:
            value = step()
    finally:
        if owner:
            _in_step = False
            try:
                if _helper is not None:
                    _read_due()
                    _helper[1].send_bytes(_dumps(("drop",)))
            except (EOFError, OSError):     # the helper died: it holds nothing
                _shutdown()
            finally:
                for half in list(_pending):
                    half._finish()
                _lock.release()
    ad._count(flops.total)
    return value


# ---------------------------------------------------------------------------
# what crosses the pipe
# ---------------------------------------------------------------------------

class _HelperLost(Exception):
    """A held graph's backward cannot finish in the helper: it was lost,
    and the place that finds it shuts it down first, or it could not
    pickle a group's reply, and replied with this exception."""


class _Serial(Exception):
    """A grad-mode call runs serially: it was given a stand-in, whose
    gradient would then be final only at a place in another graph's
    backward, or a second op result with grad, which the serial backward
    could reach between the remote graph's contributions into the first;
    or (raised by the helper) it returned a tensor with grad that no op
    made, such as a parameter it was given, into which the serial backward
    adds each reader's contribution, as no stand-in can; or it could not
    pickle the call's reply."""


def _by_name(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


# a Tensor crosses the pipe as its array: grad and graph links stay behind
_DISPATCH = dict(copyreg.dispatch_table)
_DISPATCH[ad.Tensor] = _DISPATCH[ad.StandIn] = lambda t: (ad.Tensor, (t.data,))


class _GradPickler(pickle.Pickler):
    """Pickles a call and its outputs. In grad mode ``leaves`` (a list, in
    the caller) numbers the gradient targets of the call's tensors with
    grad: parameters and other leaves, and the Node of at most one op
    result. Each arrives as a fresh leaf with grad. ``outputs`` (in the
    helper) numbers the tensors with grad it returns, which arrive as
    stand-ins. With grad off every tensor crosses as its array. A function
    whose module and name lead to another object crosses as that name."""

    dispatch_table = _DISPATCH

    def __init__(self, file, leaves=None, outputs=None):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.leaves, self.outputs = leaves, outputs
        self.numbers: dict = {}
        self.op_result = False

    def persistent_id(self, obj):
        if not ad._grad_enabled or not isinstance(obj, ad.Tensor) \
                or not obj.requires_grad:
            return None
        if self.outputs is not None:
            return ("out", self._number(obj, self.outputs), obj.data)
        target = ad._target(obj)
        if id(target) not in self.numbers:
            if type(obj) is ad.StandIn or target is not obj and self.op_result:
                raise _Serial
            self.op_result |= target is not obj
        return ("leaf", self._number(target, self.leaves), obj.data)

    def _number(self, t, found: list) -> int:
        if id(t) not in self.numbers:
            self.numbers[id(t)] = len(found)
            found.append(t)
        return self.numbers[id(t)]

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            try:
                named = _by_name(obj.__module__, obj.__qualname__)
            except (AttributeError, ImportError):
                return NotImplemented
            if named is not obj:
                return _by_name, (obj.__module__, obj.__qualname__)
        return NotImplemented


class _Unpickler(pickle.Unpickler):
    """Rebuilds what ``_GradPickler`` wrote: leaves with grad into
    ``leaves``, and outputs as ``half``'s stand-ins."""

    def __init__(self, data: bytes, half=None):
        super().__init__(io.BytesIO(data))
        self.half = half
        self.leaves: list = []

    def persistent_load(self, pid):
        kind, index, data = pid
        found = self.leaves if kind == "leaf" else self.half.stand_ins
        if index == len(found):
            found.append(ad.Tensor(data, requires_grad=True) if kind == "leaf"
                         else ad.StandIn(data, self.half, index))
        return found[index]


def _dumps(obj, **grad) -> bytes:
    """``obj`` pickled; with ``leaves`` or ``outputs``, by ``_GradPickler``."""
    buf = io.BytesIO()
    if grad:
        _GradPickler(buf, **grad).dump(obj)
    else:
        pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = _DISPATCH
        pickler.dump(obj)
    return buf.getvalue()


def _result(reply: bytes):
    """The value of an (ok, value, flops, peak rss) reply; raises the
    helper's exception."""
    global _helper_peak
    ok, value, flops, peak = pickle.loads(reply)
    _helper_peak = max(_helper_peak, peak)
    if not ok:
        raise value
    ad._count(flops)
    return value


class _Sink:
    """A caller-side gradient target, as the helper sees it: each
    contribution, summed to the target's shape, goes to ``log`` under the
    target's ``index``, for the caller to add in the same order."""

    __slots__ = ("index", "shape", "log")

    def __init__(self, index: int, shape: tuple, log: list):
        self.index, self.shape, self.log = index, shape, log

    def _accumulate(self, g) -> None:
        self.log.append((self.index, ad._sum_to(g, self.shape)))


# ---------------------------------------------------------------------------
# the caller
# ---------------------------------------------------------------------------

def both(first: tuple, second: tuple) -> tuple:
    """``(first[0](*first[1:]), second[0](*second[1:]))``, the second on the
    helper process when ``_helper_usable()`` and no other thread holds
    ``_lock``, which the call holds until it returns. In grad mode the
    request carries a graph key, and the helper keeps ``second``'s graph
    when that returns a tensor with grad; the graph's ``_Half`` then joins
    ``_pending``. A call that cannot reach the helper, loses it before the
    reply, or is refused with ``_Serial``, runs ``second`` here. An
    exception from ``first`` is raised once the reply has been read; the
    end of the step drops whatever graph ``second`` left in the helper."""
    if not _helper_usable() or not _lock.acquire(blocking=False):
        return first[0](*first[1:]), second[0](*second[1:])
    half = _Half()
    try:
        try:
            request = _dumps(("call", second, _cpu(),
                              half.key if ad._grad_enabled else None),
                             leaves=half.leaves)
        except Exception:   # _Serial, or the request cannot be pickled
            return first[0](*first[1:]), second[0](*second[1:])
        try:
            conn = _connection()
            conn.send_bytes(request)
        except OSError:     # no fork, or the helper died since the last call
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
        try:
            payload, half.reach, reads = _result(reply)
        except _Serial:
            return result, second[0](*second[1:])
        value = _Unpickler(payload, half).load()
        if half.stand_ins:
            half.hold(reads)
        return result, value
    finally:
        _lock.release()


def _read_due() -> None:
    """Read the reply still due, if any, into its graph's ``inbox``. Every
    backward request is sent after this, so one request at most is in
    flight: the helper reads nothing while it sends a reply, and a request
    and a reply both larger than the pipe's buffer would wait on each other
    for ever."""
    global _due
    if _due is not None:
        try:
            reply = _helper[1].recv_bytes()
        except BaseException:
            _shutdown()
            raise
        _due.inbox.append(reply)
        _due = None


class _Half:
    """The caller's side of a graph the helper holds: the gradient targets
    of the inputs it was sent with grad, the stand-ins of its outputs and,
    per output, the outputs above it.

    In backward the graph splits into groups, one per head: the stand-ins
    first reached from a head are its group's members, and the helper runs
    a group's part of the graph from their gradients (see
    ``autodiff.StandIn`` for the calls). Groups go in the order they run,
    one at a time: each once its members are final and the group before,
    whose part may add into them, has been added in, and after the reply
    still due to any graph has been read (``_read_due``)."""

    def __init__(self):
        self.key = next(_keys)
        self.leaves: list = []
        self.stand_ins: list = []
        self.reach: list = []
        self.groups: list = []      # (head, member indices), in run order
        self.waiting: set = set()   # member indices not yet final
        self.applied = 0            # groups added in
        self.inbox: list = []       # the reply read, not yet added in
        self.helper = None          # the helper that holds the graph
        self.done = False

    def hold(self, reads: list) -> None:
        """Keep the graph in the helper. Each stand-in's parents are the
        op results among the inputs its output was computed from."""
        for stand_in, read in zip(self.stand_ins, reads):
            stand_in.parents = tuple(t for i, t in enumerate(self.leaves)
                                     if i in read and isinstance(t, ad.Node))
        self.helper = _helper
        _pending.append(self)

    def begin(self, found: list) -> list:
        if self.done or self.groups:
            raise ad.GraphStateError(
                "the helper's part of this graph is gone; rebuild the forward "
                "pass before differentiating again")
        claimed: set = set()
        for stand_in in found:
            if stand_in.index in claimed:
                continue
            above = self.reach[stand_in.index]
            members = [stand_in.index] + [j for j in above if j not in claimed]
            claimed.update(members)
            self.groups.append((stand_in, members))
        self.groups.reverse()
        self.waiting = {s.index for s in found}
        self._flush()
        return [head for head, _ in self.groups]

    def ready(self, stand_in) -> None:
        self.waiting.discard(stand_in.index)
        self._flush()

    def _flush(self) -> None:
        """Send group ``applied`` once its members are final, unless it has
        gone: a reply of this graph is then due or unread."""
        global _due
        members = self.groups[self.applied][1]
        if _due is self or self.inbox or not self.waiting.isdisjoint(members):
            return
        heads = None if self.applied else \
            [head.index for head, _ in reversed(self.groups)]
        grads = {j: self.stand_ins[j].grad for j in members}
        if _helper is not self.helper:
            raise _HelperLost   # already shut down
        try:
            _read_due()
            _helper[1].send_bytes(_dumps(("grads", self.key, heads, grads)))
        except (EOFError, OSError):
            _shutdown()
            raise _HelperLost from None
        _due = self

    def reached(self, stand_in) -> None:
        """At a head's place: add in its group's contribution log. Raises
        ``_HelperLost`` when the helper that holds the graph is gone or its
        reply could not cross; any other failure propagates, and the end of
        the step ends the graph."""
        if self.applied == len(self.groups) \
                or stand_in is not self.groups[self.applied][0]:
            return      # a member: its head comes later
        self._flush()
        if not self.inbox:
            if _helper is not self.helper:
                raise _HelperLost       # already shut down
            try:
                _read_due()
            except (EOFError, OSError):     # _read_due shut the helper down
                raise _HelperLost from None
        self.applied += 1
        targets = self.leaves + self.stand_ins
        for index, g in _result(self.inbox.pop(0)):
            targets[index]._accumulate(g)
        if self.applied == len(self.groups):
            self._finish()      # the helper dropped the graph after it
        else:
            self._flush()

    def _finish(self) -> None:
        """Stop holding the graph: only a held half (in ``_pending``) ends."""
        if not self.done:
            self.done = True
            self.inbox.clear()
            _pending.remove(self)


# ---------------------------------------------------------------------------
# the helper process
# ---------------------------------------------------------------------------

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
    global _helper, _due
    if _helper is None:
        return
    process, conn = _helper
    _helper = _due = None
    conn.close()
    process.join(5.0)
    if process.is_alive():
        process.terminate()
        process.join()


atexit.register(_shutdown)


def _peak() -> int:
    import resource     # Unix only, as the fork is
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _serve(conn, caller_conn) -> None:
    """Helper loop: answer each call, and each group of a held graph's
    backward, with (ok, value, flops, peak rss)."""
    global _in_helper
    _in_helper = True
    caller_conn.close()     # else the caller's death would not end recv
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller handles ^C
    allowed = os.sched_getaffinity(0)
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):     # closed, a reply unread or not
            return
        unpickler = _Unpickler(data)
        message = unpickler.load()
        if message[0] == "call":
            _, call, caller_cpu, key = message
            _leave_cpu(caller_cpu, allowed)
            reply = _call(call, key, unpickler.leaves)
        elif message[0] == "drop":     # the step has ended
            _held.clear()
            continue
        else:
            reply = _backward_group(*message[1:])
        try:
            data = _dumps(reply)
        except Exception:   # it cannot cross: the caller runs it, serially
            lost = _Serial() if message[0] == "call" else _HelperLost()
            data = _dumps((False, lost, 0, _peak()))
        try:
            conn.send_bytes(data)
        except OSError:
            return


def _call(call: tuple, key, leaves: list) -> tuple:
    """Run a call, with grad on when it carries a graph ``key``; reply with
    its outputs, the outputs above each output and the leaves each output
    was computed from, and keep its graph in ``_held`` under ``key`` when it
    returns tensors with grad. Refuse with ``_Serial`` an output with grad
    that no op made and a value that cannot be pickled."""
    ad._grad_enabled = key is not None
    try:
        with ad.FlopCounter() as flops:
            value = call[0](*call[1:])
        outputs: list = []
        try:
            payload = _dumps(value, outputs=outputs)
        except Exception:   # it cannot cross: the caller runs the call itself
            raise _Serial from None
        nodes = [t._node for t in outputs]
        if any(node is None for node in nodes):
            raise _Serial
        above = [{id(n) for n in ad._postorder(node, set())}
                 for node in nodes]
        reach = [[i for i, n in enumerate(nodes) if i != j and id(n) in ids]
                 for j, ids in enumerate(above)]
        reads = [{i for i, t in enumerate(leaves) if id(t) in ids}
                 for ids in above]
        if nodes:
            _held[key] = (leaves, nodes, None)
        return True, (payload, reach, reads), flops.total, _peak()
    except Exception as exc:
        return False, exc, 0, _peak()


def _backward_group(key: int, heads, grads: dict) -> tuple:
    """Run the next group of held graph ``key``'s backward from its
    members' gradients; reply with the log of contributions to the caller's
    targets (leaves by number, then outputs), which the group's part of the
    graph adds into ``_Sink``s in place of its parents. The graph stays in
    ``_held`` until its last group has run or one has failed."""
    held = _held.pop(key, None)
    if held is None:
        return False, ad.GraphStateError("the helper holds no such graph"), \
            0, _peak()
    leaves, nodes, parts = held
    try:
        if heads is not None:
            parts = ad._segments([nodes[j] for j in heads])
        log: list = []
        redirect = {id(t): _Sink(i, t.shape, log) for i, t in enumerate(leaves)}
        for j, node in enumerate(nodes):
            if j in grads:
                node.grad = grads[j]
            else:
                redirect[id(node)] = _Sink(len(leaves) + j, node.shape, log)
        part = parts.pop(0)
        for node in part:
            if isinstance(node, ad.Node):
                node.parents = tuple([redirect.get(id(p), p)
                                      for p in node.parents])
        ad._run(part[::-1], {})
        if parts:
            _held[key] = (leaves, nodes, parts)
        return True, log, 0, _peak()
    except Exception as exc:
        return False, exc, 0, _peak()


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
