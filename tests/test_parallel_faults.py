"""Fault injection at every event of the two-process protocol.

One step's protocol events are numbered in both processes: in the caller
each ``send_bytes`` and ``recv_bytes`` on the helper's pipe, in the helper
each request it answers (a call, a backward group, a drop). At each event
in turn the harness injects each fault that can happen there:

- the caller's pipe fails: ``BrokenPipeError`` at a send, ``EOFError`` at
  a receive;
- the helper exits (``os._exit``) as it reads the request;
- the helper's call or group raises;
- the helper's reply to a call or group cannot be pickled.

A run ends with the serial path's bytes and flop total, or, when the
helper's call or group raised, with that exception. Either way nothing is
left behind: no held half, no reply due, ``parallel._lock`` free to another
thread, no graph in the helper, and the next step gives the serial bytes.
A watchdog kills the helper of a run that stalls, and the run fails. The
patches are in place before the helper forks, so they reach it too: no
seam in ``parallel`` serves them."""

import mmap
import os
import pickle
import signal
import sys
from multiprocessing.connection import Connection

import numpy as np
import pytest

from dualfuse import autodiff as ad
from dualfuse import parallel
from dualfuse.config import RunConfig
from dualfuse.model import build_model, fuse_pair_arrays
from dualfuse.toydata import make_toy_pairs
from test_parallel import helper  # noqa: F401  (a fixture)
from test_parallel import helper_state, lock_is_free, step_gradients

# The runs the harness walks: the stage of one training step, or None for
# one fused pair under no_grad, and the build. Without the interaction,
# encode(b)'s backward runs as two groups.
SCENARIOS = {
    "stage1": ("I", {}),
    "stage2": ("II", {}),
    "stage2_no_interaction": ("II", dict(interaction=False)),
    "no_grad_pair": (None, {}),
}

# What each helper request is, and the faults each may meet there: a drop
# has no reply, so only the helper's exit
CALL, GROUP, DROP = 1, 2, 3
EXIT, RAISE, UNPICKLABLE, PIPE = "exit", "raise", "unpicklable", "pipe"
HELPER_FAULTS = {CALL: (EXIT, RAISE, UNPICKLABLE),
                 GROUP: (EXIT, RAISE, UNPICKLABLE), DROP: (EXIT,)}
FAULT_CODES = {EXIT: 1, RAISE: 2, UNPICKLABLE: 3}

# Shared with every helper forked here (an anonymous mapping stays shared
# across fork): the helper event to fault and its fault's code, the
# requests the helper has answered, whether the fault fired, and from
# REQUESTS on, the kind of each request answered.
SHARED = np.frombuffer(mmap.mmap(-1, 8 * 64), dtype=np.int64)
TARGET, FAULT, COUNT, FIRED, REQUESTS = range(5)
SHARED[TARGET] = -1


class InjectedFault(Exception):
    """Raised by the helper's call or group when the harness says so."""


class Unpicklable:
    def __reduce__(self):
        raise pickle.PicklingError("an injected reply that cannot be pickled")


def helper_fault(kind: int) -> int:
    """In the helper: count one request of ``kind`` and return the code of
    the fault to inject at it, 0 for none. The exit happens here."""
    event = SHARED[COUNT]
    SHARED[COUNT] += 1
    SHARED[REQUESTS + event] = kind
    if event != SHARED[TARGET]:
        return 0
    SHARED[FIRED] = 1
    if SHARED[FAULT] == FAULT_CODES[EXIT]:
        os._exit(1)
    return int(SHARED[FAULT])


def answered() -> int:
    """The requests the helper has answered since ``Faults.arm``, less
    this call when the helper runs it."""
    return int(SHARED[COUNT]) - parallel._in_helper


class Faults:
    """Installs the patches, numbers one run's events and injects one
    fault. After ``disarm``, ``caller`` lists the run's events in the
    caller as (``"send"`` or ``"recv"``, the ``parallel`` function that
    made it), and ``requests`` the kind of each request the helper
    answered."""

    def __init__(self, monkeypatch):
        self.caller: list = []
        self.requests: list = []
        self.target = None      # the caller's event to fault
        self.fired = False
        real_call, real_group = parallel._call, parallel._backward_group
        real_send, real_recv = Connection.send_bytes, Connection.recv_bytes

        def call(*args):
            return self.answer(CALL, real_call, args)

        def group(*args):
            return self.answer(GROUP, real_group, args)

        class Held(dict):
            def clear(self):
                helper_fault(DROP)
                super().clear()

        def send_bytes(conn, *args):
            self.caller_event(conn, "send", sys._getframe(1))
            return real_send(conn, *args)

        def recv_bytes(conn, *args):
            self.caller_event(conn, "recv", sys._getframe(1))
            return real_recv(conn, *args)
        monkeypatch.setattr(parallel, "_call", call)
        monkeypatch.setattr(parallel, "_backward_group", group)
        monkeypatch.setattr(parallel, "_held", Held())
        monkeypatch.setattr(Connection, "send_bytes", send_bytes)
        monkeypatch.setattr(Connection, "recv_bytes", recv_bytes)

    @staticmethod
    def answer(kind: int, real, args: tuple) -> tuple:
        fault = helper_fault(kind)
        if fault == FAULT_CODES[RAISE]:
            if kind == GROUP:   # as when the group itself raises
                parallel._held.pop(args[0], None)
            return False, InjectedFault("injected"), 0, 0
        reply = real(*args)
        if fault == FAULT_CODES[UNPICKLABLE]:
            return True, Unpicklable(), 0, 0
        return reply

    def caller_event(self, conn, op: str, frame) -> None:
        if parallel._in_helper or parallel._helper is None \
                or conn is not parallel._helper[1]:
            return
        self.caller.append((op, frame.f_code.co_name))
        if len(self.caller) - 1 == self.target:
            self.fired = True
            raise BrokenPipeError("injected") if op == "send" else \
                EOFError("injected")

    @staticmethod
    def settle() -> int:
        """Wait until the helper has answered every request sent so far (a
        drop has no reply): a no_grad call's reply comes after theirs.
        Returns how many it answered since ``arm``."""
        with ad.no_grad():
            return watched(lambda: parallel.both((int,), (answered,)),
                           30.0)[0][1]

    def arm(self, where, event: int, fault: str) -> None:
        """Fault ``where``'s (``"caller"`` or ``"helper"``) event ``event``
        with ``fault`` in the next run; (None, -1, None) faults nothing."""
        self.settle()
        self.caller.clear()
        self.fired = False
        self.target = event if where == "caller" else None
        SHARED[:REQUESTS] = [event if where == "helper" else -1,
                             FAULT_CODES.get(fault, 0), 0, 0]

    def disarm(self) -> bool:
        """Once the helper has answered the run's requests, fault nothing
        more; returns whether the armed fault fired."""
        caller = list(self.caller)
        count = self.settle()
        self.caller = caller
        self.requests = [int(k) for k in SHARED[REQUESTS:REQUESTS + count]]
        self.target = None
        SHARED[TARGET] = -1
        return self.fired or bool(SHARED[FIRED])


@pytest.fixture
def faults(monkeypatch):
    parallel._shutdown()    # the next call forks a helper with the patches
    yield Faults(monkeypatch)
    parallel._shutdown()


class Stalled(Exception):
    pass


def watched(run, seconds: float):
    """``run()``, or its exception, under a watchdog: past ``seconds`` the
    helper is killed, so a stalled read or write in the caller ends, and
    the run is reported as stalled. The watchdog is a timer signal, not a
    thread: with a second thread running, the caller would not fork."""
    stalled = []

    def fire(signum, frame):
        stalled.append(True)
        if parallel._helper is None:
            raise Stalled
        os.kill(parallel._helper[0].pid, signal.SIGKILL)
    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        try:
            value, error = run(), None
        except (InjectedFault, Stalled) as exc:
            value, error = None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert not stalled, "the run stalled"
    return value, error


def scenario_run(name: str, channels=4, size=16):
    """A function that runs ``name`` once and returns its bytes (parameter
    gradients, or the fused image) and flop total."""
    stage, config = SCENARIOS[name]
    cfg = RunConfig(channels=channels, crop=size, seed=2, **config)
    m = build_model(cfg)
    pair = make_toy_pairs(1, size, seed=3)[0]

    def run():
        with ad.FlopCounter() as flops:
            if stage is None:
                out = fuse_pair_arrays(pair, m, cfg).tobytes()
            else:
                out = step_gradients(m, cfg, pair, stage=stage)
        return out, flops.total
    return run


def injected(faults, helper, run, serial, where, event, fault,
             seconds=30.0) -> None:
    """Run with one fault and check how the run ends and what it leaves."""
    what = "%s fault at %s event %d" % (fault, where, event)
    faults.arm(where, event, fault)
    value, error = watched(run, seconds)
    assert faults.disarm(), what + " did not fire"
    if fault == RAISE:
        assert isinstance(error, InjectedFault), what
    else:
        assert error is None and value == serial, what
    assert not parallel._pending and parallel._due is None, what
    assert lock_is_free(), what
    assert not helper_state(helper), what
    assert watched(run, seconds) == (serial, None), what


def enumerate_events(faults, run, serial) -> tuple:
    """One run with no fault: the caller's events and the helper's
    requests, in order."""
    faults.arm(None, -1, None)
    assert watched(run, 30.0) == (serial, None)
    faults.disarm()
    return faults.caller, faults.requests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_fault_at_every_protocol_event_ends_cleanly(name, faults,
                                                          helper):
    run = scenario_run(name)
    helper(False)
    serial = run()
    helper(True)
    assert not helper_state(helper)     # forks the helper before the runs
    caller, requests = enumerate_events(faults, run, serial)
    assert caller and requests
    print("%s: %d caller events, %d helper requests"
          % (name, len(caller), len(requests)))
    for event in range(len(caller)):
        injected(faults, helper, run, serial, "caller", event, PIPE)
    for event, kind in enumerate(requests):
        for fault in HELPER_FAULTS[kind]:
            injected(faults, helper, run, serial, "helper", event, fault)


def test_a_lost_pipe_while_a_large_reply_is_due_ends_cleanly(faults, helper):
    # at the shape whose messages once deadlocked the pipe (8 channels, 64
    # pixels, no interaction) the scan side's backward reply outgrows the
    # pipe's buffer: the caller loses its pipe as it reads that reply, so
    # the helper may be blocked writing it when the caller shuts it down
    name = "stage2_no_interaction"
    small, run = scenario_run(name), scenario_run(name, channels=8, size=64)
    helper(False)
    small_serial, serial = small(), run()
    helper(True)
    assert not helper_state(helper)
    caller, _ = enumerate_events(faults, small, small_serial)
    event = next(k for k, (op, function) in enumerate(caller)
                 if op == "recv" and function != "both")
    injected(faults, helper, run, serial, "caller", event, PIPE, seconds=60.0)
