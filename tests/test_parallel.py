"""The two-core dispatcher: same bytes, same flops and same errors as the
serial path, and a helper process that never outlives its caller."""

import json
import operator
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from dualfuse import autodiff as ad
from dualfuse import cli, metrics, parallel, params
from dualfuse import train as train_module
from dualfuse.checkpoint import save_checkpoint
from dualfuse.config import RunConfig
from dualfuse.data import ImagePair
from dualfuse.losses import stage1_loss, stage2_loss
from dualfuse.model import build_model, fuse_pair, fuse_pair_arrays, \
    image_to_tensor, restore, stage1_parameter_tree, stage2_parameter_tree
from dualfuse.optim import AdamState
from dualfuse.toydata import make_toy_pairs, write_toy_dataset
from dualfuse.train import train
from test_model import BUILDS

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

@pytest.fixture
def helper(monkeypatch):
    """Returns a switch: helper(True) uses the helper process whatever the
    host's CPU count, helper(False) forces the serial path."""
    def switch(on):
        monkeypatch.setattr(parallel, "_two_cpus", lambda: on)
    return switch


def fuse_both_ways(helper, pair, m, cfg, fusion_trained=True):
    outs = []
    for on in (False, True):
        helper(on)
        outs.append(fuse_pair_arrays(pair, m, cfg,
                                     fusion_trained=fusion_trained))
    return outs


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_fused_bytes_equal_with_helper_on_and_off(name, helper):
    cfg = RunConfig(channels=4, seed=2, **BUILDS[name]).validate()
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    serial, two_core = fuse_both_ways(helper, pair, m, cfg)
    assert serial.tobytes() == two_core.tobytes()


def test_stage1_model_bytes_equal_with_helper_on_and_off(helper):
    cfg = RunConfig(channels=4, seed=2)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    serial, two_core = fuse_both_ways(helper, pair, build_model(cfg), cfg,
                                      fusion_trained=False)
    assert serial.tobytes() == two_core.tobytes()


def test_helper_reads_parameters_changed_after_fork(helper):
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    helper(True)
    before = fuse_pair_arrays(pair, m, cfg)
    assert parallel._helper is not None
    m.encoder[0].mamba1.in_proj.data *= 1.1                   # in place
    out_proj = m.fusion.fuse_mamba.mamba2.out_proj
    out_proj.data = out_proj.data + 0.05                         # rebound
    serial, two_core = fuse_both_ways(helper, pair, m, cfg)
    assert serial.tobytes() == two_core.tobytes()
    assert serial.tobytes() != before.tobytes()


def test_flop_totals_equal_with_helper_on_and_off(helper):
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    totals = []
    for on in (False, True):
        helper(on)
        with ad.FlopCounter() as flops:
            fuse_pair_arrays(pair, m, cfg)
        totals.append(flops.total)
    assert totals[0] == totals[1] > 0


def test_eval_csv_bytes_equal_with_helper_on_and_off(tmp_path, helper):
    data_dir = str(tmp_path / "pairs")
    write_toy_dataset(data_dir, n_pairs=3, size=48, seed=4)
    cfg = RunConfig(channels=4, seed=5)
    ckpt = str(tmp_path / "model.tmam")
    save_checkpoint(ckpt, cfg, build_model(cfg), AdamState(), 1, 1)
    texts = []
    for on in (False, True):
        helper(on)
        out = str(tmp_path / ("eval_%d.csv" % on))
        assert cli.main(["eval", "--ckpt", ckpt, "--dir", data_dir,
                         "--out", out]) == 0
        with open(out, "rb") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]
    assert texts[0].startswith(metrics.CSV_HEADER.encode())


def test_helper_error_names_the_op_and_leaves_no_stale_reply(helper):
    # under no_grad nothing checks for NaN/Inf, but an op's shape checks
    # still raise, in the helper as here
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    rows = ad.Tensor(np.ones((2, 3)))
    messages = []
    with ad.no_grad():
        for on in (False, True):
            helper(on)
            with pytest.raises(ad.DimensionError) as info:
                parallel.both((ad.add, rows, rows), (ad.matmul, rows, rows))
            messages.append(str(info.value))
    helper(True)
    after = fuse_pair_arrays(pair, m, cfg)
    assert messages[0] == messages[1]
    assert messages[0].startswith("matmul ")
    helper(False)
    assert after.tobytes() == fuse_pair_arrays(pair, m, cfg).tobytes()


def test_either_half_raises_after_the_reply_is_read(helper):
    helper(True)
    with ad.no_grad():
        with pytest.raises(ZeroDivisionError):
            parallel.both((pow, 2, 3), (divmod, 1, 0))
        with pytest.raises(ZeroDivisionError):
            parallel.both((divmod, 1, 0), (pow, 2, 3))
        assert parallel.both((pow, 2, 3), (divmod, 7, 2)) == (8, (3, 1))


def test_a_dead_helper_is_replaced(helper):
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    helper(True)
    fuse_pair_arrays(pair, m, cfg)
    dead = parallel._helper[0]
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(30)
    assert not dead.is_alive()
    after_death = fuse_pair_arrays(pair, m, cfg)     # runs its half here
    replaced = fuse_pair_arrays(pair, m, cfg)        # forks a new helper
    assert parallel._helper[0].pid != dead.pid
    helper(False)
    serial = fuse_pair_arrays(pair, m, cfg)
    assert after_death.tobytes() == replaced.tobytes() == serial.tobytes()


def test_a_pipe_closed_with_a_reply_unread_ends_the_helper_cleanly(helper):
    # closing a socket with unread data resets it, so the helper's next
    # read fails with ConnectionResetError, not end-of-file; the helper
    # returns all the same, with no traceback and exit code 0
    helper(True)
    with ad.no_grad():
        assert parallel.both((pow, 2, 3), (divmod, 7, 2)) == (8, (3, 1))
    process, conn = parallel._helper
    conn.send_bytes(parallel._dumps(("call", (divmod, 7, 2), -1, None)))
    assert conn.poll(30)
    parallel._shutdown()
    assert process.exitcode == 0


def local_function():
    def seven():
        return 7
    return seven


@pytest.mark.parametrize("second", [
    (lambda: 7,), (local_function(),), (bool, threading.Lock())],
    ids=["lambda", "local_function", "lock_argument"])
def test_a_request_that_cannot_be_pickled_runs_here(second, helper):
    # what cannot cross the pipe runs in the caller, as on one CPU, and
    # the helper is neither sent it nor ended
    helper(True)
    with ad.no_grad():
        assert parallel.both((int,), (int,)) == (0, 0)
        pid = parallel._helper[0].pid
        assert parallel.both((int,), second) == (0, second[0](*second[1:]))
        assert parallel.both((int,), (int,)) == (0, 0)
    assert parallel._helper[0].pid == pid and lock_is_free()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception cannot be pickled")


def raises_unpicklable():
    raise Unpicklable("raised by the second call")


def test_an_exception_the_helper_cannot_pickle_is_raised_here(helper, capfd):
    # the helper replies that its reply cannot cross and lives on; the
    # caller runs the second call itself, which raises the same exception
    parallel._shutdown()    # a helper forked here writes to capfd's stderr
    helper(True)
    with ad.no_grad():
        assert parallel.both((int,), (int,)) == (0, 0)
        pid = parallel._helper[0].pid
        with pytest.raises(Unpicklable, match="raised by the second call"):
            parallel.both((int,), (raises_unpicklable,))
        assert parallel.both((int,), (int,)) == (0, 0)
    assert parallel._helper[0].pid == pid and lock_is_free()
    assert "Traceback" not in capfd.readouterr().err


def test_a_value_the_helper_cannot_pickle_is_computed_here(helper):
    helper(True)
    with ad.no_grad():
        assert parallel.both((int,), (int,)) == (0, 0)
        pid = parallel._helper[0].pid
        _, lock = parallel.both((int,), (threading.Lock,))
    assert type(lock) is type(threading.Lock())
    assert parallel._helper[0].pid == pid and lock_is_free()


def test_grad_mode_never_reaches_the_helper(helper, monkeypatch):
    def no_helper():
        raise AssertionError("a graph-building forward used the helper")
    helper(True)
    monkeypatch.setattr(parallel, "_connection", no_helper)
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    out = fuse_pair(image_to_tensor(pair.a), image_to_tensor(pair.b), m)
    assert out.requires_grad


def test_training_does_not_import_multiprocessing(tmp_path):
    # with one CPU training never forks, so multiprocessing stays unimported
    code = """
import sys
from dualfuse import parallel
from dualfuse.config import RunConfig
from dualfuse.toydata import make_toy_pairs
from dualfuse.train import train
parallel._two_cpus = lambda: False
cfg = RunConfig(channels=2, crop=16, batch=1, epochs_stage1=1,
                epochs_stage2=1, seed=0, out_dir="out")
train(cfg, make_toy_pairs(1, 16, seed=0))
print("multiprocessing" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         check=True, timeout=300, capture_output=True,
                         text=True)
    assert run.stdout.strip() == "False"


@pytest.fixture
def remote_backwards(monkeypatch):
    """Per finished graph the helper held, in the order they finished: the
    name of the function that built it, and True when all of its backward
    ran on the helper, False when it was dropped first (the step failed or
    its helper was lost)."""
    done = []
    both, finish = parallel.both, parallel._Half._finish

    def naming_both(first, second):
        held = list(parallel._pending)
        value = both(first, second)
        for half in parallel._pending:
            if half not in held:
                half.name = second[0].__name__
        return value

    def recording_finish(self):
        if not self.done:
            done.append((self.name, self.applied == len(self.groups) > 0))
        finish(self)
    monkeypatch.setattr(parallel, "both", naming_both)
    monkeypatch.setattr(parallel._Half, "_finish", recording_finish)
    return done


# Per build, the graphs the helper held in a two-step stage I and a two-step
# stage II, as ``remote_backwards`` lists them: restore(b) in each stage-I
# step; in each stage-II step encode(b) and, with both fusion sides, the
# scan-side block, whose backward the caller adds in first.
RESTORE, ENCODE, SCAN = ("restore", True), ("encode", True), \
    ("_scan_side", True)
REMOTE_BACKWARDS = {
    "attention_only": [RESTORE] * 2 + [ENCODE] * 2,
    "depth_2": [RESTORE] * 2 + [SCAN, ENCODE] * 2,
    "full": [RESTORE] * 2 + [SCAN, ENCODE] * 2,
    "no_cross_modal": [RESTORE] * 2 + [SCAN, ENCODE] * 2,
    "no_interaction": [RESTORE] * 2 + [SCAN, ENCODE] * 2,
    "scan_as_conv": [RESTORE] * 2 + [SCAN, ENCODE] * 2,
    "scan_only": [RESTORE] * 2 + [ENCODE] * 2,
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_training_bytes_equal_with_helper_on_and_off(name, helper, tmp_path,
                                                     monkeypatch,
                                                     remote_backwards):
    steps = []
    adam_step = train_module.adam_step

    def counted_adam_step(*args):
        adam_step(*args)
        steps.append((flops.total, len(remote_backwards)))
    monkeypatch.setattr(train_module, "adam_step", counted_adam_step)
    runs = []
    for on in (False, True):
        helper(on)
        steps.clear()
        remote_backwards.clear()
        out = tmp_path / ("on" if on else "off")
        cfg = RunConfig(channels=4, crop=16, batch=1, epochs_stage1=1,
                        epochs_stage2=1, seed=1, out_dir=str(out),
                        **BUILDS[name])
        with ad.FlopCounter() as flops:
            train(cfg, make_toy_pairs(2, 16, seed=3))
        files = {f: (out / f).read_bytes() for f in (
            "loss_log.csv", "checkpoint_stage1.tmam", "checkpoint.tmam")}
        runs.append((files, [total for total, _ in steps],
                     [n for _, n in steps], list(remote_backwards)))
    (serial, serial_flops, _, serial_remote), \
        (two_core, two_core_flops, per_step, remote) = runs
    assert serial == two_core
    assert serial_flops == two_core_flops
    # every graph the helper held ran wholly there, forward and backward:
    # one per stage-I step, two per stage-II step with both fusion sides
    assert serial_remote == [] and remote == REMOTE_BACKWARDS[name]
    per_stage2_step = (len(remote) - 2) // 2
    assert per_step == [1, 2, 2 + per_stage2_step, 2 + 2 * per_stage2_step]


def poisoned_restore(img, m):
    """``restore`` with a last op whose gradient function raises."""
    out = restore(img, m)

    def fail(g):
        raise ad.NonFiniteError("op 'poison' produced a non-finite gradient")
    return ad._make(out.data, "poison", 0, out, fail)


def helper_holds_a_graph() -> bool:
    return bool(parallel._held)


def helper_state(helper) -> bool:
    """Whether the helper holds a graph, asked with a no_grad call."""
    helper(True)
    with ad.no_grad():
        _, held = parallel.both((pow, 2, 3), (helper_holds_a_graph,))
    return held


def step_gradients(m, cfg, *pairs, stage="I", first=restore, second=restore,
                   between=None):
    """The parameter gradients, as bytes, of one training step with one
    sample per pair: stage I through ``parallel.both`` with ``first``
    restoring a and ``second`` restoring b, stage II through ``fuse_pair``.
    ``between`` runs after each forward pass, a rerun's too."""
    tree = stage1_parameter_tree(m) if stage == "I" \
        else stage2_parameter_tree(m)
    targets = [t for section in tree
               for _, t in params.named_parameters(section)]
    images = [(image_to_tensor(pair.a), image_to_tensor(pair.b))
              for pair in pairs]

    def step():
        for t in targets:
            t.grad = None
        for a, b in images:
            if stage == "I":
                pred_a, pred_b = parallel.both((first, a, m), (second, b, m))
                loss = stage1_loss(a, pred_a, b, pred_b).total
            else:
                loss = stage2_loss(fuse_pair(a, b, m), a, b).total
            if between is not None:
                between()
            loss.backward()
    try:
        parallel.training_step(step)
        return b"".join(t.grad.tobytes() for t in targets)
    finally:
        for t in targets:
            t.grad = None


def kill(process) -> None:
    os.kill(process.pid, signal.SIGKILL)
    process.join(30)
    assert not process.is_alive()


def test_helper_forward_error_names_the_op_and_leaves_no_stale_reply(helper):
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    clean = make_toy_pairs(2, 20, seed=3)
    b = clean[0].b.copy()
    b[4, 5] = np.nan
    broken = ImagePair("nan", clean[0].a, b)
    messages = []
    for on in (False, True):
        helper(on)
        with pytest.raises(ad.NonFiniteError) as info:
            step_gradients(m, cfg, broken)
        messages.append(str(info.value))
    helper(True)
    after = step_gradients(m, cfg, clean[1])
    helper(False)
    serial = step_gradients(m, cfg, clean[1])
    assert messages[0] == messages[1]
    assert "op '" in messages[0]
    assert after == serial
    assert not helper_state(helper)


def test_helper_backward_error_reaches_the_caller_and_leaves_no_stale_reply(
        helper, remote_backwards):
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pairs = make_toy_pairs(2, 20, seed=3)
    messages = []
    for on in (False, True):
        helper(on)
        with pytest.raises(ad.NonFiniteError) as info:
            step_gradients(m, cfg, pairs[0], second=poisoned_restore)
        messages.append(str(info.value))
    helper(True)
    after = step_gradients(m, cfg, pairs[1])
    helper(False)
    assert messages == ["op 'poison' produced a non-finite gradient"] * 2
    assert after == step_gradients(m, cfg, pairs[1])
    # the failed step's, the next
    assert remote_backwards == [("poisoned_restore", True), RESTORE]
    assert not helper_state(helper)


def test_a_step_that_fails_while_a_reply_is_due_reads_it(helper,
                                                          remote_backwards):
    # the caller sends restore(b)'s gradient, then a gradient function of
    # its own half raises before restore(b)'s place: the step's end reads
    # the reply still due, so the next step's graph runs on the helper
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pairs = make_toy_pairs(2, 20, seed=3)
    due = []

    def poisoned_while_due(img, m):
        out = restore(img, m)

        def fail(g):
            due.append(parallel._due is not None)
            raise ad.NonFiniteError("op 'poison' raised")
        return ad._make(out.data, "poison", 0, out, fail)
    helper(True)
    with pytest.raises(ad.NonFiniteError):
        step_gradients(m, cfg, pairs[0], first=poisoned_while_due)
    assert due == [True]
    assert parallel._due is None and not parallel._pending
    after = step_gradients(m, cfg, pairs[1])
    helper(False)
    assert after == step_gradients(m, cfg, pairs[1])
    assert remote_backwards == [("restore", False), RESTORE]
    assert not helper_state(helper)


def test_a_gradient_larger_than_the_pipe_buffer_does_not_stall(
        helper, remote_backwards):
    # without the interaction, encode(b)'s attention part is ready while the
    # helper still runs the scan side's backward. Its gradient (8 x 64 x 64
    # doubles) and the scan side's reply are each larger than the pipe's
    # buffer: sent while that reply is due, it would leave neither side
    # reading. A helper still busy a minute after the forward is killed, so
    # a stall fails the test (the step then reruns serially) instead of
    # hanging it
    one, other = socket.socketpair()    # what multiprocessing's Pipe makes
    try:
        buffer = one.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    finally:
        one.close()
        other.close()
    if 8 * 64 * 64 * 8 <= buffer:
        pytest.skip("the pipe's buffer holds a whole gradient here")
    cfg = RunConfig(channels=8, crop=64, seed=2, interaction=False)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 64, seed=3)[0]
    helper(False)
    serial = step_gradients(m, cfg, pair, stage="II")
    watchdog = []

    def start_watchdog():
        if not watchdog:    # not again for the serial rerun
            watchdog.append(threading.Timer(
                60, os.kill, (parallel._helper[0].pid, signal.SIGKILL)))
            watchdog[0].start()
    helper(True)
    try:
        two_core = step_gradients(m, cfg, pair, stage="II",
                                  between=start_watchdog)
    finally:
        for timer in watchdog:
            timer.cancel()
    assert two_core == serial
    assert remote_backwards == [SCAN, ENCODE]


class Killer:
    """Kills the helper at its first call while ``armed`` and ``when()``,
    once; ``at_group(monkeypatch, name, applied)`` calls it each time a
    held graph of ``name`` has added in ``applied`` of its groups."""

    def __init__(self, when):
        self.when, self.armed, self.killed = when, False, []

    def __call__(self):
        if self.armed and self.when():
            self.armed = False
            self.killed.append(parallel._helper[0])
            kill(self.killed[0])

    def at_group(self, monkeypatch, name, applied):
        reached = parallel._Half.reached

        def kill_after(half, stand_in):
            reached(half, stand_in)
            if half.name == name and half.applied == applied:
                self()
        monkeypatch.setattr(parallel._Half, "reached", kill_after)


# Where the kill tests below lose the helper: the stage, the build, the
# samples in the step, the point in the last sample's first attempt, and
# the graphs the helper held as ``remote_backwards`` lists them.
KILL_POINTS = {
    "stage1_after_forward": ("I", {}, 1, "forward", [("restore", False)]),
    "stage2_after_forward": ("II", {}, 1, "forward",
                             [("encode", False), ("_scan_side", False)]),
    "stage2_after_the_scan_side": ("II", {}, 1, ("_scan_side", 1),
                                   [SCAN, ("encode", False)]),
    # without the interaction, b's attention part runs before a's in the
    # serial backward, so encode(b)'s graph runs as two groups
    "no_interaction_after_the_first_group": (
        "II", dict(interaction=False), 1, ("encode", 1),
        [SCAN, ("encode", False)]),
    # the first sample's graphs ran wholly on the helper when the second's
    # helper is lost with the scan side's contributions added in
    "batch_2_second_sample": ("II", {}, 2, ("_scan_side", 1),
                              [SCAN, ENCODE, SCAN, ("encode", False)]),
}


@pytest.mark.parametrize("point", sorted(KILL_POINTS))
def test_a_helper_lost_in_backward_reruns_the_step_serially(
        point, helper, monkeypatch, remote_backwards):
    # the step whose helper is lost reruns on the serial path from its
    # first line, every sample of it, and counts the serial flops once; the
    # next step forks a new helper
    stage, config, samples, where, expected = KILL_POINTS[point]
    cfg = RunConfig(channels=4, seed=2, **config)
    m = build_model(cfg)
    pairs = make_toy_pairs(samples, 20, seed=3)
    forwards = []
    killer = Killer(lambda: len(forwards) == samples)

    def between():      # records the graphs the helper holds per forward
        forwards.append(len(parallel._pending))
        if where == "forward":
            killer()
    if where != "forward":
        killer.at_group(monkeypatch, *where)
    runs = []
    for on, lose in ((False, False), (True, True), (True, False)):
        helper(on)
        killer.armed = lose
        forwards.clear()
        with ad.FlopCounter() as flops:
            grads = step_gradients(m, cfg, *pairs, stage=stage,
                                   between=between)
        runs.append((grads, flops.total, list(forwards)))
    (serial, serial_flops, _), (retried, retried_flops, lost), \
        (replaced, replaced_flops, _) = runs
    assert retried == replaced == serial
    assert retried_flops == replaced_flops == serial_flops > 0
    # every sample ran twice: first with graphs on the helper, then
    # serially with none
    assert len(killer.killed) == 1
    assert min(lost[:samples]) > 0 and lost[samples:] == [0] * samples
    assert parallel._helper[0].pid != killer.killed[0].pid
    again = [RESTORE] if stage == "I" else [SCAN, ENCODE]
    assert remote_backwards == expected + again * samples
    assert not helper_state(helper)


def test_training_at_batch_2_keeps_its_bytes_with_the_helper_lost(
        helper, tmp_path, monkeypatch, remote_backwards):
    # a step whose helper is lost in its second sample's backward reruns
    # from its first line with the crops drawn before it: a rerun that drew
    # its own would draw new ones and change every byte after it
    killer = Killer(lambda: remote_backwards.count(ENCODE) == 1)
    killer.at_group(monkeypatch, "_scan_side", 1)
    runs = []
    for on, lose in ((False, False), (True, False), (True, True)):
        helper(on)
        killer.armed = lose
        remote_backwards.clear()
        out = tmp_path / ("%s_%s" % (on, lose))
        cfg = RunConfig(channels=4, crop=16, batch=2, epochs_stage1=1,
                        epochs_stage2=1, seed=1, out_dir=str(out))
        train(cfg, make_toy_pairs(3, 20, seed=3))
        runs.append({f: (out / f).read_bytes() for f in (
            "loss_log.csv", "checkpoint_stage1.tmam", "checkpoint.tmam")})
    assert runs[0] == runs[1] == runs[2]
    # the first stage-II step lost its second sample's encode(b); the
    # rerun held no graph, and the second step's sample ran on a new helper
    assert len(killer.killed) == 1
    assert remote_backwards == [RESTORE] * 3 + [SCAN, ENCODE, SCAN,
                                                ("encode", False), SCAN, ENCODE]


def summed(x, w):
    return ad.reduce_sum(scaled(x, w))


def test_a_loss_the_helper_returns_keeps_the_bytes(helper, remote_backwards):
    # the loss is the second call's output: backward starts at its
    # stand-in, which no op reads, so its gradient is final before any op
    # runs and the helper runs the whole backward
    grads = []
    for on in (False, True):
        helper(on)
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.uniform(-1, 1, 8))
        x = ad.Tensor(rng.uniform(-1, 1, 8))

        def step():
            _, loss = parallel.both((pow, 2, 3), (summed, x, w))
            assert isinstance(loss, ad.StandIn) == on
            loss.backward()
        parallel.training_step(step)
        grads.append(w.grad.tobytes())
    assert grads[0] == grads[1]
    assert remote_backwards == [("summed", True)]


def test_a_scan_side_forward_error_in_the_helper_reaches_the_caller(
        helper, remote_backwards):
    # the helper's scan-side forward raises while it holds encode(b): the
    # caller raises it after reading the reply, and the step's end has the
    # helper drop encode(b)'s graph
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    broken = build_model(cfg)
    broken.fusion.fuse_mamba.mamba1.in_proj.data[0, 0, 0, 0] = np.nan
    pairs = make_toy_pairs(2, 20, seed=3)
    messages = []
    for on in (False, True):
        helper(on)
        with pytest.raises(ad.NonFiniteError) as info:
            step_gradients(broken, cfg, pairs[0], stage="II")
        messages.append(str(info.value))
    assert not helper_state(helper)
    helper(True)
    after = step_gradients(m, cfg, pairs[1], stage="II")
    helper(False)
    serial = step_gradients(m, cfg, pairs[1], stage="II")
    assert messages[0] == messages[1]
    assert "op '" in messages[0]
    assert after == serial
    assert remote_backwards == [("encode", False), ("_scan_side", True),
                                ("encode", True)]
    assert not helper_state(helper)


def scaled(x, w):
    return ad.exp(x * w)


def shared_reader(h, w):
    """Reads the op result ``h`` three times, as the caller's half does."""
    return ((h * w + ad.Tensor(0.1)) * h + ad.Tensor(-0.7)) * h


def take_both(h, s):
    return h + s


@pytest.mark.parametrize("third", [None, "stand_in", "two_op_results"])
def test_op_result_inputs_keep_the_bytes(third, helper, remote_backwards):
    # as in a stage-II step: the helper holds the graph of b's half of the
    # first call, and the second call's input g, an op result, is computed
    # from that half's stand-in. g crosses as a fresh leaf; the helper's
    # contributions to it are added into its node at the stand-in's place,
    # between the caller's own (the caller reads g too) as the serial
    # backward orders them. A call given a stand-in or two op results runs
    # serially.
    grads = []
    for on in (False, True):
        helper(on)
        rng = np.random.default_rng(0)
        w1, w2 = (ad.parameter(rng.uniform(-1, 1, 8)) for _ in range(2))
        x, c = (ad.Tensor(rng.uniform(-1, 1, 8)) for _ in range(2))

        def step():
            ta, ua = parallel.both((scaled, x, w1), (scaled, x[::-1], w1))
            g = ta + ua
            t, u = parallel.both((shared_reader, g, w2),
                                 (shared_reader, g, w2))
            # the serial backward runs the caller's readers of g first and
            # u's graph last, as it runs the scan side in a stage-II step
            out = g * g + t * c + u
            if third == "stand_in":
                v = parallel.both((take_both, g, t), (take_both, g, u))
            elif third == "two_op_results":
                v = parallel.both((take_both, g, t), (take_both, t, g))
            if third is not None:
                out = out + v[0] * v[1]
            (out * c).sum().backward()
        parallel.training_step(step)
        grads.append(w1.grad.tobytes() + w2.grad.tobytes())
    assert grads[0] == grads[1]
    assert remote_backwards == [("shared_reader", True), ("scaled", True)]


def feeding_pair(x, w):
    """Two outputs, the second computed from the first."""
    t = x * w
    return t, t * w


def test_outputs_that_feed_each_other_keep_the_bytes(helper, monkeypatch):
    # the caller's backward reaches t first, so the serial backward runs
    # u's part, which adds into t, before t's: t's group goes only after
    # u's contribution has been added to t's stand-in, in its serial place
    sent = []     # per group sent: its members, and the groups added in first
    dumps = parallel._dumps

    def recording_dumps(obj, **grad):
        if isinstance(obj, tuple) and obj[:1] == ("grads",):
            half, = [h for h in parallel._pending if h.key == obj[1]]
            sent.append((sorted(obj[3]), half.applied))
        return dumps(obj, **grad)
    monkeypatch.setattr(parallel, "_dumps", recording_dumps)
    grads = []
    for on in (False, True):
        helper(on)
        w = ad.parameter(np.array([0.7, -1.3, 2.1]))
        x = ad.Tensor(np.array([1.5, 0.25, -0.5]))

        def step():
            _, (t, u) = parallel.both((pow, 2, 3), (feeding_pair, x, w))
            ((u * t) * ad.Tensor([0.3, 0.9, -0.4])).sum().backward()
        parallel.training_step(step)
        grads.append(w.grad.tobytes())
    assert grads[0] == grads[1]
    assert sent == [([1], 0), ([0], 1)]


@pytest.mark.parametrize("where", ["forward", "between"])
def test_a_failed_step_leaves_the_helper_no_graph(where, helper):
    cfg = RunConfig(channels=4, seed=2)
    m = build_model(cfg)
    pair = make_toy_pairs(1, 20, seed=3)[0]
    a, b = image_to_tensor(pair.a), image_to_tensor(pair.b)
    helper(True)

    def step():
        if where == "forward":
            parallel.both((divmod, 1, 0), (restore, b, m))
        outs = parallel.both((restore, a, m), (restore, b, m))
        assert parallel._pending
        assert isinstance(outs[1], ad.StandIn)
        divmod(1, 0)
    with pytest.raises(ZeroDivisionError):
        parallel.training_step(step)
    assert not parallel._pending and lock_is_free()
    assert not helper_state(helper)


def test_a_second_backward_through_a_used_stand_in_is_refused(helper):
    # serially u's graph is consumed; on two cores the helper has dropped
    # u's graph, and u's half refuses to begin again
    for on in (False, True):
        helper(on)
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.uniform(-1, 1, 8))
        x, c = (ad.Tensor(rng.uniform(-1, 1, 8)) for _ in range(2))

        def step():
            t, u = parallel.both((scaled, x, w), (scaled, x[::-1], w))
            assert isinstance(u, ad.StandIn) == on
            (t * u).sum().backward()
            (u * c).sum().backward()
        with pytest.raises(ad.GraphStateError,
                           match="rebuild the forward pass"):
            parallel.training_step(step)
        assert not parallel._pending and lock_is_free()
    assert not helper_state(helper)


def test_a_training_step_holds_the_lock_from_its_start(helper):
    # the step owns the helper: another thread's call runs serially from
    # the step's first line, before any call of the step has used the pipe
    helper(True)
    free = []
    parallel.training_step(lambda: free.append(lock_is_free()))
    assert free == [False]
    assert lock_is_free()


def test_a_failed_first_call_holds_no_half(helper):
    # the second call's graph stays in the helper, with no half here to
    # stand for it, until the step's end has the helper drop it
    rng = np.random.default_rng(0)
    w = ad.parameter(rng.uniform(-1, 1, 8))
    x = ad.Tensor(rng.uniform(-1, 1, 8))
    seen = []

    def step():
        with pytest.raises(ZeroDivisionError):
            parallel.both((divmod, 1, 0), (scaled, x, w))
        seen.append((list(parallel._pending), helper_state(helper)))
    helper(True)
    parallel.training_step(step)
    assert seen == [([], True)]
    assert not parallel._pending and lock_is_free()
    assert not helper_state(helper)


def lock_is_free() -> bool:
    """Whether another thread could take ``parallel._lock`` now."""
    free = []

    def probe():
        if parallel._lock.acquire(blocking=False):
            parallel._lock.release()
            free.append(True)
    other = threading.Thread(target=probe)
    other.start()
    other.join(30)
    return free == [True]


def test_a_no_grad_call_never_holds_a_graph(helper):
    # the second call returns the parameter it was given: under no_grad the
    # helper sends it back as a plain tensor and holds no graph for it
    p = ad.parameter(np.array([0.5, -1.25, 3.0]))
    values = []
    for on in (False, True):
        helper(on)
        with ad.no_grad():
            values.append(parallel.both((operator.pos, 1),
                                        (operator.getitem, (p,), 0)))
    (serial_first, serial), (first, value) = values
    assert serial_first == first == 1
    assert value.data.tobytes() == serial.data.tobytes()
    assert not parallel._pending
    assert lock_is_free()
    assert not helper_state(helper)


def test_a_grad_leaf_returned_by_the_second_call_runs_serially(helper):
    # the second call returns the parameter it was given: the serial
    # backward adds each reader's contribution straight into it, which no
    # stand-in reproduces, so the call runs here and the helper holds nothing
    runs = []
    for on in (False, True):
        helper(on)
        p = ad.parameter(np.array([0.5, -1.25, 3.0]))

        def step():
            _, q = parallel.both((operator.pos, 1),
                                 (operator.getitem, (p,), 0))
            (q * q * ad.Tensor([0.3, 0.9, -0.4])).sum().backward()
        with ad.FlopCounter() as flops:
            parallel.training_step(step)
        runs.append((p.grad.tobytes(), flops.total))
        assert not parallel._pending and lock_is_free()
    assert runs[0] == runs[1] and runs[0][1] > 0
    assert parallel._helper is not None
    assert not helper_state(helper)


def dies_in_the_helper(x, w):
    """``scaled``, but a helper process that runs it exits at once."""
    if parallel._in_helper:
        os._exit(1)
    return scaled(x, w)


@pytest.mark.parametrize("grad", [False, True],
                         ids=["no_grad_pair", "training_step"])
def test_a_helper_that_dies_mid_call_is_replaced(grad, helper):
    # the helper reads the request and dies: the caller reads end-of-file,
    # runs the second call itself with the serial bytes and flops, and the
    # next call forks a new helper
    rng = np.random.default_rng(0)
    w = ad.parameter(rng.uniform(-1, 1, 8))
    x = ad.Tensor(rng.uniform(-1, 1, 8))
    runs = []
    for on in (False, True):
        helper(on)
        if on:
            assert not helper_state(helper)     # a live helper to lose
            dead = parallel._helper[0]
        with ad.FlopCounter() as flops:
            if grad:
                def step():
                    t, u = parallel.both((scaled, x, w),
                                         (dies_in_the_helper, x[::-1], w))
                    (t * u).sum().backward()
                parallel.training_step(step)
                out = w.grad.tobytes()
                w.grad = None
            else:
                with ad.no_grad():
                    t, u = parallel.both((scaled, x, w),
                                         (dies_in_the_helper, x[::-1], w))
                out = t.data.tobytes() + u.data.tobytes()
        runs.append((out, flops.total))
    assert runs[0] == runs[1] and runs[0][1] > 0
    assert parallel._helper is None and not dead.is_alive()
    assert not parallel._pending and lock_is_free()
    assert not helper_state(helper)
    assert parallel._helper[0].pid != dead.pid


HELPER_SCRIPT = """
import sys, time
from dualfuse import parallel
from dualfuse.config import RunConfig
from dualfuse.model import build_model, fuse_pair_arrays
from dualfuse.toydata import make_toy_pairs
parallel._two_cpus = lambda: True
cfg = RunConfig(channels=2, seed=0)
fuse_pair_arrays(make_toy_pairs(1, 16, seed=0)[0], build_model(cfg), cfg)
print(parallel._helper[0].pid, flush=True)
if sys.argv[1] == "wait":
    time.sleep(120)
"""


def gone(pid: int) -> bool:
    """No such process, or a zombie nobody has reaped yet."""
    try:
        with open("/proc/%d/stat" % pid, encoding="utf-8") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("ending", ["exit", "kill"])
def test_helper_never_outlives_its_caller(ending, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    caller = subprocess.Popen(
        [sys.executable, "-c", HELPER_SCRIPT,
         "exit" if ending == "exit" else "wait"],
        env=env, cwd=tmp_path, stdout=subprocess.PIPE, text=True)
    try:
        pid = int(caller.stdout.readline())
        assert pid != caller.pid
        if ending == "kill":
            assert not gone(pid)
            caller.send_signal(signal.SIGKILL)
        caller.wait(timeout=60)
        deadline = time.monotonic() + 5.0
        while not gone(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert gone(pid), "helper %d outlived its caller" % pid
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()


def test_a_threaded_caller_does_not_fork(helper, monkeypatch):
    def no_fork():
        raise AssertionError("forked with a second thread running")
    helper(True)
    monkeypatch.setattr(parallel, "_helper", None)
    monkeypatch.setattr(parallel, "_connection", no_fork)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        with ad.no_grad():
            assert parallel.both((pow, 2, 3), (divmod, 7, 2)) == (8, (3, 1))
    finally:
        stop.set()
        other.join(30)
    assert not other.is_alive()


def two_cpus_here() -> bool:
    return len(os.sched_getaffinity(0)) >= 2 and parallel._cpu() >= 0


LEAVE_CPU_SCRIPT = """
import json, os
from dualfuse import parallel
allowed = os.sched_getaffinity(0)
here = parallel._cpu()
parallel._leave_cpu(here, allowed)
print(json.dumps([here, parallel._cpu(), sorted(os.sched_getaffinity(0)),
                  sorted(allowed - {here})]))
"""


@pytest.mark.skipif(not two_cpus_here(), reason="needs two CPUs")
def test_leave_cpu_moves_off_the_given_cpu():
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", LEAVE_CPU_SCRIPT], env=env,
                         check=True, timeout=60, capture_output=True,
                         text=True)
    before, after, affinity, others = json.loads(run.stdout)
    assert after != before
    assert affinity == others


LEAVE_CALLS = []     # in a helper forked by the test below: its _leave_cpu calls


def leave_calls() -> list:
    return list(LEAVE_CALLS)


def test_helper_runs_off_the_callers_cpu(helper, monkeypatch):
    # The caller is not pinned, so it may share a CPU with the helper by the
    # time either half runs. What the design guarantees is that each request
    # carries the caller's CPU and that the helper calls _leave_cpu with it
    # before it runs g; test_leave_cpu_moves_off_the_given_cpu shows that
    # _leave_cpu moves the process.
    sent = []
    real_cpu, real_leave_cpu = parallel._cpu, parallel._leave_cpu

    def caller_cpu():
        sent.append(real_cpu())
        return sent[-1]

    def recorded_leave_cpu(cpu, allowed):
        LEAVE_CALLS.append((cpu, sorted(allowed)))
        real_leave_cpu(cpu, allowed)

    helper(True)
    parallel._shutdown()        # the next call forks a helper with the patches
    monkeypatch.setattr(parallel, "_cpu", caller_cpu)
    monkeypatch.setattr(parallel, "_leave_cpu", recorded_leave_cpu)
    try:
        with ad.no_grad():
            for i in range(3):
                _, calls = parallel.both((pow, 2, 3), (leave_calls,))
                assert len(calls) == i + 1
                assert calls[-1] == (sent[-1], sorted(os.sched_getaffinity(0)))
    finally:
        parallel._shutdown()
    assert len(sent) == 3 and not LEAVE_CALLS

