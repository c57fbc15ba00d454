"""Randomized checks of the two-process backward's ordering invariant: every
gradient target gets the same contributions in the same order as on the
serial path. One check is pure (``autodiff._schedule`` on drawn graphs,
no processes); the other trains drawn graphs with the helper on and off and
with the helper killed partway through the backward."""

import os
import random
import signal
from collections import defaultdict

import numpy as np
import pytest

from dualfuse import autodiff as ad
from dualfuse import parallel


# ---------------------------------------------------------------------------
# _schedule on drawn graphs
# ---------------------------------------------------------------------------

class DrawnHalf(parallel._Half):
    """A held graph with no helper behind it: ``begin`` groups the
    stand-ins as the real one does, and nothing is sent."""

    def _flush(self) -> None:
        pass


def node(parents: list) -> ad.Node:
    return ad.Node((), tuple(parents), None, "drawn")


def draw_remote(rng: random.Random, pool: list, params: list, half) -> list:
    """The graph of one grad-mode ``both``'s second call, as the helper
    holds it: nodes over fresh leaves for some of ``params`` and at most
    one op result from ``pool``, with one to three outputs, which may read
    each other. Fills in ``half`` as a grad-mode ``parallel.both`` would
    and returns the stand-ins."""
    targets = rng.sample(params, rng.randint(1, len(params)))
    op_results = [t for t in pool if isinstance(t, ad.Node)]
    if op_results and rng.random() < 0.6:
        targets.append(rng.choice(op_results))
    half.leaves = targets
    leaves = [ad.Tensor(0.0, requires_grad=True) for _ in targets]
    values = list(leaves)
    for _ in range(rng.randint(1, 5)):
        values.append(node(rng.sample(values, min(len(values),
                                                  rng.randint(1, 2)))))
    nodes = rng.sample(values[len(leaves):],
                       min(len(values) - len(leaves), rng.randint(1, 3)))
    above = [{id(n) for n in ad._postorder(out, set())} for out in nodes]
    half.reach = [[i for i, n in enumerate(nodes) if i != j and id(n) in ids]
                  for j, ids in enumerate(above)]
    half.stand_ins = [ad.StandIn(0.0, half, j) for j in range(len(nodes))]
    for stand_in, ids in zip(half.stand_ins, above):
        stand_in.parents = tuple(t for t, leaf in zip(targets, leaves)
                                 if id(leaf) in ids and isinstance(t, ad.Node))
    half.nodes, half.remote_leaves = nodes, leaves
    return half.stand_ins


def draw_graph(rng: random.Random) -> ad.Node:
    """The root Node of a caller graph over shared parameters and one or
    two held graphs."""
    params = [ad.Tensor(0.0, requires_grad=True)
              for _ in range(rng.randint(1, 4))]
    pool = list(params)
    for _ in range(rng.randint(1, 2)):
        for _ in range(rng.randint(0, 3)):
            pool.append(node(rng.sample(pool, min(len(pool),
                                                  rng.randint(1, 3)))))
        pool += draw_remote(rng, pool, params, DrawnHalf())
    for _ in range(rng.randint(0, 4)):
        pool.append(node(rng.sample(pool, min(len(pool), rng.randint(1, 3)))))
    readers = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
    return node([pool[-1]] + [t for t in readers if t is not pool[-1]])


def group_parts(half) -> list:
    """Per group, in run order, what its part of the held graph adds into
    the caller's targets: (remote node, caller target) pairs, as
    ``parallel._backward_group`` logs them."""
    heads = [half.nodes[head.index] for head, _ in reversed(half.groups)]
    leaf_targets = {id(leaf): t
                    for leaf, t in zip(half.remote_leaves, half.leaves)}
    parts = []
    for part, (_, members) in zip(ad._segments(heads), half.groups):
        outputs = {id(n): half.stand_ins[j] for j, n in enumerate(half.nodes)
                   if j not in members}
        parts.append([(n, leaf_targets.get(id(p), outputs.get(id(p))))
                      for n in part if isinstance(n, ad.Node)
                      for p in n.parents if p is not None])
    return [[(n, t) for n, t in part if t is not None] for part in parts]


def contributions(order: list, ready: dict, halves: list) -> dict:
    """Per gradient target, what adds into it, in the order a backward
    that runs ``order`` adds them. Fails where a group's part would run
    before its members' gradients are final, or something adds into a
    target after its gradient was used."""
    found = {id(h): {s.index for s in h.found} for h in halves}
    for half in halves:
        half.applied, half.waiting = 0, set(found[id(half)])
    log, used = defaultdict(list), set()

    def add(target, source):
        assert id(target) not in used
        log[id(target)].append(id(source))

    def final(stand_ins):
        for s in stand_ins:
            s.half.waiting.discard(s.index)
    final(ready.get(None, ()))
    for n in reversed(order):
        if isinstance(n, ad.Node):
            for parent in n.parents:
                if parent is not None:
                    add(parent, n)
            used.add(id(n))
            final(ready.get(id(n), ()))
        elif type(n) is ad.StandIn and n.half.applied < len(n.half.groups) \
                and n is n.half.groups[n.half.applied][0]:
            half = n.half
            members = half.groups[half.applied][1]
            assert half.waiting.isdisjoint(members)
            used.update(id(half.stand_ins[j]) for j in members)
            for source, target in half.parts[half.applied]:
                add(target, source)
            half.applied += 1
    assert all(h.applied == len(h.groups) for h in halves)
    return log


def test_schedule_keeps_every_targets_contributions_in_serial_order():
    rng = random.Random(0)
    moved = refused = 0
    for _ in range(3000):
        order = ad._postorder(draw_graph(rng), set())
        found = defaultdict(list)
        for n in order:
            if type(n) is ad.StandIn:
                found[n.half].append(n)
        if not found:
            continue
        scheduled, ready = ad._schedule(order, found)
        halves = list(found)
        for half in halves:
            half.found, half.parts = found[half], group_parts(half)
        assert contributions(scheduled, ready, halves) == \
            contributions(order, ready, halves)
        moved += scheduled != order
        refused += scheduled is order
    # both the moving and the refusing branch ran often
    assert moved > 200 and refused > 200


# ---------------------------------------------------------------------------
# drawn training steps on two processes
# ---------------------------------------------------------------------------

OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "silu": lambda a, b: ad.silu(a),
    "sigmoid": lambda a, b: ad.sigmoid(a * b),
}


def run_recipe(recipe: tuple, *inputs) -> tuple:
    """What a drawn recipe computes from ``inputs``: each of its steps
    ``(op, i, j)`` appends ``OPS[op](values[i], values[j])`` to the inputs'
    values; returns the values at its output positions."""
    steps, outputs = recipe
    values = list(inputs)
    for op, i, j in steps:
        values.append(OPS[op](values[i], values[j]))
    return tuple(values[k] for k in outputs)


def draw_recipe(rng: random.Random, n_inputs: int) -> tuple:
    """One to five steps over ``n_inputs`` inputs, most reading a recent
    value, and one to three outputs, which may read each other."""
    steps: list = []
    for _ in range(rng.randint(1, 5)):
        n = n_inputs + len(steps)
        steps.append((rng.choice(sorted(OPS)), rng.randrange(max(0, n - 3), n),
                      rng.randrange(n)))
    outputs = rng.sample(range(n_inputs, n_inputs + len(steps)),
                         min(len(steps), rng.randint(1, 3)))
    return tuple(steps), tuple(sorted(outputs))


def draw_step(seed: int, between):
    """A drawn training step, its parameters and its size: one or two
    grad-mode ``both`` calls, each second call reading the parameters and
    one caller op result (after the first call, one computed from its
    stand-in), and a loss that reads every output and the parameters.
    ``between`` runs after the forward pass."""
    rng = random.Random(seed)
    arrays = np.random.default_rng(seed)
    # 30,000 doubles is more than a socket buffer of 212,992 bytes holds
    n = rng.choice([3, 30000])
    ws = [ad.parameter(arrays.uniform(-1, 1, n))
          for _ in range(rng.randint(2, 3))]
    x = ad.Tensor(arrays.uniform(-1, 1, n))
    calls = [(draw_recipe(rng, 1 + len(ws)), draw_recipe(rng, 1 + len(ws)))
             for _ in range(rng.randint(1, 2))]
    coefficients = [ad.Tensor(arrays.uniform(-1, 1, n)) for _ in range(12)]
    order = rng.sample(range(12), 12)

    def step():
        for w in ws:
            w.grad = None
        h = ws[0] * x
        outputs = []
        for first, second in calls:
            mine, theirs = parallel.both((run_recipe, first, x, *ws),
                                         (run_recipe, second, h, *ws))
            outputs += mine + theirs
            h = theirs[0] * ws[-1]
        loss = ad.reduce_sum(ws[0] * ws[1])
        for k in order:
            if k < len(outputs):
                loss = loss + ad.reduce_sum(outputs[k] * coefficients[k])
        between()
        loss.backward()
    return step, ws, n


@pytest.fixture
def plan(monkeypatch):
    """Runs the helper on or off, counts the groups whose contributions
    were added in, kills the helper after ``kill_after`` of them (0: after
    the forward pass, through ``plan.between``) and records, per held
    graph, whether its whole backward ran on the helper."""
    class Plan:
        def __init__(self):
            self.helper = False
            self.kill_after = None      # groups to add in before the kill
            self.applied = self.killed = 0
            self.finished: list = []

        def kill(self):
            self.kill_after = None
            self.killed += 1
            os.kill(parallel._helper[0].pid, signal.SIGKILL)

        def between(self):
            if self.kill_after == 0:
                self.kill()
    plan = Plan()
    reached, finish = parallel._Half.reached, parallel._Half._finish

    def counting_reached(self, stand_in):
        before = self.applied
        reached(self, stand_in)
        plan.applied += self.applied - before
        if self.applied > before and plan.applied == plan.kill_after:
            plan.kill()

    def recording_finish(self):
        if not self.done:
            plan.finished.append(self.applied == len(self.groups) > 0)
        finish(self)
    monkeypatch.setattr(parallel._Half, "reached", counting_reached)
    monkeypatch.setattr(parallel._Half, "_finish", recording_finish)
    monkeypatch.setattr(parallel, "_two_cpus", lambda: plan.helper)
    return plan


def watchdog(seconds: float):
    """Kill the helper, if any, after ``seconds``, so a stalled step fails
    (it reruns serially) instead of hanging; ``watchdog(0)`` stops
    it."""
    def kill_helper(*_):
        if parallel._helper is not None:
            os.kill(parallel._helper[0].pid, signal.SIGKILL)
    signal.signal(signal.SIGALRM, kill_helper)
    signal.setitimer(signal.ITIMER_REAL, seconds)


def test_drawn_steps_keep_their_bytes_with_the_helper_on_off_or_lost(plan):
    previous = signal.getsignal(signal.SIGALRM)
    large = 0
    try:
        for seed in range(40):
            step, ws, n = draw_step(seed, plan.between)
            rng = random.Random(1000 + seed)
            runs = []
            for helper, lost in ((False, False), (True, False), (True, True)):
                plan.helper, plan.applied, plan.finished = helper, 0, []
                if lost:
                    if not groups:
                        continue
                    plan.kill_after = rng.randrange(groups)
                watchdog(30)
                with ad.FlopCounter() as flops:
                    parallel.training_step(step)
                watchdog(0)
                assert plan.kill_after is None
                runs.append(([None if w.grad is None else w.grad.tobytes()
                              for w in ws], flops.total))
                for w in ws:
                    w.grad = None
                if helper and not lost:
                    # every graph the helper held ran wholly there
                    groups = plan.applied
                    assert all(plan.finished)
                    large += n > 3 and groups > 0
            assert all(run == runs[0] for run in runs), seed
    finally:
        watchdog(0)
        signal.signal(signal.SIGALRM, previous)
    assert plan.killed > 20 and large > 8
