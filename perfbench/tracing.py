"""Outside-in span tracing of tprop's public functions.

The tracer replaces module attributes (and the shared tanh instance's
methods) with thin wrappers that record one span per call: id, parent id,
name, start, end and a run label. Nothing inside the library changes: the
library reaches these functions through module attributes, so the wrappers
see every call the training loop makes. Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

from tprop import activations, gru, linalg, rnn, targetprop, tasks, trainer

# (owner, attribute, span name). Order does not matter; each is wrapped once.
TRACED_FUNCTIONS = (
    (trainer, "train", "trainer.train"),
    (trainer, "grid_search", "trainer.grid_search"),
    (trainer, "evaluate", "trainer.evaluate"),
    (linalg, "ridge_pinv", "linalg.ridge_pinv"),
    (rnn, "forward", "rnn.forward"),
    (rnn, "bptt", "rnn.bptt"),
    (targetprop, "tp_direction", "targetprop.tp_direction"),
    (gru, "gru_forward", "gru.gru_forward"),
    (gru, "gru_bptt", "gru.gru_bptt"),
    (gru, "gru_tp_backward", "gru.gru_tp_backward"),
    (tasks, "gen_temporal_order", "tasks.gen_temporal_order"),
    (tasks, "image_batch", "tasks.image_batch"),
    (tasks, "load_idx", "tasks.load_idx"),
)
ACTIVATION_METHODS = ("project", "inverse", "inv_deriv", "deriv")
BATCH_SPANS = ("tasks.gen_temporal_order", "tasks.image_batch")


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    run: str

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrappers installed around the traced functions.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes. ``run`` labels the spans recorded
    next, so spans of one training run share an identifier.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list = []

    def _wrap(self, fn, name):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, name, t0, t1, self.run))

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TRACED_FUNCTIONS:
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name))
            self._undo.append((owner, attr, orig))
        act = activations.ACTIVATIONS["tanh"]   # the shared instance every workload uses
        for meth in ACTIVATION_METHODS:
            # instance attributes shadow the class methods; undo deletes them
            setattr(act, meth, self._wrap(getattr(act, meth), f"activations.{meth}"))
            self._undo.append((act, meth, None))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            f.write("id,parent,name,start,end,run\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                f.write(f"{s.sid},{s.parent},{s.name},{s.start:.9f},{s.end:.9f},{s.run}\n")


class SpanIndex:
    """Parent/child lookups and self times over a finished trace."""

    def __init__(self, spans: list[Span]):
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)
        for kids in self.children.values():
            kids.sort(key=lambda s: s.start)

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by direct children (which never
        overlap: the traced code is single threaded)."""
        return span.dur - sum(c.dur for c in self.children[span.sid])

    def descendants(self, span: Span):
        for c in self.children[span.sid]:
            yield c
            yield from self.descendants(c)

    def named(self, name: str, run: str | None = None) -> list[Span]:
        return [s for s in self.by_id.values()
                if s.name == name and (run is None or s.run == run)]


@dataclass
class IterationProfile:
    """Per-iteration breakdown of one trainer.train span, all times in s.

    An iteration runs from one batch span's start to the next one's (the
    last ends with the train span); the trainer's own share is whatever
    its direct children do not cover: update step, loss, accuracy and
    bookkeeping.
    """

    wall: list[float]
    batch: list[float]
    forward: list[float]
    direction_self: list[float]   # tp/bptt span minus its traced children
    ridge: list[float]
    ridge_calls: list[int]
    act_self: list[float]
    act_calls: list[int]
    trainer_self: list[float]


def profile_train(index: SpanIndex, train: Span) -> IterationProfile:
    kids = index.children[train.sid]
    starts = [k.start for k in kids if k.name in BATCH_SPANS]
    bounds = starts + [train.end]
    prof = IterationProfile([], [], [], [], [], [], [], [], [])
    i = -1
    for k in kids:
        if k.name in BATCH_SPANS:
            i += 1
            for lst in (prof.batch, prof.forward, prof.direction_self, prof.ridge,
                        prof.act_self, prof.trainer_self):
                lst.append(0.0)
            prof.ridge_calls.append(0)
            prof.act_calls.append(0)
            prof.wall.append(bounds[i + 1] - bounds[i])
            prof.trainer_self[i] = prof.wall[i]
        if i < 0:
            continue
        prof.trainer_self[i] -= k.dur
        if k.name in BATCH_SPANS:
            prof.batch[i] += k.dur
        elif k.name in ("rnn.forward", "gru.gru_forward"):
            prof.forward[i] += k.dur
        else:
            prof.direction_self[i] += index.self_time(k)
            for d in index.descendants(k):
                if d.name == "linalg.ridge_pinv":
                    prof.ridge[i] += d.dur
                    prof.ridge_calls[i] += 1
                elif d.name.startswith("activations."):
                    prof.act_self[i] += index.self_time(d)
                    prof.act_calls[i] += 1
    return prof


def median(xs) -> float:
    return float(statistics.median(xs))
