"""Span recording for the traced benchmark run.

Every span is recorded from the benchmark's own files, around a call into
one layer of the program: a collective on :class:`TimedContext`, a grant
of the seeded scheduler on :class:`TimedScheduler`, or a
``Transaction``/``QueryEngine``/kernel call wrapped in
:meth:`SpanRecorder.span`.  A span holds its name, the rank, the operation
or request id, its parent span, and its start and end on both clocks: host
``perf_counter`` seconds and the rank's simulated clock.  Spans stay in
memory and are written out once, when the run ends.

One-sided RMA calls are far too many to keep one by one (tens of
thousands per round), so :class:`TimedContext` folds each into the
innermost open span of its thread as a count plus host and simulated
time; the ``rma`` layer's time is the sum of those folds.

The untraced run uses :data:`NULL_RECORDER`, whose spans cost one call
and record nothing, and hands the program its contexts and scheduler
unwrapped.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

from repro.rma import InterleavingScheduler, RankContext
from repro.rma.collectives import payload_nbytes

__all__ = [
    "NULL_RECORDER",
    "SpanRecorder",
    "TimedContext",
    "TimedScheduler",
    "layer_of",
]

# span record fields (a list, mutated in place while the span is open)
_ID, _PARENT, _NAME, _RANK, _OP, _H0, _H1, _S0, _S1, _RN, _RH, _RS, _BYTES = range(13)


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its dotted prefix.

    ``rma.collectives.alltoall`` -> ``rma.collectives``;
    ``gda.txn.find`` -> ``gda.txn``; ``serve.request`` -> ``serve``.
    """
    parts = name.split(".")
    if parts[0] in ("rma", "gda") and len(parts) > 2:
        return ".".join(parts[:2])
    return parts[0]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _NullRecorder:
    """Recorder of the untraced run: records nothing, wraps nothing."""

    enabled = False

    def span(self, ctx, name, op=None):
        return _NULL_SPAN

    def wrap(self, ctx):
        return ctx

    def scheduler(self, seed):
        return InterleavingScheduler(seed)


NULL_RECORDER = _NullRecorder()


class _Span:
    __slots__ = ("rec", "ctx", "name", "op", "row")

    def __init__(self, rec, ctx, name, op):
        self.rec = rec
        self.ctx = ctx
        self.name = name
        self.op = op

    def __enter__(self):
        rec = self.rec
        stack = rec._stack()
        parent = stack[-1][_ID] if stack else 0
        row = [
            next(rec._ids), parent, self.name, self.ctx.rank, self.op,
            perf_counter(), 0.0, self.ctx.clock, 0.0, 0, 0.0, 0.0, 0,
        ]
        stack.append(row)
        self.row = row
        return row

    def __exit__(self, *exc):
        row = self.row
        row[_H1] = perf_counter()
        row[_S1] = self.ctx.clock
        stack = self.rec._stack()
        stack.pop()
        self.rec._rows.append(row)
        return False


class SpanRecorder:
    """In-memory span store of one traced round (thread-safe appends)."""

    enabled = True

    def __init__(self) -> None:
        self._rows: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: rank -> [steps, host seconds waited] of the seeded scheduler
        self.sched: dict[int, list] = defaultdict(lambda: [0, 0.0])
        #: one-sided calls made outside any open span: rank -> [n, host, sim]
        self.loose_rma: dict[int, list] = defaultdict(lambda: [0, 0.0, 0.0])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, ctx, name: str, op=None) -> _Span:
        return _Span(self, ctx, name, op)

    def add(self, rank, name, op, h0, h1, s0, s1) -> None:
        """Record a span measured elsewhere (serve requests: the serving
        clock lives on the request, not on a rank clock)."""
        self._rows.append(
            [next(self._ids), 0, name, rank, op, h0, h1, s0, s1, 0, 0.0, 0.0, 0]
        )

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, ctx: RankContext) -> "TimedContext":
        return TimedContext(ctx.rt, ctx.rank, self)

    def scheduler(self, seed: int) -> "TimedScheduler":
        return TimedScheduler(seed, self)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[str, dict[str, float]]:
        """Per layer: self time on both clocks (span minus child spans and
        folded one-sided calls), summed over ranks, plus the ``rma`` layer
        made of the folded one-sided calls."""
        child_h: dict[int, float] = defaultdict(float)
        child_s: dict[int, float] = defaultdict(float)
        for r in self._rows:
            if r[_PARENT]:
                child_h[r[_PARENT]] += r[_H1] - r[_H0]
                child_s[r[_PARENT]] += r[_S1] - r[_S0]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"host_s": 0.0, "sim_s": 0.0, "spans": 0}
        )
        for r in self._rows:
            layer = out[layer_of(r[_NAME])]
            layer["host_s"] += r[_H1] - r[_H0] - child_h[r[_ID]] - r[_RH]
            layer["sim_s"] += r[_S1] - r[_S0] - child_s[r[_ID]] - r[_RS]
            layer["spans"] += 1
            rma = out["rma"]
            rma["host_s"] += r[_RH]
            rma["sim_s"] += r[_RS]
        for n, h, s in self.loose_rma.values():
            out["rma"]["host_s"] += h
            out["rma"]["sim_s"] += s
        # a one-sided call under the seeded scheduler first waits for its
        # grant: that wait belongs to the executor, not to the call
        for steps, waited in self.sched.values():
            out["rma"]["host_s"] -= waited
            out["rma.executor"]["host_s"] += waited
            out["rma.executor"]["spans"] += steps
        return {k: dict(v) for k, v in sorted(out.items())}

    def durations(self, name: str, host: bool = False) -> list[float]:
        """Durations of every span called ``name``, simulated or host."""
        i0, i1 = (_H0, _H1) if host else (_S0, _S1)
        return [r[i1] - r[i0] for r in self._rows if r[_NAME] == name]

    def collectives_between(self, h0: float, h1: float) -> tuple[int, float, float]:
        """Payload bytes, simulated and host seconds of the collective
        spans that started within host interval ``[h0, h1]``."""
        rows = [
            r for r in self._rows
            if r[_NAME].startswith("rma.collectives.") and h0 <= r[_H0] <= h1
        ]
        return (
            sum(r[_BYTES] for r in rows),
            sum(r[_S1] - r[_S0] for r in rows),
            sum(r[_H1] - r[_H0] for r in rows),
        )

    def onesided_calls(self) -> int:
        return sum(r[_RN] for r in self._rows) + sum(
            v[0] for v in self.loose_rma.values()
        )

    def dump(self, path, meta: dict) -> None:
        """Write every span as one JSON line after a header line."""
        keys = (
            "id", "parent", "name", "rank", "op", "host_start", "host_end",
            "sim_start", "sim_end", "rma_calls", "rma_host_s", "rma_sim_s",
            "bytes",
        )
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for r in self._rows:
                fh.write(json.dumps(dict(zip(keys, r)), default=str) + "\n")


def _timed_onesided(name: str):
    base = getattr(RankContext, name)

    def call(self, *args, **kwargs):
        if self._depth:
            return base(self, *args, **kwargs)
        self._depth = 1
        h0 = perf_counter()
        s0 = self.rt.clocks[self.rank]
        try:
            return base(self, *args, **kwargs)
        finally:
            self._depth = 0
            dh = perf_counter() - h0
            ds = self.rt.clocks[self.rank] - s0
            row = self._rec.current()
            if row is not None:
                row[_RN] += 1
                row[_RH] += dh
                row[_RS] += ds
            else:
                loose = self._rec.loose_rma[self.rank]
                loose[0] += 1
                loose[1] += dh
                loose[2] += ds

    call.__name__ = name
    call.__doc__ = base.__doc__
    return call


def _timed_collective(name: str, payload_arg: int | None):
    base = getattr(RankContext, name)

    def call(self, *args, **kwargs):
        with self._rec.span(self, f"rma.collectives.{name}") as row:
            if payload_arg is not None and len(args) > payload_arg:
                row[_BYTES] = payload_nbytes(args[payload_arg])
            return base(self, *args, **kwargs)

    call.__name__ = name
    call.__doc__ = base.__doc__
    return call


class TimedContext(RankContext):
    """A :class:`RankContext` that records spans around its collectives
    and folds its one-sided calls into the enclosing span.

    Passed into the program in place of the executor's context, so every
    layer that takes a context (transactions, kernels, the query engine,
    the server's worker loop) is measured from outside.
    """

    def __init__(self, runtime, rank: int, recorder: SpanRecorder) -> None:
        super().__init__(runtime, rank)
        self._rec = recorder
        self._depth = 0

    for _name in (
        "put", "get", "cas", "faa", "aget", "aput", "faa_batch", "cas_batch",
        "put_batch", "get_batch", "iput_batch", "iget_batch", "iput", "iget",
        "flush",
    ):
        locals()[_name] = _timed_onesided(_name)
    for _name, _arg in (
        ("barrier", None), ("bcast", 0), ("reduce", 0), ("allreduce", 0),
        ("gather", 0), ("allgather", 0), ("scatter", 0), ("alltoall", 0),
        ("scan", 0), ("exscan", 0),
    ):
        locals()[_name] = _timed_collective(_name, _arg)
    del _name, _arg


class TimedScheduler(InterleavingScheduler):
    """The seeded interleaving scheduler, counting grants and the host
    time each rank waits for its turn (the ``rma.executor`` layer)."""

    def __init__(self, seed: int, recorder: SpanRecorder) -> None:
        super().__init__(seed)
        self._rec = recorder

    def step(self, rank: int) -> None:
        h0 = perf_counter()
        super().step(rank)
        acc = self._rec.sched[rank]
        acc[0] += 1
        acc[1] += perf_counter() - h0
