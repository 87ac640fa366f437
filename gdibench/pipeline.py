"""One benchmark round: load a Kronecker LPG, then analytics, OLTP and
serving against it, then check every output.

Every workload runs the same four phases on one simulated machine; the
workload decides the machine (ranks, executor, replication, MVCC), the
graph, and how much work each phase does.  Each workload gives its own
phase the full size and the other two phases a small fixed size, so that
every end-to-end metric is measured on every workload while the named
layers still carry most of its time:

1. **setup** — create the database and bulk-load the graph (``setup_s``);
2. **olap** — BFS, PageRank and WCC, each fetching its own adjacency in a
   collective read transaction, then BI2 and vertex-count-per-label
   through :class:`~repro.query.QueryEngine` on rank 0;
3. **oltp** — the LinkBench (Table 3 LB) mix, one operation per
   transaction, on the workload's OLTP ranks;
4. **serve** — an open loop of independent users against one
   :class:`~repro.serve.GraphServer` worker at two fixed offered rates.

The program is driven only through its public entry points, and every
input is generated here from the run's seed.
"""

from __future__ import annotations

import gc
import random
import re
import resource
import statistics
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter, process_time

import networkx as nx
import numpy as np

from repro.gda import GdaConfig, GdaDatabase, RetryPolicy, run_transaction
from repro.gda.consistency import check_consistency
from repro.gdi import EdgeOrientation
from repro.gdi.errors import GdiNotFound, GdiTransactionCritical
from repro.generator import (
    KroneckerParams,
    build_lpg_from_edges,
    default_schema,
    generate_edges,
)
from repro.query import QueryEngine
from repro.rma import (
    XC40,
    InterleavingScheduler,
    RmaRuntime,
    RmaTransientError,
    run_spmd,
)
from repro.serve import ClientSession, GraphServer
from repro.serve.request import ANALYTICS, OK, OLTP
from repro.serve.server import ServeConfig
from repro.workloads import (
    MIXES,
    OpType,
    bfs,
    load_local_adjacency,
    pagerank,
    wcc,
)

from . import oracle
from .hostspeed import HostSpeed
from .spans import NULL_RECORDER, SpanRecorder

__all__ = ["Workload", "WORKLOADS", "run_round", "percentile"]


@dataclass(frozen=True)
class Workload:
    """Machine, graph and phase sizes of one benchmark workload."""

    name: str
    nranks: int
    scale: int
    edge_factor: int
    #: load and run the OLTP phase under the seeded interleaving scheduler
    seeded_oltp: bool
    replication: bool
    mvcc: bool
    #: ranks issuing OLTP operations, and operations per such rank
    oltp_ranks: int
    oltp_ops_per_rank: int
    #: offered serve rates (requests per simulated second) and the
    #: number of requests sent at each
    serve_rates: tuple[float, float]
    serve_requests_per_rate: int


#: Companion phases: 3,000 OLTP operations on one rank and 1,200 requests
#: per serve rate, so every p99 has at least ten samples beyond it.  The
#: serve rates are fixed numbers, chosen once against one worker's
#: capacity on that workload's graph (the BI2-shaped scan cost grows
#: with the graph): the lower rate near 60% of it on every workload, the
#: higher near 75% on the two companion serve phases and near 88% on
#: ``serve-htap``, whose 8,000 requests per rate make a rate 13% higher
#: read no higher in p99 (the 1% tail is the wait behind one scan); at
#: 88% the backlog shows.  At 40% most requests find the worker idle and
#: the median request latency is a fixed service time, the same on every
#: seed.
WORKLOADS: dict[str, Workload] = {
    "oltp-linkbench": Workload(
        "oltp-linkbench", nranks=4, scale=12, edge_factor=8,
        seeded_oltp=True, replication=True, mvcc=False,
        oltp_ranks=4, oltp_ops_per_rank=2000,
        serve_rates=(14_500.0, 19_500.0), serve_requests_per_rate=1200,
    ),
    "olap-analytics": Workload(
        "olap-analytics", nranks=4, scale=12, edge_factor=16,
        seeded_oltp=False, replication=False, mvcc=False,
        oltp_ranks=1, oltp_ops_per_rank=3000,
        serve_rates=(29_000.0, 34_500.0), serve_requests_per_rate=1200,
    ),
    "serve-htap": Workload(
        "serve-htap", nranks=2, scale=11, edge_factor=8,
        seeded_oltp=False, replication=False, mvcc=True,
        oltp_ranks=1, oltp_ops_per_rank=3000,
        serve_rates=(35_500.0, 54_000.0), serve_requests_per_rate=8000,
    ),
}

PROFILE = XC40
PAGERANK_ITERATIONS = 10
PAGERANK_DAMPING = 0.85
#: What the run seed chooses, and what it does not.  Each workload has one
#: graph shape (Kronecker seed ``SHAPE_SEED``) and one logical operation
#: and request stream (``STREAM_SEED``, drawn over that shape's vertex
#: positions).  The run seed numbers the vertices (see ``numbering``) --
#: and with the numbers the light vertices' home ranks, labels and
#: properties -- and seeds the OLTP interleaving.  Runs with different
#: seeds thus do the same logical work on different placements.  Drawing
#: the shape or the streams from the run seed too made the figures follow
#: luck rather than the program: over five seeds, whether the 80 LB
#: deletions hit a hub moved ``sim_kops_s`` by 29% between quartiles, and
#: a new shape moved ``wcc_us`` by 27%.
SHAPE_SEED = 1
STREAM_SEED = 0
#: large enough that no LB operation exhausts it (probes: none needed >4)
OLTP_RETRY = RetryPolicy(max_attempts=10)
#: admission queue bound; the pacing below keeps the real depth at the
#: simulated backlog, which stays far below it at both offered rates
QUEUE_CAPACITY = 256

#: the BI2 shape, once per source label i (to label i+1): one label's
#: cost hangs on whether a hub carries it, the family's on the whole graph
N_LABELS = 16
BI2_TEXT = (
    "MATCH (per:VL{i})-[:EL0]->(v:VL{j}) WHERE per.p_score > $sv "
    "AND v.p_active = $dv RETURN count(DISTINCT per)"
)
BI2_PARAMS = {"sv": 50.0, "dv": True}
GROUPBY_TEXT = "MATCH (v:VL{i}) RETURN count(*)"

POINT_READ = "MATCH (v {id = $src}) RETURN v.id"
ONE_HOP = "MATCH (a {id = $src})-[]->(b) RETURN b.id"
WRITE = "MATCH (v {id = $src}) SET v.p_score = $score"
#: BI2-shaped analytics request; successive scans rotate the source label
SCAN = (
    "MATCH (per:VL{i})-[:EL0]->(v) WHERE per.p_score > $minscore "
    "RETURN count(DISTINCT per)"
)
#: serve request mix per block of 100 requests, shuffled within the block
SERVE_MIX = (("scan", 1), ("write", 20), ("onehop", 25), ("point", 54))
SERVE_TEXT = {"write": WRITE, "onehop": ONE_HOP, "point": POINT_READ}
#: simulated idle gap between the two rate phases, so the second starts
#: on a drained queue
RATE_GAP_S = 5e-3

_ROWS = re.compile(r"\[rows=(\d+)")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    data = sorted(values)
    k = max(0, -(-len(data) * q // 100) - 1)
    return data[int(k)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _counters(rt) -> dict[str, float]:
    total: Counter = Counter()
    for c in rt.trace.counters:
        total.update(c.snapshot())
    return dict(total)


def _diff(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# -------------------------------------------------------------- inputs --
def numbering(wl: Workload, seed: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The run's vertex numbering (position -> application ID), the
    position of the highest-degree vertex, where BFS starts, and the
    shape's edge list over positions (what every rank generates).

    The seed shuffles IDs only among vertices of one connected component
    whose degrees differ by at most one (``degree // 2`` classes), so
    each rank keeps nearly the same edge load and each hub its home
    rank, label and properties; what moves is which light vertex lives
    where and carries what.  With the IDs shuffled freely the hubs'
    placement and labels decided the figures: over five seeds
    ``wcc_us``, ``bi2_us`` and ``req_p99_us.peak`` moved by 15-31%
    between quartiles.  With exactly equal degrees every holder kept its
    size with its ID and a label scan cost the same on every seed
    (``groupby_us`` read 5734.6295 us five times).  Within each
    component the smallest ID sits on the highest-degree vertex and
    stays there: WCC's hash-min propagation runs as many rounds as the
    smallest ID is far from the component's far end, so that count
    stays a property of the shape.
    """
    params = KroneckerParams(
        scale=wl.scale, edge_factor=wl.edge_factor, seed=SHAPE_SEED
    )
    n = params.n_vertices
    edges = np.concatenate(
        [generate_edges(params, r, wl.nranks) for r in range(wl.nranks)]
    )
    degree = np.bincount(edges.ravel(), minlength=n)
    shape = nx.Graph()
    shape.add_nodes_from(range(n))
    shape.add_edges_from(map(tuple, edges.tolist()))
    rng = np.random.default_rng(seed)
    perm = np.arange(n)
    for comp in sorted(nx.connected_components(shape), key=min):
        comp = sorted(comp)
        centre = max(comp, key=lambda v: degree[v])
        first = comp[0]
        perm[first], perm[centre] = perm[centre], perm[first]
        classes: dict[int, list[int]] = defaultdict(list)
        for v in comp:
            if v != centre:
                classes[int(degree[v]) // 2].append(v)
        for members in classes.values():
            perm[members] = perm[rng.permutation(members)]
    return perm, int(np.argmax(degree)), edges


def draw_oltp_ops(
    seed: int, rank: int, n_ops: int, relabel: np.ndarray
) -> list[tuple]:
    """One rank's LB operation stream, drawn before the phase starts.

    Keys are drawn as vertex positions and numbered through ``relabel``.
    As in `run_oltp_rank`, a tenth of the keys after the first
    creation come from vertices this rank created earlier.
    """
    mix = MIXES["LB"]
    rng = random.Random(f"gdibench/oltp/{seed}/{rank}")
    n_vertices = len(relabel)
    next_new = n_vertices + rank * 10_000_000
    created: list[int] = []
    ops: list[tuple] = []

    def key() -> int:
        if created and rng.random() < 0.1:
            return rng.choice(created)
        return int(relabel[rng.randrange(n_vertices)])

    for _ in range(n_ops):
        op = mix.sample(rng)
        if op is OpType.ADD_VERTEX:
            ops.append((op, next_new))
            created.append(next_new)
            next_new += 1
        elif op is OpType.ADD_EDGE:
            ops.append((op, key(), key()))
        elif op is OpType.UPD_PROP:
            ops.append((op, key(), rng.randrange(1 << 31)))
        else:
            ops.append((op, key()))
    return ops


def draw_requests(
    seed: int, rates: tuple[float, float], n_per_rate: int, keys: list[int]
) -> list[tuple]:
    """Open-loop request schedule: ``(rate index, kind, text, params, due)``.

    Independent users arrive as one Poisson stream per rate.  Each block
    of 100 requests holds the mix exactly, in seeded order, so every run
    offers the same work; keys are surviving generated vertices, so every
    point read has a vertex.
    """
    rng = random.Random(f"gdibench/serve/{seed}")
    block = [kind for kind, count in SERVE_MIX for _ in range(count)]
    out = []
    due = 0.0
    n_scans = 0
    for ri, rate in enumerate(rates):
        kinds: list[str] = []
        while len(kinds) < n_per_rate:
            rng.shuffle(block)
            kinds += block
        for kind in kinds[:n_per_rate]:
            due += rng.expovariate(rate)
            if kind == "scan":
                text = SCAN.format(i=n_scans % N_LABELS)
                params = {"minscore": 50.0}
                n_scans += 1
            elif kind == "write":
                text = WRITE
                params = {"src": rng.choice(keys), "score": round(rng.uniform(0, 100), 3)}
            else:
                text = SERVE_TEXT[kind]
                params = {"src": rng.choice(keys)}
            out.append((ri, kind, text, params, due))
        due += RATE_GAP_S
    return out


def reference(n: int, edges: np.ndarray, root: int, streams: list) -> dict:
    """Every expected output of a round, from the inputs alone.

    A round computes this before it creates the database, so the
    networkx graphs and arrays of the checks never sit next to the
    program's memory and ``peak_rss_mb`` is set by the program's phases.
    """
    schema = default_schema()
    alive, expected_edges = oracle.oltp_final_state(n, edges, streams)
    counts = oracle.label_counts(schema, n)
    return {
        "bfs": oracle.bfs_depths(n, edges, root),
        "wcc": oracle.wcc_partition(n, edges),
        "pagerank": oracle.pagerank(n, edges, PAGERANK_ITERATIONS, PAGERANK_DAMPING),
        "bi2": oracle.bi2_counts(schema, n, edges, N_LABELS, min_score=BI2_PARAMS["sv"]),
        "groupby": [counts.get(i, 0) for i in range(N_LABELS)],
        "alive": alive,
        "edges": expected_edges,
    }


# -------------------------------------------------------------- phases --
def _setup(ctx, wl: Workload, relabel: np.ndarray, rec, out: dict):
    ctx = rec.wrap(ctx)
    cfg = GdaConfig(
        blocks_per_rank=1 << 15,
        dht_buckets_per_rank=1 << 12,
        dht_entries_per_rank=1 << 14,
        replication=wl.replication,
        mvcc=wl.mvcc,
    )
    db = GdaDatabase.create(ctx, cfg)
    params = KroneckerParams(
        scale=wl.scale, edge_factor=wl.edge_factor, seed=SHAPE_SEED
    )
    h0 = perf_counter()
    with rec.span(ctx, "generator.edges"):
        edges = relabel[generate_edges(params, ctx.rank, ctx.nranks)]
    h1 = perf_counter()
    with rec.span(ctx, "generator.bulk_load"):
        g = build_lpg_from_edges(
            ctx, db, n_vertices=params.n_vertices, edges_local=edges.tolist(),
            schema=default_schema(),
        )
    h2 = perf_counter()
    out.setdefault("gen_host", {})[ctx.rank] = (h1 - h0, h2 - h1)
    if ctx.rank == 0:
        out["db"], out["graph"] = db, g
    return None


def _olap(ctx, wl: Workload, root: int, rec, out: dict):
    ctx = rec.wrap(ctx)
    db, g = out["db"], out["graph"]
    rank = ctx.rank
    kernels = (
        ("bfs", EdgeOrientation.ANY, lambda adj: bfs(ctx, g, root, adj=adj)),
        (
            "pagerank", EdgeOrientation.OUTGOING,
            lambda adj: pagerank(
                ctx, g, iterations=PAGERANK_ITERATIONS,
                damping=PAGERANK_DAMPING, adj=adj,
            ),
        ),
        ("wcc", EdgeOrientation.ANY, lambda adj: wcc(ctx, g, adj=adj)),
    )
    mine = out.setdefault("olap_rank", {}).setdefault(rank, {})
    for name, orientation, kernel in kernels:
        ctx.barrier()
        c0 = ctx.clock
        before = ctx.rt.trace.counters[rank].snapshot()
        with rec.span(ctx, f"workloads.{name}"):
            with rec.span(ctx, "workloads.adjacency_load"):
                adj = load_local_adjacency(ctx, g, orientation)
            fetched = ctx.rt.trace.counters[rank].diff(before)
            c1 = ctx.clock
            result = kernel(adj)
            c2 = ctx.clock
        mine[name] = (c1 - c0, c2 - c0, result)
        mine[f"{name}.fetch"] = (fetched["bytes_got"], adj.n_local_edges)
    ctx.barrier()
    if rank == 0:
        engine = QueryEngine(db)
        q = out["queries"] = {}
        for name, texts, params in (
            (
                "bi2",
                [BI2_TEXT.format(i=i, j=(i + 1) % N_LABELS) for i in range(N_LABELS)],
                BI2_PARAMS,
            ),
            ("groupby", [GROUPBY_TEXT.format(i=i) for i in range(N_LABELS)], None),
        ):
            c0 = ctx.clock
            plan_h = exec_h = 0.0
            rows = []
            with rec.span(ctx, f"query.{name}"):
                for text in texts:
                    h0 = perf_counter()
                    with rec.span(ctx, "query.plan"):
                        engine.prepare(ctx, text)
                    h1 = perf_counter()
                    with rec.span(ctx, "query.exec"):
                        rows.append(engine.run(ctx, text, params=params).scalar())
                    exec_h += perf_counter() - h1
                    plan_h += h1 - h0
            q[name] = {
                "sim": ctx.clock - c0, "rows": rows, "plan_host": plan_h,
                "exec_host": exec_h, "plans": len(texts),
            }
            if rec.enabled:
                # rows examined per row returned, from the engine's PROFILE
                examined = returned = 0
                for text in texts:
                    res = engine.run(ctx, "PROFILE " + text, params=params)
                    examined += sum(int(m) for m in _ROWS.findall(res.plan_text))
                    returned += len(res.rows)
                q[name]["rows_per_result"] = _ratio(examined, returned)
    ctx.barrier()
    return None


def _oltp_rank(ctx, ops: list[tuple], rec, out: dict):
    ctx = rec.wrap(ctx)
    db, g = out["db"], out["graph"]
    p_ts = g.ptypes["p_ts"]
    label = g.edge_label(0)
    rank = ctx.rank
    span = rec.span

    def execute(tx, desc, opid) -> None:
        op = desc[0]
        if op is OpType.ADD_VERTEX:
            with span(ctx, "gda.txn.write", opid):
                tx.create_vertex(desc[1], properties=[(p_ts, 0)])
            return
        with span(ctx, "gda.txn.find", opid):
            v = tx.find_vertex(desc[1])
        if v is None:
            return
        if op is OpType.GET_PROPS:
            with span(ctx, "gda.txn.read", opid):
                v.property(p_ts)
        elif op is OpType.COUNT_EDGES:
            with span(ctx, "gda.txn.edges", opid):
                v.degree()
        elif op is OpType.GET_EDGES:
            with span(ctx, "gda.txn.edges", opid):
                for e in v.edges(EdgeOrientation.OUTGOING):
                    e.endpoints()
        elif op is OpType.DEL_VERTEX:
            with span(ctx, "gda.txn.write", opid):
                tx.delete_vertex(v)
        elif op is OpType.UPD_PROP:
            with span(ctx, "gda.txn.write", opid):
                v.set_property(p_ts, desc[2])
        elif op is OpType.ADD_EDGE:
            with span(ctx, "gda.txn.find", opid):
                w = tx.find_vertex(desc[2])
            if w is not None and v.vid != w.vid:
                with span(ctx, "gda.txn.write", opid):
                    tx.create_edge(v, w, label=label)

    latencies: dict[str, list[float]] = defaultdict(list)
    failed: Counter = Counter()
    start = ctx.rt.effective_clock(rank)
    for i, desc in enumerate(ops):
        opid = f"{rank}/{i}"

        def body(tx, desc=desc, opid=opid):
            try:
                execute(tx, desc, opid)
            except GdiNotFound:
                pass  # the vertex vanished under a concurrent delete
            with span(ctx, "gda.txn.commit", opid):
                tx.commit()

        c0 = ctx.clock
        try:
            with span(ctx, "gda.txn.op", opid):
                run_transaction(
                    ctx, db, body, write=desc[0].is_update, policy=OLTP_RETRY
                )
        except (GdiTransactionCritical, RmaTransientError):
            failed[desc[0].value] += 1
        latencies[desc[0].value].append(ctx.clock - c0)
    out.setdefault("oltp_rank", {})[rank] = (
        latencies, failed, ctx.rt.effective_clock(rank) - start
    )
    return None


def _serve(ctx, requests: list[tuple], rec, out: dict):
    ctx = rec.wrap(ctx)
    server: GraphServer = out["server"]
    if ctx.rank == 1:
        with rec.span(ctx, "serve.worker"):
            server.serve(ctx)
        return None
    if ctx.rank != 0:
        return None
    session = ClientSession(server, tenant="bench")
    cond = threading.Condition()
    pending = [0]
    worker_counters = ctx.rt.trace.counters[1]
    reads_seen = [worker_counters.snapshot_reads]
    done_info: dict[str, tuple] = {}

    def on_done(req) -> None:
        # one worker serves in admission order, so the snapshot reads
        # since the previous completion are this request's own
        reads = worker_counters.snapshot_reads
        with cond:
            done_info[req.req_id] = (perf_counter(), reads - reads_seen[0])
            reads_seen[0] = reads
            pending[0] -= 1
            cond.notify_all()

    sent = []
    with rec.span(ctx, "serve.front_end"):
        for ri, kind, text, params, due in requests:
            # hold the submission back in host time until the worker's
            # virtual clock reaches its due time: the real queue then
            # holds the simulated backlog and never sheds what the
            # simulated load would admit
            with cond:
                while pending[0] and due > server.virtual_now():
                    cond.wait(0.05)
                pending[0] += 1
            h0 = perf_counter()
            req, _ = session.submit(
                ctx, text, params=params,
                qclass=ANALYTICS if kind == "scan" else OLTP,
                arrival=due, on_done=on_done,
            )
            sent.append((ri, kind, params, req, h0))
        for *_, req, _h0 in sent:
            req.wait_done()
    server.close()
    out["serve_sent"] = sent
    out["serve_done"] = done_info
    return None


def _check(ctx, written: list[int], out: dict):
    db, g = out["db"], out["graph"]
    adj = load_local_adjacency(ctx, g, EdgeOrientation.OUTGOING)
    out.setdefault("final_adj", {})[ctx.rank] = adj.neighbors
    report = check_consistency(ctx, db)
    if ctx.rank == 0:
        out["consistency"] = report.problems
        p_score = g.ptypes["p_score"]
        tx = db.start_transaction(ctx)
        scores = {}
        for app in written:
            v = tx.find_vertex(app)
            scores[app] = None if v is None else v.property(p_score)
        tx.commit()
        out["final_scores"] = scores
    ctx.barrier()
    return None


# ---------------------------------------------------------------- round --
@dataclass
class RoundResult:
    metrics: dict[str, float]
    layers: dict[str, float]
    #: op type -> [attempted, failed]
    ops: dict[str, list[int]]
    samples: dict[str, int]
    #: wall seconds of each phase, checks included, with the measured
    #: phases' CPU seconds and the host's speed over them
    phase_host_s: dict[str, float]
    problems: list[str]
    self_times: dict | None = None
    recorder: SpanRecorder | None = None


def run_round(wl: Workload, seed: int, traced: bool, speed: HostSpeed) -> RoundResult:
    """Run every phase of ``wl`` once on fresh inputs from ``seed``.

    ``setup_s`` and ``run_host_s`` are process CPU seconds normalised by
    ``speed`` to the reference CPU (see ``gdibench/hostspeed.py``).
    """
    # the previous round's machine is garbage now: free it before this
    # round allocates, so peak memory does not grow with the round count
    gc.collect()
    rec = SpanRecorder() if traced else NULL_RECORDER
    out: dict = {}
    problems: list[str] = []
    ops: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    P = wl.nranks

    # -- inputs and expected outputs ----------------------------------
    relabel, hub, shape_edges = numbering(wl, seed)
    n = len(relabel)
    edges = np.unique(relabel[shape_edges], axis=0)
    root = int(relabel[hub])
    streams = [
        draw_oltp_ops(STREAM_SEED, r, wl.oltp_ops_per_rank, relabel)
        for r in range(wl.oltp_ranks)
    ]
    ref = reference(n, edges, root, streams)
    # surviving generated vertices, in position order, so the request
    # stream picks the same positions whatever the numbering
    position = np.argsort(relabel)
    keys = [int(relabel[p]) for p in sorted(position[v] for v in ref["alive"] if v < n)]
    requests = draw_requests(STREAM_SEED, wl.serve_rates, wl.serve_requests_per_rate, keys)
    del shape_edges, edges, position, keys

    # -- setup ---------------------------------------------------------
    h_setup = perf_counter()
    c0 = process_time()
    # a seeded workload loads under the seeded scheduler too: a free
    # load leaves a layout that depends on host timing, and the same
    # seeded OLTP phase then took 1801-1873 lock conflicts over three
    # runs instead of the same 1841 every time
    rt = RmaRuntime(
        P, profile=PROFILE,
        scheduler=InterleavingScheduler(seed) if wl.seeded_oltp else None,
    )
    run_spmd(P, lambda ctx: _setup(ctx, wl, relabel, rec, out), runtime=rt)
    rt.scheduler = None
    h_setup_end = perf_counter()
    setup_s = speed.normalise(process_time() - c0, h_setup, h_setup_end)
    db, g = out["db"], out["graph"]
    blocks = sum(db.blocks.allocated_count(rt.context(0), r) for r in range(P))
    gen_host = out["gen_host"].values()

    # -- olap ----------------------------------------------------------
    c_before = _counters(rt)
    h_olap = perf_counter()
    c0 = process_time()
    run_spmd(P, lambda ctx: _olap(ctx, wl, root, rec, out), runtime=rt)
    h_olap_end = perf_counter()
    cpu_olap = process_time() - c0
    d_olap = _diff(_counters(rt), c_before)
    per_rank = out["olap_rank"]
    kernel_us = {
        k: max(per_rank[r][k][1] for r in range(P)) * 1e6
        for k in ("bfs", "pagerank", "wcc")
    }
    load_us = sum(max(per_rank[r][k][0] for r in range(P)) for k in kernel_us) * 1e6
    fetched_bytes = sum(
        per_rank[r][f"{k}.fetch"][0] for r in range(P) for k in kernel_us
    )
    fetched_edges = sum(
        per_rank[r][f"{k}.fetch"][1] for r in range(P) for k in kernel_us
    )
    queries = out["queries"]
    for name in ("bfs", "pagerank", "wcc", "bi2", "groupby"):
        ops[name][0] += 1

    # -- oltp ----------------------------------------------------------
    if wl.seeded_oltp:
        rt.scheduler = rec.scheduler(seed)
    stats0 = db.total_stats()
    service0 = list(rt.service)
    c_before = _counters(rt)
    h_oltp = perf_counter()
    c0 = process_time()
    run_spmd(
        P,
        lambda ctx: _oltp_rank(ctx, streams[ctx.rank], rec, out)
        if ctx.rank < wl.oltp_ranks else None,
        runtime=rt,
    )
    h_oltp_end = perf_counter()
    cpu_oltp = process_time() - c0
    rt.scheduler = None
    d_oltp = _diff(_counters(rt), c_before)
    stats1 = db.total_stats()
    nic_busy = max(b - a for a, b in zip(service0, rt.service))
    op_lat: list[float] = []
    makespan = 0.0
    n_failed = 0
    for r, (lat, failed, elapsed) in out["oltp_rank"].items():
        makespan = max(makespan, elapsed)
        for kind, values in lat.items():
            op_lat += values
            ops[kind][0] += len(values)
            ops[kind][1] += failed[kind]
            n_failed += failed[kind]
    n_oltp = len(op_lat)
    if n_failed:
        problems.append(f"oltp: {n_failed} operations failed")

    # -- serve ---------------------------------------------------------
    out["server"] = GraphServer(
        db, QueryEngine(db), ServeConfig(queue_capacity=QUEUE_CAPACITY)
    )
    c_before = _counters(rt)
    h_serve = perf_counter()
    c0 = process_time()
    run_spmd(P, lambda ctx: _serve(ctx, requests, rec, out), runtime=rt)
    h_serve_end = perf_counter()
    cpu_serve = process_time() - c0
    # the high-water mark of the measured phases, before the checks
    # (clean in a run's first round only: see run.py)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    d_serve = _diff(_counters(rt), c_before)
    # whole-round totals: versions installed by the load's commits are
    # reclaimed during the later phases
    d_round = _counters(rt)
    server = out["server"]
    sent = out["serve_sent"]
    done = out["serve_done"]
    run_host_s = (
        speed.normalise(cpu_olap, h_olap, h_olap_end)
        + speed.normalise(cpu_oltp, h_oltp, h_oltp_end)
        + speed.normalise(cpu_serve, h_serve, h_serve_end)
    )

    # -- final state, read back for the checks ------------------------
    last_write: dict[int, float] = {}
    for ri, kind, params, req, _ in sent:
        if kind == "write" and req.status == OK:
            last_write[params["src"]] = params["score"]
    h_check = perf_counter()
    run_spmd(P, lambda ctx: _check(ctx, sorted(last_write), out), runtime=rt)

    # -- metrics -------------------------------------------------------
    lat_rate: dict[int, list[float]] = defaultdict(list)
    scan_lat: list[float] = []
    waits: list[float] = []
    service: dict[str, list[float]] = defaultdict(list)
    scan_reads: list[int] = []
    writes_ok = 0
    not_ok: Counter = Counter()
    for ri, kind, params, req, h0 in sent:
        ops[f"serve.{kind}"][0] += 1
        if req.status != OK:
            # a shed or failed request leaves the latency samples, so the
            # round fails rather than report the survivors' latencies
            ops[f"serve.{kind}"][1] += 1
            not_ok[kind, req.status] += 1
            continue
        service[kind].append(req.service)
        if kind == "scan":
            scan_lat.append(req.latency)
            scan_reads.append(done[req.req_id][1])
        else:
            lat_rate[ri].append(req.latency)
            waits.append(req.queue_wait)
        writes_ok += kind == "write"
        if rec.enabled:
            rec.add(0, "serve.request", req.req_id, h0, done[req.req_id][0],
                    req.arrival, req.completion)
    problems += [
        f"serve: {k} {kind} requests ended {status}"
        for (kind, status), k in sorted(not_ok.items())
    ]
    low, peak = lat_rate[0], lat_rate[1]
    metrics = {
        "setup_s": setup_s,
        "run_host_s": run_host_s,
        "peak_rss_mb": peak_rss_mb,
        "bytes_per_edge": _ratio(blocks * db.config.block_size, g.n_edges_loaded),
        "op_mean_us": _mean(op_lat) * 1e6,
        "op_p99_us": percentile(op_lat, 99) * 1e6,
        "sim_kops_s": _ratio(n_oltp - n_failed, makespan) / 1e3,
        "bfs_us": kernel_us["bfs"],
        "pagerank_us": kernel_us["pagerank"],
        "wcc_us": kernel_us["wcc"],
        "bi2_us": queries["bi2"]["sim"] * 1e6,
        "groupby_us": queries["groupby"]["sim"] * 1e6,
        "req_mean_us": _mean(low) * 1e6,
        "req_p99_us": percentile(low, 99) * 1e6,
        "req_p99_us.peak": percentile(peak, 99) * 1e6,
        "scan_req_p50_us": _median(scan_lat) * 1e6,
    }
    # offered utilisation of the worker at each rate: service demand over
    # the span of due times (the rates are fixed; this shows the load)
    utilisation = []
    for ri in (0, 1):
        part = [req for r, *_, req, _ in sent if r == ri]
        span = part[-1].arrival - part[0].arrival
        utilisation.append(_ratio(sum(req.service for req in part), span))
    samples = {
        "op_latency": n_oltp, "req_latency.low": len(low),
        "req_latency.peak": len(peak), "scan_latency": len(scan_lat),
        "queue_wait": len(waits),
        "serve_utilisation": utilisation,
    }

    mvcc = db.mvcc
    layers = {
        "generator.edges_host_s": max(e for e, _ in gen_host),
        "generator.bulk_load_host_s": max(b for _, b in gen_host),
        "rma.ops_per_op": _ratio(d_oltp["puts"] + d_oltp["gets"] + d_oltp["atomics"], n_oltp),
        "rma.atomics_per_op": _ratio(d_oltp["atomics"], n_oltp),
        "rma.bytes_per_op": _ratio(d_oltp["bytes_put"] + d_oltp["bytes_got"], n_oltp),
        "rma.nic_busy_us.max": nic_busy * 1e6,
        "rma.bytes_per_edge_fetched": _ratio(fetched_bytes, fetched_edges),
        "rma.coalesce_ratio": _ratio(d_olap["msgs_saved"], d_olap["batched_ops"]),
        "rma.collectives.calls": d_olap["collectives"],
        "gda.txn.restarts_per_ktx": _ratio(stats1.restarts - stats0.restarts, n_oltp / 1e3),
        "gda.txn.commit_ratio": _ratio(
            stats1.committed - stats0.committed, stats1.started - stats0.started
        ),
        "gda.locks.conflicts_per_kop": _ratio(d_oltp["lock_conflicts"], n_oltp / 1e3),
        "gda.locks.backoff_sim_us": d_oltp["backoff_time"] * 1e6,
        "gda.replication.mirrored_bytes_per_commit": _ratio(
            d_oltp["mirrored_bytes"], stats1.committed - stats0.committed
        ),
        "gda.blocks_allocated": blocks,
        "mvcc.versions_per_write": _ratio(d_serve["versions_installed"], writes_ok),
        "mvcc.snapshot_reads_per_scan": _ratio(sum(scan_reads), len(scan_reads)),
        "mvcc.reclaim_ratio": _ratio(d_round["versions_reclaimed"], d_round["versions_installed"]),
        "mvcc.chain_entries_end": mvcc.versions.total_entries() if mvcc else 0,
        "query.plan_host_us": _ratio(
            queries["bi2"]["plan_host"] + queries["groupby"]["plan_host"],
            queries["bi2"]["plans"] + queries["groupby"]["plans"],
        ) * 1e6,
        "query.plan_cache_hit_ratio": _ratio(
            d_serve["plan_cache_hits"],
            d_serve["plan_cache_hits"] + d_serve["plan_cache_misses"],
        ),
        "query.exec_host_ms.groupby": queries["groupby"]["exec_host"] * 1e3,
        "serve.queue_wait_us.p50": percentile(waits, 50) * 1e6,
        "serve.queue_wait_us.p99": percentile(waits, 99) * 1e6,
        "serve.queue_depth_peak": server.queue.peak_depth,
        "serve.host_us_per_req": _ratio(h_serve_end - h_serve, len(sent)) * 1e6,
        "workloads.adjacency_load_sim_us": load_us,
        "workloads.kernel_compute_sim_us": sum(kernel_us.values()) - load_us,
    }
    for kind in ("point", "onehop", "write", "scan"):
        layers[f"serve.service_us.{kind}"] = _median(service[kind]) * 1e6
    self_times = None
    if rec.enabled:
        self_times = rec.self_times()
        layers.update(_span_layers(rec, self_times, wl, queries, (h_olap, h_olap_end)))

    # -- checks --------------------------------------------------------
    # the comparisons run once the round's machine is freed
    del db, g, server, mvcc, rt
    out.pop("db"), out.pop("graph"), out.pop("server")
    gc.collect()
    problems += _check_olap(wl, n, per_rank, queries, ref)
    problems += _check_oltp(out, ref)
    problems += _check_serve(sent, ref["edges"], last_write, out["final_scores"])
    phase_host_s = {
        "setup": h_setup_end - h_setup, "olap": h_olap_end - h_olap,
        "oltp": h_oltp_end - h_oltp, "serve": h_serve_end - h_serve,
        "checks": perf_counter() - h_check,
        # process CPU seconds of the three measured phases, and the mean
        # cost of the sampler's slice over them in ms: their ratio
        # against the reference slice gives run_host_s
        "measured_cpu": cpu_olap + cpu_oltp + cpu_serve,
        "slice_ms": speed.slice_cost(h_olap, h_serve_end) * 1e3,
    }
    return RoundResult(
        metrics=metrics, layers=layers,
        ops={k: list(v) for k, v in ops.items()}, samples=samples,
        phase_host_s=phase_host_s,
        problems=problems, self_times=self_times,
        recorder=rec if rec.enabled else None,
    )


def _span_layers(
    rec: SpanRecorder, self_times: dict, wl: Workload, queries: dict, olap_window
) -> dict:
    """Per-layer metrics that only the traced round's spans can give."""
    commits = rec.durations("gda.txn.commit")
    coll_bytes, coll_sim, coll_host = rec.collectives_between(*olap_window)
    return {
        "rma.host_us_per_rma_op": _ratio(
            self_times["rma"]["host_s"], rec.onesided_calls()
        ) * 1e6,
        "rma.executor.steps": sum(v[0] for v in rec.sched.values()),
        "rma.executor.step_wait_host_s": sum(v[1] for v in rec.sched.values()),
        "rma.collectives.bytes": coll_bytes,
        "rma.collectives.sim_us": coll_sim / wl.nranks * 1e6,
        "rma.collectives.host_s": coll_host / wl.nranks,
        # means, not medians: the metric is work per call, and a mean
        # keeps the rare large-holder calls a median would hide
        "gda.txn.find_sim_us": _mean(rec.durations("gda.txn.find")) * 1e6,
        "gda.txn.edges_sim_us": _mean(rec.durations("gda.txn.edges")) * 1e6,
        "gda.txn.write_sim_us": _mean(rec.durations("gda.txn.write")) * 1e6,
        "gda.txn.commit_sim_us.p50": percentile(commits, 50) * 1e6,
        "gda.txn.commit_sim_us.p99": percentile(commits, 99) * 1e6,
        "gda.txn.commit_host_us": _mean(rec.durations("gda.txn.commit", host=True)) * 1e6,
        "query.rows_per_result.groupby": queries["groupby"]["rows_per_result"],
        "query.rows_per_result.bi2": queries["bi2"]["rows_per_result"],
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -------------------------------------------------------------- checks --
def _check_olap(wl, n, per_rank, queries, ref) -> list[str]:
    problems = []
    P = wl.nranks
    depth: dict[int, int] = {}
    comp: dict[int, int] = {}
    pr = np.zeros(n)
    for r in range(P):
        depth.update(per_rank[r]["bfs"][2])
        comp.update(per_rank[r]["wcc"][2])
        for v, x in per_rank[r]["pagerank"][2].items():
            pr[v] = x
    if depth != ref["bfs"]:
        problems.append("bfs: depths differ from networkx")
    groups: dict[int, set] = defaultdict(set)
    for v, c in comp.items():
        groups[c].add(v)
    if {frozenset(s) for s in groups.values()} != ref["wcc"]:
        problems.append("wcc: partition differs from networkx")
    err = float(np.max(np.abs(pr - ref["pagerank"])))
    if err > 1e-9:
        problems.append(f"pagerank: max difference {err:.3g} from numpy")
    if queries["bi2"]["rows"] != ref["bi2"]:
        problems.append(f"bi2: engine {queries['bi2']['rows']} != {ref['bi2']}")
    if queries["groupby"]["rows"] != ref["groupby"]:
        problems.append("groupby: counts per label differ from the schema")
    return problems


def _check_oltp(out, ref) -> list[str]:
    alive, expected_edges = ref["alive"], ref["edges"]
    problems = [f"consistency: {p}" for p in out["consistency"][:5]]
    final: dict[int, list[int]] = {}
    for part in out["final_adj"].values():
        final.update(part)
    if set(final) != alive:
        problems.append(
            f"oltp: {len(set(final) ^ alive)} vertices differ from "
            "initial + created - deleted"
        )
    actual = Counter((u, v) for u, nbrs in final.items() for v in nbrs)
    if actual != expected_edges:
        problems.append(
            f"oltp: edge multiset differs ({sum((actual - expected_edges).values())}"
            f" extra, {sum((expected_edges - actual).values())} missing)"
        )
    return problems


def _check_serve(sent, expected_edges, last_write, final_scores) -> list[str]:
    out_nbrs: dict[int, list[int]] = defaultdict(list)
    for (u, v), k in expected_edges.items():
        out_nbrs[u] += [v] * k
    bad: Counter = Counter()
    for ri, kind, params, req, _ in sent:
        if req.status != OK:
            continue
        if kind == "point" and req.rows != [(params["src"],)]:
            bad["point"] += 1
        elif kind == "onehop" and sorted(r[0] for r in req.rows) != sorted(
            out_nbrs.get(params["src"], [])
        ):
            bad["onehop"] += 1
    for app, score in last_write.items():
        if final_scores.get(app) != score:
            bad["write"] += 1
    return [f"serve: {n} {kind} results wrong" for kind, n in sorted(bad.items())]
