"""Routing of BV oracles onto sparse coupling graphs by ancilla swapping.

Instead of swapping marked data qubits toward a fixed ancilla, the ancilla
walks the graph.  A walk step onto a marked node fuses the oracle CNOT with
the SWAP (CNOT12*SWAP12 = CNOT21*CNOT12) and costs 2 CNOTs; a marked node
adjacent to the walk gets its CNOT directly for 1.  The embedding search
also chooses where the k marked qubits sit: every walk step lands on one
and the rest sit next to the walk, so a walk of s steps costs k + s CNOTs
and the search minimizes s.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import DT_SECONDS, GateEvent, GateKind, TimedCircuit, read_fields
from .oracles import OracleSpec, ReadoutMap

# Node expansions the branch-and-bound may make; past them it keeps the
# best walk found so far.
EXACT_SEARCH_BUDGET = 2_000_000


class RoutingInfeasible(Exception):
    """No embedding exists for the requested instance."""


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected qubit-coupling graph with an optional blacklist of
    faulty nodes; routing only ever sees the blacklist-filtered subgraph."""

    num_physical: int
    edges: frozenset[tuple[int, int]]
    blacklist: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        edges = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "blacklist", frozenset(self.blacklist))
        for a, b in edges:
            if not (0 <= a < self.num_physical and 0 <= b < self.num_physical):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a == b:
                raise ValueError(f"self-loop on node {a}")
        for q in self.blacklist:
            if not 0 <= q < self.num_physical:
                raise ValueError(f"blacklisted node {q} out of range")

    @property
    def usable(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.num_physical) if q not in self.blacklist)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {q: set() for q in self.usable}
        for a, b in self.edges:
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        return adj

    def is_edge(self, a: int, b: int) -> bool:
        return tuple(sorted((a, b))) in self.edges and \
            a not in self.blacklist and b not in self.blacklist

    def with_blacklist(self, nodes) -> CouplingGraph:
        return CouplingGraph(self.num_physical, self.edges,
                             self.blacklist | frozenset(nodes))


# Canonical 27-node heavy-hex coupling list (Falcon layout): three rows of
# degree<=3 nodes bridged by four rung qubits.
_HEAVY_HEX_27_EDGES = (
    (0, 1), (1, 2), (2, 3), (1, 4), (3, 5), (4, 7), (5, 8), (6, 7), (7, 10),
    (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
    (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22),
    (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)


def heavy_hex_27() -> CouplingGraph:
    """The canonical 27-qubit heavy-hex coupling graph, empty blacklist."""
    return CouplingGraph(27, frozenset(_HEAVY_HEX_27_EDGES))


def chain_graph(num_nodes: int) -> CouplingGraph:
    return CouplingGraph(num_nodes, frozenset((i, i + 1) for i in range(num_nodes - 1)))


def complete_graph(num_nodes: int) -> CouplingGraph:
    return CouplingGraph(num_nodes, frozenset(
        (i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)))


def layout_from_name(name: str, min_nodes: int) -> CouplingGraph:
    """Resolve a --layout value: chain of min_nodes (>= 2), heavy-hex-27, file:<path>."""
    if name == "heavy-hex-27":
        return heavy_hex_27()
    if name == "chain":
        return chain_graph(max(min_nodes, 2))
    if name.startswith("file:"):
        return load_graph(name[5:])
    raise ValueError(f"unknown layout {name!r}")


@dataclass(frozen=True)
class Embedding:
    """Placement of one oracle instance: the ancilla's walk through the
    graph, which marked logical qubits are covered by direct CNOTs, and
    where every participating logical qubit initially sits."""

    ancilla_walk: tuple[int, ...]
    direct_hits: frozenset[int]
    logical_to_physical: dict[int, int]

    @property
    def start(self) -> int:
        return self.ancilla_walk[0]

    @property
    def walk_steps(self) -> int:
        return len(self.ancilla_walk) - 1


@dataclass(frozen=True)
class RoutedCircuit:
    """Physically routed, duration-stamped circuit plus bookkeeping needed
    to undo the net SWAP permutation at readout."""

    circuit: TimedCircuit
    cnot_count: int
    readout: ReadoutMap                # logical data index -> wire
    wire_of_physical: dict[int, int]
    embedding: Embedding


@dataclass
class _SearchResult:
    walk: list[int]
    hits: list[int]          # physical nodes covered by direct CNOTs
    cover_order: list[int]   # physical homes of marked qubits in CNOT order


def _free_placement_search(adj: dict[int, set[int]], k: int,
                           starts: list[int], budget: int) -> _SearchResult | None:
    """Branch-and-bound over simple walks, placement of marked qubits free.

    A walk with s fresh steps and c off-walk neighbors covers up to s + c
    marked qubits at cost k + s, so the search minimizes s subject to
    s + c >= k.  Deterministic: sorted expansion, lowest-index tie-breaks,
    and a fixed node-expansion budget, past which the best walk found so
    far is kept.  Depth-first with an explicit stack, so a walk of any
    length fits: ``untried[i]`` iterates, in sorted order, over the next
    nodes not yet tried after ``path[i]``.
    """
    best_cost, best_walk = None, None
    expansions = 0
    for start in starts:
        path, pathset, untried = [start], {start}, []
        while True:
            expansions += 1
            s = len(path) - 1
            nexts = iter(())
            if expansions <= budget and (best_cost is None or k + s < best_cost):
                reach: set[int] = set()
                for p in path:
                    reach |= adj[p]
                if s + len(reach - pathset) >= k:
                    best_cost, best_walk = k + s, list(path)
                else:
                    nexts = iter(sorted(adj[path[-1]] - pathset))
            untried.append(nexts)
            nxt = None
            while untried:
                nxt = next(untried[-1], None)
                if nxt is not None:
                    break
                untried.pop()
                pathset.remove(path.pop())
            if nxt is None:
                break
            path.append(nxt)
            pathset.add(nxt)
    if best_walk is None:
        return None
    return _assemble_free(adj, k, best_walk)


def _assemble_free(adj: dict[int, set[int]], k: int, walk: list[int]) -> _SearchResult:
    """Turn a winning walk into hits and a deterministic coverage order."""
    pathset = set(walk)
    n_hits = k - (len(walk) - 1)
    hits: list[int] = []
    cover: list[int] = []
    hit_pool = set()
    for node in walk:
        hit_pool |= adj[node]
    hit_pool -= pathset
    taken: set[int] = set()
    for idx, node in enumerate(walk):
        for cand in sorted(adj[node] & hit_pool - taken):
            if len(hits) < n_hits:
                hits.append(cand)
                taken.add(cand)
                cover.append(cand)
        if idx + 1 < len(walk):
            cover.append(walk[idx + 1])
    return _SearchResult(walk, hits, cover)


def embed_oracle(spec: OracleSpec, graph: CouplingGraph) -> Embedding:
    """Find a low-CNOT embedding of the oracle's k marked qubits; where they
    sit is part of the search.

    Branch-and-bound finds the optimum within EXACT_SEARCH_BUDGET
    expansions, on any graph size.  The marked logical qubits of b take the
    covered nodes in CNOT order.
    """
    k, usable = spec.k, graph.usable
    if k > len(usable) - 1:
        raise RoutingInfeasible(f"k={k} exceeds usable nodes - 1 = {len(usable) - 1}")
    result = _free_placement_search(graph.adjacency(), k, list(usable),
                                    EXACT_SEARCH_BUDGET)
    if result is None:
        raise RoutingInfeasible(
            f"no walk reaches {k} marked qubits within the search budget")
    if len(spec.marked) != len(result.cover_order):
        raise RoutingInfeasible(
            f"embedding covers {len(result.cover_order)} qubits, need {k}")
    l2p = dict(zip(spec.marked, result.cover_order))
    hitset = set(result.hits)
    direct = frozenset(lq for lq, node in l2p.items() if node in hitset)
    return Embedding(tuple(result.walk), direct, l2p)


def embedding_cnot_count(embedding: Embedding) -> int:
    """CNOTs route_bv will emit: 1 per direct hit, 2 per fused walk step."""
    return len(embedding.direct_hits) + 2 * embedding.walk_steps


def naive_cnot_count(embedding: Embedding, spec: OracleSpec) -> int:
    """CNOT count had every walk step been a plain 3-CNOT SWAP."""
    return spec.k + 3 * embedding.walk_steps


def route_bv(spec: OracleSpec, graph: CouplingGraph, embedding: Embedding,
             device=None, *, standard: bool = False) -> RoutedCircuit:
    """Emit the routed, duration-stamped circuit for one oracle.

    Gates are scheduled as early as possible except the final Hadamard
    layer, which is anchored at the common end right before readout (as on
    hardware, where all qubits are measured together).  ``standard=True``
    places unmarked data qubits on spare nodes with cancelling H pairs;
    the default reduced setup omits them.
    """
    d1, d2, ro, dt = ((device.dur_1q, device.dur_2q, device.dur_readout, device.dt)
                      if device else (1, 1, 0, DT_SECONDS))

    walk = embedding.ancilla_walk
    adjcheck = graph.adjacency()
    for a, b in zip(walk, walk[1:]):
        if b not in adjcheck.get(a, ()):
            raise RoutingInfeasible(f"walk step {a}->{b} is not an edge")

    l2p = dict(embedding.logical_to_physical)
    marked = set(spec.marked)
    if marked - set(l2p):
        raise RoutingInfeasible(f"marked qubits {sorted(marked - set(l2p))} not embedded")

    # occupancy: physical node -> logical data id (or 'anc')
    occupant: dict[int, object] = {l2p[lq]: lq for lq in l2p}
    if embedding.start in occupant:
        raise RoutingInfeasible("ancilla start collides with a data qubit")
    occupant[embedding.start] = "anc"

    if standard:
        spares = [q for q in graph.usable if q not in occupant and q not in walk]
        unmarked = [lq for lq in range(spec.n) if lq not in marked and lq not in l2p]
        if len(unmarked) > len(spares):
            raise RoutingInfeasible("not enough spare nodes for the standard setup")
        for lq, node in zip(unmarked, spares):
            l2p[lq] = node
            occupant[node] = lq

    nodes = sorted(set(occupant) | set(walk))
    wire_of = {node: w for w, node in enumerate(nodes)}
    num_wires = len(nodes)
    frontier = [0] * num_wires
    events: list[GateEvent] = []

    def emit(kind: GateKind, wires: tuple[int, ...], duration: int, phase: float = 0.0):
        start = max(frontier[w] for w in wires)
        events.append(GateEvent(kind, wires, start, duration, phase))
        for w in wires:
            frontier[w] = start + duration

    anc_wire = wire_of[embedding.start]
    emit(GateKind.X, (anc_wire,), d1)
    for w in range(num_wires):  # aligned initial H layer
        events.append(GateEvent(GateKind.H, (w,), d1, d1))
        frontier[w] = max(frontier[w], 2 * d1)

    hits_remaining = {l2p[lq] for lq in embedding.direct_hits}
    covered: set[int] = set()

    def harvest(at_node: int) -> None:
        for nb in sorted(adjcheck[at_node] & hits_remaining):
            emit(GateKind.CNOT, (wire_of[nb], wire_of[at_node]), d2)
            hits_remaining.discard(nb)
            covered.add(nb)

    pos = embedding.start
    harvest(pos)
    for nxt in walk[1:]:
        wu, wv = wire_of[pos], wire_of[nxt]
        here = occupant.get(nxt)
        if here not in marked or nxt in covered:
            raise RoutingInfeasible(
                f"walk step {pos}->{nxt} lands on no uncovered marked qubit")
        emit(GateKind.CNOT, (wu, wv), d2)  # fused CNOT+SWAP
        emit(GateKind.CNOT, (wv, wu), d2)
        covered.add(nxt)
        occupant[pos], occupant[nxt] = here, occupant[pos]
        pos = nxt
        harvest(pos)

    if hits_remaining:
        raise RoutingInfeasible(
            f"direct hits {sorted(hits_remaining)} never adjacent to the walk")
    uncovered = {l2p[lq] for lq in marked} - covered
    if uncovered:
        raise RoutingInfeasible(f"marked nodes {sorted(uncovered)} never covered")

    # final H layer anchored at the common end, then measurement window
    t_end = max(frontier)
    for w in range(num_wires):
        events.append(GateEvent(GateKind.H, (w,), t_end, d1))

    circuit = TimedCircuit(num_wires, tuple(events), ro, dt)
    cnots = sum(1 for ev in events if ev.kind is GateKind.CNOT)

    wire_of_logical: list[int | None] = [None] * spec.n
    for node, lq in occupant.items():
        if lq != "anc":
            wire_of_logical[lq] = wire_of[node]
    readout = ReadoutMap(tuple(wire_of_logical))
    return RoutedCircuit(circuit, cnots, readout, wire_of, embedding)


def cnot_scaling(graph: CouplingGraph, n_range) -> tuple[float, dict[int, int]]:
    """Least-squares slope of cnot_count(n) for b = 1^n over n_range."""
    counts: dict[int, int] = {}
    for n in n_range:
        spec = OracleSpec.representative(n, n)
        emb = embed_oracle(spec, graph)
        counts[n] = embedding_cnot_count(emb)
    ns = np.array(sorted(counts), dtype=float)
    cs = np.array([counts[int(n)] for n in ns], dtype=float)
    slope = float(np.polyfit(ns, cs, 1)[0])
    return slope, counts


def _signs_after_cnots(routed: RoutedCircuit) -> dict[int, int]:
    """Propagate X-basis signs through the CNOT network.

    Data wires start in |+>, the ancilla wire in |->.  In the X basis a
    CNOT acts reversed: the control picks up the target's sign.  Returns
    the final sign bit per wire (1 means |->, i.e. measured 1 after H).
    """
    minus = {w: 0 for w in range(routed.circuit.num_qubits)}
    anc_wire = routed.wire_of_physical[routed.embedding.start]
    minus[anc_wire] = 1
    for ev in sorted(routed.circuit.events, key=lambda e: (e.start, e.qubits)):
        if ev.kind is GateKind.CNOT:
            c, t = ev.qubits
            minus[c] ^= minus[t]
    return minus


def verify_routed(routed: RoutedCircuit, spec: OracleSpec) -> bool:
    """True iff the routed circuit outputs b with certainty when noiseless.

    Runs the X-basis sign propagation over the CNOT algebra, then
    cross-checks with ``noiseless_output``, the exact backend on per-wire
    density factors run over the full event stream, at every size.
    """
    signs = _signs_after_cnots(routed)
    for lq in range(spec.n):
        w = routed.readout.wire_of_logical[lq]
        expect = spec.b[lq]
        got = 0 if w is None else signs[w]
        if got != expect:
            return False

    from .simulator import noiseless_output  # deferred: avoids import cycle
    dist = noiseless_output(routed.circuit, routed.readout)
    top, p = max(dist.items(), key=lambda kv: kv[1])
    return top == spec.b.to01() and p >= 1.0 - 1e-9


# -- graph files ---------------------------------------------------------------

_HEADER = "# ssbv graph v1"


def graph_to_text(graph: CouplingGraph) -> str:
    lines = [_HEADER, f"num_physical {graph.num_physical}",
             f"edges {len(graph.edges)}"]
    for a, b in sorted(graph.edges):
        lines.append(f"{a} {b}")
    lines.append(f"blacklist {len(graph.blacklist)}")
    if graph.blacklist:
        lines.append(" ".join(str(q) for q in sorted(graph.blacklist)))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> CouplingGraph:
    head, records = read_fields(text, {"num_physical": int, "edges": int},
                                records=True)
    n_edges = head["edges"]
    edges = frozenset(_nodes(lineno, ln, 2) for lineno, ln in records[:n_edges])
    tail, rest = read_fields(records[n_edges:], {"blacklist": int}, records=True)
    if len(rest) != bool(tail["blacklist"]):
        raise ValueError(f"expected {tail['blacklist']} blacklisted nodes on one line")
    blacklist = _nodes(*rest[0], tail["blacklist"]) if rest else ()
    return CouplingGraph(head["num_physical"], edges, frozenset(blacklist))


def _nodes(lineno: int, ln: str, count: int) -> tuple[int, ...]:
    row = ln.split()
    if len(row) != count or not all(tok.isdecimal() for tok in row):
        raise ValueError(f"line {lineno}: expected {count} node numbers, got {ln!r}")
    return tuple(int(tok) for tok in row)


def save_graph(graph: CouplingGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_text(graph))


def load_graph(path) -> CouplingGraph:
    with open(path) as fh:
        return graph_from_text(fh.read())
