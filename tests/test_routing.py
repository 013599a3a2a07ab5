import gc
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssbv.circuit import Bitstring, GateKind, validate_circuit
from ssbv.noise import load_profile
from ssbv.oracles import OracleSpec, bv_logical_circuit
from ssbv import routing
from ssbv.routing import (CouplingGraph, Embedding, RoutingInfeasible,
                          chain_graph, cnot_scaling, complete_graph,
                          embed_oracle, embedding_cnot_count, graph_from_text,
                          graph_to_text, heavy_hex_27, layout_from_name,
                          naive_cnot_count, route_bv, _signs_after_cnots,
                          verify_routed)
from ssbv.simulator import noiseless_output

# The 18-step walk through the 27-node layout used as the published-figure
# reference: 44 fused CNOTs at full weight, 80 with plain 3-CNOT SWAPs.
REFERENCE_WALK_26 = (23, 21, 18, 15, 12, 10, 7, 4, 1, 2, 3, 5, 8, 11, 14, 16,
                     19, 22, 25)


def brute_force_min_cost(graph: CouplingGraph, marked: set[int],
                         max_steps: int = 12) -> int:
    """Independent oracle: enumerate walks (revisits allowed) from every
    unmarked start, interleaving single direct-CNOT harvests with steps."""
    adj = graph.adjacency()
    best = [None]

    def explore(pos, cost, covered, steps):
        if best[0] is not None and cost >= best[0]:
            return
        if covered == marked:
            best[0] = cost
            return
        for h in sorted(adj[pos] & (marked - covered)):
            explore(pos, cost + 1, covered | {h}, steps)
        if steps < max_steps:
            for nb in sorted(adj[pos]):
                if nb in marked and nb not in covered:
                    explore(nb, cost + 2, covered | {nb}, steps + 1)
                else:
                    explore(nb, cost + 3, covered, steps + 1)

    for start in sorted(set(graph.usable) - marked):
        explore(start, 0, frozenset(), 0)
    return best[0]


def test_heavy_hex_shape():
    g = heavy_hex_27()
    assert g.num_physical == 27
    assert max(len(nbrs) for nbrs in g.adjacency().values()) == 3
    assert len(g.usable) == 27


def test_heavy_hex_blacklist():
    g = heavy_hex_27().with_blacklist({19, 20, 22})
    assert len(g.usable) == 24
    adj = g.adjacency()
    assert not {19, 20, 22} & (set(adj) | set().union(*adj.values()))


def test_chain_bv2_routed_has_three_cnots():
    # ancilla at the chain end: fused step plus one direct hit
    g = chain_graph(3)
    spec = OracleSpec.representative(2, 2)
    emb = Embedding((2, 1), frozenset({1}), {0: 1, 1: 0})
    routed = route_bv(spec, g, emb)
    assert routed.cnot_count == 3
    assert verify_routed(routed, spec)


def test_zero_weight_oracle_routes_with_no_cnots():
    for g in (chain_graph(5), heavy_hex_27()):
        spec = OracleSpec.representative(4, 0)
        routed = route_bv(spec, g, embed_oracle(spec, g))
        assert routed.cnot_count == 0
        assert verify_routed(routed, spec)


def test_heavy_hex_full_weight_cnot_count():
    g = heavy_hex_27()
    spec = OracleSpec.representative(26, 26)
    emb = embed_oracle(spec, g)
    routed = route_bv(spec, g, emb)
    assert routed.cnot_count == embedding_cnot_count(emb)
    # 44 is the published figure; a cheaper verified walk is a documented
    # discrepancy, anything above 44 is a regression
    assert routed.cnot_count <= 44
    assert verify_routed(routed, spec)


def test_reference_walk_reproduces_published_counts():
    g = heavy_hex_27()
    spec = OracleSpec.representative(26, 26)
    walk = REFERENCE_WALK_26
    hits = {0: 1, 6: 7, 9: 8, 17: 18, 20: 19, 26: 25, 13: 12, 24: 23}
    cover = []
    walked = set(walk)
    taken = set()
    adj = g.adjacency()
    for idx, node in enumerate(walk):
        for hit in sorted(h for h, anchor in hits.items()
                          if anchor == node and h not in taken):
            cover.append(hit)
            taken.add(hit)
        if idx + 1 < len(walk):
            cover.append(walk[idx + 1])
    l2p = {lq: node for lq, node in zip(range(26), cover)}
    direct = frozenset(lq for lq, node in l2p.items() if node in hits)
    emb = Embedding(walk, direct, l2p)
    assert embedding_cnot_count(emb) == 44
    assert naive_cnot_count(emb, spec) == 80
    routed = route_bv(spec, g, emb)
    assert routed.cnot_count == 44
    assert verify_routed(routed, spec)


def test_cnot_scaling_chain():
    # the 40-node chain is larger than any heavy-hex layout the pipeline ships
    for nodes in (21, 40):
        slope, counts = cnot_scaling(chain_graph(nodes), range(2, nodes))
        assert 1.95 <= slope <= 2.05
        for n, c in counts.items():
            # interior walk with a direct hit off each end
            assert c == 2 * n - 2


@pytest.mark.parametrize("k, cnots", [(35, 57), (45, 75)])
def test_two_heavy_hex_graph_routes_at_the_optimum(k, cnots):
    # two 27-node heavy-hex layouts joined by edge 26-27: 54 usable nodes
    hh = heavy_hex_27()
    g = CouplingGraph(54, hh.edges | {(a + 27, b + 27) for a, b in hh.edges}
                      | {(26, 27)})
    spec = OracleSpec.representative(k, k)
    emb = embed_oracle(spec, g)
    assert embedding_cnot_count(emb) == cnots
    routed = route_bv(spec, g, emb)
    assert routed.cnot_count == cnots
    assert verify_routed(routed, spec)


def test_cnot_scaling_heavy_hex():
    slope, _ = cnot_scaling(heavy_hex_27(), range(2, 27))
    assert 1.70 <= slope <= 1.82


def test_cnot_scaling_fully_connected():
    slope, counts = cnot_scaling(complete_graph(12), range(2, 11))
    assert slope == pytest.approx(1.0)
    assert all(c == n for n, c in counts.items())


def random_connected_graph(rng: np.random.Generator) -> CouplingGraph:
    n = int(rng.integers(4, 8))
    edges = set()
    for i in range(1, n):  # random spanning tree
        edges.add((int(rng.integers(0, i)), i))
    for _ in range(n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return CouplingGraph(n, frozenset(edges))


def test_free_placement_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(12):
        g = random_connected_graph(rng)
        n = g.num_physical
        for k in range(1, n):
            optimum = min(brute_force_min_cost(g, set(marked))
                          for marked in itertools.combinations(range(n), k))
            spec = OracleSpec.representative(k, k)
            emb = embed_oracle(spec, g)
            assert embedding_cnot_count(emb) == optimum, (sorted(g.edges), k)
            routed = route_bv(spec, g, emb)
            assert routed.cnot_count == optimum
            assert verify_routed(routed, spec)


def largest_component(graph: CouplingGraph) -> int:
    adj = graph.adjacency()
    seen: set[int] = set()
    largest = 0
    for root in adj:
        if root in seen:
            continue
        stack, size = [root], 0
        seen.add(root)
        while stack:
            size += 1
            for nb in adj[stack.pop()] - seen:
                seen.add(nb)
                stack.append(nb)
        largest = max(largest, size)
    return largest


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 26), min_size=1, max_size=7),
       st.lists(st.integers(0, 1), min_size=2, max_size=10))
@example({7, 8, 12, 14, 18, 19}, [1, 1, 1, 1, 1, 1, 0])  # largest component: 6 nodes
def test_verify_routed_on_random_blacklisted_heavy_hex(blacklist, bits):
    g = heavy_hex_27().with_blacklist(blacklist)
    spec = OracleSpec(Bitstring(tuple(bits)))
    if largest_component(g) <= spec.k:  # no walk can reach k marked nodes
        with pytest.raises(RoutingInfeasible):
            embed_oracle(spec, g)
        return
    routed = route_bv(spec, g, embed_oracle(spec, g))
    assert verify_routed(routed, spec)
    assert not set(routed.wire_of_physical) & blacklist


def test_blacklist_monotonicity_exact_regime():
    g = heavy_hex_27()
    spec5 = OracleSpec.representative(5, 5)
    base = embedding_cnot_count(embed_oracle(spec5, g))
    for node in (12, 14, 1):
        worse = g.with_blacklist({node})
        cost = embedding_cnot_count(embed_oracle(spec5, worse))
        assert cost >= base


def test_routed_equals_logical_distribution_small():
    g = heavy_hex_27()
    for n in (3, 4, 5):
        for k in range(n + 1):
            spec = OracleSpec.representative(n, k)
            routed = route_bv(spec, g, embed_oracle(spec, g))
            got = noiseless_output(routed.circuit, routed.readout)
            logical, rmap = bv_logical_circuit(spec)
            want = noiseless_output(logical, rmap)
            assert got == pytest.approx(want, abs=1e-9)


def test_verify_catches_deleted_cnot():
    g = heavy_hex_27()
    spec = OracleSpec.representative(5, 4)
    routed = route_bv(spec, g, embed_oracle(spec, g))
    assert verify_routed(routed, spec)
    events = tuple(ev for ev in routed.circuit.events)
    drop = next(i for i, ev in enumerate(events) if ev.kind is GateKind.CNOT)
    from dataclasses import replace
    mutated = replace(routed, circuit=replace(
        routed.circuit, events=events[:drop] + events[drop + 1:]),
        cnot_count=routed.cnot_count - 1)
    assert not verify_routed(mutated, spec)
    # without a marked wire's final H the signs still match b; the exact
    # check reads that bit as a coin flip
    wire = routed.readout.wire_of_logical[0]
    last_h = max(i for i, ev in enumerate(events)
                 if ev.kind is GateKind.H and ev.qubits == (wire,))
    mutated = replace(routed, circuit=replace(
        routed.circuit, events=events[:last_h] + events[last_h + 1:]))
    signs = _signs_after_cnots(mutated)
    assert [signs[w] for w in mutated.readout.wire_of_logical[:4]] == [1, 1, 1, 1]
    assert not verify_routed(mutated, spec)


def test_structural_check_matches_exact_backend():
    # the X-basis sign propagation agrees with dense simulation
    g = heavy_hex_27()
    for n, k in ((6, 6), (7, 3), (8, 5)):
        spec = OracleSpec.representative(n, k)
        routed = route_bv(spec, g, embed_oracle(spec, g))
        assert verify_routed(routed, spec)
        signs = _signs_after_cnots(routed)  # F2 only
        got = [0 if w is None else signs[w] for w in routed.readout.wire_of_logical]
        assert got == list(spec.b.bits)


def test_standard_setup_adds_idle_wires_and_still_verifies():
    g = heavy_hex_27()
    spec = OracleSpec.representative(6, 3)
    emb = embed_oracle(spec, g)
    reduced = route_bv(spec, g, emb)
    standard = route_bv(spec, g, emb, standard=True)
    assert standard.circuit.num_qubits > reduced.circuit.num_qubits
    assert all(w is not None for w in standard.readout.wire_of_logical)
    assert verify_routed(standard, spec)
    assert validate_circuit(standard.circuit) is None


def test_route_rejects_bad_walks():
    g = chain_graph(4)
    spec = OracleSpec.representative(2, 2)
    bad = Embedding((0, 2), frozenset(), {0: 2, 1: 3})  # 0-2 not an edge
    with pytest.raises(RoutingInfeasible):
        route_bv(spec, g, bad)
    # the first step lands on node 1, which holds no marked qubit
    unmarked_step = Embedding((0, 1, 2), frozenset({1}), {0: 2, 1: 3})
    with pytest.raises(RoutingInfeasible, match="no uncovered marked qubit"):
        route_bv(spec, g, unmarked_step)


def test_search_walks_past_the_recursion_limit():
    # 1,099 walk steps, deeper than Python's default recursion limit
    result = routing._free_placement_search(chain_graph(1200).adjacency(), 1100, [0],
                                            routing.EXACT_SEARCH_BUDGET)
    assert result.walk == list(range(1100))
    assert result.hits == [1100]


def test_search_out_of_budget_keeps_its_best_walk(monkeypatch):
    g = heavy_hex_27()
    spec = OracleSpec.representative(26, 26)
    assert embed_oracle(spec, g).walk_steps == 17
    monkeypatch.setattr(routing, "EXACT_SEARCH_BUDGET", 50)
    emb = embed_oracle(spec, g)
    assert emb.walk_steps == 19  # the best walk within 50 expansions
    assert verify_routed(route_bv(spec, g, emb), spec)
    monkeypatch.setattr(routing, "EXACT_SEARCH_BUDGET", 20)
    with pytest.raises(RoutingInfeasible, match="within the search budget"):
        embed_oracle(spec, g)


def test_find_embedding_infeasible_cases():
    spec = OracleSpec.representative(3, 3)
    with pytest.raises(RoutingInfeasible, match="exceeds usable nodes"):
        embed_oracle(spec, chain_graph(3))  # k > usable - 1
    disconnected = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(RoutingInfeasible, match="no walk reaches 3 marked qubits"):
        embed_oracle(spec, disconnected)


def test_graph_io_roundtrip():
    for g in (heavy_hex_27().with_blacklist({19, 20, 22}), chain_graph(5),
              CouplingGraph(3, frozenset())):
        assert graph_from_text(graph_to_text(g)) == g


@pytest.mark.parametrize("mangle, message", [
    (lambda t: t.replace("edges 4\n", ""), "line 3: missing field edges"),
    (lambda t: t.replace("num_physical", "nodes"), "line 2: missing field num_physical"),
    (lambda t: t.replace("blacklist 0", "blacklist none"), "line 8: bad value for blacklist"),
    (lambda t: t.replace("1 2\n", "# cut\n1 two\n"), "line 6: expected 2 node numbers"),
    (lambda t: t.replace("blacklist 0", "blacklist 2"), "expected 2 blacklisted nodes"),
    (lambda t: t.replace("blacklist 0", "blacklist 2\n1 2 3"),
     "line 9: expected 2 node numbers"),
    (lambda t: t.split("edges")[0], "end of text: missing field edges"),
    (lambda t: t.split("blacklist")[0], "end of text: missing field blacklist"),
    (lambda t: t.replace("3 4\n", ""), "line 7: expected 2 node numbers, got 'blacklist 0'"),
    (lambda t: "", "end of text: missing field num_physical, edges"),
], ids=["missing", "unknown-in-header", "bad-value", "record-after-comment",
        "missing-blacklist-line", "long-blacklist", "cut-after-num-physical",
        "cut-after-edges", "short-edge-list", "empty"])
def test_graph_reader_rejects_malformed_text(mangle, message):
    with pytest.raises(ValueError, match=message):
        graph_from_text(mangle(graph_to_text(chain_graph(5))))


def test_layout_registry(tmp_path):
    assert layout_from_name("heavy-hex-27", 0).num_physical == 27
    assert layout_from_name("chain", min_nodes=9).num_physical == 9
    path = tmp_path / "g.graph"
    path.write_text(graph_to_text(chain_graph(5)))
    assert layout_from_name(f"file:{path}", 0) == chain_graph(5)
    with pytest.raises(ValueError):
        layout_from_name("torus", 0)


def test_embedding_search_leaves_no_reference_cycle():
    spec = OracleSpec.representative(10, 7)
    gc.collect()
    gc.disable()
    try:
        got = embed_oracle(spec, heavy_hex_27())
        assert gc.collect() == 0
    finally:
        gc.enable()
    # the embedding the search finds
    assert got == Embedding((1, 4, 7, 10), frozenset({0, 1, 4, 6}),
                            {0: 0, 1: 2, 2: 4, 3: 7, 4: 6, 5: 10, 6: 12})
