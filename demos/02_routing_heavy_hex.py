"""Routing BV oracles onto the 27-qubit heavy-hex graph.

Sparse connectivity forces SWAPs; walking the ancilla and fusing each
oracle CNOT with the following SWAP (two CNOTs instead of four) brings the
full-weight cost from 4n toward 2n on a chain and about 1.76n on the
heavy-hex layout.
"""
import numpy as np

from ssbv import (OracleSpec, chain_graph, cnot_scaling, embed_oracle,
                  embedding_cnot_count, heavy_hex_27, naive_cnot_count,
                  route_bv, verify_routed)

graph = heavy_hex_27()
print(f"heavy-hex: {graph.num_physical} nodes, "
      f"max degree {max(len(nbrs) for nbrs in graph.adjacency().values())}")

# Full-weight instance: all 26 data qubits marked.
spec = OracleSpec.representative(26, 26)
emb = embed_oracle(spec, graph)
routed = route_bv(spec, graph, emb)
print(f"\nBV-26 walk: start {emb.start}, {emb.walk_steps} steps, "
      f"{len(emb.direct_hits)} direct hits")
print(f"fused CNOT count: {routed.cnot_count} "
      f"(plain 3-CNOT SWAPs would need {naive_cnot_count(emb, spec)})")
print(f"noiseless output verified: {verify_routed(routed, spec)}")

# Scaling of the CNOT count with problem size.
for name, g, rng in (("chain", chain_graph(27), range(2, 21)),
                     ("heavy-hex", graph, range(2, 27))):
    slope, counts = cnot_scaling(g, rng)
    print(f"\n{name}: fitted CNOT slope {slope:.3f}")
    print("  n:cnots ", {n: counts[n] for n in list(rng)[:6]}, "...")

# Blacklisting faulty qubits shrinks the usable graph.
degraded = graph.with_blacklist({19, 20, 22})
print(f"\nwith 3 faulty qubits blacklisted: {len(degraded.usable)} usable nodes")
spec23 = OracleSpec.representative(23, 23)
emb23 = embed_oracle(spec23, degraded)
print(f"BV-23 on the degraded chip: {embedding_cnot_count(emb23)} CNOTs")
