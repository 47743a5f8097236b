"""Index the sample corpus and route one query across layers.

Shows the pieces the engine glues together: per-layer exact cosine search,
layer evidence scores, the temperature softmax over layers, and the fused
context vector.

    python3 demos/02_search_and_route.py
"""

from pathlib import Path

import numpy as np

from mgrag.confidence import entropy
from mgrag.corpus import read_cisi_documents
from mgrag.embedder import EmbedderSpec
from mgrag.memory import build, search_layer
from mgrag.router import RouterConfig, route, routing_weights

DATA = Path(__file__).resolve().parent.parent / "data"
QUERY = "how are library catalogs organized for information retrieval"


def main() -> None:
    docs = read_cisi_documents(DATA / "cisi_sample.all")
    hier = build(docs, EmbedderSpec(dim=128), depth=3)
    print(f"indexed {len(docs)} documents at depth {hier.depth}")
    for layer_no in range(1, hier.depth + 1):
        print(f"  layer {layer_no}: {hier.layers[layer_no - 1].n_units} units")

    print(f"\nquery: {QUERY!r}")
    cfg = RouterConfig(k_per_layer=3)
    ctx = route(hier, QUERY, cfg)

    for layer_no in range(1, hier.depth + 1):
        print(f"\nlayer {layer_no} top hits (evidence score {ctx.scores[layer_no - 1]:.4f}):")
        for hit in ctx.retrieval.layers[layer_no - 1].hits:
            print(f"  doc {hit.doc_id:>3}  sim {hit.sim:+.4f}  unit {hit.unit_id}")

    print("\nrouting weights by temperature:")
    for temp in (0.25, cfg.temperature, 4.0):
        # the route's own weights are the row at its temperature
        weights = ctx.weights if temp == cfg.temperature else routing_weights(ctx.scores, temp)
        rendered = "  ".join(f"a{i + 1}={w:.3f}" for i, w in enumerate(weights))
        print(f"  T={temp:<5}{rendered}  entropy={entropy(weights):.3f}")
    print("low T trusts the best layer; high T spreads evidence across all of them")

    print(f"\nfused context: norm={np.linalg.norm(ctx.c):.4f}, {len(ctx.paths)} retrieval paths")
    print("top paths by confidence:")
    for path in ctx.paths[:5]:
        print(f"  layer {path.layer}  doc {path.doc_id:>3}  confidence {path.path_confidence:.4f}")

    # the same engine piece answers plain nearest-neighbor questions too
    mem = hier.layers[0]
    top = search_layer(mem, ctx.retrieval.encodings[0], 3)
    print("\nwhole-document nearest neighbors:")
    for hit in top:
        title = next(d.title for d in docs if d.doc_id == hit.doc_id)
        print(f"  doc {hit.doc_id:>3}  sim {hit.sim:+.4f}  {title[:48]!r}")


if __name__ == "__main__":
    main()
