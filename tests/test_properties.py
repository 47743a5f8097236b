"""Property tests against brute-force oracles.

Examples are derandomized (seeded from each test) and no example database is
written; conftest.py keeps hypothesis's caches in pytest's cache directory.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mgrag.corpus import Document, segment
from mgrag.memory import LayerMemory, search_layer

DIM = 3
deterministic = settings(derandomize=True, database=None, deadline=None)


@st.composite
def _layer_and_query(draw):
    """Small-integer rows and query: every sim is exact, and equal sims are common."""
    n = draw(st.integers(0, 12))
    small = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(small, min_size=DIM, max_size=DIM), min_size=n, max_size=n))
    query = draw(st.lists(small, min_size=DIM, max_size=DIM))
    # unit ids in shuffled row order, so ties cannot resolve by row index
    order = draw(st.permutations(range(n)))
    mem = LayerMemory(
        layer=1,
        unit_ids=[f"{j + 1:08d}:1:00000" for j in order],
        doc_ids=np.asarray(order, dtype=np.int64) + 1,
        vectors=np.asarray(rows, dtype=np.float64).reshape(n, DIM),
    )
    return mem, np.asarray(query, dtype=np.float64)


@deterministic
@given(_layer_and_query())
def test_search_layer_matches_a_brute_force_sort_for_every_k(case):
    mem, query = case
    sims = [sum(float(a) * float(b) for a, b in zip(row, query)) for row in mem.vectors.tolist()]
    ranked = sorted(range(mem.n_units), key=lambda i: (-sims[i], mem.unit_ids[i]))
    if not np.any(query):
        ranked = []  # a degenerate query retrieves nothing
    for k in range(1, mem.n_units + 3):
        hits = search_layer(mem, query, k)
        assert [(h.row, h.unit_id, h.doc_id, h.sim) for h in hits] == [
            (i, mem.unit_ids[i], int(mem.doc_ids[i]), sims[i]) for i in ranked[:k]
        ]


_bodies = st.text(alphabet="ab.!? \t\n", max_size=80).filter(lambda s: s.strip())


@deterministic
@given(_bodies)
def test_segment_spans_are_exact_trimmed_and_cover_every_character(body):
    doc = Document(doc_id=1, title="", body=body)
    visible = {i for i, ch in enumerate(body) if not ch.isspace()}
    for layer in range(2, 6):
        units = segment(doc, layer)
        covered: list[int] = []
        for unit in units:
            start, end = unit.char_span
            assert unit.text == body[start:end]
            assert unit.text and not unit.text[0].isspace() and not unit.text[-1].isspace()
            covered += [i for i in range(start, end) if i in visible]
        assert set(covered) == visible, layer
        if layer in (2, 3):  # paragraphs and sentences partition the text
            assert len(covered) == len(visible), layer
