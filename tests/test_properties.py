"""Property tests against brute-force oracles, and typed errors on arbitrary input.

Examples are derandomized (seeded from each test) and no example database is
written; conftest.py keeps hypothesis's caches in pytest's cache directory.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgrag import corpus
from mgrag.confidence import GateConfig, entropy, filter_paths, validate_distribution
from mgrag.corpus import Document, Query, parse_jsonl_qa, segment
from mgrag.embedder import EmbedderSpec, embed
from mgrag.errors import BuildError, MgragError, RoutingError
from mgrag.evaluation import DocRanking, aggregate_ranking, average_precision
from mgrag.generator import TrainConfig, descend, gated_contexts, init_params
from mgrag.memory import Hit, LayerMemory, build, load, save, search_layer
from mgrag.router import (Retrieval, RouterConfig, SearchedLayer, assemble, retrieve, route,
                          search_layers)
from oracles import entropy as masked_twice
from oracles import path_ranking
from oracles import validate_distribution as rule_by_rule

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


_entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, -2e-9, -1e-9, -0.0, 0.0, 1.0]),
)


@st.composite
def _near_distributions(draw):
    """Non-negative entries scaled to sum to 1, then one of them moved by up to 3e-9."""
    raw = draw(st.lists(st.floats(0, 1), min_size=1, max_size=6).filter(lambda xs: sum(xs) > 0))
    p = np.array(raw) / sum(raw)
    p[draw(st.integers(0, len(raw) - 1))] += draw(st.floats(-3e-9, 3e-9))
    return p


@deterministic
@given(st.one_of(st.lists(_entries, min_size=1, max_size=6).map(np.array), _near_distributions()))
@example(np.array([math.inf, 1e308, 1e308]))  # an infinity among finite terms that overflow
@example(np.array([1e308, 1e308, -5.0]))  # finite terms that overflow, one of them negative
@example(np.array([1e308, 1e308]))
@example(np.array([math.inf, -math.inf]))
@example(np.array([math.inf, -5.0]))
@example(np.array([0.5, 0.5 + 1e-9]))
@example(np.ones((2, 2)) / 4)
@example(np.array([]))
def test_validate_distribution_accepts_and_rejects_as_one_pass_per_rule_does(p):
    def outcome(check):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = check(p).tolist()
            except ValueError as exc:
                result = str(exc)
        return result, [(w.category, str(w.message)) for w in caught]

    assert outcome(validate_distribution) == outcome(rule_by_rule)


@st.composite
def _sparse_distributions(draw):
    """Distributions with zero entries common, a point mass among them."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 1)), min_size=1, max_size=8)
               .filter(lambda xs: sum(xs) > 0))
    return np.array(raw) / sum(raw)


@deterministic
@given(_sparse_distributions())
@example(np.array([1.0]))
@example(np.array([0.0, 1.0, 0.0]))
@example(np.array([5e-324, 1.0]))  # a subnormal term
def test_entropy_has_the_bits_of_masking_twice(p):
    assert struct.pack("<d", entropy(p)) == struct.pack("<d", masked_twice(p))


# a poison's value, put in a cell's first row, and the history rows of the cell it stops (None:
# it never stops); the row's feature 0 moves no logit until the first update
_POISONS = {
    "none": (None, None),
    "nan": (math.nan, 0),  # the whole row: non-finite loss at epoch 0
    "huge": (1e308, 1),  # feature 0: finite loss, overflowing gradient at epoch 0
    "large": (1e200, 1),  # feature 0: finite epoch 0, whose update makes epoch 1's loss overflow
}
# the huge entropy weight lets a finite loss have an overflowing gradient; the tiny step keeps
# the other cells finite
_DESCENT_GATES = [GateConfig(ensemble_K=3, lambda1=1e6, lambda2=0.5),
                  GateConfig(var_mode="intra", lambda1=1e6, lambda2=0.5)]


@deterministic
@given(st.lists(st.sampled_from(sorted(_POISONS)), min_size=1, max_size=5),
       st.sampled_from(_DESCENT_GATES), st.integers(0, 2**32 - 1))
@example(["nan", "huge", "large"], _DESCENT_GATES[0], 0)  # every cell stops
@example(["none", "none"], _DESCENT_GATES[1], 0)  # no cell stops
def test_a_stacked_descent_gives_every_cell_the_bits_of_its_run_alone(poisons, gate, seed):
    n, dim, classes, epochs = 4, 4, 3, 4
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((len(poisons), n, 2 * dim))
    noise = rng.standard_normal((n, gate.ensemble_K, dim)) if gate.var_mode == "ensemble" else None
    golds = np.arange(n) % classes
    cfg = TrainConfig(lr=1e-7, epochs=epochs, gate=gate)
    params = init_params(classes, dim, seed=seed, scale=0.5)
    params.W[:, 0] = 0.0
    for cell, poison in enumerate(poisons):
        value = _POISONS[poison][0]
        if poison == "nan":
            X[cell, 0] = value
        elif value is not None:
            X[cell, 0, 0] = value
    with np.errstate(all="ignore"):
        batched = descend(params, X, noise, golds, cfg)
        alone = [descend(params, X[c : c + 1], noise, golds, cfg)[0] for c in range(len(poisons))]
    for poison, got, want in zip(poisons, batched, alone, strict=True):
        stop = _POISONS[poison][1]
        assert (len(got.history), got.diverged) == (epochs if stop is None else stop, stop is not None)
        assert got.params.W.tobytes() == want.params.W.tobytes()
        assert got.params.b.tobytes() == want.params.b.tobytes()
        assert got.history == want.history
        assert (got.accuracy, got.diverged) == (want.accuracy, want.diverged)


# confidences in eighths: sums are exact and equal scores are common
_paths = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(0, 8)),  # doc, layer, 8 * conf
    min_size=1, max_size=15,
)


@deterministic
@given(_paths, st.sampled_from(["max", "sum"]))
def test_aggregate_ranking_matches_a_brute_force_collapse(rows, mode):
    # aggregate_ranking reads a context's weights and each searched layer's hits and within;
    # at weight 1.0 a path's confidence is its hit's within entry
    layers = tuple(
        SimpleNamespace(
            hits=[Hit(f"{doc:08d}:{layer}:{i:05d}", doc, 0.0, i)
                  for i, (doc, at, _) in enumerate(rows) if at == layer],
            within=np.array([eighths / 8 for _, at, eighths in rows if at == layer], dtype=np.float64))
        for layer in (1, 2, 3))
    ctx = SimpleNamespace(weights=np.ones(3), retrieval=SimpleNamespace(layers=layers))
    combine = max if mode == "max" else sum
    score = {d: combine(eighths / 8 for doc, _, eighths in rows if doc == d)
             for d in {doc for doc, _, _ in rows}}
    ranked = sorted(score, key=lambda d: (-score[d], d))
    ranking = aggregate_ranking(ctx, 7, mode)
    assert ranking.query_id == 7
    assert ranking.doc_ids == tuple(ranked)
    assert ranking.scores == tuple(score[d] for d in ranked)


@deterministic
@given(st.permutations(range(1, 9)).flatmap(
    lambda order: st.tuples(st.integers(1, 8).map(lambda n: tuple(order[:n])),
                            st.sets(st.integers(1, 10), min_size=1))))
def test_average_precision_matches_a_brute_force_reference(case):
    doc_ids, relevant = case
    ranking = DocRanking(query_id=1, doc_ids=doc_ids, scores=tuple(0.0 for _ in doc_ids))
    # the mean over relevant documents of precision at each one's rank, 0 for the unranked
    precisions = [len(set(doc_ids[: doc_ids.index(d) + 1]) & relevant) / (doc_ids.index(d) + 1)
                  if d in doc_ids else 0.0 for d in sorted(relevant)]
    assert average_precision(ranking, relevant) == pytest.approx(
        sum(precisions) / len(relevant), rel=1e-12, abs=1e-15)

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


# --- the first d layers of a depth-5 build are the depth-d build ------------------------

# empty, blank and punctuation-only bodies included: they yield no (or only degenerate) units
_corpora = st.lists(st.text(alphabet="abc.!? \t\n", max_size=60), min_size=1, max_size=4).map(
    lambda bodies: [Document(doc_id=i + 1, title="", body=b) for i, b in enumerate(bodies)])


def _build_or_error(docs, spec, depth):
    try:
        return build(docs, spec, depth)
    except BuildError as exc:
        return str(exc)


@deterministic
@given(_corpora)
@example([Document(doc_id=1, title="", body="?! ."), Document(doc_id=2, title="", body="")])
def test_a_depth_prefix_of_a_full_build_equals_the_build_at_that_depth(docs):
    spec = EmbedderSpec(dim=8)
    full = _build_or_error(docs, spec, 5)
    for depth in range(1, 6):
        built = _build_or_error(docs, spec, depth)
        if isinstance(full, str):  # the same zero-unit error at every depth
            assert built == full
            continue
        assert not isinstance(built, str), built
        prefix = replace(full, layers=full.layers[:depth])
        assert prefix.depth == depth
        for a, b in zip(prefix.layers, built.layers, strict=True):
            assert (a.layer, a.unit_ids, a.n_degenerate) == (b.layer, b.unit_ids, b.n_degenerate)
            assert np.array_equal(a.doc_ids, b.doc_ids)
            assert np.array_equal(a.vectors, b.vectors)
        assert prefix.manifest == built.manifest


# --- a build embeds every unit as embed embeds its text ---------------------------------

# "İ" lowers to two characters, "Σ" to "σ" or (word-final) "ς", the Kelvin sign to an ASCII "k"
_TOKENS = st.one_of(
    st.text(alphabet="abAB09\u0130\u03a3\u03c2\u212a\u00e9.,!?'", min_size=1, max_size=7),
    st.sampled_from(["?!", "...", ";", "\u0130stanbul", "\u039f\u0394\u039f\u03a3."]),
)
_short_bodies = st.lists(
    st.tuples(_TOKENS, st.sampled_from([" ", " ", "\t", "\n", "\n\n", " \n\t\n"])), max_size=30,
).map(lambda pairs: "".join(token + sep for token, sep in pairs))
# more than 64 tokens and no blank line: layer 2 falls back to 64-token windows
_long_bodies = st.lists(st.tuples(_TOKENS, st.sampled_from([" ", "\t", "\n"])), min_size=65,
                        max_size=80).map(lambda pairs: "".join(token + sep for token, sep in pairs))
_unicode_corpora = st.lists(st.one_of(_short_bodies, _long_bodies), min_size=1, max_size=3).map(
    lambda bodies: [Document(doc_id=i + 1, title="", body=b) for i, b in enumerate(bodies)])


@pytest.mark.parametrize("spec", [
    EmbedderSpec(),
    EmbedderSpec(dim=16, ngram_min=1, ngram_max=4, hash_seed=3, shared_phi=True),
    EmbedderSpec(dim=32, ngram_min=7, ngram_max=9),  # b"g:" + gram crosses the 8-byte word
    EmbedderSpec(dim=64, ngram_max=32),
    EmbedderSpec(dim=8, ngram_min=1, ngram_max=1, hash_seed=2**64 - 1),
], ids=["default", "dim16-ngrams1to4-seed3-shared", "dim32-ngrams7to9", "dim64-ngrams3to32",
        "dim8-ngrams1to1-maxseed"])
@deterministic
@given(_unicode_corpora)
@example([Document(doc_id=1, title="", body="\u0130stanbul \u0130\u0130 x\ty.\n\nK\u212a 42 ?! "
                                             "\u039f\u0394\u039f\u03a3. b")])
# only the middle body lowers longer; the bodies around it keep their own offsets
@example([Document(doc_id=i + 1, title="", body=body) for i, body in enumerate(
    ["alpha beta. gamma", "\u0130stanbul \u0130\u0130 x.\n\nK\u212a \u0130y z", "omega psi. chi"])])
def test_every_built_unit_is_embed_of_its_text(spec, docs):
    built = _build_or_error(docs, spec, 5)
    for layer in range(1, 6):
        kept, kept_docs, rows, degenerate = [], [], [], 0
        for unit in (unit for doc in docs for unit in segment(doc, layer)):
            vec = embed(unit.text, layer, spec)
            if np.any(vec):
                kept.append(unit.unit_id)
                kept_docs.append(unit.doc_id)
                rows.append(vec)
            else:
                degenerate += 1
        if isinstance(built, str):  # no layer kept a unit
            assert kept == [], built
            continue
        mem = built.layers[layer - 1]
        assert (mem.unit_ids, mem.n_degenerate) == (kept, degenerate), layer
        assert mem.doc_ids.dtype == np.int64 and mem.doc_ids.tolist() == kept_docs, layer
        assert mem.vectors.tobytes() == np.asarray(rows, dtype=np.float64).tobytes(), layer


# --- routing is one search, then its weighing -------------------------------------------

_WORDS = ["ant", "bee", "cat", "dog", "eel", "fox"]
# every body opens with a word, so each document is a layer-1 unit; "." and blank lines
# make sentences and paragraphs
_seam_corpora = st.lists(
    st.lists(st.sampled_from([*_WORDS, ".", "\n\n"]), max_size=24).map(lambda t: " ".join(["ant", *t])),
    min_size=1, max_size=4,
).map(lambda bodies: [Document(doc_id=i + 1, title="", body=b) for i, b in enumerate(bodies)])
_seam_configs = st.builds(RouterConfig, k_per_layer=st.integers(1, 4), temperature=st.floats(0.05, 20.0),
                          layer_score_mode=st.sampled_from(["mean_topk", "max"]))


def _weighed(ctx):
    """What assemble computes, bit for bit; ``paths`` compare their floats exactly."""
    return ctx.c.tobytes(), ctx.weights.tobytes(), ctx.scores.tobytes(), ctx.paths


def _weighed_or_nowhere(weigh, *args):
    """``_weighed`` of the context, or the error of a search that routes nowhere."""
    try:
        return _weighed(weigh(*args))
    except RoutingError as exc:
        return str(exc)


@deterministic
@given(_seam_corpora, st.lists(st.sampled_from([*_WORDS, "yak"]), min_size=1, max_size=6).map(" ".join),
       _seam_configs, st.floats(0.05, 20.0), st.floats(0.0, 1.0, exclude_min=True))
# "bee" encodes to zero on layer 1 at dim 16 (its signed features cancel): the depth-1 prefix
# routes nowhere, the full route does not
@example([Document(doc_id=1, title="", body="ant")], "bee", RouterConfig(k_per_layer=1), 1.0, 1.0)
def test_route_is_its_search_weighed_at_any_temperature_depth_and_gate(docs, text, cfg, temp, share):
    hier = build(docs, EmbedderSpec(dim=16), 5)
    ctx = route(hier, text, cfg)
    r = ctx.retrieval
    # (a) route is assemble over search_layers of its own encodings
    again = assemble(search_layers(hier, r.encodings, cfg.k_per_layer), cfg)
    assert _weighed(again) == _weighed(ctx)
    # (b) the search does not depend on the temperature: re-weighing it is routing at T
    at_temp = replace(cfg, temperature=temp)
    assert _weighed(assemble(r, at_temp)) == _weighed(route(hier, text, at_temp))
    # (c) the first d layers of the search are the search of the depth-d prefix, which may
    # route nowhere though the full search does
    for depth in range(1, 6):
        shallow = replace(hier, layers=hier.layers[:depth])
        assert (_weighed_or_nowhere(assemble, r.prefix(depth), cfg)
                == _weighed_or_nowhere(route, shallow, text, cfg))
    # (d) the gate keeps, per layer, a subsequence of the hits with their own vectors; a
    # threshold at most the strongest path's confidence keeps at least that path, also at
    # share 1; unless the gate keeps everything, it keeps exactly the paths at or above tau
    for tau in (share * ctx.paths[0].path_confidence, ctx.paths[0].path_confidence):
        gated_ctx = filter_paths(ctx, tau)
        gated = gated_ctx.retrieval
        assert gated.encodings is r.encodings and not gated_ctx.gate_bypassed
        for kept_layer, layer in zip(gated.layers, r.layers, strict=True):
            kept, hits = kept_layer.hits, layer.hits
            picked = [i for i, hit in enumerate(hits) if hit in kept]  # unit ids are unique in a layer
            assert [hits[i] for i in picked] == kept
            assert np.array_equal(kept_layer.vectors, layer.vectors[picked])
        kept = {(layer_no, hit.unit_id)
                for layer_no, layer in enumerate(gated.layers, start=1) for hit in layer.hits}
        assert (ctx.paths[0].layer, ctx.paths[0].unit_id) in kept
        if gated_ctx is not ctx:  # the old set rule is the oracle of the mask
            assert kept == {(p.layer, p.unit_id) for p in ctx.paths if p.path_confidence >= tau}


def _bits(ctx) -> tuple:
    """Every field of a fused context, each float as its bytes."""
    return (ctx.c.tobytes(), ctx.weights.tobytes(), ctx.scores.tobytes(),
            tuple(layer.within.tobytes() for layer in ctx.retrieval.layers), ctx.gate_bypassed,
            [(p.layer, p.unit_id, p.doc_id, struct.pack("<d", p.sim), struct.pack("<d", p.path_confidence))
             for p in ctx.paths])


def _weighed_and_gated(r, cfg, tau):
    """The bits of a retrieval's weighing and of its gating at tau, or the routing error."""
    try:
        ctx = assemble(r, cfg)
    except RoutingError as exc:
        return str(exc)
    return _bits(ctx), _bits(filter_paths(ctx, tau))


_weighings = st.lists(
    st.tuples(st.integers(1, 5), st.floats(0.05, 20.0), st.sampled_from(["mean_topk", "max"]),
              st.floats(0.0, 0.08),  # tau up to 0.08 covers the band where the gate drops paths
              st.integers(0, 2**20 - 1)),  # 4 keep bits a layer: any subset of hits, not only a top
    min_size=1, max_size=6,
)


@deterministic
@given(_seam_corpora, st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join),
       st.integers(1, 4), _weighings)
def test_a_memoized_weighing_equals_a_fresh_one_bit_for_bit(docs, text, k, weighings):
    # one search weighed again and again, through its prefixes, at any temperature, score
    # mode and gate, reads what it keeps of earlier weighings; a copy built from its hits and
    # vectors alone keeps nothing, so it weighs every layer afresh
    hier = build(docs, EmbedderSpec(dim=16), 5)
    r = retrieve(hier, text, k)
    for depth, temp, mode, tau, bits in weighings + weighings[::-1]:
        cfg = RouterConfig(k_per_layer=k, temperature=temp, layer_score_mode=mode)
        fresh = Retrieval(r.encodings[:depth],
                          tuple(SearchedLayer(layer.hits, layer.vectors) for layer in r.layers[:depth]))
        assert _weighed_and_gated(r.prefix(depth), cfg, tau) == _weighed_and_gated(fresh, cfg, tau)
        keep = [np.array([bits >> (4 * l + i) & 1 for i in range(len(layer.hits))], dtype=bool)
                for l, layer in enumerate(fresh.layers)]
        survivors = Retrieval(fresh.encodings, tuple(
            SearchedLayer([h for h, m in zip(layer.hits, mask) if m], layer.vectors[mask])
            for layer, mask in zip(fresh.layers, keep)))
        assert (_weighed_and_gated(r.prefix(depth).kept(keep), cfg, 0.0)
                == _weighed_and_gated(survivors, cfg, 0.0))
        reduce = np.max if mode == "max" else np.mean  # the reference score, to the bit
        want = [float(reduce([h.sim for h in layer.hits])) if layer.hits else -np.inf
                for layer in fresh.layers]
        if any(layer.hits for layer in fresh.layers):
            assert assemble(fresh, cfg).scores.tobytes() == np.array(want).tobytes()


# --- ranking folds the weighed layers as the paths would --------------------------------


@deterministic
@given(_seam_corpora, st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join),
       _seam_configs, st.booleans(),
       st.lists(st.integers(0, 2**20 - 1), max_size=4))  # 4 keep bits a layer, as above
# with shared_phi a one-sentence body is one unit vector on every layer: its paths tie across layers
@example([Document(doc_id=1, title="", body="ant bee"), Document(doc_id=2, title="", body="ant cat"),
          Document(doc_id=3, title="", body="ant")], "ant", RouterConfig(k_per_layer=3), True, [0xFFFFF])
def test_ranking_folds_the_weighed_layers_as_the_paths_would(docs, text, cfg, shared, masks):
    hier = build(docs, EmbedderSpec(dim=16, shared_phi=shared), 5)
    try:
        ctx = route(hier, text, cfg)
    except RoutingError:
        return
    r = ctx.retrieval
    contexts = [ctx]
    for bits in masks:  # gated through the searched layers' own keep-mask memo
        keep = [np.array([bits >> (4 * l + i) & 1 for i in range(len(layer.hits))], dtype=bool)
                for l, layer in enumerate(r.layers)]
        if any(mask.any() for mask in keep):
            contexts.append(assemble(r.kept(keep), cfg))
    tau = float(np.nextafter(ctx.paths[0].path_confidence, 2.0))  # drops every path: bypassed
    if tau <= 1.0:
        contexts.append(filter_paths(ctx, tau))
        assert contexts[-1].gate_bypassed
    for gated in contexts:
        for mode in ("max", "sum"):
            ranking = aggregate_ranking(gated, 3, mode)
            doc_ids, scores = path_ranking(gated, mode)
            assert ranking.doc_ids == doc_ids
            assert [struct.pack("<d", s) for s in ranking.scores] == [struct.pack("<d", s) for s in scores]


# --- a query set's gated contexts, routed or weighed from given searches ----------------


def _gated_bits(ctx) -> tuple:
    """A gated context's weights, fused context, scores, surviving hits and bypass flag, as bits."""
    return (ctx.weights.tobytes(), ctx.c.tobytes(), ctx.scores.tobytes(),
            [[(hit.unit_id, struct.pack("<d", hit.sim)) for hit in layer.hits] for layer in ctx.retrieval.layers],
            ctx.gate_bypassed)


# "..." has no feature: a text of it alone routes nowhere
_query_texts = st.lists(st.lists(st.sampled_from([*_WORDS, "..."]), min_size=1, max_size=2).map(" ".join),
                        min_size=1, max_size=4)


@deterministic
@given(_seam_corpora, _query_texts, st.integers(1, 5), st.integers(1, 6),
       st.sampled_from([0.0, 0.03, 0.05, 1.0]))
@example([Document(doc_id=1, title="", body="ant bee. cat")], ["ant", "... ...", "cat"], 3, 2, 0.05)
# the gate drops some paths of every query and keeps others
@example([Document(doc_id=1, title="", body="ant bee . cat dog . eel fox"),
          Document(doc_id=2, title="", body="ant cat . bee . fox"),
          Document(doc_id=3, title="", body="ant dog eel . bee cat")], ["ant", "bee cat", "fox"], 5, 3, 0.05)
def test_gated_contexts_of_given_searches_are_those_routed_and_gated(docs, texts, depth, k, tau):
    hier = build(docs, EmbedderSpec(dim=16), depth)
    cfg = RouterConfig(k_per_layer=k)
    queries = [Query(query_id=10 * (i + 1), text=text) for i, text in enumerate(texts)]
    want = []  # each query routed and gated alone; the first that routes nowhere is named
    for query in queries:
        try:
            want.append(_gated_bits(filter_paths(route(hier, query.text, cfg), tau)))
        except RoutingError as exc:
            want = f"query {query.query_id}: {exc}"
            break
    featureless = [query.query_id for query in queries if set(query.text.split()) == {"..."}]
    if featureless:  # it, or an earlier query that routes nowhere, is named
        assert isinstance(want, str) and int(want.split(":")[0].removeprefix("query ")) <= featureless[0]
    searches = [retrieve(hier, query.text, k) for query in queries]
    for given in (None, searches):
        try:
            got = [_gated_bits(ctx) for ctx in gated_contexts(hier, queries, cfg, tau, given)]
        except RoutingError as exc:
            got = str(exc)
        assert got == want


# --- parsers and the index loader fail only with their typed errors ---------------------

DEEP = "[" * 100_000  # nests past the recursion limit of the json decoder
HUGE_INT = "9" * 5_000  # past the default limit of int() on a digit string
PARSERS = [
    *(getattr(corpus, f"parse_{fmt}_{kind}")
      for fmt in ("cisi", "jsonl") for kind in ("documents", "queries", "qrels")),
    parse_jsonl_qa,
]
_pieces = st.sampled_from([
    "{", "}", "[", "]", ":", ",", '"', '"id"', '"body"', '"text"', '"query_id"', '"doc_id"',
    '"gold"', '"title"', "0", "1", "-1", "1.5", "1e999", "true", "null", '"x"', HUGE_INT, DEEP,
    ".I", ".W", ".T", ".X", " ", "\t", "\n", "99999999999", "\x00", "\ud800",
])
_inputs = st.one_of(
    st.text(), st.lists(st.one_of(_pieces, st.text(max_size=3)), max_size=24).map("".join)
)


@deterministic
@given(_inputs)
@example(DEEP)
@example('{"id": ' + HUGE_INT + ', "body": "b"}')
def test_parsers_raise_only_typed_errors_on_arbitrary_text(text):
    for parse in PARSERS:
        try:
            parse(text)
        except MgragError:
            pass


@pytest.fixture(scope="module")
def small_index(tmp_path_factory):
    docs = [Document(doc_id=1, title="", body="Alpha beta.\n\nGamma delta epsilon."),
            Document(doc_id=2, title="", body="Zeta eta theta.")]
    path = tmp_path_factory.mktemp("index") / "small.mgix"
    save(build(docs, EmbedderSpec(dim=8), depth=2), path)
    return path


_edits = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]), st.floats(0, 1),
              st.binary(min_size=1, max_size=4)),
    min_size=1, max_size=4,
)


@deterministic
@given(_edits)
@example([("set", 0.0, b"MGIX" + struct.pack("<I", len(DEEP)) + DEEP.encode())])
def test_load_raises_only_typed_errors_on_mutated_bytes(small_index, edits):
    raw = bytearray(small_index.read_bytes())
    for op, where, data in edits:
        at = int(where * len(raw))
        if op == "set":
            raw[at : at + len(data)] = data
        elif op == "insert":
            raw[at:at] = data
        else:
            del raw[at : at + len(data)]
    mutated = small_index.with_name("mutated.mgix")
    mutated.write_bytes(bytes(raw))
    try:
        load(mutated)
    except MgragError:
        pass
