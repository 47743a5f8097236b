from __future__ import annotations

import json
import math
import os
import struct

import numpy as np
import pytest

from mgrag.cli import main
from mgrag.corpus import Document, corpus_sha256, keyword_eval_suite, synthesize_corpus
from mgrag.embedder import EmbedderSpec
from mgrag.errors import BuildError, IndexFormatError
from mgrag.memory import FORMAT_VERSION, LayerMemory, build, load, save, search_layer


# Reference scan, written before the index was wired up: exact arithmetic via
# fsum, explicit (-sim, unit_id) sort, no shared code with the implementation.
def brute_force_topk(unit_ids, vectors, query, k):
    scored = []
    for uid, row in zip(unit_ids, vectors):
        sim = math.fsum(float(a) * float(b) for a, b in zip(row, query))
        scored.append((uid, sim))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def _unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _toy_memory(vectors, layer=1):
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    return LayerMemory(
        layer=layer,
        unit_ids=[f"{i + 1:08d}:{layer}:00000" for i in range(n)],
        doc_ids=np.arange(1, n + 1, dtype=np.int64),
        vectors=vectors,
    )


def test_search_matches_reference_scan_on_random_layers():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        dim = int(rng.integers(8, 24))
        mem = _toy_memory(_unit_rows(rng, n, dim))
        query = rng.standard_normal(dim)
        query /= np.linalg.norm(query)
        k = int(rng.integers(1, 12))
        hits = search_layer(mem, query, k)
        expected = brute_force_topk(mem.unit_ids, mem.vectors, query, k)
        assert [h.unit_id for h in hits] == [uid for uid, _ in expected], f"trial {trial}"
        for hit, (_, sim) in zip(hits, expected):
            assert abs(hit.sim - sim) < 1e-12


def test_search_ties_break_by_ascending_unit_id():
    vec = np.zeros(8)
    vec[0] = 1.0
    mem = _toy_memory(np.stack([vec, vec, vec]))
    hits = search_layer(mem, vec, 3)
    assert [h.unit_id for h in hits] == sorted(h.unit_id for h in hits)
    assert all(abs(h.sim - 1.0) < 1e-12 for h in hits)


def test_search_keeps_every_tie_on_the_kth_score_and_orders_it_by_unit_id():
    # rows 2..8 tie on the 3rd-best sim, with ids shuffled against row order
    top, tied, low = np.eye(8)[0], np.eye(8)[0] * 0.5, np.eye(8)[0] * 0.25
    vectors = np.stack([low, top, *[tied] * 7, low, top])
    ids = ["u09", "u10", "u07", "u03", "u08", "u05", "u02", "u06", "u04", "u01", "u11"]
    mem = LayerMemory(layer=1, unit_ids=ids, doc_ids=np.arange(11, dtype=np.int64),
                      vectors=vectors)
    by_k = {k: [h.unit_id for h in search_layer(mem, np.eye(8)[0], k)] for k in range(1, 12)}
    ranked = ["u10", "u11", "u02", "u03", "u04", "u05", "u06", "u07", "u08", "u01", "u09"]
    assert by_k == {k: ranked[:k] for k in range(1, 12)}


def test_search_identity_case():
    e1 = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
    e2 = np.array([0, 1.0, 0, 0, 0, 0, 0, 0])
    mem = _toy_memory(np.stack([e1, e2]))
    hits = search_layer(mem, e1, 1)
    assert len(hits) == 1
    assert hits[0].unit_id == "00000001:1:00000"
    assert hits[0].sim == pytest.approx(1.0, abs=1e-15)


def test_search_k_larger_than_layer_returns_everything():
    rng = np.random.default_rng(1)
    mem = _toy_memory(_unit_rows(rng, 5, 8))
    assert len(search_layer(mem, _unit_rows(rng, 1, 8)[0], 50)) == 5


def test_search_zero_query_returns_empty():
    mem = _toy_memory(np.eye(8))
    assert search_layer(mem, np.zeros(8), 3) == []


def test_search_validations():
    mem = _toy_memory(np.eye(8))
    with pytest.raises(ValueError, match="k must be"):
        search_layer(mem, np.ones(8), 0)
    with pytest.raises(ValueError, match="dim"):
        search_layer(mem, np.ones(4), 1)
    with pytest.raises(ValueError, match="finite"):
        search_layer(mem, np.full(8, np.nan), 1)


def test_sim_is_symmetric_for_equal_vectors():
    rng = np.random.default_rng(2)
    v = _unit_rows(rng, 1, 16)[0]
    mem = _toy_memory(v[None, :])
    assert search_layer(mem, v, 1)[0].sim == pytest.approx(float(v @ v), abs=1e-15)


def test_layer_memory_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="agree"):
        LayerMemory(layer=1, unit_ids=["a"], doc_ids=np.array([1, 2]), vectors=np.eye(2))


# --- build -------------------------------------------------------------------


def test_build_single_doc_depth_one():
    hier = build([Document(doc_id=1, title="", body="hello world")], EmbedderSpec(dim=16), depth=1)
    assert hier.depth == 1
    assert hier.layer(1).n_units == 1
    assert hier.manifest.unit_counts == {1: 1}


def test_build_layer_sizes_follow_segmentation():
    hier = build([Document(doc_id=1, title="", body="A. B.\n\nC.")], EmbedderSpec(dim=16), depth=3)
    assert [hier.layer(l).n_units for l in (1, 2, 3)] == [1, 2, 3]


def test_build_counts_and_skips_degenerate_units():
    docs = [
        Document(doc_id=1, title="", body="real words here"),
        Document(doc_id=2, title="", body="??? !!!"),  # tokenizes to nothing
    ]
    hier = build(docs, EmbedderSpec(dim=16), depth=1)
    assert hier.layer(1).n_units == 1
    assert hier.manifest.degenerate_counts == {1: 1}
    assert hier.manifest.n_documents == 2


def test_build_warns_once_per_empty_document(caplog):
    docs = [
        Document(doc_id=1, title="", body="real words here"),
        Document(doc_id=2, title="", body="  \n "),
        Document(doc_id=3, title="", body=""),
    ]
    with caplog.at_level("WARNING", logger="mgrag"):
        hier = build(docs, EmbedderSpec(dim=16), depth=5)
    warned = [r.getMessage() for r in caplog.records if "empty body" in r.getMessage()]
    assert warned == ["document 2 has an empty body; skipped",
                      "document 3 has an empty body; skipped"]
    assert set(hier.layer(5).doc_ids.tolist()) == {1}


def test_build_fails_on_zero_indexable_units():
    with pytest.raises(BuildError, match="zero indexable"):
        build([Document(doc_id=1, title="", body="!!!")], EmbedderSpec(dim=16), depth=1)


def test_build_validations():
    with pytest.raises(BuildError, match="empty"):
        build([], EmbedderSpec(dim=16), depth=1)
    doc = Document(doc_id=1, title="", body="x")
    with pytest.raises(ValueError, match="depth"):
        build([doc], EmbedderSpec(dim=16), depth=0)
    with pytest.raises(ValueError, match="depth"):
        build([doc], EmbedderSpec(dim=16), depth=6)


def test_manifest_hashes_track_inputs():
    docs, _, _ = keyword_eval_suite(n_queries=3, seed=0)
    spec = EmbedderSpec(dim=16)
    h1 = build(docs, spec, depth=2)
    assert h1.manifest.corpus_sha256 == corpus_sha256(docs)
    h2 = build(docs, EmbedderSpec(dim=32), depth=2)
    assert h1.manifest.config_sha256 != h2.manifest.config_sha256
    h3 = build(docs, spec, depth=3)
    assert h1.manifest.config_sha256 != h3.manifest.config_sha256


def test_docs_reachable_at_depth_l_subset_of_depth_l_plus_one():
    docs = synthesize_corpus(15, seed=4)
    spec = EmbedderSpec(dim=32)
    query = "ba ce di fo"
    from mgrag.embedder import embed

    reachable = []
    for depth in (1, 2, 3, 4):
        hier = build(docs, spec, depth=depth)
        found = set()
        for layer_no in range(1, depth + 1):
            for hit in search_layer(hier.layer(layer_no), embed(query, layer_no, spec), 5):
                found.add(hit.doc_id)
        reachable.append(found)
    for smaller, larger in zip(reachable, reachable[1:]):
        assert smaller <= larger


# --- persistence -------------------------------------------------------------


def _sample_hier(depth=3, dim=16):
    docs, _, _ = keyword_eval_suite(n_queries=5, seed=1)
    return build(docs, EmbedderSpec(dim=dim), depth=depth), docs


def test_save_load_round_trip_preserves_search(tmp_path):
    hier, _ = _sample_hier()
    path = tmp_path / "index.bin"
    save(hier, path)
    again = load(path)
    assert again.depth == hier.depth
    assert again.manifest == hier.manifest
    assert again.embedder_spec == hier.embedder_spec
    from mgrag.embedder import embed

    query = embed("find the report", 2, hier.embedder_spec)
    before = search_layer(hier.layer(2), query, 5)
    after = search_layer(again.layer(2), query, 5)
    assert [(h.unit_id, h.doc_id) for h in before] == [(h.unit_id, h.doc_id) for h in after]
    assert all(a.sim == b.sim for a, b in zip(before, after))  # bit-exact


@pytest.mark.parametrize("pad", range(8))
def test_load_gives_aligned_writable_float64_rows_at_any_block_offset(tmp_path, pad):
    # trailing header whitespace moves the vector block to every offset modulo 8
    hier, _ = _sample_hier(depth=2)
    path = tmp_path / "index.bin"
    save(hier, path)
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[4:8])
    header = raw[8 : 8 + n] + b" " * ((pad - 8 - n) % 8)
    path.write_bytes(raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + n :])
    assert (8 + len(header)) % 8 == pad
    for before, after in zip(hier.layers, load(path).layers):
        flags = after.vectors.flags
        assert flags.c_contiguous and flags.aligned and flags.writeable
        assert after.vectors.dtype == np.float64
        assert np.array_equal(after.vectors, before.vectors)


@pytest.mark.parametrize("source", ["device", "pipe"])
def test_load_rejects_a_file_that_is_not_regular(tmp_path, source):
    # sizes are checked against the file's size, which a device or pipe does not report
    hier, _ = _sample_hier(depth=1)
    save(hier, tmp_path / "index.bin")
    if source == "device":
        with pytest.raises(IndexFormatError, match="not a regular file"):
            load(os.devnull)
        return
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (tmp_path / "index.bin").read_bytes()[:4096])
        with pytest.raises(IndexFormatError, match="not a regular file"):
            load(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
        os.close(write_end)


def test_rebuild_and_save_is_byte_identical(tmp_path):
    docs, _, _ = keyword_eval_suite(n_queries=4, seed=2)
    paths = []
    for name in ("a.bin", "b.bin"):
        hier = build(docs, EmbedderSpec(dim=16), depth=2)
        path = tmp_path / name
        save(hier, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(IndexFormatError, match="magic"):
        load(path)


def test_load_rejects_truncated_header(tmp_path):
    hier, _ = _sample_hier(depth=1)
    path = tmp_path / "index.bin"
    save(hier, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:20])
    with pytest.raises(IndexFormatError, match="truncated"):
        load(path)


def test_load_rejects_truncated_vectors(tmp_path):
    hier, _ = _sample_hier(depth=1)
    path = tmp_path / "index.bin"
    save(hier, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(IndexFormatError, match="truncated vector block"):
        load(path)


def test_load_rejects_version_bump(tmp_path):
    hier, _ = _sample_hier(depth=1)
    path = tmp_path / "index.bin"
    save(hier, path)
    raw = path.read_bytes()
    mutated = raw.replace(
        f'"format_version":{FORMAT_VERSION}'.encode(),
        f'"format_version":{FORMAT_VERSION + 1}'.encode(),
        1,
    )
    assert mutated != raw
    path.write_bytes(mutated)
    with pytest.raises(IndexFormatError, match="version"):
        load(path)


def _rewrite_header(raw: bytes, edit) -> bytes:
    (n,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + n])
    edit(header)
    body = json.dumps(header).encode()
    return raw[:4] + struct.pack("<I", len(body)) + body + raw[8 + n :]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda raw: _rewrite_header(raw, lambda h: h.pop("dim")), "KeyError: 'dim'"),
        (lambda raw: _rewrite_header(raw, lambda h: h.update(dim=-16)),
         "header dim -16 is not a positive integer"),
        (lambda raw: raw[:-8] + struct.pack("<d", math.nan), "non-finite"),
        (lambda raw: raw + b"\0", "1 bytes after the last vector block"),
        (lambda raw: _rewrite_header(raw, lambda h: h.update(depth=5)),
         r"depth 5 but layers numbered \[1, 2\]"),
        (lambda raw: _rewrite_header(raw, lambda h: h.update(depth=1)),
         r"depth 1 but layers numbered \[1, 2\]"),
        (lambda raw: _rewrite_header(raw, lambda h: h["layers"][1].update(layer=7)),
         r"depth 2 but layers numbered \[1, 7\]"),
        (lambda raw: _rewrite_header(raw, lambda h: h["embedder_spec"].update(dim=32)),
         "header dim 16 but embedder dim 32"),
        (lambda raw: _rewrite_header(raw, lambda h: h["seg_spec"].update(window_tokens_l4=32)),
         "segmentation rules"),
        (lambda raw: raw[:4] + struct.pack("<I", 100_000) + b"[" * 100_000, "unreadable header"),
    ],
    ids=["missing-header-key", "negative-dim", "nan-row", "trailing-bytes", "depth-above-layers",
         "depth-below-layers", "layer-renumbered", "dim-mismatch", "seg-spec-changed",
         "deep-header"],
)
def test_load_rejects_malformed_index(tmp_path, capsys, mutate, message):
    hier, _ = _sample_hier(depth=2)
    path = tmp_path / "index.bin"
    save(hier, path)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(IndexFormatError, match=message):
        load(path)
    # the CLI turns it into exit 1 with a one-line error, never a traceback
    assert main(["query", "--index", str(path), "--text", "report"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
