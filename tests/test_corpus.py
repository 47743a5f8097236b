from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from mgrag.corpus import (
    Document,
    corpus_sha256,
    documents_to_jsonl,
    keyword_eval_suite,
    mix_corpora,
    parse_cisi_documents,
    parse_cisi_qrels,
    parse_cisi_queries,
    parse_jsonl_documents,
    parse_jsonl_qrels,
    parse_jsonl_queries,
    qrels_to_jsonl,
    queries_to_jsonl,
    read_cisi_documents,
    read_cisi_qrels,
    read_cisi_queries,
    segment,
    synthesize_corpus,
    validate_qrels,
)
from mgrag.errors import ParseError

DATA = Path(__file__).parent.parent / "data"


# --- marker-format parsing ---------------------------------------------------


def test_marker_documents_extract_title_and_body():
    text = ".I 1\n.T\nA Title\n.W\nFirst line.\nSecond line.\n.I 2\n.W\nOnly body.\n"
    docs = parse_cisi_documents(text)
    assert [d.doc_id for d in docs] == [1, 2]
    assert docs[0].title == "A Title"
    assert docs[0].body == "First line.\nSecond line."
    assert docs[1].title == ""
    assert docs[1].body == "Only body."


def test_marker_unknown_fields_are_ignored():
    text = ".I 1\n.T\nT\n.A\nAn Author\n.W\nBody.\n.X\n1 2 3\n"
    docs = parse_cisi_documents(text)
    assert docs[0].title == "T"
    assert docs[0].body == "Body."


def test_marker_body_keeps_interior_blank_lines():
    text = ".I 1\n.W\npara one.\n\npara two.\n"
    docs = parse_cisi_documents(text)
    assert docs[0].body == "para one.\n\npara two."


@pytest.mark.parametrize(
    "bad_id,message",
    [
        ("x", "bad .I record id"),
        ("0", "must be positive"),
        ("-3", "must be positive"),
        ("100000000", "exceeds"),
    ],
)
def test_marker_bad_record_ids(bad_id, message):
    with pytest.raises(ParseError, match=message):
        parse_cisi_documents(f".I {bad_id}\n.W\nBody.\n")


def test_marker_duplicate_id_names_line():
    with pytest.raises(ParseError, match="line 5: duplicate record id 7"):
        parse_cisi_documents(".I 7\n.W\na\nb\n.I 7\n.W\nc\n")


def test_marker_field_before_record_rejected():
    with pytest.raises(ParseError, match="before any .I record"):
        parse_cisi_documents(".W\norphan text\n")


def test_marker_queries():
    queries = parse_cisi_queries(".I 4\n.W\nwhat about x?\n")
    assert queries == [type(queries[0])(query_id=4, text="what about x?")]


def test_qrels_parse_collapses_duplicates_and_ignores_extra_columns():
    qrels = parse_cisi_qrels(" 1  28 0 0.0\n 1  28 0 0.0\n 1  35 1 2.0\n 2   5\n")
    assert qrels == {1: {28, 35}, 2: {5}}


def test_qrels_single_column_rejected_with_line():
    with pytest.raises(ParseError, match="line 2: expected at least 2 columns"):
        parse_cisi_qrels("1 2\n7\n")


def test_qrels_non_integer_rejected():
    with pytest.raises(ParseError, match="non-integer id"):
        parse_cisi_qrels("1 abc\n")


def test_bundled_sample_parses():
    docs = read_cisi_documents(DATA / "cisi_sample.all")
    queries = read_cisi_queries(DATA / "cisi_sample.qry")
    qrels = read_cisi_qrels(DATA / "cisi_sample.rel")
    assert len(docs) == 30
    assert len(queries) == 30
    assert set(qrels) == {q.query_id for q in queries}
    doc_ids = {d.doc_id for d in docs}
    assert validate_qrels(qrels, doc_ids) == []


# --- JSONL interchange -------------------------------------------------------


def test_jsonl_documents_round_trip():
    docs = [
        Document(doc_id=3, title="t", body="line one.\n\nline two.", domain_tag="news"),
        Document(doc_id=9, title="", body="plain"),
    ]
    again = parse_jsonl_documents(documents_to_jsonl(docs))
    assert again == docs


def test_jsonl_serialization_is_canonical():
    docs = [Document(doc_id=1, title="t", body="b")]
    assert documents_to_jsonl(docs) == documents_to_jsonl(parse_jsonl_documents(documents_to_jsonl(docs)))


def test_jsonl_queries_and_qrels_round_trip():
    queries = parse_jsonl_queries('{"id": 2, "text": "hello"}\n')
    assert queries[0].query_id == 2 and queries[0].text == "hello"
    qrels = {2: {7, 9}, 5: {1}}
    assert parse_jsonl_qrels(qrels_to_jsonl(qrels)) == qrels
    assert parse_jsonl_queries(queries_to_jsonl(queries)) == queries


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"id": 1}', "'body' must be a string"),
        ('{"id": "x", "body": "b"}', "must be an integer"),
        ('{"id": 0, "body": "b"}', "must be in"),
        ("not json", "invalid JSON"),
        ("[1, 2]", "must hold an object"),
    ],
)
def test_jsonl_document_errors(line, message):
    with pytest.raises(ParseError, match=message):
        parse_jsonl_documents(line + "\n")


def test_jsonl_duplicate_document_id_names_line():
    text = '{"id": 5, "body": "a"}\n{"id": 5, "body": "b"}\n'
    with pytest.raises(ParseError, match="line 2: duplicate document id 5"):
        parse_jsonl_documents(text)


def test_jsonl_blank_lines_skipped():
    assert parse_jsonl_documents('\n{"id": 1, "body": "b"}\n\n')[0].doc_id == 1


def test_corpus_sha256_tracks_content():
    a = [Document(doc_id=1, title="t", body="b")]
    b = [Document(doc_id=1, title="t", body="b!")]
    assert corpus_sha256(a) == corpus_sha256(a)
    assert corpus_sha256(a) != corpus_sha256(b)


def test_validate_qrels_reports_dangling_pairs():
    dangling = validate_qrels({1: {10, 20}, 2: {30}}, doc_ids={10, 30})
    assert dangling == [(1, 20)]


# --- segmentation ------------------------------------------------------------


def _doc(body: str, doc_id: int = 1) -> Document:
    return Document(doc_id=doc_id, title="", body=body)


def test_layer1_is_whole_document():
    units = segment(_doc("Some text.\n\nMore."), 1)
    assert len(units) == 1
    assert units[0].text == "Some text.\n\nMore."
    assert units[0].char_span == (0, 17)


def test_layer_sizes_on_two_paragraph_document():
    # two sentences in the first paragraph, one in the second
    units = {layer: segment(_doc("A. B.\n\nC."), layer) for layer in (1, 2, 3)}
    assert [len(units[layer]) for layer in (1, 2, 3)] == [1, 2, 3]
    assert [u.text for u in units[2]] == ["A. B.", "C."]
    assert [u.text for u in units[3]] == ["A.", "B.", "C."]


def test_unit_text_always_matches_char_span():
    body = "First sentence. Second one!\n\n  Indented paragraph? Sure.  \n\nLast."
    doc = _doc(body)
    for layer in range(1, 6):
        for unit in segment(doc, layer):
            start, end = unit.char_span
            assert unit.text == body[start:end]


def test_unit_ids_are_sortable_and_unique():
    doc = _doc("One. Two. Three.\n\nFour five six seven.", doc_id=42)
    ids = [u.unit_id for layer in range(1, 6) for u in segment(doc, layer)]
    assert len(ids) == len(set(ids))
    assert all(uid.startswith("00000042:") for uid in ids)


def test_paragraphs_split_on_blank_lines_and_trim():
    units = segment(_doc("  first para  \n\n\tsecond para\t\n\nthird"), 2)
    assert [u.text for u in units] == ["first para", "second para", "third"]


def test_paragraph_fallback_windows_when_no_blank_lines():
    words = " ".join(f"w{i}" for i in range(150))
    units = segment(_doc(words), 2)
    # 150 tokens at width 64, no overlap: windows of 64, 64, 22
    assert len(units) == 3
    assert units[0].text.split()[:2] == ["w0", "w1"]
    assert units[2].text.split()[0] == "w128"


def test_short_sentence_fragments_merge_forward():
    units = segment(_doc("! Proper sentence here. Done."), 3)
    # "!" has one non-space char, below the floor of 2: it merges into the next
    assert [u.text for u in units] == ["! Proper sentence here.", "Done."]


def test_minimal_sentences_survive_at_default_floor():
    units = segment(_doc("A. B.\n\nC."), 3)
    assert [u.text for u in units] == ["A.", "B.", "C."]


def test_trailing_short_fragment_merges_backward():
    units = segment(_doc("Proper sentence here. A"), 3)
    assert [u.text for u in units] == ["Proper sentence here. A"]


def test_window_layers_cover_all_tokens_with_half_overlap():
    words = " ".join(f"tok{i}" for i in range(40))
    doc = _doc(words)
    for layer, width in ((4, 16), (5, 8)):
        units = segment(doc, layer)
        first = units[0].text.split()
        assert len(first) == width
        # stride is half the width
        assert units[1].text.split()[0] == f"tok{width // 2}"
        assert units[-1].text.split()[-1] == "tok39"


def test_window_shorter_than_width_yields_single_unit():
    units = segment(_doc("only three words"), 5)
    assert len(units) == 1
    assert units[0].text == "only three words"


def test_empty_body_yields_no_units():
    assert segment(_doc("   \n\n  "), 3) == []


def test_segment_rejects_bad_layer():
    with pytest.raises(ValueError, match="layer"):
        segment(_doc("x"), 6)


def test_segmentation_is_deterministic():
    doc = _doc("Alpha beta. Gamma!\n\nDelta epsilon zeta eta theta.")
    for layer in range(1, 6):
        assert segment(doc, layer) == segment(doc, layer)


# --- mixing and synthesis ----------------------------------------------------


def _tagged(n: int, start: int, tag: str) -> list[Document]:
    return [Document(doc_id=start + i, title="", body=f"doc {i}", domain_tag=tag) for i in range(n)]


def test_mix_ratio_zero_takes_only_first_source():
    a, b = _tagged(10, 1, "a"), _tagged(10, 100, "b")
    mixed = mix_corpora([(a, "A"), (b, "B")], ratio=0.0, size=8, seed=0)
    assert len(mixed) == 8
    assert all(d.domain_tag == "A" for d in mixed)


def test_mix_ratio_one_takes_only_second_source():
    a, b = _tagged(10, 1, "a"), _tagged(10, 100, "b")
    mixed = mix_corpora([(a, "A"), (b, "B")], ratio=1.0, size=8, seed=0)
    assert all(d.domain_tag == "B" for d in mixed)


def test_mix_counts_use_floor_and_preserve_source_order():
    a, b = _tagged(20, 1, "a"), _tagged(20, 100, "b")
    mixed = mix_corpora([(a, "A"), (b, "B")], ratio=0.3, size=10, seed=1)
    tags = [d.domain_tag for d in mixed]
    assert tags == ["A"] * 7 + ["B"] * 3
    ids = [d.doc_id for d in mixed]
    assert ids[:7] == sorted(ids[:7]) and ids[7:] == sorted(ids[7:])


def test_mix_is_seeded_and_deterministic():
    a, b = _tagged(20, 1, "a"), _tagged(20, 100, "b")
    kwargs = dict(ratio=0.5, size=10)
    assert mix_corpora([(a, "A"), (b, "B")], seed=3, **kwargs) == mix_corpora(
        [(a, "A"), (b, "B")], seed=3, **kwargs
    )
    assert mix_corpora([(a, "A"), (b, "B")], seed=3, **kwargs) != mix_corpora(
        [(a, "A"), (b, "B")], seed=4, **kwargs
    )


def test_mix_swapped_sources_mirror_counts_on_integral_ratios():
    a, b = _tagged(20, 1, "a"), _tagged(20, 100, "b")
    rng = np.random.default_rng(11)
    for _ in range(20):
        size = int(rng.integers(2, 15))
        n_b = int(rng.integers(0, size + 1))
        ratio = n_b / size  # integral ratio * size by construction
        fwd = mix_corpora([(a, "A"), (b, "B")], ratio=ratio, size=size, seed=0)
        rev = mix_corpora([(b, "B"), (a, "A")], ratio=1.0 - ratio, size=size, seed=0)
        count = lambda docs, tag: sum(d.domain_tag == tag for d in docs)
        assert count(fwd, "A") == count(rev, "A")
        assert count(fwd, "B") == count(rev, "B")


def test_mix_rejects_id_collisions():
    a = _tagged(5, 1, "a")
    b = _tagged(5, 3, "b")  # ids 3..7 overlap ids 1..5
    with pytest.raises(ValueError, match="collide"):
        mix_corpora([(a, "A"), (b, "B")], ratio=0.5, size=4, seed=0)


def test_mix_rejects_oversized_requests():
    a, b = _tagged(3, 1, "a"), _tagged(3, 100, "b")
    with pytest.raises(ValueError, match="need"):
        mix_corpora([(a, "A"), (b, "B")], ratio=0.0, size=5, seed=0)


def test_synthesize_corpus_is_deterministic_and_multi_paragraph():
    docs = synthesize_corpus(12, seed=5)
    again = synthesize_corpus(12, seed=5)
    assert docs == again
    assert len(docs) == 12
    assert all("\n\n" in d.body for d in docs)
    assert len({d.doc_id for d in docs}) == 12


def test_keyword_suite_plants_each_keyword_in_exactly_one_document():
    docs, queries, qrels = keyword_eval_suite(n_queries=12, seed=2)
    assert len(docs) == len(queries) == len(qrels) == 12
    for query in queries:
        keyword = query.text.split()[2]
        holders = [d.doc_id for d in docs if keyword in d.body]
        assert holders == sorted(qrels[query.query_id])


def test_keyword_suite_jsonl_round_trip():
    docs, queries, qrels = keyword_eval_suite(n_queries=4, seed=0)
    assert parse_jsonl_documents(documents_to_jsonl(docs)) == docs
    assert parse_jsonl_queries(queries_to_jsonl(queries)) == queries
    assert parse_jsonl_qrels(qrels_to_jsonl(qrels)) == qrels
