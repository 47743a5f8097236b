"""Corpus ingestion and layered segmentation.

Three input routes feed the index: Cranfield-style marker files (``.I`` /
``.T`` / ``.W`` ...), JSONL records, and generated synthetic corpora.
Documents are split into granularity layers 1..5 (document, paragraphs,
sentences, 16-token windows, 8-token windows) and tagged corpora can be
mixed at a controlled ratio for domain-sensitivity sweeps.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError

log = logging.getLogger(__name__)

MAX_DEPTH = 5
# unit ids zero-pad doc ids to 8 digits so lexicographic order == numeric order
MAX_DOC_ID = 99_999_999


@dataclass(frozen=True)
class Document:
    """One corpus document; ``domain_tag`` records its source in mixed corpora."""

    doc_id: int
    title: str
    body: str
    domain_tag: str = "default"


@dataclass(frozen=True)
class Query:
    query_id: int
    text: str


@dataclass(frozen=True)
class GranularUnit:
    """A text span of one document at one granularity layer.

    ``text`` is always exactly ``parent.body[char_span[0]:char_span[1]]``.
    """

    unit_id: str
    doc_id: int
    layer: int
    text: str
    char_span: tuple[int, int]


# Segmentation rules, the same for every index. Layer 1 is the whole document.
# Layer 2 splits on blank lines, or cuts PARAGRAPH_FALLBACK_TOKENS-token windows
# when the body has none. Layer 3 splits after sentence terminators; a fragment
# with fewer than SENTENCE_MIN_CHARS non-space characters merges into the next.
# Layers 4 and 5 slide WINDOW_TOKENS[layer]-token windows with 50% overlap.
PARAGRAPH_FALLBACK_TOKENS = 64
SENTENCE_MIN_CHARS = 2
WINDOW_TOKENS = {4: 16, 5: 8}
# the rules as index headers and the config hash record them
SEGMENTATION_RULES = {"paragraph_fallback_tokens": PARAGRAPH_FALLBACK_TOKENS,
                      "sentence_min_chars": SENTENCE_MIN_CHARS,
                      "window_tokens_l4": WINDOW_TOKENS[4], "window_tokens_l5": WINDOW_TOKENS[5]}

_MARKER_RE = re.compile(r"^\.([A-Z])(\s+(.*))?$")
_TOKEN_RE = re.compile(r"\S+")
_SENT_END_RE = re.compile(r"[.!?]+(?=\s|$)")


def _parse_marker_records(text: str) -> list[tuple[int, dict[str, str]]]:
    """Split Cranfield-style marker text into ``.I`` records.

    Returns (id, {field letter: joined content}) per record, in file order.
    """
    records: list[tuple[int, dict[str, list[str]]]] = []
    seen: set[int] = set()
    fields: dict[str, list[str]] | None = None
    active: str | None = None
    for line_no, line in enumerate(text.splitlines(), 1):
        m = _MARKER_RE.match(line)
        if m and m.group(1) == "I":
            raw = (m.group(3) or "").strip()
            try:
                rec_id = int(raw)
            except ValueError:
                raise ParseError(f"bad .I record id {raw!r}", line=line_no)
            if rec_id <= 0:
                raise ParseError(f"record id must be positive, got {rec_id}", line=line_no)
            if rec_id > MAX_DOC_ID:
                raise ParseError(f"record id {rec_id} exceeds {MAX_DOC_ID}", line=line_no)
            if rec_id in seen:
                raise ParseError(f"duplicate record id {rec_id}", line=line_no)
            seen.add(rec_id)
            fields = {}
            active = None
            records.append((rec_id, fields))
        elif m:
            if fields is None:
                raise ParseError(f"field marker .{m.group(1)} before any .I record", line=line_no)
            active = m.group(1)
            fields.setdefault(active, [])
            rest = (m.group(3) or "").strip()
            if rest:
                fields[active].append(rest)
        elif fields is not None and active is not None:
            fields[active].append(line)
        # text before the first marker (or between .I and the first field) is ignored
    return [
        (rec_id, {key: "\n".join(lines).strip() for key, lines in rec_fields.items()})
        for rec_id, rec_fields in records
    ]


def parse_cisi_documents(text: str) -> list[Document]:
    """Parse a CISI.ALL-style stream: title from ``.T``, body from ``.W``.

    ``.A`` and ``.X`` content is dropped; record order is preserved.
    """
    docs = []
    for doc_id, fields in _parse_marker_records(text):
        docs.append(
            Document(doc_id=doc_id, title=fields.get("T", ""), body=fields.get("W", ""))
        )
    return docs


def parse_cisi_queries(text: str) -> list[Query]:
    """Parse a CISI.QRY-style stream; query text comes from ``.W``."""
    return [Query(query_id=rid, text=fields.get("W", "")) for rid, fields in _parse_marker_records(text)]


def parse_cisi_qrels(text: str) -> dict[int, set[int]]:
    """Parse whitespace-column qrels: column 1 query id, column 2 doc id.

    Extra columns are ignored and duplicate pairs collapse.
    """
    qrels: dict[int, set[int]] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        cols = line.split()
        if not cols:
            continue
        if len(cols) < 2:
            raise ParseError(f"expected at least 2 columns, got {len(cols)}", line=line_no)
        try:
            query_id = int(cols[0])
            doc_id = int(cols[1])
        except ValueError:
            raise ParseError(f"non-integer id in {cols[:2]}", line=line_no)
        qrels.setdefault(query_id, set()).add(doc_id)
    return qrels


def _read_text(path: str | Path) -> str:
    # lossy fallback: stray non-UTF-8 bytes become U+FFFD instead of failing
    return Path(path).read_text(encoding="utf-8", errors="replace")


def read_cisi_documents(path: str | Path) -> list[Document]:
    return parse_cisi_documents(_read_text(path))


def read_cisi_queries(path: str | Path) -> list[Query]:
    return parse_cisi_queries(_read_text(path))


def read_cisi_qrels(path: str | Path) -> dict[int, set[int]]:
    return parse_cisi_qrels(_read_text(path))


# --- JSONL interchange -----------------------------------------------------
# documents: {"id": int, "title": str?, "body": str, "domain": str?}
# queries:   {"id": int, "text": str}
# qrels:     {"query_id": int, "doc_id": int}


def _jsonl_rows(text: str) -> Iterable[tuple[int, dict]]:
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=line_no)
        if not isinstance(row, dict):
            raise ParseError("each JSONL line must hold an object", line=line_no)
        yield line_no, row


def _require_int(row: dict, key: str, line_no: int) -> int:
    value = row.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{key!r} must be an integer, got {value!r}", line=line_no)
    if value <= 0 or value > MAX_DOC_ID:
        raise ParseError(f"{key!r} must be in [1, {MAX_DOC_ID}], got {value}", line=line_no)
    return value


def parse_jsonl_documents(text: str) -> list[Document]:
    docs = []
    seen: set[int] = set()
    for line_no, row in _jsonl_rows(text):
        doc_id = _require_int(row, "id", line_no)
        if doc_id in seen:
            raise ParseError(f"duplicate document id {doc_id}", line=line_no)
        seen.add(doc_id)
        body = row.get("body")
        if not isinstance(body, str):
            raise ParseError("'body' must be a string", line=line_no)
        docs.append(
            Document(
                doc_id=doc_id,
                title=str(row.get("title", "")),
                body=body,
                domain_tag=str(row.get("domain", "default")),
            )
        )
    return docs


def parse_jsonl_queries(text: str) -> list[Query]:
    queries = []
    seen: set[int] = set()
    for line_no, row in _jsonl_rows(text):
        query_id = _require_int(row, "id", line_no)
        if query_id in seen:
            raise ParseError(f"duplicate query id {query_id}", line=line_no)
        seen.add(query_id)
        text_value = row.get("text")
        if not isinstance(text_value, str):
            raise ParseError("'text' must be a string", line=line_no)
        queries.append(Query(query_id=query_id, text=text_value))
    return queries


def parse_jsonl_qrels(text: str) -> dict[int, set[int]]:
    qrels: dict[int, set[int]] = {}
    for line_no, row in _jsonl_rows(text):
        query_id = _require_int(row, "query_id", line_no)
        doc_id = _require_int(row, "doc_id", line_no)
        qrels.setdefault(query_id, set()).add(doc_id)
    return qrels


def documents_to_jsonl(docs: Sequence[Document]) -> str:
    lines = []
    for doc in docs:
        row = {"id": doc.doc_id, "title": doc.title, "body": doc.body, "domain": doc.domain_tag}
        lines.append(json.dumps(row, ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def queries_to_jsonl(queries: Sequence[Query]) -> str:
    lines = [
        json.dumps({"id": q.query_id, "text": q.text}, ensure_ascii=False, sort_keys=True)
        for q in queries
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def qrels_to_jsonl(qrels: dict[int, set[int]]) -> str:
    lines = []
    for query_id in sorted(qrels):
        for doc_id in sorted(qrels[query_id]):
            lines.append(json.dumps({"doc_id": doc_id, "query_id": query_id}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def read_jsonl_documents(path: str | Path) -> list[Document]:
    return parse_jsonl_documents(_read_text(path))


def read_jsonl_queries(path: str | Path) -> list[Query]:
    return parse_jsonl_queries(_read_text(path))


def read_jsonl_qrels(path: str | Path) -> dict[int, set[int]]:
    return parse_jsonl_qrels(_read_text(path))


def corpus_sha256(docs: Sequence[Document]) -> str:
    """Stable content hash of a corpus (canonical JSONL form)."""
    return hashlib.sha256(documents_to_jsonl(docs).encode("utf-8")).hexdigest()


def validate_qrels(qrels: dict[int, set[int]], doc_ids: set[int]) -> list[tuple[int, int]]:
    """Return (query_id, doc_id) qrel pairs that point at unknown documents."""
    return [
        (query_id, doc_id)
        for query_id in sorted(qrels)
        for doc_id in sorted(qrels[query_id])
        if doc_id not in doc_ids
    ]


# --- segmentation ----------------------------------------------------------


def _unit(doc: Document, layer: int, seq: int, start: int, end: int) -> GranularUnit:
    return GranularUnit(
        unit_id=f"{doc.doc_id:08d}:{layer}:{seq:05d}",
        doc_id=doc.doc_id,
        layer=layer,
        text=doc.body[start:end],
        char_span=(start, end),
    )


def _trim_span(body: str, start: int, end: int) -> tuple[int, int] | None:
    """Shrink [start, end) to its non-space extent; None if all whitespace."""
    while start < end and body[start].isspace():
        start += 1
    while end > start and body[end - 1].isspace():
        end -= 1
    return (start, end) if start < end else None


def _paragraph_spans(body: str) -> list[tuple[int, int]]:
    blank = re.compile(r"\n[ \t]*\n")
    if not blank.search(body):
        return _window_spans(body, PARAGRAPH_FALLBACK_TOKENS, overlap=False)
    spans = []
    pos = 0
    for m in blank.finditer(body):
        spans.append((pos, m.start()))
        pos = m.end()
    spans.append((pos, len(body)))
    trimmed = [_trim_span(body, s, e) for s, e in spans]
    return [span for span in trimmed if span is not None]


def _sentence_spans(body: str) -> list[tuple[int, int]]:
    cuts = [m.end() for m in _SENT_END_RE.finditer(body)]
    if not cuts or cuts[-1] < len(body):
        cuts.append(len(body))
    pieces = []
    pos = 0
    for cut in cuts:
        span = _trim_span(body, pos, cut)
        if span is not None:
            pieces.append(span)
        pos = cut
    # short fragments do not end a sentence: merge forward, trailing ones backward
    merged: list[tuple[int, int]] = []
    carry: int | None = None
    for start, end in pieces:
        if carry is not None:
            start = carry
            carry = None
        non_space = sum(1 for ch in body[start:end] if not ch.isspace())
        if non_space < SENTENCE_MIN_CHARS:
            carry = start
        else:
            merged.append((start, end))
    if carry is not None:
        if merged:
            merged[-1] = (merged[-1][0], pieces[-1][1])
        else:
            merged.append((carry, pieces[-1][1]))
    return merged


def _window_spans(body: str, width: int, overlap: bool) -> list[tuple[int, int]]:
    tokens = [(m.start(), m.end()) for m in _TOKEN_RE.finditer(body)]
    if not tokens:
        return []
    stride = max(1, width // 2) if overlap else width
    spans = []
    pos = 0
    while True:
        window = tokens[pos : pos + width]
        spans.append((window[0][0], window[-1][1]))
        if pos + width >= len(tokens):
            break
        pos += stride
    return spans


def segment(doc: Document, layer: int) -> list[GranularUnit]:
    """Split one document into layer-``layer`` units with exact char spans."""
    if not 1 <= layer <= MAX_DEPTH:
        raise ValueError(f"layer must be in [1, {MAX_DEPTH}], got {layer}")
    if not doc.body.strip():
        log.warning("document %d has an empty body; skipped", doc.doc_id)
        return []
    if layer == 1:
        spans = [(0, len(doc.body))]
    elif layer == 2:
        spans = _paragraph_spans(doc.body)
    elif layer == 3:
        spans = _sentence_spans(doc.body)
    else:
        spans = _window_spans(doc.body, WINDOW_TOKENS[layer], overlap=True)
    return [_unit(doc, layer, seq, start, end) for seq, (start, end) in enumerate(spans)]


# --- mixing and synthesis --------------------------------------------------


def mix_corpora(
    corpora: Sequence[tuple[Sequence[Document], str]],
    ratio: float,
    size: int,
    seed: int,
) -> list[Document]:
    """Sample a mixed corpus from two tagged sources.

    Takes floor(ratio * size) documents from the second source and the rest
    from the first, each retagged with its source's domain tag.  Sampling is
    seeded and order-stable: picked documents keep their source order, first
    source before second.
    """
    if len(corpora) != 2:
        raise ValueError(f"exactly two tagged corpora required, got {len(corpora)}")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    (docs_a, tag_a), (docs_b, tag_b) = corpora
    n_b = int(np.floor(ratio * size + 1e-9))
    n_a = size - n_b
    if n_a > len(docs_a):
        raise ValueError(f"source {tag_a!r} has {len(docs_a)} documents, need {n_a}")
    if n_b > len(docs_b):
        raise ValueError(f"source {tag_b!r} has {len(docs_b)} documents, need {n_b}")
    rng = np.random.default_rng(seed)
    picked_a = sorted(rng.choice(len(docs_a), size=n_a, replace=False).tolist())
    picked_b = sorted(rng.choice(len(docs_b), size=n_b, replace=False).tolist())
    mixed = [replace(docs_a[i], domain_tag=tag_a) for i in picked_a]
    mixed += [replace(docs_b[i], domain_tag=tag_b) for i in picked_b]
    ids = [doc.doc_id for doc in mixed]
    if len(set(ids)) != len(ids):
        clash = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"document ids collide across sources: {clash[:5]}")
    return mixed


_SYLLABLES = [
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
    "na", "pe", "qi", "ro", "su", "ta", "ve", "wi", "xo", "zu",
]


def _word(rng: np.random.Generator, n_syllables: int = 3) -> str:
    return "".join(_SYLLABLES[rng.integers(len(_SYLLABLES))] for _ in range(n_syllables))


def _distinct_words(rng: np.random.Generator, n: int) -> list[str]:
    """Draw four-syllable words until ``n`` are distinct; first-drawn order."""
    words: dict[str, None] = {}
    while len(words) < n:
        words.setdefault(_word(rng, 4))
    return list(words)


def synthesize_corpus(
    n_docs: int,
    seed: int = 0,
    domain_tag: str = "synthetic",
    id_start: int = 100_001,
    vocab_size: int = 120,
) -> list[Document]:
    """Generate a deterministic corpus of short multi-paragraph documents."""
    rng = np.random.default_rng(seed)
    vocab = [_word(rng) for _ in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        paragraphs = []
        for _ in range(int(rng.integers(2, 4))):
            sentences = []
            for _ in range(int(rng.integers(2, 5))):
                k = int(rng.integers(5, 11))
                words = [vocab[int(j)] for j in rng.integers(0, vocab_size, size=k)]
                sentences.append(" ".join(words).capitalize() + ".")
            paragraphs.append(" ".join(sentences))
        title_words = [vocab[int(j)] for j in rng.integers(0, vocab_size, size=3)]
        docs.append(
            Document(
                doc_id=id_start + i,
                title=" ".join(title_words),
                body="\n\n".join(paragraphs),
                domain_tag=domain_tag,
            )
        )
    return docs


def keyword_eval_suite(
    n_queries: int = 40,
    seed: int = 0,
    id_start: int = 1,
    domain_tag: str = "synthetic",
) -> tuple[list[Document], list[Query], dict[int, set[int]]]:
    """Build a corpus where each query's keyword occurs in exactly one document.

    The returned qrels mark that document as the sole relevant one, so a
    working retriever scores perfect recall on this suite.
    """
    rng = np.random.default_rng(seed)
    keywords = _distinct_words(rng, n_queries)
    docs = []
    queries = []
    qrels: dict[int, set[int]] = {}
    for i, keyword in enumerate(keywords):
        filler = [_word(rng) for _ in range(6)]
        body = (
            f"{keyword} report covering {keyword} in detail. "
            f"{' '.join(filler[:3]).capitalize()}.\n\n"
            f"Additional notes on {keyword} follow. {' '.join(filler[3:]).capitalize()}."
        )
        doc_id = id_start + i
        docs.append(Document(doc_id=doc_id, title=f"{keyword} report", body=body, domain_tag=domain_tag))
        query_id = i + 1
        queries.append(Query(query_id=query_id, text=f"find the {keyword} report"))
        qrels[query_id] = {doc_id}
    return docs, queries, qrels
