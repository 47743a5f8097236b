"""Input records, their readers, and layered segmentation.

Three input routes feed the index: Cranfield-style marker files (``.I`` /
``.T`` / ``.W`` ...), JSONL records, and generated synthetic corpora; the
answer model's QA rows are JSONL records too.
Documents are split into granularity layers 1..5 (document, paragraphs,
sentences, 16-token windows, 8-token windows) and tagged corpora can be
mixed at a controlled ratio for domain-sensitivity sweeps.
Segmentation is span arithmetic: paragraphs and sentences are the trimmed,
non-blank pieces between regex cuts, and a window layer's starts are a
``range`` whose last start is computed in closed form.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import ParseError, require_type

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

    def __post_init__(self):
        require_type("query_id", self.query_id, "int")
        require_type("text", self.text, "str")


@dataclass(frozen=True)
class QAExample:
    query: Query
    gold: int

    def __post_init__(self):
        if self.gold < 0:
            raise ValueError(f"gold must be >= 0, got {self.gold}")


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
_BLANK_LINE_RE = re.compile(r"\n[ \t]*\n")


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
            _check_id_range("record id", rec_id, line_no)
            _check_new_id(seen, "record", rec_id, line_no)
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
        _check_id_range("query id", query_id, line_no)
        _check_id_range("doc id", doc_id, line_no)
        qrels.setdefault(query_id, set()).add(doc_id)
    return qrels


_T = TypeVar("_T")


def _read(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """``parse`` a UTF-8 file, stray bytes read as U+FFFD; a ``ParseError`` gets the file name."""
    try:
        return parse(Path(path).read_text(encoding="utf-8", errors="replace"))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_cisi_documents(path: str | Path) -> list[Document]:
    return _read(path, parse_cisi_documents)


def read_cisi_queries(path: str | Path) -> list[Query]:
    return _read(path, parse_cisi_queries)


def read_cisi_qrels(path: str | Path) -> dict[int, set[int]]:
    return _read(path, parse_cisi_qrels)


# --- JSONL interchange -----------------------------------------------------
# documents: {"id": int, "title": str?, "body": str, "domain": str?}
# queries:   {"id": int, "text": str}
# qrels:     {"query_id": int, "doc_id": int}
# QA rows:   {"query_id": int, "text": str, "gold": int >= 0}


def _jsonl_rows(text: str) -> Iterable[tuple[int, dict]]:
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (RecursionError, ValueError) as exc:  # bad syntax, too deep nesting, a huge integer
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=line_no) from None
        if not isinstance(row, dict):
            raise ParseError("each JSONL line must hold an object", line=line_no)
        yield line_no, row


def _check_id_range(name: str, value: int, line_no: int) -> None:
    if value <= 0 or value > MAX_DOC_ID:
        raise ParseError(f"{name} must be in [1, {MAX_DOC_ID}], got {value}", line=line_no)


def _check_new_id(seen: set[int], kind: str, value: int, line_no: int) -> None:
    """Add ``value`` to ``seen``; a second record with one id is a ``ParseError``."""
    if value in seen:
        raise ParseError(f"duplicate {kind} id {value}", line=line_no)
    seen.add(value)


def _require_int(row: dict, key: str, line_no: int, is_id: bool = True) -> int:
    """``row[key]`` as a non-bool int: an id in [1, MAX_DOC_ID], else any value >= 0."""
    value = row.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{key!r} must be an integer, got {value!r}", line=line_no)
    if is_id:
        _check_id_range(repr(key), value, line_no)
    elif value < 0:
        raise ParseError(f"{key!r} must be >= 0, got {value}", line=line_no)
    return value


def _require_str(row: dict, key: str, line_no: int) -> str:
    value = row.get(key)
    if not isinstance(value, str):
        raise ParseError(f"{key!r} must be a string, got {value!r}", line=line_no)
    return value


def parse_jsonl_documents(text: str) -> list[Document]:
    docs = []
    seen: set[int] = set()
    for line_no, row in _jsonl_rows(text):
        doc_id = _require_int(row, "id", line_no)
        _check_new_id(seen, "document", doc_id, line_no)
        docs.append(
            Document(
                doc_id=doc_id,
                title=str(row.get("title", "")),
                body=_require_str(row, "body", line_no),
                domain_tag=str(row.get("domain", "default")),
            )
        )
    return docs


def parse_jsonl_queries(text: str) -> list[Query]:
    queries = []
    seen: set[int] = set()
    for line_no, row in _jsonl_rows(text):
        query_id = _require_int(row, "id", line_no)
        _check_new_id(seen, "query", query_id, line_no)
        queries.append(Query(query_id=query_id, text=_require_str(row, "text", line_no)))
    return queries


def parse_jsonl_qrels(text: str) -> dict[int, set[int]]:
    qrels: dict[int, set[int]] = {}
    for line_no, row in _jsonl_rows(text):
        query_id = _require_int(row, "query_id", line_no)
        doc_id = _require_int(row, "doc_id", line_no)
        qrels.setdefault(query_id, set()).add(doc_id)
    return qrels


def parse_jsonl_qa(text: str) -> list[QAExample]:
    return [
        QAExample(query=Query(query_id=_require_int(row, "query_id", line_no),
                              text=_require_str(row, "text", line_no)),
                  gold=_require_int(row, "gold", line_no, is_id=False))
        for line_no, row in _jsonl_rows(text)
    ]


def documents_to_jsonl(docs: Sequence[Document]) -> str:
    lines = []
    for doc in docs:
        row = {"id": doc.doc_id, "title": doc.title, "body": doc.body, "domain": doc.domain_tag}
        lines.append(json.dumps(row, ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def read_jsonl_documents(path: str | Path) -> list[Document]:
    return _read(path, parse_jsonl_documents)


def read_jsonl_queries(path: str | Path) -> list[Query]:
    return _read(path, parse_jsonl_queries)


def read_jsonl_qrels(path: str | Path) -> dict[int, set[int]]:
    return _read(path, parse_jsonl_qrels)


def read_jsonl_qa(path: str | Path) -> list[QAExample]:
    return _read(path, parse_jsonl_qa)


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


def _trimmed_pieces(body: str, cuts: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The non-blank pieces of ``body`` between the ascending ``cuts`` (start, end), trimmed."""
    spans = []
    pos = 0
    for cut_start, cut_end in [*cuts, (len(body), len(body))]:
        piece = body[pos:cut_start]
        kept = piece.strip()  # strip() drops exactly the characters isspace() accepts
        if kept:
            start = pos + len(piece) - len(piece.lstrip())
            spans.append((start, start + len(kept)))
        pos = cut_end
    return spans


def _paragraph_spans(body: str) -> list[tuple[int, int]]:
    blank_lines = [m.span() for m in _BLANK_LINE_RE.finditer(body)]
    if not blank_lines:
        return _window_spans(body, PARAGRAPH_FALLBACK_TOKENS, overlap=False)
    return _trimmed_pieces(body, blank_lines)


def _sentence_spans(body: str) -> list[tuple[int, int]]:
    pieces = _trimmed_pieces(body, ((m.end(), m.end()) for m in _SENT_END_RE.finditer(body)))
    # short fragments do not end a sentence: merge forward, a trailing one backward
    merged: list[tuple[int, int]] = []
    short = False  # the last merged span is a short fragment waiting for the next piece
    for start, end in pieces:
        if short:
            start = merged.pop()[0]
        merged.append((start, end))
        short = len("".join(body[start:end].split())) < SENTENCE_MIN_CHARS
    if short and len(merged) > 1:
        merged[-2:] = [(merged[-2][0], merged[-1][1])]
    return merged


def _window_spans(body: str, width: int, overlap: bool) -> list[tuple[int, int]]:
    """Token windows of a non-blank ``body``: from every stride-th token up to the first
    window that reaches the last token."""
    tokens = [m.span() for m in _TOKEN_RE.finditer(body)]
    stride = max(1, width // 2) if overlap else width
    last = -(-max(len(tokens) - width, 0) // stride) * stride  # ceil to a stride multiple
    # every window before the last start is full; the last one ends at the last token
    spans = [(tokens[pos][0], tokens[pos + width - 1][1]) for pos in range(0, last, stride)]
    spans.append((tokens[last][0], tokens[-1][1]))
    return spans


def segment(doc: Document, layer: int) -> list[GranularUnit]:
    """Split one document into layer-``layer`` units with exact char spans."""
    if not 1 <= layer <= MAX_DEPTH:
        raise ValueError(f"layer must be in [1, {MAX_DEPTH}], got {layer}")
    body = doc.body
    if not body.strip():
        return []
    if layer == 1:
        spans = [(0, len(body))]
    elif layer == 2:
        spans = _paragraph_spans(body)
    elif layer == 3:
        spans = _sentence_spans(body)
    else:
        spans = _window_spans(body, WINDOW_TOKENS[layer], overlap=True)
    return [GranularUnit(f"{doc.doc_id:08d}:{layer}:{seq:05d}", doc.doc_id, layer, body[start:end],
                         (start, end))
            for seq, (start, end) in enumerate(spans)]


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
    clash = sorted(doc_id for doc_id, n in Counter(doc.doc_id for doc in mixed).items() if n > 1)
    if clash:
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
) -> list[Document]:
    """Generate a deterministic corpus of short multi-paragraph documents over 120 words."""
    rng = np.random.default_rng(seed)
    vocab = [_word(rng) for _ in range(120)]
    docs = []
    for i in range(n_docs):
        paragraphs = []
        for _ in range(int(rng.integers(2, 4))):
            sentences = []
            for _ in range(int(rng.integers(2, 5))):
                k = int(rng.integers(5, 11))
                words = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=k)]
                sentences.append(" ".join(words).capitalize() + ".")
            paragraphs.append(" ".join(sentences))
        title_words = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=3)]
        docs.append(
            Document(
                doc_id=id_start + i,
                title=" ".join(title_words),
                body="\n\n".join(paragraphs),
                domain_tag=domain_tag,
            )
        )
    return docs


def _keyword_documents(n: int, seed: int, id_start: int, domain_tag: str, title: str,
                       sentences: tuple[str, str]) -> tuple[list[str], list[Document]]:
    """``n`` distinct keywords and one document per keyword, planted in it alone.

    The keywords come first from one ``seed`` stream, then six filler words per
    document. ``title`` and the two ``sentences`` are templates of ``{kw}``;
    each sentence opens one paragraph, followed by three filler words.
    """
    rng = np.random.default_rng(seed)
    keywords = _distinct_words(rng, n)
    docs = []
    for i, keyword in enumerate(keywords):
        filler = [_word(rng) for _ in range(6)]
        lead, follow = (sentence.format(kw=keyword) for sentence in sentences)
        body = (f"{lead} {' '.join(filler[:3]).capitalize()}.\n\n"
                f"{follow} {' '.join(filler[3:]).capitalize()}.")
        docs.append(Document(doc_id=id_start + i, title=title.format(kw=keyword), body=body,
                             domain_tag=domain_tag))
    return keywords, docs


def keyword_eval_suite(
    n_queries: int = 40,
    seed: int = 0,
) -> tuple[list[Document], list[Query], dict[int, set[int]]]:
    """Build a corpus where each query's keyword occurs in exactly one document.

    The returned qrels mark that document as the sole relevant one, so a
    working retriever scores perfect recall on this suite.
    """
    keywords, docs = _keyword_documents(n_queries, seed, 1, "synthetic", "{kw} report",
                                        ("{kw} report covering {kw} in detail.",
                                         "Additional notes on {kw} follow."))
    queries = [Query(query_id=i + 1, text=f"find the {kw} report") for i, kw in enumerate(keywords)]
    return docs, queries, {i + 1: {doc.doc_id} for i, doc in enumerate(docs)}
