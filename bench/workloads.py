"""Seeded inputs and per-workload sizes.

Every workload runs the same closed-loop round (see ``session.py``); they
differ in the inputs generated here and in how much of each stage a round
holds, so that a different layer dominates each one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from mgrag.confidence import GateConfig
from mgrag.corpus import Document, Query, keyword_eval_suite, synthesize_corpus
from mgrag.evaluation import SweepGrid
from mgrag.generator import QAExample, TrainConfig, build_toy_qa

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass
class Corpus:
    docs: list[Document]
    queries: list[Query]  # canonical phrasing
    qrels: dict[int, set[int]]


@dataclass
class SweepInputs:
    grid: SweepGrid
    corpus_a: list[Document]
    corpus_b: list[Document]
    queries: list[Query]
    qrels: dict[int, set[int]]
    qa: list[QAExample]
    qa_train: TrainConfig


@dataclass(frozen=True)
class SweepSize:
    keywords: int
    qa_classes: int
    qa_per_class: int
    filler: int
    depths: tuple[int, ...]
    temperatures: tuple[float, ...]
    epochs: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    builds: int  # fresh wide-vocabulary corpora built and saved per round
    build_docs: int  # documents in each of them
    served: Callable[..., Corpus]  # key -> the shape of the corpus built in set-up
    queries: int  # single queries per round, each a distinct text
    evals: int  # evaluate calls per round
    eval_batch: int  # queries per evaluate call, each a distinct text
    cli_calls: int  # in-process `mgrag query` calls per round
    sweeps: int  # sweep calls per round, each over new inputs
    sweep: SweepSize
    check_recall: bool  # canonical queries must reach Recall@k = 1.0 with the gate off
    main_build: str  # the stage whose builds and saves the per-layer build metrics describe


MIX_RATIOS = (0.0, 0.5)
TAU = 0.04  # drops some paths but not all: the mean path confidence is 1/25 at k=5, depth 5
# Every input has one shape, drawn under this key: document lengths,
# sentences, paragraphs, queries. The seed (and, for inputs made anew in every
# round, the round) picks only the letters, so every seed and every round does
# the same work on new text.
SHAPE_KEY = (0, 0)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([*key])


def _seeds(n: int, *key: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([*key]).generate_state(n)]


def _letters_word(rng: np.random.Generator, lo: int, hi: int) -> str:
    return "".join(rng.choice(_LETTERS, int(rng.integers(lo, hi + 1))))


def wide_corpus(n_docs: int, *key: int) -> Corpus:
    """Documents over a wide random-letter vocabulary, shaped like synthesize_corpus.

    Each query is a word of its document; its relevant set is every document
    holding that word.
    """
    rng = _rng(*key)
    # wide enough that about a tenth of all features are distinct (0.4% in synthesize_corpus text)
    lengths = rng.integers(4, 10, size=200 * n_docs)
    letters = "".join(_LETTERS[rng.integers(0, 26, size=int(lengths.sum()))])
    ends = np.cumsum(lengths)
    vocab = [letters[end - n : end] for n, end in zip(lengths.tolist(), ends.tolist())]
    docs = []
    for i in range(n_docs):
        paragraphs = []
        for _ in range(int(rng.integers(2, 4))):
            sentences = []
            for _ in range(int(rng.integers(2, 5))):
                words = [vocab[int(j)] for j in rng.integers(0, len(vocab), size=int(rng.integers(5, 11)))]
                sentences.append(" ".join(words).capitalize() + ".")
            paragraphs.append(" ".join(sentences))
        docs.append(Document(doc_id=i + 1, title="", body="\n\n".join(paragraphs), domain_tag="wide"))
    holders: dict[str, set[int]] = {}
    for doc in docs:
        for word in doc.body.lower().replace(".", "").split():
            holders.setdefault(word, set()).add(doc.doc_id)
    queries, qrels = [], {}
    for doc in docs:
        words = doc.body.lower().replace(".", "").split()
        word = words[int(rng.integers(len(words)))]
        queries.append(Query(query_id=doc.doc_id, text=word))
        qrels[doc.doc_id] = holders[word]
    return Corpus(docs, queries, qrels)


def keyword_corpus(n_queries: int, *key: int) -> Corpus:
    """keyword_eval_suite plus as many synthesize_corpus filler documents."""
    s_kw, s_fill = _seeds(2, *key)
    docs, queries, qrels = keyword_eval_suite(n_queries, seed=s_kw)
    docs = docs + synthesize_corpus(n_queries, seed=s_fill, id_start=100_001)
    return Corpus(docs, queries, qrels)


def sweep_inputs(size: SweepSize, *key: int) -> SweepInputs:
    """Keyword suite + toy QA docs + filler, and a second corpus to mix in."""
    s_kw, s_qa, s_fill, s_b = _seeds(4, *key)
    kw_docs, queries, qrels = keyword_eval_suite(size.keywords, seed=s_kw)
    qa_docs, qa = build_toy_qa(size.qa_classes, size.qa_per_class, seed=s_qa)
    corpus_a = kw_docs + qa_docs + synthesize_corpus(size.filler, seed=s_fill, id_start=100_001)
    # as large as corpus_a, so ratio 0 keeps all of corpus_a
    corpus_b = synthesize_corpus(len(corpus_a), seed=s_b, id_start=300_001, domain_tag="b")
    return SweepInputs(
        grid=SweepGrid(depths=size.depths, temperatures=size.temperatures, mix_ratios=MIX_RATIOS),
        corpus_a=corpus_a,
        corpus_b=corpus_b,
        queries=queries,
        qrels=qrels,
        qa=qa,
        qa_train=TrainConfig(lr=0.5, epochs=size.epochs, gate=GateConfig(lambda1=0.01, lambda2=0.1)),
    )


def qa_corpus(size: SweepSize, *key: int) -> Corpus:
    """A sweep's first corpus, with its keyword and QA queries together."""
    inputs = sweep_inputs(size, *key)
    queries = list(inputs.queries)
    qrels = dict(inputs.qrels)
    for ex in inputs.qa:
        qid = 1000 + ex.query.query_id
        queries.append(Query(query_id=qid, text=ex.query.text))
        # corpus_a holds the keyword docs, then one QA doc per class in class order
        qrels[qid] = {inputs.corpus_a[size.keywords + ex.gold].doc_id}
    return Corpus(inputs.corpus_a, queries, qrels)


def _letter_table(*key: int) -> dict[int, int]:
    """A random permutation of the letters, the same one for both cases."""
    lower = "".join(_LETTERS[_rng(*key).permutation(26)])
    plain = "abcdefghijklmnopqrstuvwxyz"
    return str.maketrans(plain + plain.upper(), lower + lower.upper())


def _reletter_docs(docs: list[Document], table: dict[int, int]) -> list[Document]:
    return [replace(d, title=d.title.translate(table), body=d.body.translate(table)) for d in docs]


def _reletter_queries(queries: list[Query], table: dict[int, int]) -> list[Query]:
    return [replace(q, text=q.text.translate(table)) for q in queries]


def reletter_corpus(corpus: Corpus, *key: int) -> Corpus:
    """``corpus`` with its letters permuted: the same shape and relevance, new features."""
    table = _letter_table(*key)
    return Corpus(_reletter_docs(corpus.docs, table), _reletter_queries(corpus.queries, table), corpus.qrels)


def reletter_sweep(inputs: SweepInputs, *key: int) -> SweepInputs:
    """``inputs`` with every text's letters permuted, as ``reletter_corpus``."""
    table = _letter_table(*key)
    return replace(
        inputs,
        corpus_a=_reletter_docs(inputs.corpus_a, table),
        corpus_b=_reletter_docs(inputs.corpus_b, table),
        queries=_reletter_queries(inputs.queries, table),
        qa=[replace(ex, query=_reletter_queries([ex.query], table)[0]) for ex in inputs.qa],
    )


def rephrase(queries: list[Query], count: int, *key: int) -> list[Query]:
    """``count`` queries, cycling through ``queries``, each with a random suffix word.

    Every (round, stage) key draws new suffixes, so no query text repeats in
    a run and a result cache cannot score hits that real traffic would not.
    """
    rng = _rng(*key)
    return [
        Query(query_id=q.query_id, text=f"{q.text} {_letters_word(rng, 5, 5)}")
        for q in (queries[i % len(queries)] for i in range(count))
    ]


_MINI_SWEEP = SweepSize(
    keywords=2, qa_classes=2, qa_per_class=1, filler=1,
    depths=(1,), temperatures=(1.0,), epochs=10,
)
_FULL_SWEEP = SweepSize(
    keywords=2, qa_classes=2, qa_per_class=1, filler=1,
    depths=(1, 2, 3, 4, 5), temperatures=(0.5, 1.0, 1.2, 2.0), epochs=10,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="index-build",
            why="write path: fresh wide-vocabulary docs built at depth 5 and saved, so segment and unit embedding dominate",
            builds=6,
            build_docs=2,
            served=partial(wide_corpus, 15),
            queries=8,
            evals=3,
            eval_batch=8,
            cli_calls=3,
            sweeps=2,
            sweep=_MINI_SWEEP,
            check_recall=False,
            main_build="build",
        ),
        Workload(
            name="query-serve",
            why="read path: distinct queries, evaluate batches and CLI queries on a prebuilt index, so search and query embedding dominate",
            builds=2,
            build_docs=2,
            served=partial(keyword_corpus, 100),
            queries=40,
            evals=4,
            eval_batch=4,
            cli_calls=3,
            sweeps=2,
            sweep=_MINI_SWEEP,
            check_recall=True,
            main_build="setup_build",
        ),
        Workload(
            name="sweep-qa",
            why="depth x temperature x mix-ratio sweep with QA training per cell: many small builds from high-reuse text",
            builds=3,
            build_docs=2,
            served=partial(qa_corpus, _FULL_SWEEP),
            queries=16,
            evals=4,
            eval_batch=8,
            cli_calls=6,
            sweeps=1,
            sweep=_FULL_SWEEP,
            check_recall=False,
            main_build="setup_build",
        ),
    )
}
