"""Layered vector memory: build, exact cosine top-k search, persistence.

Search is an exact full scan (corpora here are thousands of units), so every
downstream number is deterministic.  Ties break by ascending unit id.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import stat
import struct
from dataclasses import asdict, dataclass
from itertools import chain, compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import MAX_DEPTH, MAX_DOC_ID, SEGMENTATION_RULES, Document, corpus_sha256, segment
from .embedder import EmbedderSpec, FeatureIndex, embed_units
from .errors import BuildError, ConfigError, IndexFormatError, require_type

log = logging.getLogger(__name__)

_MAGIC = b"MGIX"
# 2: features hashed by the splitmix64 array hash (embedder._codes); version 1 hashed
# them with blake2b, so its vectors cannot be searched with today's query codes
FORMAT_VERSION = 2


@dataclass(frozen=True)
class Hit:
    unit_id: str
    doc_id: int
    sim: float
    row: int  # row index into the layer's vector matrix


@dataclass
class LayerMemory:
    """One granularity layer: unit ids, unit-norm vectors, and the count of degenerate units left out."""

    layer: int
    unit_ids: list[str]
    doc_ids: np.ndarray  # (n,) int64
    vectors: np.ndarray  # (n, dim) float64, rows unit-norm
    n_degenerate: int = 0

    def __post_init__(self):
        if len(self.unit_ids) != self.vectors.shape[0] or len(self.unit_ids) != self.doc_ids.shape[0]:
            raise ValueError("unit_ids, doc_ids, and vectors must agree in length")
        if type(self.n_degenerate) is not int or self.n_degenerate < 0:
            raise ValueError(f"degenerate count {self.n_degenerate!r} is not a non-negative integer")

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)


@dataclass
class BuildManifest:
    """Provenance record stored with the index; computed by ``MemoryHierarchy.manifest``."""

    corpus_sha256: str
    config_sha256: str
    n_documents: int
    unit_counts: dict[int, int]
    degenerate_counts: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "corpus_sha256": self.corpus_sha256,
            "config_sha256": self.config_sha256,
            "n_documents": self.n_documents,
            "unit_counts": {str(k): v for k, v in sorted(self.unit_counts.items())},
            "degenerate_counts": {str(k): v for k, v in sorted(self.degenerate_counts.items())},
        }


@dataclass
class MemoryHierarchy:
    """Layers 1..depth, their embedder spec, and two facts of their corpus. The manifest
    is computed from these, so ``replace(hier, layers=hier.layers[:d])`` is the depth-d build."""

    layers: list[LayerMemory]  # layers[0] is layer 1
    embedder_spec: EmbedderSpec
    corpus_sha256: str  # of the documents built from
    n_documents: int

    def __post_init__(self):
        # a layer is searched with its number's hash key, so layers[i] must be layer i + 1
        if (numbers := [mem.layer for mem in self.layers]) != list(range(1, len(numbers) + 1)):
            raise ValueError(f"layers must be numbered 1..{len(numbers)}, got {numbers}")
        if not (type(self.corpus_sha256) is str and re.fullmatch("[0-9a-f]{64}", self.corpus_sha256)):
            raise ValueError(f"corpus_sha256 {self.corpus_sha256!r} is not 64 lowercase hex digits")
        if type(self.n_documents) is not int or self.n_documents < 0:
            raise ValueError(f"n_documents {self.n_documents!r} is not a non-negative integer")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def manifest(self) -> BuildManifest:
        return BuildManifest(
            corpus_sha256=self.corpus_sha256,
            config_sha256=_config_sha256(self.embedder_spec, self.depth),
            n_documents=self.n_documents,
            unit_counts={mem.layer: mem.n_units for mem in self.layers},
            degenerate_counts={mem.layer: mem.n_degenerate for mem in self.layers},
        )

    @property
    def dim(self) -> int:
        return self.embedder_spec.dim


def _config_sha256(spec: EmbedderSpec, depth: int) -> str:
    payload = json.dumps(
        {
            "embedder": asdict(spec),
            "segmentation": SEGMENTATION_RULES,
            "depth": depth,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build(
    corpus: Sequence[Document],
    spec: EmbedderSpec = EmbedderSpec(),
    depth: int = 3,
) -> MemoryHierarchy:
    """Segment and embed every document at layers 1..depth.

    Each document's features are extracted once, into a ``FeatureIndex`` that
    ``embed_units`` counts each layer's units from, as one matrix with a row per
    unit.  Degenerate (all-zero) rows are counted on their layer and masked out
    of the index.  A document with an empty body yields no units and is reported once.
    """
    require_type("depth", depth, "int")
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {depth}")
    if not corpus:
        raise BuildError("corpus is empty")
    for doc in corpus:
        if not doc.body.strip():
            log.warning("document %d has an empty body; skipped", doc.doc_id)
    features = FeatureIndex([doc.body for doc in corpus], spec)
    layers = []
    for layer_no in range(1, depth + 1):
        units = [segment(doc, layer_no) for doc in corpus]
        vectors = embed_units(features, units, layer_no)
        keep = vectors.any(axis=1)
        kept = list(compress(chain.from_iterable(units), keep))
        layers.append(
            LayerMemory(
                layer=layer_no,
                unit_ids=[unit.unit_id for unit in kept],
                doc_ids=np.asarray([unit.doc_id for unit in kept], dtype=np.int64),
                vectors=vectors[keep],
                n_degenerate=int(np.count_nonzero(~keep)),
            )
        )
    if not any(mem.n_units for mem in layers):
        raise BuildError("corpus produced zero indexable units")
    return MemoryHierarchy(layers, spec, corpus_sha256(corpus), len(corpus))


def search_layer(mem: LayerMemory, query_vec: np.ndarray, k: int) -> list[Hit]:
    """Exact top-k by descending cosine, ties by ascending unit id.

    A degenerate (all-zero) query yields an empty result.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_vec = np.asarray(query_vec, dtype=np.float64)
    if query_vec.shape != (mem.vectors.shape[1],):
        raise ValueError(
            f"query dim {query_vec.shape} does not match layer dim {mem.vectors.shape[1]}"
        )
    if not np.isfinite(query_vec).all():
        raise ValueError("query vector has non-finite components")
    if mem.n_units == 0 or not query_vec.any():
        return []
    sims = mem.vectors @ query_vec
    neg = -sims
    k = min(k, mem.n_units)
    # sort only the rows at or above the k-th best sim, so ties across the cut stay in;
    # ~(neg > kth) also keeps NaN rows, which sort last as a full sort would place them
    kth = np.partition(neg, k - 1)[k - 1]
    rows = np.flatnonzero(~(neg > kth))
    # lexsort: primary descending sim, secondary ascending unit id
    order = rows[np.lexsort((np.asarray([mem.unit_ids[i] for i in rows]), neg[rows]))]
    return [
        Hit(unit_id=mem.unit_ids[i], doc_id=int(mem.doc_ids[i]), sim=float(sims[i]), row=int(i))
        for i in order[:k]
    ]


# --- persistence -----------------------------------------------------------
# layout: MAGIC, uint32 LE header length, JSON header, packed '<f8' rows per layer


def save(hier: MemoryHierarchy, path: str | Path) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "dim": hier.dim,
        "depth": hier.depth,
        "embedder_spec": asdict(hier.embedder_spec),
        "seg_spec": SEGMENTATION_RULES,
        "manifest": hier.manifest.to_dict(),
        "layers": [
            {
                "layer": mem.layer,
                "n_units": mem.n_units,
                "unit_ids": mem.unit_ids,
                "doc_ids": [int(d) for d in mem.doc_ids],
            }
            for mem in hier.layers
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        for mem in hier.layers:
            handle.write(np.ascontiguousarray(mem.vectors, dtype="<f8").tobytes())


def load(path: str | Path) -> MemoryHierarchy:
    """Read an index file; search results after load are bit-identical to save time.

    Each layer's vector block is read from the file straight into one aligned,
    writable float64 array: one copy, with no whole-file buffer or slice.  Every
    size is checked against the file's size before it is read, so the index must
    be a regular file; a pipe, FIFO or device is an ``IndexFormatError``.  The
    stored manifest must equal the one computed from the loaded layers and spec.
    """
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise IndexFormatError(f"{path}: not a regular file (an index is read by its size)")
        size = info.st_size
        prefix = handle.read(8)
        if len(prefix) < 8 or prefix[:4] != _MAGIC:
            raise IndexFormatError(f"{path}: not an index file (bad magic)")
        (header_len,) = struct.unpack("<I", prefix[4:])
        if size < 8 + header_len:
            raise IndexFormatError(f"{path}: truncated header")
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
        except (RecursionError, ValueError) as exc:  # bad UTF-8 or JSON, deep nesting, a huge int
            raise IndexFormatError(f"{path}: unreadable header ({exc})") from None
        offset = 8 + header_len
        try:
            version = header.get("format_version")
            if version != FORMAT_VERSION:
                raise IndexFormatError(
                    f"{path}: format version {version} unsupported (expected {FORMAT_VERSION}); "
                    "rebuild it with `mgrag build`")
            dim = header["dim"]
            if type(dim) is not int or dim < 1:
                raise IndexFormatError(f"{path}: header dim {dim!r} is not a positive integer")
            stored = header["manifest"]  # a count it lacks is read as 0, then fails the check below
            layers = []
            for meta in header["layers"]:
                n, unit_ids, doc_ids = meta["n_units"], meta["unit_ids"], meta["doc_ids"]
                if len(unit_ids) != n or len(doc_ids) != n:
                    raise IndexFormatError(f"{path}: layer {meta['layer']} metadata inconsistent")
                # exact types: a bool is no doc id, and a JSON string is no list of ids
                if type(unit_ids) is not list or {*map(type, unit_ids)} - {str} or len({*unit_ids}) != n:
                    raise IndexFormatError(
                        f"{path}: layer {meta['layer']} unit ids are not distinct strings")
                if (type(doc_ids) is not list or {*map(type, doc_ids)} - {int}
                        or n and not 1 <= min(doc_ids) <= max(doc_ids) <= MAX_DOC_ID):
                    raise IndexFormatError(
                        f"{path}: layer {meta['layer']} doc ids are not integers in [1, {MAX_DOC_ID}]")
                count = n * dim
                if size < offset + 8 * count:
                    raise IndexFormatError(
                        f"{path}: truncated vector block for layer {meta['layer']}")
                block = np.fromfile(handle, dtype="<f8", count=count)
                if block.size != count:  # the file shrank while it was read
                    raise IndexFormatError(
                        f"{path}: truncated vector block for layer {meta['layer']}")
                offset += 8 * count
                if not np.all(np.isfinite(block)):
                    raise IndexFormatError(
                        f"{path}: layer {meta['layer']} has non-finite vector entries")
                layers.append(
                    LayerMemory(
                        layer=meta["layer"],
                        unit_ids=unit_ids,
                        doc_ids=np.asarray(doc_ids, dtype=np.int64),
                        # already native float64 on a little-endian host, so no copy
                        vectors=block.reshape(n, dim).astype(np.float64, copy=False),
                        n_degenerate=stored["degenerate_counts"].get(str(meta["layer"]), 0),
                    )
                )
            embedder_spec = EmbedderSpec(**header["embedder_spec"])
            depth, numbers = header["depth"], [mem.layer for mem in layers]
            if not 1 <= depth <= MAX_DEPTH or numbers != list(range(1, depth + 1)):
                raise IndexFormatError(
                    f"{path}: header depth {depth} but layers numbered {numbers}")
            if dim != embedder_spec.dim:
                raise IndexFormatError(
                    f"{path}: header dim {dim} but embedder dim {embedder_spec.dim}")
            if header["seg_spec"] != SEGMENTATION_RULES:
                raise IndexFormatError(f"{path}: segmentation rules {header['seg_spec']} "
                                       f"differ from the fixed rules {SEGMENTATION_RULES}")
            hier = MemoryHierarchy(layers, embedder_spec, stored["corpus_sha256"], stored["n_documents"])
            derived = hier.manifest.to_dict()
            wrong = sorted(k for k in derived.keys() | stored.keys() if derived.get(k) != stored.get(k))
            if wrong:
                raise IndexFormatError(f"{path}: manifest {', '.join(wrong)} disagrees with the layers")
        except (KeyError, TypeError, ValueError, AttributeError, ConfigError) as exc:
            raise IndexFormatError(
                f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
        if offset != size:
            raise IndexFormatError(f"{path}: {size - offset} bytes after the last vector block")
        return hier
