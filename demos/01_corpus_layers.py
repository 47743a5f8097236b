"""Walk one document through every granularity layer.

Loads the bundled marker-format sample, segments a document at each of the
five layers, and shows that every unit's char span slices the original body
back out exactly. Run from the repo root:

    python3 demos/01_corpus_layers.py
"""

from pathlib import Path

from mgrag.corpus import read_cisi_documents, segment

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    docs = read_cisi_documents(DATA / "cisi_sample.all")
    print(f"loaded {len(docs)} documents from {DATA / 'cisi_sample.all'}")

    doc = docs[0]
    print(f"\ndocument {doc.doc_id}: {doc.title!r}")
    print(f"body: {len(doc.body)} chars, {len(doc.body.split())} words")

    names = {1: "whole document", 2: "paragraphs", 3: "sentences",
             4: "16-token windows", 5: "8-token windows"}
    for layer in range(1, 6):
        units = segment(doc, layer)
        print(f"\nlayer {layer} ({names[layer]}): {len(units)} units")
        for unit in units[:3]:
            snippet = unit.text[:64].replace("\n", " ")
            start, end = unit.char_span
            print(f"  {unit.unit_id}  [{start}:{end}]  {snippet!r}")
        if len(units) > 3:
            print(f"  ... {len(units) - 3} more")

        # the span IS the unit: no copy drift anywhere in the pipeline
        for unit in units:
            start, end = unit.char_span
            assert doc.body[start:end] == unit.text
    print("\nevery unit's char span slices its text back out exactly")


if __name__ == "__main__":
    main()
