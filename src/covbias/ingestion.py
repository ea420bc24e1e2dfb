"""Streaming readers for parsed corpora and their side files.

The CoNLL-U reader yields one (Document, Sentence) pair at a time. It
holds one sentence plus a per-file memo in which each distinct FORM/LEMMA
pair is normalized and classified once, so memory grows with a file's
vocabulary, not its length; serial extract consumes the stream as it
comes. Tokens flagged as stopwords, digits, URLs or bare punctuation
remain in the tree (their heads still resolve) but are excluded
downstream.
"""

from __future__ import annotations

import datetime
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import ConlluFormatError, MetadataError, open_input
from .model import Document, Sentence, SourceType, Token, normalize_lemma, tree_defect

_DIGITS_RE = re.compile(r"[\d.,:%/\-]+")
_NEWDOC_RE = re.compile(r"#\s*newdoc\b(?:\s+id\s*=\s*(\S+))?")
_SENTID_RE = re.compile(r"#\s*sent_id\s*=\s*(\S+)")


def read_stopwords(path) -> set[str]:
    """One lemma per line; normalized on load."""
    out = set()
    with open_input(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            norm = normalize_lemma(line)
            if norm:
                out.add(norm)
    return out


def read_lemma_map(path) -> dict[str, str]:
    """Surface-to-lemma overrides, one tab-separated pair per line."""
    out: dict[str, str] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MetadataError(
                    f"{path}: line {lineno}: expected surface<TAB>lemma"
                )
            raw_surface, lemma = parts[0].strip(), parts[1].strip()
            if not raw_surface or not lemma:
                raise MetadataError(f"{path}: line {lineno}: empty surface or lemma")
            surface = normalize_lemma(raw_surface)
            if surface is None:
                continue
            out[surface] = lemma
    return out


def read_metadata(
    path,
    window: Optional[tuple[datetime.date, datetime.date]] = None,
) -> dict[str, Document]:
    """Document metadata JSONL keyed by doc_id; duplicates are rejected."""
    docs: dict[str, Document] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MetadataError(f"{path}: line {lineno}: bad JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise MetadataError(f"{path}: line {lineno}: expected a JSON object")
            doc_id = obj.get("doc_id")
            if not doc_id:
                raise MetadataError(f"{path}: line {lineno}: missing doc_id")
            for key in ("date", "source_id", "source_type"):
                if key not in obj:
                    raise MetadataError(f"doc {doc_id!r}: missing {key!r}")
            for key in ("doc_id", "date", "source_type"):
                if not isinstance(obj[key], str):
                    raise MetadataError(
                        f"{path}: line {lineno}: {key} {obj[key]!r} is not a string"
                    )
            try:
                date = datetime.date.fromisoformat(obj["date"])
            except ValueError:
                raise MetadataError(
                    f"doc {doc_id!r}: bad date {obj['date']!r}"
                ) from None
            try:
                source_type = SourceType(obj["source_type"])
            except ValueError:
                raise MetadataError(
                    f"doc {doc_id!r}: unknown source_type {obj['source_type']!r}"
                ) from None
            if doc_id in docs:
                raise MetadataError(f"duplicate doc_id {doc_id!r}")
            if window is not None and not window[0] <= date <= window[1]:
                raise MetadataError(
                    f"doc {doc_id!r}: date {date} outside analysis window "
                    f"{window[0]}..{window[1]}"
                )
            docs[doc_id] = Document(
                doc_id=doc_id,
                date=date,
                source_id=str(obj["source_id"]),
                source_type=source_type,
            )
    return docs


@dataclass
class CorpusDiagnostics:
    rejected_sentences: list[tuple[str, str, str]] = field(default_factory=list)

    def reject(self, doc_id: str, sent_id: str, reason: str) -> None:
        self.rejected_sentences.append((doc_id, sent_id, reason))

    def to_json_dict(self) -> dict:
        return {
            "rejected_sentences": [list(r) for r in self.rejected_sentences],
        }


def _is_digits(lemma: str) -> bool:
    return bool(_DIGITS_RE.fullmatch(lemma)) and any(c.isdigit() for c in lemma)


def _is_url(text: str) -> bool:
    low = text.lower()
    return "://" in low or low.startswith("www.") or low.startswith("http")


def _derive_form(
    surface: str, raw_lemma: str, stopwords: set[str], lemma_map: dict[str, str]
) -> tuple[str, bool, Optional[str]]:
    """The (lemma, filtered, norm) of one FORM/LEMMA pair.

    Pure in its inputs, so a reader may compute it once per distinct pair.
    The lemma is empty only when FORM is empty and LEMMA is empty or `_`.
    """
    norm_surface = normalize_lemma(surface) if surface else None
    if norm_surface is not None and norm_surface in lemma_map:
        raw_lemma = lemma_map[norm_surface]
    elif raw_lemma == "_":
        raw_lemma = surface
    norm = normalize_lemma(raw_lemma) if raw_lemma else None
    if norm is None:
        # Nothing lexical remains: keep the raw string for the tree,
        # never select the token as a word.
        return raw_lemma or surface, True, norm_surface
    filtered = norm in stopwords or _is_digits(norm) or _is_url(surface) or _is_url(norm)
    return norm, filtered, norm_surface


def iter_conllu(
    path,
    stopwords: set[str],
    lemma_map: dict[str, str],
    diagnostics: CorpusDiagnostics,
    seen_docs: set[str],
) -> Iterator[tuple[str, Sentence]]:
    """Yield (doc_id, Sentence) pairs from one CoNLL-U file.

    Requires `# newdoc id = ...` before the first sentence of a document
    and `# sent_id = ...` on every sentence. Multiword-token ranges and
    empty nodes are skipped (they are not syntactic words). Malformed
    rows raise with their line number; sentences with cyclic heads or no
    root are rejected with a diagnostic instead. Each distinct FORM/LEMMA
    pair is derived once per call; later rows reuse its strings.
    """
    doc_id: Optional[str] = None
    sent_id: Optional[str] = None
    sent_index = 0
    rows: list[Token] = []
    block_start_line = 0
    forms: dict[tuple[str, str], tuple[str, bool, Optional[str]]] = {}

    def flush(lineno: int) -> Optional[tuple[str, Sentence]]:
        nonlocal rows, sent_id, sent_index, block_start_line
        if not rows:
            sent_id = None
            return None
        if doc_id is None:
            raise ConlluFormatError(
                path, block_start_line, "sentence before any '# newdoc id' comment"
            )
        if sent_id is None:
            raise ConlluFormatError(path, block_start_line, "sentence without '# sent_id' comment")
        n = len(rows)
        if [t.index for t in rows] != list(range(1, n + 1)):
            raise ConlluFormatError(
                path, block_start_line, f"token ids are not 1..{n} in sentence {sent_id!r}"
            )
        heads = [t.head for t in rows]
        if min(heads) < 0 or max(heads) > n:
            idx, head = next((t.index, t.head) for t in rows if not 0 <= t.head <= n)
            raise ConlluFormatError(
                path,
                block_start_line,
                f"head {head} of token {idx} out of range in sentence {sent_id!r}",
            )
        reason = tree_defect(heads)
        out = None
        if reason is not None:
            diagnostics.reject(doc_id, sent_id, reason)
        else:
            out = (doc_id, Sentence(doc_id=doc_id, index=sent_index, tokens=tuple(rows)))
        sent_index += 1
        rows = []
        sent_id = None
        block_start_line = 0
        return out

    with open_input(path) as fh:
        lineno = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                result = flush(lineno)
                if result:
                    yield result
                continue
            if line.startswith("#"):
                m = _NEWDOC_RE.match(line)
                if m:
                    if rows:
                        raise ConlluFormatError(path, lineno, "newdoc inside a sentence block")
                    if m.group(1) is None:
                        raise ConlluFormatError(path, lineno, "'# newdoc' without 'id = ...'")
                    doc_id = m.group(1)
                    if doc_id in seen_docs:
                        raise ConlluFormatError(path, lineno, f"duplicate document {doc_id!r}")
                    seen_docs.add(doc_id)
                    sent_index = 0
                    continue
                m = _SENTID_RE.match(line)
                if m:
                    sent_id = m.group(1)
                    if not rows:
                        block_start_line = lineno
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise ConlluFormatError(
                    path, lineno, f"expected 10 tab-separated columns, got {len(cols)}"
                )
            tok_id, form, lemma, upos, _xpos, _feats, head, deprel, _deps, _misc = cols
            if "-" in tok_id or "." in tok_id:
                continue  # multiword-token range or empty node
            if not rows and block_start_line == 0:
                block_start_line = lineno
            try:
                idx = int(tok_id)
                head_i = int(head)
            except ValueError:
                raise ConlluFormatError(
                    path, lineno, f"non-integer ID or HEAD ({tok_id!r}, {head!r})"
                ) from None
            derived = forms.get((form, lemma))
            if derived is None:
                derived = _derive_form(form, lemma, stopwords, lemma_map)
                if not derived[0]:
                    raise ConlluFormatError(path, lineno, "token with empty FORM and LEMMA")
                forms[form, lemma] = derived
            lemma, filtered, norm = derived
            rows.append(Token(idx, form, lemma, upos, head_i, deprel, filtered, norm))
        result = flush(lineno + 1)
        if result:
            yield result


def read_corpus(
    conllu: Iterable[str],
    diagnostics: CorpusDiagnostics,
    metadata: dict[str, Document],
    stopwords: set[str],
    lemma_map: dict[str, str],
) -> Iterator[tuple[Document, Sentence]]:
    """Stream (Document, Sentence) pairs from the parse files, in order.

    Takes the loaded side files: `metadata` from `read_metadata`,
    `stopwords` and `lemma_map` as `iter_conllu` uses them. Every
    sentence's document must resolve in the metadata; document order
    within a file is preserved. Rejected sentences go to `diagnostics`.
    """
    seen_docs: set[str] = set()
    for path in conllu:
        for doc_id, sentence in iter_conllu(path, stopwords, lemma_map, diagnostics, seen_docs):
            doc = metadata.get(doc_id)
            if doc is None:
                raise MetadataError(f"document {doc_id!r} has no metadata entry")
            yield doc, sentence
