"""Streaming readers for parsed corpora and their side files.

The CoNLL-U reader yields one (Document, Sentence) pair at a time. It
holds one sentence plus a per-file memo in which each distinct FORM/LEMMA
pair is normalized and classified once, so memory grows with a file's
vocabulary, not its length. Extract takes the stream in blocks of
`extraction.BLOCK_SENTENCES` (256) pairs and runs mention matching,
attribution and counting over each block in turn, which made extract
about 11% faster than one sentence at a time on a 4000-document corpus;
memory then holds one block of sentences besides the memo. Tokens
flagged as stopwords, digits, URLs or bare punctuation remain in the
tree (their heads still resolve) but are excluded downstream.

A token row whose ID is the next position of its sentence and whose HEAD
is a plain decimal, both below 128, is read by two lookups in one table;
every other row takes the checked path, with the same errors at the same
lines (see `iter_conllu`).
"""

from __future__ import annotations

import datetime
import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import InputError, open_input
from .model import (
    Document, Sentence, SourceType, Token, normalize_lemma, parse_date, tree_defect,
)

_DIGITS_RE = re.compile(r"[\d.,:%/\-]+")
_NEWDOC_RE = re.compile(r"#\s*newdoc\b(?:\s+id\s*=\s*(\S+))?")
_SENTID_RE = re.compile(r"#\s*sent_id\s*=\s*(\S+)")
_SKIPPED_ID_RE = re.compile(r"[0-9]+-[0-9]+|[0-9]+\.[0-9]+")  # ranges, empty nodes
_SOURCE_TYPES = {t.value: t for t in SourceType}

# The decimal string of each of 0..127 mapped to its value: a row whose
# ID and HEAD are both keys is read by lookup, any other row takes the
# checked path. Every row of the bench workloads fits; a 4096-entry table
# cost 0.6 MB more peak RSS.
_INTS = {str(k): k for k in range(128)}


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
    """Surface-to-lemma overrides, one tab-separated pair per line; two
    surfaces that normalize alike may not give different lemmas."""
    out: dict[str, str] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(path, lineno, "expected surface<TAB>lemma")
            raw_surface, lemma = parts[0].strip(), parts[1].strip()
            if not raw_surface or not lemma:
                raise InputError(path, lineno, "empty surface or lemma")
            surface = normalize_lemma(raw_surface)
            if surface is None:
                raise InputError(path, lineno, f"surface {raw_surface!r} has no lexical token")
            if out.setdefault(surface, lemma) != lemma:
                raise InputError(
                    path, lineno,
                    f"surface {surface!r} mapped to both {out[surface]!r} and {lemma!r}",
                )
    return out


def read_metadata(
    path,
    window: Optional[tuple[datetime.date, datetime.date]] = None,
) -> dict[str, Document]:
    """Document metadata JSONL keyed by doc_id, duplicates rejected; each error
    names the file and line.

    Dates must be exactly `YYYY-MM-DD` (`model.parse_date`). Within one
    call each distinct date string is parsed once and memoized; every
    check, the window check included, still runs on every line.
    """
    docs: dict[str, Document] = {}
    dates: dict[str, datetime.date] = {}  # date string -> parsed date
    new_document = tuple.__new__  # all three fields given
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(path, lineno, f"bad JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise InputError(path, lineno, "expected a JSON object")
            doc_id = obj.get("doc_id")
            if doc_id is None or doc_id == "":
                raise InputError(path, lineno, "missing doc_id")
            for key in ("date", "source_id", "source_type"):
                if key not in obj:
                    raise InputError(path, lineno, f"doc {doc_id!r}: missing {key!r}")
            for key in ("doc_id", "date", "source_id", "source_type"):
                if not isinstance(obj[key], str):
                    raise InputError(path, lineno, f"{key} {obj[key]!r} is not a string")
            raw_date = obj["date"]
            date = dates.get(raw_date)
            if date is None:
                try:
                    date = dates[raw_date] = parse_date(raw_date)
                except ValueError:
                    raise InputError(
                        path, lineno, f"doc {doc_id!r}: bad date {raw_date!r}"
                    ) from None
            source_type = _SOURCE_TYPES.get(obj["source_type"])
            if source_type is None:
                raise InputError(
                    path, lineno, f"doc {doc_id!r}: unknown source_type {obj['source_type']!r}"
                )
            if doc_id in docs:
                raise InputError(path, lineno, f"duplicate doc_id {doc_id!r}")
            if window is not None and not window[0] <= date <= window[1]:
                raise InputError(
                    path, lineno, f"doc {doc_id!r}: date {date} outside analysis window "
                    f"{window[0]}..{window[1]}"
                )
            docs[doc_id] = new_document(Document, (doc_id, date, source_type))
    return docs


@dataclass
class CorpusDiagnostics:
    rejected_sentences: list[tuple[str, str, str]] = field(default_factory=list)

    def reject(self, doc_id: str, sent_id: str, reason: str) -> None:
        self.rejected_sentences.append((doc_id, sent_id, reason))

    def to_json_dict(self) -> dict:
        """The rejected sentences as [doc_id, sent_id, reason] rows, sorted,
        so diagnostics.json does not depend on the order of the documents."""
        return {"rejected_sentences": [list(r) for r in sorted(self.rejected_sentences)]}


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
    diagnostics: CorpusDiagnostics,
    metadata: dict[str, Document],
    stopwords: set[str],
    lemma_map: dict[str, str],
    seen_docs: set[str],
) -> Iterator[tuple[Document, Sentence]]:
    """Yield (Document, Sentence) pairs from one CoNLL-U file.

    Requires `# newdoc id = ...` before the first sentence of a document
    and `# sent_id = ...` on every sentence. Each document is looked up
    in `metadata` at its `# newdoc` line; an id missing there, or one
    already in `seen_docs`, is an error naming that line. Multiword-token
    ranges and empty nodes are skipped (they are not syntactic words).
    Malformed rows raise with their line number, a HEAD out of range with
    the line of its token; sentences with cyclic heads or no root are
    rejected with a diagnostic instead. Each distinct FORM/LEMMA pair is
    derived once per call; later rows reuse its strings.

    Each line is dispatched on its first character: a `#` line is a
    comment, and only one that names `newdoc` or `sent_id` runs that
    pattern; a blank or whitespace-only line ends the sentence; every
    other line is a token row.

    A token row whose ID is the next position of its sentence (`1`, `2`,
    ... up to 127) and whose HEAD is a plain decimal 0..127 is read by
    two lookups in a module table. Every other row (multiword ranges,
    empty nodes, leading zeros, minus signs, other scripts' digits,
    positions or heads past the table, anything malformed) takes the
    checked path, with the same errors and lines; only a sentence that
    has such a row has its IDs compared with 1..n.
    """
    doc: Optional[Document] = None
    sent_id: Optional[str] = None
    sent_index = 0
    # The sentence being read, cleared in place by flush: its tokens, the
    # head and the line of each, and whether any row took the checked path.
    rows: list[Token] = []
    heads: list[int] = []
    row_lines: list[int] = []
    checked = False
    block_start_line = 0
    forms: dict[tuple[str, str], tuple[str, bool, Optional[str]]] = {}
    # all fields given, so no NamedTuple defaults to fill
    new_record = tuple.__new__
    int_of = _INTS.get
    add_row, add_head, add_line = rows.append, heads.append, row_lines.append

    def flush() -> Optional[tuple[Document, Sentence]]:
        nonlocal checked, sent_id, sent_index, block_start_line
        if not rows:
            sent_id = None
            return None
        if doc is None:
            raise InputError(
                path, block_start_line, "sentence before any '# newdoc id' comment"
            )
        if sent_id is None:
            raise InputError(path, block_start_line, "sentence without '# sent_id' comment")
        n = len(rows)
        if checked and [t.index for t in rows] != list(range(1, n + 1)):
            raise InputError(
                path, block_start_line, f"token ids are not 1..{n} in sentence {sent_id!r}"
            )
        if min(heads) < 0 or max(heads) > n:
            pos = next(i for i, head in enumerate(heads) if not 0 <= head <= n)
            raise InputError(
                path,
                row_lines[pos],
                f"head {heads[pos]} of token {pos + 1} out of range in sentence {sent_id!r}",
            )
        reason = tree_defect(heads)
        out = None
        if reason is not None:
            diagnostics.reject(doc.doc_id, sent_id, reason)
        else:
            out = (doc, new_record(Sentence, (doc.doc_id, sent_index, tuple(rows))))
        sent_index += 1
        rows.clear()
        heads.clear()
        row_lines.clear()
        checked = False
        sent_id = None
        block_start_line = 0
        return out

    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            first = line[0]
            if first == "#":
                if "newdoc" in line:
                    m = _NEWDOC_RE.match(line)
                    if m:
                        if rows:
                            raise InputError(path, lineno, "newdoc inside a sentence block")
                        if m.group(1) is None:
                            raise InputError(path, lineno, "'# newdoc' without 'id = ...'")
                        doc_id = m.group(1)
                        if doc_id in seen_docs:
                            raise InputError(path, lineno, f"duplicate document {doc_id!r}")
                        doc = metadata.get(doc_id)
                        if doc is None:
                            raise InputError(
                                path, lineno, f"document {doc_id!r} has no metadata entry"
                            )
                        seen_docs.add(doc_id)
                        sent_index = 0
                        continue
                if "sent_id" in line:
                    m = _SENTID_RE.match(line)
                    if m:
                        sent_id = m.group(1)
                        if not rows:
                            block_start_line = lineno
                continue
            if first == "\n" or (first.isspace() and line.isspace()):
                result = flush()
                if result:
                    yield result
                continue
            # A token row. Only the tenth column (MISC, unused) can hold
            # the line's newline.
            cols = line.split("\t")
            if len(cols) != 10:
                raise InputError(
                    path, lineno, f"expected 10 tab-separated columns, got {len(cols)}"
                )
            tok_id, form, lemma, upos, _xpos, _feats, head, deprel, _deps, _misc = cols
            index = len(rows) + 1
            head_value = int_of(head)
            if head_value is None or int_of(tok_id) != index:
                # The checked path. ASCII digits only, where int() would
                # also take plus signs, blanks, underscores and other
                # scripts' digits; a HEAD may carry a minus sign, which
                # the range check reports
                head_digits = head[1:] if head[:1] == "-" else head
                if not (
                    tok_id.isascii() and tok_id.isdigit()
                    and head_digits.isascii() and head_digits.isdigit()
                ):
                    if _SKIPPED_ID_RE.fullmatch(tok_id):
                        continue  # multiword-token range or empty node
                    raise InputError(
                        path, lineno, f"non-integer ID or HEAD ({tok_id!r}, {head!r})"
                    )
                index = int(tok_id)
                head_value = int(head)
                checked = True
            if not rows and block_start_line == 0:
                block_start_line = lineno
            derived = forms.get((form, lemma))
            if derived is None:
                derived = _derive_form(form, lemma, stopwords, lemma_map)
                if not derived[0]:
                    raise InputError(path, lineno, "token with empty FORM and LEMMA")
                forms[form, lemma] = derived
            lemma, filtered, norm = derived
            add_row(new_record(Token, (index, form, lemma, upos, head_value, deprel, filtered, norm)))
            add_head(head_value)
            add_line(lineno)
        result = flush()
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
    `stopwords` and `lemma_map` as `iter_conllu` uses them. A document
    id may occur once across all files. Rejected sentences go to
    `diagnostics`.
    """
    seen_docs: set[str] = set()
    for path in conllu:
        yield from iter_conllu(path, diagnostics, metadata, stopwords, lemma_map, seen_docs)
