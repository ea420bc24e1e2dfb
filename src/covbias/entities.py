"""Politician mention detection: name+surname, role+surname, specific role."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InputError, open_input
from .model import Document, Mention, MentionPattern, Sentence, normalize_lemma
from .registry import PoliticianRegistry

# Mention-surface role words mapped to the registry's canonical keywords.
# "presidente della Regione X" and "governatore della Regione X" denote the
# same office, so presidente resolves to governatore.
DEFAULT_ROLE_VARIANTS: dict[str, str] = {
    "sindaco": "sindaco",
    "sindaca": "sindaco",
    "ministro": "ministro",
    "ministra": "ministro",
    "sottosegretario": "sottosegretario",
    "sottosegretaria": "sottosegretario",
    "governatore": "governatore",
    "governatrice": "governatore",
    "presidente": "governatore",
}

# Connectives allowed between a role keyword and its jurisdiction.
_PREPOSITIONS = {"di", "d", "del", "dello", "della", "dell", "dei", "degli", "delle"}
_FILLERS = {"regione", "città", "citta", "comune", "provincia"}

_PATTERN_PRECEDENCE = {
    MentionPattern.NAME_SURNAME: 0,
    MentionPattern.ROLE_SURNAME: 1,
    MentionPattern.SPECIFIC_ROLE: 2,
}


class RoleGazetteer:
    """Maps role words as they appear in text to canonical registry keywords."""

    def __init__(self, variants: Optional[dict[str, str]] = None):
        self.variants = dict(DEFAULT_ROLE_VARIANTS if variants is None else variants)

    @classmethod
    def from_file(cls, path) -> "RoleGazetteer":
        """One role per line: `canonical` or `canonical = variant, variant`.

        The canonical keyword is always its own variant. An empty
        canonical role, a canonical role or variant with no lexical token
        (such as `--`), or a role word given two canonical roles is an
        error naming the file and line.
        """
        variants: dict[str, str] = {}
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                canonical_s, _, syns = line.partition("=")
                if not canonical_s.strip():
                    raise InputError(path, lineno, "empty canonical role")
                roles = []
                for raw in [canonical_s, *syns.split(",")]:
                    if raw.strip():
                        norm = normalize_lemma(raw)
                        if norm is None:
                            raise InputError(
                                path, lineno, f"role {raw.strip()!r} has no lexical token"
                            )
                        roles.append(norm)
                for norm in roles:
                    if variants.setdefault(norm, roles[0]) != roles[0]:
                        raise InputError(
                            path, lineno,
                            f"role {norm!r} mapped to both {variants[norm]!r} and {roles[0]!r}",
                        )
        return cls(variants)


@dataclass
class MatchDiagnostics:
    """Tally of mentions dropped because role resolution was ambiguous."""

    ambiguous: dict[str, int] = field(default_factory=dict)

    def drop(self, pattern: MentionPattern) -> None:
        self.ambiguous[pattern.value] = self.ambiguous.get(pattern.value, 0) + 1

    def to_json_dict(self) -> dict:
        return {"ambiguous_mentions": dict(sorted(self.ambiguous.items()))}


def find_mentions(
    sentence: Sentence,
    doc: Document,
    registry: PoliticianRegistry,
    gazetteer: Optional[RoleGazetteer] = None,
    diagnostics: Optional[MatchDiagnostics] = None,
) -> list[Mention]:
    """All non-overlapping politician mentions in one sentence.

    Matching is case-insensitive over normalized surfaces (role words also
    match on the lemma, which catches inflected forms). Role patterns are
    gated by tenure at the document date; an ambiguous resolution drops
    the mention and bumps the diagnostics tally. Overlaps resolve longest
    match first; the result is ordered by span start, then by pattern
    precedence (name+surname, role+surname, specific role).

    Candidate tuples come from the registry's first-token indexes, and a
    role + surname candidate tests only the surname's politicians for the
    role, so the cost per sentence does not grow with the size of the
    registry. With fewer than two candidates there is no overlap to
    resolve, and they are returned as found.
    """
    gaz = gazetteer if gazetteer is not None else RoleGazetteer()
    diag = diagnostics if diagnostics is not None else MatchDiagnostics()
    tokens = sentence.tokens
    n = len(tokens)
    norms: tuple[Optional[str], ...] = tuple([t.norm for t in tokens])
    lemmas: list[Optional[str]] = [t.lemma if not t.filtered else None for t in tokens]
    names_by_first = registry.names_by_first.get
    role_of = gaz.variants.get

    candidates: list[Mention] = []

    def resolve(pids: set[str], start: int, end: int, pattern: MentionPattern) -> None:
        if len(pids) == 1:
            pid = next(iter(pids))
            candidates.append(Mention(pid, start, end, pattern))
        elif len(pids) > 1:
            diag.drop(pattern)

    # Index entries are longest first, so the greedy scan prefers the most
    # specific reading at each position.
    for i in range(n):
        for key in names_by_first(norms[i], ()):
            if norms[i : i + len(key)] == key:
                resolve(
                    registry.full_names[key],
                    i + 1,
                    i + len(key),
                    MentionPattern.NAME_SURNAME,
                )
                break

        canonical = role_of(norms[i]) or role_of(lemmas[i])
        if canonical is None:
            continue

        # role + surname, e.g. "ministro Fedeli"
        if i + 1 < n:
            for key in registry.surnames_by_first.get(norms[i + 1], ()):
                if norms[i + 1 : i + 1 + len(key)] == key:
                    holders = registry.holders_of_surname(key, canonical, doc.date)
                    resolve(
                        holders, i + 1, i + 1 + len(key), MentionPattern.ROLE_SURNAME
                    )
                    break

        # specific role, e.g. "sindaco di Roma", "presidente della Regione Lazio"
        j = i + 1
        if j < n and norms[j] in _PREPOSITIONS:
            j += 1
            if j < n and norms[j] in _FILLERS:
                j += 1
                if j < n and norms[j] in _PREPOSITIONS:
                    j += 1
            if j < n:
                by_first = registry.jurisdictions_by_first.get(canonical, {})
                for jur in by_first.get(norms[j], ()):
                    if norms[j : j + len(jur)] == jur:
                        holders = registry.holders_of_role(canonical, jur, doc.date)
                        resolve(
                            holders,
                            i + 1,
                            j + len(jur),
                            MentionPattern.SPECIFIC_ROLE,
                        )
                        break

    if len(candidates) < 2:
        return candidates  # nothing can overlap
    # Longest-match-wins on overlap (equal lengths fall back to pattern
    # precedence); each token belongs to at most one mention.
    chosen: list[Mention] = []
    taken: set[int] = set()
    for cand in sorted(
        candidates,
        key=lambda c: (c.start - c.end, _PATTERN_PRECEDENCE[c.pattern], c.start, c.pid),
    ):
        span = set(cand.span)
        if span & taken:
            continue
        taken |= span
        chosen.append(cand)

    chosen.sort(key=lambda c: (c.start, _PATTERN_PRECEDENCE[c.pattern]))
    return chosen
