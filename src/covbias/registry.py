"""The registry of political offices under scrutiny, with match indexes."""

from __future__ import annotations

import datetime
from typing import Optional

from .errors import InputError, open_input
from .model import Gender, Politician, Role, normalize_lemma, parse_date

TokenTuple = tuple[str, ...]


def _norm_tokens(text: str) -> TokenTuple:
    out = []
    for part in text.split():
        norm = normalize_lemma(part)
        if norm:
            out.append(norm)
    return tuple(out)


def _parse_tenure(raw: str) -> tuple[Optional[datetime.date], Optional[datetime.date]]:
    """`FROM..TO` with either side open; an empty entry is an open tenure.
    A malformed entry is a `ValueError` saying what is wrong."""
    raw = raw.strip()
    if not raw:
        return None, None
    if ".." not in raw:
        raise ValueError(f"tenure {raw!r} must look like FROM..TO")
    lo, hi = raw.split("..", 1)
    try:
        start = parse_date(lo) if lo else None
        end = parse_date(hi) if hi else None
    except ValueError as exc:
        raise ValueError(f"bad tenure date: {exc}") from None
    if start and end and end < start:
        raise ValueError("tenure ends before it starts")
    return start, end


def _by_first_token(keys) -> dict[str, list[TokenTuple]]:
    """Group token tuples by their first token, each group longest first.

    Filtering the global ``(-len(t), t)`` order down to the tuples that
    share a first token keeps their relative order, so the first tuple of
    a group that matches at a position is the first one a scan of the
    whole sorted key set would find there.
    """
    out: dict[str, list[TokenTuple]] = {}
    for key in sorted(keys, key=lambda t: (-len(t), t)):
        out.setdefault(key[0], []).append(key)
    return out


class PoliticianRegistry:
    """Politicians indexed for the three mention patterns.

    Indexes: full-name token sequences (including aliases), surname token
    sequences, (politician, role keyword) -> roles, and (role keyword,
    jurisdiction) -> holders. All name and jurisdiction keys are
    normalized token tuples, so lookups are case-insensitive. The match indexes (``names_by_first``,
    ``surnames_by_first``, ``jurisdictions_by_first``) are built here,
    once, so matching a sentence never scans or sorts the whole registry.
    The politicians are taken as `read_registry` checked them.
    """

    def __init__(self, politicians: list[Politician]):
        self.politicians = {p.pid: p for p in politicians}
        self.full_names: dict[TokenTuple, set[str]] = {}
        self.surnames: dict[TokenTuple, set[str]] = {}
        self.roles_by_pid_keyword: dict[tuple[str, str], list[Role]] = {}
        self.roles_by_key: dict[tuple[str, TokenTuple], list[tuple[str, Role]]] = {}
        for p in politicians:
            surname = _norm_tokens(p.surname)
            self.surnames.setdefault(surname, set()).add(p.pid)
            given = _norm_tokens(p.given_name)
            if given:
                self.full_names.setdefault(given + surname, set()).add(p.pid)
            for alias in p.aliases:
                toks = _norm_tokens(alias)
                index = self.surnames if len(toks) == 1 else self.full_names
                index.setdefault(toks, set()).add(p.pid)
            for role in p.roles:
                self.roles_by_pid_keyword.setdefault((p.pid, role.keyword), []).append(role)
                if role.jurisdiction:
                    jur = _norm_tokens(role.jurisdiction)
                    self.roles_by_key.setdefault((role.keyword, jur), []).append((p.pid, role))
        self.names_by_first = _by_first_token(self.full_names)
        self.surnames_by_first = _by_first_token(self.surnames)
        jurisdictions: dict[str, list[TokenTuple]] = {}
        for keyword, jur in self.roles_by_key:
            jurisdictions.setdefault(keyword, []).append(jur)
        self.jurisdictions_by_first: dict[str, dict[str, list[TokenTuple]]] = {
            keyword: _by_first_token(jurs) for keyword, jurs in jurisdictions.items()
        }

    def __len__(self) -> int:
        return len(self.politicians)

    def holders_of_surname(
        self, surname: TokenTuple, keyword: str, date: datetime.date
    ) -> set[str]:
        """The politicians named `surname` who hold `keyword` on `date`.

        Only the surname's politicians are tested, each through its own
        roles under the keyword, so the cost does not grow with the
        number of the keyword's holders.
        """
        roles = self.roles_by_pid_keyword
        return {
            pid
            for pid in self.surnames[surname]
            if any(role.active_on(date) for role in roles.get((pid, keyword), ()))
        }

    def holders_of_role(
        self, keyword: str, jurisdiction: TokenTuple, date: datetime.date
    ) -> set[str]:
        return {
            pid
            for pid, role in self.roles_by_key.get((keyword, jurisdiction), [])
            if role.active_on(date)
        }


def read_registry(path) -> PoliticianRegistry:
    """Load the semicolon-separated registry, checking it row by row.

    Columns: pid;given_name;surname;gender;roles;aliases;tenure. Roles are
    comma-separated keyword:jurisdiction pairs (jurisdiction optional);
    tenure entries align with roles by position as FROM..TO with either
    side open. Trailing columns may be left out; a row with more than
    seven fields is an error. Blank lines and lines starting with # are
    skipped. Each error names the row's line, among them a pid given on
    an earlier row, a surname, alias or jurisdiction with no lexical
    token, and a (keyword, jurisdiction) whose tenure overlaps another
    politician's.
    """
    politicians = []
    pid_lines: dict[str, int] = {}
    offices: dict[tuple[str, TokenTuple], list[tuple[str, Role]]] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split(";")
            if len(parts) < 4:
                raise InputError(path, lineno, "expected at least pid;given_name;surname;gender")
            if len(parts) > 7:
                raise InputError(
                    path, lineno, f"{len(parts)} fields, expected at most 7 "
                    "(pid;given_name;surname;gender;roles;aliases;tenure)",
                )
            parts += [""] * (7 - len(parts))
            pid, given, surname, gender_s, roles_s, aliases_s, tenure_s = map(str.strip, parts)
            if not pid:
                raise InputError(path, lineno, "empty pid")
            if pid in pid_lines:
                raise InputError(
                    path, lineno,
                    f"duplicate politician id {pid!r} (first on line {pid_lines[pid]})",
                )
            pid_lines[pid] = lineno
            if not surname:
                raise InputError(path, lineno, "empty surname")
            if not _norm_tokens(surname):
                raise InputError(path, lineno, f"{pid}: surname normalizes to nothing")
            try:
                gender = Gender(gender_s)
            except ValueError:
                raise InputError(path, lineno, "gender must be F or M") from None
            role_specs = [r.strip() for r in roles_s.split(",") if r.strip()]
            tenure_specs = tenure_s.split(",") if tenure_s else []
            if len(tenure_specs) > len(role_specs):
                raise InputError(path, lineno, "more tenure entries than roles")
            roles = []
            for i, item in enumerate(role_specs):
                keyword, _, jurisdiction = item.partition(":")
                kw = normalize_lemma(keyword) if keyword.strip() else None
                if not kw:
                    raise InputError(path, lineno, f"role {item!r} has no keyword")
                try:
                    start, end = _parse_tenure(tenure_specs[i] if i < len(tenure_specs) else "")
                except ValueError as exc:
                    raise InputError(path, lineno, str(exc)) from None
                role = Role(keyword=kw, jurisdiction=jurisdiction.strip(), start=start, end=end)
                if role.jurisdiction:
                    jur = _norm_tokens(role.jurisdiction)
                    if not jur:
                        raise InputError(
                            path, lineno,
                            f"{pid}: jurisdiction {role.jurisdiction!r} normalizes to nothing",
                        )
                    holders = offices.setdefault((kw, jur), [])
                    for other, held in holders:
                        if other != pid and held.overlaps(role):
                            raise InputError(
                                path, lineno,
                                f"politicians {other} and {pid} both hold ({kw}, {' '.join(jur)}) "
                                f"with overlapping tenure ({other} is on line {pid_lines[other]})",
                            )
                    holders.append((pid, role))
                roles.append(role)
            aliases = tuple(a.strip() for a in aliases_s.split(",") if a.strip())
            for alias in aliases:
                if not _norm_tokens(alias):
                    raise InputError(path, lineno, f"{pid}: alias {alias!r} normalizes to nothing")
            politicians.append(
                Politician(
                    pid=pid,
                    given_name=given,
                    surname=surname,
                    gender=gender,
                    roles=tuple(roles),
                    aliases=aliases,
                )
            )
    return PoliticianRegistry(politicians)
