"""The registry of political offices under scrutiny, with match indexes."""

from __future__ import annotations

import datetime
from typing import Optional

from .errors import RegistryError, open_input
from .model import Gender, Politician, Role, normalize_lemma

TokenTuple = tuple[str, ...]


def _norm_tokens(text: str) -> TokenTuple:
    out = []
    for part in text.split():
        norm = normalize_lemma(part)
        if norm:
            out.append(norm)
    return tuple(out)


def _parse_tenure(raw: str, where: str) -> tuple[Optional[datetime.date], Optional[datetime.date]]:
    raw = raw.strip()
    if not raw:
        return None, None
    if ".." not in raw:
        raise RegistryError(f"{where}: tenure {raw!r} must look like FROM..TO")
    lo, hi = raw.split("..", 1)
    try:
        start = datetime.date.fromisoformat(lo) if lo else None
        end = datetime.date.fromisoformat(hi) if hi else None
    except ValueError as exc:
        raise RegistryError(f"{where}: bad tenure date: {exc}") from None
    if start and end and end < start:
        raise RegistryError(f"{where}: tenure ends before it starts")
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
    """

    def __init__(self, politicians: list[Politician]):
        self.politicians = {p.pid: p for p in politicians}
        if len(self.politicians) != len(politicians):
            raise RegistryError("duplicate politician ids")
        self.full_names: dict[TokenTuple, set[str]] = {}
        self.surnames: dict[TokenTuple, set[str]] = {}
        self.roles_by_pid_keyword: dict[tuple[str, str], list[Role]] = {}
        self.roles_by_key: dict[tuple[str, TokenTuple], list[tuple[str, Role]]] = {}
        for p in politicians:
            surname = _norm_tokens(p.surname)
            if not surname:
                raise RegistryError(f"{p.pid}: surname normalizes to nothing")
            self.surnames.setdefault(surname, set()).add(p.pid)
            given = _norm_tokens(p.given_name)
            if given:
                self.full_names.setdefault(given + surname, set()).add(p.pid)
            for alias in p.aliases:
                toks = _norm_tokens(alias)
                if not toks:
                    continue
                if len(toks) == 1:
                    self.surnames.setdefault(toks, set()).add(p.pid)
                else:
                    self.full_names.setdefault(toks, set()).add(p.pid)
            for role in p.roles:
                self.roles_by_pid_keyword.setdefault((p.pid, role.keyword), []).append(role)
                if role.jurisdiction:
                    jur = _norm_tokens(role.jurisdiction)
                    if not jur:
                        raise RegistryError(
                            f"{p.pid}: jurisdiction {role.jurisdiction!r} "
                            "normalizes to nothing"
                        )
                    self.roles_by_key.setdefault((role.keyword, jur), []).append((p.pid, role))
        self._check_role_ambiguity()
        self.names_by_first = _by_first_token(self.full_names)
        self.surnames_by_first = _by_first_token(self.surnames)
        jurisdictions: dict[str, list[TokenTuple]] = {}
        for keyword, jur in self.roles_by_key:
            jurisdictions.setdefault(keyword, []).append(jur)
        self.jurisdictions_by_first: dict[str, dict[str, list[TokenTuple]]] = {
            keyword: _by_first_token(jurs) for keyword, jurs in jurisdictions.items()
        }

    def _check_role_ambiguity(self) -> None:
        for (keyword, jur), holders in self.roles_by_key.items():
            for i in range(len(holders)):
                for j in range(i + 1, len(holders)):
                    pid_a, role_a = holders[i]
                    pid_b, role_b = holders[j]
                    if pid_a != pid_b and role_a.overlaps(role_b):
                        raise RegistryError(
                            f"politicians {pid_a} and {pid_b} both hold "
                            f"({keyword}, {' '.join(jur)}) with overlapping tenure"
                        )

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
    """Load the semicolon-separated registry.

    Columns: pid;given_name;surname;gender;roles;aliases;tenure. Roles are
    comma-separated keyword:jurisdiction pairs (jurisdiction optional);
    tenure entries align with roles by position as FROM..TO with either
    side open. Trailing columns may be left out; a row with more than
    seven fields is an error. Blank lines and lines starting with # are
    skipped.
    """
    politicians = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split(";")
            if len(parts) < 4:
                raise RegistryError(
                    f"{path}: line {lineno}: expected at least "
                    "pid;given_name;surname;gender"
                )
            where = f"{path}: line {lineno}"
            if len(parts) > 7:
                raise RegistryError(
                    f"{where}: {len(parts)} fields, expected at most 7 "
                    "(pid;given_name;surname;gender;roles;aliases;tenure)"
                )
            parts += [""] * (7 - len(parts))
            pid, given, surname, gender_s, roles_s, aliases_s, tenure_s = parts
            if not pid.strip():
                raise RegistryError(f"{where}: empty pid")
            if not surname.strip():
                raise RegistryError(f"{where}: empty surname")
            try:
                gender = Gender(gender_s.strip())
            except ValueError:
                raise RegistryError(f"{where}: gender must be F or M") from None
            role_specs = [r.strip() for r in roles_s.split(",") if r.strip()]
            tenure_specs = tenure_s.split(",") if tenure_s.strip() else []
            if len(tenure_specs) > len(role_specs):
                raise RegistryError(f"{where}: more tenure entries than roles")
            roles = []
            for i, item in enumerate(role_specs):
                keyword, _, jurisdiction = item.partition(":")
                kw = normalize_lemma(keyword) if keyword.strip() else None
                if not kw:
                    raise RegistryError(f"{where}: role {item!r} has no keyword")
                start, end = _parse_tenure(
                    tenure_specs[i] if i < len(tenure_specs) else "", where
                )
                roles.append(
                    Role(
                        keyword=kw,
                        jurisdiction=jurisdiction.strip(),
                        start=start,
                        end=end,
                    )
                )
            aliases = tuple(a.strip() for a in aliases_s.split(",") if a.strip())
            politicians.append(
                Politician(
                    pid=pid.strip(),
                    given_name=given.strip(),
                    surname=surname.strip(),
                    gender=gender,
                    roles=tuple(roles),
                    aliases=aliases,
                )
            )
    return PoliticianRegistry(politicians)
