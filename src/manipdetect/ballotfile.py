"""Ballot-file parsing/rendering and the machine-readable report.

File format (one statement per line, `#` starts a comment):

    candidates: a,b,c        required, first statement
    tiebreak: a,b,c          optional, defaults to the candidates order
    2x b>a>c                 a ballot with a repeat count
    a>c>b                    a single ballot

A `Nx` line is N voters casting one ballot; it is parsed once and kept as one
ballot with a count, not expanded.  Voter indices are 0-based positions in
the voter order the file spells out, which may hold at most MAX_BALLOTS
voters.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .core import ElectionInstance, Preference
from .errors import ParseError

# Each voter costs 16 bytes, one slot in `ElectionInstance.ballots` and one in
# `voter_class` (tracemalloc, 64-bit CPython 3.11; distinct ballots are
# stored once), so the cap keeps a file's election near 160 MB.
MAX_BALLOTS = 10_000_000

_COUNT_RE = re.compile(r"^(\d+)x\s+(.*)$")
_NAME_RE = re.compile(r"^[^\s,>#]+$")


def _split_names(raw: str, line_no: int) -> list[str]:
    names = [part.strip() for part in raw.split(",")]
    for name in names:
        if not name:
            raise ParseError("empty candidate name", line_no)
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid candidate name {name!r}", line_no)
    return names


def _parse_ballot(raw: str, ids: dict[str, int], line_no: int) -> tuple[int, ...]:
    parts = [part.strip() for part in raw.split(">")]
    ranking = []
    seen = set()
    for name in parts:
        if not name:
            raise ParseError("empty entry in ballot", line_no)
        if name not in ids:
            raise ParseError(f"unknown candidate {name!r}", line_no)
        c = ids[name]
        if c in seen:
            raise ParseError(f"duplicate candidate {name!r} in ballot", line_no)
        seen.add(c)
        ranking.append(c)
    if len(ranking) != len(ids):
        missing = sorted(set(ids) - {name for name in parts})
        raise ParseError(f"ballot is missing candidates: {', '.join(missing)}", line_no)
    return tuple(ranking)


def parse_election(text: str) -> ElectionInstance:
    """Parse an election file; raises ParseError with the offending line number."""
    names: list[str] | None = None
    ids: dict[str, int] = {}
    tiebreak: Preference | None = None
    ballots: list[Preference] = []
    counts: list[int] = []
    total = 0
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("candidates:"):
            if names is not None:
                raise ParseError("duplicate candidates line", line_no)
            names = _split_names(line[len("candidates:"):], line_no)
            if len(set(names)) != len(names):
                raise ParseError("duplicate candidate names", line_no)
            ids = {name: i for i, name in enumerate(names)}
            continue
        if names is None:
            raise ParseError("candidates line must come first", line_no)
        if line.startswith("tiebreak:"):
            if tiebreak is not None:
                raise ParseError("duplicate tiebreak line", line_no)
            tb_names = _split_names(line[len("tiebreak:"):], line_no)
            if sorted(tb_names) != sorted(names):
                raise ParseError("tiebreak must list every candidate exactly once", line_no)
            tiebreak = Preference._from_checked(tuple(ids[name] for name in tb_names))
            continue
        count = 1
        ballot_raw = line
        match = _COUNT_RE.match(line)
        if match:
            digits = match.group(1)
            # checked before int(): huge digit strings must not be converted
            if len(digits.lstrip("0")) > len(str(MAX_BALLOTS)):
                raise ParseError(f"election has more than {MAX_BALLOTS} ballots", line_no)
            count = int(digits)
            if count < 1:
                raise ParseError("ballot count must be >= 1", line_no)
            ballot_raw = match.group(2)
        total += count
        if total > MAX_BALLOTS:
            raise ParseError(f"election has more than {MAX_BALLOTS} ballots", line_no)
        ballots.append(Preference._from_checked(_parse_ballot(ballot_raw, ids, line_no)))
        counts.append(count)
    if names is None:
        raise ParseError("missing candidates line", max(1, text.count("\n") + 1))
    if not ballots:
        raise ParseError("election has no ballots", max(1, text.count("\n") + 1))
    return ElectionInstance(names, ballots, tiebreak=tiebreak, counts=counts)


def ballot_string(names: Sequence[str], pref: Preference) -> str:
    return ">".join(names[c] for c in pref.ranking)


def render_election(instance: ElectionInstance) -> str:
    """Render an instance so that parse(render(instance)) == instance.

    Each run of consecutive voters casting one ballot is one line, `Nx` when
    the run is longer than one voter, so voter indices keep their meaning.
    """
    names = instance.names
    lines = ["candidates: " + ",".join(names)]
    lines.append("tiebreak: " + ",".join(names[c] for c in instance.tiebreak))
    for k, run in groupby(instance.voter_class):
        count = sum(1 for _ in run)
        ballot = ballot_string(names, instance.classes[k][0])
        lines.append(ballot if count == 1 else f"{count}x {ballot}")
    return "\n".join(lines) + "\n"


@dataclass
class Report:
    """Structured outcome of one CLI command; round-trips through JSON."""

    problem: str
    rule: str
    verdict: str  # "YES" | "NO" | "-"
    winner: str | None = None
    current_winner: str | None = None
    witness_actual_winner: str | None = None
    witness: list[dict] | None = None  # [{"voter": int, "ballot": "a>b>c"}, ...]
    coalition: list[int] | None = None
    method: str = ""
    exhaustive: bool = False
    budget: str = "ok"  # "ok" | "forced" | "exceeded"
    elapsed_ms: float = 0.0
    cost: int | None = None  # on "exceeded": the work the search was refused
    limit: int | None = None  # on "exceeded": the budget it was held to

    def to_dict(self) -> dict:
        """The fields by name; the witness list is shared with the report, not copied."""
        data = dict(vars(self))
        if self.cost is None and self.limit is None:
            # refusal fields only on a refusal, so other reports stay as they were
            del data["cost"], data["limit"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))

    def lines(self) -> list[str]:
        out = [f"problem: {self.problem}", f"rule: {self.rule}"]
        if self.winner is not None:
            out.append(f"winner: {self.winner}")
        else:
            out.append(f"verdict: {self.verdict}")
        if self.current_winner is not None:
            out.append(f"current winner: {self.current_winner}")
        if self.witness_actual_winner is not None:
            out.append(f"actual winner: {self.witness_actual_winner}")
        if self.coalition is not None:
            out.append("coalition: " + ",".join(str(i) for i in self.coalition))
        if self.witness:
            for entry in self.witness:
                out.append(f"witness[{entry['voter']}]: {entry['ballot']}")
        out.append(f"method: {self.method}" + (" (exhaustive)" if self.exhaustive else ""))
        out.append(f"elapsed: {self.elapsed_ms:.1f} ms")
        return out
