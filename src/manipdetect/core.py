"""Election data model: candidates, ballots, profiles, and pairwise margins.

Candidates are referenced by dense integer ids 0..m-1 everywhere inside the
library; display names only matter at the I/O boundary.  All types are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import RosterError, ValidationError


class Candidate(NamedTuple):
    id: int
    name: str


@dataclass(frozen=True)
class Preference:
    """A strict ranking of candidate ids, most preferred first.

    The ranking must be an exact permutation of 0..m-1.
    """

    ranking: tuple[int, ...]

    def __init__(self, ranking: Sequence[int]):
        object.__setattr__(self, "ranking", tuple(ranking))
        r = self.ranking
        if len(r) == 0:
            raise ValidationError("a preference must rank at least one candidate")
        if set(r) != set(range(len(r))):
            raise ValidationError(f"ranking {r!r} is not a permutation of 0..{len(r) - 1}")

    @property
    def m(self) -> int:
        return len(self.ranking)

    def position_of(self, candidate: int) -> int:
        """1-based rank of `candidate`; 1 is most preferred."""
        self._check_id(candidate)
        return self.ranking.index(candidate) + 1

    def prefers(self, a: int, b: int) -> bool:
        """True when `a` is ranked strictly above `b`."""
        self._check_id(a)
        self._check_id(b)
        return self.ranking.index(a) < self.ranking.index(b)

    def positions(self) -> list[int]:
        """0-based position of every candidate, indexed by id."""
        pos = [0] * len(self.ranking)
        for p, c in enumerate(self.ranking):
            pos[c] = p
        return pos

    def _check_id(self, c: int) -> None:
        if not 0 <= c < len(self.ranking):
            raise RosterError(f"candidate id {c} outside roster 0..{len(self.ranking) - 1}")

    def __iter__(self):
        return iter(self.ranking)

    def __len__(self) -> int:
        return len(self.ranking)


# A tie-break order is just a preference used as the predetermined order
# that resolves co-winner ties (earlier = favored).
TieBreakOrder = Preference


@dataclass(frozen=True)
class ElectionInstance:
    """A full election: candidate names, one ballot per voter, tie-break order.

    Profiles with zero voters are rejected; the winner would be undefined.
    The default tie-break order is the roster listing order.
    """

    names: tuple[str, ...]
    ballots: tuple[Preference, ...]
    tiebreak: Preference

    def __init__(
        self,
        names: Sequence[str],
        ballots: Iterable[Preference | Sequence[int]],
        tiebreak: Preference | Sequence[int] | None = None,
    ):
        names = tuple(names)
        if not names:
            raise ValidationError("roster must contain at least one candidate")
        if any(not n for n in names):
            raise ValidationError("candidate names must be non-empty")
        if len(set(names)) != len(names):
            raise ValidationError("candidate names must be unique")
        m = len(names)
        norm: list[Preference] = []
        for b in ballots:
            pref = b if isinstance(b, Preference) else Preference(b)
            if pref.m != m:
                raise ValidationError(f"ballot {pref.ranking!r} does not cover the {m}-candidate roster")
            norm.append(pref)
        if not norm:
            raise ValidationError("an election needs at least one ballot")
        if tiebreak is None:
            tb = Preference(range(m))
        else:
            tb = tiebreak if isinstance(tiebreak, Preference) else Preference(tiebreak)
            if tb.m != m:
                raise ValidationError("tie-break order must cover the whole roster")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "ballots", tuple(norm))
        object.__setattr__(self, "tiebreak", tb)

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return len(self.ballots)

    @property
    def roster(self) -> tuple[Candidate, ...]:
        return tuple(Candidate(i, n) for i, n in enumerate(self.names))

    def candidate_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RosterError(f"unknown candidate name {name!r}") from None

    def with_ballots_replaced(self, replacements: Mapping[int, Preference]) -> "ElectionInstance":
        """A copy of this election with the given voters' ballots swapped out."""
        for i in replacements:
            if not 0 <= i < self.n:
                raise RosterError(f"voter index {i} outside 0..{self.n - 1}")
        ballots = list(self.ballots)
        for i, pref in replacements.items():
            ballots[i] = pref
        return ElectionInstance(self.names, ballots, self.tiebreak)

    def ballots_excluding(self, voters: Iterable[int]) -> tuple[Preference, ...]:
        """All ballots except the listed voters', in file order."""
        drop = set(voters)
        for i in drop:
            if not 0 <= i < self.n:
                raise RosterError(f"voter index {i} outside 0..{self.n - 1}")
        return tuple(b for i, b in enumerate(self.ballots) if i not in drop)


@dataclass(frozen=True)
class WeightedMajorityGraph:
    """Pairwise margin matrix D with D[a][b] = (#a above b) - (#b above a)."""

    margins: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = self.margins
        m = len(d)
        for a in range(m):
            if len(d[a]) != m:
                raise ValidationError("margin matrix must be square")
            if d[a][a] != 0:
                raise ValidationError("margin matrix must have a zero diagonal")
            for b in range(m):
                if d[a][b] != -d[b][a]:
                    raise ValidationError("margin matrix must be antisymmetric")

    @property
    def m(self) -> int:
        return len(self.margins)

    def margin(self, a: int, b: int) -> int:
        return self.margins[a][b]


def margin_matrix(m: int, ballots: Iterable[Preference]) -> list[list[int]]:
    """Pairwise margins of a raw ballot collection (may be empty)."""
    d = [[0] * m for _ in range(m)]
    for ballot in ballots:
        pos = ballot.positions()
        for a in range(m):
            pa = pos[a]
            for b in range(a + 1, m):
                if pa < pos[b]:
                    d[a][b] += 1
                    d[b][a] -= 1
                else:
                    d[a][b] -= 1
                    d[b][a] += 1
    return d


def pairwise_margin(instance: ElectionInstance, a: int, b: int) -> int:
    """How many voters rank `a` above `b`, minus how many rank `b` above `a`."""
    if not 0 <= a < instance.m:
        raise RosterError(f"candidate id {a} outside roster")
    if not 0 <= b < instance.m:
        raise RosterError(f"candidate id {b} outside roster")
    if a == b:
        return 0
    margin = 0
    for ballot in instance.ballots:
        margin += 1 if ballot.prefers(a, b) else -1
    return margin


def majority_graph(instance: ElectionInstance) -> WeightedMajorityGraph:
    """The weighted majority graph of the full profile."""
    d = margin_matrix(instance.m, instance.ballots)
    return WeightedMajorityGraph(tuple(tuple(row) for row in d))
