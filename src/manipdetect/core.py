"""Election data model: candidates, ballots, profiles, and pairwise margins.

Candidates are referenced by dense integer ids 0..m-1 everywhere inside the
library; display names only matter at the I/O boundary.  All types are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import RosterError, ValidationError


@dataclass(frozen=True)
class Preference:
    """A strict ranking of candidate ids, most preferred first.

    The ranking must be an exact permutation of 0..m-1.
    """

    ranking: tuple[int, ...]

    def __init__(self, ranking: Sequence[int]):
        r = tuple(ranking)
        if not r:
            raise ValidationError("a preference must rank at least one candidate")
        if set(r) != set(range(len(r))):
            raise ValidationError(f"ranking {r!r} is not a permutation of 0..{len(r) - 1}")
        object.__setattr__(self, "ranking", r)

    @classmethod
    def _from_checked(cls, ranking: tuple[int, ...]) -> "Preference":
        """A preference from a ranking the caller has already checked to be a
        permutation, skipping the check; the parser checks each ballot line."""
        pref = object.__new__(cls)
        object.__setattr__(pref, "ranking", ranking)
        return pref

    @property
    def m(self) -> int:
        return len(self.ranking)

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


# A weighted profile: (ballot, count) pairs, the count being how many voters
# cast that ballot.  A ballot may appear in more than one pair.
Profile = Iterable[tuple[Preference, int]]


# Instances with at least this many one-voter ballot classes are counted
# from bit planes (`_pack`), smaller ones class by class: all three tables
# are faster from planes from here on at m = 7 to 20 (see the README).
COLUMN_CUTOVER = 256
# The widest roster counted by columns: the widest measured to win, the
# benchmark's `wide` election.
_COLUMN_MAX_M = 20


class _Classes(tuple):
    """The ballot classes of an instance, `(ballot, count)` pairs.

    Packed by `_pack`, they carry `pack = (planes, units, rest)`: bit v of
    `planes[c][j]` is bit j of the position (0 = top) at which the v-th of
    the `units` one-voter classes ranks candidate c, and `rest` holds the
    other pairs.  `units_are_voters` says whether unit v is voter v.  The
    planes are read by `rules.positional_scores`, `rules.topk_counts`,
    `margin_matrix`, `rules.stv_order`, the STV search's first choices and
    the greedy CPMSW search (`column_masks` splits them by position); each
    loops over `rest`, and a profile without `pack` takes the loops only.
    """


def _pack(
    m: int, classes: Iterable[tuple[Preference, int]], voter_class: tuple[int, ...]
) -> _Classes:
    """The classes of an m-candidate instance, packed from `COLUMN_CUTOVER`
    one-voter classes on at m <= 20: each candidate's position planes, built
    once.

    Each column's id planes (`bit_planes`) split into the units ranking
    each candidate c there (`column_masks`), and each such mask ORs into
    c's planes at the set bits of the column's position.  Unit v is voter v
    only when `voter_class` lists the unit classes in order: counts alone
    do not say so, since two voters who swap rankings leave every class
    with one voter.
    """
    classes = _Classes(classes)
    if m <= _COLUMN_MAX_M and len(classes) >= COLUMN_CUTOVER:
        unit_classes = [k for k, (_, w) in enumerate(classes) if w == 1]
        if len(unit_classes) >= COLUMN_CUTOVER:
            rest = tuple(pair for pair in classes if pair[1] != 1)
            packed = b"".join(bytes(pref.ranking) for pref, w in classes if w == 1)
            bits, ones = (m - 1).bit_length(), (1 << len(unit_classes)) - 1
            planes = [[0] * bits for _ in range(m)]
            for p in range(m):
                masks = column_masks(m, bit_planes(packed[p::m], bits), ones)
                for j in range(bits):
                    if p >> j & 1:
                        for own, mask in zip(planes, masks):
                            own[j] |= mask
            classes.pack = tuple(map(tuple, planes)), len(unit_classes), rest
            classes.units_are_voters = voter_class == tuple(unit_classes)
    return classes


# The three steps of an 8x8 bit-matrix transpose (Hacker's Delight, 7-3):
# the shift, and one 8-byte block of the mask as little-endian bytes.
_TRANSPOSE = (
    (7, bytes.fromhex("aa00aa00aa00aa00")),
    (14, bytes.fromhex("cccc0000cccc0000")),
    (28, bytes.fromhex("f0f0f0f000000000")),
)


@lru_cache(maxsize=8)
def _transpose_steps(size: int) -> tuple[tuple[int, int], ...]:
    """`_TRANSPOSE` with each block repeated over `size` bytes (a multiple
    of 8), as ints: built once per column length, not once per column."""
    return tuple((s, int.from_bytes(block * (size // 8), "little")) for s, block in _TRANSPOSE)


def bit_planes(column: bytes, count: int) -> list[int]:
    """Planes 0..count-1 of a column of byte ids: bit v of plane j is bit j
    of `column[v]`.

    Read as one little-endian int, each block of 8 entries is an 8x8 bit
    matrix (entry k in byte k); transposing every block at once puts bit j
    of entry k at bit k of byte j, so byte j of every block, read as an int,
    is plane j.
    """
    n = len(column)
    size = n + -n % 8
    x = int.from_bytes(column, "little")
    for shift, mask in _transpose_steps(size):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    planes = x.to_bytes(size, "little")
    return [int.from_bytes(planes[j::8], "little") for j in range(count)]


def column_masks(m: int, planes: Sequence[int], ones: int) -> list[int]:
    """One mask per value 0..m-1 from the bit planes of the entries that
    `ones` marks: bit v of mask c is set when entry v is c.  Split a
    candidate's position planes, they give the units ranking it at each
    position; split a column's id planes, the units ranking each candidate
    there.

    The masks split the entries by their values' bits from the highest
    down: after plane j, mask v holds the entries whose value c has
    c >> j == v.  That is about 2·m operations on n-bit ints.
    """
    masks = [ones]
    for j in reversed(range(len(planes))):
        plane = planes[j]
        split = []
        for mask in masks:
            high = mask & plane
            split += (mask ^ high, high)
        masks = split[:((m - 1) >> j) + 1]
    return masks


@dataclass(frozen=True, eq=False)
class ElectionInstance:
    """A full election: candidate names, the voters' ballots, tie-break order.

    The profile is kept as ballot classes: `classes` holds each distinct
    ballot once with its count, in first-appearance order, and
    `voter_class[i]` is the class of voter i, so aggregate tables cost one
    step per class, not per voter, and a voter costs one tuple slot.
    `ballots` is the per-voter view, built from the classes on each access
    (O(n)); library code reads the classes instead.  A copy made by
    `with_ballots_replaced` keeps the classes in order, appends rankings new
    to the election, and keeps a class whose voters were all replaced, with
    count 0.  Two instances are equal when their names, tie-break orders and
    per-voter rankings are, whatever their class order or count-0 classes.
    Every instance, a copy too, packs its large profiles once (`_pack`).

    The constructor takes one ballot per voter, or, with `counts` (a
    sequence as long as `ballots`), ballot k cast by `counts[k]` consecutive
    voters, at most `ballotfile.MAX_BALLOTS` in all.  Profiles with zero
    voters are rejected; the winner would be undefined.  The default
    tie-break order is the roster listing order; `_set` derives its ranks,
    `tb_rank`, once for every copy too.
    """

    names: tuple[str, ...]
    tiebreak: Preference
    classes: tuple[tuple[Preference, int], ...] = field(init=False)
    voter_class: tuple[int, ...] = field(init=False, repr=False)
    tb_rank: tuple[int, ...] = field(init=False, repr=False)

    def __init__(
        self,
        names: Sequence[str],
        ballots: Iterable[Preference | Sequence[int]],
        tiebreak: Preference | Sequence[int] | None = None,
        counts: Sequence[int] | None = None,
    ):
        names = tuple(names)
        if not names:
            raise ValidationError("roster must contain at least one candidate")
        if any(not n for n in names):
            raise ValidationError("candidate names must be non-empty")
        if len(set(names)) != len(names):
            raise ValidationError("candidate names must be unique")
        m = len(names)
        if counts is not None:
            if len(ballots) != len(counts):
                raise ValidationError(f"{len(ballots)} ballots but {len(counts)} counts")
            if counts and min(counts) < 1:
                raise ValidationError("ballot counts must be >= 1")
            from . import ballotfile  # the cap, read at call time; ballotfile imports this module

            n, limit = sum(counts), ballotfile.MAX_BALLOTS
            if n > limit:
                raise ValidationError(f"ballot counts total {n}; an election holds at most {limit}")
        index: dict[tuple[int, ...], int] = {}
        prefs: list[Preference] = []
        weights: list[int] = []
        run_class: list[int] = []
        for b, count in zip(ballots, repeat(1) if counts is None else counts):
            key = b.ranking if isinstance(b, Preference) else tuple(b)
            k = index.setdefault(key, len(prefs))
            if k == len(prefs):
                if len(key) != m:
                    raise ValidationError(f"ballot {key!r} does not cover the {m}-candidate roster")
                prefs.append(b if isinstance(b, Preference) else Preference(key))
                weights.append(count)
            else:
                weights[k] += count
            run_class.append(k)
        if not prefs:
            raise ValidationError("an election needs at least one ballot")
        if tiebreak is None:
            tb = Preference(range(m))
        else:
            tb = tiebreak if isinstance(tiebreak, Preference) else Preference(tiebreak)
            if tb.m != m:
                raise ValidationError("tie-break order must cover the whole roster")
        if counts is not None and len(run_class) != n:
            run_class = chain.from_iterable(map(repeat, run_class, counts))
        self._set(names, tb, tuple(zip(prefs, weights)), tuple(run_class))

    def _set(self, names, tiebreak, classes, voter_class) -> None:
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "tiebreak", tiebreak)
        object.__setattr__(self, "tb_rank", tuple(tiebreak.positions()))
        object.__setattr__(self, "classes", _pack(len(names), classes, voter_class))
        object.__setattr__(self, "voter_class", voter_class)

    @property
    def ballots(self) -> tuple[Preference, ...]:
        """One ballot per voter, built from the classes on each access."""
        prefs = [pref for pref, _ in self.classes]
        return tuple(map(prefs.__getitem__, self.voter_class))

    def _key(self) -> tuple:
        rankings = [pref.ranking for pref, _ in self.classes]
        return self.names, self.tiebreak.ranking, tuple(map(rankings.__getitem__, self.voter_class))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElectionInstance):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def m(self) -> int:
        return len(self.names)

    @property
    def n(self) -> int:
        return len(self.voter_class)

    def candidate_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise RosterError(f"unknown candidate name {name!r}") from None

    def _check_voters(self, voters: Iterable[int]) -> None:
        for i in voters:
            if not 0 <= i < self.n:
                raise RosterError(f"voter index {i} outside 0..{self.n - 1}")

    def with_ballots_replaced(self, replacements: Mapping[int, Preference]) -> "ElectionInstance":
        """A copy of this election with the given voters' ballots swapped out."""
        self._check_voters(replacements)
        m = self.m
        classes = list(self.classes)
        voter_class = list(self.voter_class)
        index = {pref.ranking: k for k, (pref, _) in enumerate(classes)}
        for i, pref in replacements.items():
            if not isinstance(pref, Preference):
                pref = Preference(pref)
            if pref.m != m:
                raise ValidationError(f"ballot {pref.ranking!r} does not cover the {m}-candidate roster")
            k = index.setdefault(pref.ranking, len(classes))
            if k == len(classes):
                classes.append((pref, 0))
            old = voter_class[i]
            classes[old] = (classes[old][0], classes[old][1] - 1)
            classes[k] = (classes[k][0], classes[k][1] + 1)
            voter_class[i] = k
        copy = object.__new__(type(self))
        copy._set(self.names, self.tiebreak, classes, tuple(voter_class))
        return copy

    def ballots_of(self, voters: Iterable[int]) -> list[tuple[Preference, int]]:
        """The weighted profile of just the listed voters, one unit pair each."""
        voters = list(voters)
        self._check_voters(voters)
        classes, voter_class = self.classes, self.voter_class
        return [(classes[voter_class[i]][0], 1) for i in voters]

    def ballots_excluding(self, voters: Iterable[int]) -> list[tuple[Preference, int]]:
        """The weighted profile of every voter but the listed ones, in class order."""
        drop = set(voters)
        self._check_voters(drop)
        profile = list(self.classes)
        for i in drop:
            k = self.voter_class[i]
            profile[k] = (profile[k][0], profile[k][1] - 1)
        return list(compress(profile, map(itemgetter(1), profile)))


def margin_matrix(m: int, profile: Profile) -> list[list[int]]:
    """Pairwise margins of a weighted profile (may be empty).

    An instance's packed classes (`_Classes`) are compared pair by pair
    from the two candidates' position planes, bit-sliced: from the lowest
    plane up, `above` marks the units on which a's position, read so far,
    is the smaller one, and a plane where the two positions differ
    overrides it with b's bit there.  So `above` ends as the units ranking
    a above b, after four operations per plane and one `bit_count()` per
    pair, O(m²·log m) operations on n-bit ints; the other units rank b
    above a.
    """
    planes, units, profile = getattr(profile, "pack", (None, 0, profile))
    d = [[0] * m for _ in range(m)]
    if planes is not None:
        for a, mine in enumerate(planes):
            for b in range(a + 1, m):
                above = 0
                for x, y in zip(mine, planes[b]):
                    above ^= (above ^ y) & (x ^ y)
                d[a][b] = above = above.bit_count()
                d[b][a] = units - above
    for ballot, w in profile:
        r = ballot.ranking
        for p, a in enumerate(r):
            row = d[a]
            for b in r[p + 1:]:
                row[b] += w
    for a in range(m):
        row = d[a]
        for b in range(a + 1, m):
            v = row[b] - d[b][a]
            row[b] = v
            d[b][a] = -v
    return d
