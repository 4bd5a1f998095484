"""The column kernels against the class-by-class loops.

Above `core.COLUMN_CUTOVER` one-voter classes, `positional_scores`,
`topk_counts` and `margin_matrix` count those classes column by column.
Every table must equal the one the loops build; the loops are the
reference, reached by raising the cut-over past the profile's size.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manipdetect import core
from manipdetect.core import ElectionInstance, Preference, _unit_columns, margin_matrix
from manipdetect.rules import ScoringVector, positional_scores, topk_counts

LOOPS = 10**9


def _vectors(m):
    """Plurality, 2-approval, veto, Borda and two irregular Fraction vectors."""
    if m < 2:
        return []
    fractions = [Fraction(3 * (m - p) ** 2, 2 * p + 1) for p in range(m - 1)]
    return [
        *(ScoringVector.approval(k, m) for k in sorted({1, min(2, m - 1), m - 1})),
        ScoringVector.borda(m),
        ScoringVector(fractions + [Fraction(-1, 3)]),
        ScoringVector(fractions + [0]),
    ]


def _tables(m, profile):
    return [
        margin_matrix(m, profile),
        topk_counts(m, profile),
        *(positional_scores(m, profile, v) for v in _vectors(m)),
    ]


def _types(tables):
    rows = [row if isinstance(row, list) else [row] for table in tables for row in table]
    return [type(v) for row in rows for v in row]


def _assert_columns_match_loops(m, profile, cutover):
    """The tables at `cutover` equal the loops' tables, entry by entry and type by type."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", LOOPS)
        expected = _tables(m, profile)
        mp.setattr(core, "COLUMN_CUTOVER", cutover)
        got = _tables(m, profile)
    assert got == expected
    assert _types(got) == _types(expected)


def _uses_columns(m, profile):
    return _unit_columns(m, profile, 1)[0] is not None


rankings = st.integers(1, 8).flatmap(
    lambda m: st.lists(
        st.tuples(st.permutations(range(m)), st.sampled_from([1, 1, 1, 0, 2, 7])),
        max_size=40,
    ).map(lambda pairs: (m, [(Preference(r), w) for r, w in pairs]))
)


@given(rankings)
@settings(max_examples=150, deadline=None)
def test_column_tables_match_loop_tables(case):
    # unit, weighted and count-0 classes mixed, repeats allowed, m = 1..8
    m, profile = case
    _assert_columns_match_loops(m, profile, 1)


def test_count_zero_classes_of_replaced_voters():
    m = 5
    pool = list(permutations(range(m)))
    inst = ElectionInstance([f"c{i}" for i in range(m)], pool[:40] + pool[:10])
    copy = inst.with_ballots_replaced({i: Preference(pool[60 + i]) for i in range(0, 50, 3)})
    assert any(w == 0 for _, w in copy.classes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", 4)
        assert _uses_columns(m, copy.classes)
    _assert_columns_match_loops(m, copy.classes, 4)


@pytest.mark.parametrize("cutover", [3, LOOPS])
def test_one_shot_profile_is_read_once(cutover):
    m = 4
    pool = list(permutations(range(m)))
    profile = [(Preference(r), 1 + (i % 4 == 0)) for i, r in enumerate(pool)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", cutover)
        for vector in _vectors(m):
            assert positional_scores(m, (pair for pair in profile), vector) == positional_scores(
                m, profile, vector
            )
        assert topk_counts(m, iter(profile)) == topk_counts(m, profile)
        assert margin_matrix(m, iter(profile)) == margin_matrix(m, profile)


def test_default_cutover_counts_one_voter_classes_only():
    m = 6
    units = list(permutations(range(m)))[: core.COLUMN_CUTOVER]
    weighted = [(Preference(r), 3) for r in list(permutations(range(m)))[-10:]]
    below = [(Preference(r), 1) for r in units[:-1]] + weighted
    at = [(Preference(r), 1) for r in units] + weighted
    assert len(below) >= core.COLUMN_CUTOVER
    assert not _uses_columns(m, below)
    assert _uses_columns(m, at)
    for profile in (below, at):
        _assert_columns_match_loops(m, profile, core.COLUMN_CUTOVER)


@pytest.mark.parametrize("m, columns", [(20, True), (21, False)])
def test_widest_rosters_counted_by_columns(m, columns):
    # all three kernels stop at 20 candidates
    ranks = [tuple(range(m)), tuple(reversed(range(m)))]
    ranks += [tuple((i * step) % m for i in range(m)) for step in (3, 7, 11, 13) if m % step]
    ranks += [ranks[0][1:] + ranks[0][:1]]
    profile = [(Preference(r), 1) for r in ranks] + [(Preference(ranks[-1]), 2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", 4)
        assert _uses_columns(m, profile) == columns
    _assert_columns_match_loops(m, profile, 4)
