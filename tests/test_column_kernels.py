"""The packed kernels against the class-by-class loops.

An instance built with at least `core.COLUMN_CUTOVER` one-voter classes
stores, once (`core._pack`), each candidate's position planes: bit v of
plane j of candidate c is bit j of the position at which unit v ranks c.
`positional_scores`, `topk_counts` and `margin_matrix` count its classes
from those planes, and `stv_order` and the STV search's first choices move
masks of units split from them.  Every table must equal the one the loops
build for the same instance built with the cut-over raised past its size:
the cut-over is read when an instance is built, so each side is built
under its own cut-over.  A packed STV order and first choices must read
no unit's ranking.  `core.column_masks`, which splits planes into one mask per
value, is checked against each value's entries, and the stored planes
against `core.bit_planes` of each candidate's positions.  The greedy CPMSW
search reads a packed instance's voters from the same planes when its units
are its voters; its verdicts, witnesses and voter order must equal the
per-class loop's, built the same way.  Once an instance is built, nothing
transposes a column again.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import chain, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manipdetect import core, detect_scoring, detect_stv, rules
from manipdetect.core import ElectionInstance, Preference, margin_matrix
from manipdetect.detect_scoring import _shift_groups, cpmsw_scoring_greedy
from manipdetect.detection import DetectionQuery
from manipdetect.rules import (
    ScoringVector,
    VotingRule,
    positional_scores,
    tally,
    topk_counts,
    winner,
)

LOOPS = 10**9


def _vectors(m):
    """Plurality, 2-approval, veto, a 2-approval of mixed int and Fraction
    entries, Borda, two scaled Bordas (one of Fractions), a Borda of mixed
    entries, a convex Fraction vector and two irregular Fraction vectors."""
    if m < 2:
        return []
    fractions = [Fraction(3 * (m - p) ** 2, 2 * p + 1) for p in range(m - 1)]
    return [
        *(ScoringVector.approval(k, m) for k in sorted({1, min(2, m - 1), m - 1})),
        *([ScoringVector([Fraction(1), 1] + [0] * (m - 2))] if m > 2 else []),
        ScoringVector.borda(m),
        ScoringVector([3 * (m - 1 - p) + 2 for p in range(m)]),
        ScoringVector([Fraction(m - 1 - p, 3) for p in range(m)]),
        ScoringVector([Fraction(m - 1), *range(m - 2, -1, -1)]),
        ScoringVector([Fraction(m * m - p * p, 3) for p in range(m)]),
        ScoringVector(fractions + [Fraction(-1, 3)]),
        ScoringVector(fractions + [0]),
    ]


def _tables(m, profile):
    return [
        margin_matrix(m, profile),
        topk_counts(m, profile),
        *(positional_scores(m, profile, v) for v in _vectors(m)),
        # the STV order under the default tie-break and the reversed one
        rules.stv_order(m, profile, range(m)),
        rules.stv_order(m, profile, range(m - 1, -1, -1)),
    ]


def _types(tables):
    rows = [row if isinstance(row, list) else [row] for table in tables for row in table]
    return [type(v) for row in rows for v in row]


def _build(m, ballots, counts=None, replacements=None):
    inst = ElectionInstance([f"c{i}" for i in range(m)], ballots, counts=counts)
    return inst.with_ballots_replaced(replacements) if replacements else inst


def _assert_columns_match_loops(cutover, *args):
    """The tables of `_build(*args)` built at `cutover` equal, entry by entry
    and type by type, those of the same instance built for the loops; returns
    whether the former was packed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", LOOPS)
        loops = _build(*args)
        mp.setattr(core, "COLUMN_CUTOVER", cutover)
        columns = _build(*args)
    assert columns.classes == loops.classes
    assert not hasattr(loops.classes, "pack")
    expected = _tables(loops.m, loops.classes)
    got = _tables(columns.m, columns.classes)
    assert got == expected
    assert _types(got) == _types(expected)
    return hasattr(columns.classes, "pack")


cases = st.integers(1, 8).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.tuples(st.permutations(range(m)), st.sampled_from([1, 1, 1, 2, 7])),
            min_size=1,
            max_size=40,
        ),
        st.lists(st.tuples(st.integers(0, 10**6), st.permutations(range(m))), max_size=12),
    )
)


@given(cases)
@settings(max_examples=150, deadline=None)
def test_column_tables_match_loop_tables(case):
    # unit, weighted and count-0 classes mixed, repeats allowed, m = 1..8
    m, pairs, swaps = case
    ballots, counts = [r for r, _ in pairs], [w for _, w in pairs]
    n = sum(counts)
    replacements = {i % n: Preference(r) for i, r in swaps}
    packed = _assert_columns_match_loops(1, m, ballots, counts, replacements)
    classes = _build(m, ballots, counts, replacements).classes
    assert packed == any(w == 1 for _, w in classes)


columns = st.integers(1, 32).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, m - 1), max_size=200))
)


def _assert_masks_mark_positions(m, column):
    planes = core.bit_planes(column, (m - 1).bit_length())
    masks = core.column_masks(m, planes, (1 << len(column)) - 1)
    assert len(masks) == m
    for c, mask in enumerate(masks):
        assert mask == sum(1 << v for v, id_ in enumerate(column) if id_ == c)


@given(columns)
@settings(max_examples=200, deadline=None)
def test_column_masks_mark_positions(case):
    # any length, a multiple of 8 or not, empty too, and ids up to 31
    m, ids = case
    _assert_masks_mark_positions(m, bytes(ids))


@pytest.mark.parametrize("n", [4_095, 4_096, 10_001])
def test_long_columns_are_counted_right(n):
    m, rng = 20, random.Random(n)
    _assert_masks_mark_positions(m, bytes(rng.choice(range(m - 3)) for _ in range(n)))


@pytest.mark.parametrize("units", [4_097, 10_001])
def test_wide_tables_match_loop_tables(units):
    # the benchmark's `wide` scale: m = 20, a column length that is not a
    # multiple of 8, and weighted and count-0 classes beside the units
    m, rng = 20, random.Random(units)
    rankings = list(dict.fromkeys(tuple(rng.sample(range(m), m)) for _ in range(units + 40)))
    ballots = rankings[:units] + rankings[units:units + 6]
    counts = [1] * units + [2, 3, 3, 5, 7, 2]
    replacements = {i: Preference(r) for i, r in zip(range(0, units, 997), rankings[units + 6:])}
    copy = _build(m, ballots, counts, replacements)
    assert any(w == 0 for _, w in copy.classes)
    assert copy.classes.pack[1] == units
    assert _assert_columns_match_loops(core.COLUMN_CUTOVER, m, ballots, counts, replacements)


@pytest.mark.parametrize("m, units, cutover", [(3, 2, 1), (7, 4_097, core.COLUMN_CUTOVER)])
def test_narrow_tables_match_loop_tables(m, units, cutover):
    # positions of two and three bits, weighted classes beside the units,
    # and a copy whose replaced voters leave count-0 classes
    rng = random.Random(m)
    rankings = rng.sample(list(permutations(range(m))), min(units + 9, math.factorial(m)))
    ballots = rankings[:units + 3]
    counts = [1] * units + [2, 3, 5]
    replacements = {i: Preference(r) for i, r in zip(range(0, units, 997), rankings[units + 3:])}
    copy = _build(m, ballots, counts, replacements)
    assert any(w == 0 for _, w in copy.classes)
    for swaps in ({}, replacements):
        assert _assert_columns_match_loops(cutover, m, ballots, counts, swaps)


def test_count_zero_classes_of_replaced_voters():
    m = 5
    pool = list(permutations(range(m)))
    replacements = {i: Preference(pool[60 + i]) for i in range(0, 50, 3)}
    copy = _build(m, pool[:40] + pool[:10], None, replacements)
    assert any(w == 0 for _, w in copy.classes)
    assert _assert_columns_match_loops(4, m, pool[:40] + pool[:10], None, replacements)


@pytest.mark.parametrize("cutover", [3, LOOPS])
def test_one_shot_profile_is_read_once(cutover):
    # a one-shot iterable carries no pack: it is read once, by the loops,
    # whether the instance whose classes it yields was packed or not
    m = 4
    pool = list(permutations(range(m)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", cutover)
        inst = _build(m, pool, [1 + (i % 4 == 0) for i in range(len(pool))])
    assert hasattr(inst.classes, "pack") == (cutover == 3)
    profile = inst.classes
    for vector in _vectors(m):
        assert positional_scores(m, (pair for pair in profile), vector) == positional_scores(
            m, profile, vector
        )
    assert topk_counts(m, iter(profile)) == topk_counts(m, profile)
    assert margin_matrix(m, iter(profile)) == margin_matrix(m, profile)


def test_default_cutover_counts_one_voter_classes_only():
    m = 6
    pool = list(permutations(range(m)))
    for units in (core.COLUMN_CUTOVER - 1, core.COLUMN_CUTOVER):
        ballots = pool[:units] + pool[-10:]
        counts = [1] * units + [3] * 10
        assert len(ballots) >= core.COLUMN_CUTOVER
        packed = units == core.COLUMN_CUTOVER
        assert hasattr(_build(m, ballots, counts).classes, "pack") == packed
        assert _assert_columns_match_loops(core.COLUMN_CUTOVER, m, ballots, counts) == packed


@pytest.mark.parametrize("m, packed", [(20, True), (21, False)])
def test_widest_rosters_counted_by_columns(m, packed):
    # all three kernels stop at 20 candidates
    ranks = [tuple(range(m)), tuple(reversed(range(m)))]
    ranks += [tuple((i * step) % m for i in range(m)) for step in (3, 7, 11, 13) if m % step]
    ranks += [ranks[0][1:] + ranks[0][:1]]
    counts = [1] * len(ranks) + [2]
    assert _assert_columns_match_loops(4, m, ranks + [(1, 0) + ranks[0][2:]], counts) == packed


def _count_packs(monkeypatch):
    calls = []
    pack = core._pack

    def counted(m, *args):
        calls.append(m)
        return pack(m, *args)

    monkeypatch.setattr(core, "_pack", counted)
    return calls


def test_one_pack_per_instance(monkeypatch):
    m = 6
    pool = list(permutations(range(m)))
    calls = _count_packs(monkeypatch)
    inst = _build(m, pool[:300])
    assert len(calls) == 1 and hasattr(inst.classes, "pack")
    rules = [VotingRule.maximin(), VotingRule.bucklin(), VotingRule.scoring(ScoringVector.borda(m))]
    for _ in range(3):
        for rule in rules:
            tally(m, inst.classes, rule)
    assert len(calls) == 1
    copies = [inst.with_ballots_replaced({i: Preference(pool[-1 - i])}) for i in range(4)]
    assert len(calls) == 1 + len(copies)
    assert all(hasattr(copy.classes, "pack") for copy in copies)


def test_copy_tables_equal_fresh_instance_tables():
    # the copy keeps its class order and count-0 classes; a fresh instance
    # of the same voters has neither, and the same tables
    m = 6
    pool = list(permutations(range(m)))
    inst = _build(m, pool[:300] + pool[:20] * 2)
    copy = inst.with_ballots_replaced(
        {**{i: Preference(pool[400 + i]) for i in range(0, 300, 7)},
         **{i: Preference(pool[0]) for i in range(300, 340)}}
    )
    fresh = ElectionInstance(copy.names, copy.ballots)
    assert any(w == 0 for _, w in copy.classes) and not any(w == 0 for _, w in fresh.classes)
    assert hasattr(copy.classes, "pack") and hasattr(fresh.classes, "pack")
    assert _tables(m, copy.classes) == _tables(m, fresh.classes)


def test_planes_take_one_bit_per_unit_and_position_bit():
    m, rng = 20, random.Random(0)
    rankings = dict.fromkeys(tuple(rng.sample(range(m), m)) for _ in range(10_000))
    classes = [(Preference(r), 1) for r in rankings]
    voters = tuple(range(len(classes)))
    core._pack(m, classes, voters)  # the transpose masks of this length, built once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plain = core._Classes(classes)
        middle = tracemalloc.get_traced_memory()[0]
        packed = core._pack(m, classes, voters)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not hasattr(plain, "pack") and hasattr(packed, "pack")
    # the packed classes cost the plain tuple plus the planes: m candidates
    # of five planes, a bit per unit, in ints of 30-bit digits stored in 32
    # bits, well under the m bytes per unit of a byte pack
    bits = (m - 1).bit_length()
    assert (after - middle) - (middle - before) <= m * bits * len(classes) // 7


def _assert_planes_stored(inst):
    """The instance's stored planes are its units' position planes: those
    of candidate c equal `core.bit_planes` of the positions at which the
    units rank c, and bit v of plane j of c is bit j of the position at
    which the v-th unit ranks c."""
    m = inst.m
    planes, units, rest = inst.classes.pack
    rankings = [pref.ranking for pref, w in inst.classes if w == 1]
    assert units == len(rankings) and rest == tuple(pair for pair in inst.classes if pair[1] != 1)
    bits = (m - 1).bit_length()
    assert len(planes) == m
    for c, own in enumerate(planes):
        positions = bytes(r.index(c) for r in rankings)
        assert list(own) == core.bit_planes(positions, bits)
        for j, plane in enumerate(own):
            assert plane == int("".join(str(p >> j & 1) for p in reversed(positions)), 2)


@pytest.mark.parametrize("units", [4_097, 10_001])
def test_stored_planes_are_the_candidates_position_planes(units):
    # a fresh instance with weighted classes, and a copy with weighted and
    # count-0 classes, at unit counts that are not a multiple of 8
    m, rng = 20, random.Random(units)
    rankings = list(dict.fromkeys(tuple(rng.sample(range(m), m)) for _ in range(units + 40)))
    ballots = rankings[:units] + rankings[units:units + 6]
    counts = [1] * units + [2, 3, 3, 5, 7, 2]
    inst = _build(m, ballots, counts)
    copy = inst.with_ballots_replaced(
        {i: Preference(r) for i, r in zip(range(0, units, 997), rankings[units + 6:])}
    )
    assert any(w == 0 for _, w in copy.classes)
    for built in (inst, copy):
        assert any(w > 1 for _, w in built.classes)
        _assert_planes_stored(built)


def test_built_instances_transpose_no_column(monkeypatch):
    # every table and the greedy search read the planes stored at build
    # time: an affine or plurality score table and the margins split none
    # of them, the other tables split each candidate's planes once, and the
    # greedy x's and y's where the units are the voters (distinct rankings
    # only); beside weighted classes it takes the class loop and splits none.
    # A target out of the bound's reach is answered from the full scores,
    # so its greedy splits nothing on any instance.
    m, rng = 20, random.Random(5)
    rankings = list(dict.fromkeys(tuple(rng.sample(range(m), m)) for _ in range(1_100)))
    inst = _build(m, rankings[:1_000] + rankings[1_000:1_003], [1] * 1_000 + [2, 3, 4])
    copy = inst.with_ballots_replaced({7: Preference(rankings[-1])})
    distinct = _build(m, rankings[:1_000])
    assert distinct.classes.units_are_voters
    assert not (inst.classes.units_are_voters or copy.classes.units_are_voters)
    rules_ = [VotingRule.scoring(v) for v in _greedy_vectors(m)]

    def transpose(*args):
        raise AssertionError("a column transposed after build")

    monkeypatch.setattr(core, "bit_planes", transpose)
    splits = []
    for module in (rules, detect_scoring):
        split = module.column_masks
        monkeypatch.setattr(
            module, "column_masks", lambda *args, split=split: splits.append(args[1]) or split(*args)
        )
    for built in (inst, copy, distinct):
        planes = built.classes.pack[0]
        assert hasattr(built.classes, "pack")
        _tables(m, built.classes)
        splits.clear()
        for vector in (ScoringVector.borda(m), ScoringVector.plurality(m)):
            positional_scores(m, built.classes, vector)
        margin_matrix(m, built.classes)
        assert splits == []
        topk_counts(m, built.classes)
        assert splits == list(planes)
        splits.clear()
        positional_scores(m, built.classes, ScoringVector.veto(m))
        assert splits == list(planes)
        borda = VotingRule.scoring(ScoringVector.borda(m))
        x = winner(built, borda)
        scores = positional_scores(m, built.classes, borda.vector)
        rivals = sorted((c for c in range(m) if c != x), key=scores.__getitem__)
        far, near = rivals[0], rivals[-1]
        splits.clear()
        query = DetectionQuery(built, borda, actual_winner=far, bound=5)
        assert detect_scoring._out_of_reach(query, x, far, 5)
        assert not cpmsw_scoring_greedy(query)
        assert splits == []
        query = DetectionQuery(built, borda, actual_winner=near, bound=built.n)
        assert not detect_scoring._out_of_reach(query, x, near, built.n)
        cpmsw_scoring_greedy(query)
        greedy = [planes[x], planes[near]] if built is distinct else []
        assert splits == greedy
        for rule in rules_:
            _greedy_verdicts(built, rule)


def test_transpose_masks_are_built_once_per_length_and_stay_bounded():
    # interleaved lengths, each visited again after others evicted it: the
    # memo keyed by the padded length must hand back the masks of that length
    rng = random.Random(7)
    lengths = [4_096, 8, 4_097, 1, 10_001, 0, 9, 4_096, 10_001, 1]
    for n in lengths + list(range(100, 140)) + lengths:
        _assert_masks_mark_positions(20, bytes(rng.randrange(20) for _ in range(n)))
    info = core._transpose_steps.cache_info()
    assert info.currsize <= info.maxsize <= 16
    assert info.hits


# --- the greedy search from the columns --------------------------------------


def _greedy_vectors(m):
    """Borda, 2-approval, veto and a convex Fraction vector."""
    return [
        ScoringVector.borda(m),
        ScoringVector.approval(2, m),
        ScoringVector.veto(m),
        ScoringVector([Fraction(m * m - p * p, 3) for p in range(m)]),
    ]


def _greedy_instance(rng, m, units, weighted, replaced):
    """`units` distinct one-voter rankings, then `weighted` rankings cast by 2
    to 5 voters each, then `replaced` voters given fresh rankings (leaving
    count-0 classes), under a random tie-break; fewer where m! runs out."""
    wanted = units + weighted + replaced
    draws = (tuple(rng.sample(range(m), m)) for _ in range(4 * wanted))
    rankings = list(dict.fromkeys(draws))[:wanted]
    ballots = rankings[:units + weighted]
    counts = [1 if i < units else rng.randint(2, 5) for i in range(len(ballots))]
    fresh = rankings[units + weighted:] or rankings[:1]
    swaps = {rng.randrange(sum(counts)): Preference(r) for r in fresh[:replaced]}
    tiebreak = rng.sample(range(m), m)
    inst = ElectionInstance([f"c{i}" for i in range(m)], ballots, tiebreak, counts)
    return inst.with_ballots_replaced(swaps) if swaps else inst


def _greedy_verdicts(inst, rule):
    x = winner(inst, rule)
    scores = positional_scores(inst.m, inst.classes, rule.vector)
    rivals = sorted((c for c in range(inst.m) if c != x), key=lambda c: -scores[c])
    return [
        cpmsw_scoring_greedy(DetectionQuery(inst, rule, actual_winner=y, bound=k))
        for y in {rivals[0], rivals[-1]}
        for k in (0, 1, 5, inst.n)
    ]


@pytest.mark.parametrize("m, units, cutover", [(3, 4, 1), (7, 300, 256), (20, 300, 256)])
@pytest.mark.parametrize("weighted, replaced", [(0, 0), (4, 0), (0, 3), (4, 3)])
def test_greedy_from_columns_matches_loop(m, units, cutover, weighted, replaced):
    # the same verdicts, witnesses and coalitions from the position masks as
    # from the per-class loop, with weighted and count-0 classes or without
    seed = f"greedy-{m}-{units}-{weighted}-{replaced}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", LOOPS)
        loops = _greedy_instance(random.Random(seed), m, units, weighted, replaced)
        mp.setattr(core, "COLUMN_CUTOVER", cutover)
        columns = _greedy_instance(random.Random(seed), m, units, weighted, replaced)
    assert columns.classes == loops.classes and not hasattr(loops.classes, "pack")
    rest = columns.classes.pack[2]
    assert bool(rest) == bool(weighted or replaced)
    answers = set()
    for vector in _greedy_vectors(m):
        rule = VotingRule.scoring(vector)
        expected = _greedy_verdicts(loops, rule)
        answers.update(v.answer for v in expected)
        with pytest.MonkeyPatch.context() as mp:
            shifts = []
            shift = detect_scoring._shift
            mp.setattr(detect_scoring, "_shift", lambda *args: shifts.append(args) or shift(*args))
            got = _greedy_verdicts(columns, rule)
        assert got == expected
        # when the units are the voters, only the classes beside them get a
        # per-class shift; any other profile takes the class loop
        if columns.classes.units_are_voters:
            assert {args[0] for args in shifts} <= {pref.ranking for pref, _ in rest}
    assert answers == {True, False}


def test_weighted_class_alone_in_its_shift_group():
    # a three-way tie won by 0 on the tie-break: against target 2, only the
    # weighted class ranks 0 first and 2 last, so the top shift group holds
    # no unit, and one of its voters alone makes 2 win
    ballots, counts = [(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 1, 2)], [1, 1, 1, 2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", LOOPS)
        loops = _build(3, ballots, counts)
        mp.setattr(core, "COLUMN_CUTOVER", 1)
        columns = _build(3, ballots, counts)
    rule = VotingRule.scoring(ScoringVector.borda(3))
    assert columns.classes.pack[2] == ((Preference((0, 1, 2)), 2),)
    expected = _greedy_verdicts(loops, rule)
    assert any(verdict.coalition == (3,) for verdict in expected)
    assert _greedy_verdicts(columns, rule) == expected


def test_packed_units_compute_no_per_class_shift(monkeypatch):
    m, rng = 20, random.Random(3)
    rankings = list(dict.fromkeys(tuple(rng.sample(range(m), m)) for _ in range(4_100)))
    inst = _build(m, rankings[:4_097])
    assert inst.classes.pack[2] == ()
    rule = VotingRule.scoring(ScoringVector.borda(m))
    expected = _greedy_verdicts(inst, rule)

    def per_class_shift(*args):
        raise AssertionError("per-class shift on a packed instance")

    monkeypatch.setattr(detect_scoring, "_shift", per_class_shift)
    assert _greedy_verdicts(inst, rule) == expected
    # the greedy transposes no column: it ANDs the stored planes
    transposes = []
    bit_planes = core.bit_planes
    monkeypatch.setattr(
        core, "bit_planes", lambda *args: transposes.append(args) or bit_planes(*args)
    )
    y = next(c for c in range(m) if c != winner(inst, rule))
    cpmsw_scoring_greedy(DetectionQuery(inst, rule, actual_winner=y, bound=5))
    assert transposes == []


def test_greedy_reads_voters_from_mask_bits_when_units_are_voters():
    # Unit v is voter v in a fresh instance of distinct rankings, but not in
    # a copy where voters 0 and 1 swapped rankings, though every class still
    # holds one voter, nor beside a weighted class.  Every search takes its
    # voters in the loop's order and gives the loop's verdicts and
    # witnesses; only the first reads them from the mask bits, scanning no
    # `voter_class`.
    m, units = 7, 300
    rankings = random.Random("unit-voters").sample(list(permutations(range(m))), units + 1)
    swap = {0: Preference(rankings[1]), 1: Preference(rankings[0])}
    cases = [
        ((rankings[:units], None, None), True),
        ((rankings[:units], None, swap), False),
        ((rankings, [1] * units + [3], None), False),
    ]

    def scan(*args):
        raise AssertionError("scanned voter_class")

    for (ballots, counts, swaps), unit_voters in cases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "COLUMN_CUTOVER", LOOPS)
            loops = _build(m, ballots, counts, swaps)
        columns = _build(m, ballots, counts, swaps)
        assert columns.classes.units_are_voters == unit_voters
        assert len(columns.classes.pack[2]) == (counts is not None)
        for vector in _greedy_vectors(m):
            rule = VotingRule.scoring(vector)

            def searches(inst):
                pairs = permutations(range(m), 2)
                groups = (_shift_groups(inst, vector.alphas, x, y) for x, y in pairs)
                return [list(chain.from_iterable(g)) for g in groups], _greedy_verdicts(inst, rule)

            expected = searches(loops)
            with pytest.MonkeyPatch.context() as mp:
                if unit_voters:
                    mp.setattr(detect_scoring, "compress", scan)
                assert searches(columns) == expected


# --- STV from the planes -------------------------------------------------------


@pytest.mark.parametrize("m, units, cutover", [(4, 6, 1), (7, 300, 256), (20, 300, 256)])
def test_stv_first_choices_from_columns_match_loop(m, units, cutover):
    # random alive sets, with weighted and count-0 classes beside the units
    rng = random.Random(f"first-choices-{m}-{units}")
    draws = (tuple(rng.sample(range(m), m)) for _ in range(50 * units))
    rankings = list(dict.fromkeys(draws))[:units + 7]
    ballots, counts = rankings[:units + 4], [1] * units + [2, 3, 5, 2]
    replacements = {i: Preference(r) for i, r in zip((0, 2, units + 1), rankings[units + 4:])}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "COLUMN_CUTOVER", LOOPS)
        loops = _build(m, ballots, counts, replacements)
        mp.setattr(core, "COLUMN_CUTOVER", cutover)
        columns = _build(m, ballots, counts, replacements)
    assert columns.classes == loops.classes and not hasattr(loops.classes, "pack")
    assert hasattr(columns.classes, "pack") and columns.classes.pack[2]
    assert any(w == 0 for _, w in columns.classes) and any(w > 1 for _, w in columns.classes)
    masks = [(1 << m) - 1, 1 << rng.randrange(m)] + [rng.randrange(1, 1 << m) for _ in range(40)]
    for mask in masks:
        expected = detect_stv._first_choices(loops.classes, m, mask)
        assert detect_stv._first_choices(columns.classes, m, mask) == expected
        assert sum(expected) == loops.n
        assert all(mask >> c & 1 for c in range(m) if expected[c])


class _Unreadable:
    @property
    def ranking(self):
        raise AssertionError("a unit class's ranking was read")


def test_packed_stv_reads_no_unit_ranking():
    # the unit pairs swapped for ballots that raise when read: the packed
    # order and first choices still come out, from the planes and `rest`
    m, rng = 9, random.Random(11)
    inst = _greedy_instance(rng, m, 400, 4, 3)
    planes, units, rest = inst.classes.pack
    assert rest and units >= core.COLUMN_CUTOVER
    blind = core._Classes((_Unreadable(), 1) if w == 1 else (pref, w) for pref, w in inst.classes)
    blind.pack = inst.classes.pack
    for tb_rank in (inst.tb_rank, range(m)):
        assert rules.stv_order(m, blind, tb_rank) == rules.stv_order(m, inst.classes, tb_rank)
    for mask in [(1 << m) - 1] + [rng.randrange(1, 1 << m) for _ in range(20)]:
        expected = detect_stv._first_choices(inst.classes, m, mask)
        assert detect_stv._first_choices(blind, m, mask) == expected
    with pytest.raises(AssertionError, match="ranking was read"):
        rules.stv_order(m, tuple(blind), inst.tb_rank)
