"""Candidate generation: level grids, admissible windows, banded tables."""

import dataclasses
import gc
import io
import itertools
import math
import struct
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynlsh.bench
import dynlsh.stream
import dynlsh.lsh
from dynlsh import (
    CandidatePair,
    ConfigMismatchError,
    DistanceEstimator,
    LevelSketch,
    LshConfig,
    LshIndex,
    RationalSimilarity,
    SketchRandomness,
    amplification_probability,
    candidate_levels,
    hamming,
    jaccard,
    level_grid,
    merge,
    sketch_from_bytes,
    sketch_to_bytes,
    sorensen_dice,
    write_csv,
)
from oracles import minhash_signature


def build(randomness, items):
    sk = LevelSketch(randomness)
    arr = np.asarray(items, dtype=np.int64)
    if arr.size:
        sk.update_many(arr, 1)
    return sk


class TestLevelGrid:
    def test_halving_threshold_walks_every_level(self):
        assert level_grid(0.5, 2**10) == tuple(range(11))

    def test_quartering_threshold_skips_odd_levels(self):
        assert level_grid(0.25, 2**10) == (0, 2, 4, 6, 8, 10)

    def test_fractional_step_grid(self):
        # floor(m * log2(1/0.3)) for m = 0.. within [0, 8]
        assert level_grid(0.3, 2**8) == (0, 1, 3, 5, 6, 8)

    def test_step_below_one_collapses_to_full_range(self):
        assert level_grid(0.9, 2**4) == (0, 1, 2, 3, 4)

    def test_r1_bounds(self):
        with pytest.raises(ValueError):
            level_grid(0.0, 16)
        with pytest.raises(ValueError):
            level_grid(1.0, 16)


class TestCandidateLevels:
    def test_frozen_window(self):
        # p*s = 64: window [floor(log2(0.25*64)), floor(log2 64)] = [4, 6]
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.01)
        grid = tuple(range(21))
        assert candidate_levels(6400, cfg, grid) == (4, 5, 6)

    def test_empty_set_is_admissible_nowhere(self):
        cfg = LshConfig(r1=0.5, r2=0.1)
        assert candidate_levels(0, cfg, tuple(range(11))) == ()

    def test_tiny_set_clamps_to_level_zero(self):
        cfg = LshConfig(r1=0.5, r2=0.1)  # p = 5e-4
        assert candidate_levels(1, cfg, tuple(range(11))) == (0,)

    def test_negative_cardinality_rejected(self):
        cfg = LshConfig(r1=0.5, r2=0.1)
        with pytest.raises(ValueError):
            candidate_levels(-1, cfg, (0,))

    def test_window_respects_grid_strides(self):
        cfg = LshConfig(r1=0.25, r2=0.1, sampling_p=0.01)
        grid = level_grid(0.25, 2**10)
        # window [floor(log2(0.0625*40.96)), floor(log2 40.96)] = [1, 5]
        assert candidate_levels(4096, cfg, grid) == (2, 4)

    def test_size_filter_keeps_comparable_pairs_co_windowed(self):
        """Cardinalities within a factor 1/r1 always share a grid level.

        Pairs with similarity above r1 pass the size filter, so a missing
        shared level would make the index discard them structurally.
        """
        for r1 in (0.5, 0.3, 0.25, 0.7):
            cfg = LshConfig(r1=r1, r2=r1 / 5.0)
            grid = level_grid(r1, 2**20)
            for sa in (1, 3, 17, 129, 1024, 5000, 65537):
                for ratio in (1.0, r1, 1.0 / r1, (1 + r1) / 2.0):
                    sb = max(1, int(sa * ratio))
                    wa = set(candidate_levels(sa, cfg, grid))
                    wb = set(candidate_levels(sb, cfg, grid))
                    assert wa & wb, (r1, sa, sb)


class TestLshConfig:
    def test_default_sampling_budget(self):
        cfg = LshConfig(r1=0.5, r2=0.1)
        assert math.isclose(cfg.p, (0.5 / 5.0) ** 2 * 0.5 * 0.1, rel_tol=1e-12)

    def test_sampling_p_override(self):
        assert LshConfig(r1=0.5, r2=0.1, sampling_p=0.03).p == 0.03

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            LshConfig(r1=0.1, r2=0.5)
        with pytest.raises(ValueError):
            LshConfig(r1=0.5, r2=0.5)

    def test_knob_ranges(self):
        with pytest.raises(ValueError):
            LshConfig(r1=0.5, r2=0.1, epsilon=1.0)
        with pytest.raises(ValueError):
            LshConfig(r1=0.5, r2=0.1, delta=0.0)
        with pytest.raises(ValueError):
            LshConfig(r1=0.5, r2=0.1, bands_r=0)
        with pytest.raises(ValueError):
            LshConfig(r1=0.5, r2=0.1, repetitions_l=-1)
        for flag in (True, False):  # bool is an int subclass, but not a count
            with pytest.raises(ValueError):
                LshConfig(r1=0.5, r2=0.1, bands_r=flag)
            with pytest.raises(ValueError):
                LshConfig(r1=0.5, r2=0.1, repetitions_l=flag)
        with pytest.raises(ValueError):
            LshConfig(r1=0.5, r2=0.1, sampling_p=1.0)


class TestAmplification:
    def test_single_band_single_rep_is_identity(self):
        for s in (0.0, 0.25, 1.0):
            assert amplification_probability(s, 1, 1) == s

    def test_monotone_in_repetitions(self):
        probs = [amplification_probability(0.4, 3, l) for l in range(1, 30)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_more_bands_sharpen_the_knee(self):
        assert amplification_probability(0.3, 8, 10) < amplification_probability(0.3, 2, 10)
        assert amplification_probability(0.9, 8, 10) > 0.9


@pytest.fixture
def small_corpus():
    cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.05)
    rnd = SketchRandomness(4096, 256, 76500)
    items = np.random.default_rng(76500).choice(4096, size=128, replace=False)
    return cfg, rnd, items


class TestLshIndex:
    def test_randomness_mismatch_rejected(self, small_corpus):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        with pytest.raises(ConfigMismatchError):
            index.insert("a", build(SketchRandomness(4096, 256, 1), items))

    def test_len_and_contains(self, small_corpus):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        assert len(index) == 0
        index.insert("a", build(rnd, items))
        assert len(index) == 1
        assert "a" in index
        assert "b" not in index

    def test_identical_sets_become_candidates(self, small_corpus):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        index.insert("a", build(rnd, items))
        index.insert("b", build(rnd, items))
        pairs = index.candidates()
        assert len(pairs) == 1
        assert (pairs[0].id_a, pairs[0].id_b) == ("a", "b")
        assert pairs[0].level in candidate_levels(128, cfg, index.grid)

    def test_candidates_are_deterministic(self, small_corpus):
        cfg, rnd, items = small_corpus
        runs = []
        for _ in range(2):
            index = LshIndex(cfg, rnd)
            index.insert("a", build(rnd, items))
            index.insert("b", build(rnd, items))
            index.insert("c", build(rnd, items[:64]))
            runs.append(index.candidates())
        assert runs[0] == runs[1]

    def test_empty_sketch_posts_nothing(self, small_corpus):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        index.insert("a", build(rnd, items))
        index.insert("b", LevelSketch(rnd))
        assert "b" in index
        assert index.candidates() == []

    def test_reinsert_replaces_postings(self, small_corpus):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        index.insert("a", build(rnd, items))
        index.insert("b", build(rnd, items))
        assert len(index.candidates()) == 1
        index.insert("b", LevelSketch(rnd))  # replace with an empty set
        assert index.candidates() == []
        assert len(index) == 2

    def test_remove_drops_the_id_and_its_postings(self, small_corpus):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        index.insert("a", build(rnd, items))
        index.insert("b", build(rnd, items))
        index.remove("b")
        assert "b" not in index
        assert len(index) == 1
        assert index.candidates() == []
        with pytest.raises(KeyError):
            index.remove("b")

    def test_pair_cap_truncates_with_warning(self, small_corpus):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd, pair_cap=1)
        for name in ("x", "y", "z"):
            index.insert(name, build(rnd, items))
        with pytest.warns(RuntimeWarning, match="expands to"):
            pairs = index.candidates()
        assert pairs == [CandidatePair("x", "y", pairs[0].level, pairs[0].repetition)]

    @pytest.mark.parametrize("pair_cap", [0, -3, 2.5, 6.0, True, "6", 2**63, 10**20])
    def test_pair_cap_validation(self, small_corpus, pair_cap):
        """An int, not a bool, in [1, 2**63): a float or a cap past int64
        failed only later, in candidates()."""
        cfg, rnd, _ = small_corpus
        with pytest.raises(ValueError, match="pair_cap must be an integer"):
            LshIndex(cfg, rnd, pair_cap=pair_cap)

    def test_pair_cap_is_fixed_at_construction(self, small_corpus):
        """Assigning a cap raises AttributeError and leaves the index's cap in place."""
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd, pair_cap=3)
        with pytest.raises(AttributeError):
            index.pair_cap = 5
        assert index.pair_cap == 3
        for name in ("x", "y"):
            index.insert(name, build(rnd, items))
        assert len(index.candidates()) == 1

    def test_cfg_randomness_and_grid_are_read_only(self, small_corpus):
        """The grid, row starts and position dtype derive from cfg and
        randomness at construction, so assigning either, or the grid,
        raises AttributeError and leaves the index as it was."""
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        for name in ("x", "y"):
            index.insert(name, build(rnd, items))
        pairs = index.candidates()
        other = SketchRandomness(rnd.d, rnd.c_squared * 4, 7)
        assigned = {"cfg": dataclasses.replace(cfg, r1=0.9), "randomness": other, "grid": (0,)}
        for name, value in assigned.items():
            with pytest.raises(AttributeError):
                setattr(index, name, value)
        assert index.cfg is cfg and index.randomness is rnd
        assert index.grid == level_grid(cfg.r1, rnd.d)
        assert index.candidates() == pairs
        with pytest.raises(ConfigMismatchError):
            index.insert("z", build(other, items))
        index.insert("z", build(rnd, items))
        assert [(p.id_a, p.id_b) for p in index.candidates()] == [("x", "y"), ("x", "z"), ("y", "z")]

    def test_candidate_levels_cover_reported_pairs(self):
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.05)
        rnd = SketchRandomness(2**14, 256, 76700)
        rng = np.random.default_rng(76700)
        index = LshIndex(cfg, rnd)
        cards = {}
        for i in range(30):
            size = int(rng.integers(16, 2000))
            index.insert(i, build(rnd, rng.choice(2**14, size=size, replace=False)))
            cards[i] = size
        for pair in index.candidates():
            for member in (pair.id_a, pair.id_b):
                assert pair.level in candidate_levels(cards[member], cfg, index.grid)


_CHURN_RND = SketchRandomness(4096, 256, 76600)
_CHURN_CFG = LshConfig(r1=0.5, r2=0.1, sampling_p=0.05)


def _churn_pool():
    """Sketches that collide in various ways: equal, nested, unrelated, empty."""
    rng = np.random.default_rng(76600)
    base = rng.choice(4096, size=160, replace=False)
    sets = [base, base, base[:140], base[:90], rng.choice(4096, size=150, replace=False), []]
    return [build(_CHURN_RND, s) for s in sets]


_CHURN_POOL = _churn_pool()


class TestRemove:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, len(_CHURN_POOL) - 1)),
            max_size=40,
        )
    )
    def test_any_history_equals_a_fresh_build_of_the_survivors(self, ops):
        """Insert, remove and re-insert in any order leave no trace behind."""
        index = LshIndex(_CHURN_CFG, _CHURN_RND)
        live: dict[int, int] = {}
        for insert, set_id, which in ops:
            if insert:
                index.insert(set_id, _CHURN_POOL[which])
                live[set_id] = which
            elif set_id in live:
                index.remove(set_id)
                del live[set_id]
            else:
                with pytest.raises(KeyError):
                    index.remove(set_id)
        fresh = LshIndex(_CHURN_CFG, _CHURN_RND)
        for set_id in sorted(live):
            fresh.insert(set_id, _CHURN_POOL[live[set_id]])
        assert len(index) == len(live) and all(set_id in index for set_id in live)
        assert index.candidates() == fresh.candidates()
        # the same signature records, whatever order the ids came in
        assert _all_postings(index) == _all_postings(fresh)


def _postings(index, set_id):
    """The (level, repetition, signature) postings of an id's record."""
    *_, levels, sigs = index._entries[set_id]
    assert sigs.shape == (len(levels) * index.cfg.repetitions_l, index.cfg.bands_r)
    rows = map(tuple, sigs.tolist())
    return [(level, t, next(rows)) for level in levels for t in range(index.cfg.repetitions_l)]


def _all_postings(index):
    return {set_id: _postings(index, set_id) for set_id in index._entries}


def _tables(postings_of):
    """(level, repetition) -> signature -> ids, from each id's postings."""
    tables = {}
    for set_id, postings in postings_of.items():
        for level, t, sig in postings:
            tables.setdefault((level, t), {}).setdefault(sig, []).append(set_id)
    return tables


def _reference_candidates(postings_of, pair_cap):
    """candidates() as a scan over dict tables: tables in (level, repetition)
    order, buckets in signature order, each bucket's first pair_cap pairs in
    combinations order over its sorted ids, each pair at its first sighting."""
    tables = _tables(postings_of)
    seen, out = set(), []
    for key in sorted(tables):
        table = tables[key]
        for sig in sorted(sig for sig, ids in table.items() if len(ids) > 1):
            ids = table[sig]
            total = len(ids) * (len(ids) - 1) // 2
            if total > pair_cap:
                warnings.warn(
                    f"bucket at level {key[0]} repetition {key[1]} expands to "
                    f"{total} pairs; emitting the first {pair_cap}",
                    RuntimeWarning,
                )
            for pair in itertools.islice(itertools.combinations(sorted(ids), 2), pair_cap):
                if pair not in seen:
                    seen.add(pair)
                    out.append(CandidatePair(*pair, *key))
    return out


def _warning_texts(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    assert all(w.category is RuntimeWarning for w in caught)
    return result, [str(w.message) for w in caught]


def _reference_postings(index, sketch):
    """insert's postings rebuilt slot by slot through minhash_signature."""
    cfg, rnd = index.cfg, index.randomness
    out = []
    for level in candidate_levels(sketch.cardinality, cfg, index.grid):
        row = sketch.buckets[level]
        if not row.any():
            continue  # an empty admissible row posts nothing
        for t in range(cfg.repetitions_l):
            sig = tuple(minhash_signature(row, rnd.minhash_spec(level, t, q)) for q in range(cfg.bands_r))
            out.append((level, t, sig))
    return out


_POSTING_RND = SketchRandomness(512, 16, 76800)

# (item, multiplicity) lists, so a large cardinality can sit on few
# counters and leave admissible rows empty; the flag adds +1 on one item
# and -1 on another, nonzero counters that leave the cardinality as is
_POSTING_SETS = st.tuples(
    st.lists(st.tuples(st.integers(0, 511), st.integers(1, 20)), max_size=30),
    st.booleans(),
)


def _posting_sketch(spec):
    counts, cancelled = spec
    items = [item for item, count in counts for _ in range(count)]
    values = [1] * len(items)
    if cancelled:
        items, values = items + [510, 511], values + [1, -1]
    sketch = LevelSketch(_POSTING_RND)
    if items:
        sketch.update_many(np.asarray(items, dtype=np.int64), np.asarray(values, dtype=np.int64))
    return sketch


class TestInsertPostings:
    @settings(max_examples=150, deadline=None)
    @given(
        r1=st.sampled_from([0.3, 0.5, 0.7]),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 8)),
        p=st.sampled_from([0.05, 0.3, 0.9]),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 3), _POSTING_SETS), min_size=1, max_size=12
        ),
    )
    @example(
        r1=0.5,
        shape=(3, 8),
        p=0.9,
        ops=[
            (True, 0, ([(5, 20)], False)),  # one counter, three admissible rows
            (True, 1, ([], True)),  # cardinality 0, nonzero rows
            (True, 2, ([], False)),  # the empty set
            (True, 3, ([(5, 20)], False)),
            (False, 0, ([], False)),
            (True, 0, ([(5, 20), (9, 1), (77, 3)], False)),
        ],
    )
    def test_postings_equal_a_per_slot_reference(self, r1, shape, p, ops):
        """Each record's postings match minhash_signature under minhash_spec
        for every slot, across level grids with gaps (r1 = 0.3), shapes
        from 1 x 1 to 3 x 8, and removals and re-insertions."""
        bands, reps = shape
        cfg = LshConfig(r1=r1, r2=r1 / 4, bands_r=bands, repetitions_l=reps, sampling_p=p)
        index = LshIndex(cfg, _POSTING_RND)
        live = {}
        for insert, set_id, spec in ops:
            if insert:
                live[set_id] = _posting_sketch(spec)
                index.insert(set_id, live[set_id])
            elif set_id in live:
                index.remove(set_id)
                del live[set_id]
        assert _all_postings(index) == {
            set_id: _reference_postings(index, sketch) for set_id, sketch in live.items()
        }


def _items_by_level(rnd, wanted, count):
    """The first count items of [0, d) whose level is k, for each k in wanted, concatenated."""
    items = np.arange(rnd.d)
    levels = rnd.levels_of(items)
    return np.concatenate([items[levels == k][:count] for k in wanted])


def _case_grid_step_two():
    """r1 = 0.25 posts at levels 0, 2 and 4 only, with nonzero rows 1 and 3 between them."""
    rnd = SketchRandomness(2**12, 64, 76801)
    cfg = LshConfig(r1=0.25, r2=0.1, bands_r=2, repetitions_l=3, sampling_p=0.1)
    items = np.random.default_rng(76801).choice(rnd.d, size=200, replace=False)
    return rnd, cfg, [items], (0, 2, 4)


def _case_empty_middle_row():
    """Admissible levels 0, 1 and 2 with row 1 empty: 3 + 2 items twice over, s = 10, p * s = 5."""
    rnd = SketchRandomness(2**12, 64, 76802)
    cfg = LshConfig(r1=0.5, r2=0.1, bands_r=2, repetitions_l=3, sampling_p=0.5)
    items = np.repeat(np.r_[_items_by_level(rnd, [0], 3), _items_by_level(rnd, [2], 2)], 2)
    return rnd, cfg, [items], (0, 2)


def _case_wide_buckets():
    """c^2 = 2^17: packed ranks take 34 bits, so the table is uint64."""
    rnd = SketchRandomness(2**10, 2**17, 76803)
    cfg = LshConfig(r1=0.5, r2=0.1, bands_r=2, repetitions_l=2, sampling_p=0.3)
    items = np.random.default_rng(76803).choice(rnd.d, size=100, replace=False)
    return rnd, cfg, [items], (2, 3, 4)


def _case_index_churn_shape():
    """The benchmark's index-churn index: d = 2^16, c^2 = 1024, 8 repetitions of 3 bands."""
    rnd = SketchRandomness(2**16, 1024, 76804)
    cfg = LshConfig(r1=0.5, r2=0.1, epsilon=0.9, delta=0.5, bands_r=3, repetitions_l=8)
    rng = np.random.default_rng(76804)
    sets = [rng.choice(rnd.d, size=n, replace=False) for n in (1_300, 3_000, 6_500)]
    return rnd, cfg, sets, None


class TestInsertSignatures:
    @pytest.mark.parametrize(
        "case", [_case_grid_step_two, _case_empty_middle_row, _case_wide_buckets, _case_index_churn_shape]
    )
    def test_signatures_equal_minhash_signature(self, case):
        """Every posting of insert's one table pass equals minhash_signature
        under the slot's minhash_spec; the first set posts at the levels named."""
        rnd, cfg, sets, first_levels = case()
        index = LshIndex(cfg, rnd)
        for set_id, items in enumerate(sets):
            sketch = build(rnd, items)
            index.insert(set_id, sketch)
            postings = _postings(index, set_id)
            assert postings and postings == _reference_postings(index, sketch)
        if first_levels is not None:
            assert index._entries[0][4] == first_levels
        if case is _case_grid_step_two:  # the rows between admissible levels hold entries
            cuts = index._entries[0][2]
            assert cuts[2] > cuts[1] and cuts[4] > cuts[3]


def _replay_case(d, c_squared, rows):
    """(d, c_squared, stream text, per-row updates) for rows of (kept, cancelled) item sets.

    A row inserts its cancelled items, then its kept ones, then deletes the
    cancelled ones; the stream lists rows last to first.
    """
    updates = [[(i, 1) for i in sorted(cancelled)] + [(i, 1) for i in sorted(kept)]
               + [(i, -1) for i in sorted(cancelled)] for kept, cancelled in rows]
    lines = [f"{j} {i} {v}\n" for j in reversed(range(len(rows))) for i, v in updates[j]]
    return d, c_squared, f"{len(rows)} {d}\n" + "".join(lines), updates


@st.composite
def replayed_rows(draw):
    d = draw(st.sampled_from([40, 10**4, 2**20]))
    c_squared = draw(st.sampled_from([16, 4096]))  # 4096 needs int32 positions at every d here
    ids = st.integers(0, d - 1)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kept = draw(st.sets(ids, max_size=300))
        rows.append((kept, draw(st.sets(ids, max_size=40)) - kept))
    return _replay_case(d, c_squared, rows)


def _replayed_index(cfg, rnd, text):
    """An index of every row of a stream, built by the replay's insert_many blocks."""
    index = LshIndex(cfg, rnd)
    n, _, updates = dynlsh.stream.read_stream(io.StringIO(text))
    for _ in dynlsh.stream.replay(n, updates, index):
        pass
    return index


def _block_of(sketches):
    """insert_many's arguments for a block of sketches: their nonzero counters back to back."""
    flats = [sk.buckets.reshape(-1) for sk in sketches]
    nonzero = [np.flatnonzero(flat) for flat in flats]
    values = [flat[nz] for flat, nz in zip(flats, nonzero)]
    sizes = [nz.size for nz in nonzero]
    return np.concatenate(nonzero), np.concatenate(values), sizes, [sk.cardinality for sk in sketches]


class TestSparseInsert:
    @settings(max_examples=60, deadline=None)
    @given(case=replayed_rows(), block=st.sampled_from([1, 7, 1 << 16]))
    @example(case=_replay_case(40, 16, [({3}, {5}), (set(), {7}), (set(), set())]), block=1)
    @example(case=_replay_case(10**4, 4096, [(set(range(0, 9000, 7)), set(range(1, 400, 3)))]), block=7)
    @example(case=_replay_case(2**20, 16, [(set(), set()), (set(range(5, 2**20, 997)), {4})]), block=1 << 16)
    def test_replayed_rows_index_the_records_insert_does(self, case, block):
        """insert(sketch) and the stream replay's insert_many blocks give equal _entries records."""
        d, c_squared, text, rows = case
        rnd = SketchRandomness(d, c_squared, 8)
        cfg = LshConfig(r1=0.5, r2=0.1, epsilon=0.9, delta=0.5, bands_r=2, repetitions_l=3)
        dense = LshIndex(cfg, rnd)
        for j, updates in enumerate(rows):
            sketch = LevelSketch(rnd)
            if updates:
                sketch.update_many(*np.array(updates, np.int64).T)
            dense.insert(j, sketch)
        with mock.patch.object(dynlsh.stream, "_REPLAY_BLOCK", block):
            sparse = _replayed_index(cfg, rnd, text)
        _assert_same_entries(sparse, dense)

    def test_a_churned_stream_indexes_the_records_insert_does(self):
        """Sketches fed every update of a churned stream, cancelled ones
        included, store the records the replay's net counters store, at the
        benchmark's index-churn banding shape."""
        corpus = dynlsh.bench.generate(60, 2**12, (0.02, 0.2), every=10, seed=29)
        buf = io.StringIO()
        dynlsh.bench.write_stream(corpus, buf, churn=0.5, seed=29)
        rnd = SketchRandomness(2**12, 1024, 29)
        cfg = LshConfig(r1=0.5, r2=0.1, epsilon=0.9, delta=0.5, bands_r=3, repetitions_l=8)
        dense = LshIndex(cfg, rnd)
        j, i, v = np.loadtxt(io.StringIO(buf.getvalue()), np.int64, skiprows=1, ndmin=2).T
        assert np.unique(np.stack((j, i)), axis=1).shape[1] < j.size  # some items cancel
        for row in range(corpus.n):
            sketch = LevelSketch(rnd)
            sketch.update_many(i[j == row], v[j == row])
            dense.insert(row, sketch)
        sparse = _replayed_index(cfg, rnd, buf.getvalue())
        assert len(dense) == corpus.n
        _assert_same_entries(sparse, dense)

    def test_one_block_of_different_windows_indexes_the_records_insert_does(self):
        """Sets of 10 to 5,000 items at sampling_p = 1/32 post at different
        admissible levels, with other rows' entries between them, and one
        block stores the records one insert per set does."""
        rnd = SketchRandomness(2**16, 256, 41)
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=1 / 32, bands_r=2, repetitions_l=3)
        rng = np.random.default_rng(41)
        sizes = (10, 5000, 40, 700, 2500, 160, 1300)
        sketches = [build(rnd, rng.choice(2**16, size=size, replace=False)) for size in sizes]
        sketches[3].update_many(np.arange(3), -1)  # negative counters too
        dense, block = LshIndex(cfg, rnd), LshIndex(cfg, rnd)
        for j, sketch in enumerate(sketches):
            dense.insert(j, sketch)
        block.insert_many(range(len(sketches)), *_block_of(sketches))
        windows = {dense._entries[j][4] for j in range(len(sketches))}
        assert len(windows) >= 5 and max(map(len, windows)) > 1
        _assert_same_entries(block, dense)

    def test_blank_and_cancelled_rows_inside_a_block(self):
        """A row without updates and a row whose updates all cancel, between
        two kept rows of one replay block, are indexed empty in row order."""
        d, c_squared, text, rows = _replay_case(
            10**4, 64, [(set(range(0, 9000, 9)), {1}), (set(), set()), (set(), {2, 3, 4}), ({5, 7}, set())]
        )
        rnd = SketchRandomness(d, c_squared, 12)
        cfg = LshConfig(r1=0.5, r2=0.1, bands_r=2, repetitions_l=3)
        dense = LshIndex(cfg, rnd)
        for j, updates in enumerate(rows):
            sketch = LevelSketch(rnd)
            if updates:
                sketch.update_many(*np.array(updates, np.int64).T)
            dense.insert(j, sketch)
        spy = mock.patch.object(LshIndex, "insert_many", autospec=True, side_effect=LshIndex.insert_many)
        with spy as calls:
            sparse = _replayed_index(cfg, rnd, text)
        assert [list(call.args[1]) for call in calls.call_args_list] == [[0, 1, 2, 3]]
        assert [sparse._entries[j][3] for j in range(4)] == [1000, 0, 0, 2]
        _assert_same_entries(sparse, dense)

    def test_a_block_whose_sizes_do_not_match_is_refused(self):
        rnd = SketchRandomness(1000, 16, 3)
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), rnd)
        positions, values, sizes, cards = _block_of([build(rnd, [1, 2, 3]), build(rnd, [4])])
        for bad in ((sizes[:1], cards), (sizes, cards[:1]), ([sizes[0], sizes[1] + 1], cards)):
            with pytest.raises(ValueError, match="a block of 2 ids"):
                index.insert_many([0, 1], positions, values, *bad)
        with pytest.raises(ValueError, match="a block of 2 ids"):
            index.insert_many([0, 1], positions, values[:-1], sizes, cards)
        assert len(index) == 0

    @pytest.mark.parametrize(
        "broken, message",
        [
            ("swapped", "positions must be strictly increasing"),
            ("zero", "values must be nonzero"),
            ("past", r"positions must lie in \[0, 704\)"),
            ("negative", r"positions must lie in \[0, 704\)"),
        ],
    )
    @pytest.mark.parametrize("alone", [False, True])
    def test_a_block_that_breaks_a_rule_is_refused(self, broken, message, alone):
        """Set b's counters out of order, with a zero, or outside [0, levels *
        c^2) raise ValueError naming b, and the index keeps what it had: a
        block that replaces a, or b alone, leaves both as they were.
        Unchecked, out-of-order positions lost b's pair and a zero scored it
        1.0."""
        rnd = SketchRandomness(1000, 64, 3)
        assert rnd.num_levels * rnd.c_squared == 704
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.5)
        items = np.random.default_rng(3).choice(1000, size=300, replace=False)
        a, b = build(rnd, items), build(rnd, items[:270])
        index, want = LshIndex(cfg, rnd), LshIndex(cfg, rnd)
        for kept in (index, want):
            kept.insert("a", b)
            kept.insert("b", a)
        positions, values, sizes, cards = _block_of([b] if alone else [a, b])
        at = 0 if alone else sizes[0]  # b's first entry
        if broken == "swapped":
            positions[[at, at + 1]] = positions[[at + 1, at]]
        elif broken == "zero":
            values[at + 1] = 0
        elif broken == "past":
            positions[-1] = 704
        else:
            positions[at] = -1
        with pytest.raises(ValueError, match=f"set 'b': {message}"):
            index.insert_many(["b"] if alone else ["a", "b"], positions, values, sizes, cards)
        _assert_same_entries(index, want)

    def test_stored_arrays_own_their_memory(self):
        """No entry is a view into its block, so remove() frees what it held."""
        rnd = SketchRandomness(2**16, 1024, 43)
        cfg = LshConfig(r1=0.5, r2=0.1, bands_r=3, repetitions_l=8)
        rng = np.random.default_rng(43)
        sketches = [build(rnd, rng.choice(2**16, size=2000, replace=False)) for _ in range(40)]
        block = _block_of(sketches)
        index = LshIndex(cfg, rnd)
        index.insert("alone", sketches[0])
        tracemalloc.start()
        try:
            index.insert_many(range(40), *block)
            held = tracemalloc.get_traced_memory()[0]
            for j in range(1, 40):
                index.remove(j)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        for entry in index._entries.values():
            assert all(field.base is None for field in entry if isinstance(field, np.ndarray))
        assert left < held / 20  # one of 40 sets is left


def _assert_same_entries(got_index, want_index):
    """Both indexes hold the same ids, in order, with equal records: arrays equal in values and dtype."""
    assert list(got_index._entries) == list(want_index._entries)
    for set_id, want_entry in want_index._entries.items():
        for got, want in zip(got_index._entries[set_id], want_entry, strict=True):
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert got == want


class TestCandidateOrder:
    def test_pair_cap_keeps_the_first_pairs_in_combinations_order(self, small_corpus):
        cfg, rnd, items = small_corpus
        cfg = LshConfig(r1=cfg.r1, r2=cfg.r2, sampling_p=cfg.sampling_p, bands_r=2, repetitions_l=3)
        index = LshIndex(cfg, rnd, pair_cap=2)
        for name in ("d", "b", "c", "a"):
            index.insert(name, build(rnd, items))
        first = min((level, t) for level, t, _ in _postings(index, "a"))
        with pytest.warns(RuntimeWarning, match="expands to 6 pairs; emitting the first 2"):
            pairs = index.candidates()
        assert pairs == [CandidatePair("a", "b", *first), CandidatePair("a", "c", *first)]
        index = LshIndex(cfg, rnd, pair_cap=6)
        for name in ("d", "b", "c", "a"):
            index.insert(name, build(rnd, items))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = index.candidates()
        assert [(p.id_a, p.id_b) for p in pairs] == list(itertools.combinations("abcd", 2))
        assert {(p.level, p.repetition) for p in pairs} == {first}

    def test_each_pair_keeps_its_first_table_in_level_repetition_order(self):
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.05, repetitions_l=4)
        rnd = SketchRandomness(4096, 64, 76900)
        base = np.random.default_rng(76900).choice(4096, size=1600, replace=False)
        index = LshIndex(cfg, rnd)
        # larger sets first, so the first records post at deeper levels
        for i, size in enumerate((1600, 1500, 1400, 700, 650, 600, 300, 280, 260)):
            index.insert(i, build(rnd, base[:size]))
        tables = _tables(_all_postings(index))
        assert list(tables) != sorted(tables)
        tables_of = {}  # pair -> tables holding it, in scan order
        for key in sorted(tables):
            table = tables[key]
            for sig in sorted(table):
                for pair in itertools.combinations(sorted(table[sig]), 2):
                    tables_of.setdefault(pair, []).append(key)
        pairs = index.candidates()
        assert [(p.id_a, p.id_b) for p in pairs] == list(tables_of)
        assert {(p.id_a, p.id_b): (p.level, p.repetition) for p in pairs} == {
            pair: keys[0] for pair, keys in tables_of.items()
        }
        # the case under test: pairs seen in several tables, some first at a later repetition
        assert any(len(keys) > 1 for keys in tables_of.values())
        assert any(p.repetition > 0 for p in pairs)


# sets that recur whole and fill their admissible rows, so buckets hold
# several ids at every shape and pair_cap truncates some of them
_SHARED_SETS = st.sampled_from(
    [
        ([(i, 1) for i in range(0, 240, 3)], False),
        ([(i, 1) for i in range(0, 240, 4)], False),  # shares a quarter with the first
        ([(i, 2) for i in range(300, 360)], True),
    ]
)


class TestCandidateReference:
    @settings(max_examples=150, deadline=None)
    @given(
        r1=st.sampled_from([0.3, 0.5, 0.7]),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 8)),
        p=st.sampled_from([0.05, 0.3, 0.9]),
        pair_cap=st.sampled_from([1, 2, 6, 10**6]),
        first_ids=st.permutations(range(8)),
        first_sets=st.lists(st.one_of(_SHARED_SETS, _POSTING_SETS), min_size=2, max_size=8),
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 7), st.one_of(_SHARED_SETS, _POSTING_SETS)),
            max_size=12,
        ),
    )
    def test_candidates_equal_the_dict_table_scan(
        self, r1, shape, p, pair_cap, first_ids, first_sets, ops
    ):
        """Same pairs (ids, table and order) and the same pair_cap warnings,
        in the same order, as scanning dict tables built slot by slot through
        minhash_signature, after any insert/remove/re-insert history that
        starts with up to 8 inserts in shuffled id order."""
        bands, reps = shape
        cfg = LshConfig(r1=r1, r2=r1 / 4, bands_r=bands, repetitions_l=reps, sampling_p=p)
        index = LshIndex(cfg, _POSTING_RND, pair_cap=pair_cap)
        live = {}
        for insert, set_id, spec in [(True, *first) for first in zip(first_ids, first_sets)] + ops:
            if insert:
                live[set_id] = _posting_sketch(spec)
                index.insert(set_id, live[set_id])
            elif set_id in live:
                index.remove(set_id)
                del live[set_id]
        postings_of = {set_id: _reference_postings(index, sketch) for set_id, sketch in live.items()}
        want = _warning_texts(lambda: _reference_candidates(postings_of, pair_cap))
        assert _warning_texts(index.candidates) == want

    @pytest.mark.parametrize(
        "c_squared, bands, reps, ids, words",
        [
            (16, 2, 3, list(range(60)), 1),
            (1024, 7, 2, list(range(60)), 2),  # 70 signature bits alone
            (1024, 2, 2, [f"id-{i:04d}" for i in range(2100)], 1),  # a 12-bit rank
        ],
        ids=["one-word", "signatures-past-63-bits", "2100-str-ids"],
    )
    def test_candidates_equal_the_dict_table_scan_at_every_key_width(
        self, c_squared, bands, reps, ids, words
    ):
        """The dict-table scan again, on sort keys of one packed word and of
        two, and with ranks past 11 bits: near-duplicates of a few base
        sets, inserted in shuffled order, fill buckets past pair_cap."""
        rnd = SketchRandomness(2**12, c_squared, 76801)
        cfg = LshConfig(r1=0.5, r2=0.125, bands_r=bands, repetitions_l=reps, sampling_p=0.3)
        index = LshIndex(cfg, rnd, pair_cap=2)
        rng = np.random.default_rng(76801)
        bases = [rng.choice(2**12, size=200, replace=False) for _ in range(len(ids) // 3)]
        live = {}
        for set_id in rng.permutation(np.array(ids, dtype=object)).tolist():
            base = bases[rng.integers(len(bases))]
            live[set_id] = build(rnd, base[rng.random(base.size) > 0.02])
            index.insert(set_id, live[set_id])
        postings_of = {set_id: _reference_postings(index, sketch) for set_id, sketch in live.items()}
        want, texts = _warning_texts(lambda: _reference_candidates(postings_of, 2))
        packed, pack = [], dynlsh.lsh._pack_words

        def pack_words(columns):
            packed.append(pack(columns))
            return packed[-1]

        with mock.patch.object(dynlsh.lsh, "_pack_words", pack_words):
            assert _warning_texts(index.candidates) == (want, texts)
        assert len(packed[0]) == words
        assert texts and any(p.repetition > 0 for p in want)

    @pytest.mark.parametrize("pair_cap", [1, 4, 9, 2**63 - 1])
    def test_buckets_of_many_sizes_expand_together(self, pair_cap):
        """The dict-table scan again, on groups of 2 to 12 identical sets, so
        buckets of eleven sizes expand in one pass: caps 1, 4 and 9 end some
        buckets mid-row and some at a row's end, and the largest cap, no cap
        at all, neither truncates nor overflows."""
        rnd = SketchRandomness(2**12, 64, 76802)
        cfg = LshConfig(r1=0.5, r2=0.125, bands_r=2, repetitions_l=3, sampling_p=0.3)
        index = LshIndex(cfg, rnd, pair_cap=pair_cap)
        rng = np.random.default_rng(76802)
        groups = {k: build(rnd, rng.choice(2**12, size=200, replace=False)) for k in range(2, 13)}
        ids = [100 * k + member for k in groups for member in range(k)]
        for set_id in rng.permutation(ids).tolist():
            index.insert(set_id, groups[set_id // 100])
        postings_of = {set_id: _reference_postings(index, groups[set_id // 100]) for set_id in ids}
        want, texts = _warning_texts(lambda: _reference_candidates(postings_of, pair_cap))
        assert _warning_texts(index.candidates) == (want, texts)
        sizes = {len(group) for table in _tables(postings_of).values() for group in table.values()}
        assert sizes >= set(groups)
        assert bool(texts) == (pair_cap < 66)

    def test_a_capped_bucket_expands_only_the_pairs_it_emits(self, small_corpus):
        """5,000 ids in one bucket under pair_cap=100: the first 100 pairs in
        combinations order, without building the 12,497,500 (a few MiB at
        most, where all index pairs would take about 200 MB)."""
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd, pair_cap=100)
        sketch = build(rnd, items[:8])  # admissible at level 0 only
        for set_id in range(5000):
            index.insert(set_id, sketch)
        tracemalloc.start()
        try:
            with pytest.warns(RuntimeWarning, match="expands to 12497500 pairs; emitting the first 100"):
                pairs = index.candidates()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        first = itertools.islice(itertools.combinations(range(5000), 2), 100)
        assert pairs == [CandidatePair(a, b, 0, 0) for a, b in first]
        assert peak < 4 * 2**20

    def test_ids_must_be_mutually_orderable(self, small_corpus):
        """candidates() ranks every indexed id, not only those sharing a bucket."""
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        index.insert(1, build(rnd, items))
        index.insert(2, build(rnd, items))
        index.insert("a", LevelSketch(rnd))  # posts nothing, so it shares no bucket
        with pytest.raises(TypeError):
            index.candidates()
        index.remove("a")
        assert [(p.id_a, p.id_b) for p in index.candidates()] == [(1, 2)]


@pytest.fixture
def collector_state():
    """Yields a setter for gc's enabled flag and puts the original back afterwards."""
    was_enabled = gc.isenabled()

    def switch(enabled):
        gc.enable() if enabled else gc.disable()

    try:
        yield switch
    finally:
        switch(was_enabled)


def _one_bucket_index(small_corpus, n):
    """n ids sharing every bucket: n(n-1)/2 pairs, all from the first table."""
    cfg, rnd, items = small_corpus
    index = LshIndex(cfg, rnd)
    sketch = build(rnd, items)
    for set_id in range(n):
        index.insert(set_id, sketch)
    return index


class TestCollectorPause:
    """candidates() builds its pairs with the cyclic collector paused and
    leaves it enabled or disabled as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, small_corpus, collector_state, enabled):
        index = _one_bucket_index(small_corpus, 4)
        collector_state(enabled)
        assert len(index.candidates()) == 6
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_after_mixed_id_type_error(self, small_corpus, collector_state, enabled):
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        index.insert(1, build(rnd, items))
        index.insert("a", build(rnd, items))
        collector_state(enabled)
        with pytest.raises(TypeError):
            index.candidates()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_pair_construction_raises(self, small_corpus, collector_state, enabled):
        """A CandidatePair stand-in that is no tuple subtype makes
        tuple.__new__ raise inside the burst; a trace of candidates()
        records the collector's state as the error reaches its frame."""
        index = _one_bucket_index(small_corpus, 4)
        seen = []

        def trace_calls(frame, event, arg):
            return trace_candidates if frame.f_code is LshIndex.candidates.__code__ else None

        def trace_candidates(frame, event, arg):
            if event == "exception":
                seen.append(gc.isenabled())
            return trace_candidates

        class NotATuple:
            pass

        collector_state(enabled)
        previous = sys.gettrace()
        with mock.patch.object(dynlsh.lsh, "CandidatePair", NotATuple):
            sys.settrace(trace_calls)
            try:
                with pytest.raises(TypeError, match="is not a subtype of tuple"):
                    index.candidates()
            finally:
                sys.settrace(previous)
        assert seen[:1] == [False]  # raised inside the paused region
        assert gc.isenabled() is enabled

    def test_the_pair_burst_runs_few_collections(self, small_corpus, collector_state):
        """Under a gen-0 threshold of 1, building pairs unpaused runs about
        one collection per pair; paused, a tenth of that is ample."""
        index = _one_bucket_index(small_corpus, 50)
        collector_state(True)
        want = index.candidates()
        assert len(want) >= 1000
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        thresholds = gc.get_threshold()
        gc.callbacks.append(count)
        try:
            gc.set_threshold(1)
            got = index.candidates()
        finally:
            gc.set_threshold(*thresholds)
            gc.callbacks.remove(count)
        assert got == want
        assert len(collections) < len(got) / 10


class TestVerify:
    @pytest.fixture
    def planted_items(self):
        rng = np.random.default_rng(76600)
        m = 512
        inter = round(2 * m * 0.9 / 1.9)
        pool = rng.choice(2**16, size=2 * m - inter, replace=False)
        far = rng.choice(np.setdiff1d(np.arange(2**16), pool), size=m, replace=False)
        return {"hi_a": pool[:m], "hi_b": pool[m - inter :], "lo": far}

    @pytest.fixture
    def planted_index(self, planted_items):
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.05)
        rnd = SketchRandomness(2**16, 1024, 76600)
        index = LshIndex(cfg, rnd)
        for set_id, items in planted_items.items():
            index.insert(set_id, build(rnd, items))
        return index, jaccard(2**16)

    def test_threshold_separates_planted_pairs(self, planted_index):
        """All three pairs are candidates; only the similar one is kept."""
        index, similarity = planted_index
        kept, scored = index.search(similarity, 0.5)
        assert scored == 3
        assert [(p.id_a, p.id_b) for p in kept] == [("hi_a", "hi_b")]
        assert kept[0].verified_distance <= 0.5

    def test_unit_threshold_keeps_everything(self, planted_index):
        index, similarity = planted_index
        kept, scored = index.search(similarity, 1.0)
        assert len(kept) == scored == 3
        assert all(p.verified_distance is not None for p in kept)

    def test_zero_threshold_keeps_only_identical(self, planted_index, planted_items):
        index, similarity = planted_index
        index.insert("hi_a_twin", build(index.randomness, planted_items["hi_a"]))
        kept, scored = index.search(similarity, 0.0)
        assert scored == 6
        assert [(p.id_a, p.id_b) for p in kept] == [("hi_a", "hi_a_twin")]
        assert kept[0].verified_distance == 0.0

    def test_removed_ids_are_never_scored(self, planted_index):
        """search scores only what is indexed: a removed id leaves no
        candidate behind, and an id never inserted cannot be removed."""
        index, similarity = planted_index
        index.remove("lo")
        with pytest.raises(KeyError):
            index.remove("ghost")
        kept, scored = index.search(similarity, 1.0)
        assert scored == 1
        assert [(p.id_a, p.id_b) for p in kept] == [("hi_a", "hi_b")]

    def test_a_pair_on_the_threshold_is_kept(self, planted_index):
        """The threshold is inclusive: each pair's own distance keeps it and
        every pair no farther, in candidates() order."""
        index, similarity = planted_index
        every, _ = index.search(similarity, math.inf)
        assert len({p.verified_distance for p in every}) == 3
        for pair in every:
            kept, scored = index.search(similarity, pair.verified_distance)
            assert scored == 3
            assert kept == [p for p in every if p.verified_distance <= pair.verified_distance]
            assert pair in kept

    def test_impossible_threshold_raises_before_any_pair_is_scored(self, planted_index):
        """Estimates are never negative, so a NaN or negative threshold
        would silently keep nothing; it raises instead."""
        index, similarity = planted_index
        for threshold in (math.nan, -1.0, -math.inf):
            with pytest.raises(ValueError, match="threshold must be >= 0"):
                index.search(similarity, threshold)
        kept, scored = index.search(similarity, math.inf)
        assert len(kept) == scored == 3

    def test_all_zero_weights_keep_every_candidate_at_zero(self, planted_index):
        """x = y = z = z' = 0 makes every similarity 1: a zero threshold keeps all three pairs."""
        index, _ = planted_index
        kept, scored = index.search(RationalSimilarity(0.0, 0.0, 0.0, 0.0, 2**16), 0.0)
        assert scored == 3
        assert [p.verified_distance for p in kept] == [0.0] * 3

    def test_estimator_checked_up_front_even_without_pairs(self, planted_index):
        index, _ = planted_index
        empty = LshIndex(index.cfg, index.randomness)
        assert empty.search(jaccard(2**16), 1.0) == ([], 0)
        with pytest.raises(ValueError, match="not metric"):
            empty.search(sorensen_dice(2**16), 1.0)
        with pytest.raises(ConfigMismatchError, match="universe"):
            empty.search(jaccard(2**15), 1.0)

    def test_the_index_keeps_its_own_copy(self, planted_items):
        """Mutating or dropping a sketch after insert changes nothing indexed;
        only re-inserting it does."""
        cfg = LshConfig(r1=0.5, r2=0.1, sampling_p=0.05)
        rnd = SketchRandomness(2**16, 1024, 76600)
        similarity = jaccard(2**16)
        estimator = DistanceEstimator(similarity, rnd)
        sketches = {set_id: build(rnd, items) for set_id, items in planted_items.items()}
        index = LshIndex(cfg, rnd)
        for set_id, sketch in sketches.items():
            index.insert(set_id, sketch)
        before, postings = index.candidates(), _all_postings(index)
        assert before
        want = [estimator.estimate_distance(sketches[p.id_a], sketches[p.id_b]) for p in before]

        changed = sketches["hi_a"]
        changed.update_many(planted_items["lo"], 1)
        changed.update_many(planted_items["hi_a"], -1)  # now the sketch of "lo"
        assert estimator.estimate_distance(changed, sketches["lo"]) == 0.0
        del sketches["hi_b"]
        gc.collect()

        assert index.candidates() == before
        assert _all_postings(index) == postings
        kept, _ = index.search(similarity, math.inf)
        assert [p._replace(verified_distance=None) for p in kept] == before
        assert [p.verified_distance.hex() for p in kept] == [w.hex() for w in want]
        assert min(want) > 0.0

        index.insert("hi_a", changed)  # re-inserting updates the index
        assert _postings(index, "hi_a") == _postings(index, "lo")
        [kept], _ = index.search(similarity, 0.0)
        assert (kept.id_a, kept.id_b, kept.verified_distance) == ("hi_a", "lo", 0.0)


def _crafted(rnd, counters, cardinality):
    """A sketch with arbitrary counters, through the wire format.

    Streams over [0, d) never put two distinct items into the deepest row,
    so only crafted counters reach rows that saturate at every level.
    """
    raw = bytearray(sketch_to_bytes(LevelSketch(rnd)))
    counters_at = len(raw) - rnd.num_levels * rnd.c_squared * 8  # length prefix + header
    cardinality_at = 8 + struct.calcsize("<BQQQ")  # after length, version, d, c2, levels
    struct.pack_into("<q", raw, cardinality_at, cardinality)
    raw[counters_at:] = np.asarray(counters, dtype="<i8").tobytes()
    return sketch_from_bytes(bytes(raw), rnd)


def _no_level_eligible(sketch):
    """True when even the deepest row holds more than c^2/2 nonzero buckets."""
    return np.count_nonzero(sketch.buckets[-1]) > sketch.c_squared / 2


def _verify_case(d, c2, seed, base, other, cut, weights):
    """Related sketches over one family, every ordered pair of them, an estimator."""
    rnd = SketchRandomness(d, c2, seed)
    rng = np.random.default_rng(seed)
    shape = (rnd.num_levels, c2)

    def sketch(updates):
        # an index holds sets, so the net cardinality must not go negative;
        # top it up on item 0, leaving the negative counters elsewhere
        net = sum(v for _, v in updates)
        sk = LevelSketch(rnd)
        for item, value in updates + [(0, 1)] * max(-net, 0):
            sk.update(item, value)
        return sk

    zero_sum = base + [(0, -v) for _, v in base]  # cardinality 0, so negating stays a set
    sketches = [
        sketch(zero_sum),
        sketch([(i, -v) for i, v in zero_sum]),  # a_i = -b_i on every bucket
        sketch(base),
        sketch(base[:cut] + other),  # a_i = b_i on the buckets of base[:cut]
        sketch(other + [(i, -1) for i, _ in base]),  # deletions of absent items
        LevelSketch(rnd),  # empty
        _crafted(rnd, rng.choice([-2, -1, 1, 2], size=shape), 5),  # every row saturated
        _crafted(rnd, rng.integers(-2, 3, size=shape), 3),
    ]
    n = len(sketches)
    pairs = [CandidatePair(i, j, 0, 0) for i in range(n) for j in range(n)]
    params = {
        "jaccard": jaccard(d),
        "hamming": hamming(d),
        "x<y": RationalSimilarity(0.5, 1.0, 0.0, 1.0, d),
    }[weights]
    return rnd, sketches, pairs, DistanceEstimator(params, rnd)


@st.composite
def verify_cases(draw):
    d = draw(st.sampled_from([1, 2, 3, 64, 1000, 2**16]))
    update = st.tuples(st.integers(0, d - 1), st.sampled_from([-1, 1]))
    base = draw(st.lists(update, max_size=400))
    return _verify_case(
        d,
        draw(st.sampled_from([2, 4, 64])),
        draw(st.integers(0, 2**32)),
        base,
        draw(st.lists(update, max_size=400)),
        draw(st.integers(0, len(base))),
        draw(st.sampled_from(["jaccard", "hamming", "x<y"])),
    )


def _distances(index, pairs, estimator):
    """LshIndex._distances of (id_a, id_b) pairs, each indexed id one row in insertion order."""
    row = {set_id: j for j, set_id in enumerate(index._entries)}
    rows_a, rows_b = (np.array([row[p[side]] for p in pairs], np.int64) for side in (0, 1))
    return index._distances(rows_a, rows_b, list(index._entries.values()), estimator)


class TestBatchedVerify:
    @settings(max_examples=60, deadline=None)
    @given(case=verify_cases(), chunk=st.sampled_from([1, 7, 100, 1 << 16]))
    @example(case=_verify_case(1, 2, 5, [(0, 1), (0, -1), (0, -1)], [(0, 1)], 1, "x<y"), chunk=1)
    @example(case=_verify_case(1, 2, 6, [(0, 1)], [], 1, "jaccard"), chunk=7)
    def test_batched_distances_equal_per_pair_estimates_bit_for_bit(self, case, chunk):
        rnd, sketches, pairs, estimator = case
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), rnd)
        for j, sk in enumerate(sketches):
            index.insert(j, sk)
        want = [estimator.estimate_distance(sketches[p.id_a], sketches[p.id_b]) for p in pairs]
        cells = chunk * rnd.num_levels * rnd.c_squared  # chunk pairs per chunk
        with mock.patch.object(dynlsh.lsh, "_VERIFY_CHUNK_CELLS", cells):
            got = _distances(index, pairs, estimator)
        assert [d.hex() for d in got.tolist()] == [w.hex() for w in want]

    @pytest.mark.parametrize("widths", [1, 4])
    def test_distances_follow_input_order(self, widths):
        """_distances groups pairs by id_a, then writes every distance back in input order.

        The pairs are shuffled and hold reversed, duplicate and self pairs
        over str ids.  One sketch width of cells leaves one distinct id_a
        per chunk.  Four widths allow four, but the pair budget (a
        sixteenth of the cells, at least 16 per count cell of a pair) is
        smaller than any one id_a's run, so runs split across chunks.
        """
        rnd = SketchRandomness(1000, 1024, 23)
        rng = np.random.default_rng(23)
        names = ["kilo", "alfa", "echo", "zulu", "mike", "bravo"]
        sketches = {
            name: build(rnd, rng.choice(1000, size=rng.integers(5, 40), replace=False))
            for name in names
        }
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), rnd)
        for name, sk in sketches.items():
            index.insert(name, sk)
        pairs = [CandidatePair(a, b, 0, 0) for a in names for b in names] * 3
        pairs = [pairs[j] for j in rng.permutation(len(pairs))]
        estimator = DistanceEstimator(jaccard(1000), rnd)
        want = [estimator.estimate_distance(sketches[p.id_a], sketches[p.id_b]) for p in pairs]
        cells = widths * rnd.num_levels * rnd.c_squared
        assert 3 * len(names) * 16 * rnd.num_levels > cells // 16  # a run overflows a chunk
        with mock.patch.object(dynlsh.lsh, "_VERIFY_CHUNK_CELLS", cells):
            got = _distances(index, pairs, estimator)
        assert [d.hex() for d in got.tolist()] == [w.hex() for w in want]

    def test_either_side_may_be_read_back(self):
        """Pairs of a large and a small set, in both orders, score as both
        per-pair estimates do, bit for bit, each in its own place."""
        rnd = SketchRandomness(2**14, 256, 31)
        rng = np.random.default_rng(31)
        large = rng.choice(2**14, size=2000, replace=False)
        sketches = {"big": build(rnd, large), "small": build(rnd, large[:20])}
        sketches["wide"] = build(rnd, np.concatenate([large[:1500], rng.choice(2**14, 500)]))
        sketches["tiny"] = build(rnd, large[10:30])
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), rnd)
        for name, sketch in sketches.items():
            index.insert(name, sketch)
        names = [("big", "small"), ("small", "big"), ("tiny", "wide"), ("wide", "tiny"),
                 ("big", "wide"), ("small", "tiny"), ("tiny", "big"), ("wide", "small")]
        estimator = DistanceEstimator(jaccard(2**14), rnd)
        for (a, b), got in zip(names, _distances(index, names, estimator).tolist()):
            a, b = sketches[a], sketches[b]
            want = estimator.estimate_distance(a, b)
            assert got.hex() == want.hex() == estimator.estimate_distance(b, a).hex()

    @pytest.mark.parametrize("cells", [1 << 20, dynlsh.lsh._VERIFY_CHUNK_CELLS])
    def test_working_memory_stays_bounded(self, cells):
        """31,200 pairs of width-69,632 sketches: _distances' peak stays under
        4 MiB per 2^20 cells of chunk budget (the default's, and 2^20's).

        The dense scratch row is as wide as a whole sketch, so a chunk size
        that ignored the width would read tens of MiB here.
        """
        rnd = SketchRandomness(2**16, 4096, 5)
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), rnd)
        for j in range(40):
            index.insert(j, build(rnd, [j]))
        pairs = [CandidatePair(a, b, 0, 0) for a, b in itertools.combinations(range(40), 2)] * 40
        estimator = DistanceEstimator(jaccard(2**16), rnd)
        tracemalloc.start()
        try:
            with mock.patch.object(dynlsh.lsh, "_VERIFY_CHUNK_CELLS", cells):
                got = _distances(index, pairs, estimator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got == 1.0).all()  # disjoint singletons
        assert peak < 4 * cells

    def test_crafted_counters_leave_no_level_eligible(self):
        rnd = SketchRandomness(1000, 4, 1)
        sk = _crafted(rnd, np.ones((rnd.num_levels, 4)), 0)
        assert _no_level_eligible(sk)
        assert _no_level_eligible(merge(sk, sk, 1))


def _warned(call):
    """call()'s result, and each warning's category, text and file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message), w.filename) for w in caught]


class TestSearch:
    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 2), st.integers(1, 4)),
        pair_cap=st.sampled_from([1, 2, 10**6]),
        str_ids=st.booleans(),
        ops=st.lists(st.tuples(st.integers(0, 9), st.one_of(_SHARED_SETS, _POSTING_SETS)), max_size=10),
        threshold=st.sampled_from([0.0, 0.6, math.inf]),
    )
    @example(shape=(1, 1), pair_cap=1, str_ids=False, ops=[], threshold=math.inf)
    @example(
        shape=(1, 2),
        pair_cap=1,
        str_ids=True,
        ops=[(j, ([(i, 1) for i in range(0, 240, 3)], False)) for j in range(3)],
        threshold=0.0,
    )
    def test_search_equals_per_pair_estimates_of_candidates(
        self, shape, pair_cap, str_ids, ops, threshold
    ):
        """The kept pairs field for field (types and distance bits too) and
        in order, the number of candidates, and the same pair_cap warnings,
        each pointing at the caller, as candidates() scored one pair at a
        time by estimate_distance on the inserted sketches."""
        bands, reps = shape
        cfg = LshConfig(r1=0.5, r2=0.125, bands_r=bands, repetitions_l=reps, sampling_p=0.3)
        index = LshIndex(cfg, _POSTING_RND, pair_cap=pair_cap)
        sketches = {}
        for set_id, spec in ops:
            set_id = f"id-{set_id}" if str_ids else set_id
            sketches[set_id] = _posting_sketch(spec)
            index.insert(set_id, sketches[set_id])
        estimator = DistanceEstimator(jaccard(512), _POSTING_RND)
        pairs, warned = _warned(index.candidates)
        distance = [estimator.estimate_distance(sketches[p.id_a], sketches[p.id_b]) for p in pairs]
        want = [p._replace(verified_distance=d) for p, d in zip(pairs, distance) if d <= threshold]
        (got, scored), got_warned = _warned(lambda: index.search(jaccard(512), threshold))
        assert (got, scored, got_warned) == (want, len(pairs), warned)
        assert [[type(v) for v in p] for p in got] == [[type(v) for v in p] for p in want]
        assert [p.verified_distance.hex() for p in got] == [p.verified_distance.hex() for p in want]
        assert {(category, where) for category, _, where in warned} <= {(RuntimeWarning, __file__)}

    def test_threshold_and_estimator_are_checked_before_the_scan(self, small_corpus):
        """Mixed int and str ids make the scan raise TypeError, so each
        refusal below comes before it."""
        cfg, rnd, items = small_corpus
        index = LshIndex(cfg, rnd)
        index.insert(1, build(rnd, items))
        index.insert("a", build(rnd, items))
        with pytest.raises(TypeError):
            index.search(jaccard(4096), 1.0)
        for threshold in (math.nan, -1.0):
            with pytest.raises(ValueError, match="threshold must be >= 0"):
                index.search(jaccard(4096), threshold)
        with pytest.raises(ValueError, match="not metric"):
            index.search(sorensen_dice(4096), 1.0)
        with pytest.raises(ConfigMismatchError, match="universe"):
            index.search(jaccard(8192), 1.0)


class TestCandidatePairTuple:
    def test_fields_and_defaults(self):
        assert CandidatePair._fields == ("id_a", "id_b", "level", "repetition", "verified_distance")
        assert CandidatePair._field_defaults == {"verified_distance": None}
        pair = CandidatePair("a", "b", 3, 1)
        assert (pair.id_a, pair.id_b, pair.level, pair.repetition) == ("a", "b", 3, 1)
        assert pair.verified_distance is None

    def test_replace_returns_a_new_pair(self):
        pair = CandidatePair(4, 9, 0, 2)
        scored = pair._replace(verified_distance=0.25)
        assert scored == CandidatePair(4, 9, 0, 2, 0.25)
        assert type(scored) is CandidatePair
        assert pair.verified_distance is None

    def test_fields_cannot_be_assigned(self):
        pair = CandidatePair(4, 9, 0, 2)
        with pytest.raises(AttributeError):
            pair.level = 1
        with pytest.raises(AttributeError):
            pair.extra = 1

    def test_a_pair_is_its_tuple(self):
        pair = CandidatePair("a", "b", 3, 1)
        assert pair == ("a", "b", 3, 1, None)
        assert hash(pair) == hash(("a", "b", 3, 1, None))
        id_a, id_b, level, repetition, distance = pair
        assert (id_a, id_b, level, repetition, distance) == ("a", "b", 3, 1, None)
        assert sorted([CandidatePair(2, 3, 0, 0), CandidatePair(1, 9, 1, 0)])[0].id_a == 1


class TestCandidateCsv:
    def test_same_header_and_rows_as_a_dataclass_row_type(self):
        """write_csv reads a NamedTuple's _fields as it reads a dataclass's fields."""

        @dataclasses.dataclass(frozen=True)
        class Row:
            id_a: object
            id_b: object
            level: int
            repetition: int
            verified_distance: float | None = None

        rows = [("a", "b", 3, 1, 0.25), (4, 9, 0, 0, None), ("x", "y", 12, 7, 1 / 3)]
        written = []
        for row_type in (CandidatePair, Row):
            out = io.StringIO()
            write_csv(row_type, [row_type(*row) for row in rows], out, params={"seed": 7}, missing="")
            written.append(out.getvalue())
        assert written[0] == written[1]
        assert written[0].splitlines()[1] == "id_a,id_b,level,repetition,verified_distance"

    def test_schema_and_formatting(self):
        out = io.StringIO()
        write_csv(
            CandidatePair,
            [
                CandidatePair("a", "b", 3, 1, verified_distance=0.25),
                CandidatePair(4, 9, 0, 0),
            ],
            out,
            missing="",
        )
        assert out.getvalue().splitlines() == [
            "id_a,id_b,level,repetition,verified_distance",
            "a,b,3,1,0.250000",
            "4,9,0,0,",
        ]
