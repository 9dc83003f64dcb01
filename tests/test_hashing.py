"""Hash family behavior: multiply-shift values, level split, min-hash law."""

import importlib.util
import inspect
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dynlsh import (
    HashSpec,
    ItemRangeError,
    LevelSketch,
    SketchRandomness,
    random_hash_spec,
)
import dynlsh.hashing
from dynlsh.hashing import _count_nonzero, _mix64_inplace
from oracles import hash_array, hash_key, lsb, minhash_positions, minhash_signature, mixed_hash_array


class TestHashSpec:
    def test_identity_spec_is_identity(self):
        """Under a = 1, b = 0 every position hashes to itself, so the min-hash is the least."""
        spec = HashSpec(a=1, b=0, output_bits=64)
        positions = np.array([9, 5, 2**63, 6], dtype=np.uint64)
        assert minhash_positions(positions, [spec]).tolist() == [5]

    def test_output_range(self):
        rnd = SketchRandomness(2**63, 256, 72005)
        keys = np.random.default_rng(72005).integers(0, 2**63, size=10_000, dtype=np.uint64)
        for level in (0, 31, rnd.max_level):
            assert rnd.buckets_of(level, keys).max() < 256

    def test_even_multiplier_rejected(self):
        with pytest.raises(ValueError):
            HashSpec(a=2, b=0, output_bits=10)

    def test_output_bits_bounds(self):
        with pytest.raises(ValueError):
            HashSpec(a=1, b=0, output_bits=0)
        with pytest.raises(ValueError):
            HashSpec(a=1, b=0, output_bits=65)

    def test_offset_bounds(self):
        with pytest.raises(ValueError):
            HashSpec(a=1, b=2**64, output_bits=10)

    def test_random_spec_deterministic_per_seed(self):
        s1 = random_hash_spec(np.random.default_rng(9), 16)
        s2 = random_hash_spec(np.random.default_rng(9), 16)
        assert s1 == s2
        assert s1.a % 2 == 1


class TestCollisionLaw:
    def test_pairwise_collision_rate_near_uniform(self):
        """Random distinct key pairs collide in a row's bucket hash at about 2^-bits.

        40 fresh randomness families, 10^5 pairs each, in a 1024-bucket
        row: the rate must sit within 3e-4 of 1/1024.
        """
        rng = np.random.default_rng(72001)
        collisions = 0
        total = 0
        for seed in range(40):
            rnd = SketchRandomness(2**63, 1024, 72001 + seed)
            keys = rng.integers(0, 2**63, size=(100_000, 2), dtype=np.uint64)
            keys = keys[keys[:, 0] != keys[:, 1]]
            h = rnd.buckets_of(seed, keys.ravel()).reshape(-1, 2)
            collisions += int((h[:, 0] == h[:, 1]).sum())
            total += len(h)
        assert abs(collisions / total - 2**-10) < 3e-4


class TestMix:
    def test_zero_is_a_fixed_point(self):
        assert _mix64_inplace(np.zeros(1, dtype=np.uint64))[0] == 0

    def test_bijective_on_large_sample(self):
        rng = np.random.default_rng(72006)
        keys = np.unique(rng.integers(0, 2**63, size=10**6, dtype=np.uint64))
        assert len(np.unique(_mix64_inplace(keys.copy()))) == len(keys)

    def test_strided_keys_collapse_without_mixing(self):
        """Regression: items whose bucket products step by about 2^64/3
        crowd the plain multiply-shift top bits into a handful of buckets,
        while buckets_of, which mixes first, stays near uniform occupancy.
        """
        rnd = SketchRandomness(2**63, 1024, 72007)
        spec = rnd.bucket_specs[3]
        stride = (round(2**64 / 3) * pow(spec.a, -1, 2**64)) % 2**64
        keys = np.arange(4096, dtype=np.uint64) * np.uint64(stride) + np.uint64(77)
        # items lie in [0, 2^63); dropping a key's top bit flips its product's top bit
        keys &= np.uint64(2**63 - 1)
        assert len(np.unique(hash_array(spec, keys))) <= 8
        occupied = len(np.unique(rnd.buckets_of(3, keys)))
        # 1024 * (1 - (1 - 1/1024)^4096) is about 1005
        assert occupied > 900


class TestCountBinding:
    """_count_nonzero is np.count_nonzero without numpy's dispatcher."""

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (64,), (3, 5), (2, 0, 4), (2, 3, 4)])
    def test_agrees_with_the_public_count(self, shape):
        rng = np.random.default_rng(72040)
        for share in (0.0, 0.5, 1.0):
            mask = rng.random(shape) < share
            assert _count_nonzero(mask) == np.count_nonzero(mask)

    def test_binds_the_public_function_where_nothing_is_wrapped(self, monkeypatch):
        """inspect.unwrap stops at a function without __wrapped__; loading
        hashing.py afresh under such a count binds that function itself."""
        assert dynlsh.hashing._count_nonzero is inspect.unwrap(np.count_nonzero)

        def plain(a, axis=None, *, keepdims=False):
            return int(np.asarray(a, dtype=bool).sum())

        monkeypatch.setattr(np, "count_nonzero", plain)
        spec = importlib.util.spec_from_file_location("dynlsh._hashing_fresh", dynlsh.hashing.__file__)
        fresh = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, fresh)
        spec.loader.exec_module(fresh)
        assert fresh._count_nonzero is plain
        rnd = fresh.SketchRandomness(1024, 64, 72041)
        rnd.check_keys(np.array([0, 1023], np.uint64))
        with pytest.raises(ItemRangeError):
            rnd.check_keys(np.array([0, 1024], np.uint64))


class TestLsb:
    def test_known_values(self):
        """levels_of maps level hashes 1, 4, 6, 0, 2^19, 2^20 and 2^40 to
        their lowest set bit, clamped to max_level = 20."""
        rnd = SketchRandomness(2**20, 64, 72008)
        spec = rnd.level_spec
        inv = pow(spec.a, -1, 2**64)
        keys = [(h - spec.b) * inv % 2**64 for h in (1, 4, 6, 0, 2**19, 2**20, 2**40)]
        levels = rnd.levels_of(np.array(keys, dtype=np.uint64))
        assert levels.tolist() == [0, 2, 1, 20, 19, 20, 20]


class TestMinhash:
    def test_all_zero_row_has_no_signature(self):
        """A row whose updates cancel has no nonzero position, so every slot reads -1."""
        rnd = SketchRandomness(1024, 64, 72009)
        sketch = LevelSketch(rnd)
        sketch.update_many([3, 3], [1, -1])
        for level in range(rnd.num_levels):
            row = np.flatnonzero(sketch.buckets[level])
            assert rnd.minhash_rows(row, [0, row.size], [level], 2, 3)[0].tolist() == [-1] * 6

    def test_single_nonzero_bucket_wins_under_every_seed(self):
        rng = np.random.default_rng(72009)
        row = np.zeros(64, dtype=np.int64)
        row[37] = -2  # sign and magnitude must not matter
        specs = [random_hash_spec(rng, 64) for _ in range(100)]
        assert minhash_positions(np.flatnonzero(row), specs).tolist() == [37] * 100

    def test_signature_depends_only_on_support(self):
        rng = np.random.default_rng(72010)
        specs = [random_hash_spec(rng, 64) for _ in range(10)]
        row_a = np.zeros(128, dtype=np.int64)
        row_b = np.zeros(128, dtype=np.int64)
        support = rng.choice(128, size=20, replace=False)
        row_a[support] = 1
        row_b[support] = rng.choice([-3, 2, 9], size=20)
        assert_array_equal(
            minhash_positions(np.flatnonzero(row_a), specs),
            minhash_positions(np.flatnonzero(row_b), specs),
        )

    def test_positions_agree_with_signature(self):
        rng = np.random.default_rng(72011)
        row = np.zeros(256, dtype=np.int64)
        row[rng.choice(256, size=31, replace=False)] = 1
        specs = [random_hash_spec(rng, 64) for _ in range(25)]
        batch = minhash_positions(np.flatnonzero(row), specs)
        singles = [minhash_signature(row, s) for s in specs]
        assert_array_equal(batch, np.asarray(singles))

    def test_positions_empty_input_yields_sentinels(self):
        specs = [HashSpec(a=3, b=1, output_bits=64)]
        assert_array_equal(
            minhash_positions(np.empty(0, dtype=np.int64), specs),
            np.asarray([-1]),
        )

    def test_positions_require_uniform_output_bits(self):
        specs = [HashSpec(a=3, b=0, output_bits=64), HashSpec(a=5, b=0, output_bits=32)]
        with pytest.raises(ValueError):
            minhash_positions(np.asarray([1, 2]), specs)

    def test_collision_law_matches_pattern_jaccard(self):
        """Empirical signature-collision frequency tracks |P&Q|/|P|Q|.

        One fixed pair of 24 element patterns sharing half their support,
        10^4 independent seeds; the frequency must land within 0.03 of the
        exact value 1/3.
        """
        rng = np.random.default_rng(72003)
        p = np.zeros(256, dtype=np.int64)
        q = np.zeros(256, dtype=np.int64)
        pa = rng.choice(256, size=24, replace=False)
        rest = np.setdiff1d(np.arange(256), pa)
        qa = np.concatenate([pa[:12], rng.choice(rest, size=12, replace=False)])
        p[pa] = 1
        q[qa] = 1
        exact = len(np.intersect1d(pa, qa)) / len(np.union1d(pa, qa))
        specs = [random_hash_spec(rng, 64) for _ in range(10**4)]
        sig_p, sig_q = (minhash_positions(np.flatnonzero(row), specs) for row in (p, q))
        hits = int((sig_p == sig_q).sum())
        assert_allclose(exact, 1 / 3, rtol=1e-12)
        assert abs(hits / 10**4 - exact) <= 0.03


class TestSketchRandomness:
    def test_equality_follows_construction_parameters(self):
        r1 = SketchRandomness(1024, 256, 5)
        r2 = SketchRandomness(1024, 256, 5)
        r3 = SketchRandomness(1024, 256, 6)
        assert r1 == r2
        assert hash(r1) == hash(r2)
        assert r1 != r3
        assert r1 != SketchRandomness(2048, 256, 5)

    def test_identical_seeds_produce_identical_specs(self):
        r1 = SketchRandomness(1024, 256, 5)
        r2 = SketchRandomness(1024, 256, 5)
        assert r1.level_spec == r2.level_spec
        assert r1.bucket_specs == r2.bucket_specs

    def test_shape_fields(self):
        rnd = SketchRandomness(1000, 256, 0)
        assert rnd.max_level == 10
        assert rnd.num_levels == 11
        assert rnd.bucket_bits == 8
        assert len(rnd.bucket_specs) == 11
        assert all(s.output_bits == 8 for s in rnd.bucket_specs)
        assert rnd.level_spec.output_bits == 64
        # ceil(log2 d) exactly, also where float log2 rounds 2^49 + 1 down to 49
        for d, deepest in ((1, 0), (2, 1), (1024, 10), (1025, 11), (2**49 + 1, 50)):
            assert SketchRandomness(d, 2, 0).max_level == deepest

    def test_validation(self):
        with pytest.raises(ValueError):
            SketchRandomness(0, 256, 0)
        with pytest.raises(ValueError):
            SketchRandomness(16, 100, 0)  # not a power of two
        with pytest.raises(ValueError):
            SketchRandomness(16, 1, 0)
        with pytest.raises(ValueError):
            SketchRandomness(16, 256, -1)
        with pytest.raises(ValueError):
            SketchRandomness(2**63 + 1, 256, 0)  # items are int64
        assert SketchRandomness(2**63, 2, 0).max_level == 63

    @pytest.mark.parametrize("d", [1, 1024, 2**63])
    def test_check_keys_checks_both_ends_of_the_universe(self, d):
        rnd = SketchRandomness(d, 64, 72003)
        rnd.check_keys(np.array([0, d - 1], dtype=np.uint64))
        rnd.check_keys(np.empty(0, dtype=np.uint64))
        for items in (
            np.array([-1]),
            np.array([-(2**63)]),
            np.array([d], dtype=np.uint64),
            np.array([2**64 - 1], dtype=np.uint64),
        ):
            with pytest.raises(ItemRangeError):
                rnd.check_keys(items.astype(np.uint64))

    def test_levels_are_clamped_and_geometric(self):
        rnd = SketchRandomness(2**20, 256, 72002)
        levels = rnd.levels_of(np.arange(10**6, dtype=np.int64))
        assert levels.min() >= 0
        assert levels.max() <= rnd.max_level
        for k in range(9):
            frac = float((levels == k).mean())
            assert abs(frac - 2.0 ** -(k + 1)) <= 0.1 * 2.0 ** -(k + 1)

    @pytest.mark.parametrize("d", [1, 2, 1025, 2**20, 2**63])
    def test_levels_match_the_scalar_lsb(self, d):
        rnd = SketchRandomness(d, 64, 72010)
        spec = rnd.level_spec
        inv = pow(spec.a, -1, 2**64)
        keys = np.random.default_rng(72010).integers(0, d, size=3000, dtype=np.uint64).tolist()
        # the key whose level hash is exactly 0, and keys whose hash has
        # its lowest set bit at each position from max_level - 2 upwards
        bits = range(max(rnd.max_level - 2, 0), 64)
        keys.append((-spec.b * inv) % 2**64)
        keys += [((1 << k) - spec.b) * inv % 2**64 for k in bits]
        want = [min(lsb(hash_key(spec, k)), rnd.max_level) for k in keys]
        got = rnd.levels_of(np.array(keys, dtype=np.uint64))
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert want[3000] == rnd.max_level
        assert want[3001:] == [min(k, rnd.max_level) for k in bits]

    def test_buckets_of_range(self):
        rnd = SketchRandomness(4096, 64, 3)
        items = np.arange(4096, dtype=np.int64)
        for level in (0, 5, rnd.max_level):
            b = rnd.buckets_of(level, items)
            assert b.min() >= 0
            assert b.max() < 64

    def test_per_item_levels_match_each_rows_mixed_hash(self):
        rnd = SketchRandomness(2**14, 256, 72003)
        rng = np.random.default_rng(72003)
        items = rng.integers(0, 2**14, size=5000)
        levels = rng.integers(0, rnd.num_levels, size=items.size)
        got = rnd.buckets_of(levels, items)
        for k in range(rnd.num_levels):
            rows = levels == k
            assert_array_equal(got[rows], mixed_hash_array(rnd.bucket_specs[k], items[rows]))
            assert_array_equal(rnd.buckets_of(k, items), mixed_hash_array(rnd.bucket_specs[k], items))

    @pytest.mark.parametrize("c_squared", [2**31, 2**32, 2**33])
    def test_wide_rows_match_the_full_finalizer(self, c_squared):
        """buckets_of drops the last xor-shift only where it cannot reach the kept bits."""
        rnd = SketchRandomness(2**14, c_squared, 72003)
        items = np.random.default_rng(72003).integers(0, 2**14, size=2000)
        for k in (0, 7, rnd.max_level):
            assert_array_equal(rnd.buckets_of(k, items), mixed_hash_array(rnd.bucket_specs[k], items))

    def test_minhash_spec_is_seed_stable(self):
        rnd = SketchRandomness(4096, 64, 3)
        again = SketchRandomness(4096, 64, 3)
        spec = rnd.minhash_spec(2, 1, 0)
        assert rnd.minhash_spec(2, 1, 0) == spec
        assert again.minhash_spec(2, 1, 0) == spec
        assert rnd.minhash_spec(2, 1, 1) != spec

    def test_minhash_table_columns_follow_every_slots_spec(self):
        """Column t * bands + q of a level's table block packs each bucket's
        rank under minhash_spec(level, t, q), so the seeds are the ones
        minhash_spec has always derived (one pinned below)."""
        rnd = SketchRandomness(2**16, 1024, 7)
        pinned = rnd.minhash_spec(3, 7, 2)
        assert (pinned.a, pinned.b) == (10882494683655123221, 17554896456916323559)
        width = rnd.c_squared
        buckets = np.arange(width, dtype=np.uint64)
        for level in (0, 3, rnd.max_level):
            for reps, bands in ((1, 1), (8, 3), (2, 5)):
                rnd.minhash_rows(np.array([level * width]), [0, 1], [level], reps, bands)
                block = rnd._minhash_tables[(reps, bands)][1][level * width : (level + 1) * width]
                for t in range(reps):
                    for q in range(bands):
                        spec = rnd.minhash_spec(level, t, q)
                        rank = np.argsort(np.argsort(np.uint64(spec.a) * buckets + np.uint64(spec.b)))
                        want = (rank << rnd.bucket_bits) | np.arange(width)
                        assert block[:, t * bands + q].tolist() == want.tolist()

    def test_hash_arrays_are_read_only(self):
        rnd = SketchRandomness(4096, 64, 3)
        assert rnd._bucket_a.tolist() == [s.a for s in rnd.bucket_specs]
        assert rnd._bucket_b.tolist() == [s.b for s in rnd.bucket_specs]
        rnd.minhash_rows(np.empty(0, dtype=np.int64), [0, 0], [2], 3, 2)
        table = rnd._minhash_tables[(3, 2)][1]
        for arr in (rnd._bucket_a, rnd._bucket_b, table):
            with pytest.raises(ValueError):
                arr[0] = 1
            with pytest.raises(ValueError):
                arr += np.uint64(1)

    def test_positions_under_cached_arrays_match_specs(self):
        rnd = SketchRandomness(4096, 256, 72012)
        positions = np.sort(np.random.default_rng(72012).choice(256, size=40, replace=False))
        specs = [rnd.minhash_spec(4, t, q) for t in range(3) for q in range(2)]
        assert_array_equal(
            rnd.minhash_rows(4 * 256 + positions, [0, positions.size], [4], 3, 2)[0],
            minhash_positions(positions, specs),
        )
        assert_array_equal(
            rnd.minhash_rows(np.empty(0, dtype=np.int64), [0, 0], [4], 3, 2)[0],
            np.full(6, -1),
        )

    @pytest.mark.parametrize("bits, dtype", [(6, np.int32), (16, np.int32), (17, np.int64)])
    def test_minhash_rows_equal_minhash_positions_row_by_row(self, bits, dtype):
        """Rows min-hashed together, an empty one among them, equal
        minhash_positions under the slots' specs; a packed rank takes
        2 * bits bits, so results are int32 up to c^2 = 2^16, else int64."""
        c_squared = 1 << bits
        rnd = SketchRandomness(2**8, c_squared, 72013)
        rng = np.random.default_rng(72013)
        levels = [1, 3, 4, 6]
        rows = [np.sort(rng.choice(c_squared, size=n, replace=False)) for n in (5, 0, 40, 1)]
        flat = np.concatenate([k * c_squared + row for k, row in zip(levels, rows)])
        cuts = np.cumsum([0] + [row.size for row in rows]).tolist()
        got = rnd.minhash_rows(flat, cuts, levels, 2, 3)
        assert got.dtype == dtype and got.shape == (4, 6)
        for k, row, sig in zip(levels, rows, got):
            specs = [rnd.minhash_spec(k, t, q) for t in range(2) for q in range(3)]
            assert_array_equal(sig, minhash_positions(row, specs))

    def test_minhash_rows_refuse_ranks_wider_than_a_word(self):
        """At c^2 = 2^33 a packed rank needs 66 bits: refused before any table is allocated."""
        rnd = SketchRandomness(2**8, 2**33, 72015)
        with pytest.raises(ValueError, match="too large"):
            rnd.minhash_rows(np.empty(0, dtype=np.int64), [0, 0], [0], 1, 1)

    def test_threads_filling_one_table_agree_with_one_thread(self):
        """Six threads min-hash every level of a fresh randomness one row at a
        time, each in its own level order, under a 1 us switch interval; every
        row equals a single-threaded twin's, so no thread reads a level before
        it is filled."""
        twin = SketchRandomness(2**12, 1024, 72014)
        rng = np.random.default_rng(72014)
        levels = list(range(twin.num_levels))
        rows = [k * 1024 + np.sort(rng.choice(1024, size=30, replace=False)) for k in levels]
        want = [twin.minhash_rows(row, [0, row.size], [k], 4, 3) for k, row in zip(levels, rows)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(3):
                shared = SketchRandomness(2**12, 1024, 72014)
                got = {}

                def work(i):
                    for k in levels[i:] + levels[:i]:
                        got[i, k] = shared.minhash_rows(rows[k], [0, rows[k].size], [k], 4, 3)

                threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(got) == 6 * len(levels)
                for (i, k), sig in got.items():
                    assert_array_equal(sig, want[k])
        finally:
            sys.setswitchinterval(interval)
