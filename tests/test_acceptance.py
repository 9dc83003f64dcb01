"""Release gate: one end-to-end check per shipping criterion.

Each test prints a single "criterion NN <name>: PASS/FAIL" line (visible
under pytest -s) and then asserts. Numeric designs are frozen: every
tolerance below was probed with margin before being committed, so a
failure here means a behavior regression, not Monte Carlo bad luck.
"""

import time
from itertools import combinations

import numpy as np

from dynlsh import (
    DEFAULT_GRID,
    DEFAULT_PLANTED_RANGES,
    DistanceEstimator,
    LevelSketch,
    LshConfig,
    LshIndex,
    RationalSimilarity,
    SketchRandomness,
    amplification_probability,
    deviation_report,
    exact_distance,
    generate,
    is_metric,
    jaccard,
    l0_estimate,
    random_hash_spec,
    sample_level,
    scurve_report,
    similarity_from_level,
    timing_report,
)
from oracles import banding_collides, minhash_positions, similarity_at_level


def check(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def build(randomness, items):
    sketch = LevelSketch(randomness)
    sketch.update_many(np.asarray(items, dtype=np.uint64))
    return sketch


def planted(rng, d, m, target):
    """Two m-item sets with Jaccard as close to target as integers allow."""
    inter = int(round(2 * m * target / (1 + target)))
    pool = rng.choice(d, size=2 * m - inter, replace=False)
    return pool[:m], pool[-m:], inter / (2 * m - inter)


class TestAcceptance:
    def test_criterion_01_deletion_soundness(self):
        """100 random 50-row streams with 30% deletions replay to the exact
        sketch of the surviving items, entrywise, in under 5 seconds."""
        t0 = time.perf_counter()
        d, c2 = 2**14, 256
        ok_streams = 0
        for s in range(100):
            rng = np.random.default_rng(10000 + s)
            randomness = SketchRandomness(d, c2, 10000 + s)
            stream_ok = True
            updates = 0
            for _ in range(50):
                k = int(rng.integers(1, 140))
                items = rng.choice(d, size=k, replace=False)
                n_del = int(round(0.3 * k))
                perm = rng.permutation(k)
                doomed, kept = items[perm[:n_del]], items[perm[n_del:]]
                updates += k + n_del
                streamed = LevelSketch(randomness)
                streamed.update_many(items)
                if n_del:
                    streamed.update_many(doomed, -1)
                net = LevelSketch(randomness)
                net.update_many(kept)
                stream_ok &= streamed == net
            assert updates <= 10**4
            ok_streams += stream_ok
        elapsed = time.perf_counter() - t0
        check(1, "deletion soundness", ok_streams == 100 and elapsed < 5.0,
              f"{ok_streams}/100 streams, {elapsed:.2f}s")

    def test_criterion_02_metric_predicate_vs_brute_force(self):
        """is_metric agrees with exhaustive triangle checking on every
        subset triple of a 5-item universe for 200 weight quadruples.
        Draws keep z < z' so the distance is not identically zero (the
        degenerate z == z' family satisfies all triangles vacuously)."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(20000)
        subsets = [frozenset(c) for r in range(6) for c in combinations(range(5), r)]
        n = len(subsets)
        grid = np.arange(0, 9) * 0.25
        cases = []
        while len(cases) < 200:
            x, y = rng.choice(grid), rng.choice(grid)
            z_prime = rng.choice(grid[1:])
            z = rng.choice(grid[grid < z_prime])
            if x == y == 0 and z == 0:
                continue
            cases.append((float(x), float(y), float(z), float(z_prime)))
        agree = n_metric = 0
        for x, y, z, z_prime in cases:
            params = RationalSimilarity(x, y, z, z_prime, 5)
            dist = np.empty((n, n))
            for i, a in enumerate(subsets):
                for j in range(i, n):
                    dist[i, j] = dist[j, i] = exact_distance(params, a, subsets[j])
            slack = dist[:, :, None] + dist[None, :, :] - dist[:, None, :]
            holds = bool(slack.min() >= -1e-9)
            n_metric += holds
            agree += holds == is_metric(params)
        elapsed = time.perf_counter() - t0
        check(2, "metric predicate vs brute force", agree == 200 and elapsed < 60.0,
              f"{agree}/200 agree ({n_metric} metric), {elapsed:.2f}s")

    def test_criterion_03_minhash_collision_law(self):
        """Signature collision frequency matches pattern Jaccard within
        0.03 over 10^4 hash draws, for 50 random 256-bucket patterns."""
        rng = np.random.default_rng(30000)
        specs = [random_hash_spec(rng, 64) for _ in range(10**4)]
        worst = 0.0
        for _ in range(50):
            na, nb = rng.integers(20, 120, size=2)
            shared = int(rng.integers(0, min(na, nb) + 1))
            pool = rng.permutation(256)
            a = np.sort(pool[:na])
            b = np.sort(np.concatenate([pool[:shared], pool[na:na + nb - shared]]))
            exact = shared / (na + nb - shared)
            collide = minhash_positions(a, specs) == minhash_positions(b, specs)
            worst = max(worst, abs(float(np.mean(collide)) - exact))
        check(3, "minhash collision law", worst <= 0.03, f"worst deviation {worst:.4f}")

    def test_criterion_04_sampled_level_concentration(self):
        """Planted Jaccard-0.5 pair at |A|=4096, d=2^20, c^2=1024: the
        similarity estimate at the sampled level lands in (0.25, 0.75)
        for at least 80% of 1000 seeds (checked for both the cumulative
        readout at level k and the single-row readout one level up)."""
        d, c2, m = 2**20, 1024, 4096
        params = jaccard(d)
        a, b, exact = planted(np.random.default_rng(40000), d, m, 0.5)
        k = sample_level(params, 0.5, 0.1, 0.4, m)
        in_tail = in_row = 0
        for s in range(1000):
            randomness = SketchRandomness(d, c2, 41000 + s)
            ska, skb = build(randomness, a), build(randomness, b)
            in_tail += 0.25 < similarity_from_level(ska, skb, k, params) < 0.75
            in_row += 0.25 < similarity_at_level(ska, skb, max(k - 1, 0), params) < 0.75
        ok = in_tail >= 800 and in_row >= 800
        check(4, "sampled-level concentration", ok,
              f"exact {exact:.4f}, level {k}, tail {in_tail}/1000, row {in_row}/1000")

    def test_criterion_05_distance_estimator(self):
        """Planted Jaccard distances 0.1..0.9 at d=2^20, c^2=1024, nine
        repetition slots: within +-50% relative error for >= 90% of 200
        seeds per target, and the per-target means strictly increase."""
        d, c2, m = 2**20, 1024, 1024
        params = jaccard(d)
        goods, means = [], []
        for target in (0.1, 0.3, 0.5, 0.7, 0.9):
            a, b, sim = planted(np.random.default_rng(50000), d, m, 1 - target)
            exact = 1 - sim
            good = 0
            values = []
            for s in range(200):
                slots = [SketchRandomness(d, c2, 51000 + s).spawn(i) for i in range(9)]
                estimator = DistanceEstimator(params, slots)
                value = estimator.estimate_distance(
                    [build(r, a) for r in slots], [build(r, b) for r in slots]
                )
                values.append(value)
                good += abs(value - exact) <= 0.5 * exact
            goods.append(good)
            means.append(float(np.mean(values)))
        increasing = all(means[i] < means[i + 1] for i in range(4))
        ok = min(goods) >= 180 and increasing
        check(5, "distance estimator", ok,
              f"good {goods}, means {[round(v, 3) for v in means]}")

    def test_criterion_06_l0_estimator(self):
        """Support sizes 10, 10^3, 10^5 in d=2^20 at c^2=1024: relative
        error <= 0.2 for >= 90% of 200 seeds per size."""
        d, c2 = 2**20, 1024
        goods = []
        for size in (10, 10**3, 10**5):
            good = 0
            for s in range(200):
                rng = np.random.default_rng(60000 + s)
                items = rng.choice(d, size=size, replace=False)
                estimate = l0_estimate(build(SketchRandomness(d, c2, 60000 + s), items))
                good += abs(estimate - size) / size <= 0.2
            goods.append(good)
        check(6, "l0 estimator", min(goods) >= 180, f"good {goods} of 200 each")

    def test_criterion_07_amplification_curve(self):
        """Uncompressed banded minhash (r=10, l=40) matches
        1-(1-s^r)^l within 0.1 at similarities 0.3, 0.5, 0.7."""
        gaps = []
        for target in (0.3, 0.5, 0.7):
            m = 400
            a, b, exact = planted(np.random.default_rng(70000), 2**20, m, target)
            hits = sum(banding_collides(a, b, 10, 40, 70100 + t) for t in range(500))
            theory = amplification_probability(exact, 10, 40)
            gaps.append(abs(hits / 500 - theory))
        check(7, "amplification curve", max(gaps) <= 0.1,
              f"gaps {[round(g, 4) for g in gaps]}")

    def test_criterion_08_end_to_end_deviation(self):
        """Synthetic corpus (n=1000, d=10^4, planted pairs every 100 rows):
        mean total similarity deviation <= 0.15 for every (c^2, alpha)
        combination in the default grid, 10 trials, inside 10 minutes."""
        t0 = time.perf_counter()
        corpus = generate(1000, 10**4, (0.01, 0.05), DEFAULT_PLANTED_RANGES,
                          every=100, seed=8801)
        rows = deviation_report(corpus.rows, corpus.manifest, corpus.d, DEFAULT_GRID,
                                trials=10, split=0.2, low_sample=2000, master_seed=8801)
        elapsed = time.perf_counter() - t0
        devs = {(r.c_squared, r.alpha): r.mean_dev_total for r in rows}
        ok = len(devs) == 4 and max(devs.values()) <= 0.15 and elapsed < 600.0
        check(8, "end-to-end deviation", ok,
              f"dev {[round(v, 4) for v in devs.values()]}, {elapsed:.1f}s")

    def test_criterion_09_sensitivity_separation(self):
        """Planted corpus (128 pairs near 0.6, 128 near 0.05, m=512):
        averaged over 20 seeds, p_high >= 0.25 and p_low trails it by at
        least 0.1 with r1=0.5, r2=0.1, epsilon=0.5, delta=0.1, c^2=1024."""
        d, m = 2**16, 512
        rng = np.random.default_rng(90000)
        sets, exact = {}, {}
        for p in range(256):
            a, b, sim = planted(rng, d, m, 0.6 if p < 128 else 0.05)
            sets[2 * p], sets[2 * p + 1] = a, b
            exact[(2 * p, 2 * p + 1)] = sim
        cfg = LshConfig(r1=0.5, r2=0.1, epsilon=0.5, delta=0.1)  # r = l = 1: one signature
        high = [pair for pair, sim in exact.items() if sim >= cfg.r1]
        low = [pair for pair, sim in exact.items() if sim <= cfg.r2]
        p_high, p_low = [], []
        for s in range(20):
            randomness = SketchRandomness(d, 1024, 91000 + s)
            # a cap of every pair of the corpus never truncates a bucket
            index = LshIndex(cfg, randomness, pair_cap=len(sets) * (len(sets) - 1) // 2)
            for j, items in sets.items():
                index.insert(j, build(randomness, items))
            hits = {(p.id_a, p.id_b) for p in index.candidates()}  # planted pairs are (2p, 2p + 1)
            p_high.append(np.mean([pair in hits for pair in high]))
            p_low.append(np.mean([pair in hits for pair in low]))
        hi, lo = float(np.mean(p_high)), float(np.mean(p_low))
        check(9, "sensitivity separation", hi >= 0.25 and lo <= hi - 0.1,
              f"p_high {hi:.4f}, p_low {lo:.4f}")

    def test_criterion_10_timing(self):
        """Sketch-based all-pairs similarity beats the exact pass on a
        1000-row, d=10^5, 5%-density corpus (speedup ratio > 1)."""
        rng = np.random.default_rng(100000)
        sets = []
        for _ in range(1000):
            cand = np.unique(rng.integers(0, 10**5, size=int(5000 * 1.16)))
            sets.append(rng.permutation(cand)[:5000])
        assert all(s.size == 5000 for s in sets)
        row = timing_report(sets, 10**5, 1024, 0.05, master_seed=100000)
        ok = row.speedup_ratio is not None and row.speedup_ratio > 1.0
        check(10, "timing", ok, f"ratio {row.speedup_ratio:.1f}")


class TestBandingCurveEndToEnd:
    def test_empirical_curve_tracks_theory(self):
        """Supporting check for the curve the CLI draws: 225 planted pairs
        across nine similarity bands, r=10/l=40 banding at alpha=0.005,
        c^2=1024; every populated bin (>= 30 pair-trials) sits within 0.15
        of 1-(1-s^r)^l at the bin center."""
        centers = [0.375 + 0.05 * i for i in range(9)]
        ranges = tuple((c - 0.02, c + 0.02) for c in centers)
        corpus = generate(225, 2**18, (0.09375, 0.09375), ranges, every=1, seed=907)
        rows = scurve_report(corpus.rows, corpus.manifest, corpus.d,
                             [(10, 40, 0.005, 1024)], trials=10, master_seed=907)
        gaps = [
            abs(r.empirical_probability - r.theoretical_probability)
            for r in rows
            if r.n_pairs >= 30
        ]
        assert gaps, "expected populated similarity bins"
        assert max(gaps) <= 0.15
