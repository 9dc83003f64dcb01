"""Corpus generation, stream files, and the measurement reports."""

import dataclasses
import hashlib
import io
import itertools
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dynlsh.bench
import dynlsh.stream
import oracles

from dynlsh import (
    DEFAULT_PLANTED_RANGES,
    GenerationError,
    GeneratedCorpus,
    DeviationRow,
    LshConfig,
    LshIndex,
    PlantedPair,
    ScurveRow,
    StreamDataError,
    StreamParseError,
    TimingRow,
    alpha_level,
    deviation_report,
    flip_probabilities,
    generate,
    generate_distribution,
    ingest,
    planted_partner,
    read_manifest,
    read_sets,
    scurve_report,
    timing_report,
    write_csv,
    write_stream,
)


class TestFlipProbabilities:
    def test_classic_recipe_values(self):
        """Targeting 0.5 at 500 of 10^4 gives delete 1/3, insert 1/57."""
        p_del, p_add = flip_probabilities(0.5, 500, 10**4)
        assert_allclose(p_del, 1.0 / 3.0, rtol=1e-15)
        assert_allclose(p_add, 1.0 / 57.0, rtol=1e-12)

    def test_extremes_rejected(self):
        with pytest.raises(GenerationError):
            flip_probabilities(0.0, 500, 10**4)
        with pytest.raises(GenerationError):
            flip_probabilities(1.0, 500, 10**4)
        with pytest.raises(GenerationError):
            flip_probabilities(0.5, 0, 10**4)
        with pytest.raises(GenerationError):
            flip_probabilities(0.5, 10**4, 10**4)

    def test_infeasible_interval(self):
        # nearly full rows cannot shed enough similarity by inserting
        with pytest.raises(GenerationError, match="infeasible"):
            flip_probabilities(0.01, 9900, 10**4)


class TestPlantedPartner:
    def test_partner_lands_in_interval(self):
        rng = np.random.default_rng(77100)
        base = rng.choice(10**4, size=500, replace=False)
        partner, realized = planted_partner(rng, base, 10**4, (0.45, 0.55))
        inter = len(np.intersect1d(base, partner))
        union = len(np.union1d(base, partner))
        assert_allclose(realized, inter / union, rtol=1e-12)
        assert 0.45 <= realized <= 0.55

    def test_bad_interval_rejected(self):
        rng = np.random.default_rng(0)
        base = np.arange(10)
        with pytest.raises(GenerationError):
            planted_partner(rng, base, 100, (0.6, 0.4))
        with pytest.raises(GenerationError):
            planted_partner(rng, base, 100, (0.0, 0.5))


class TestGenerate:
    def test_shapes_ids_and_density(self):
        corpus = generate(300, 2000, (0.01, 0.05), DEFAULT_PLANTED_RANGES, every=100, seed=1)
        assert corpus.d == 2000
        assert corpus.n == 303  # 300 bases + 3 partners
        assert [p.id_a for p in corpus.manifest] == [0, 100, 200]
        assert [p.id_b for p in corpus.manifest] == [300, 301, 302]
        base_sizes = [r.size for r in corpus.rows[:300]]
        assert min(base_sizes) >= round(0.01 * 2000)
        assert max(base_sizes) <= round(0.05 * 2000)
        for row in corpus.rows:
            assert np.unique(row).size == row.size  # duplicate free

    def test_zero_ranges_give_empty_manifest(self):
        corpus = generate(50, 500, (0.02, 0.05), (), every=10, seed=2)
        assert corpus.manifest == []
        assert corpus.n == 50

    def test_planted_similarity_is_recorded_exactly(self):
        corpus = generate(200, 2000, (0.02, 0.05), ((0.4, 0.6),), every=50, seed=3)
        for pair in corpus.manifest:
            a, b = corpus.rows[pair.id_a], corpus.rows[pair.id_b]
            inter = len(np.intersect1d(a, b))
            union = len(np.union1d(a, b))
            assert_allclose(pair.exact_similarity, inter / union, rtol=1e-12)

    def test_generator_fidelity(self):
        """At least 95% of planted pairs land inside their interval; this
        frozen seed lands all 100."""
        corpus = generate(2000, 10**4, (0.01, 0.05), DEFAULT_PLANTED_RANGES, every=20, seed=77001)
        assert len(corpus.manifest) == 100
        inside = sum(p.target_low <= p.exact_similarity <= p.target_high for p in corpus.manifest)
        assert inside >= 95

    def test_validation(self):
        with pytest.raises(GenerationError):
            generate(0, 100)
        with pytest.raises(GenerationError):
            generate(10, 100, density_range=(0.0, 0.5))
        with pytest.raises(GenerationError):
            generate(10, 100, every=0)


class TestGenerateDistribution:
    def test_pair_layout(self):
        corpus = generate_distribution(40, 4000, seed=4)
        assert corpus.n == 80
        assert len(corpus.manifest) == 40
        assert [p.id_a for p in corpus.manifest] == list(range(40))
        assert [p.id_b for p in corpus.manifest] == list(range(40, 80))

    def test_similarities_span_the_histogram(self):
        corpus = generate_distribution(120, 10**4, seed=5)
        values = [p.exact_similarity for p in corpus.manifest]
        assert min(values) < 0.3
        assert max(values) > 0.6


class TestStreamRoundTrip:
    def test_header_and_line_count(self):
        corpus = generate(20, 500, (0.02, 0.05), (), seed=6)
        buf = io.StringIO()
        total = write_stream(corpus, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "20 500"
        assert total == sum(r.size for r in corpus.rows)
        assert len(lines) == 1 + total

    def test_ingest_recovers_exact_sets(self):
        corpus = generate(30, 800, (0.02, 0.06), ((0.4, 0.6),), every=10, seed=7)
        buf = io.StringIO()
        write_stream(corpus, buf)
        buf.seek(0)
        back = ingest(buf, 64, 7)
        assert back.n == corpus.n
        assert back.d == 800
        for original, recovered in zip(corpus.rows, back.sets):
            assert np.array_equal(np.sort(original), recovered)
        assert [s.cardinality for s in back.sketches] == [r.size for r in corpus.rows]

    def test_churn_cancels_exactly(self):
        """Churned and plain replays build entrywise identical sketches."""
        corpus = generate(40, 2000, (0.02, 0.06), DEFAULT_PLANTED_RANGES[:2], every=10, seed=77002)
        plain_buf, churn_buf = io.StringIO(), io.StringIO()
        n_plain = write_stream(corpus, plain_buf)
        n_churn = write_stream(corpus, churn_buf, churn=0.5, seed=77002)
        assert n_churn - n_plain == sum(2 * round(0.5 * r.size) for r in corpus.rows)
        plain_buf.seek(0)
        churn_buf.seek(0)
        a = ingest(plain_buf, 256, 77002)
        b = ingest(churn_buf, 256, 77002)
        assert all(x == y for x, y in zip(a.sketches, b.sketches))
        assert all(np.array_equal(x, y) for x, y in zip(a.sets, b.sets))

    def test_read_sets_equals_ingest_sets(self):
        corpus = generate(40, 2000, (0.02, 0.06), DEFAULT_PLANTED_RANGES[:2], every=10, seed=77003)
        buf = io.StringIO()
        write_stream(corpus, buf, churn=0.5, seed=77003)
        buf.seek(0)
        d, sets = read_sets(buf)
        buf.seek(0)
        back = ingest(buf, 64, 77003)
        assert d == back.d == 2000
        assert len(sets) == back.n
        assert all(np.array_equal(x, y) for x, y in zip(sets, back.sets))
        with pytest.raises(StreamDataError):
            read_sets(io.StringIO("1 10\n0 3 -1\n"))

    def test_negative_churn_rejected(self):
        corpus = generate(5, 100, (0.05, 0.1), (), seed=8)
        for churn in (-0.1, math.nan, math.inf):
            with pytest.raises(GenerationError, match="finite and non-negative"):
                write_stream(corpus, io.StringIO(), churn=churn)


class _CountingRng:
    """A generator that counts its integers() calls, one per rejection round."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


class TestSampleDistinct:
    @pytest.mark.parametrize("d", [500, 2**16, 2**16 + 1, 2**20, 2**63])
    @pytest.mark.parametrize("excluded", [0, 60])
    def test_draws_equal_the_unique_and_isin_oracle(self, d, excluded):
        """Same ids in the same order, from the same generator calls."""
        exclude = np.random.default_rng(d % 9973).permutation(min(d, 1000))[:excluded] if excluded else None
        counts = [0, 1, 17, 300, 500 - excluded - 3, 500 - excluded]  # the last two take many rounds at d=500
        for seed, count in enumerate(counts):
            ours, theirs = _CountingRng(seed), _CountingRng(seed)
            got = dynlsh.bench._sample_distinct(ours, d, count, exclude)
            want = oracles.sample_distinct(theirs, d, count, exclude)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            assert ours.calls == theirs.calls
            assert ours.rng.integers(0, 2**62) == theirs.rng.integers(0, 2**62)  # the streams stay in step
            if d == 500 and count >= 500 - excluded - 3:
                assert ours.calls > 1
            if exclude is not None:
                assert not np.isin(got, exclude).any()

    def test_ids_past_16_bits_keep_their_own_keys(self):
        """At d = 2^16 + 1 the id 2^16 is drawn, and not taken for the excluded 0."""
        exclude = np.array([0, 1, 2])
        got = dynlsh.bench._sample_distinct(np.random.default_rng(26), 2**16 + 1, 2000, exclude)
        assert 2**16 in got
        assert np.array_equal(got, oracles.sample_distinct(np.random.default_rng(26), 2**16 + 1, 2000, exclude))

    def test_more_than_the_universe_allows_is_refused(self):
        rng = np.random.default_rng(0)
        every = dynlsh.bench._sample_distinct(rng, 50, 40, np.arange(10))
        assert np.array_equal(np.sort(every), np.arange(10, 50))
        for count, exclude in [(51, None), (41, np.arange(10))]:
            with pytest.raises(GenerationError, match="cannot draw"):
                dynlsh.bench._sample_distinct(rng, 50, count, exclude)


class TestStreamWriter:
    """write_stream's block formatter against the per-line f-string form it replaced."""

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_the_block_size_does_not_show_in_the_text(self, monkeypatch, block):
        corpus = generate(20, 1000, (0.01, 0.03), DEFAULT_PLANTED_RANGES[:2], every=5, seed=77004)

        def written():
            buf = io.StringIO()
            return write_stream(corpus, buf, churn=0.5, seed=77004), buf.getvalue()

        monkeypatch.setattr(dynlsh.bench, "_WRITE_BLOCK_LINES", 1 << 30)  # the stream in one block
        whole = written()
        monkeypatch.setattr(dynlsh.bench, "_WRITE_BLOCK_LINES", block)
        assert written() == whole

    def test_edge_widths_match_the_per_line_reference(self, tmp_path):
        """d = 2^63, items of 1, 2, 3 and 19 digits, row ids across 9 -> 10
        and 99 -> 100, and empty rows between, at churn 0."""
        edges = [0, 9, 10, 99, 100, 2**63 - 1]
        rows = [np.empty(0, np.int64) for _ in range(103)]
        for k, j in enumerate([0, 8, 9, 10, 11, 98, 99, 100, 101]):
            rows[j] = np.array(edges[k % 6 :] + edges[: k % 6], dtype=np.int64)
        corpus = GeneratedCorpus(2**63, rows, [])
        lines = [f"{j} {i} 1\n" for j, row in enumerate(rows) for i in row.tolist()]
        want = f"103 {2**63}\n" + "".join(lines)
        buf, path = io.StringIO(), tmp_path / "edges.stream"
        assert write_stream(corpus, buf) == write_stream(corpus, path) == len(lines)
        assert buf.getvalue() == path.read_text() == want
        d, sets = read_sets(path)
        assert d == 2**63 and [s.tolist() for s in sets] == [sorted(r.tolist()) for r in rows]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**24 - 1), st.integers(0, 10**18 - 1), st.sampled_from([1, -1])),
            min_size=1,
            max_size=40,
        )
    )
    @example([(0, 0, -1), (9, 9, 1), (10, 10, -1), (2**24 - 1, 10**18 - 1, 1)])
    def test_a_block_reads_back_through_the_canonical_parse(self, updates):
        rows, items, values = (np.array(column, dtype=np.int64) for column in zip(*updates))
        text = dynlsh.stream._update_lines(rows, items, values)
        assert text == "".join(f"{j} {i} {v}\n" for j, i, v in updates)
        back = dynlsh.stream._parse_canonical(text, 2**24, 10**18)
        assert back is not None
        for got, want in zip(back, (rows, items, values)):
            assert np.array_equal(got, want)


# sha256 of _generator_outputs, recorded before generation was last optimised:
# the generator's text output is part of its contract, byte for byte.
_GENERATOR_DIGESTS = {
    ("generate", 500): "52cbaed41cbd5cfe51a5d4641df49d1a641ec695f41d2ad5c343e941f5f29e42",
    ("generate", 10_000): "dc54e1a8ebb7360bf3a1f2fb77a6c07c9e1042a64b9438d93eb37a9235e64eeb",
    ("generate", 2**16): "9d0da06d3926ca48b23cd0de23f89233606a68f371dcc7c439136dd66436866b",
    ("generate", 2**16 + 1): "661844e5a7aab9fb5d8c2b8ae70cf921fb6c0365118ee1da3e1ffba3dc0f97a4",
    ("generate", 2**20): "703ba94cf353518bb03211b1a4dc56f5d5828dfa8e9ab83d226f3c92bc3a39d2",
    ("generate_distribution", 500): "3e141b230524c3b249b581fe809b8c07592449262a68c617caca9a8b533c87f2",
    ("generate_distribution", 10_000): "457589f1a40205e9d4903d2b5c8cd9ed933481dc65ca88f14cae9792eff65a20",
    ("generate_distribution", 2**16): "aa9590ed934ea3def92cfda29ad7b2dd75febc28a3232670611e013c9949bde6",
    ("generate_distribution", 2**16 + 1): "a5df07c073596efda6e4d7cf1d34f45e6e8e3e6ce918e5e0cb599f7967a4e421",
    ("generate_distribution", 2**20): "4803304acab6779ba427500eabd18c324ebf8fb988e0c467af881c6073c6e361",
}


def _generator_outputs(kind, d):
    """Stream text at churn 0, 0.5 and 1, then the manifest CSV, for seeds 7 and 71."""
    density = (10 / d, min(0.2, 400 / d))  # 10 to at most 400 items per base row
    for seed in (7, 71):
        if kind == "generate":
            corpus = generate(30, d, density, DEFAULT_PLANTED_RANGES, every=5, seed=seed)
        else:
            corpus = generate_distribution(12, d, density, seed=seed)
        for churn in (0.0, 0.5, 1.0):
            buf = io.StringIO()
            write_stream(corpus, buf, churn=churn, seed=seed)
            yield buf.getvalue()
        buf = io.StringIO()
        write_csv(PlantedPair, corpus.manifest, buf)
        yield buf.getvalue()


class TestGeneratorDigests:
    @pytest.mark.parametrize("kind", ["generate", "generate_distribution"])
    @pytest.mark.parametrize("d", [500, 10_000, 2**16, 2**16 + 1, 2**20])
    def test_outputs_are_byte_identical_to_the_recorded_digests(self, kind, d):
        """Both sides of the 16-bit dedup cut-off, with and without churn."""
        digest = hashlib.sha256()
        for text in _generator_outputs(kind, d):
            digest.update(text.encode("ascii"))
        assert digest.hexdigest() == _GENERATOR_DIGESTS[kind, d]


class TestManifestFile:
    def test_round_trip_preserves_ids_and_values(self):
        corpus = generate(400, 2000, (0.02, 0.05), DEFAULT_PLANTED_RANGES, every=40, seed=9)
        buf = io.StringIO()
        write_csv(PlantedPair, corpus.manifest, buf)
        buf.seek(0)
        back = read_manifest(buf)
        assert len(back) == len(corpus.manifest)
        for orig, copy in zip(corpus.manifest, back):
            assert (orig.id_a, orig.id_b) == (copy.id_a, copy.id_b)
            # values cross the file as %.6f decimals
            assert abs(orig.exact_similarity - copy.exact_similarity) <= 5e-7

    def test_non_ascii_byte_in_a_file_names_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"id_a,id_b,target_low,target_high,exact_similarity\r\n0\xa0,1,0.4,0.6,0.5\r\n")
        with pytest.raises(StreamParseError) as info:
            read_manifest(path)
        assert info.value.line_number == 2

    def test_unexpected_header_rejected_at_line_one(self):
        buf = io.StringIO("id_a,id_b,wrong\n")
        with pytest.raises(StreamParseError) as info:
            read_manifest(buf)
        assert info.value.line_number == 1

    @pytest.mark.parametrize("row", ["1,2,0.1,0.2,0.3,junk", "1,2,0.1,0.2"])
    def test_row_without_five_fields_rejected(self, row):
        buf = io.StringIO(f"id_a,id_b,target_low,target_high,exact_similarity\r\n{row}\r\n")
        with pytest.raises(StreamParseError, match="expected 5 fields") as info:
            read_manifest(buf)
        assert info.value.line_number == 2

    @pytest.mark.parametrize(
        "row", ["1,2,0.1,0.2,nan", "1,2,0.1,0.2,7.5", "1,2,-0.1,0.2,0.3", "1,2,0.1,nan,0.3", "1,2,0.1,1.5,0.3"]
    )
    def test_similarity_outside_the_unit_interval_rejected(self, row):
        buf = io.StringIO(f"id_a,id_b,target_low,target_high,exact_similarity\n0,1,0.0,1.0,1.0\n{row}\n")
        with pytest.raises(StreamParseError, match=r"must lie in \[0, 1\]") as info:
            read_manifest(buf)
        assert info.value.line_number == 3


    @pytest.mark.parametrize(
        ("row", "message"),
        [("4,4,0.1,0.2,0.3", "two different rows"), ("0,60,0.9,0.1,0.5", "target_low exceeds target_high")],
    )
    def test_self_pair_and_reversed_target_rejected(self, row, message):
        buf = io.StringIO(f"id_a,id_b,target_low,target_high,exact_similarity\n0,1,0.0,1.0,1.0\n{row}\n")
        with pytest.raises(StreamParseError, match=message) as info:
            read_manifest(buf)
        assert info.value.line_number == 3

    def test_generated_manifests_load(self):
        for corpus in (generate(300, 2000, every=30, seed=4), generate_distribution(40, 2000, seed=4)):
            buf = io.StringIO()
            write_csv(PlantedPair, corpus.manifest, buf)
            buf.seek(0)
            pairs = [(p.id_a, p.id_b) for p in corpus.manifest]
            assert [(p.id_a, p.id_b) for p in read_manifest(buf)] == pairs


class TestIngestParsing:
    def test_header_only_stream(self):
        corpus = ingest(io.StringIO("0 5\n"), 16, 0)
        assert corpus.n == 0
        assert corpus.d == 5

    def test_rows_without_updates_are_empty(self):
        corpus = ingest(io.StringIO("2 10\n"), 16, 0)
        assert corpus.n == 2
        assert all(s.cardinality == 0 for s in corpus.sketches)
        assert all(s.size == 0 for s in corpus.sets)
        _, sets = read_sets(io.StringIO("6 10\n3 1 1\n1 2 1\n3 4 1\n\n3 1 -1\n"))
        assert [s.tolist() for s in sets] == [[], [2], [], [4], [], []]
        _, sets = read_sets(io.StringIO("1000 10\n999 7 1\n"))
        assert len(sets) == 1000
        assert [s.tolist() for s in sets[-2:]] == [[], [7]]

    def test_single_update(self):
        corpus = ingest(io.StringIO("1 10\n0 5 1\n"), 16, 0)
        assert corpus.sketches[0].cardinality == 1
        assert corpus.sets[0].tolist() == [5]

    def test_blank_lines_are_skipped(self):
        corpus = ingest(io.StringIO("1 10\n\n0 3 1\n\n"), 16, 0)
        assert corpus.sets[0].tolist() == [3]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("nonsense\n", 1),
            ("2\n", 1),
            ("a b\n", 1),
            ("-1 10\n", 1),
            ("2 0\n", 1),
            ("16777217 10\n", 1),
            ("4294967297 10\n", 1),
            ("100000000000 10\n0 1 1\n", 1),
            ("9223372036854775807 10\n0 1 1\n", 1),
            ("1 9223372036854775809\n", 1),
            ("1 18446744073709551616\n0 9223372036854775808 1\n", 1),
            ("1 10\n0 1\n", 2),
            ("1 10\n0 x 1\n", 2),
            ("1 10\n5 0 1\n", 2),
            ("1 10\n0 10 1\n", 2),
            ("1 10\n0 0 2\n", 2),
            ("2 10\n0 0 1\n1 2 0\n", 3),
        ],
    )
    def test_malformed_input_reports_line_number(self, text, line):
        with pytest.raises(StreamParseError) as info:
            ingest(io.StringIO(text), 16, 0)
        assert info.value.line_number == line

    def test_row_count_at_the_limit_is_parsed_lazily(self):
        """The replay holds nothing per declared row, so n = 2^24 costs what its body costs."""
        n = dynlsh.stream._MAX_ROWS

        def first_rows(text):
            tracemalloc.start()
            try:
                declared, _, updates = _stream(text)
                rows = dynlsh.stream.replay(declared, updates)
                return [net.tolist() for net in itertools.islice(rows, 3)]
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < 1 << 20

        assert first_rows(f"{n} 10\n1 3 1\n{n - 1} 7 1\n") == [[], [3], []]
        with pytest.raises(StreamDataError, match=f"row {n - 1}: item 7 has net count -1"):
            first_rows(f"{n} 10\n1 3 1\n{n - 1} 7 -1\n")
        with pytest.raises(StreamParseError, match="n <= 2\\^24"):
            _stream(f"{n + 1} 10\n")

    def test_largest_universe(self):
        d = 2**63
        _, sets = read_sets(io.StringIO(f"2 {d}\n1 {d - 1} 1\n0 0 1\n1 7 1\n"))
        assert [s.tolist() for s in sets] == [[0], [7, d - 1]]
        corpus = ingest(io.StringIO(f"1 {d}\n0 {d - 1} 1\n"), 16, 0)
        assert corpus.sketches[0].randomness.max_level == 63
        assert corpus.sketches[0].cardinality == 1

    def test_double_insert_is_a_data_error(self):
        with pytest.raises(StreamDataError, match="row 0: item 4 has net count 2"):
            ingest(io.StringIO("1 10\n0 4 1\n0 4 1\n"), 16, 0)

    def test_unmatched_delete_is_a_data_error(self):
        with pytest.raises(StreamDataError, match="net count -1"):
            ingest(io.StringIO("1 10\n0 4 -1\n"), 16, 0)

    def test_cancelled_items_are_fine(self):
        corpus = ingest(io.StringIO("1 10\n0 4 1\n0 4 -1\n0 7 1\n"), 16, 0)
        assert corpus.sets[0].tolist() == [7]


# Faults injected into otherwise valid streams: some break a rule of the
# line loop, some are accepted by int() or str.split() but are no canonical
# `j i v` line.
_FAULTS = (
    "count", "x", "1.0", "1_0", "+1", "007", "-", "2**64", "j=n", "i=d", "v=0", "v=2",
    "blank", "\t", "\r\n", "\r", "\x0b", "\x85", "\xa0",
)


@st.composite
def faulty_streams(draw):
    """Text of a random update stream with at most one fault injected."""
    n = draw(st.integers(0, 4))
    d = draw(st.integers(1, 40))
    update = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, d - 1), st.sampled_from([1, -1]))
    updates = draw(st.lists(update, max_size=30)) if n else []
    lines = [[str(n), str(d)]] + [[str(t) for t in u] for u in updates]
    seps = [" "] * len(lines)
    ends = ["\n"] * len(lines)
    fault = draw(st.sampled_from(_FAULTS + ("none",)))
    at = draw(st.integers(0, len(lines) - 1))
    tokens = lines[at]
    k = draw(st.integers(0, len(tokens) - 1))
    if fault == "count":
        if draw(st.booleans()):
            tokens.insert(k, "0")
        else:
            tokens.pop(k)
    elif fault in ("x", "1_0"):
        tokens[k] = fault
    elif fault == "2**64":
        tokens[k] = str(2**64)
    elif fault == "1.0":
        tokens[k] += ".0"
    elif fault in ("+1", "007", "-"):
        tokens[k] = fault.rstrip("1") + tokens[k]  # a sign or leading zeros
    elif fault in ("j=n", "i=d", "v=0", "v=2") and at > 0:
        col, value = {"j=n": (0, n), "i=d": (1, d), "v=0": (2, 0), "v=2": (2, 2)}[fault]
        tokens[col] = str(value)
    elif fault == "blank":
        lines.insert(at + 1, [draw(st.sampled_from(["", " ", "\t "]))])
        seps.insert(at + 1, " ")
        ends.insert(at + 1, "\n")
    elif fault == "\r\n":
        ends[at] = "\r\n"
    elif fault in ("\t", "\r", "\x0b", "\x85", "\xa0"):
        where = draw(st.sampled_from(["sep", "end", "front"]))
        if where == "sep":
            seps[at] = fault
        elif where == "end":
            ends[at] = fault + ends[at] if draw(st.booleans()) else fault
        else:
            tokens[0] = fault + tokens[0]
    if draw(st.booleans()):
        ends[-1] = ""  # no newline at the end of the file
    return "".join(sep.join(t) + end for t, sep, end in zip(lines, seps, ends))


class _Unseekable:
    """A line source that cannot be rewound and is read at most once, like a pipe."""

    def __init__(self, fh):
        self._fh = fh
        self.lines_read = 0
        self._iterated = False

    def __iter__(self):
        assert not self._iterated, "the source was iterated twice"
        self._iterated = True
        for line in self._fh:
            self.lines_read += 1
            yield line


def _stream(text):
    """(n, d, updates) of a stream's text, as read_stream gives them."""
    return dynlsh.stream.read_stream(io.StringIO(text))


def _line_loop(fh):
    """(d, per-row net set lists) of a whole stream by the header parse, the line loop and a count."""
    lines = iter(fh)
    n, d = dynlsh.stream._parse_header(next(lines, ""))
    counts = [{} for _ in range(n)]
    for j, i, v in dynlsh.stream._parse_lines(lines, n, d, 2).T.tolist():
        counts[j][i] = counts[j].get(i, 0) + v
    for j, count in enumerate(counts):
        for i in sorted(count):
            if count[i] not in (0, 1):
                raise StreamDataError(f"row {j}: item {i} has net count {count[i]}")
    return d, [sorted(i for i, c in count.items() if c == 1) for count in counts]


def _outcome(parse):
    """(d, per-row net set lists) or (type, message, line) of the raised error."""
    try:
        d, sets = parse()
        return d, [[int(i) for i in s] for s in sets]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def _sets_are_int64(parse):
    try:
        _, sets = parse()
    except Exception:
        return True
    return all(s.dtype == np.int64 for s in sets)


class TestVectorizedIngest:
    """read_sets parses chunks vectorized and replays columns, but must answer as the line loop."""

    @settings(max_examples=400, deadline=None)
    @given(
        text=faulty_streams(),
        source=st.sampled_from(["\n", "\r", "\r\n", "", None, "path", "pipe"]),
        chunk_rows=st.sampled_from([3, dynlsh.stream._PARSE_CHUNK_ROWS]),
    )
    @example(text="1 10\n0 1_0 1\n", source="\n", chunk_rows=3)
    @example(text="2 10\r0 1 1\n1 2 1\n", source="\r", chunk_rows=3)
    @example(text="2 10\r\n0 1 1\n1 2 1\n", source="\r\n", chunk_rows=3)
    @example(text="2 10\n0 1 1\r0 2 1\n", source="\n", chunk_rows=3)
    @example(text="2 10\n0 1 1\r0 2 1\n", source="", chunk_rows=3)
    @example(text="2 10\n0 1 1\r\r\n1 2 -1\n", source="\n", chunk_rows=3)
    @example(text="1 10\n0 1 1\x850 2 1\n", source="pipe", chunk_rows=3)
    @example(text="1 10\n0 5 +1\n0 007 -1\n", source="path", chunk_rows=3)
    @example(text="2 10\n0 1 1\n1 2 1\n0 3 1\n\n\n1 4 -1\n0 x 1\n", source="pipe", chunk_rows=3)
    @example(text="2 10\n0 1 1\n1 2 1\r\n1 3 -1\n", source="path", chunk_rows=3)
    @example(text="2 10\n0 1 1\n1 2 1\r\n1 3 -1\n", source="\n", chunk_rows=3)
    @example(text="2 10\n0 1 1\n1 2 -1", source="path", chunk_rows=3)
    @example(text=f"1 {2**63}\n0 {2**63 - 1} 1\n0 {10**18} 1\n0 {10**18 - 1} 1\n", source="path", chunk_rows=3)
    @example(text=f"1 {2**63}\n0 1 1\n0 {10**19 - 1} 1\n", source="path", chunk_rows=3)
    @example(text=f"1 10\n0 1 1\n{10**19 - 1} 1 1\n", source="path", chunk_rows=3)
    @example(text="1 10\n0 1 1\n0 2 -0\n", source="path", chunk_rows=3)
    @example(text="1 10\n0 1 1\n0 2 +1\n", source="path", chunk_rows=3)
    @example(text="1 10\n0 1 1\n0 2 --1\n", source="path", chunk_rows=3)
    @example(text=f"1 {2**63}\n0 1 1\n0 2 11\n0 -3 1\n", source="path", chunk_rows=3)
    @example(text="1 10\n0 1 1\x0b0 2 1\n", source="path", chunk_rows=3)
    @example(text=f"1 {2**63}\n0 1 1\n0 -5 1\n", source="path", chunk_rows=3)
    @example(text="2 10\n0 1 1\n1 2 1\n0 3 1\n\n\n1 4 -1\n0 x 1\n", source="path", chunk_rows=3)
    @example(text="2 10\n0 1 1\n0 2 1\n0 3\xe9 1\n1 4 1\n", source="path", chunk_rows=3)
    @example(text="2 10\r0 1 1\r1 2 1\r0 3 1\r1 2 -1\r", source="path", chunk_rows=3)
    @example(text="2 10\r0 1 1\r1 2 1\r\n0 3 1\r1 x 1\r", source="path", chunk_rows=3)
    @example(text="2 10\n0\t1 1\n1 2 1\n", source="path", chunk_rows=3)
    @example(text="2 10\n0 1\r1\n1 2 1\n", source="path", chunk_rows=3)
    @example(text="2 10\n0 1 1\n\n\n\n1 2 1\n", source="path", chunk_rows=3)
    @example(text="2 10\n1  2 1\n0 3\n", source="path", chunk_rows=3)
    @example(text="2 10\n1  2 1\n", source="pipe", chunk_rows=3)
    def test_fast_parse_answers_as_the_line_loop(self, text, source, chunk_rows):
        with mock.patch.object(dynlsh.stream, "_PARSE_CHUNK_ROWS", chunk_rows):
            if source == "path":
                with tempfile.TemporaryDirectory() as tmp:
                    path = Path(tmp) / "s.stream"
                    path.write_text(text, encoding="utf-8", newline="")
                    opened = lambda: open(path, encoding="ascii", errors="surrogateescape", newline="")
                    # blocks of 1, 3 and 7 characters cut lines, "\r\n" and tokens
                    for block_chars in (1, 3, 7, dynlsh.stream._READ_BLOCK_CHARS):
                        with mock.patch.object(dynlsh.stream, "_READ_BLOCK_CHARS", block_chars):
                            self._check(lambda: path, opened)
            elif source == "pipe":
                self._check(lambda: _Unseekable(io.StringIO(text)), lambda: io.StringIO(text))
            elif source in ("\r", "\r\n"):  # StringIO would store each "\n" of text as source
                opened = lambda: io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8", newline=source)
                self._check(opened, opened)
            else:
                self._check(lambda: io.StringIO(text, newline=source), lambda: io.StringIO(text, newline=source))

    @staticmethod
    def _check(source, reference):
        def loop():
            with reference() as fh:
                return _line_loop(fh)

        want = _outcome(loop)
        assert _outcome(lambda: read_sets(source())) == want
        assert _sets_are_int64(lambda: read_sets(source()))

    @pytest.mark.parametrize(
        "body",
        ["0\t1 1\n1 2 1\n", "0 1\r1\n1 2 1\n", "0 1 1\n\n\n\n1 2 1\n", "1  2 1\n0 3\n", "1  2 1\n",
         "0 1 1\r\n"],
    )
    def test_the_canonical_parse_passes_any_other_separator_on(self, body):
        """A tab, a carriage return, a blank line or a double space leaves a
        block to the line loop, even where the separators count three a line."""
        assert dynlsh.stream._parse_canonical("0 1 1\n" + body, 2, 10) is None
        assert dynlsh.stream._parse_canonical("0 1 1\n1 2 -1\n", 2, 10) is not None

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_file_blocks_end_at_line_ends(self, tmp_path, end):
        """A file is read in blocks of whole lines, whatever its line ends, and none grows to the whole body."""
        body = "".join(f"0 {i} 1{end}" for i in range(200))
        path = tmp_path / "s.stream"
        path.write_text(f"1 200{end}{body}", newline="")
        parse = dynlsh.stream._parse_canonical
        with (
            mock.patch.object(dynlsh.stream, "_READ_BLOCK_CHARS", 16),
            mock.patch.object(dynlsh.stream, "_parse_canonical", wraps=parse) as canonical,
        ):
            _, sets = read_sets(path)
        assert sets[0].tolist() == list(range(200))
        blocks = [call.args[0] for call in canonical.call_args_list]
        assert "".join(blocks) == body
        assert all(block.endswith(end) for block in blocks)
        assert max(map(len, blocks)) <= 16 + len(f"0 199 1{end}")

    @pytest.mark.parametrize("text", ["0 5\n", "3 5", "2 10\n\n  \n\t\n"])
    def test_empty_bodies_raise_no_warning(self, tmp_path, text):
        empty = [[]] * int(text[0])
        path = tmp_path / "s.stream"
        path.write_text(text, newline="")
        for source in (io.StringIO(text), _Unseekable(io.StringIO(text)), path):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, sets = read_sets(source)
                assert [s.tolist() for s in sets] == empty

    def test_valid_streams_never_reach_the_line_loop(self, tmp_path):
        """write_stream's output, read from a path, a handle or a pipe, goes through the canonical parse alone."""
        corpus = generate(30, 500, (0.02, 0.1), DEFAULT_PLANTED_RANGES, 5, 4)
        path = tmp_path / "c.stream"
        write_stream(corpus, path, churn=0.5, seed=4)
        want = read_sets(path)[1]
        text = path.read_text()
        with (
            mock.patch.object(dynlsh.stream, "_parse_lines", side_effect=AssertionError("loop used")),
            mock.patch.object(dynlsh.stream, "_READ_BLOCK_CHARS", 100),  # many blocks
            mock.patch.object(dynlsh.stream, "_PARSE_CHUNK_ROWS", 7),  # and many chunks
        ):
            for source in (path, io.StringIO(text), _Unseekable(io.StringIO(text))):
                d, sets = read_sets(source)
                assert d == 500
                assert [s.tolist() for s in sets] == [sorted(s.tolist()) for s in corpus.rows]
                assert [s.tolist() for s in sets] == [s.tolist() for s in want]
            # rows out of order in the file give the same net sets
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
            _, backwards = read_sets(path)
        assert [s.tolist() for s in backwards] == [s.tolist() for s in want]

    def test_a_pipe_is_read_once_and_stops_at_the_faulty_chunk(self):
        """A one-shot source with a fault in its third chunk gives the loop's error and line."""
        body = [f"{j} {i} 1" for j in range(3) for i in range(8)]
        body[9] = "1 x 1"  # line 11: the third chunk of 4 lines holds lines 10 to 13
        text = "3 10\n" + "\n".join(body) + "\n"
        with pytest.raises(StreamParseError) as want:
            _line_loop(io.StringIO(text))
        source = _Unseekable(io.StringIO(text))
        with mock.patch.object(dynlsh.stream, "_PARSE_CHUNK_ROWS", 4):
            with pytest.raises(StreamParseError) as got:
                read_sets(source)
        assert (str(got.value), got.value.line_number) == (str(want.value), 11)
        assert source.lines_read == 1 + 3 * 4  # the header and three chunks, each once

    def test_an_int_parsed_via_float_sends_the_stream_to_the_loop(self, tmp_path):
        """A token written as a float, "3.7" or "1.0", is no canonical token, and the loop rejects its line."""
        path = tmp_path / "s.stream"
        for text in ("1 10\n0 3.7 1\n", "1 10\n0 3 1.0\n"):
            path.write_text(text)
            for source in (path, io.StringIO(text)):
                with pytest.raises(StreamParseError, match="non-integer update") as err:
                    read_sets(source)
                assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "text",
        [
            "2 10\n0 1 1\n1 2\xa01\n1 \u0663 1\n",  # the loop accepts \xa0 and an Arabic-Indic 3
            "2 10\n0 1 1\n1 3 1\U0001c53d\n0 2 1\n",  # the loop rejects line 3
            "2\u2003\u0661\u0660\n0 1 1\n",
        ],
    )
    def test_non_ascii_text_answers_as_the_line_loop(self, tmp_path, text):
        path = tmp_path / "s.stream"
        path.write_text(text, encoding="utf-8", newline="")
        opened = lambda: open(path, encoding="ascii", errors="surrogateescape", newline="")
        self._check(lambda: path, opened)
        self._check(lambda: io.StringIO(text), lambda: io.StringIO(text))
        self._check(lambda: _Unseekable(io.StringIO(text)), lambda: io.StringIO(text))

    def test_read_sets_memory_is_under_half_of_per_update_lists(self, tmp_path):
        """Peak traced memory of read_sets against the line loop's Python lists.

        The line loop used to group rows itself, keeping one Python int per
        item and a list slot per item and value; read_sets, when it was that
        loop, peaked at 48.9 B per update on this stream (9.8 MB for 200,889
        updates, d = 10^4; the per-row lists alone 44.5 B), and the comparator
        builds those lists.  The chunked parse holds one chunk of text at a
        time and one packed sort key per update, and read_sets peaks at
        about 17.7 B per update on the same stream.
        """
        corpus = generate(270, 10**4, (0.02, 0.05), DEFAULT_PLANTED_RANGES, 20, 3)
        path = tmp_path / "c.stream"
        updates = write_stream(corpus, path, churn=0.5, seed=3)
        assert 180_000 < updates < 260_000

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def loop():
            with open(path, encoding="ascii", newline="") as fh:
                lines = iter(fh)
                n, _ = dynlsh.stream._parse_header(next(lines))
                items, values = [[] for _ in range(n)], [[] for _ in range(n)]
                for line in lines:
                    j, i, v = map(int, line.split())
                    items[j].append(i)
                    values[j].append(v)

        lists = peak(loop)
        fast = peak(lambda: read_sets(path))
        assert fast < 0.5 * lists, (fast / updates, lists / updates)


def _bad_stream(bad, n=30, size=5, long_row=None):
    """Stream text of n rows of `size` items each, rows listed last to first.

    bad maps (row, item) to the extra updates appended for it; long_row
    gets 12 cancelled items more, inserted and deleted: 29 updates, more
    than a small block holds.
    """
    lines = []
    for j in reversed(range(n)):
        updates = [(j, i, 1) for i in range(size)]
        if j == long_row:
            updates += [(j, i, v) for v in (1, -1) for i in range(size, size + 12)]
        lines += [f"{a} {b} {c}" for a, b, c in updates]
    lines += [f"{j} {i} {v}" for (j, i), extra in bad.items() for v in extra]
    return f"{n} 40\n" + "\n".join(lines) + "\n"


class TestColumnarReplay:
    """The replay sorts the whole stream once and walks it in blocks cut between rows."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize(
        "bad, long_row, message",
        [
            ({(20, 3): [1]}, None, "row 20: item 3 has net count 2"),
            # the lower row wins, wherever its updates sit in the file
            ({(25, 1): [-1, -1], (12, 8): [1], (12, 2): [-1, -1]}, None, "row 12: item 2 has net count -1"),
            ({(3, 16): [-1]}, 3, "row 3: item 16 has net count -1"),
            ({(4, 30): [1, 1]}, 3, "row 4: item 30 has net count 2"),
        ],
    )
    def test_the_first_bad_row_and_item_raise(self, bad, long_row, message, block):
        text = _bad_stream(bad, long_row=long_row)
        with pytest.raises(StreamDataError) as want:
            _line_loop(io.StringIO(text))
        assert str(want.value) == message
        with mock.patch.object(dynlsh.stream, "_REPLAY_BLOCK", block):
            with pytest.raises(StreamDataError, match=f"^{message}$"):
                read_sets(io.StringIO(text))

    @pytest.mark.parametrize("block", [1, 7, 40, 1 << 16])
    def test_blocks_are_cut_between_rows(self, block):
        """Whole rows fill a block up to the budget; a longer row is a block of its own."""
        text = _bad_stream({}, long_row=3)  # 30 rows of 5 updates, row 3 of 29
        sizes = [29 if j == 3 else 5 for j in range(30)]
        want, used = [], block
        for size in sizes:  # net items per block: every row nets 5 items
            if used + size > block:
                want.append(0)
                used = 0
            want[-1] += 5
            used += size
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), dynlsh.SketchRandomness(40, 16, 0))
        spy = mock.patch.object(LshIndex, "insert_many", autospec=True, side_effect=LshIndex.insert_many)
        with mock.patch.object(dynlsh.stream, "_REPLAY_BLOCK", block), mock.patch.object(
            dynlsh.SketchRandomness, "cells_of", autospec=True, side_effect=dynlsh.SketchRandomness.cells_of
        ) as cells_of, spy as insert_many:
            n, _, updates = _stream(text)
            assert len(list(dynlsh.stream.replay(n, updates, index))) == 30
        assert [call.args[1].size for call in cells_of.call_args_list] == want
        assert [len(call.args[1]) for call in insert_many.call_args_list] == [net // 5 for net in want]
        assert list(index._entries) == list(range(30))

    @pytest.mark.parametrize("d", [500, 2**40])
    def test_packed_and_lexsort_keys_agree(self, d):
        corpus = generate(40, d, (20 / d, 60 / d), DEFAULT_PLANTED_RANGES, 10, 5)
        buf = io.StringIO()
        write_stream(corpus, buf, churn=1.0, seed=5)
        text = buf.getvalue()
        randomness = dynlsh.SketchRandomness(d, 64, 5)

        def replay():
            n, _, updates = _stream(text)
            index = LshIndex(LshConfig(r1=0.5, r2=0.1), randomness)
            return list(dynlsh.stream.replay(n, updates, index)), index

        with mock.patch.object(dynlsh.stream, "_REPLAY_BLOCK", 7):
            packed, packed_index = replay()
            with mock.patch.object(dynlsh.stream, "_KEY_BITS", 0), mock.patch.object(
                np, "lexsort", wraps=np.lexsort
            ) as lexsort:
                sorted_by_columns, lexsorted_index = replay()
        assert lexsort.call_count == 1
        assert [net.tolist() for net in packed] == [sorted(r.tolist()) for r in corpus.rows]
        for x, y in zip(packed, sorted_by_columns, strict=True):
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)
        assert list(packed_index._entries) == list(lexsorted_index._entries) == list(range(corpus.n))
        for set_id, entry in packed_index._entries.items():
            for x, y in zip(entry, lexsorted_index._entries[set_id], strict=True):
                assert (x.dtype, x.tolist()) == (y.dtype, y.tolist()) if isinstance(x, np.ndarray) else x == y

    def test_a_stream_wider_than_64_key_bits_is_sorted_by_columns(self):
        """bits(n - 1) + bits(d - 1) + 1 = 20 + 45 + 1 > 64 sends the keys to np.lexsort unpatched."""
        n, d = 2**20, 2**45
        lines = [f"{n - 1} {d - 1} 1", "5 3 1", f"{n - 1} 2 1", "5 3 -1", f"0 {d - 2} 1", "5 9 1"]
        text = f"{n} {d}\n" + "\n".join(lines) + "\n"
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            got_d, sets = read_sets(io.StringIO(text))
        assert lexsort.call_count == 1
        assert (got_d, len(sets)) == (d, n)
        assert {j: s.tolist() for j, s in enumerate(sets) if s.size} == {0: [d - 2], 5: [9], n - 1: [2, d - 1]}

    def test_the_largest_universe_is_sorted_by_columns(self):
        """d = 2^63 leaves no bit for a second row, so its keys go to np.lexsort."""
        d = 2**63
        items = [0, 7, 2**40 + 3, d - 2, d - 1]
        lines = [f"{j} {i} 1" for j in (2, 0, 1) for i in items[j:]]
        lines += [f"1 {d - 1} -1", "2 5 1", "1 5 1", "2 5 -1", f"1 {d - 1} 1"]
        text = f"3 {d}\n" + "\n".join(lines) + "\n"
        randomness = dynlsh.SketchRandomness(d, 16, 3)
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), randomness)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            n, _, updates = _stream(text)
            rows = list(dynlsh.stream.replay(n, updates, index))
        assert lexsort.call_count == 1
        want = [items, sorted(items[1:] + [5]), items[2:]]
        assert _outcome(lambda: (d, rows)) == (d, want)
        assert _outcome(lambda: _line_loop(io.StringIO(text))) == (d, want)
        for j, items_j in enumerate(want):
            sketch = dynlsh.LevelSketch(randomness)
            sketch.update_many(np.array(items_j, np.uint64), 1)
            flat = sketch.buckets.reshape(-1)
            positions, values, *_ = index._entries[j]
            assert np.array_equal(positions, np.flatnonzero(flat))
            assert np.array_equal(values, flat[positions])


class TestAlphaLevel:
    def test_frozen_table(self):
        assert alpha_level(1.0, 20) == 0
        assert alpha_level(0.05, 20) == 4
        assert alpha_level(0.025, 20) == 5
        assert alpha_level(0.01, 20) == 6
        assert alpha_level(0.005, 20) == 7

    def test_clamping(self):
        assert alpha_level(0.005, 3) == 3
        assert alpha_level(1.0, 0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_level(0.0, 10)
        with pytest.raises(ValueError):
            alpha_level(1.5, 10)
        with pytest.raises(ValueError):
            alpha_level(0.5, -1)

    def test_every_rate_keeps_the_reciprocal_level_and_a_subnormal_one_has_a_level(self):
        """ceil(log2(1/alpha)) - 1 wherever 1/alpha is finite, powers of two and
        their neighbours included; below 2**-1024, where 1/alpha overflows,
        -log2(alpha) places the level past 1023."""
        powers = 2.0 ** -np.arange(1024.0)
        alphas = np.concatenate([
            np.geomspace(2.0**-1023, 1.0, 20_000), powers,
            np.nextafter(powers, 0.0), np.nextafter(powers, 1.0),
        ])
        for alpha in alphas.tolist():
            assert alpha_level(alpha, 2000) == max(math.ceil(math.log2(1.0 / alpha)) - 1, 0)
        assert alpha_level(1e-320, 20) == 20
        assert alpha_level(5e-324, 2000) == 1073


class TestDeviationReport:
    def test_identical_pair_has_zero_deviation(self):
        sets = [np.arange(50), np.arange(50)]
        manifest = [PlantedPair(0, 1, 0.9, 1.0, 1.0)]
        rows = deviation_report(
            sets, manifest, 2000, [(256, 1.0), (1024, 0.005)],
            trials=2, low_sample=0, master_seed=3,
        )
        assert [r.level for r in rows] == [0, 7]
        for row in rows:
            assert row.mean_dev_high == 0.0
            assert row.mean_dev_total == 0.0
            assert row.n_high == 1
            assert row.n_low == 0

    def test_low_pairs_are_sampled_on_demand(self):
        sets = [np.arange(0, 50), np.arange(100, 150), np.arange(200, 250)]
        rows = deviation_report(sets, [], 1000, [(256, 1.0)], trials=1,
                                low_sample=3, master_seed=4)
        assert rows[0].n_low == 3
        assert rows[0].n_high == 0
        assert math.isnan(rows[0].mean_dev_high)
        assert rows[0].mean_dev_low <= 0.35  # lossless rows, modest collisions

    def test_non_timing_fields_are_deterministic(self):
        sets = [np.arange(100), np.arange(50, 160)]
        manifest = [PlantedPair(0, 1, 0.3, 0.5, 100 / 160)]
        runs = [
            deviation_report(sets, manifest, 2000, [(128, 0.05)], trials=3, master_seed=9)
            for _ in range(2)
        ]
        for a, b in zip(*runs):
            assert_allclose(
                [a.mean_dev_high, a.mean_dev_low, a.mean_dev_total],
                [b.mean_dev_high, b.mean_dev_low, b.mean_dev_total],
                rtol=0, atol=0, equal_nan=True,
            )
            assert (a.n_high, a.n_low, a.level) == (b.n_high, b.n_low, b.level)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            deviation_report([np.arange(5)], [], 100, [(64, 1.0)], trials=0)

    @pytest.mark.parametrize("bad", [7, -1])
    def test_manifest_row_outside_the_stream_rejected(self, bad):
        sets = [np.arange(5), np.arange(3, 8), np.arange(10, 15)]
        manifest = [PlantedPair(0, bad, 0.0, 1.0, 0.5)]
        with mock.patch.object(dynlsh.bench, "LevelSketch") as built:
            with pytest.raises(StreamDataError, match=rf"pair \(0, {bad}\) is outside rows 0\.\.2"):
                deviation_report(sets, manifest, 100, [(64, 1.0)], trials=1)
        built.assert_not_called()


class TestScurveReport:
    def test_single_band_identical_pair_tops_out(self):
        rng = np.random.default_rng(77005)
        shared = rng.choice(4096, size=200, replace=False)
        sets = [shared, shared.copy(), np.arange(0, 300), np.arange(1000, 1300)]
        manifest = [PlantedPair(0, 1, 0.9, 1.0, 1.0), PlantedPair(2, 3, 0.0, 0.1, 0.0)]
        rows = scurve_report(sets, manifest, 4096, [(1, 1, 1.0, 256)],
                             trials=10, master_seed=77005)
        top = [r for r in rows if r.bin_low >= 0.95][0]
        assert top.empirical_probability == 1.0
        assert top.n_pairs == 10  # one pair times ten trials
        assert_allclose(top.theoretical_probability, 0.975, atol=1e-12)

    def test_disjoint_pairs_stay_cold_with_wide_bands(self):
        sets = [np.arange(0, 300), np.arange(1000, 1300)]
        manifest = [PlantedPair(0, 1, 0.0, 0.1, 0.0)]
        rows = scurve_report(sets, manifest, 4096, [(10, 2, 1.0, 256)],
                             trials=20, master_seed=77006)
        assert rows[0].bin_low == 0.0
        assert rows[0].empirical_probability <= 0.05

    def test_bin_edges_follow_width(self):
        sets = [np.arange(0, 100), np.arange(50, 150)]
        manifest = [PlantedPair(0, 1, 0.2, 0.4, 1 / 3)]
        rows = scurve_report(sets, manifest, 1000, [(2, 2, 1.0, 64)],
                             trials=1, bin_width=0.25, master_seed=1)
        assert (rows[0].bin_low, rows[0].bin_high) == (0.25, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            scurve_report([np.arange(5)], [], 100, [(0, 1, 1.0, 64)])
        with pytest.raises(ValueError):
            scurve_report([np.arange(5)], [], 100, [(1, 1, 1.0, 64)], trials=0)
        with pytest.raises(ValueError):
            scurve_report([np.arange(5)], [], 100, [(1, 1, 1.0, 64)], bin_width=0.0)
        with pytest.raises(ValueError, match="finite reciprocal"):
            scurve_report([np.arange(5)], [], 100, [(1, 1, 1.0, 64)], bin_width=1e-320)

    def test_a_narrow_bin_width_counts_only_the_bins_that_occur(self):
        """bin_width 1e-9 has a billion bins; the report keeps two, in
        ascending order, in well under a MiB."""
        sets = [np.arange(0, 100), np.arange(50, 150), np.arange(200, 300)]
        manifest = [PlantedPair(0, 1, 0.2, 0.4, 1 / 3), PlantedPair(0, 2, 0.0, 0.1, 0.0)]
        tracemalloc.start()
        try:
            rows = scurve_report(sets, manifest, 1000, [(2, 2, 1.0, 64)],
                                 trials=2, bin_width=1e-9, master_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(r.bin_low, r.n_pairs) for r in rows] == [(0.0, 2), (333333333 * 1e-9, 2)]
        assert peak < 2**20

    @pytest.mark.parametrize("bad", [7, -1])
    def test_manifest_row_outside_the_stream_rejected(self, bad):
        sets = [np.arange(5), np.arange(3, 8), np.arange(10, 15)]
        manifest = [PlantedPair(bad, 1, 0.0, 1.0, 0.5)]
        with mock.patch.object(dynlsh.bench, "LevelSketch") as built:
            with pytest.raises(StreamDataError, match=rf"pair \({bad}, 1\) is outside rows 0\.\.2"):
                scurve_report(sets, manifest, 100, [(1, 1, 1.0, 64)], trials=1)
        built.assert_not_called()


class TestTimingReport:
    def test_single_set_reports_no_ratio(self):
        row = timing_report([np.arange(64)], 1000, 64, 0.05, master_seed=5)
        assert row.n == 1
        assert row.speedup_ratio is None
        assert row.sketch_build_seconds >= 0.0

    def test_fields_echo_parameters(self):
        sets = [np.arange(0, 64), np.arange(32, 96)]
        row = timing_report(sets, 1000, 64, 0.05, master_seed=6)
        assert (row.c_squared, row.alpha, row.n, row.d) == (64, 0.05, 2, 1000)
        assert row.level == alpha_level(0.05, 10)
        assert row.speedup_ratio is not None

    def test_sketch_query_time_is_dimension_free(self):
        """The sketch pass works on c^2-wide patterns, so multiplying the
        universe by 10 must not double its query time (min of 3 runs).

        The two universes take turns, so a burst of other load on the host
        slows a run of each rather than all three runs of one.
        """
        times = {10**4: [], 10**5: []}
        for rep in range(3):
            for d, runs in times.items():
                rng = np.random.default_rng(rep)
                sets = [np.sort(rng.choice(d, size=500, replace=False)) for _ in range(200)]
                runs.append(timing_report(sets, d, 256, 0.01, master_seed=rep).sketch_query_seconds)
        t_small, t_large = (min(runs) for runs in times.values())
        assert max(t_small, t_large) / min(t_small, t_large) < 2.0


class TestReportCsv:
    def test_deviation_csv_schema(self):
        sets = [np.arange(50), np.arange(50)]
        manifest = [PlantedPair(0, 1, 0.9, 1.0, 1.0)]
        rows = deviation_report(sets, manifest, 2000, [(64, 1.0)], trials=1,
                                low_sample=0, master_seed=1)
        buf = io.StringIO()
        write_csv(DeviationRow, rows, buf, {"stream": "demo", "seed": 1})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# stream=demo seed=1"
        assert lines[1] == (
            "c_squared,alpha,level,trials,n_high,n_low,mean_dev_high,"
            "mean_dev_low,mean_dev_total,build_seconds,query_seconds"
        )
        cells = lines[2].split(",")
        assert cells[0] == "64"
        assert cells[6] == "0.000000"
        assert cells[7] == "nan"  # no low pairs were evaluated

    def test_scurve_csv_schema(self):
        rows = scurve_report(
            [np.arange(100), np.arange(100)],
            [PlantedPair(0, 1, 0.9, 1.0, 1.0)],
            1000, [(1, 1, 1.0, 64)], trials=1, master_seed=2,
        )
        buf = io.StringIO()
        write_csv(ScurveRow, rows, buf, {"trials": 1})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# trials=1"
        assert lines[1] == (
            "r,l,alpha,c_squared,level,bin_low,bin_high,n_pairs,"
            "empirical_probability,theoretical_probability"
        )
        assert len(lines) == 3

    def test_timing_csv_uses_na_for_missing_ratio(self):
        row = timing_report([np.arange(64)], 1000, 64, 0.05, master_seed=7)
        buf = io.StringIO()
        write_csv(TimingRow, [row], buf, {"n": 1})
        lines = buf.getvalue().splitlines()
        assert lines[1] == (
            "c_squared,alpha,level,n,d,sketch_build_seconds,"
            "sketch_query_seconds,exact_query_seconds,speedup_ratio"
        )
        assert lines[2].endswith(",na")

    def test_alpha_column_keeps_rates_that_six_decimals_would_round(self):
        """alpha prints as %.6f when that reads back exactly and as its repr
        otherwise, so 1e-7 and 1e-320 no longer both read 0.000000; every
        other float cell stays %.6f."""
        row = timing_report([np.arange(64)], 1000, 64, 0.05, master_seed=7)
        alphas = [0.05, 0.005, 1.0, 0.0123456789, 1e-7, 1e-320]
        buf = io.StringIO()
        write_csv(TimingRow, [dataclasses.replace(row, alpha=a) for a in alphas], buf)
        cells = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        assert [c[1] for c in cells] == [
            "0.050000", "0.005000", "1.000000", "0.0123456789", "1e-07", "1e-320",
        ]
        assert {c[5] for c in cells} == {f"{row.sketch_build_seconds:.6f}"}

    def test_writers_accept_paths(self, tmp_path):
        row = timing_report([np.arange(64)], 1000, 64, 0.05, master_seed=8)
        target = tmp_path / "timing.csv"
        write_csv(TimingRow, [row], target, {"x": "y"})
        assert target.read_text().startswith("# x=y\n")
