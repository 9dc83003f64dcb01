"""End-to-end runs of the console entry point on temporary files."""

import tracemalloc

import numpy as np
import pytest

from dynlsh import (
    LevelSketch,
    LshConfig,
    LshIndex,
    PlantedPair,
    SketchRandomness,
    generate,
    read_manifest,
    read_sets,
    write_csv,
    write_stream,
)
from dynlsh.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def tiny_stream(tmp_path):
    """Two overlapping rows and one disjoint row over a 40-item universe."""
    path = tmp_path / "tiny.stream"
    lines = ["3 40"]
    lines += [f"0 {i} 1" for i in range(10)]
    lines += [f"1 {i} 1" for i in range(10)]
    lines += [f"2 {i} 1" for i in range(20, 30)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def tiny_manifest(tmp_path):
    path = tmp_path / "tiny.manifest.csv"
    write_csv(PlantedPair, [PlantedPair(0, 1, 0.9, 1.0, 1.0)], path)
    return path


class TestGenerate:
    def test_writes_stream_and_manifest(self, tmp_path, capsys):
        prefix = tmp_path / "corpus"
        rc = run(["generate", "--rows", 60, "--cols", 500, "--density", 0.02, 0.06,
                  "--every", 20, "--seed", 11, "--out", prefix])
        assert rc == 0
        out = capsys.readouterr().out
        assert "for 63 rows over universe 500" in out
        assert "3 labeled pairs" in out
        stream = (tmp_path / "corpus.stream").read_text().splitlines()
        assert stream[0] == "63 500"
        manifest = read_manifest(tmp_path / "corpus.manifest.csv")
        assert [(p.id_a, p.id_b) for p in manifest] == [(0, 60), (20, 61), (40, 62)]

    def test_ranges_none_plants_nothing(self, tmp_path, capsys):
        rc = run(["generate", "--rows", 20, "--cols", 300, "--ranges", "none",
                  "--seed", 1, "--out", tmp_path / "plain"])
        assert rc == 0
        assert "0 labeled pairs" in capsys.readouterr().out
        assert read_manifest(tmp_path / "plain.manifest.csv") == []

    def test_distribution_mode(self, tmp_path, capsys):
        rc = run(["generate", "--distribution", "--pairs", 8, "--cols", 2000,
                  "--seed", 2, "--out", tmp_path / "dist"])
        assert rc == 0
        assert "for 16 rows" in capsys.readouterr().out
        assert len(read_manifest(tmp_path / "dist.manifest.csv")) == 8

    def test_distribution_without_pairs_exits_2(self, tmp_path, capsys):
        rc = run(["generate", "--distribution", "--pairs", 0, "--cols", 2000, "--out", tmp_path / "none"])
        assert rc == 2
        assert capsys.readouterr().err.strip() == "error: need at least one pair, got 0"
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_is_a_clean_error(self, capsys):
        rc = run(["generate", "--rows", 5, "--cols", 100])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_infeasible_density_exits_2(self, tmp_path, capsys):
        rc = run(["generate", "--rows", 10, "--cols", 100, "--density", 0.99, 0.999,
                  "--every", 5, "--out", tmp_path / "bad"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("churn", ["nan", "inf"])
    def test_churn_that_is_not_finite_exits_2(self, tmp_path, capsys, churn):
        rc = run(["generate", "--rows", 20, "--cols", 1000, "--churn", churn,
                  "--out", tmp_path / "t"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "t.stream").exists()


class TestIngest:
    def test_summary_line(self, tiny_stream, capsys):
        rc = run(["ingest", "--stream", tiny_stream])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "ingested 3 rows over universe 40; cardinality range [10, 10]\n"

    def test_cardinality_csv(self, tiny_stream, tmp_path, capsys):
        target = tmp_path / "cards.csv"
        rc = run(["ingest", "--stream", tiny_stream, "--buckets", 64,
                  "--seed", 7, "--out", target])
        assert rc == 0
        lines = target.read_text().splitlines()
        assert lines[0] == f"# stream={tiny_stream} buckets=64 seed=7"
        assert lines[1] == "row,cardinality"
        assert lines[2:] == ["0,10", "1,10", "2,10"]

    def test_csv_lines_all_end_in_crlf(self, tiny_stream, tiny_manifest, tmp_path):
        cards, dev = tmp_path / "cards.csv", tmp_path / "dev.csv"
        assert run(["ingest", "--stream", tiny_stream, "--out", cards]) == 0
        assert run(["deviation", "--stream", tiny_stream, "--manifest", tiny_manifest,
                    "--grid", "64:1.0", "--trials", 1, "--low-sample", 1,
                    "--out", dev]) == 0
        for target in (cards, dev):
            data = target.read_bytes()
            assert data.startswith(b"# stream=")
            lines = data.split(b"\n")
            assert lines.pop() == b""
            assert len(lines) >= 3
            assert all(line.endswith(b"\r") for line in lines)

    def test_malformed_stream_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.stream"
        bad.write_text("1 10\n0 99 1\n")
        rc = run(["ingest", "--stream", bad])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text", ["1 18446744073709551616\n0 9223372036854775808 1\n", "100000000000 10\n0 1 1\n"]
    )
    def test_oversized_header_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.stream"
        bad.write_text(text)
        rc = run(["ingest", "--stream", bad])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: line 1: header requires")

    def test_non_ascii_byte_exits_2_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.stream"
        bad.write_bytes(b"2 10\n0 1 1\n1 2 1\xc3\xa9\n")
        rc = run(["ingest", "--stream", bad])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: line 3: non-integer update")

    def test_unbalanced_deletes_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.stream"
        bad.write_text("1 10\n0 3 -1\n")
        rc = run(["ingest", "--stream", bad])
        assert rc == 2
        assert "net count -1" in capsys.readouterr().err


class TestDeviation:
    def test_report_file(self, tiny_stream, tiny_manifest, tmp_path):
        target = tmp_path / "dev.csv"
        rc = run(["deviation", "--stream", tiny_stream, "--manifest", tiny_manifest,
                  "--grid", "64:1.0,128:0.5", "--trials", 2, "--low-sample", 1,
                  "--seed", 3, "--out", target])
        assert rc == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("# stream=")
        assert "grid=64:1.0,128:0.5" in lines[0]
        assert "split=0.2" in lines[0]
        assert lines[1].startswith("c_squared,alpha,level,")
        assert len(lines) == 4  # echo + header + one row per grid entry
        first = lines[2].split(",")
        assert first[0] == "64"
        assert first[6] == "0.000000"  # identical planted pair deviates by zero

    @pytest.mark.parametrize(
        "grid, echoed",
        [([], "128:0.05,256:0.025,512:0.01,1024:0.005"), (["--grid", "64:1.0"], "64:1.0")],
    )
    def test_echo_line_names_every_option(self, tiny_stream, tiny_manifest, tmp_path, grid, echoed):
        target = tmp_path / "dev.csv"
        rc = run(["deviation", "--stream", tiny_stream, "--manifest", tiny_manifest, *grid,
                  "--out", target])
        assert rc == 0
        assert target.read_text().splitlines()[0] == (
            f"# stream={tiny_stream} manifest={tiny_manifest} grid={echoed} "
            "trials=10 split=0.2 low_sample=2000 seed=0"
        )

    def test_bad_grid_string_is_an_argparse_error(self, tiny_stream, tiny_manifest):
        with pytest.raises(SystemExit):
            run(["deviation", "--stream", tiny_stream, "--manifest", tiny_manifest,
                 "--grid", "64"])

    def test_manifest_row_outside_the_stream_exits_2(self, tiny_stream, tmp_path, capsys):
        manifest = tmp_path / "bad.manifest.csv"
        write_csv(PlantedPair, [PlantedPair(0, 7, 0.9, 1.0, 1.0)], manifest)
        rc = run(["deviation", "--stream", tiny_stream, "--manifest", manifest])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: manifest pair (0, 7) is outside rows 0..2\n")

    @pytest.mark.parametrize("job", ["deviation", "scurve"])
    @pytest.mark.parametrize("similarity", ["nan", "7.5"])
    def test_manifest_similarity_outside_the_unit_interval_exits_2(
        self, tiny_stream, tmp_path, capsys, job, similarity
    ):
        manifest = tmp_path / "bad.manifest.csv"
        manifest.write_text(
            f"id_a,id_b,target_low,target_high,exact_similarity\n0,1,0.9,1.0,{similarity}\n"
        )
        rc = run([job, "--stream", tiny_stream, "--manifest", manifest])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: bad manifest row") and "must lie in [0, 1]" in err


    @pytest.mark.parametrize("job", ["deviation", "scurve"])
    @pytest.mark.parametrize(
        ("row", "message"),
        [("1,1,0.1,0.9,0.5", "two different rows"), ("0,2,0.9,0.1,0.5", "target_low exceeds")],
    )
    def test_manifest_self_pair_or_reversed_target_exits_2(
        self, tiny_stream, tmp_path, capsys, job, row, message
    ):
        manifest = tmp_path / "bad.manifest.csv"
        manifest.write_text(f"id_a,id_b,target_low,target_high,exact_similarity\n0,1,0.9,1.0,1.0\n{row}\n")
        rc = run([job, "--stream", tiny_stream, "--manifest", manifest])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: bad manifest row") and message in err


class TestScurve:
    def test_report_to_stdout(self, tiny_stream, tiny_manifest, capsys):
        rc = run(["scurve", "--stream", tiny_stream, "--manifest", tiny_manifest,
                  "--grid", "2:2:1.0:64", "--trials", 2, "--seed", 4])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# stream=")
        assert "grid=2:2:1.0:64" in lines[0]
        assert lines[0] == (
            f"# stream={tiny_stream} manifest={tiny_manifest} grid=2:2:1.0:64 "
            "trials=2 bin_width=0.05 seed=4"
        )
        assert lines[1].startswith("r,l,alpha,c_squared,level,bin_low,")
        assert len(lines) == 3  # the single identical pair fills one bin
        assert lines[2].startswith("2,2,")

    def test_default_grid_echo_line(self, tiny_stream, tiny_manifest, capsys):
        rc = run(["scurve", "--stream", tiny_stream, "--manifest", tiny_manifest])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            f"# stream={tiny_stream} manifest={tiny_manifest} grid=10:40:0.005:1024 "
            "trials=5 bin_width=0.05 seed=0"
        )

    def test_a_bin_width_without_a_finite_reciprocal_exits_2(self, tiny_stream, tiny_manifest, capsys):
        rc = run(["scurve", "--stream", tiny_stream, "--manifest", tiny_manifest,
                  "--bin-width", "1e-320"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bin_width must lie in (0, 1] with a finite")

    def test_bad_grid_string_is_an_argparse_error(self, tiny_stream, tiny_manifest):
        with pytest.raises(SystemExit):
            run(["scurve", "--stream", tiny_stream, "--manifest", tiny_manifest,
                 "--grid", "2:2:1.0"])


class TestTiming:
    def test_report_to_stdout(self, tiny_stream, capsys):
        rc = run(["timing", "--stream", tiny_stream, "--buckets", 64,
                  "--alpha", 0.05, "--seed", 5])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"# stream={tiny_stream} buckets=64 alpha=0.05 seed=5"
        assert lines[1].startswith("c_squared,alpha,level,n,d,")
        assert len(lines) == 3
        assert lines[2].startswith("64,0.050000,")

    @pytest.mark.parametrize("job", ["timing", "deviation"])
    def test_a_subnormal_alpha_reads_the_deepest_level(self, tiny_stream, tiny_manifest, capsys, job):
        """1/alpha overflows a float there; the level is still the deepest, 6 for d = 40."""
        options = {"timing": ["--alpha", "1e-320"],
                   "deviation": ["--manifest", tiny_manifest, "--grid", "64:1e-320", "--trials", 1]}
        rc = run([job, "--stream", tiny_stream, *options[job]])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[2] == "level"
        assert lines[2].split(",")[2] == "6"


class TestLsh:
    def test_candidates_csv(self, tiny_stream, tmp_path, capsys):
        target = tmp_path / "cand.csv"
        rc = run(["lsh", "--stream", tiny_stream, "--buckets", 64,
                  "--seed", 6, "--out", target])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err.strip().endswith("candidate pairs")
        lines = target.read_text().splitlines()
        assert lines[0] == "id_a,id_b,level,repetition,verified_distance"
        assert any(line.startswith("0,1,") for line in lines[1:])
        for line in lines[1:]:
            assert line.endswith(",")  # not verified, so the last field is empty

    def test_threshold_verifies_candidates(self, tiny_stream, tmp_path, capsys):
        target = tmp_path / "cand.csv"
        rc = run(["lsh", "--stream", tiny_stream, "--buckets", 64, "--seed", 6,
                  "--threshold", 0.5, "--out", target])
        assert rc == 0
        lines = target.read_text().splitlines()
        kept = [line for line in lines[1:] if line]
        summary = capsys.readouterr().err.strip()
        d, sets = read_sets(tiny_stream)
        randomness = SketchRandomness(d, 64, 6)
        index = LshIndex(LshConfig(r1=0.5, r2=0.1), randomness)  # the lsh defaults
        for j, items in enumerate(sets):
            sketch = LevelSketch(randomness)
            sketch.update_many(items, 1)
            index.insert(j, sketch)
        assert summary == f"{len(kept)} kept of {len(index.candidates())} candidate pairs"
        assert kept, "the identical pair must survive verification"
        for line in kept:
            cells = line.split(",")
            assert (cells[0], cells[1]) == ("0", "1")
            assert float(cells[4]) <= 0.5

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_impossible_threshold_exits_2_without_output(self, tmp_path, capsys, threshold):
        """argparse refuses the value before the stream is read: a missing
        stream would otherwise end the job with its own error."""
        target = tmp_path / "cand.csv"
        with pytest.raises(SystemExit) as exc:
            run(["lsh", "--stream", tmp_path / "missing.stream", "--buckets", 64, "--seed", 6,
                 "--threshold", threshold, "--out", target])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --threshold: threshold must be >= 0, got {threshold}" in err
        assert not target.exists()

    def test_missing_stream_exits_2(self, tmp_path, capsys):
        rc = run(["lsh", "--stream", tmp_path / "nope.stream"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unbalanced_deletes_exit_2_before_any_output(self, tmp_path, capsys):
        bad, target = tmp_path / "bad.stream", tmp_path / "cand.csv"
        bad.write_text("1 10\n0 3 -1\n")
        rc = run(["lsh", "--stream", bad, "--out", target])
        assert rc == 2
        assert "net count -1" in capsys.readouterr().err
        assert not target.exists()


class TestStreamedJobs:
    @pytest.mark.parametrize("job", [["lsh", "--threshold", 0.6], ["ingest"]])
    def test_one_dense_sketch_at_a_time(self, tmp_path, capsys, job):
        """Each row is sketched, used and dropped, so the traced peak of a
        202-row job stays below a quarter of its 202 dense sketches."""
        corpus = generate(200, 10_000, seed=3)
        stream = tmp_path / "corpus.stream"
        write_stream(corpus, stream, churn=0.5, seed=3)
        dense = corpus.n * SketchRandomness(10_000, 1024, 3).num_levels * 1024 * 8
        tracemalloc.start()
        try:
            rc = run([job[0], "--stream", stream, "--buckets", 1024, *job[1:],
                      "--seed", 3, "--out", tmp_path / "out.csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < dense / 4

    @pytest.mark.parametrize("threshold", [[], ["--threshold", 0.6]])
    def test_rows_without_net_items_cost_nothing(self, tmp_path, capsys, threshold):
        """A header of 2^16 rows over two updates: the rows without net
        items are not indexed, so the traced peak stays under 4 MiB, where
        an index entry per empty row took about 70 MiB."""
        n, stream, target = 1 << 16, tmp_path / "sparse.stream", tmp_path / "out.csv"
        stream.write_text(f"{n} 1000\n{n - 1} 5 1\n0 5 1\n")
        tracemalloc.start()
        try:
            rc = run(["lsh", "--stream", stream, *threshold, "--out", target])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 4 << 20
        verified = "0.000000" if threshold else ""  # the two rows hold the same item
        assert target.read_text().splitlines()[1:] == [f"0,{n - 1},0,0,{verified}"]
        assert capsys.readouterr().err == ("1 kept of 1" if threshold else "1") + " candidate pairs\n"


class TestParser:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ingest", "--buckets", 3], "c_squared must be a power of two"),
            (["lsh", "--r1", 2], "need 0 < r2 < r1 < 1"),
            (["timing", "--alpha", 0], "alpha must lie in (0, 1]"),
            (["deviation", "--split", "nan"], "split must lie in [0, 1]"),
            (["deviation", "--split", 2], "split must lie in [0, 1]"),
            (["deviation", "--low-sample", -5], "low_sample must be non-negative"),
            (["lsh", "--threshold", "nan"], "argument --threshold: threshold must be >= 0, got nan"),
            (["lsh", "--threshold", -1], "argument --threshold: threshold must be >= 0, got -1"),
            (["lsh", "--seed", -1], "argument --seed: seed must fit in 64 bits, got -1"),
            (["scurve", "--grid", "1:2:0.5"], "argument --grid: expected 4 ':'-separated fields"),
            (["generate", "--ranges", "0.9"], "argument --ranges: expected 2 ':'-separated fields"),
            (["lsh", "--seed", "x"], "argument --seed: seed must be an integer, got 'x'"),
            (["lsh", "--threshold", "abc"], "argument --threshold: threshold must be a number, got 'abc'"),
            (
                ["scurve", "--grid", "1:x:0.5:4"],
                "argument --grid: field 2 of '1:x:0.5:4' must be an integer, got 'x'",
            ),
            (["deviation", "--grid", "128:y"], "argument --grid: field 2 of '128:y' must be a number, got 'y'"),
        ],
    )
    def test_invalid_option_value_exits_2(self, tiny_stream, tiny_manifest, capsys, argv, message):
        """The library's checks end the job with an `error:` line; a value
        the option's own type refuses ends it in argparse, after its usage."""
        manifest = ["--manifest", tiny_manifest] if argv[0] in ("deviation", "scurve") else []
        try:
            rc = run([argv[0], "--stream", tiny_stream, *manifest, *argv[1:]])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: " if message.startswith("argument ") else "error: ")
        assert message in err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    def test_negative_seed_rejected(self, tiny_stream):
        with pytest.raises(SystemExit):
            run(["ingest", "--stream", tiny_stream, "--seed", -1])

    def test_module_entry_point(self, tiny_stream):
        import os
        import subprocess
        import sys

        import dynlsh

        # the child imports the same dynlsh as this process, installed or not
        src = os.path.dirname(os.path.dirname(dynlsh.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dynlsh", "ingest", "--stream", str(tiny_stream)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("ingested 3 rows")

    def test_import_leaves_scipy_unloaded(self):
        """Only timing_report needs scipy, and it imports scipy itself."""
        import os
        import subprocess
        import sys

        import dynlsh

        src = os.path.dirname(os.path.dirname(dynlsh.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, dynlsh, dynlsh.cli; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
