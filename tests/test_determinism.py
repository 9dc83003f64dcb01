"""Fixed-seed outputs pinned by sha256: determinism is part of the API.

For a fixed seed the package promises the same sketches, candidates and
report rows, bit for bit.  Each digest below was recorded once, from the
code as it stood before the stream replay was rewritten, over small
churned corpora (about 200 rows, churn 0.5).  A change that moves a digest
changes behaviour: it says so and why, and it never re-records a digest to
get a pass.  Wall-clock columns are dropped before hashing.
"""

import csv
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from dynlsh import (
    DEFAULT_PLANTED_RANGES,
    DistanceEstimator,
    LevelSketch,
    PlantedPair,
    SketchRandomness,
    generate,
    ingest,
    jaccard,
    read_sets,
    sketch_to_bytes,
    write_csv,
    write_stream,
)
from dynlsh.cli import main

SEEDS = (7, 71)
UNIVERSES = (10**4, 2**20)

_DIGESTS = {
    ('lsh', 7, 'default', None): '93d87b89cb5589ac88fd6fdffee144916bc84843ca7ff368049930d907d0bc9e',
    ('lsh', 7, 'default', 0.6): 'cbbdfd71adba37cdd698bf4f795013350d2a854d9805a8dec49c5b88ec7560ea',
    ('lsh', 7, 'deep', None): 'd5668eeae6831db69f85f1d17d5f3d056dfada4f83d2275254dbd6e2065bd3f1',
    ('lsh', 7, 'deep', 0.6): 'e2c120e06caa979cbebffd9e823c734ee6eec7f0343ae8c5783f2001b37014ab',
    ('lsh', 71, 'default', None): '696accd7b4f6a5eee9f84d935032b3bca12f122c546ed8e6d1a24ba6d8db021c',
    ('lsh', 71, 'default', 0.6): '935c21b879c411d372aee8eca6d3a7a2d3ececf4dfce09bd8f6bb9ec4ec4d29e',
    ('lsh', 71, 'deep', None): '9610a97cb91c4bbd6a97ff07e3eeec4227437fed2925a2b2cfcc7556b8d596a1',
    ('lsh', 71, 'deep', 0.6): '130782b789599c08055c7880d3c4b4551aa7b96d7f354f3c467438054364f020',
    ('ingest', 7): '95b67798a611bab8d8c5ce909b537de355d93c271ebffa82c5043ed7d66c95db',
    ('ingest', 71): 'd626652a09a52602afd7c77b1efb5c3261177c7ca0d6c1b77c17cc67825c00ca',
    ('sketches', 10000, 64): 'efe263b5fc1aacce80c062ecb227862b7cfe18f8bb1d0dff6d5a5c5afe5ae8ce',
    ('sketches', 10000, 1024): 'fc865251cb28f3e4ed8db3238ea73c7ad4142f83b178cc16d87a7a64466f2c5c',
    ('sketches', 1048576, 64): '7ea6518b7a6dc036fe06ae26971086c08653b4e59d7cf98cca8268fb5838be67',
    ('sketches', 1048576, 1024): 'e51b4bff5fdb41a267d4986228bd763762306f8e974732a78cde5795f947beb4',
    ('sets', 7, 10000): '5ffda06ab15bd16062220d20df0c285181c506693e3f1f74ab21a11a4ad2a826',
    ('sets', 7, 1048576): 'ba4729d1408c56a0a5e094e9d62bf990730d48604462052c31d31d2438d2d962',
    ('sets', 71, 10000): 'b2feb7f058d7a05a37265125105cf5d57e1a96af2bf369da2006598a841ec4ad',
    ('sets', 71, 1048576): '8bc0c2d0dd5038c616f600af0b37ad15e188919a76cfbf8bee669c86a903a6e4',
    ('deviation', 7): '26401391e5a08c4085371cbc44606c8d405bf5a102b7a5ba9cd582a1a5bb266e',
    ('deviation', 71): '9b3b70f38c4d899c3a0904ead3f7fbf5557099bada7422647b8c9ecc9de6b53b',
    ('scurve', 7): '21d303a582b68852049c84d9ad54c04a72c0acecec246be6f2bcc81857a5dbb1',
    ('scurve', 71): '6d7cedd0b997ca588edd3b753abe193adc99d142f1a0a63df93304229cee99a5',
    'estimate_distance': '74c61a60ca4038137b83a2f782abbf7579db2de33b9ea8d5f067aac45dac0f29',
}

_DEEP = ["--bands", "3", "--reps", "8", "--eps", "0.9", "--delta", "0.5"]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """(corpus, stream path, manifest path) per (seed, d): 190 base rows, 10 planted partners."""
    root = tmp_path_factory.mktemp("determinism")
    out = {}
    for seed in SEEDS:
        for d in UNIVERSES:
            corpus = generate(190, d, (100 / d, 500 / d), DEFAULT_PLANTED_RANGES, 19, seed)
            stream, manifest = root / f"{seed}-{d}.stream", root / f"{seed}-{d}.manifest.csv"
            write_stream(corpus, stream, churn=0.5, seed=seed)
            write_csv(PlantedPair, corpus.manifest, manifest)
            out[seed, d] = corpus, stream, manifest
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv, out, capsys) -> bytes:
    """The bytes a CLI job writes to `out`, then its stdout and stderr, with input paths as bare names."""
    assert main([str(a) for a in argv] + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    data = out.read_bytes() + (captured.out + captured.err).encode()
    for path in {a.parent for a in argv if isinstance(a, Path)}:
        data = data.replace(f"{path}/".encode(), b"")
    return data


def _drop_columns(data: bytes, names: set[str]) -> bytes:
    """A report CSV without its wall-clock columns; the echo line is kept."""
    echo, _, body = data.partition(b"\r\n")
    rows = list(csv.reader(io.StringIO(body.decode(), newline="")))
    keep = [k for k, name in enumerate(rows[0]) if name not in names]
    return echo + b"\n" + "\n".join(",".join(row[k] for k in keep) for row in rows).encode()


@pytest.mark.parametrize("threshold", [None, 0.6])
@pytest.mark.parametrize("shape", ["default", "deep"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lsh_csv(corpora, tmp_path, capsys, seed, shape, threshold):
    _, stream, _ = corpora[seed, 10**4]
    argv = ["lsh", "--stream", stream, "--seed", seed] + (_DEEP if shape == "deep" else [])
    if threshold is not None:
        argv += ["--threshold", threshold]
    got = _sha(_cli(argv, tmp_path / "pairs.csv", capsys))
    assert got == _DIGESTS["lsh", seed, shape, threshold]


@pytest.mark.parametrize("seed", SEEDS)
def test_ingest_out(corpora, tmp_path, capsys, seed):
    _, stream, _ = corpora[seed, 10**4]
    argv = ["ingest", "--stream", stream, "--buckets", 64, "--seed", seed]
    got = _sha(_cli(argv, tmp_path / "cards.csv", capsys))
    assert got == _DIGESTS["ingest", seed]


@pytest.mark.parametrize("c_squared", [64, 1024])
@pytest.mark.parametrize("d", UNIVERSES)
def test_ingest_sketch_bytes(corpora, d, c_squared):
    corpus, stream, _ = corpora[7, d]
    back = ingest(stream, c_squared, 7)
    digest = hashlib.sha256()
    for sketch in back.sketches:
        digest.update(sketch_to_bytes(sketch))
    assert back.n == corpus.n
    assert digest.hexdigest() == _DIGESTS["sketches", d, c_squared]


@pytest.mark.parametrize("d", UNIVERSES)
@pytest.mark.parametrize("seed", SEEDS)
def test_read_sets(corpora, seed, d):
    corpus, stream, _ = corpora[seed, d]
    got_d, sets = read_sets(stream)
    assert got_d == d and len(sets) == corpus.n
    assert all(s.dtype == np.int64 for s in sets)
    digest = hashlib.sha256()
    for s in sets:
        digest.update(np.int64(s.size).tobytes() + s.tobytes())
    assert digest.hexdigest() == _DIGESTS["sets", seed, d]


@pytest.mark.parametrize("seed", SEEDS)
def test_deviation_csv(corpora, tmp_path, capsys, seed):
    _, stream, manifest = corpora[seed, 10**4]
    argv = ["deviation", "--stream", stream, "--manifest", manifest, "--grid", "64:0.5,256:0.05",
            "--trials", 2, "--low-sample", 100, "--seed", seed]
    data = _drop_columns(_cli(argv, tmp_path / "dev.csv", capsys), {"build_seconds", "query_seconds"})
    assert _sha(data) == _DIGESTS["deviation", seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_scurve_csv(corpora, tmp_path, capsys, seed):
    _, stream, manifest = corpora[seed, 10**4]
    argv = ["scurve", "--stream", stream, "--manifest", manifest, "--grid", "1:1:1.0:64,2:4:0.05:256",
            "--trials", 2, "--seed", seed]
    assert _sha(_cli(argv, tmp_path / "scurve.csv", capsys)) == _DIGESTS["scurve", seed]


def test_estimate_distance_reprs(corpora):
    """estimate_distance over live sketch pairs, one of them after deletions."""
    corpus, _, _ = corpora[7, 10**4]
    randomness = SketchRandomness(corpus.d, 256, 7)
    estimator = DistanceEstimator(jaccard(corpus.d), randomness)
    sketches = []
    for items in corpus.rows[:8] + corpus.rows[-2:]:
        sketch = LevelSketch(randomness)
        sketch.update_many(items, 1)
        sketches.append(sketch)
    live = sketches[0].copy()
    live.update_many(corpus.rows[0][::3], -1)
    live.update_many(np.setdiff1d(corpus.rows[1], corpus.rows[0])[:40], 1)
    sketches.append(live)
    text = " ".join(
        repr(estimator.estimate_distance(a, b)) for a, b in zip(sketches, sketches[1:] + sketches[:1])
    )
    assert _sha(text.encode()) == _DIGESTS["estimate_distance"]
