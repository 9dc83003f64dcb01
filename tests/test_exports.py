"""The package's public names."""

import dynlsh

# the whole public API; a change here is an API change and shows in review
EXPECTED_ALL = [
    "BenchCorpus", "CandidatePair", "ConfigMismatchError", "CounterOverflowError",
    "DEFAULT_GRID", "DEFAULT_PLANTED_RANGES", "DeviationRow", "DistanceEstimator",
    "GeneratedCorpus", "GenerationError", "HashSpec", "ItemRangeError", "LevelSketch",
    "LshConfig", "LshIndex", "PlantedPair", "RationalSimilarity", "SIMILARITY_HISTOGRAM",
    "ScurveRow", "SketchRandomness", "StreamDataError", "StreamParseError", "TimingRow",
    "alpha_level", "amplification_probability", "anderberg", "candidate_levels",
    "deviation_report", "exact_distance", "exact_similarity", "flip_probabilities", "generate",
    "generate_distribution", "hamming", "ingest", "is_metric", "jaccard", "l0_estimate",
    "level_grid", "merge", "pair_counts", "planted_partner",
    "random_hash_spec", "read_manifest", "read_sets", "rogers_tanimoto", "sample_level",
    "scurve_report", "similarity_from_level", "sketch_from_bytes",
    "sketch_to_bytes", "sorensen_dice", "timing_report", "write_csv", "write_stream",
]


class TestAll:
    def test_sorted_without_duplicates(self):
        assert dynlsh.__all__ == sorted(set(dynlsh.__all__))

    def test_every_name_resolves(self):
        missing = [name for name in dynlsh.__all__ if not hasattr(dynlsh, name)]
        assert missing == []

    def test_names_are_exactly_the_expected_api(self):
        assert dynlsh.__all__ == EXPECTED_ALL
