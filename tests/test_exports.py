"""The package's public names."""

import dynlsh


class TestAll:
    def test_sorted_without_duplicates(self):
        assert dynlsh.__all__ == sorted(set(dynlsh.__all__))

    def test_every_name_resolves(self):
        missing = [name for name in dynlsh.__all__ if not hasattr(dynlsh, name)]
        assert missing == []
