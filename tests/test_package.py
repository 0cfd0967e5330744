"""The package's public namespace."""

import lsils


def test_every_exported_name_resolves():
    missing = [name for name in lsils.__all__ if not hasattr(lsils, name)]
    assert missing == []
