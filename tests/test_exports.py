"""The package's exported names."""

from __future__ import annotations

import treegraded


def test_every_exported_name_resolves():
    missing = [name for name in treegraded.__all__ if not hasattr(treegraded, name)]
    assert not missing
    assert len(set(treegraded.__all__)) == len(treegraded.__all__)
    namespace: dict = {}
    exec("from treegraded import *", namespace)
    assert set(treegraded.__all__) <= namespace.keys()
