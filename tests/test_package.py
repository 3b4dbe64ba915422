"""The package's public names: ``__all__`` lists only names that exist."""

import lmmx


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lmmx import *", namespace)  # AttributeError on a stale __all__ entry
    assert set(lmmx.__all__) <= namespace.keys()
    assert len(set(lmmx.__all__)) == len(lmmx.__all__)
