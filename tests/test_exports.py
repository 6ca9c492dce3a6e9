"""The package's export list names only what the package defines, once each."""

import lorafix


def test_star_import_and_unique_exports():
    # A star import raises AttributeError on a name left in __all__ after its deletion.
    namespace = {}
    exec("from lorafix import *", namespace)
    assert set(lorafix.__all__) <= namespace.keys()
    assert len(lorafix.__all__) == len(set(lorafix.__all__))
