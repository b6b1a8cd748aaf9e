"""Every name the package root lists in ``__all__`` resolves, once."""

import strongroman


def test_star_import_binds_every_exported_name():
    namespace = {}
    # a name in __all__ that the package does not bind raises AttributeError
    exec("from strongroman import *", namespace)
    assert set(strongroman.__all__) <= namespace.keys()
    assert len(set(strongroman.__all__)) == len(strongroman.__all__)
