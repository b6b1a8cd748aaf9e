"""Every name the package root lists in ``__all__`` resolves, once, and
importing the package loads nothing outside it and the standard library."""

import strongroman

from conftest import run_child


def test_star_import_binds_every_exported_name():
    namespace = {}
    # a name in __all__ that the package does not bind raises AttributeError
    exec("from strongroman import *", namespace)
    assert set(strongroman.__all__) <= namespace.keys()
    assert len(set(strongroman.__all__)) == len(strongroman.__all__)


# The modules that ``import strongroman`` adds, in a fresh interpreter.
_IMPORT_CHILD = """
import json, sys
before = set(sys.modules)
import strongroman
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_the_standard_library():
    # a third-party import (numpy takes 150-175 ms) would land in the set-up
    # time of every command and workload
    import sys

    added = run_child(_IMPORT_CHILD)
    assert "strongroman.graphs" in added
    outside = [
        m for m in added
        if m != "strongroman" and not m.startswith("strongroman.") and m.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, outside
