"""The scipy special functions stochmann uses, loaded without running
scipy.special's package __init__, which imports scipy's array-API layer
(array_api_compat, numpy.testing, numpy.ma, ...): ~0.3 s and ~15 MB on a
2-core x86 VM, which every command would pay for functions it never calls.

The compiled module _ufuncs is imported through a bare stand-in for the
scipy.special package, whose __path__ is scipy's special/ directory, put in
sys.modules for the import alone.  It stays registered under its own name,
so a later ``import scipy.special`` reuses it: its ndtri and betaincinv are
these ufunc objects, and its zeta(s, q) calls this _zeta.
Where the real package is already loaded its submodules are used directly;
where the private route fails, the public ``from scipy.special import ...``.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import scipy

_PACKAGE = "scipy.special"


def _submodule(name):
    """scipy.special.<name>, imported through the stand-in package unless
    the real one is loaded."""
    if _PACKAGE in sys.modules:
        return importlib.import_module(f"{_PACKAGE}.{name}")
    stub = types.ModuleType(_PACKAGE)
    stub.__path__ = [str(Path(scipy.__file__).with_name("special"))]
    sys.modules[_PACKAGE] = stub
    try:
        return importlib.import_module(f"{_PACKAGE}.{name}")
    finally:
        if sys.modules.get(_PACKAGE) is stub:
            del sys.modules[_PACKAGE]


try:
    _ufuncs = _submodule("_ufuncs")
    # zeta(s, q) is the Hurwitz zeta: the ufunc scipy.special.zeta calls
    # when q is given
    ndtri, betaincinv, zeta = _ufuncs.ndtri, _ufuncs.betaincinv, _ufuncs._zeta
except (ImportError, AttributeError):
    from scipy.special import betaincinv, ndtri, zeta
