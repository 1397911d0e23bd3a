"""The scipy special functions stochmann uses, loaded without running
scipy.special's package __init__, which imports scipy's array-API layer
(array_api_compat, numpy.testing, numpy.ma, ...): ~0.3 s and ~15 MB on a
2-core x86 VM, which every command would pay for functions it never calls.

Each compiled module is imported through a bare stand-in for the
scipy.special package, whose __path__ is scipy's special/ directory, put in
sys.modules for the import alone.  The modules stay registered under their
own names, so a later ``import scipy.special`` reuses them: its ndtri and
betaincinv are these ufunc objects, and its zeta(s, q) calls this _zeta.
(Its __init__ does not import cython_special, so after this module loaded
that one, ``from scipy.special import cython_special`` finds it but the
package has no cython_special attribute.)  Where the real package is
already loaded its submodules are used directly; where the private route
fails, the public ``from scipy.special import ...``.
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


def cython_special():
    """scipy.special.cython_special, for the C entry points of its
    functions; loaded on the first call."""
    try:
        return _submodule("cython_special")
    except (ImportError, AttributeError):
        from scipy.special import cython_special
        return cython_special


try:
    _ufuncs = _submodule("_ufuncs")
    # zeta(s, q) is the Hurwitz zeta: the ufunc scipy.special.zeta calls
    # when q is given
    ndtri, betaincinv, zeta = _ufuncs.ndtri, _ufuncs.betaincinv, _ufuncs._zeta
except (ImportError, AttributeError):
    from scipy.special import betaincinv, ndtri, zeta
