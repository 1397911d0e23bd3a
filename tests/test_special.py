"""stochmann._special: scipy's special functions loaded without
scipy.special's package init, bit for bit the public ones, and the public
import wherever that route fails.

The bitwise checks run on the arguments the library really passes: the
Hurwitz zeta(s, SERIES_HEAD) of bounds' series tails, ndtri of Philox
uniforms with their extreme tails, and the betaincinv of clopper_pearson.
The import checks run in fresh interpreters, where nothing has loaded
scipy.special yet.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import test_golden as golden

from stochmann import _special, bounds
from stochmann.streams import derive_key, substream_uniforms


def same_bits(x, y):
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64),
                                                 y.view(np.uint64))


def test_zeta_is_the_public_hurwitz_zeta_on_the_series_arguments():
    # _series_power_sum asks for zeta((q + k) - p, SERIES_HEAD), k = 0..K,
    # with q = 2 (S1, 0 <= p < 1) or q = 4 (S2, 0 <= p < 2)
    k = np.arange(bounds.SERIES_ORDER + 1.0)
    s = np.concatenate([(q + k) - p for q, top in ((2.0, 1.0), (4.0, 2.0))
                        for p in np.linspace(0.0, top, 160, endpoint=False)])
    s = np.concatenate((s, [1.0 + 2**-20, 1.001, 2.0, 3.0]))
    assert s.size >= 2000 and s.min() > 1.0
    M = bounds.SERIES_HEAD
    assert same_bits(_special.zeta(s, M), scipy.special.zeta(s, M))
    assert same_bits(_special.zeta(2.0, M), scipy.special.zeta(2.0, M))


def test_ndtri_is_the_public_ndtri_on_a_million_uniforms():
    u = substream_uniforms(derive_key(20240814, 3), 0, 10**6)
    # the extreme uniforms of ((x >> 11) + 0.5) * 2**-53 and deep tails
    tails = np.concatenate(([2.0**-54, 1.0 - 2.0**-54, 0.5],
                            np.logspace(-300, -1, 300)))
    u = np.concatenate((u, tails, 1.0 - tails))
    assert same_bits(_special.ndtri(u), scipy.special.ndtri(u))


def test_betaincinv_is_the_public_betaincinv_on_clopper_pearson_cells():
    cells = [(k, n) for n in (1, 2, 7, 200, 2000, 10**4)
             for k in sorted({0, 1, n // 3, n // 2, n - 1, n})]
    for confidence in (0.9, 0.95, 0.99, 0.999):
        tail = 0.5 * (1.0 - confidence)
        for k, n in cells:
            # the two quantiles clopper_pearson takes, with its int arguments
            for a, b, q in ((k, n - k + 1, tail), (k + 1, n - k, 1.0 - tail)):
                assert same_bits(_special.betaincinv(a, b, q),
                                 scipy.special.betaincinv(a, b, q)), (a, b, q)


def shown(*lines):
    """The '@' lines that the code lines print in a fresh interpreter, where
    show(*values) prints its values after an '@'."""
    code = "\n".join(["import sys",
                      "def show(*values): print('@', *values)", *lines])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return [line[2:] for line in proc.stdout.splitlines()
            if line.startswith("@")]


def test_cli_import_leaves_out_the_scipy_special_package_init():
    assert shown(
        "import scipy, stochmann.cli",
        "from stochmann import _special",
        "show([m for m in ('scipy._lib._array_api', 'numpy.testing',",
        "      'charset_normalizer', 'scipy.special') if m in sys.modules],",
        "     'special' in vars(scipy))",
        # a later import of the package gets the real one, with these ufuncs
        "import scipy.special",
        "show(scipy.special.__file__ is not None, callable(scipy.special.zeta),",
        "     scipy.special.ndtri is _special.ndtri,",
        "     scipy.special.betaincinv is _special.betaincinv,",
        "     scipy.special.zeta(3.5, 32) == _special.zeta(3.5, 32))",
    ) == ["[] False", "True True True True True"]


# A meta-path finder that refuses scipy.special's submodules (those named,
# or all) while the stand-in package is in sys.modules; the stand-in, a
# bare module, has no __file__.
REFUSE = """
import json, sys
from importlib.abc import MetaPathFinder
refused = []
class Refuse(MetaPathFinder):
    def find_spec(self, name, path, target=None):
        package = sys.modules.get('scipy.special')
        if (name.startswith('scipy.special.') and package is not None
                and getattr(package, '__file__', None) is None
                and name.rsplit('.', 1)[1] in NAMES):
            refused.append((name, package))
            raise ImportError('refused: ' + name)
sys.meta_path.insert(0, Refuse())
"""

REFERENCE = str(golden.CONFIGS / "reference.json")
DEMO = str(golden.CONFIGS / "confidence_demo.json")


@pytest.mark.parametrize("names", [["_ufuncs", "cython_special"],
                                   ["cython_special"]])
def test_fallback_to_the_public_import_keeps_the_golden_digests(names,
                                                                tmp_path):
    # refusing _ufuncs sends the whole module to the public import; refusing
    # cython_special changes nothing, since no command asks for it
    out = tmp_path / "out"
    lines = shown(
        f"NAMES = {names!r}",
        REFUSE,
        "from stochmann import _special",
        "from stochmann.cli import main",
        f"assert main(['montecarlo', '--config', {REFERENCE!r},"
        f" '--replicas', '200', '--out', {str(out)!r}]) == 0",
        f"assert main(['confidence', '--config', {DEMO!r},"
        f" '--out', {str(out)!r}]) == 0",
        "package = sys.modules.get('scipy.special')",
        "show(json.dumps(sorted({name for name, _ in refused})))",
        # each refusal left the real package, not its stand-in, registered;
        # without one, nothing ran the package's init
        "show(package is not None and package.__file__ is not None,",
        "     all(stub is not package for _, stub in refused),",
        "     package is not None and _special.zeta is package.zeta",
        "     and _special.ndtri is package.ndtri)")
    # after a refused _ufuncs the real package is loaded; the Gaussian
    # montecarlo draws through philox.c's ndtri or the ufunc, never through
    # cython_special
    public = "_ufuncs" in names
    assert json.loads(lines[0]) == (["scipy.special._ufuncs"] if public else [])
    assert lines[1] == f"{public} True {public}"
    pinned = {**golden.GOLDEN["reference.json"],
              **golden.GOLDEN["confidence_demo.json"]}
    written = golden.digests(out)
    assert sorted(written) == ["confidence_seed7_cfg00eb6ec81404.json",
                               "montecarlo_seed20240814_cfg721e95457faf.csv",
                               "montecarlo_seed20240814_cfg721e95457faf.json"]
    assert all(written[name] == pinned[name] for name in written)
