"""Golden digests: the exact bytes the CLI writes and the streams produce.

Every output file of `iterate`, `bound --out`, `confidence`,
`montecarlo` and `cramer-check --out` on the shipped configs is pinned by
its sha256, and so is what each of those commands prints.  So are fixed
Philox-2x64 and normal blocks, the raw iterates of single runs on every
map family and the raw replica errors of a d = 1 and a d = 8 batch that
cross noise tiles.  The `montecarlo` outputs and the replica errors are checked on both paths of
`replica_errors`, the serial pass and the split over threads wherever the
compiled tile steps, whatever the machine's core count.  The CLI outputs
are checked once more with SHA-256 taken from hashlib instead of CPython's
builtin module.  A change that moves any digest changes output bits;
regenerate the digests deliberately, in a commit of their own, and log it
in CHANGES.md.  The help screens of the parser and its five commands are
pinned too, at a terminal width of 80 columns.
"""

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochmann.cli import build_parser, main
from stochmann.config import build_scheme, load_config
from stochmann.montecarlo import replica_errors, replica_seeds
from stochmann.noise import bounded_uniform, gaussian
from stochmann.schemes import (TILE_ELEMENTS, SchemeConfig, StepSequences, run,
                               tile_kernel, tile_library)
from stochmann.spaces import (affine, inverse_quadratic, reference_fixed_point,
                              scaled_cosine)
from stochmann.streams import derive_key, philox2x64, substream_normals

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Random123 known-answer vectors for Philox-2x64 with 10 rounds
# (Salmon et al., SC'11): (counter word 0, counter word 1, key) -> output.
PHILOX_KAT = [
    ((0, 0, 0), (0xCA00A0459843D731, 0x66C24222C9A845B5)),
    ((2**64 - 1, 2**64 - 1, 2**64 - 1),
     (0x65B021D60CD8310F, 0x4D02F3222F86DF20)),
    ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0),
     (0x0A5E742C2997341C, 0xB0F883D38000DE5D)),
]

NORMALS_SHA256 = ("46d722affed97f887094ffea3797a303"
                  "a3a99ecfc1c6233fd0c73a8fc50a52f1")

GOLDEN = {
    "reference.json": {
        "bound_n1000_seed20240814_cfg721e95457faf.json":
            "1be014f66ee20d791c210a818cd9b4ce9292a314ce3aa57fa09fa114de89cbeb",
        "iterate_seed20240814_cfg721e95457faf.csv":
            "87cd7e75643a9377b51cefeee0a484ead4d38d0d9612080dbe413eac17741ee8",
        "iterate_seed20240814_cfg721e95457faf.json":
            "7f1c2a00c820745688d10fe24a1de27698837fd0f5f315f5d2a3fdbdfbce2dce",
        "montecarlo_seed20240814_cfg721e95457faf.csv":
            "571cc1e1cb24f6a5797afa5391e2e397323b448607c70ca7bac2939f32ae92a8",
        "montecarlo_seed20240814_cfg721e95457faf.json":
            "f9f25f03c98411011516d52f21a3dc450ca81251fd341968f887a16e4d37a1dd",
    },
    "confidence_demo.json": {
        "bound_n1000_seed7_cfg00eb6ec81404.json":
            "a76b00dd3c262fe6513250431ecb3fa86d6e799f6293462767d56454af8d378a",
        "confidence_seed7_cfg00eb6ec81404.json":
            "d359d3c6b13cc2a30a27a8cc5c9ef28efa46993ddbfff31cbf431dc154133587",
        "iterate_seed7_cfg00eb6ec81404.csv":
            "c92c90f236c95ccd6ac1da4163b64c7072c14ef55548378262b624e89ef2406b",
        "iterate_seed7_cfg00eb6ec81404.json":
            "9becf1b8154f929bf97c5fef2dd3f8a6631d12964878a6edf9148de60c243e9f",
        "montecarlo_seed7_cfg00eb6ec81404.csv":
            "db773e09ab38ec312e8e63c2a71eb9800fb3c230d0184a511bfab45484530b96",
        "montecarlo_seed7_cfg00eb6ec81404.json":
            "74004a72f9e38593e3cbc36dd7b245ce0474f724f1cd9d4c005a9f99cc3cd5b4",
    },
}

# `cramer-check --draws 2000 --out` on the shipped configs; both exit 0
CRAMER_GOLDEN = {
    "reference.json": {
        "cramer_check_seed20240814_cfg721e95457faf.json":
            "34893eab399e5028b596b2b09617fd8895fa80688499c0339956898a7c72e959",
    },
    "confidence_demo.json": {
        "cramer_check_seed7_cfg00eb6ec81404.json":
            "bb3c73e991d9cb2cc05e50525ec333f96c3eb90a127ff5a3251b86fd7290a111",
    },
}

# sha256 of run(...).iterates; the horizon crosses a noise tile at d = 1, 2
RUN_HORIZON = 20000
RUN_SHA256 = {
    "inverse_quadratic":
        "fd374315e1d57c4a2b8589d6ec75ab7ba470c9cc618bffd2a85f91ad009d05ef",
    "affine_d1":
        "f2a55b1a1250c77f0cbd9ead2cc76af720616803bc2ef7964184ce7213b3370c",
    "scaled_cosine":
        "681cb6327f69be289bb4dd688c8ad42a62b4098360692dc8f343fee2360f1c6d",
    "affine_d2":
        "6e728dc56c2617ae6d205377675182d2152974f067442d5bc0b62e28667e5935",
}

# sha256 of replica_errors(...) over 200 replicas, horizon 300
REPLICA_ERRORS_SHA256 = ("1b25117b3c14eebe5b99dfe20f29835a"
                         "a37d7b19898536e7d97f9f4327747ae3")
# the same for an affine d = 8 batch: numpy's pairwise summation starts at 8
# elements, so only d >= 8 pins the order of the norm's reduction
REPLICA_ERRORS_D8_SHA256 = ("ecf6613c7ddf43226070478cddbe8608"
                            "719250f7c89a52f09030b79c01bc752c")

# `confidence` on reference.json is vacuous at every n under the cap.
CONFIDENCE_EXIT = {"reference.json": 4, "confidence_demo.json": 0}

# sha256 of stdout + "\0" + stderr of each command above, with the output
# directory written as OUT
STDIO_GOLDEN = {
    "reference.json": {
        "iterate":
            "8649a2d6e379c8f6e7d17d3ac3310f32655806042d19d963a0dcae4e83c702eb",
        "bound":
            "a10d537da7e0b61effab24f4ed3cbb01a10db1cf843e6970a678e78bf12017e9",
        "confidence":
            "09b4f7603534a3073a7373fce2e740611e7c76fd6711103d76b80a35096e0506",
        "montecarlo":
            "8edd6db893565cd7bff2a18eb1a59af2ae2fdfbd3b14c0f547555602c4c61872",
        "cramer-check":
            "c25e17835eed138c969defafe939cda2adfae761328abd435465022d23d7bb22",
    },
    "confidence_demo.json": {
        "iterate":
            "d218df0c22d7cac04007e7a2df0698d744f73c7af1028a962d43b96bea9c4b62",
        "bound":
            "ca985a30ab376d8f2d38f80c13784de97f52cdec1477071cd1b9170a72195309",
        "confidence":
            "a2f0665c1185677f56f4acef148fd36d5c211b72ba382c5c4ea1403f29dcb346",
        "montecarlo":
            "01ac3497ad7271cd789bc79464cb9e0606ee516d8ddfebd4b54129931ef9a661",
        "cramer-check":
            "a5d50de0f5f44f45ea9c46a970842b21688adf8faabb30c8500b8b13a5c6cc89",
    },
}

# sha256 of format_help() at COLUMNS=80, by command; "" is the top parser
HELP_SHA256 = {
    "": "ea1fc1b7d2c2c3c96d904716241958fa104648e9252215b2efa848e5af4fb1b1",
    "iterate":
        "cb1545fce09b7ee7ea79a64067fab85634813bdc83384ca36fe17f195f67fcce",
    "bound":
        "ebe1d4318e2659a1e8778c5c3b6a8d3900376e4ae1c3750c9e499c834d475b95",
    "confidence":
        "5c8d585ccf23c8a983901f085d2ec038c950931131fb44ecafb55a93f46d57c7",
    "montecarlo":
        "1103c6b03f984dc0bd27e01ad07782715f42bcaa82ca2b8b69a0e2606fd749cc",
    "cramer-check":
        "989b06793c25c776b8400fed02b14e30fd9295089a5dce01dd15937ab7bc02d0",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(out):
    return {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}


def montecarlo_digests(config, out):
    assert main(["montecarlo", "--config", str(CONFIGS / config),
                 "--replicas", "200", "--out", str(out)]) == 0
    return digests(out)


def printed(argv, out):
    """main(argv)'s exit code and the sha256 of what it printed, stdout and
    stderr joined by a NUL, with the output directory out written as OUT."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    text = stdout.getvalue() + "\0" + stderr.getvalue()
    return code, sha256(text.replace(str(out), "OUT").encode())


def cli_digests(config, out):
    """Run the four writing commands on config: {file name: sha256} and
    {command: sha256 of what it printed}."""
    cfg = str(CONFIGS / config)
    prints = {}
    for argv, code in ((["iterate"], 0),
                       (["bound", "--n", "1000", "--eps", "0.1"], 0),
                       (["confidence"], CONFIDENCE_EXIT[config]),
                       (["montecarlo", "--replicas", "200"], 0)):
        argv = argv[:1] + ["--config", cfg] + argv[1:] + ["--out", str(out)]
        exit_code, prints[argv[0]] = printed(argv, out)
        assert exit_code == code, argv
    return digests(out), prints


def affine_nd(d):
    """An affine contraction on R^d with no zero or repeated structure."""
    i, j = np.indices((d, d))
    return affine(0.3 * np.eye(d) + 0.02 * ((3 * i + 5 * j) % 7 - 3),
                  np.linspace(-1.0, 1.0, d))


def scheme(map_spec, x0, noise, a=0.5, horizon=RUN_HORIZON):
    return SchemeConfig(kind="stochastic_mann", map_spec=map_spec,
                        x0=np.array(x0), steps=StepSequences(a=a),
                        noise=noise, horizon=horizon, seed=20240814)


RUN_CASES = {
    "inverse_quadratic": lambda: scheme(inverse_quadratic(), [0.5],
                                        gaussian(2.0)),
    "affine_d1": lambda: scheme(affine([[0.3]], [0.7]), [0.0],
                                bounded_uniform(0.1), a=0.9),
    "scaled_cosine": lambda: scheme(scaled_cosine(0.8), [1.0],
                                    gaussian(0.5)),
    "affine_d2": lambda: scheme(
        affine([[0.3, 0.1], [-0.2, 0.4]], [0.5, -1.0]), [0.0, 2.0],
        gaussian(0.5, dim=2)),
}


def test_philox2x64_known_answers():
    for (c0, c1, key), expected in PHILOX_KAT:
        x0, x1 = philox2x64(c0, c1, key)
        assert (int(x0), int(x1)) == expected


def test_substream_normals_block_digest():
    keys = derive_key(20240814, np.arange(3, dtype=np.uint64))
    block = substream_normals(keys[:, None], np.arange(1, 5, dtype=np.uint64), 3)
    assert block.shape == (3, 4, 3)
    assert sha256(block.astype("<f8").tobytes()) == NORMALS_SHA256


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_cli_output_digests(config, tmp_path, cores):
    files, prints = cli_digests(config, tmp_path)
    assert files == GOLDEN[config]
    assert prints == {command: digest for command, digest
                      in STDIO_GOLDEN[config].items()
                      if command != "cramer-check"}
    golden = {name: digest for name, digest in GOLDEN[config].items()
              if name.startswith("montecarlo_")}
    cfg = build_scheme(load_config(CONFIGS / config))
    for k in (1, 2):  # the serial pass, then the split over 2 threads
        pools = cores(k)
        out = tmp_path / f"cores{k}"
        assert montecarlo_digests(config, out) == golden, k
        assert pools == split_pools(cfg, k), k


@pytest.mark.parametrize("config", sorted(CRAMER_GOLDEN))
def test_cramer_check_output_digest(config, tmp_path):
    assert printed(["cramer-check", "--config", str(CONFIGS / config),
                    "--draws", "2000", "--out", str(tmp_path)], tmp_path) \
        == (0, STDIO_GOLDEN[config]["cramer-check"])
    assert digests(tmp_path) == CRAMER_GOLDEN[config]


# A meta-path finder that refuses CPython's builtin SHA-256 modules, so
# stochmann takes sha256 from hashlib (OpenSSL) instead.
REFUSE_SHA = """
import sys
from importlib.abc import MetaPathFinder
refused = []
class Refuse(MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name in ('_sha256', '_sha2'):
            refused.append(name)
            raise ImportError('refused: ' + name)
sys.meta_path.insert(0, Refuse())
"""


def test_cli_output_digests_through_hashlib(tmp_path):
    # SHA-256 is one function on every route: the config hashes in the file
    # names, the outputs and the library's file name all stay the same
    runs = []
    for config in sorted(GOLDEN):
        cfg, out = str(CONFIGS / config), str(tmp_path / config)
        runs += [f"assert main({argv + ['--out', out]!r}) == {code}"
                 for argv, code in (
                     (["iterate", "--config", cfg], 0),
                     (["bound", "--config", cfg, "--n", "1000", "--eps",
                       "0.1"], 0),
                     (["confidence", "--config", cfg], CONFIDENCE_EXIT[config]),
                     (["montecarlo", "--config", cfg, "--replicas", "200"],
                      0))]
    code = "\n".join([
        REFUSE_SHA, "import os", "from stochmann import schemes",
        "from stochmann.cli import main", *runs,
        "lib = schemes.tile_library()",
        "print(sorted(set(refused)), '_hashlib' in sys.modules,",
        "      lib and os.path.basename(lib._name))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    lib = tile_library()
    assert proc.stdout.splitlines()[-1] == (
        f"['_sha2', '_sha256'] True {lib and Path(lib._name).name}")
    for config in sorted(GOLDEN):
        assert digests(tmp_path / config) == GOLDEN[config], config


def test_help_screens_digest(monkeypatch):
    # argparse wraps to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    screens = {"": parser.format_help(),
               **{name: p.format_help() for name, p in sub.choices.items()}}
    assert {name: sha256(text.encode()) for name, text in screens.items()} \
        == HELP_SHA256


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_iterates_digest(case):
    cfg = RUN_CASES[case]()
    assert TILE_ELEMENTS < RUN_HORIZON
    iterates = run(cfg).iterates
    assert sha256(iterates.astype("<f8").tobytes()) == RUN_SHA256[case]


def split_pools(cfg, k):
    """The thread pools of one replica_errors call on cfg under cores(k):
    none on one core, or where cfg steps in numpy, else one of k - 1."""
    return [k - 1] if k > 1 and tile_kernel(cfg) is not None else []


def replica_errors_digests(cfg, cores):
    """sha256 of 200 replicas' errors on the serial pass and on 2 cores,
    split over 2 threads wherever the compiled tile steps."""
    out = []
    for k in (1, 2):
        pools = cores(k)
        errs = replica_errors(cfg, reference_fixed_point(cfg.map_spec),
                              replica_seeds(42, 200), (10, 100, 300))
        assert pools == split_pools(cfg, k), k
        out.append(sha256(errs.astype("<f8").tobytes()))
    return out


def test_replica_errors_digest(cores):
    # 200 replicas draw 81-step tiles, so the 300 steps cross 3 boundaries;
    # a chunk of 100 draws 163-step tiles and crosses 1
    cfg = scheme(inverse_quadratic(), [0.5], gaussian(2.0), horizon=300)
    assert TILE_ELEMENTS // 200 < cfg.horizon
    assert replica_errors_digests(cfg, cores) == [REPLICA_ERRORS_SHA256] * 2


def test_replica_errors_d8_digest(cores):
    # 200 replicas at d = 8 draw 10-step tiles: the 300 steps cross 29
    cfg = scheme(affine_nd(8), np.linspace(2.0, -2.0, 8), gaussian(0.5, dim=8),
                 horizon=300)
    assert TILE_ELEMENTS // (200 * 8) < cfg.horizon // 3
    assert replica_errors_digests(cfg, cores) \
        == [REPLICA_ERRORS_D8_SHA256] * 2
