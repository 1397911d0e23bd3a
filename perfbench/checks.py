"""Output checks and digests for one operation.

Simulation outputs (the montecarlo p_hat columns, the confidence centre) are
pinned by digest. Certificate-derived fields are checked by invariants
instead, so a deliberate certificate fix is not read as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from stochmann.bounds import BoundParams, tail_bound


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def files_digest(out_dir):
    """sha256 over every output file of one command, names included."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def p_hat_digest(rows):
    """Digest of the (n, eps, p_hat) columns, as the CLI's CSV writes them."""
    return sha256("".join(f"{n},{eps},{p_hat}\n" for n, eps, p_hat in rows))


def center_digest(center):
    return sha256(",".join(format(float(v), ".17g") for v in center))


def _only(out_dir, suffix):
    found = sorted(Path(out_dir).glob(f"*{suffix}"))
    if len(found) != 1:
        raise ValueError(f"expected one {suffix} output, found {len(found)}")
    return found[0]


def check_montecarlo(out_dir, replicas):
    """Errors (empty when the output is right) and the p_hat digest."""
    errors = []
    payload = json.loads(_only(out_dir, ".json").read_text(encoding="utf-8"))
    with open(_only(out_dir, ".csv"), encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    header, rows = table[0], table[1:]
    col = {name: j for j, name in enumerate(header)}
    if payload.get("verdict") != "pass":
        errors.append(f"verdict {payload.get('verdict')!r}, expected 'pass'")
    if payload.get("replicas") != replicas:
        errors.append(f"replicas {payload.get('replicas')} != {replicas}")
    if payload.get("cells") != len(rows) or not rows:
        errors.append(f"cells {payload.get('cells')} != {len(rows)} CSV rows")
    for row in rows:
        lo, p, hi = (float(row[col[k]]) for k in ("ci_low", "p_hat", "ci_high"))
        if not 0.0 <= lo <= p <= hi <= 1.0:
            errors.append(f"row n={row[col['n']]} eps={row[col['eps']]}: "
                          f"need 0 <= {lo} <= {p} <= {hi} <= 1")
    digest = p_hat_digest((row[col["n"]], row[col["eps"]], row[col["p_hat"]])
                          for row in rows)
    informative = sum(1 for row in rows if float(row[col["bound_clipped"]]) < 1.0)
    return errors, {"sim_digest": digest, "cells": len(rows),
                    "informative_cells": informative}


def check_confidence_certificate(n_alpha, eps, alpha, params):
    """n_alpha >= 1, the bound at n_alpha is <= alpha, and n_alpha is minimal."""
    if n_alpha is None or n_alpha < 1:
        return [f"n_alpha {n_alpha!r} is not an integer >= 1"]
    errors = []
    at = tail_bound(n_alpha, eps, params).clipped_bound
    if not at <= alpha:
        errors.append(f"bound {at} at n_alpha={n_alpha} exceeds alpha {alpha}")
    if n_alpha > 1:
        before = tail_bound(n_alpha - 1, eps, params).clipped_bound
        if not before > alpha:
            errors.append(f"n_alpha={n_alpha} is not minimal: bound at "
                          f"{n_alpha - 1} is {before} <= alpha {alpha}")
    return errors


def check_confidence(out_dir):
    payload = json.loads(_only(out_dir, ".json").read_text(encoding="utf-8"))
    n_alpha = payload.get("n_alpha")
    errors = check_confidence_certificate(
        n_alpha, payload["eps"], payload["alpha"],
        BoundParams(**payload["params"]))
    return errors, {"sim_digest": center_digest(payload["center"]),
                    "n_alpha": n_alpha}


def check_certificate(cert):
    """Invariants of one certify_sweep certificate."""
    params = BoundParams(**cert["params"])
    errors = []
    for (eps, alpha), n_alpha in cert["n_alpha"].items():
        errors += check_confidence_certificate(n_alpha, eps, alpha, params)
    for (n, eps), bound in cert["tail"].items():
        if not 0.0 <= bound <= 1.0:
            errors.append(f"tail bound {bound} at n={n}, eps={eps} outside [0, 1]")
    if not cert["eps0"] > 0.0:
        errors.append(f"canonical eps0 {cert['eps0']} is not positive")
    for k, trials, (lo, hi) in cert["cp"]:
        if not 0.0 <= lo <= k / trials <= hi <= 1.0:
            errors.append(f"Clopper-Pearson ({k}/{trials}): need 0 <= {lo} "
                          f"<= {k / trials} <= {hi} <= 1")
    return errors
