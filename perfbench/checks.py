"""Correctness checks on the artifacts a timed iteration writes.

Each check returns a list of problems; an empty list means the artifact
passed. The benchmark counts an iteration with any problem as a failed
operation.
"""

from __future__ import annotations

import filecmp
import json
import os

# config.json records the absolute output directory, so it differs between
# two runs of the same command by design; every other output must not.
NOT_COMPARED = ("config.json",)


def check_metrics(path: str, rows: int, auc_floor: float) -> list[str]:
    """metrics.json holds ``rows`` (seed, fold) rows and a mean AUC at or
    above ``auc_floor``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        found = len(doc["rows"])
        auc = doc["aggregate"]["auc"]["mean"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable metrics ({exc!r})"]
    problems = []
    if found != rows:
        problems.append(f"{path}: {found} rows, expected {rows}")
    if not (isinstance(auc, (int, float)) and auc >= auc_floor):
        problems.append(f"{path}: mean AUC {auc!r} below floor {auc_floor}")
    return problems


def _files(root: str) -> set[str]:
    out = set()
    for directory, _, names in os.walk(root):
        for name in names:
            if name not in NOT_COMPARED:
                out.add(os.path.relpath(os.path.join(directory, name), root))
    return out


def diff_outputs(reference: str, candidate: str) -> list[str]:
    """Files that are missing, extra or not byte-identical in ``candidate``
    compared with ``reference``, skipping only ``NOT_COMPARED`` names."""
    ref, cand = _files(reference), _files(candidate)
    problems = [f"missing {p}" for p in sorted(ref - cand)]
    problems += [f"unexpected {p}" for p in sorted(cand - ref)]
    for p in sorted(ref & cand):
        if not filecmp.cmp(os.path.join(reference, p), os.path.join(candidate, p),
                           shallow=False):
            problems.append(f"{p} differs from the first iteration")
    return problems
