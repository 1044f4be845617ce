"""Checks on the CSV files one entroflux run leaves behind.

A run is compared with a reference made by a 1-worker run of the same
workload and seed, so a run on more workers also checks that the result
does not depend on the worker count.  ``ensemble.csv`` and every
``trajectory_*.csv`` must match byte for byte.  Of ``bound_report.csv``
only the columns named in ``BOUND_COLUMNS`` must match, selected by
header name, so a changed ``lhs_se`` or an added column is no mismatch;
``violation`` must still be all 0, and ``lhs_se`` finite, not negative,
and positive wherever ``lhs_rate`` is resolvable (see ``RESOLVABLE_RATE``).
"""

from __future__ import annotations

import hashlib
import math
import os

BOUND_REPORT = "bound_report.csv"
BOUND_COLUMNS = ("t", "lhs_rate", "rhs_bound", "sufficient")
# Once every trajectory has purified, the per-trajectory entropies fall
# below sqrt(smallest normal double) ~ 1.5e-154, their squares underflow,
# and the sum-of-squares standard error is 0 in double precision; where
# they are all exactly 0 it is 0 exactly.  A rate that small comes only
# from entropies that small, so ``lhs_se`` must be positive only where
# |lhs_rate| exceeds this (with a margin of 1e4 over the underflow scale).
RESOLVABLE_RATE = 1e-150


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty file")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    if name not in header:
        raise ValueError(f"no column {name!r}")
    k = header.index(name)
    if any(len(row) != len(header) for row in rows):
        raise ValueError("a row has the wrong number of cells")
    return [row[k] for row in rows]


def digest_file(path: str) -> str:
    """SHA-256 of the part of an output file that the reference pins."""
    if os.path.basename(path) != BOUND_REPORT:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    header, rows = _read_table(path)
    columns = [_column(header, rows, name) for name in BOUND_COLUMNS]
    text = "\n".join(",".join(cells) for cells in zip(*columns))
    return hashlib.sha256(",".join(BOUND_COLUMNS).encode() + b"\n" + text.encode()).hexdigest()


def digest_outputs(out_dir: str) -> dict[str, str]:
    """Digest of every CSV file in ``out_dir``, by file name."""
    return {
        name: digest_file(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if name.endswith(".csv")
    }


def reference_digests(out_dir: str, expected: list[str]) -> dict[str, str] | None:
    """Digests of a run's outputs to pin later runs to, or None if unusable.

    Usable means readable and exactly the expected files.  A failed fixed
    property (``lhs_se``, ``violation``) does not make a reference
    unusable: it is checked on every run anyway.
    """
    try:
        digests = digest_outputs(out_dir)
    except (OSError, ValueError):
        return None
    return digests if sorted(digests) == sorted(expected) else None


def check_bound_report(path: str) -> list[str]:
    """Problems with a bound report that hold whatever the reference."""
    header, rows = _read_table(path)
    problems = []
    if not rows:
        problems.append(f"{BOUND_REPORT}: no rows")
    if any(cell != "0" for cell in _column(header, rows, "violation")):
        problems.append(f"{BOUND_REPORT}: violation flagged")
    for rate, cell in zip(_column(header, rows, "lhs_rate"), _column(header, rows, "lhs_se")):
        value = float(cell)
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"{BOUND_REPORT}: lhs_se {cell} is not finite and non-negative")
            break
        if value == 0.0 and abs(float(rate)) > RESOLVABLE_RATE:
            problems.append(f"{BOUND_REPORT}: lhs_se 0 where lhs_rate is {rate}")
            break
    return problems


def check_outputs(out_dir: str, expected: list[str], reference: dict[str, str] | None) -> list[str]:
    """Every problem with one run's output directory; empty when it is correct.

    ``expected`` lists the files the run must write; ``reference`` maps
    file names to digests, or is None when the run is itself the reference.
    """
    try:
        digests = digest_outputs(out_dir)
        problems = [f"{name}: missing" for name in expected if name not in digests]
        problems += [f"{name}: not expected" for name in digests if name not in expected]
        if reference is not None:
            problems += [
                f"{name}: differs from the reference"
                for name in expected
                if name in digests and digests[name] != reference.get(name)
            ]
        if BOUND_REPORT in digests:
            problems += check_bound_report(os.path.join(out_dir, BOUND_REPORT))
    except (OSError, ValueError) as err:
        problems = [f"unreadable output: {err}"]
    return problems
