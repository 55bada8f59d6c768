"""Deterministic CSV with a schema-version header line.

Every file starts with ``# etau-csv <kind> <version>`` followed by a
column header row.  Floats are written with ``repr`` so equal inputs
produce byte-identical files; booleans become ``true``/``false``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import UsageError

_PREFIX = "# etau-csv"


def format_value(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_table(
    path,
    kind: str,
    version: int,
    columns: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    lines = [f"{_PREFIX} {kind} {version}", ",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise UsageError(
                f"row has {len(row)} fields, expected {len(columns)}: {row!r}"
            )
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ascii_lines(path) -> list[str]:
    """Lines of an ASCII text file; other bytes raise :class:`UsageError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = []
    for lineno, raw in enumerate(data.splitlines(), 1):
        try:
            lines.append(raw.decode("ascii"))
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path}:{lineno}: non-ASCII byte in {raw!r}") from exc
    return lines


def _read_numbered(path, expected_kind: str | None):
    # read_table's work, with each row's line number kept for messages
    lines = read_ascii_lines(path)
    if not lines or not lines[0].startswith(_PREFIX):
        raise UsageError(f"{path}: missing '{_PREFIX}' schema header line")
    parts = lines[0][len(_PREFIX) :].split()
    if len(parts) != 2:
        raise UsageError(f"{path}: malformed schema header {lines[0]!r}")
    kind = parts[0]
    try:
        version = int(parts[1])
    except ValueError as exc:
        raise UsageError(f"{path}:1: schema version {parts[1]!r} is not an integer") from exc
    if expected_kind is not None and kind != expected_kind:
        raise UsageError(f"{path}: expected a {expected_kind!r} file, found {kind!r}")
    if len(lines) < 2:
        raise UsageError(f"{path}: missing column header row")
    columns = lines[1].split(",")
    rows = [(lineno, ln.split(",")) for lineno, ln in enumerate(lines[2:], 3) if ln]
    for lineno, row in rows:
        if len(row) != len(columns):
            raise UsageError(f"{path}:{lineno}: row width mismatch: {row!r}")
    return kind, version, columns, rows


def read_table(path, expected_kind: str | None = None):
    """Read a schema-versioned table; returns (kind, version, columns, rows)."""
    kind, version, columns, rows = _read_numbered(path, expected_kind)
    return kind, version, columns, [row for _, row in rows]


CURVE_COLUMNS = ("component_id", "sample_index", "theta", "t")


def write_curve_components(path, components: Iterable[tuple]) -> None:
    """Write loops as (component_id, sample_index, theta, t) records."""
    rows = []
    for cid, (thetas, ts) in enumerate(components):
        for idx, (th, t) in enumerate(zip(thetas, ts)):
            rows.append((cid, idx, float(th), float(t)))
    write_table(path, "curves", 1, CURVE_COLUMNS, rows)


def read_curve_components(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read loops back as (theta array, t array) pairs, ordered by component."""
    _, _, columns, rows = _read_numbered(path, "curves")
    if tuple(columns) != CURVE_COLUMNS:
        raise UsageError(f"{path}: expected columns {CURVE_COLUMNS}, found {columns}")
    by_comp: dict[int, list[tuple[int, float, float]]] = {}
    for lineno, row in rows:
        try:
            cid, idx, th, t = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: non-numeric field in {','.join(row)!r}") from exc
        by_comp.setdefault(cid, []).append((idx, th, t))
    out = []
    for cid in sorted(by_comp):
        recs = by_comp[cid]
        order = [r[0] for r in recs]
        if order != sorted(order) or len(set(order)) != len(order):
            raise UsageError(
                f"{path}: sample_index must be strictly increasing per component"
            )
        out.append(
            (
                np.array([r[1] for r in recs]),
                np.array([r[2] for r in recs]),
            )
        )
    return out
