"""Checks on the CSVs the workloads write.

A CSV passes when it has the right header and rows and

* it equals the reference recorded for its seed byte for byte, or else
  every column lies within tolerance of the reference: ``EXACT_RTOL``
  relative for the exact, Monte-Carlo and closed-form bound columns, and
  ``QUAD_ATOL_FACTOR * quad_tol`` absolute for the columns computed by
  adaptive quadrature.  Bytes alone are too strict: the BLAS thread count
  moves ``sig_m`` by a few 1e-13 relative;
* every bound column is at least the exact column.  For learning curves
  the exact column is a Monte-Carlo estimate, so the rule is criterion
  07's ``y_exact <= bound + 3 se`` with ``se`` from the runner's table.

A seed without a reference of its own is still compared on the columns
that do not depend on the seed: a learning curve's bounds are functions of
N and the kernel alone, so any seed's reference pins them.
"""

from __future__ import annotations

import math

VARIANCE_HEADER = ("idx", "sig_m", "sig_bm", "sig_bm_gen")
CURVE_HEADER = ("idx", "y_exact", "y_bound", "yE1", "yE2")

EXACT_RTOL = 1e-9
QUAD_ATOL_FACTOR = 10.0

# header -> (exact column, bound columns, quadrature columns)
_LAYOUT = {
    VARIANCE_HEADER: ("sig_m", ("sig_bm", "sig_bm_gen"), ()),
    CURVE_HEADER: ("y_exact", ("y_bound", "yE1", "yE2"),
                   ("y_bound", "yE1", "yE2")),
}
# header -> columns whose values do not depend on the seed
_SEED_FREE = {VARIANCE_HEADER: (), CURVE_HEADER: ("y_bound", "yE1", "yE2")}
# the bound that bound_ratio reports, per header
_RATIO_COLUMN = {VARIANCE_HEADER: "sig_bm_gen", CURVE_HEADER: "y_bound"}


class CsvError(ValueError):
    """The text is not a CSV of a known layout."""


def parse_csv(text: str) -> tuple[tuple[str, ...], list[dict]]:
    lines = text.splitlines()
    if not lines:
        raise CsvError("empty CSV")
    header = tuple(lines[0].split(","))
    if header not in _LAYOUT:
        raise CsvError(f"unknown header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CsvError(f"line {lineno}: {len(cells)} cells, expected {len(header)}")
        try:
            rows.append(dict(zip(header, map(float, cells))))
        except ValueError:
            raise CsvError(f"line {lineno}: not a number in {line!r}") from None
    if not rows:
        raise CsvError("CSV has no rows")
    return header, rows


def _close(a: float, b: float, atol: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def compare(text: str, reference: str, quad_tol: float,
            same_seed: bool = True) -> list[str]:
    """Problems with ``text`` against a reference CSV: in every column when
    the reference is of the same seed, else in the seed-free columns."""
    if text == reference:
        return []
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header:
        return [f"header {header} differs from the reference {ref_header}"]
    if [r["idx"] for r in rows] != [r["idx"] for r in ref_rows]:
        return ["the idx column differs from the reference"]
    quad_cols = _LAYOUT[header][2]
    columns = header[1:] if same_seed else _SEED_FREE[header]
    problems = []
    for row, ref in zip(rows, ref_rows):
        for col in columns:
            atol, rtol = ((QUAD_ATOL_FACTOR * quad_tol, 0.0) if col in quad_cols
                          else (0.0, EXACT_RTOL))
            if not _close(row[col], ref[col], atol, rtol):
                problems.append(f"idx {row['idx']:g}: {col} = {row[col]!r}, "
                                f"reference {ref[col]!r}")
    return problems


def dominance(text: str, se: list[float] | None = None) -> list[str]:
    """Problems where a bound column lies below the exact column.  ``se``
    gives the Monte-Carlo standard error of each row of a learning curve."""
    header, rows = parse_csv(text)
    exact_col, bound_cols, _ = _LAYOUT[header]
    if header == CURVE_HEADER and (se is None or len(se) != len(rows)):
        raise CsvError("a learning curve needs one standard error per row")
    problems = []
    for i, row in enumerate(rows):
        slack = 3.0 * se[i] if header == CURVE_HEADER else 0.0
        for col in bound_cols:
            if math.isnan(row[col]) and header == VARIANCE_HEADER and col == "sig_bm":
                continue            # kernels without the isotropic bound
            if not row[exact_col] <= row[col] + slack:
                problems.append(f"idx {row['idx']:g}: {col} = {row[col]!r} is "
                                f"below {exact_col} = {row[exact_col]!r}")
    return problems


def check_output(text: str, reference: str | None, quad_tol: float,
                 se: list[float] | None = None, same_seed: bool = True) -> list[str]:
    """Every problem found in one CSV; an empty list means it passes.
    ``same_seed`` says whether ``reference`` was recorded with the seed of
    ``text`` or with another one."""
    try:
        problems = dominance(text, se)
        if reference is not None:
            problems += compare(text, reference, quad_tol, same_seed)
    except CsvError as exc:
        return [str(exc)]
    return problems


def bound_ratio(text: str) -> float:
    """Mean over rows of the reported bound divided by the exact value."""
    header, rows = parse_csv(text)
    exact_col = _LAYOUT[header][0]
    col = _RATIO_COLUMN[header]
    return sum(r[col] / r[exact_col] for r in rows) / len(rows)
