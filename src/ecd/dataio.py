"""Tabular data ingestion and preparation.

Everything is parsed as float64, ordinal and categorical codes included.
Datasets are immutable after load and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    EcdError,
    EmptyAfterFiltering,
    EmptyDataset,
    InvalidConfig,
    InvalidPredicate,
    MissingColumn,
    ParseError,
)
from .exprcore import divisor_masks, format_constant

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Dataset:
    """Columnar table of reals. Columns share one length; names are unique."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise EmptyDataset("dataset needs at least one column")
        lengths = set()
        frozen: dict[str, np.ndarray] = {}
        for name, values in self.columns.items():
            if not name:
                raise InvalidConfig("column names must be nonempty")
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise InvalidConfig(f"column {name!r} must be one-dimensional")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen[name] = arr
            lengths.add(arr.shape[0])
        if len(lengths) != 1:
            raise InvalidConfig(f"columns have unequal lengths: {sorted(lengths)}")
        object.__setattr__(self, "columns", frozen)

    @cached_property
    def divisor_masks(self) -> dict[int, np.ndarray | None]:
        """exprcore.divisor_masks of the columns, computed when first read."""
        return divisor_masks(self.columns)

    @property
    def n_rows(self) -> int:
        return next(iter(self.columns.values())).shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise MissingColumn(name) from None

    def to_csv(self) -> str:
        """All columns as CSV text, floats rendered via repr so reloads round-trip.
        Rows become Python floats a block at a time, so memory stays flat."""
        handle, step = io.StringIO(), 65536
        writer = csv.writer(handle)
        writer.writerow(self.names)
        for start in range(0, self.n_rows, step):
            block = (col[start:start + step].tolist() for col in self.columns.values())
            writer.writerows([format_constant(value) for value in row] for row in zip(*block))
        return handle.getvalue()


@dataclass(frozen=True)
class RoleConfig:
    """Assignment of dataset columns to modeling roles."""

    response: str
    predictors: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not self.response:
            raise InvalidConfig("response name must be nonempty")
        if not self.predictors:
            raise InvalidConfig("at least one predictor is required")
        if self.response in self.predictors:
            raise InvalidConfig(f"response {self.response!r} cannot also be a predictor")
        if len(set(self.predictors)) != len(self.predictors):
            raise InvalidConfig("predictor names must be unique")

    @property
    def selected(self) -> tuple[str, ...]:
        return self.predictors + (self.response,)


# The missing_policy values load_csv takes.
MISSING_POLICIES = ("drop_row", "fail")


def load_csv(path, role_config: RoleConfig, missing_policy: str = "drop_row") -> Dataset:
    """Read the selected columns of a headered CSV as float64.

    Unparseable or non-finite cells count as missing. drop_row discards the
    affected rows (reported via logging); fail raises ParseError at the first
    offender. A C pass (np.loadtxt) reads the body block by block; the first
    block it refuses, or in which it finds a non-finite cell, goes with the
    rest of the body to the row reader, and both parse a cell to the same
    double that float() gives.
    """
    if missing_policy not in MISSING_POLICIES:
        raise InvalidConfig(f"unknown missing_policy {missing_policy!r}")

    wanted = role_config.selected
    # utf-8-sig drops the byte order mark of Excel and many EHR exports.
    with open(path, "r", newline="", encoding="utf-8-sig") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise EmptyDataset(f"{path}: no header row") from None
        except csv.Error as exc:
            raise EcdError(f"{path}: row 1: {exc}") from None
        header = [h.strip() for h in header]
        positions = []
        for name in wanted:
            if name not in header:
                raise MissingColumn(name)
            if header.count(name) > 1:
                raise EcdError(f"{path}: column {name!r} appears more than once in the header")
            positions.append(header.index(name))
        matrix = _read_body(path, handle, wanted, positions, missing_policy)

    if not len(matrix):
        raise EmptyAfterFiltering(
            f"{path}: no usable rows for columns {', '.join(wanted)}"
        )
    log.info("%s: loaded %d row(s), %d column(s)", path, len(matrix), len(wanted))
    return Dataset({name: matrix[:, i] for i, name in enumerate(wanted)})


# Lines per C-pass block: at most one block is parsed by both readers, and
# one np.loadtxt call costs about as much as parsing 2 lines of 13 cells.
_BLOCK_LINES = 64


def _read_body(
    path, handle, wanted: Sequence[str], positions: list[int], missing_policy: str
) -> np.ndarray:
    """The selected cells of the body's rows, read in one streaming pass
    (the handle is never rewound, so a pipe works): the C pass takes blocks
    of lines while it can, and the row reader takes the rest from the first
    block the C pass cannot. A line the C pass takes is one record, as it
    holds no quote."""
    parts = []
    row_num = 2
    while True:
        block: list[str] = []
        rest = handle
        try:
            block.extend(itertools.islice(handle, _BLOCK_LINES))
        except UnicodeDecodeError as exc:
            # extend keeps the lines read before the error; the handle reads
            # nothing after it, so the row reader meets it after them.
            rest = _raising(exc)
        matrix = _c_pass(block, positions) if rest is handle else None
        if matrix is None:
            lines = itertools.chain(block, rest)
            parts.append(_read_rows(path, lines, row_num, wanted, positions, missing_policy))
            return np.concatenate(parts)
        parts.append(matrix)
        if len(block) < _BLOCK_LINES:
            return np.concatenate(parts)
        row_num += len(block)


def _raising(exc):
    """An iterator whose first step raises exc."""
    raise exc
    yield


def _c_pass(block: list[str], positions: list[int]) -> np.ndarray | None:
    """The block's selected cells as one np.loadtxt pass reads them, or None
    where the row reader might read the block otherwise: a line with a
    quote, which csv reads as quoting, or with a NUL or over
    csv.field_size_limit() characters, either of which csv may refuse; a
    block the pass refuses; a non-finite cell. A block of blank lines, on
    which loadtxt warns, holds no rows."""
    text = "".join(block)
    if '"' in text or "\0" in text or max(map(len, block), default=0) > csv.field_size_limit():
        return None
    if not text.strip():
        return np.empty((0, len(positions)))
    try:
        matrix = np.loadtxt(
            block, dtype=np.float64, delimiter=",", comments=None,
            quotechar=None, usecols=positions, ndmin=2,
        )
    except ValueError:
        return None
    return matrix if np.isfinite(matrix).all() else None


def _read_rows(
    path, lines, first_row: int, wanted: Sequence[str], positions: list[int],
    missing_policy: str,
) -> np.ndarray:
    """The row reader: the selected cells of each CSV record of lines (the
    first numbered first_row) with every cell finite, as a matrix."""
    kept: list[list[float]] = []
    dropped = 0
    row_num = first_row - 1
    try:
        for row_num, row in enumerate(csv.reader(lines), start=first_row):
            # float() skips the whitespace strip() would, so a row of finite
            # cells parses in one pass; any other row is blank or diagnosed.
            try:
                parsed = [float(row[pos]) for pos in positions]
                if all(map(math.isfinite, parsed)):
                    kept.append(parsed)
                    continue
            except (ValueError, IndexError):
                pass
            if not row or all(not cell.strip() for cell in row):
                continue
            for name, pos in zip(wanted, positions):
                text = row[pos].strip() if pos < len(row) else ""
                try:
                    if math.isfinite(float(text)):
                        continue
                except ValueError:
                    pass
                break
            if missing_policy == "fail":
                raise ParseError(row_num, name, text)
            dropped += 1
    except csv.Error as exc:
        # csv's own refusal of a record: a cell over csv.field_size_limit()
        raise EcdError(f"{path}: row {row_num + 1}: {exc}") from None

    if dropped:
        log.warning("%s: dropped %d row(s) with missing or unparseable cells", path, dropped)
    return np.asarray(kept, dtype=np.float64).reshape(-1, len(positions))


def _number(value) -> float:
    """A JSON number, an int or a float but not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def filter_clauses(predicate_spec, roles: RoleConfig | None = None) -> list[tuple[str, str, float, float]]:
    """The clauses of an AND-combined predicate list, each as (name, op, lo, hi),
    which keeps the rows whose name column lies in the closed interval [lo, hi].

    Each clause is [name, op, value]: name a nonempty string, op one of ==,
    <=, >=, or range, and value a number (an int or a float, not a bool):
    == v is [v, v], <= v is [-inf, v], >= v is [v, inf], and range takes
    [lo, hi], two numbers. An empty spec has no clauses. Given roles, each
    name must be the response or a predictor, as those are the columns
    load_csv reads.
    """
    if not isinstance(predicate_spec, (list, tuple)):
        raise InvalidPredicate(f"a filter is a list of clauses, got {predicate_spec!r}")
    clauses = []
    for clause in predicate_spec:
        try:
            name, op, value = clause
        except (TypeError, ValueError):
            raise InvalidPredicate(f"clause must be [name, op, value]: {clause!r}") from None
        if not isinstance(name, str) or not name:
            raise InvalidPredicate(f"clause name must be a nonempty string: {clause!r}")
        if roles is not None and name not in roles.selected:
            raise InvalidPredicate(f"filter column {name!r} is neither the response nor a predictor")
        if op not in ("==", "<=", ">=", "range"):
            raise InvalidPredicate(f"unknown comparison {op!r}")
        try:
            lo, hi = map(_number, value if op == "range" else (value, value))
        except (TypeError, ValueError, OverflowError):
            raise InvalidPredicate(f"{op} needs a number, or [lo, hi] for range: {clause!r}") from None
        clauses.append((name, op, -math.inf if op == "<=" else lo, math.inf if op == ">=" else hi))
    return clauses


def filter_rows(data: Dataset, predicate_spec: Sequence) -> Dataset:
    """Keep rows satisfying every clause of predicate_spec (see filter_clauses);
    an empty spec keeps everything."""
    mask = np.ones(data.n_rows, dtype=bool)
    for name, _, lo, hi in filter_clauses(predicate_spec):
        col = data.column(name)
        mask &= (col >= lo) & (col <= hi)
    return Dataset({name: col[mask] for name, col in data.columns.items()})
