"""Tabular data ingestion and preparation.

Everything is parsed as float64, ordinal and categorical codes included.
Datasets are immutable after load and safe to share across threads.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyAfterFiltering,
    EmptyDataset,
    InvalidConfig,
    InvalidPredicate,
    MissingColumn,
    ParseError,
)
from .exprcore import format_constant

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

    def to_csv(self, path) -> None:
        """Write all columns; floats rendered via repr so reloads round-trip."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.names)
            for row in zip(*(col.tolist() for col in self.columns.values())):
                writer.writerow([format_constant(value) for value in row])


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


def load_csv(path, role_config: RoleConfig, missing_policy: str = "drop_row") -> Dataset:
    """Read the selected columns of a headered CSV as float64.

    Unparseable or non-finite cells count as missing. drop_row discards the
    affected rows (reported via logging); fail raises ParseError at the first
    offender.
    """
    if missing_policy not in ("drop_row", "fail"):
        raise InvalidConfig(f"unknown missing_policy {missing_policy!r}")

    wanted = role_config.selected
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        positions = {}
        for name in wanted:
            if name not in header:
                raise MissingColumn(name)
            positions[name] = header.index(name)

        kept: list[list[float]] = []
        dropped = 0
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            parsed: list[float] = []
            bad: tuple[str, str] | None = None
            for name in wanted:
                pos = positions[name]
                text = row[pos].strip() if pos < len(row) else ""
                try:
                    value = float(text)
                except ValueError:
                    bad = (name, text)
                    break
                if not math.isfinite(value):
                    bad = (name, text)
                    break
                parsed.append(value)
            if bad is not None:
                if missing_policy == "fail":
                    raise ParseError(row_num, bad[0], bad[1])
                dropped += 1
                continue
            kept.append(parsed)

    if dropped:
        log.warning("%s: dropped %d row(s) with missing or unparseable cells", path, dropped)
    if not kept:
        raise EmptyAfterFiltering(
            f"{path}: no usable rows for columns {', '.join(wanted)}"
        )
    log.info("%s: loaded %d row(s), %d column(s)", path, len(kept), len(wanted))

    matrix = np.asarray(kept, dtype=np.float64)
    return Dataset({name: matrix[:, i] for i, name in enumerate(wanted)})


_COMPARATORS = {
    "==": lambda col, v: col == v,
    "<=": lambda col, v: col <= v,
    ">=": lambda col, v: col >= v,
}


def filter_rows(data: Dataset, predicate_spec: Sequence) -> Dataset:
    """Keep rows satisfying every clause of an AND-combined predicate list.

    Each clause is [name, op, value] with op one of ==, <=, >=, or range;
    range takes [lo, hi] and keeps lo <= value <= hi. An empty spec keeps
    everything.
    """
    if not isinstance(predicate_spec, (list, tuple)):
        raise InvalidPredicate(f"a filter is a list of clauses, got {predicate_spec!r}")
    mask = np.ones(data.n_rows, dtype=bool)
    for clause in predicate_spec:
        try:
            name, op, value = clause
        except (TypeError, ValueError):
            raise InvalidPredicate(f"clause must be [name, op, value]: {clause!r}") from None
        col = data.column(str(name))
        if op not in ("range", *_COMPARATORS):
            raise InvalidPredicate(f"unknown comparison {op!r}")
        try:
            lo, hi = map(float, value) if op == "range" else (float(value),) * 2
        except (TypeError, ValueError, OverflowError):
            raise InvalidPredicate(f"{op} needs a number, or [lo, hi] for range: {clause!r}") from None
        mask &= (col >= lo) & (col <= hi) if op == "range" else _COMPARATORS[op](col, lo)
    return Dataset({name: col[mask] for name, col in data.columns.items()})
