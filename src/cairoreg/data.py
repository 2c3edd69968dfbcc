"""Datasets, deterministic randomness, splitting, standardization, file I/O.

A Dataset bundles a feature matrix with its target vector and, for
synthetic data, the true conditional mean of each row. All arrays are
float64 and frozen after construction so datasets can be shared freely.

The JSON codec for dataclasses, which the CLI options, bench results and
model bundles share, is here too: config_to_dict and config_from_dict.
"""

from __future__ import annotations

import contextlib
import csv
import typing
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import MISSING, asdict, dataclass, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

TARGET_COLUMN = "__target"
TRUE_MEAN_COLUMN = "__true_mean"


class DataError(ValueError):
    pass


def _table(cls) -> dict[str, tuple[type, object]]:
    """Fields of a dataclass: field name -> (type, default)."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default if f.default_factory is MISSING else f.default_factory())
        for f in fields(cls)
    }


def _plain(value):
    """value as JSON holds it: an enum member as its value, a tuple or an array as a list."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def config_to_dict(cfg) -> dict:
    """JSON-ready fields of a dataclass, in field order."""
    return {key: _plain(value) for key, value in asdict(cfg).items()}


def _coerce(key: str, kind, value):
    """value as the type kind; a value that does not fit raises DataError naming key.

    A JSON boolean is never a number, a str takes only text, an np.ndarray is
    read from a list of finite numbers, and a tuple from a list.
    """
    if kind is np.ndarray:
        if isinstance(value, list) and all(type(v) in (int, float) for v in value):
            with contextlib.suppress(OverflowError):  # an integer beyond float64's range
                array = np.array(value, dtype=np.float64)
                if np.isfinite(array).all():
                    return array
        raise DataError(f"{key} must be a list of finite numbers")
    wanted = {bool: "true or false", int: "an integer", float: "a number", str: "text"}.get(kind)
    if wanted and (
        value is None
        or isinstance(value, bool) != (kind is bool)
        or (kind is str and not isinstance(value, str))
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        raise DataError(f"{key} must be {wanted}, got {value!r}")
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise DataError(f"{key} must be a list, got {value!r}")
        return tuple(_coerce(key, typing.get_args(kind)[0], v) for v in value)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{key}: {exc}") from None


def config_from_dict(cls, obj, path: str):
    """Inverse of config_to_dict for the JSON object at the dotted path; other keys are ignored."""
    if not isinstance(obj, dict):
        raise DataError(f"{path} must be an object, got {type(obj).__name__}")
    values = {
        key: _coerce(f"{path}.{key}", kind, obj.get(key)) for key, (kind, _) in _table(cls).items()
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Counter-based generator for a 64-bit seed or a SeedSequence; the only RNG entry point.

    Every stochastic operation takes one of these explicitly. Parallel
    repetitions fork by constructing a fresh generator from a derived seed.
    """
    return np.random.Generator(np.random.Philox(seed))


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d) with targets, optional true conditional mean and column names.

    A Dataset is one frozen value: its arrays are read-only float64 copies
    and feature_names is a tuple of d distinct texts, x1 ... xd by default,
    built from any sequence but a text. No name may be "__true_mean", which
    write_csv reserves. Derived datasets come from dataclasses.replace,
    which checks them again. Split outputs may hold a single row; bulk
    ingestion requires n >= 2.
    """

    features: np.ndarray
    targets: np.ndarray
    true_mean: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        X = _freeze(np.atleast_2d(self.features))
        y = _freeze(self.targets)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        if X.ndim != 2 or y.ndim != 1:
            raise DataError("features must be 2-d and targets 1-d")
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"row mismatch: {X.shape[0]} feature rows, {y.shape[0]} targets"
            )
        if X.shape[0] < 1:
            raise DataError("dataset needs at least one row")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise DataError("non-finite value in dataset")
        if self.true_mean is not None:
            m = _freeze(self.true_mean)
            if m.shape != y.shape:
                raise DataError("true_mean length must match targets")
            if not np.all(np.isfinite(m)):
                raise DataError("non-finite value in true_mean")
            object.__setattr__(self, "true_mean", m)
        names = tuple(self.feature_names) or tuple(f"x{j + 1}" for j in range(self.d))
        texts = not isinstance(self.feature_names, str) and all(isinstance(c, str) for c in names)
        if not (texts and len(set(names)) == len(names) == self.d) or TRUE_MEAN_COLUMN in names:
            raise DataError(
                f"feature_names must be {self.d} distinct texts, none {TRUE_MEAN_COLUMN!r},"
                f" in a sequence that is not itself a text: {names}"
            )
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset preserving true_mean when present."""
        m = None if self.true_mean is None else self.true_mean[idx]
        return replace(self, features=self.features[idx], targets=self.targets[idx], true_mean=m)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded random partition into train/test; both parts nonempty."""
    n_train = int(np.floor(spec.train_fraction * ds.n))
    n_test = ds.n - n_train
    if n_train < 1 or n_test < 1:
        raise DataError(
            f"degenerate split: {n_train} train / {n_test} test rows from n={ds.n}"
        )
    perm = make_rng(spec.seed).permutation(ds.n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine map to zero mean, unit spread.

    Zero-variance columns get stddev 1, so constants standardize to 0.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape:
            raise DataError(f"standardizer lengths {self.mean.shape}, {self.std.shape} differ")
        if not (np.isfinite(self.mean).all() and np.all(np.isfinite(self.std) & (self.std > 0))):
            raise DataError("standardizer needs finite means and finite stds > 0")

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


def fit_standardizer(ds: Dataset) -> Standardizer:
    if ds.n < 2:
        raise DataError("standardizer needs at least 2 rows")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return Standardizer(mean=_freeze(mean), std=_freeze(std))


def apply_standardizer(st: Standardizer, ds: Dataset) -> Dataset:
    return replace(ds, features=st.transform(ds.features))


def _duplicates(names: Sequence[str]) -> list[str]:
    return [name for name, count in Counter(names).items() if count > 1]


def _cells(rows: Iterator[list[str]], header: list[str]) -> Iterator[float]:
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i} has {len(row)} cells, expected {len(header)}")
        for name, cell in zip(header, row):
            try:
                yield float(cell)
            except ValueError:
                raise DataError(f"non-numeric cell {cell!r} at row {i}, column {name!r}") from None


def _undecodable(path: Path) -> str:
    """The line and column of the first byte of path that is not UTF-8, and why.

    The text layer decodes in chunks, so a decode error gives no line. No
    UTF-8 multibyte sequence holds a line-break byte, so decoding line by
    line finds the same byte.
    """
    for number, line in enumerate(path.read_bytes().splitlines(), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            column, byte = exc.start + 1, line[exc.start]
            return f"line {number}, column {column}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})"
    return "a byte that is not UTF-8"  # the file changed after the failed read


def read_numeric_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Parse a fully numeric CSV with a header row into (column names, float64 matrix).

    One pass reads the file, holding no list of its rows. A non-numeric cell, a
    missing or non-finite value and a repeated column name are hard errors; the
    messages count data rows from 0 after the header, skipping blank lines. A
    file that is not UTF-8 fails naming the line and column of its first bad
    byte, and one that csv cannot parse naming the line the reader stopped at.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        try:
            header = next(rows, None)
            if header is None:
                raise DataError(f"empty CSV: {path}")
            duplicated = _duplicates(header)
            if duplicated:
                raise DataError(f"duplicate column names {duplicated} in {path}")
            parsed = np.fromiter(_cells(rows, header), np.float64).reshape(-1, len(header))
        except UnicodeDecodeError:
            raise DataError(f"cannot read {path}, stopped at {_undecodable(path)}") from None
        except csv.Error as exc:
            raise DataError(
                f"cannot read {path}, stopped at line {reader.line_num}: {exc}"
            ) from None
    finite = np.isfinite(parsed).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite value at row {int(np.argmin(finite))}")
    return header, parsed


def select_columns(header: Sequence[str], matrix: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """The columns of matrix that header names, in the order of names.

    header must hold the same names in any order; DataError lists the
    names it lacks and the columns it has beyond them.
    """
    missing = [c for c in names if c not in header]
    unexpected = [c for c in header if c not in names]
    if missing or unexpected:
        raise DataError(
            f"feature columns differ from the model's: missing {missing}, unexpected {unexpected}"
        )
    idx = [header.index(c) for c in names]
    return matrix if idx == list(range(matrix.shape[1])) else matrix[:, idx]


def feature_columns(header: list[str], target_column: str) -> list[int]:
    """Indices of the feature columns: every column but the target and "__true_mean"."""
    return [j for j, name in enumerate(header) if name not in (target_column, TRUE_MEAN_COLUMN)]


def load_csv(path: str | Path, target_column: str = TARGET_COLUMN) -> Dataset:
    """Load a numeric CSV into a Dataset.

    The target column is required; a "__true_mean" column, when present,
    is loaded as the true conditional mean.
    """
    header, parsed = read_numeric_csv(path)
    if target_column not in header:
        raise DataError(f"missing target column {target_column!r} in {path}")
    if parsed.shape[0] < 2:
        raise DataError(f"fewer than 2 data rows in {path}")

    t_idx = header.index(target_column)
    m_idx = header.index(TRUE_MEAN_COLUMN) if TRUE_MEAN_COLUMN in header else None
    feat_idx = feature_columns(header, target_column)
    return Dataset(
        features=parsed[:, feat_idx],
        targets=parsed[:, t_idx],
        true_mean=None if m_idx is None else parsed[:, m_idx],
        feature_names=[header[j] for j in feat_idx],
    )


# Rows formatted at a time by write_numeric_csv: its Python floats and lines
# for this many rows are all it holds beyond the columns.
WRITE_BLOCK_ROWS = 8192


def write_numeric_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length float columns under a header row of distinct names.

    Cells carry 17 significant digits, so every float64 reads back exactly.
    A repeated name raises DataError before the file is opened.
    """
    duplicated = _duplicates(header)
    if duplicated:
        raise DataError(f"duplicate column names {duplicated} for {path}")
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    line = ",".join(["%.17g"] * len(arrays)) + "\r\n"
    n = min((a.shape[0] for a in arrays), default=0)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for r0 in range(0, n, WRITE_BLOCK_ROWS):
            block = zip(*(a[r0 : r0 + WRITE_BLOCK_ROWS].tolist() for a in arrays))
            fh.writelines(line % row for row in block)


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write features plus reserved "__target" / "__true_mean" columns."""
    header = [*ds.feature_names, TARGET_COLUMN]
    cols = [ds.features[:, j] for j in range(ds.d)] + [ds.targets]
    if ds.true_mean is not None:
        header.append(TRUE_MEAN_COLUMN)
        cols.append(ds.true_mean)
    write_numeric_csv(path, header, cols)
