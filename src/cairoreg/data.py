"""Datasets, deterministic randomness, splitting, standardization, CSV I/O.

A Dataset bundles a feature matrix with its target vector and, for
synthetic data, the true conditional mean of each row. All arrays are
float64 and frozen after construction so datasets can be shared freely.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TARGET_COLUMN = "__target"
TRUE_MEAN_COLUMN = "__true_mean"


class DataError(ValueError):
    pass


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a 64-bit seed; the only RNG entry point.

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
    """Feature matrix (n x d) with targets and optional true conditional mean.

    Split outputs may hold a single row; bulk ingestion requires n >= 2.
    """

    features: np.ndarray
    targets: np.ndarray
    true_mean: np.ndarray | None = None
    feature_names: list[str] = field(default_factory=list)

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
        if not self.feature_names:
            names = [f"x{j + 1}" for j in range(X.shape[1])]
            object.__setattr__(self, "feature_names", names)
        elif len(self.feature_names) != X.shape[1]:
            raise DataError("feature_names length must match column count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset preserving true_mean when present."""
        return Dataset(
            features=self.features[idx],
            targets=self.targets[idx],
            true_mean=None if self.true_mean is None else self.true_mean[idx],
            feature_names=list(self.feature_names),
        )


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie in (0, 1)")


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

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) * self.std + self.mean


def fit_standardizer(ds: Dataset) -> Standardizer:
    if ds.n < 2:
        raise DataError("standardizer needs at least 2 rows")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return Standardizer(mean=_freeze(mean), std=_freeze(std))


def apply_standardizer(st: Standardizer, ds: Dataset) -> Dataset:
    return Dataset(
        features=st.transform(ds.features),
        targets=ds.targets,
        true_mean=ds.true_mean,
        feature_names=list(ds.feature_names),
    )


def read_numeric_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Parse a fully numeric CSV with a header row into (column names, float64 matrix).

    Non-numeric cells and missing values are hard errors reported with row
    index and column name.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise DataError(f"empty CSV: {path}")
    header, body = rows[0], rows[1:]

    parsed = np.empty((len(body), len(header)), dtype=np.float64)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"row {i} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                parsed[i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric cell {cell!r} at row {i}, column {header[j]!r}"
                ) from None
        if not np.all(np.isfinite(parsed[i])):
            raise DataError(f"non-finite value at row {i}")
    return header, parsed


def select_columns(header: list[str], matrix: np.ndarray, names: Sequence[str]) -> np.ndarray:
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
    feat_idx = [j for j in range(len(header)) if j != t_idx and j != m_idx]
    return Dataset(
        features=parsed[:, feat_idx],
        targets=parsed[:, t_idx],
        true_mean=None if m_idx is None else parsed[:, m_idx],
        feature_names=[header[j] for j in feat_idx],
    )


def write_numeric_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length float columns under a header row.

    Cells carry 17 significant digits, so every float64 reads back exactly.
    """
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write features plus reserved "__target" / "__true_mean" columns."""
    header = list(ds.feature_names) + [TARGET_COLUMN]
    cols = [ds.features[:, j] for j in range(ds.d)] + [ds.targets]
    if ds.true_mean is not None:
        header.append(TRUE_MEAN_COLUMN)
        cols.append(ds.true_mean)
    write_numeric_csv(path, header, cols)
