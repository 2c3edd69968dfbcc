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
import io
import os
import shutil
import signal
import stat
import tempfile
import typing
import warnings
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import MISSING, asdict, dataclass, fields, replace
from enum import Enum
from itertools import chain
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


def split_sizes(n: int, train_fraction: float) -> tuple[int, int]:
    """The train and test row counts that split gives n rows at train_fraction."""
    n_train = int(np.floor(train_fraction * n))
    return n_train, n - n_train


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded random partition into train/test; both parts nonempty."""
    n_train, n_test = split_sizes(ds.n, spec.train_fraction)
    if n_train < 1 or n_test < 1:
        raise DataError(
            f"degenerate split: {n_train} train / {n_test} test rows from n={ds.n}"
        )
    perm = make_rng(spec.seed).permutation(ds.n)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


# Rows per chunk of the sums over rows that backward and column_moments take as
# BLAS products. OpenBLAS splits a product's sum over rows across its threads once
# there are enough rows, which changes the bits with the thread count; chunks of this
# many rows, summed in order, keep the bits the same for any thread count. At most this
# many rows are one product, as before chunking.
BATCH_CHUNK_ROWS = 1024


def _batch_sum(L: np.ndarray, R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """L.T @ R, summed over BATCH_CHUNK_ROWS-row chunks in order, into out if given.

    With L a vector of ones, the column sums of R, much faster than R.sum(axis=0),
    which runs one inner loop per row of R.
    """
    out = np.matmul(L[:BATCH_CHUNK_ROWS].T, R[:BATCH_CHUNK_ROWS], out=out)
    for r0 in range(BATCH_CHUNK_ROWS, R.shape[0], BATCH_CHUNK_ROWS):
        out += L[r0 : r0 + BATCH_CHUNK_ROWS].T @ R[r0 : r0 + BATCH_CHUNK_ROWS]
    return out


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine map to zero mean, unit spread.

    Zero-variance columns get stddev 1, so constants standardize to 0. Both
    arrays are read-only float64 copies, so the checks below hold for its life.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean, std = _freeze(self.mean), _freeze(self.std)
        if mean.shape != std.shape:
            raise DataError(f"standardizer lengths {mean.shape}, {std.shape} differ")
        if not (np.isfinite(mean).all() and np.all(np.isfinite(std) & (std > 0))):
            raise DataError("standardizer needs finite means and finite stds > 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """(X - mean) / std in one fresh array: the difference, divided in place."""
        out = np.subtract(X, self.mean, dtype=np.float64)
        out /= self.std
        return out


# The smallest std whose column column_moments squares as it is: squares of deviations
# of that size are >= 2^-960, far from float64's subnormals below 2^-1022.
STD_SAFE_MIN = 2.0**-480


def column_moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population stds (ddof 0) of a matrix of at least one row, as
    np.mean and np.std give them to within rounding, with column sums taken by _batch_sum.

    The two-pass variance runs on the rows less the first row, so a column whose values
    are all equal has deviations of exactly 0: its mean is that value and its std 1.
    A column whose std falls outside [STD_SAFE_MIN, inf), where its squared deviations
    underflow or overflow, has its deviations scaled by the power of two that brings
    their largest magnitude into [0.5, 1), and the whole variance product is taken again;
    the scaling is exact and undone on the std, so such a column standardizes to the bits
    of the same column at unit scale. Like np.std, this holds one temporary of X's shape.
    """
    n = X.shape[0]
    ones = np.ones(n)
    dev = np.subtract(X, X[0])
    shift = _batch_sum(ones, dev) / n
    dev -= shift
    with np.errstate(over="ignore"):  # an overflowing column is scaled below
        var = _batch_sum(ones, np.square(dev, out=dev)) / n
    std = np.sqrt(var)
    scaled = ~((std >= STD_SAFE_MIN) & (std < np.inf))
    if scaled.any():
        np.subtract(X, X[0], out=dev)
        dev -= shift
        exp = np.where(scaled, np.frexp(np.maximum(dev.max(axis=0), -dev.min(axis=0)))[1], 0)
        np.ldexp(dev, -exp, out=dev)
        # over every column: a product over fewer columns may sum in another order
        var = _batch_sum(ones, np.square(dev, out=dev)) / n
        std = np.ldexp(np.sqrt(var), exp)
    return X[0] + shift, np.where(std > 0.0, std, 1.0)


def fit_standardizer(ds: Dataset) -> Standardizer:
    """The standardizer of the features' column_moments."""
    if ds.n < 2:
        raise DataError("standardizer needs at least 2 rows")
    mean, std = column_moments(ds.features)
    return Standardizer(mean=mean, std=std)


def apply_standardizer(st: Standardizer, ds: Dataset) -> Dataset:
    return replace(ds, features=st.transform(ds.features))


def _duplicates(names: Sequence[str]) -> list[str]:
    return [name for name, count in Counter(names).items() if count > 1]


def _checked_rows(rows: Iterator[list], width: int, last: list, path: Path) -> Iterator[list]:
    """rows, each checked to hold width cells; last holds the index and cells of the latest."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"row {i} has {len(row)} cells, expected {width} in {path}")
        last[:] = i, row
        yield row


def _non_numeric(header: list[str], i: int, row: list[str], path: Path) -> DataError:
    """The error for the first cell of row i that float() rejects."""
    for name, cell in zip(header, row):
        try:
            float(cell)
        except ValueError:
            break
    return DataError(f"non-numeric cell {cell!r} at row {i}, column {name!r} in {path}")


def _undecodable(path: Path) -> str:
    """The line and column of the first byte of path that is not UTF-8, and why, as a decode
    of each line of bytes.splitlines() names them, from path read one line at a time.

    The text layer decodes in chunks, so a decode error gives no line. Read as latin-1 with
    universal newlines, path has one character per byte and ends its lines where
    bytes.splitlines() does, at \\n, \\r\\n and a lone \\r; only lines that are not ASCII
    are decoded. No UTF-8 multibyte sequence holds a line-break byte, so the file's first
    bad byte is the first bad line's.
    """
    with path.open(encoding="latin-1", newline=None) as fh:
        for number, text in enumerate(fh, 1):
            try:
                if not text.isascii():
                    text.rstrip("\n").encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {number}, column {exc.start + 1}: {_not_utf8(exc)}"
    return "a byte that is not UTF-8"  # the file changed after the failed read


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"


def _header(rows: Iterator[list[str]], path: Path) -> list[str]:
    header = next(rows, None)
    if header is None:
        raise DataError(f"empty CSV: {path}")
    duplicated = _duplicates(header)
    if duplicated:
        raise DataError(f"duplicate column names {duplicated} in {path}")
    return header


def _loadtxt_agrees(path: Path) -> bool:
    """Whether np.loadtxt, where it reads the rows of path, reads them as csv and float() do.

    It would not for a byte 0x1c-0x1f, which loadtxt strips from a cell's ends and float()
    rejects, nor for a cell longer than csv.field_size_limit(), which csv refuses. Outside
    quotes, which loadtxt rejects, such a cell holds a whole aligned block of half the limit
    plus one bytes, so each such block must hold a comma or line break.
    """
    size = csv.field_size_limit() // 2 + 1
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(size), b""):
            if any(byte in block for byte in b"\x1c\x1d\x1e\x1f"):
                return False
            if len(block) == size and not any(sep in block for sep in b",\n\r"):
                return False
    return True


# Bytes of CSV that each window of a read or a write handles at the least.
# On a 2-vCPU Xeon np.loadtxt parses about 50 MB/s and "%.17g" formats about
# 27 MB/s, so 1 MiB is 20-37 ms, against 2-4 ms to fork a 150 MB process,
# hand back its part in a temporary file and reap it.
WINDOW_MIN_BYTES = 1 << 20


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _window_count(size: int) -> int:
    """Windows for size bytes of CSV: min(usable_cpus(), size // WINDOW_MIN_BYTES) but at least
    1, and 1 where the process cannot fork or ignores SIGCHLD, which lets the kernel reap a child
    before its exit status can be read.
    """
    if not hasattr(os, "fork"):
        return 1
    if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        return 1
    return max(1, min(usable_cpus(), size // WINDOW_MIN_BYTES))


def _fork(produce, *args) -> tuple[int, typing.BinaryIO]:
    """(pid, file) of a forked child that writes its part into file by produce(file, *args).

    file is an anonymous temporary file, opened before the fork in tempfile's directory. The
    child exits 0 once produce returns and file is flushed, and 1 where produce raises; it runs
    no exit handler of the parent. The parent may use file only once the child has exited 0.
    """
    file = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        file.close()
        raise
    if pid == 0:
        code = 1
        try:
            produce(file, *args)
            file.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, file


@contextlib.contextmanager
def _in_children(produce, jobs: list[tuple]) -> Iterator[Iterator[typing.BinaryIO | None]]:
    """On entry, fork a child (_fork) that runs produce(file, *job) for each job after the
    first, for as long as forks and temporary files succeed. Give an iterator over jobs, in
    order, of that child's file, rewound, where the child exits 0, and of None for the first
    job, a job left without a child and one whose child exits otherwise.

    On exit, however the block ends, each child not yet waited for is killed and reaped, and
    every file is closed.
    """
    children: list[tuple[int, typing.BinaryIO]] = []
    with contextlib.suppress(OSError):  # the jobs left without a child get None
        for job in jobs[1:]:
            children.append(_fork(produce, *job))
    running = dict(children)

    def files() -> Iterator[typing.BinaryIO | None]:
        yield None
        for pid, file in children:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            file.seek(0)
            yield file if code == 0 else None
        yield from [None] * (len(jobs) - 1 - len(children))

    try:
        yield files()
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, file in children:
            file.close()


def _cuts(path: Path, size: int, windows: int) -> list[int]:
    """Offsets between 0 and size that cut path into at most windows parts, each just after a
    newline byte looked for in the 64 KiB after an even share of the bytes.
    """
    cuts = set()
    with path.open("rb") as fh:
        for i in range(1, windows):
            fh.seek(i * size // windows)
            if fh.readline(1 << 16).endswith(b"\n"):
                cuts.add(fh.tell())
    return sorted(c for c in cuts if c < size)


class _Head(io.RawIOBase):
    """The next size bytes of a binary file; closing it closes the file."""

    def __init__(self, file: typing.BinaryIO, size: int) -> None:
        self._file, self._left = file, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            n = self._file.readinto(view[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def _window(path: Path, start: int, end: int | None) -> io.TextIOWrapper:
    """The text of bytes start to end of path, or to its end when end is None. Only the file's
    first bytes may be a UTF-8 byte-order mark, which is dropped.
    """
    binary = path.open("rb")
    binary.seek(start)
    if end is not None:
        binary = io.BufferedReader(_Head(binary, end - start))
    return io.TextIOWrapper(binary, newline="", encoding="utf-8-sig" if start == 0 else "utf-8")


def _loadtxt(fh: io.TextIOWrapper) -> np.ndarray:
    """np.loadtxt of the rows left in fh, with a warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rows without data warn
        return np.loadtxt(
            fh, dtype=np.float64, delimiter=",", comments=None, quotechar=None, ndmin=2
        )


def _write_window(
    file: typing.BinaryIO, path: Path, start: int, end: int | None, width: int
) -> None:
    """Write into file the float64 cells of bytes start to end of path, or to its end when end
    is None, as _loadtxt reads them; ValueError unless it finds width columns.
    """
    with _window(path, start, end) as fh:
        cells = _loadtxt(fh)
    if cells.shape[1] != width:
        raise ValueError(f"{cells.shape[1]} columns, not {width}")
    file.write(cells)


def _read_loadtxt(path: Path) -> tuple[list[str], np.ndarray] | None:
    """Header and matrix of path, np.loadtxt parsing the rows after the header; None where it
    might read them otherwise than float(), or any window fails, warns or finds other than one
    column per name, or does not come back from a child.

    path is cut just after newline bytes into at most _window_count windows. The parent parses
    the first window, header included, and a forked child each other window into a temporary
    file (_in_children), which the parent reads into a view of the result. No child outlives
    the call, however it ends.
    """
    if not _loadtxt_agrees(path):
        return None
    size = path.stat().st_size
    cuts = _cuts(path, size, _window_count(size))
    try:
        with _window(path, 0, cuts[0] if cuts else None) as fh:
            header = _header(filter(None, csv.reader(fh)), path)
            width = len(header)
            jobs = [(path, start, end, width) for start, end in zip([0, *cuts], [*cuts, None])]
            with _in_children(_write_window, jobs) as results:
                first = _loadtxt(fh)
                if first.shape[1] != width:
                    return None
                files = list(results)[1:]
                if None in files:
                    return None
                rows = [os.fstat(file.fileno()).st_size // (8 * width) for file in files]
                matrix = np.empty((len(first) + sum(rows), width))
                matrix[: len(first)] = first
                row = len(first)
                for file, n in zip(files, rows):
                    file.readinto(matrix[row : row + n])
                    row += n
    except Exception:  # whatever stopped loadtxt, the float() path reads or names it
        return None
    return header, matrix


def _read_float(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and matrix of path, csv splitting its rows and one C-level map calling float()
    on every cell, one row at a time. A U+FEFF that does not open the file stays in its cell.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        last: list = []
        try:
            header = _header(rows, path)
            cells = chain.from_iterable(_checked_rows(rows, len(header), last, path))
            return header, np.fromiter(map(float, cells), np.float64).reshape(-1, len(header))
        except UnicodeDecodeError as exc:
            if not path.is_file():  # a pipe is drained, and a FIFO blocks the next open
                raise DataError(f"cannot read {path}: {_not_utf8(exc)}") from None
            raise DataError(f"cannot read {path}, stopped at {_undecodable(path)}") from None
        except csv.Error as exc:
            raise DataError(
                f"cannot read {path}, stopped at line {reader.line_num}: {exc}"
            ) from None
        except DataError:
            raise
        except ValueError:  # float() stopped inside the row the generator handed out last
            raise _non_numeric(header, *last, path) from None


def read_numeric_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Parse a fully numeric CSV with a header row into (column names, float64 matrix).

    csv reads the header and np.loadtxt the rows after it, in one window per usable CPU
    for a large file, a forked child parsing each window after the first and handing back
    its cells in a temporary file (see _read_loadtxt). Where loadtxt fails in any window or
    might read the rows otherwise, or a window does not come back from a child, the float()
    path reads the file again in one pass: it alone accepts cells such as 1_000, non-ASCII
    digits and quoted cells, and it alone makes the error messages, so both give the same
    result or message. A file that is not a regular file, such as a pipe, a FIFO or
    /dev/stdin, the float() path alone reads, once. A non-numeric cell, a missing or
    non-finite value and a repeated column name are hard errors naming the file, with data
    rows counted from 0 after the header, skipping blank lines. A file that is not UTF-8
    fails naming its first bad byte and, for a regular file, that byte's line and column;
    one that csv cannot parse fails naming the line it stopped at. A UTF-8 byte-order mark
    at the start of the file is dropped.
    """
    path = Path(path)
    try:
        info = path.stat()
    except (FileNotFoundError, NotADirectoryError):
        raise DataError(f"missing file: {path}") from None
    if stat.S_ISDIR(info.st_mode):
        raise DataError(f"not a file: {path}")
    regular = stat.S_ISREG(info.st_mode)  # a pipe or FIFO can be read once only
    header, parsed = (regular and _read_loadtxt(path)) or _read_float(path)
    finite = np.isfinite(parsed).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite value at row {int(np.argmin(finite))} in {path}")
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


# Rows formatted at a time by write_numeric_csv and each of its window children:
# their Python floats and lines for this many rows are all each holds beyond the
# columns.
WRITE_BLOCK_ROWS = 8192


def _write_lines(
    out: typing.BinaryIO, arrays: list[np.ndarray], line: str, r0: int, r1: int
) -> None:
    """Write the UTF-8 CSV lines of rows r0 to r1 of arrays into out, one WRITE_BLOCK_ROWS
    block at a time.
    """
    for b0 in range(r0, r1, WRITE_BLOCK_ROWS):
        block = zip(*(a[b0 : min(b0 + WRITE_BLOCK_ROWS, r1)].tolist() for a in arrays))
        out.write("".join(line % row for row in block).encode())


def write_numeric_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length finite float columns under a header row of distinct names.

    Cells carry 17 significant digits, so every float64 reads back exactly. A repeated
    name, a name count other than the column count, a column that is not 1-d or holds a
    non-finite value, and columns of unequal lengths raise DataError before the file is
    opened.

    The rows are cut into _window_count(rows x columns x 25) ranges, 25 bytes being the
    longest cell and its separator. A forked child formats each range after the first into
    a temporary file (_in_children), one WRITE_BLOCK_ROWS block at a time, which the parent
    copies after its own range. The parent formats itself each range that does not come back
    from a child, so the output, a pipe or device included, has the one-window bytes. No
    child outlives the call.
    """
    duplicated = _duplicates(header)
    if duplicated:
        raise DataError(f"duplicate column names {duplicated} for {path}")
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    if len(header) != len(arrays):
        raise DataError(f"{len(header)} column names for {len(arrays)} columns for {path}")
    for name, a in zip(header, arrays):
        if a.ndim != 1:
            raise DataError(f"column {name!r} has shape {a.shape}, not 1-d, for {path}")
        finite = np.isfinite(a)
        if not finite.all():
            raise DataError(
                f"non-finite value at row {int(np.argmin(finite))}, column {name!r} for {path}"
            )
    lengths = [a.shape[0] for a in arrays]
    if len(set(lengths)) > 1:
        raise DataError(f"columns of unequal lengths {lengths} for {path}")
    line = ",".join(["%.17g"] * len(arrays)) + "\r\n"
    n = lengths[0] if lengths else 0
    k = _window_count(n * len(arrays) * 25)  # "%.17g" of -2.2250738585072014e-308 is 24
    jobs = [(arrays, line, i * n // k, (i + 1) * n // k) for i in range(k)]
    with (
        _in_children(_write_lines, jobs) as results,
        Path(path).open("w", newline="", encoding="utf-8") as fh,
    ):
        csv.writer(fh).writerow(header)
        fh.flush()  # the rows go to fh.buffer, after the header
        for job, file in zip(jobs, results):
            if file is None:
                _write_lines(fh.buffer, *job)
            else:
                shutil.copyfileobj(file, fh.buffer)


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write features plus reserved "__target" / "__true_mean" columns."""
    header = [*ds.feature_names, TARGET_COLUMN]
    cols = [ds.features[:, j] for j in range(ds.d)] + [ds.targets]
    if ds.true_mean is not None:
        header.append(TRUE_MEAN_COLUMN)
        cols.append(ds.true_mean)
    write_numeric_csv(path, header, cols)
