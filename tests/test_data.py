import contextlib
import csv
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import read_numeric_csv_oracle, undecodable_oracle, write_numeric_csv_oracle

import cairoreg
from cairoreg import data
from cairoreg.bench import BenchConfig
from cairoreg.data import (
    BATCH_CHUNK_ROWS,
    WRITE_BLOCK_ROWS,
    DataError,
    Dataset,
    SplitSpec,
    Standardizer,
    apply_standardizer,
    config_from_dict,
    config_to_dict,
    fit_standardizer,
    load_csv,
    make_rng,
    read_numeric_csv,
    split,
    write_csv,
    write_numeric_csv,
)
from cairoreg.dgp import Scenario, ScenarioSpec
from cairoreg.isotonic import CalibrationMap
from cairoreg.losses import PairwiseSurrogate, PointwiseMse, SoftGini, WeightVariant
from cairoreg.pipeline import FitHyper


def test_load_csv_basic(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,y\n0,1\n1,2\n2,3\n")
    ds = load_csv(f, "y")
    assert ds.n == 3 and ds.d == 1
    np.testing.assert_array_equal(ds.targets, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.features[:, 0], [0.0, 1.0, 2.0])
    assert ds.feature_names == ("x1",)


def test_load_csv_missing_target(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,y\n0,1\n1,2\n")
    with pytest.raises(DataError, match="missing target column"):
        load_csv(f, "z")


def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,y\n0,1\nabc,2\n")
    says = f"non-numeric cell 'abc' at row 1, column 'x1' in {f}"
    with pytest.raises(DataError, match="^" + re.escape(says) + "$"):
        load_csv(f, "y")


def test_load_csv_non_finite_value_names_row(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,y\n0,1\n1,inf\n2,nan\n")
    with pytest.raises(DataError, match=f"^non-finite value at row 1 in {re.escape(str(f))}$"):
        load_csv(f, "y")
    # the cells are parsed before finiteness is checked, so a later bad cell is reported
    f.write_text("x1,y\n0,1\n1,inf\nabc,3\n")
    says = f"non-numeric cell 'abc' at row 2, column 'x1' in {f}"
    with pytest.raises(DataError, match="^" + re.escape(says) + "$"):
        load_csv(f, "y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing file"):
        load_csv(tmp_path / "nope.csv", "y")
    (tmp_path / "d.csv").write_text("x1,y\n0,1\n1,2\n")
    with pytest.raises(DataError, match="missing file"):
        load_csv(tmp_path / "d.csv" / "nope.csv", "y")


def test_read_numeric_csv_names_a_directory(tmp_path):
    with pytest.raises(DataError, match=f"^not a file: {re.escape(str(tmp_path))}$"):
        read_numeric_csv(tmp_path)


def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    f = tmp_path / "excel.csv"
    f.write_bytes(b"\xef\xbb\xbfx1,__target\r\n0,1\r\n1,2\r\n")
    assert read_numeric_csv(f)[0] == ["x1", "__target"]
    assert load_csv(f).feature_names == ("x1",)
    f.write_bytes(b"\xef\xbb\xbf__target,x1\r\n0,1\r\n1,2\r\n")
    np.testing.assert_array_equal(load_csv(f).targets, [0.0, 1.0])
    # a U+FEFF that does not open the file is a cell like any other
    f.write_bytes(b"x1,__target\n0,1\n\xef\xbb\xbf1,2\n")
    says = f"non-numeric cell '\\ufeff1' at row 1, column 'x1' in {f}"
    with pytest.raises(DataError, match="^" + re.escape(says) + "$"):
        load_csv(f)


def test_load_csv_too_few_rows(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,y\n0,1\n")
    with pytest.raises(DataError, match="fewer than 2"):
        load_csv(f, "y")


def test_load_csv_true_mean_column(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,__target,__true_mean\n0,1,0.5\n1,2,1.5\n")
    ds = load_csv(f)
    assert ds.d == 1
    np.testing.assert_array_equal(ds.true_mean, [0.5, 1.5])


def test_write_load_round_trip(tmp_path):
    rng = make_rng(5)
    ds = Dataset(
        features=rng.normal(size=(20, 3)) * 1e3,
        targets=rng.normal(size=20),
        true_mean=rng.normal(size=20),
    )
    f = tmp_path / "rt.csv"
    write_csv(ds, f)
    back = load_csv(f)
    np.testing.assert_allclose(back.features, ds.features, atol=1e-12, rtol=0)
    np.testing.assert_allclose(back.targets, ds.targets, atol=1e-12, rtol=0)
    np.testing.assert_allclose(back.true_mean, ds.true_mean, atol=1e-12, rtol=0)


def test_write_load_round_trip_keeps_feature_names(tmp_path):
    names = ("b", "a", "__target_x")
    ds = Dataset(features=np.arange(6.0).reshape(2, 3), targets=[0.0, 1.0], feature_names=names)
    write_csv(ds, tmp_path / "rt.csv")
    assert load_csv(tmp_path / "rt.csv").feature_names == names


def test_write_numeric_csv_golden_bytes(tmp_path):
    f = tmp_path / "g.csv"
    header = ["a,b", 'q"t', "n"]
    columns = [np.array([-0.0, 5e-324, 1e308]), [0.1, 1 / 3, 7.0], [3, -12, 2**40]]
    write_numeric_csv(f, header, columns)
    assert f.read_bytes() == (
        b'"a,b","q""t",n\r\n'
        b"-0,0.10000000000000001,3\r\n"
        b"4.9406564584124654e-324,0.33333333333333331,-12\r\n"
        b"1e+308,7,1099511627776\r\n"
    )
    write_numeric_csv(f, header, [np.array([])] * 3)
    assert f.read_bytes() == b'"a,b","q""t",n\r\n'


def test_write_numeric_csv_rejects_a_repeated_name_listing_it(tmp_path):
    f = tmp_path / "dup.csv"
    with pytest.raises(DataError, match=r"duplicate column names \['a'\]"):
        write_numeric_csv(f, ["a", "b", "a"], [[1.0], [2.0], [3.0]])
    assert not f.exists()


def test_write_csv_rejects_a_feature_named_like_the_target_column(tmp_path):
    # a feature may be named __target when the CSV names its target otherwise
    ds = Dataset(features=np.zeros((2, 2)), targets=[0.0, 1.0], feature_names=["x", "__target"])
    with pytest.raises(DataError, match=r"duplicate column names \['__target'\]"):
        write_csv(ds, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


def test_write_numeric_csv_rejects_unequal_columns_listing_their_lengths(tmp_path):
    f = tmp_path / "ragged.csv"
    with pytest.raises(DataError, match=r"columns of unequal lengths \[3, 1\]"):
        write_numeric_csv(f, ["a", "b"], [[1.0, 2.0, 3.0], [4.0]])
    assert not f.exists()


def test_write_numeric_csv_peak_memory_is_below_its_columns(tmp_path):
    columns = list(make_rng(4).normal(size=(12, 100_000)))
    tracemalloc.start()
    try:
        write_numeric_csv(tmp_path / "wide.csv", [f"x{j}" for j in range(12)], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(c.nbytes for c in columns)
    assert peak < nbytes, f"peak {peak / nbytes:.1f}x the columns"


@pytest.mark.parametrize(
    "rows", [1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1, 2 * WRITE_BLOCK_ROWS + 5]
)
def test_write_numeric_csv_blocks_write_the_one_pass_bytes(tmp_path, rows):
    rng = make_rng(rows)
    columns = [rng.normal(size=rows) * 1e3, rng.standard_cauchy(size=rows)]
    write_numeric_csv(tmp_path / "blocks.csv", ["a", "b"], columns)
    write_numeric_csv_oracle(tmp_path / "one.csv", ["a", "b"], columns)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize(
    "column, says",
    [
        ([[1.0, 2.0], [3.0, 4.0]], r"column 'b' has shape \(2, 2\), not 1-d, for "),
        (5.0, r"column 'b' has shape \(\), not 1-d, for "),
        ([1.0, float("nan")], "non-finite value at row 1, column 'b' for "),
        ([-np.inf, 1.0], "non-finite value at row 0, column 'b' for "),
    ],
    ids=["2-d", "0-d", "nan", "-inf"],
)
def test_write_numeric_csv_rejects_a_bad_column_before_it_forks(tmp_path, column, says):
    f = tmp_path / "bad.csv"
    with _windows_forced(), patch("os.fork", wraps=os.fork) as fork:
        with pytest.raises(DataError, match="^" + says + re.escape(str(f)) + "$"):
            write_numeric_csv(f, ["a", "b"], [[1.0, 2.0], column])
        with pytest.raises(DataError, match=r"^2 column names for 3 columns for "):
            write_numeric_csv(f, ["a", "b"], [[1.0], [2.0], [3.0]])
    fork.assert_not_called()
    assert not f.exists()


# Cells whose text is longest or least usual: -0, subnormals, the smallest
# normal and the largest finite values.
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -1e-310, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


@settings(max_examples=30, deadline=None)
@given(
    rows=st.sampled_from([0, 1, 2, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS + 1]),
    width=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    edges=st.lists(
        st.tuples(st.integers(0), st.integers(0), st.sampled_from(_EDGE_VALUES)), max_size=8
    ),
)
def test_a_windowed_write_writes_the_one_window_bytes(rows, width, seed, edges):
    """Rows of numbers of every scale, with edge values at drawn cells, in three windows."""
    rng = make_rng(seed)
    columns = rng.standard_normal((width, rows)) * 10.0 ** rng.integers(-300, 300, (width, rows))
    for r, j, value in edges:
        if rows:
            columns[j % width, r % rows] = value
    header = [f"x{j}" for j in range(width)]
    with tempfile.TemporaryDirectory() as tmp:
        path, one = Path(tmp) / "windows.csv", Path(tmp) / "one.csv"
        with _windows_forced(), patch("os.fork", wraps=os.fork) as fork:
            write_numeric_csv(path, header, list(columns))
        _no_child_left()
        assert fork.call_count == (2 if rows else 0)
        write_numeric_csv_oracle(one, header, list(columns))
        assert path.read_bytes() == one.read_bytes()


def _write_in_windows(path: Path, patches: dict) -> None:
    """Check that a three-window write of 300 rows of 2 columns, with each name in patches
    patched to its value, writes the oracle's bytes and leaves no child.
    """
    columns = list(make_rng(9).standard_cauchy(size=(2, 300)))
    with _windows_forced(), contextlib.ExitStack() as stack:
        for name, value in patches.items():
            stack.enter_context(patch(name, value))
        write_numeric_csv(path, ["a", "b"], columns)
    _no_child_left()
    write_numeric_csv_oracle(path.with_suffix(".one"), ["a", "b"], columns)
    assert path.read_bytes() == path.with_suffix(".one").read_bytes()


def _second_fork_fails() -> Mock:
    """An os.fork whose second call fails as it does when no process is left."""
    fork, calls = os.fork, itertools.count(1)

    def second_fork_fails():
        if next(calls) == 2:
            raise BlockingIOError("no process left")
        return fork()

    return Mock(side_effect=second_fork_fails)


def test_a_write_whose_second_fork_fails_formats_that_range_itself(tmp_path):
    fork = _second_fork_fails()
    _write_in_windows(tmp_path / "t.csv", {"os.fork": fork})
    assert fork.call_count == 2


def _children_fail(produce, how: str):
    """produce as the parent calls it; in a forked child, a produce that writes 64 wrong bytes
    into its file, then raises (the child exits 1) or, where how is "killed", kills its own
    process with SIGKILL.
    """
    parent = os.getpid()

    def child_fails(file, *args):
        if os.getpid() == parent:
            return produce(file, *args)
        file.write(b"?" * 64)
        file.flush()
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise ValueError("a child fails")

    return child_fails


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_a_write_whose_children_fail_formats_their_ranges_itself(tmp_path, how):
    failing = _children_fail(data._write_lines, how)
    with patch("os.fork", wraps=os.fork) as fork:
        _write_in_windows(tmp_path / "t.csv", {"cairoreg.data._write_lines": failing})
    assert fork.call_count == 2


def test_a_write_whose_temporary_files_fail_formats_every_range_itself(tmp_path):
    with patch("os.fork", wraps=os.fork) as fork:
        _write_in_windows(
            tmp_path / "t.csv", {"tempfile.TemporaryFile": Mock(side_effect=OSError("no space"))}
        )
    fork.assert_not_called()


def test_a_write_in_a_process_that_ignores_sigchld_does_not_fork(tmp_path):
    ignored = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        _write_in_windows(tmp_path / "t.csv", {"os.fork": Mock(side_effect=AssertionError("forked"))})
    finally:
        signal.signal(signal.SIGCHLD, ignored)


def test_a_write_into_a_pipe_copies_its_children_ranges(tmp_path):
    """The 12 kB fit in the pipe's buffer, so the write needs no reader beside it. The parent
    formats only the first of the three ranges; the children's files give the other two.
    """
    read_fd, write_fd = os.pipe()
    columns = list(make_rng(9).standard_cauchy(size=(2, 300)))
    with open(read_fd, "rb") as pipe:
        try:
            with _windows_forced(), patch("os.fork", wraps=os.fork) as fork, patch(
                "cairoreg.data._write_lines", wraps=data._write_lines
            ) as write_lines:
                write_numeric_csv(f"/dev/fd/{write_fd}", ["a", "b"], columns)
        finally:
            os.close(write_fd)
        written = pipe.read()
    _no_child_left()
    assert fork.call_count == 2
    assert [c.args[3:] for c in write_lines.call_args_list] == [(0, 100)]
    write_numeric_csv_oracle(tmp_path / "one.csv", ["a", "b"], columns)
    assert written == (tmp_path / "one.csv").read_bytes()


# Writes 400 000 rows of 12 columns, 115 MB of CSV, in two windows, then prints the peak RSS
# in KiB of the process and of its largest child.
_WRITE_PEAKS = """
import resource, sys
from unittest.mock import patch
import numpy as np
from cairoreg.data import write_numeric_csv
columns = list(np.random.default_rng(0).standard_normal((12, 400_000)))
with patch("os.sched_getaffinity", return_value={0, 1}):
    write_numeric_csv(sys.argv[1], [f"x{j}" for j in range(12)], columns)
print(*(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
"""


def test_a_write_child_peaks_no_higher_than_its_parent(tmp_path):
    """A child formats its range into its file one block at a time, as the parent does, so its
    memory does not grow with the range. On a 2-vCPU Xeon, one that held its 57 MB range as
    bytes peaked at 120 MB against its parent's 84 MB.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(cairoreg.__path__[0]).parent)}
    run = subprocess.run(
        [sys.executable, "-c", _WRITE_PEAKS, str(tmp_path / "w.csv")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    parent, child = map(int, run.stdout.split())
    assert 0 < child <= parent, f"child {child >> 10} MB, parent {parent >> 10} MB"


def test_a_windowed_write_that_is_interrupted_leaves_no_child(tmp_path):
    parent, write_lines = os.getpid(), data._write_lines

    def stuck_children(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return write_lines(*args)

    start = time.perf_counter()
    with _windows_forced(), patch("cairoreg.data._write_lines", stuck_children), pytest.raises(
        KeyboardInterrupt
    ):
        write_numeric_csv(tmp_path / "t.csv", ["a"], [np.arange(100.0)])
    _no_child_left()
    assert time.perf_counter() - start < 30, "a stuck child was waited for, not killed"


# Cells float() accepts with a finite value, including five that np.loadtxt
# rejects: 1_000, a fullwidth digit and three with Arabic-Indic digits.
_FINITE_CELLS = [
    *["0", "-0", "1.5", " 1.5", "1.5 ", "\xa01.5", "1.5\u2007", "+1", ".5", "5.", "1e3"],
    *["1_000", "１", "١", "١٣.5"],
]
# Cells float() rejects or reads as no finite number. loadtxt reads "\x1c1"
# as 1 and, with its default comments="#", "1#2" as 1.
_OTHER_CELLS = [
    *["abc", "1d5", "0x10", "", "--1", "1.0j", "NaN", "Infinity", "-inf", "1e400"],
    *["1#2", "#", "1 2", '"', "nan", "inf", "\x1c1", "2\x1f"],
]


@st.composite
def _csv_texts(draw):
    """CSV text: a header, then rows of many kinds, in any line endings.

    The header's names are distinct but for one in five. The body mixes
    blank lines and good rows, which hold one finite number per column,
    with up to two odd rows: a good row with one cell from _OTHER_CELLS,
    with an empty trailing cell or without its last cell, or any number of
    good cells. In half the texts some names and cells are quoted.
    """
    width = draw(st.integers(1, 4))
    quotes = draw(st.booleans())
    names = ["a", "b", "x 1", "__target", *(['"a,b"', '"q""t"'] if quotes else [])]
    header = draw(st.lists(st.sampled_from(names), min_size=width, max_size=width, unique=True))
    if width > 1 and draw(st.integers(0, 4)) == 0:
        header[-1] = header[0]
    finite = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(_FINITE_CELLS)
    )
    quoted = st.booleans() if quotes else st.just(False)
    cell = st.builds(lambda text, quoted: f'"{text}"' if quoted else text, finite, quoted)
    good = st.lists(cell, min_size=width, max_size=width)
    bad_cell = st.builds(
        lambda row, j, bad: row[:j] + [bad] + row[j + 1 :],
        good,
        st.integers(0, width - 1),
        st.sampled_from(_OTHER_CELLS),
    )
    odd = st.one_of(
        bad_cell,
        good.map(lambda row: row + [""]),
        good.map(lambda row: row[:-1]),
        st.lists(cell, max_size=width + 2),
    )
    body = draw(st.lists(st.one_of(good, st.just([])), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(0, len(body))), draw(odd))
    lines = [",".join(row) for row in [header, *body]]
    ends = st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines))
    text = "".join(line + end for line, end in zip(lines, draw(ends)))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _read(reader, path):
    """(header, matrix bytes and shape) or the DataError message."""
    try:
        header, matrix = reader(path)
    except DataError as exc:
        return str(exc)
    return header, matrix.shape, matrix.tobytes()


@given(text=_csv_texts())
@example(text="")
@example(text="\r\n\n\r")
@example(text="a,b\r\n")
@example(text="a,b,a\n1,2,3\n")
@example(text="a,b\n1\n2,3\n")
@example(text="a,b\n1,2\n\n-0,1_000\r\n")
@example(text="a,b\nx,1\n2\n")  # a bad cell in row 0, then a short row 1
@example(text="a,b\n1\nx,2\n")  # a short row 0, then a bad cell
@example(text="a,b\n1,2\n3,x")  # a bad cell in the last column of the last row
@example(text="a,b\n1,2\n3,4\n\n5,6\r\n7,8")  # a blank line, CRLF and no last line end
@example(text="a\n1#2\n")
@example(text="a,b\n1,2\n3,4,5\n")  # one row with an extra cell
@example(text="a,b\n1,2,3\n4,5,6\n")  # every row with an extra cell: loadtxt reads 3 columns
@example(text="a,b\n1,\x1c2\n")
@example(text="a,b\n1,2\n3,\udce2\udc82\r\n")  # a UTF-8 sequence that its line cuts
def test_read_numeric_csv_matches_the_list_of_rows_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        expected = _read(read_numeric_csv_oracle, path)
        assert _read(read_numeric_csv, path) == expected
        with _windows_forced():
            assert _read(read_numeric_csv, path) == expected
        _no_child_left()
        with patch("numpy.loadtxt", side_effect=ValueError("the float() path reads it")):
            assert _read(read_numeric_csv, path) == expected


@contextlib.contextmanager
def _windows_forced(cpus: int = 3):
    """Cut every file of 8 bytes or more into up to cpus windows of 4 bytes or more."""
    with patch("cairoreg.data.WINDOW_MIN_BYTES", 4), patch(
        "os.sched_getaffinity", return_value=set(range(cpus))
    ):
        yield


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cut_at(path: Path, text: bytes, cut: int, tail: bytes) -> None:
    """Write text, then as many copies of tail as put a cut of a three-window read at cut."""
    for copies in range(200):
        path.write_bytes(text + tail * copies)
        cuts = data._cuts(path, path.stat().st_size, 3)
        if len(cuts) == 2 and cut in cuts:
            return
    raise AssertionError(f"no copy count of {tail!r} puts a cut at {cut}")


@pytest.mark.parametrize(
    "row, special, says",
    [
        (b"1,2\n", b"x,2\n", "^non-numeric cell 'x' at row 40, column 'a'$"),
        (b"1,2\n", b"1\n", "^row 40 has 1 cells, expected 2$"),
        (b"1,2\n", b"3,inf\n", "^non-finite value at row 40$"),
        (b"1,2\n", b"\xff,2\n", "stopped at line 42, column 1: byte 0xff is not UTF-8"),
        (b"1,2\n", b"\xef\xbb\xbf1,2\n", r"^non-numeric cell '\\ufeff1' at row 40, column 'a'$"),
        (b"1,2\n", b"\n", None),
        (b"1,2\r\n", b"\r\n", None),
        (b"1,2\r\n", b"3,4\r\n", None),
    ],
)
def test_a_split_read_at_its_cut_reads_as_one_pass(tmp_path, row, special, says):
    """40 good rows, a special line, 3 more rows: the loadtxt path and the
    float() path give the oracle's result, or its message with the row
    numbered from the file's start. So do three windows with a cut just
    before the special line and with one just after it.
    """
    path = tmp_path / "cut.csv"
    head = b"a,b" + row[3:] + row * 40
    path.write_bytes(head + special + row * 3)
    expected = _read(read_numeric_csv_oracle, path)
    if says is None:
        assert isinstance(expected, tuple)
    else:
        assert re.search(says, expected.removesuffix(f" in {path}"))
    assert _read(read_numeric_csv, path) == expected
    with patch("numpy.loadtxt", side_effect=ValueError("the float() path reads it")):
        assert _read(read_numeric_csv, path) == expected
    for cut in (len(head), len(head + special)):
        _cut_at(path, head + special + row * 3, cut, row)
        expected = _read(read_numeric_csv_oracle, path)
        with _windows_forced(), patch("os.fork", wraps=os.fork) as fork:
            assert _read(read_numeric_csv, path) == expected
        assert fork.call_count == 2
        _no_child_left()


def test_a_windowed_read_leaves_no_child_process(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("a,b\n" + "1,2\n" * 200)
    bad.write_text("a,b\n" + "1,2\n" * 200 + "x,2\n")
    parent, loadtxt = os.getpid(), np.loadtxt

    def failing_parent(*args, **kwargs):
        if os.getpid() == parent:
            raise ValueError("the parent's window fails")
        return loadtxt(*args, **kwargs)

    def stuck_children(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    with _windows_forced(), patch("os.fork", wraps=os.fork) as fork:
        assert _read(read_numeric_csv, good) == _read(read_numeric_csv_oracle, good)
        _no_child_left()
        with pytest.raises(DataError, match="^non-numeric cell 'x' at row 200, column 'a'"):
            read_numeric_csv(bad)
        _no_child_left()
        with patch("numpy.loadtxt", failing_parent), patch(
            "cairoreg.data._read_float", wraps=data._read_float
        ) as slow:
            assert _read(read_numeric_csv, good) == _read(read_numeric_csv_oracle, good)
        slow.assert_called_once()
        _no_child_left()
        start = time.perf_counter()
        with patch("numpy.loadtxt", stuck_children), pytest.raises(KeyboardInterrupt):
            read_numeric_csv(good)
        _no_child_left()
        assert time.perf_counter() - start < 30, "a stuck child was waited for, not killed"
    assert fork.call_count == 8


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_a_child_that_fails_gives_the_one_pass_result(tmp_path, how):
    """Each child writes 64 wrong bytes, four rows of cells, into its file before it fails."""
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "1,2\n3,4\n" * 100)
    with _windows_forced(), patch(
        "cairoreg.data._write_window", _children_fail(data._write_window, how)
    ), patch("cairoreg.data._read_float", wraps=data._read_float) as slow:
        assert _read(read_numeric_csv, path) == _read(read_numeric_csv_oracle, path)
    slow.assert_called_once()
    _no_child_left()


def test_a_failed_fork_reads_in_one_pass(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "1,2\n3,4\n" * 100)
    with _windows_forced(), patch("os.fork", _second_fork_fails()), patch(
        "cairoreg.data._read_float", wraps=data._read_float
    ) as slow:
        assert _read(read_numeric_csv, path) == _read(read_numeric_csv_oracle, path)
    slow.assert_called_once()
    _no_child_left()


def test_a_failed_temporary_file_reads_in_one_pass(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "1,2\n3,4\n" * 100)
    with _windows_forced(), patch(
        "tempfile.TemporaryFile", side_effect=OSError("no space")
    ), patch("os.fork", wraps=os.fork) as fork, patch(
        "cairoreg.data._read_float", wraps=data._read_float
    ) as slow:
        assert _read(read_numeric_csv, path) == _read(read_numeric_csv_oracle, path)
    slow.assert_called_once()
    fork.assert_not_called()
    _no_child_left()


def test_a_process_that_ignores_sigchld_reads_in_one_window(tmp_path):
    """The kernel would reap the children at once, leaving no exit status to check."""
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + "1,2\n" * 100)
    ignored = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with _windows_forced(), patch("os.fork", side_effect=AssertionError("forked")):
            assert _read(read_numeric_csv, path) == _read(read_numeric_csv_oracle, path)
    finally:
        signal.signal(signal.SIGCHLD, ignored)


@contextlib.contextmanager
def _pipe_holding(payload: bytes):
    """The /dev/fd path of a pipe that holds payload, its write end closed. Nothing reads the
    pipe while payload is written, so payload must fit in its 64 KiB buffer.
    """
    read_fd, write_fd = os.pipe()
    try:
        with open(write_fd, "wb") as fh:
            fh.write(payload)
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)


def test_a_pipe_is_read_once_in_one_pass(tmp_path):
    """A reader that opens a pipe again finds it drained; one that reopened it read it as an
    empty CSV. A byte that is not UTF-8 is named without a second read.
    """
    path = tmp_path / "t.csv"
    write_numeric_csv(path, ["a", "b"], list(make_rng(5).normal(size=(2, 500))))
    with _pipe_holding(path.read_bytes()) as piped, _windows_forced(), patch(
        "os.fork", side_effect=AssertionError("forked")
    ):
        assert _read(read_numeric_csv, piped) == _read(read_numeric_csv_oracle, path)
    with _pipe_holding(b"a,b\n1,2\n\xff,3\n") as piped, pytest.raises(DataError) as raised:
        read_numeric_csv(piped)
    assert str(raised.value) == f"cannot read {piped}: byte 0xff is not UTF-8 (invalid start byte)"


def test_a_written_file_is_read_by_loadtxt_and_1_000_by_float(tmp_path):
    path = tmp_path / "t.csv"
    write_numeric_csv(path, ["a", "b"], list(make_rng(2).normal(size=(2, 500))))
    read_float = data._read_float
    with patch("cairoreg.data._read_float", wraps=read_float) as slow:
        header, matrix = read_numeric_csv(path)
    slow.assert_not_called()
    expected_header, expected = read_numeric_csv_oracle(path)
    assert header == expected_header and matrix.tobytes() == expected.tobytes()
    path.write_text("a,b\n1,2\n1_000,3\n")
    with patch("cairoreg.data._read_float", wraps=read_float) as slow:
        matrix = read_numeric_csv(path)[1]
    slow.assert_called_once()
    assert matrix.tolist() == [[1.0, 2.0], [1000.0, 3.0]]


@pytest.mark.parametrize("limit", [None, 8])
def test_a_cell_beyond_the_csv_field_size_limit_fails_naming_its_line(tmp_path, limit):
    old = csv.field_size_limit() if limit is None else csv.field_size_limit(limit)
    try:
        size = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1,2\n1," + "0" * size + "1\n3,4\n")  # a finite cell of size + 1
        says = f"cannot read {path}, stopped at line 3: field larger than field limit ({size})"
        with pytest.raises(DataError, match="^" + re.escape(says) + "$"):
            read_numeric_csv(path)
    finally:
        csv.field_size_limit(old)


def test_read_numeric_csv_names_an_undecodable_byte_after_many_good_rows(tmp_path):
    path = tmp_path / "late.csv"
    for head, line in [
        # 26 000 bytes of good rows, past the text layer's first decode chunk
        (b"a,b\n" + b"1.0000000000,2.0000000000\n" * 1000, 1002),
        # lines ended by \r\n, a lone \r and \n, then a \r\n whose \r is the file's
        # 1 MiB-th byte
        (b"a,b\n1,2\r\n1,2\r1,2\n" + b"1,2\n" * 262_138 + b"1,0000\r\n", 262_144),
    ]:
        path.write_bytes(head + b"\xff,3\n")
        says = f"cannot read {path}, stopped at line {line}, column 1: byte 0xff is not UTF-8"
        with pytest.raises(DataError, match="^" + re.escape(says)) as raised:
            read_numeric_csv(path)
        assert str(raised.value) == f"cannot read {path}, stopped at {undecodable_oracle(path)}"
    assert head[(1 << 20) - 1 : (1 << 20) + 1] == b"\r\n"


# Pieces of byte strings for the undecodable-byte property: every line end that
# bytes.splitlines() knows, bytes that str.splitlines() alone breaks at (\x0b, \x0c,
# \x1c, \x85 and U+2028), lone continuation bytes, multi-byte sequences that are cut
# short and whole ones, and ASCII cells.
_BYTE_PIECES = [
    *[b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x85", b"\xe2\x80\xa8"],
    *[b"\x80", b"\xbf", b"\xe2\x82", b"\xf0\x9f\x98", b"\xc3", b"\xff", b"\xc3\xa9"],
    *[b"\xef\xbb\xbf", b"1", b"a,b", b","],
]


@given(pieces=st.lists(st.sampled_from(_BYTE_PIECES), min_size=1, max_size=30))
@example(pieces=[b"1", b"\r", b"\n", b"\xe2\x82", b"\r\n", b"\xff"])
@example(pieces=[b"\x85", b"\x0b", b"\xe2\x80\xa8", b"\x1c", b"\r", b"\xc3", b"\x0c"])
def test_undecodable_names_the_oracles_line_column_and_reason(pieces):
    """Valid UTF-8 included, for which both give the fallback of a file that changed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(b"".join(pieces))
        assert data._undecodable(path) == undecodable_oracle(path)


def test_undecodable_reads_a_long_file_in_little_memory(tmp_path):
    """A file of \\r-only line ends, as an old Mac writes, with its bad byte on its last line."""
    path = tmp_path / "mac.csv"
    path.write_bytes(b"a,b\r" + b"1.0000000000,2.0000000000\r" * 50_000 + b"3,\x8e\r")
    assert path.stat().st_size > 1 << 20
    tracemalloc.start()
    try:
        says = data._undecodable(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert says == "line 50002, column 3: byte 0x8e is not UTF-8 (invalid start byte)"
    assert peak < 256 << 10, f"peak {peak >> 10} KiB"


def test_read_numeric_csv_peak_memory_is_near_its_result(tmp_path):
    rng = make_rng(3)
    path = tmp_path / "wide.csv"
    write_numeric_csv(path, [f"x{j}" for j in range(12)], list(rng.normal(size=(12, 20_000))))
    assert path.stat().st_size > 3 * data.WINDOW_MIN_BYTES
    expected = read_numeric_csv_oracle(path)[1]
    for cpus in (1, 2, 3):  # one window, then two and three
        tracemalloc.start()
        try:
            with patch("os.sched_getaffinity", return_value=set(range(cpus))), patch(
                "os.fork", wraps=os.fork
            ) as fork:
                _, matrix = read_numeric_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fork.call_count == cpus - 1
        assert matrix.tobytes() == expected.tobytes() and matrix.shape == (20_000, 12)
        assert peak < 3 * matrix.nbytes, f"peak {peak / matrix.nbytes:.1f}x the result at {cpus}"


def test_dataset_rejects_nan():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(features=np.array([[1.0], [np.nan]]), targets=np.array([1.0, 2.0]))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(DataError):
        Dataset(features=np.zeros((3, 2)), targets=np.zeros(2))


def test_feature_names_are_a_tuple_in_every_derived_dataset():
    ds = Dataset(features=np.zeros((4, 2)), targets=np.arange(4.0), feature_names=["u", "v"])
    assert ds.feature_names == ("u", "v")
    assert Dataset(features=np.zeros((4, 2)), targets=np.zeros(4)).feature_names == ("x1", "x2")
    train_ds, test_ds = split(ds, SplitSpec(0.5, seed=0))
    standardized = apply_standardizer(fit_standardizer(train_ds), test_ds)
    for derived in (ds, train_ds, test_ds, standardized):
        assert type(derived.feature_names) is tuple and derived.feature_names == ("u", "v")


@pytest.mark.parametrize(
    "names", [["a", "a"], ["a", "__true_mean"], ["a"], ["a", "b", "c"], ["a", 2], "ab"]
)
def test_dataset_rejects_bad_feature_names_listing_them(names):
    with pytest.raises(DataError, match="feature_names must be 2 distinct") as info:
        Dataset(features=np.zeros((3, 2)), targets=np.zeros(3), feature_names=names)
    assert repr(tuple(names)) in str(info.value)


def _toy(n, seed=0, with_mean=False):
    rng = make_rng(seed)
    return Dataset(
        features=rng.normal(size=(n, 2)),
        targets=rng.normal(size=n),
        true_mean=rng.normal(size=n) if with_mean else None,
    )


class TestSplit:
    def test_sizes(self):
        tr, te = split(_toy(10), SplitSpec(0.7, seed=42))
        assert (tr.n, te.n) == (7, 3)

    def test_deterministic(self):
        ds = _toy(30)
        tr1, te1 = split(ds, SplitSpec(0.5, seed=9))
        tr2, te2 = split(ds, SplitSpec(0.5, seed=9))
        np.testing.assert_array_equal(tr1.features, tr2.features)
        np.testing.assert_array_equal(te1.targets, te2.targets)

    def test_n2(self):
        tr, te = split(_toy(2), SplitSpec(0.7, seed=0))
        assert (tr.n, te.n) == (1, 1)

    def test_partition(self):
        ds = _toy(25)
        tr, te = split(ds, SplitSpec(0.6, seed=3))
        merged = np.sort(np.concatenate([tr.targets, te.targets]))
        np.testing.assert_array_equal(merged, np.sort(ds.targets))

    def test_true_mean_carried(self):
        ds = _toy(12, with_mean=True)
        tr, te = split(ds, SplitSpec(0.5, seed=1))
        assert tr.true_mean is not None and te.true_mean is not None
        # each row's (target, true_mean) pairing is preserved
        pairs = {(t, m) for t, m in zip(ds.targets, ds.true_mean)}
        for part in (tr, te):
            assert {(t, m) for t, m in zip(part.targets, part.true_mean)} <= pairs

    def test_degenerate(self):
        with pytest.raises(DataError, match="degenerate"):
            split(_toy(2), SplitSpec(0.2, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            SplitSpec(1.0, seed=0)


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        ds = Dataset(features=np.array([[1.0], [2.0], [3.0]]), targets=np.zeros(3))
        st = fit_standardizer(ds)
        out = apply_standardizer(st, ds)
        assert abs(out.features[:, 0].mean()) < 1e-10
        assert abs(out.features[:, 0].std() - 1.0) < 1e-10

    # 0.1 summed over the rows and divided by their count is not 0.1 again, and a
    # mean that misses the column's value by a rounding error left a std of that
    # error's size, so the column standardized to -1 or 1
    @pytest.mark.parametrize("value, rows", [(5.0, 3), (0.1, 3), (0.1, 7), (0.1, 4200)])
    def test_constant_column_maps_to_zero(self, value, rows):
        other = np.arange(rows, dtype=np.float64)
        ds = Dataset(features=np.column_stack([other, np.full(rows, value)]), targets=other)
        st = fit_standardizer(ds)
        assert st.mean[1] == value and st.std[1] == 1.0
        np.testing.assert_array_equal(st.transform(ds.features)[:, 1], np.zeros(rows))
        near = st.transform(np.array([[0.0, value + 1e-7]]))[0, 1]
        assert abs(near - 1e-7) < 1e-15

    @pytest.mark.parametrize("rows", [2, 3, BATCH_CHUNK_ROWS, BATCH_CHUNK_ROWS + 1, 2500])
    def test_moments_match_numpy(self, rows):
        rng = np.random.default_rng(rows)
        X = rng.normal(loc=[0.0, 3.0, -1e3], scale=[1.0, 0.5, 7.0], size=(rows, 3))
        st = fit_standardizer(Dataset(features=X, targets=np.zeros(rows)))
        eps = np.finfo(np.float64).eps
        mean, std = X.mean(axis=0), X.std(axis=0)
        # the product sums round as a sum in any order does, within rows eps of each
        # term; the two-pass variance's error in the mean enters only squared
        assert np.all(np.abs(st.mean - mean) <= 2 * rows * eps * np.abs(X).mean(axis=0))
        assert np.all(np.abs(st.std - std) <= 4 * rows * eps * std)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # 60 000 rows are long enough for a threaded BLAS to split an unchunked column sum
        env = {**os.environ, "PYTHONPATH": str(Path(cairoreg.__path__[0]).parent)}

        def bits(threads):
            run = subprocess.run(
                [sys.executable, "-c", _STANDARDIZER_BITS],
                env={**env, "OPENBLAS_NUM_THREADS": str(threads)},
                capture_output=True,
                text=True,
                check=True,
            )
            return run.stdout

        one, two = bits(1), bits(2)
        assert len(one.split()) == 2
        assert one == two

    @pytest.mark.parametrize("shape", [(1, 1), (200, 3), (4200, 10)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_transform_gives_the_bits_of_the_broadcast_and_leaves_x_alone(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        X = (rng.standard_t(2, size=shape) * 100).astype(dtype)
        st = Standardizer(rng.normal(size=shape[1]) * 50, rng.uniform(0.1, 30, size=shape[1]))
        before = X.copy()
        got = st.transform(X)
        want = (np.asarray(X, dtype=np.float64) - st.mean) / st.std
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert X.tobytes() == before.tobytes()
        assert st.transform(X.tolist()).tobytes() == want.tobytes()

    def test_round_trip(self):
        ds = _toy(40, seed=2)
        st = fit_standardizer(ds)
        back = st.transform(ds.features) * st.std + st.mean
        np.testing.assert_allclose(back, ds.features, atol=1e-12)

    def test_preserves_column_order(self):
        ds = _toy(50, seed=4)
        st = fit_standardizer(ds)
        col = ds.features[:, 0]
        out = st.transform(ds.features)[:, 0]
        np.testing.assert_array_equal(np.argsort(col), np.argsort(out))


# Prints a hash of the mean and of the std that fit_standardizer gives 60 000 x 10 rows.
_STANDARDIZER_BITS = """
import hashlib
import numpy as np
from cairoreg.data import Dataset, fit_standardizer
rng = np.random.default_rng(7)
X = rng.normal(loc=np.arange(10.0), size=(60_000, 10))
st = fit_standardizer(Dataset(features=X, targets=np.zeros(len(X))))
print(hashlib.sha256(st.mean).hexdigest(), hashlib.sha256(st.std).hexdigest())
"""


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    c = make_rng(124).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "obj",
    [
        ScenarioSpec(Scenario.HEAVY_TAIL, n=300, d=7, seed=11, raw_lognormal=True),
        FitHyper(epochs=3, batch_size=17, learning_rate=0.1 + 0.2, sigma=2.5, temperature=1e-3),
        BenchConfig(
            scenarios=(Scenario.NORMAL, Scenario.HEAVY_TAIL),
            models=("ranknet", "nn-mse"),
            learning_rate=3e-4,
            overrides={"nn-mse": {"epochs": 400}, "ranknet": {"sigma": 0.5}},
        ),
        PairwiseSurrogate(WeightVariant.ABSOLUTE_GAP, 0.1 + 0.2),
        SoftGini(1 / 3),
        PointwiseMse(),
        Standardizer(np.array([0.1 + 0.2, -1e-300, 5.0]), np.array([1 / 3, 2.0, 1e300])),
        CalibrationMap(np.array([-1.5, 1 / 3, 2.0]), np.array([0.1 + 0.2, 0.4, 1e17])),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_codec_round_trip_is_exact(obj):
    text = json.dumps(config_to_dict(obj))
    back = config_from_dict(type(obj), json.loads(text), "obj")
    assert json.dumps(config_to_dict(back)) == text
    for f in fields(obj):
        assert type(getattr(back, f.name)) is type(getattr(obj, f.name)), f.name
    if not isinstance(obj, (Standardizer, CalibrationMap)):  # arrays have no plain ==
        assert back == obj
