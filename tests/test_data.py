import json
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import read_numeric_csv_oracle, write_numeric_csv_oracle

from cairoreg.bench import BenchConfig
from cairoreg.data import (
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
    with pytest.raises(DataError, match=r"row 1.*'x1'"):
        load_csv(f, "y")


def test_load_csv_non_finite_value_names_row(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,y\n0,1\n1,inf\n2,nan\n")
    with pytest.raises(DataError, match="non-finite value at row 1$"):
        load_csv(f, "y")
    # the cells are parsed before finiteness is checked, so a later bad cell is reported
    f.write_text("x1,y\n0,1\n1,inf\nabc,3\n")
    with pytest.raises(DataError, match=r"non-numeric cell 'abc' at row 2"):
        load_csv(f, "y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing file"):
        load_csv(tmp_path / "nope.csv", "y")


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


# Cells float() accepts with a finite value, including three that np.loadtxt
# rejects: 1_000, a fullwidth digit and an Arabic-Indic digit.
_FINITE_CELLS = ["0", "-0", "1.5", " 1.5", "1.5 ", "+1", ".5", "5.", "1e3", "1_000", "１", "١"]
_OTHER_CELLS = ["abc", "1d5", "0x10", "", "--1", "1.0j", "NaN", "Infinity", "-inf", "1e400"]


@st.composite
def _csv_texts(draw):
    """CSV text: a header, then rows of many kinds, in any line endings.

    The header's names are distinct but for one in five. The body mixes
    blank lines and good rows, which hold one finite number per column,
    some of them quoted, with up to two odd rows: a good row with one cell
    from _OTHER_CELLS, with an empty trailing cell or without its last cell,
    or any number of good cells.
    """
    width = draw(st.integers(1, 4))
    names = ["a", "b", "x 1", "__target", '"a,b"', '"q""t"']
    header = draw(st.lists(st.sampled_from(names), min_size=width, max_size=width, unique=True))
    if width > 1 and draw(st.integers(0, 4)) == 0:
        header[-1] = header[0]
    finite = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(_FINITE_CELLS)
    )
    cell = st.builds(lambda text, quoted: f'"{text}"' if quoted else text, finite, st.booleans())
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
def test_read_numeric_csv_matches_the_list_of_rows_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _read(read_numeric_csv, path) == _read(read_numeric_csv_oracle, path)


def test_read_numeric_csv_peak_memory_is_near_its_result(tmp_path):
    rng = make_rng(3)
    path = tmp_path / "wide.csv"
    write_numeric_csv(path, [f"x{j}" for j in range(12)], list(rng.normal(size=(12, 20_000))))
    tracemalloc.start()
    try:
        _, matrix = read_numeric_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (20_000, 12)
    assert peak < 3 * matrix.nbytes, f"peak {peak / matrix.nbytes:.1f}x the result"


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

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(features=np.full((3, 1), 5.0), targets=np.zeros(3))
        st = fit_standardizer(ds)
        np.testing.assert_array_equal(st.transform(ds.features), np.zeros((3, 1)))

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


def test_make_rng_reproducible():
    a = make_rng(123).standard_normal(5)
    b = make_rng(123).standard_normal(5)
    c = make_rng(124).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "obj",
    [
        ScenarioSpec(
            Scenario.HEAVY_TAIL, n=300, d=7, seed=11, lognormal_scale=0.7, raw_lognormal=True
        ),
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
