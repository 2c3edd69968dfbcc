import numpy as np
import pytest

from cairoreg.data import (
    DataError,
    Dataset,
    SplitSpec,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    make_rng,
    split,
    write_csv,
    write_numeric_csv,
)


def test_load_csv_basic(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("x1,y\n0,1\n1,2\n2,3\n")
    ds = load_csv(f, "y")
    assert ds.n == 3 and ds.d == 1
    np.testing.assert_array_equal(ds.targets, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.features[:, 0], [0.0, 1.0, 2.0])
    assert ds.feature_names == ["x1"]


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


def test_dataset_rejects_nan():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(features=np.array([[1.0], [np.nan]]), targets=np.array([1.0, 2.0]))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(DataError):
        Dataset(features=np.zeros((3, 2)), targets=np.zeros(2))


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
