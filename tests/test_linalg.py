import math
import sys

import numpy as np
import pytest

from mutindep import _kernels
from mutindep.errors import DegenerateDataError, NotPositiveDefiniteError
from mutindep.linalg import (
    CorrelationModel,
    DataMatrix,
    _correlations,
    sample_correlation,
)
from mutindep.mdi import mdi_statistics
from mutindep.partitions import Bipartition
from mutindep.randomness import RngStream, sample_mvn, sample_wishart_correlation

import oracles


def logdet(matrix):
    """log det R as every statistic reads it: the full-matrix entry of the
    kernel's table of subset log-determinants."""
    return _kernels._subset_logdets(np.array(matrix, dtype=np.float64))[-1]


def test_logdet_identity():
    for dim in (1, 2, 5, 12):
        assert logdet(np.eye(dim)) == pytest.approx(0.0, abs=1e-14)


def test_logdet_2x2_closed_form():
    for rho in (-0.9, -0.3, 0.0, 0.5, 0.99):
        m = [[1.0, rho], [rho, 1.0]]
        assert logdet(m) == pytest.approx(math.log(1 - rho**2), abs=1e-12)


def test_logdet_singular_raises():
    one_split = np.array([1], dtype=np.uint64)
    for m in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]):
        lds = _kernels._subset_logdets(np.array(m))
        assert np.isnan(_kernels.mdi_statistic_batch(lds, one_split, 10)).all()
        assert _kernels.first_failure(lds, one_split).part == "full"
    with pytest.raises(NotPositiveDefiniteError) as err:
        mdi_statistics(CorrelationModel([[1.0, 1.0], [1.0, 1.0]], 10), [Bipartition(2, 1)])
    assert err.value.part == "full"


def test_logdet_matches_cofactor_oracle():
    rng = RngStream(20260806)
    for _ in range(300):
        dim = int(rng.generator.integers(1, 6))
        r = sample_wishart_correlation(dim, rng)
        expected = math.log(oracles.det_cofactor(r))
        assert logdet(r) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_data_matrix_validation():
    with pytest.raises(ValueError):
        DataMatrix([[1.0, 2.0]])  # single row
    with pytest.raises(ValueError):
        DataMatrix([1.0, 2.0, 3.0])  # one-dimensional
    with pytest.raises(ValueError):
        DataMatrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="sample count of at least 3, got 2"):
        DataMatrix([[1.0, 2.0], [3.0, 4.0]])  # two rows correlate at +-1
    dm = DataMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    assert (dm.k, dm.n) == (3, 2)
    with pytest.raises(ValueError):
        dm.values[0, 0] = 9.0  # immutable


def test_correlation_model_validation():
    with pytest.raises(ValueError):
        CorrelationModel([[1.0, 0.5], [0.4, 1.0]], 10)  # asymmetric
    with pytest.raises(ValueError):
        CorrelationModel([[1.1, 0.0], [0.0, 1.0]], 10)  # bad diagonal
    with pytest.raises(ValueError):
        CorrelationModel([[1.0, 1.5], [1.5, 1.0]], 10)  # out of range
    with pytest.raises(ValueError):
        CorrelationModel(np.eye(3), 1)  # sample count too small
    # two rows correlate at +-1, so no model has fewer than 3
    with pytest.raises(ValueError, match="sample count of at least 3, got 2"):
        CorrelationModel(np.eye(3), 2)
    # k - 1 must be a finite float: the largest float is the last count
    assert CorrelationModel(np.eye(3), int(sys.float_info.max)).k == int(sys.float_info.max)
    with pytest.raises(ValueError, match=r"at most 1\.7976931348623157e\+308$"):
        CorrelationModel(np.eye(3), int(sys.float_info.max) + 1)
    with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
        CorrelationModel(np.eye(3)[:2], 10)
    model = CorrelationModel(np.eye(3), 5)
    assert (model.n, model.k) == (3, 5)


@pytest.mark.parametrize("k", [10.7, 3.9, 300.0, np.float64(300.0), "300", None])
def test_sample_count_must_be_an_integer(k):
    # int(k) ran 10.7 as 10 and "300" as 300: every statistic scales by k - 1
    with pytest.raises(ValueError, match=r"^k: .* is not an integer$"):
        CorrelationModel(np.eye(3), k)


def test_sample_count_stores_numpy_integers_as_ints():
    for k in (np.int64(300), np.uint16(300), np.int32(300)):
        model = CorrelationModel(np.eye(3), k)
        assert model.k == 300 and type(model.k) is int


def test_sample_correlation_perfect_and_anti():
    x = np.arange(10.0)
    model = sample_correlation(DataMatrix(np.column_stack([x, x])))
    assert model.r[0, 1] == pytest.approx(1.0, abs=1e-12)
    model = sample_correlation(DataMatrix(np.column_stack([x, -x])))
    assert model.r[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_sample_correlation_hand_example():
    data = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]]
    model = sample_correlation(DataMatrix(data))
    assert model.r[0, 1] == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)
    assert model.k == 4


def test_sample_correlation_constant_column_named():
    data = np.column_stack([np.arange(5.0), np.full(5, 3.0), np.arange(5.0) ** 2])
    with pytest.raises(DegenerateDataError, match="2"):
        sample_correlation(DataMatrix(data))
    # a constant whose mean rounds away from it, and constants at any scale
    for value in (0.1, 1.0 / 3.0, 1e-300, -1e300, 5e-324, 0.0):
        data = np.column_stack([np.arange(300.0), np.full(300, value)])
        with pytest.raises(DegenerateDataError, match=r"column\(s\) 2 are constant"):
            sample_correlation(DataMatrix(data))
    # tiny or huge columns that vary are not constant, and correlate as the
    # unscaled data do
    rng = RngStream(20260808)
    x = rng.generator.standard_normal((300, 3))
    x[:, 1] = x[:, 0] + 0.3 * rng.generator.standard_normal(300)
    r = sample_correlation(DataMatrix(x)).r
    for scale in (1e-300, 1e-170, 1e170, 1e300):
        scaled = sample_correlation(DataMatrix(x * scale)).r
        np.testing.assert_allclose(scaled, r, rtol=0, atol=1e-15)


def test_stacked_correlations_are_the_single_matrix_ones_bit_for_bit():
    # samples-first stacks (k, data sets, n), with a duplicated column in
    # the last data set: each data set's matrix is its own model's, and up
    # to n = 10 so is the subset table built with the stack
    rng = RngStream(20260809)
    scales = (1.0, 3.7, 1e-3, 1e5, 2.0**990, 2.0**-990, 1e-300, 1e300)
    cases = [(n, k) for n in range(3, 11) for k in (n + 1, 50, 300)]
    for n, k in cases + [(14, 2000), (20, 21), (20, 2000)]:
        mix = rng.generator.standard_normal((n, n))
        stack = rng.generator.standard_normal((k, 2 * len(scales), n)) @ mix
        stack[:, : len(scales)] *= np.array(scales)[:, None]
        # per-column scales, one of each per column in turn
        stack[:, len(scales):] *= np.resize(scales, n)
        stack[:, -1, -1] = stack[:, -1, 0]
        r, constant = _correlations(stack)
        assert r.shape == (2 * len(scales), n, n) and not constant.any()
        tables = _kernels._subset_logdets(r) if n <= 10 else [None] * len(r)
        for i, (matrix, table) in enumerate(zip(r, tables)):
            single = sample_correlation(DataMatrix(stack[:, i]))
            assert matrix.tobytes() == single.r.tobytes()
            if table is not None:
                # the table built with the stack is the one a model builds
                assert table.tobytes() == single.logdets.tobytes()
        # a stack of one is the 2-D data matrix
        one, _ = _correlations(stack[:, :1])
        assert one[0].tobytes() == _correlations(stack[:, 0])[0].tobytes()
    # a constant column flags its own data set and column only
    for n, k in ((3, 30), (20, 2000)):
        stack = rng.generator.standard_normal((k, 4, n))
        stack[:, 2, 1] = 0.1
        r, constant = _correlations(stack)
        assert constant.tolist() == [[False] * n] * 2 + [
            [False, True] + [False] * (n - 2), [False] * n]
        for i in (0, 1, 3):
            assert r[i].tobytes() == sample_correlation(stack[:, i]).r.tobytes()
        assert r[2].tobytes() == _correlations(stack[:, 2])[0].tobytes()
        with pytest.raises(DegenerateDataError, match=r"column\(s\) 2 are constant"):
            sample_correlation(stack[:, 2])


def test_a_buffers_leading_slices_are_its_data_sets_prefix_correlations():
    # one samples-first buffer, filled a data set at a time as a campaign
    # chunk is: the leading slice of each size correlates each data set's
    # first size samples
    rng = RngStream(20261021)
    data = np.empty((300, 5, 6))
    for i in range(data.shape[1]):
        data[:, i] = sample_mvn(sample_wishart_correlation(6, rng), 300, rng).values
    for size in (7, 50, 123, 300):
        r, constant = _correlations(data[:size])
        assert not constant.any()
        for i, matrix in enumerate(r):
            assert matrix.tobytes() == sample_correlation(data[:size, i]).r.tobytes()


def test_a_model_keeps_its_subset_table():
    model = CorrelationModel([[1.0, 0.6], [0.6, 1.0]], 10)
    table = model.logdets
    assert model.logdets is table and not table.flags.writeable
    assert table.tobytes() == _kernels._subset_logdets(model.r).tobytes()
    assert table[-1] == pytest.approx(math.log(1 - 0.36), abs=1e-15)


def test_sample_correlation_needs_three_rows():
    with pytest.raises(ValueError):
        sample_correlation(DataMatrix([[0.0, 1.0], [1.0, 0.0]]))


def test_sample_correlation_unit_diagonal_and_symmetry():
    rng = RngStream(20260807)
    data = DataMatrix(rng.generator.standard_normal((40, 5)))
    model = sample_correlation(data)
    assert np.allclose(model.r, model.r.T)
    assert np.allclose(np.diag(model.r), 1.0)
    assert np.abs(model.r).max() <= 1.0
