import math

import numpy as np
import pytest

from mutindep import _kernels
from mutindep.errors import DegenerateDataError, NotPositiveDefiniteError
from mutindep.linalg import CorrelationModel, DataMatrix, sample_correlation
from mutindep.randomness import RngStream, sample_wishart_correlation

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
        with pytest.raises(NotPositiveDefiniteError) as err:
            _kernels.mdi_statistic_batch(np.array(m), one_split, 10)
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
    dm = DataMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert (dm.k, dm.n) == (2, 2)
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
    model = CorrelationModel(np.eye(3), 5)
    assert (model.n, model.k) == (3, 5)


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
