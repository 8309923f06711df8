"""Bundled example data.

The HIV asset is the published correlation summary of six blood-measurement
variables from an early-diagnosis study of HIV infection in children of
HIV-positive mothers (Roverato, 1999; 107 subjects).  Values are kept to
the three significant figures of the published table.
"""

import numpy as np

from .linalg import CorrelationModel

HIV_VARIABLE_NAMES = (
    "IgG",            # immunoglobin G
    "IgA",            # immunoglobin A
    "lymphocyteB",
    "platelet",
    "lymphocyteT4",
    "T4T8ratio",
)

HIV_SAMPLE_COUNT = 107

# Lower triangle of the correlation matrix, rows 2..6.
_HIV_LOWER = (
    (0.483,),
    (0.220, 0.057),
    (-0.040, -0.133, 0.149),
    (0.253, -0.124, 0.523, 0.179),
    (-0.276, -0.314, -0.183, 0.064, 0.213),
)


def hiv_correlation():
    """The 6x6 HIV correlation matrix as a fresh array."""
    r = np.eye(6)
    for i, row in enumerate(_HIV_LOWER, start=1):
        for j, value in enumerate(row):
            r[i, j] = value
            r[j, i] = value
    return r


def hiv_model():
    """The HIV correlation model (matrix plus sample count)."""
    return CorrelationModel(hiv_correlation(), HIV_SAMPLE_COUNT)
