"""Pins the worked-example data of kposi.examples to values written here.

The other test modules read their inputs from kposi.examples, so an edit
there would change a test's input and the library's answer together;
this module is what catches it.
"""

import numpy as np
import pytest

from kposi import examples


def pinned(actual, expected):
    np.testing.assert_array_equal(actual, np.asarray(expected, dtype=float), strict=True)


def test_example_1_dt_matrix_and_screen_witness():
    pinned(examples.DT_NO_DLF, np.array([[-4, -2, 1], [1, -3, -5], [7, 1, -2]]) / 7.0)
    assert examples.DT_SCREEN_WITNESS == ((1, 3), -8.0 / 461.0)


def test_example_2_ct_matrix_and_screen_witness():
    pinned(examples.CT_NO_DLF, [[-21, 11, -14], [18, -19, 37], [-49, 21, -33]])
    assert examples.CT_SCREEN_WITNESS == ((2, 3), -150.0)


def test_example_3_matrix_certificate_and_lyapunov_matrix():
    pinned(examples.CERT_3X3, np.array([[-4, -2, 0], [0, -3, -5], [7, 0, -2]]) / 8.0)
    pinned(examples.CERT_D_REF, [23.0 / 21.0, 13.0 / 8.0, 7.0 / 13.0])
    pinned(
        examples.CERT_P_REF,
        [np.sqrt(3887.0 / 1176.0), np.sqrt(184.0 / 507.0), np.sqrt(147.0 / 184.0)],
    )


def test_example_4_cyclic_matrix_and_initial_states():
    pinned(examples.CYCLIC_WEDGE, [[0.1, 1.9, 0.0], [0.0, 0.05, 1.95], [-0.01, 0.0, 2.01]])
    pinned(examples.WEDGE_A1, [0.5, 0.5, 0.5])
    pinned(examples.WEDGE_A2, [-0.5, 0.5, 0.4])


@pytest.mark.parametrize(
    "name",
    [
        "DT_NO_DLF",
        "CT_NO_DLF",
        "CERT_3X3",
        "CERT_D_REF",
        "CERT_P_REF",
        "CYCLIC_WEDGE",
        "WEDGE_A1",
        "WEDGE_A2",
    ],
)
def test_example_arrays_are_read_only(name):
    assert not getattr(examples, name).flags.writeable
