import numpy as np
import pytest

from stochmann.errors import ValidationError, check_number


def test_check_number():
    # bool, non-numbers, non-finite values and ints past the float64 range
    # are refused, each with the path in the message
    for value in (True, np.bool_(False), "1", None, [1.0], float("nan"),
                  float("inf"), -np.inf, 10**400):
        with pytest.raises(ValidationError, match=r"^field: must be a finite"):
            check_number(value, "field")
    with pytest.raises(ValidationError, match="integer"):
        check_number(2.5, "n", integer=True)
    # each bound kind, at its edge
    for limits, inside, edge in (({"minimum": 0}, 0, -1e-300),
                                 ({"exclusive_min": 0}, 1e-300, 0),
                                 ({"maximum": 0.5}, 0.5, 0.5000000000000001),
                                 ({"exclusive_max": 1}, 0.9999999999999999, 1)):
        assert check_number(inside, "x", **limits) == inside
        with pytest.raises(ValidationError):
            check_number(edge, "x", **limits)
    # bounds compare the value itself, not its float: 2**64 - 1 rounds up
    # to 2**64 as a float
    assert check_number(2**64 - 1, "seed", integer=True,
                        exclusive_max=2**64) == 2**64 - 1
    # an int, or a float, whatever numeric type came in
    for value, integer, expected in ((3, False, float),
                                     (np.float32(0.5), False, float),
                                     (3.0, True, int), (np.int64(7), True, int),
                                     (np.uint64(2**63), True, int)):
        assert type(check_number(value, "x", integer=integer)) is expected
    assert check_number(3.0, "n", integer=True) == 3
