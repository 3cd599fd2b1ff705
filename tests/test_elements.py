import numpy as np
import pytest

from unrectify import Affine, Identity, Linear


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Linear(np.ones(3)), r"^weight must be a non-empty 2-D matrix, got shape \(3,\)$"),
        (lambda: Linear(np.ones((0, 3))), r"^weight must be a non-empty 2-D matrix, got shape \(0, 3\)$"),
        (lambda: Affine(np.eye(2), np.ones(3)), r"^bias must have length 2, got \(3,\)$"),
        (lambda: Affine(np.eye(2), np.array([1.0, np.inf])), "^bias entries must be finite$"),
        (lambda: Identity(0), "^identity dimension must be positive$"),
    ],
    ids=["one_axis_weight", "empty_weight", "bias_of_wrong_length", "non_finite_bias", "identity_of_no_dimension"],
)
def test_elements_reject_bad_weights_biases_and_sizes(make, message):
    with pytest.raises(ValueError, match=message):
        make()
