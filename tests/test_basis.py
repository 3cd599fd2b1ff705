import numpy as np
import pytest

from conftest import cpwl_reference, random_cpwl_spec
from unrectify import (
    CpwlSpec,
    PoolSpec,
    TransformSpec,
    abs_spec,
    activation_bound,
    cpwl_eval,
    hard_tanh_spec,
    leaky_relu_spec,
    maxlu2,
    relu_spec,
    transform_eval,
    uniform_bound,
    unrectify,
)
from unrectify.basis import cpwl_slope_offset, pool_ids, pool_values
from unrectify.elements import Activation, Affine, Linear, Transform


def test_relu_eval_values():
    relu = relu_spec()
    assert cpwl_eval(relu, -2.0) == 0.0
    assert cpwl_eval(relu, 3.0) == 3.0


def test_abs_eval():
    assert cpwl_eval(abs_spec(), -2.0) == 2.0


def test_leaky_relu_matches_closed_form():
    spec = leaky_relu_spec(0.1)
    xs = np.linspace(-5, 5, 2001)
    ref = np.where(xs > 0, xs, 0.1 * xs)
    assert np.abs(cpwl_eval(spec, xs) - ref).max() <= 1e-12


def test_hard_tanh_matches_closed_form():
    xs = np.linspace(-4, 4, 4001)
    assert np.abs(cpwl_eval(hard_tanh_spec(), xs) - np.clip(xs, -1, 1)).max() <= 1e-12


def test_random_specs_match_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = random_cpwl_spec(rng)
        xs = rng.uniform(-6, 6, size=500)
        ref = np.array([cpwl_reference(spec, float(x)) for x in xs])
        assert np.abs(cpwl_eval(spec, xs) - ref).max() <= 1e-12


def test_cpwl_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        cpwl_eval(relu_spec(), np.array([1.0, np.nan]))


def test_empty_spec_rejected():
    with pytest.raises(ValueError):
        CpwlSpec()
    with pytest.raises(ValueError):
        CpwlSpec(right_pieces=((np.inf, 0.0),))


def test_unrectify_relu_pattern():
    pattern = unrectify(relu_spec(), np.array([-1.0, 2.0]))
    assert pattern.entries.tolist() == [0.0, 1.0]
    assert pattern.offsets.tolist() == [0.0, 0.0]


def test_unrectify_abs_signed_entries():
    x = np.array([-2.0, 3.0])
    pattern = unrectify(abs_spec(), x)
    assert pattern.entries.tolist() == [-1.0, 1.0]
    assert np.array_equal(pattern.entries * x, np.abs(x))


def test_unrectify_boundary_is_inactive():
    pattern = unrectify(relu_spec(), np.array([0.0]))
    assert pattern.entries.tolist() == [0.0]
    assert pattern.piece_ids.tolist() == [0]


def test_unrectify_identity_many_inputs():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-10, 10, size=100_000)
    for spec in (relu_spec(), abs_spec(), leaky_relu_spec(0.1), hard_tanh_spec()):
        pattern = unrectify(spec, xs)
        recon = pattern.entries * xs + pattern.offsets
        assert np.abs(recon - cpwl_eval(spec, xs)).max() <= 1e-12


def test_unrectify_pure_linear_identity_for_origin_specs():
    # Specs whose pieces all cross the origin satisfy entry * x exactly.
    rng = np.random.default_rng(12)
    xs = rng.uniform(-10, 10, size=10_000)
    for spec in (relu_spec(), abs_spec(), leaky_relu_spec(0.3)):
        pattern = unrectify(spec, xs)
        assert np.abs(pattern.entries * xs - cpwl_eval(spec, xs)).max() <= 1e-12


def test_pattern_depends_only_on_breakpoint_side():
    spec = random_cpwl_spec(np.random.default_rng(3))
    knots = spec.breakpoints()
    lo, hi = knots[0], knots[-1]
    a = unrectify(spec, np.array([hi + 1.0, hi + 2.0]))
    assert a.piece_ids[0] == a.piece_ids[1]
    assert a.entries[0] == a.entries[1]


def test_activation_bound_named_specs():
    assert activation_bound(relu_spec()) == 1.0
    assert activation_bound(leaky_relu_spec(0.1)) == 1.0
    assert activation_bound(hard_tanh_spec()) == 1.0
    assert activation_bound(abs_spec()) == 1.0


def test_activation_bound_matches_grid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_cpwl_spec(rng, max_side=2)
        bound = activation_bound(spec)
        xs = np.linspace(-8, 8, 40_001)
        slopes, _ = cpwl_slope_offset(spec, xs)
        grid_max = np.abs(slopes).max()
        assert grid_max <= bound + 1e-12
        assert bound <= grid_max + 1e-12
        # away from breakpoints the entries are finite-difference slopes
        h = 1e-7
        mids = xs[np.all(np.abs(xs[:, None] - np.array(spec.breakpoints())) > 1e-3, axis=1)][::500]
        fd = (cpwl_eval(spec, mids + h) - cpwl_eval(spec, mids - h)) / (2 * h)
        sl, _ = cpwl_slope_offset(spec, mids)
        assert np.abs(fd - sl).max() <= 1e-5


def test_maxlu2_cases():
    assert maxlu2([3.0, 1.0]) == (3.0, "sel_left")
    assert maxlu2([-1.0, -2.0]) == (0.0, "dead")
    assert maxlu2([1.0, 1.0]) == (1.0, "sel_left")


def test_maxlu2_right_selection():
    value, symbol = maxlu2([0.5, 2.0])
    assert value == 2.0 and symbol == "sel_right"


def test_pool_values_and_ids():
    spec = PoolSpec(block=2, rectified=True)
    x = np.array([3.0, 1.0, -1.0, -2.0, 0.5, 2.0])
    assert pool_values(spec, x).tolist() == [3.0, 0.0, 2.0]
    assert pool_ids(spec, x).tolist() == [1, 0, 2]
    plain = PoolSpec(block=3, rectified=False)
    y = np.array([-5.0, -7.0, -6.0])
    assert pool_values(plain, y).tolist() == [-5.0]
    assert pool_ids(plain, y).tolist() == [1]


# the check's one-pass sum overflows (or meets inf - inf) on these inputs
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rectified", [True, False])
def test_pool_values_reject_only_non_finite_entries(rectified):
    spec = PoolSpec(block=2, rectified=rectified)
    # finite entries whose sum overflows still pool
    big = np.array([[1e308, 1e308, -1e308, 1.0], [1e308, -1e308, -1e308, -1e308]])
    assert pool_values(spec, big).tolist() == [[1e308, 1.0], [1e308, 0.0 if rectified else -1e308]]
    for bad in (-np.inf, np.inf, np.nan):
        for x in (np.array([bad, 0.5]), np.array([[0.5, 1.0], [0.5, bad]])):
            with pytest.raises(ValueError, match="^activation input must be finite$"):
                pool_values(spec, x)


def test_pool_block_validation():
    with pytest.raises(ValueError):
        PoolSpec(block=1)
    with pytest.raises(ValueError):
        pool_values(PoolSpec(block=2), np.ones(5))


def test_softmax_symmetry_and_simplex():
    spec = TransformSpec("softmax", scale=1.0)
    out = transform_eval(spec, np.array([0.0, 0.0]))
    assert np.allclose(out, [0.5, 0.5])
    rng = np.random.default_rng(0)
    batch = transform_eval(spec, rng.standard_normal((50, 7)))
    assert np.allclose(batch.sum(axis=1), 1.0)
    assert (batch > 0).all() and (batch < 1).all()


def test_softmax_overflow_guard():
    out = transform_eval(TransformSpec("softmax"), np.array([1e4, 0.0]))
    assert np.isfinite(out).all()


def test_tanh_zero():
    assert np.array_equal(transform_eval(TransformSpec("tanh"), np.zeros(4)), np.zeros(4))


@pytest.mark.parametrize(
    "spec",
    [TransformSpec("softmax", scale=2.0), TransformSpec("sigmoid"), TransformSpec("tanh")],
)
def test_transform_contraction(spec):
    rng = np.random.default_rng(17)
    xs = rng.standard_normal((10_000, 6))
    ys = rng.standard_normal((10_000, 6))
    num = np.linalg.norm(transform_eval(spec, xs) - transform_eval(spec, ys), axis=1)
    den = np.linalg.norm(xs - ys, axis=1)
    keep = den > 1e-9
    assert (num[keep] / den[keep]).max() <= spec.lipschitz_bound + 1e-9


def test_transform_rejects_non_finite():
    with pytest.raises(ValueError):
        transform_eval(TransformSpec("sigmoid"), np.array([np.inf]))


def test_uniform_bound_rules():
    relu_elem = Activation(relu_spec(), 3)
    soft = Transform(TransformSpec("softmax", scale=2.0), 3)
    assert uniform_bound([relu_elem]) == 1.0
    assert uniform_bound([relu_elem, soft]) == 2.0
    maxlu_elem = Activation(PoolSpec(2, rectified=True), 4)
    assert uniform_bound([relu_elem, maxlu_elem]) == 1.0


def test_uniform_bound_warns_without_nonlinearity():
    with pytest.warns(UserWarning):
        assert uniform_bound([Affine(np.eye(2))]) == 1.0


def _selection_inputs(rng, n):
    """1-D, one-row, batch and Fortran-ordered inputs, all holding +-0.0."""
    batch = rng.standard_normal((6, n))
    batch[rng.random(batch.shape) < 0.3] = -0.0
    batch[rng.random(batch.shape) < 0.1] = 0.0
    batch[0] = -np.abs(batch[0])  # a row whose every product term is -0.0 or negative
    return [batch[1], batch[:1], batch, np.asfortranarray(batch), np.asfortranarray(batch.T).T]


def test_selection_weights_give_the_bytes_of_the_dense_product():
    rng = np.random.default_rng(40)
    for trial in range(60):
        n, k = (int(v) for v in rng.integers(1, 40, 2))
        cols = rng.integers(0, n, k)  # repeated columns included
        if trial == 0:
            cols = np.zeros(k, dtype=int)
        w = np.zeros((k, n))
        w[np.arange(k), cols] = 1.0
        bias = rng.standard_normal(k)
        bias[rng.random(k) < 0.3] = -0.0
        for elem in (Linear(w), Affine(w), Affine(w, bias)):
            assert np.array_equal(elem.selection, cols)
            for x in _selection_inputs(rng, n):
                dense = x @ w.T
                if elem.bias is not None:
                    dense = dense + elem.bias
                got = elem.pre_activation(x)
                assert (got.shape, got.strides) == (dense.shape, dense.strides)
                assert got.tobytes() == dense.tobytes()
                product = elem.weight_product(x)
                assert (product.strides, product.tobytes()) == ((x @ w.T).strides, (x @ w.T).tobytes())


def test_near_selections_stay_on_the_dense_product():
    rng = np.random.default_rng(41)
    base = np.zeros((4, 5))
    base[np.arange(4), [1, 0, 4, 1]] = 1.0
    assert np.array_equal(Linear(base).selection, [1, 0, 4, 1])
    near = []
    for row, col, value in ((2, 4, 2.0), (2, 4, -1.0), (0, 3, 0.5), (3, 1, -0.0), (3, 1, 0.0)):
        w = base.copy()
        w[row, col] = value  # an entry of 2.0 or -1.0, two entries in a row, a -0.0, a zero row
        near.append(w)
    near.append(base[::-1].copy())  # the first row passes, a later one does not
    near[-1][-1, 1] = 3.0
    near.append(base.copy())  # two 1.0 entries in a row
    near[-1][2, 0] = 1.0
    near.append(near[-1].copy())  # ... and a zero row, so the count of entries is the row count
    near[-1][3, 1] = 0.0
    for w in near:
        elem = Affine(w, rng.standard_normal(4))
        assert elem.selection is None
        for x in _selection_inputs(rng, 5):
            assert elem.pre_activation(x).tobytes() == (x @ w.T + elem.bias).tobytes()
    assert Activation(relu_spec(), 3).selection is None
