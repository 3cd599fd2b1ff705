import warnings

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
from unrectify.basis import activation_eval, cpwl_piece_ids, cpwl_slope_offset, pool_ids, pool_values
from unrectify.elements import Activation, Affine, Transform
from unrectify.stability import _selection_columns


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


def _pool_ids_loop(spec, x):
    """Selection codes by a loop over blocks: the first maximum wins (the
    first NaN, if any); a rectified pool is dead unless it is above zero."""
    rows = np.asarray(x, dtype=float).reshape(-1, x.shape[-1] // spec.block, spec.block)
    out = np.zeros(rows.shape[:2], dtype=np.int64)
    for r, row in enumerate(rows):
        for b, block in enumerate(row):
            nan = [i for i, v in enumerate(block) if v != v]
            win = nan[0] if nan else max(range(spec.block), key=lambda i: (block[i], -i))
            alive = not spec.rectified or block[win] > 0.0
            out[r, b] = win + 1 if alive else 0
    return out.reshape(x.shape[:-1] + (x.shape[-1] // spec.block,))


@pytest.mark.parametrize("rectified", [True, False])
@pytest.mark.parametrize("block", [2, 3, 4])
def test_pool_ids_match_a_loop_over_blocks(rectified, block):
    rng = np.random.default_rng(40 + block)
    spec = PoolSpec(block=block, rectified=rectified)
    # few distinct values, so ties, signed zeros and dead blocks are common
    alphabet = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan])
    for shape in ((block * 5,), (7, block * 6), (2, 3, block * 4)):
        for p in (None, [0.1, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1], [0.3, 0.3, 0.2, 0.2, 0.0, 0.0, 0.0]):
            x = rng.choice(alphabet, size=shape, p=p)
            got = pool_ids(spec, x)
            assert got.dtype == np.int64 and got.shape == shape[:-1] + (shape[-1] // block,)
            assert np.array_equal(got, _pool_ids_loop(spec, x))
    # a non-contiguous view reads the same blocks as its copy
    x = rng.standard_normal((6, 4 * block))[:, ::2]
    assert np.array_equal(pool_ids(spec, x), _pool_ids_loop(spec, x.copy()))


def test_pool_values_take_finite_overflowing_input_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rectified in (True, False):
            spec = PoolSpec(block=2, rectified=rectified)
            assert pool_values(spec, np.array([1e308, 1e308, 1.0, 2.0])).tolist() == [1e308, 2.0]
            big = np.array([[-1e308, -1e308, 1e200, -1e300]])
            want = [[0.0 if rectified else -1e308, 1e200]]
            assert pool_values(spec, big).tolist() == want
            for bad in (-np.inf, np.inf, np.nan):
                with pytest.raises(ValueError, match="^activation input must be finite$"):
                    pool_values(spec, np.array([1e308, 1e308, bad, 2.0]))


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


def test_uniform_bound_is_one_without_nonlinearity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert uniform_bound([Affine(np.eye(2))]) == 1.0
        assert uniform_bound([]) == 1.0


def _selection_inputs(rng, n):
    """1-D, one-row, batch and Fortran-ordered inputs, all holding +-0.0."""
    batch = rng.standard_normal((6, n))
    batch[rng.random(batch.shape) < 0.3] = -0.0
    batch[rng.random(batch.shape) < 0.1] = 0.0
    batch[0] = -np.abs(batch[0])  # a row whose every product term is -0.0 or negative
    return [batch[1], batch[:1], batch, np.asfortranarray(batch), np.asfortranarray(batch.T).T]


def test_near_selections_stay_on_the_dense_product():
    rng = np.random.default_rng(41)
    base = np.zeros((4, 5))
    base[np.arange(4), [1, 0, 4, 1]] = 1.0
    assert np.array_equal(_selection_columns(base), [1, 0, 4, 1])
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
        assert _selection_columns(elem.weight) is None
        for x in _selection_inputs(rng, 5):
            assert elem.pre_activation(x).tobytes() == (x @ w.T + elem.bias).tobytes()


# The four activation kernels in their earlier form, one numpy reduction or
# zero-started sum each: the kernels must keep these outputs to the bit.
def _cpwl_eval_oracle(spec, x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("activation input must be finite")
    out = np.zeros_like(arr)
    for coeff, knot in spec.right_pieces:
        out += coeff * np.maximum(arr - knot, 0.0)
    for coeff, knot in spec.left_pieces:
        out += coeff * np.maximum(knot - arr, 0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _cpwl_piece_ids_oracle(spec, x):
    arr = np.asarray(x, dtype=float)
    ids = np.zeros(arr.shape, dtype=np.int64)
    for k, (_, knot) in enumerate(spec.right_pieces):
        ids |= (arr > knot).astype(np.int64) << k
    shift = len(spec.right_pieces)
    for k, (_, knot) in enumerate(spec.left_pieces):
        ids |= (arr < knot).astype(np.int64) << (shift + k)
    return ids


def _pool_values_oracle(spec, x):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("activation input must be finite")
    blocks = arr.reshape(*arr.shape[:-1], arr.shape[-1] // spec.block, spec.block)
    out = blocks.max(axis=-1)
    if spec.rectified:
        out = np.maximum(out, 0.0)
    return out


def _pool_ids_oracle(spec, x):
    arr = np.asarray(x, dtype=float)
    blocks = arr.reshape(*arr.shape[:-1], arr.shape[-1] // spec.block, spec.block)
    sel = np.argmax(blocks, axis=-1).ravel()
    ids = sel.astype(np.int64) + 1
    if spec.rectified:
        ids[~(blocks.reshape(-1, spec.block)[np.arange(len(sel)), sel] > 0.0)] = 0
    return ids.reshape(blocks.shape[:-1])


def _same_bits(got, want):
    if isinstance(want, float):
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


_ORACLE_SPECS = {
    "relu": relu_spec(),
    "abs": abs_spec(),
    "leaky_relu": leaky_relu_spec(0.1),
    "hard_tanh": hard_tanh_spec(),
    "knots_away_from_0": CpwlSpec(right_pieces=((2.0, 0.5), (-0.5, -1.0))),
    "negative_first_coefficient": CpwlSpec(right_pieces=((-1.0, 0.0), (2.0, 1.0))),
    "zero_first_coefficient": CpwlSpec(right_pieces=((0.0, 0.0), (1.0, -1.0))),
    "minus_0_coefficient": CpwlSpec(right_pieces=((-0.0, 1.0),)),
    "minus_0_coefficient_then_left": CpwlSpec(right_pieces=((-0.0, 1.0),), left_pieces=((1.0, 2.0),)),
    "knots_at_minus_0": CpwlSpec(right_pieces=((1.0, -0.0),), left_pieces=((-1.0, -0.0),)),
    "left_only": CpwlSpec(left_pieces=((1.0, 0.0), (-0.5, 2.0))),
    "left_only_negative": CpwlSpec(left_pieces=((-1.0, 0.0),)),
}

# signed zeros, knots (ties), subnormals, and ordinary values
_ALPHABET = np.array([-0.0, 0.0, 0.5, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 2e-308, -2e-308, 0.7, -3.1])


def _oracle_inputs(rng, width):
    x = rng.choice(_ALPHABET, size=(7, width))
    return [
        x,
        x[:1],
        x[3],
        np.asfortranarray(x),
        x[:, ::-1],  # a strided view
        np.empty((0, width)),
        np.asarray(x[2, 0]),  # 0-d
    ] + [float(v) for v in _ALPHABET]  # Python scalars


@pytest.mark.parametrize("name", _ORACLE_SPECS)
def test_cpwl_kernels_keep_their_bits(name):
    spec = _ORACLE_SPECS[name]
    rng = np.random.default_rng(23)
    for x in _oracle_inputs(rng, 12):
        _same_bits(cpwl_eval(spec, x), _cpwl_eval_oracle(spec, x))
        _same_bits(cpwl_piece_ids(spec, x), _cpwl_piece_ids_oracle(spec, x))


@pytest.mark.parametrize("rectified", [True, False])
@pytest.mark.parametrize("block", [2, 3, 4])
def test_pool_kernels_keep_their_bits(rectified, block):
    rng = np.random.default_rng(50 + block)
    spec = PoolSpec(block=block, rectified=rectified)
    for width in (block, 6 * block):
        for x in _oracle_inputs(rng, width)[:6]:
            _same_bits(pool_values(spec, x), _pool_values_oracle(spec, x))
            _same_bits(pool_ids(spec, x), _pool_ids_oracle(spec, x))
            # NaN entries, in some rows only: ids only, since values refuse them
            y = np.array(x, copy=True)
            y[::2][rng.random(y[::2].shape) < 0.4] = np.nan
            _same_bits(pool_ids(spec, y), _pool_ids_oracle(spec, y))
        # three axes
        z = rng.choice(_ALPHABET, size=(2, 3, width))
        _same_bits(pool_values(spec, z), _pool_values_oracle(spec, z))
        _same_bits(pool_ids(spec, z), _pool_ids_oracle(spec, z))


def _cpwl_slope_offset_oracle(spec, x):
    """``cpwl_slope_offset`` as it compared x with every knot, before it
    read the pieces from the id bits; kept as an oracle."""
    arr = np.asarray(x, dtype=float)
    slope = np.zeros(arr.shape)
    offset = np.zeros(arr.shape)
    for coeff, knot in spec.right_pieces:
        active = arr > knot
        slope += coeff * active
        offset -= coeff * knot * active
    for coeff, knot in spec.left_pieces:
        active = arr < knot
        slope -= coeff * active
        offset += coeff * knot * active
    return slope, offset


def _wide_specs():
    rng = np.random.default_rng(24)
    coeffs = [-2.0, -0.5, -0.0, 0.0, 0.3, 1.0, 2.5]
    knots = np.concatenate([_ALPHABET, np.linspace(-3.0, 3.0, 17)])
    pieces = [(float(rng.choice(coeffs)), float(rng.choice(knots))) for _ in range(62)]
    return {
        "45_right": CpwlSpec(right_pieces=[(0.1, k) for k in np.linspace(-3.0, 3.0, 45)]),
        "62_mixed": CpwlSpec(right_pieces=pieces[:31], left_pieces=pieces[31:]),
        "62_left": CpwlSpec(left_pieces=pieces),
    }


@pytest.mark.parametrize("name", [*_ORACLE_SPECS, *_wide_specs()])
def test_slopes_and_offsets_from_the_id_bits_keep_their_bits(name):
    spec = {**_ORACLE_SPECS, **_wide_specs()}[name]
    rng = np.random.default_rng(25)
    for x in _oracle_inputs(rng, 12):
        slope, offset = _cpwl_slope_offset_oracle(spec, x)
        got = cpwl_slope_offset(spec, x)
        _same_bits(got[0], slope)
        _same_bits(got[1], offset)
        pattern = unrectify(spec, x)
        _same_bits(pattern.entries, slope)
        _same_bits(pattern.offsets, offset)
        _same_bits(pattern.piece_ids, _cpwl_piece_ids_oracle(spec, x))
    # cpwl_slope_offset tests nothing for finiteness: NaN sits on no piece
    y = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for got, want in zip(cpwl_slope_offset(spec, y), _cpwl_slope_offset_oracle(spec, y)):
        _same_bits(got, want)


@pytest.mark.parametrize("name", [*_ORACLE_SPECS, *_wide_specs()])
def test_activation_eval_gives_the_cpwl_oracles_bits(name):
    spec = {**_ORACLE_SPECS, **_wide_specs()}[name]
    rng = np.random.default_rng(26)
    for x in _oracle_inputs(rng, 12):
        values, ids = activation_eval(spec, x)
        _same_bits(values, _cpwl_eval_oracle(spec, x))
        _same_bits(ids, _cpwl_piece_ids_oracle(spec, x))


@pytest.mark.parametrize("rectified", [True, False])
@pytest.mark.parametrize("block", [2, 3, 4])
def test_activation_eval_gives_the_pool_oracles_bits(rectified, block):
    rng = np.random.default_rng(60 + block)
    spec = PoolSpec(block=block, rectified=rectified)
    # blocks of signed zeros only: a tie the fold must break as the max reduction does
    zeros = rng.choice([-0.0, 0.0], size=(64, 4 * block))
    for width in (block, 6 * block):
        for x in _oracle_inputs(rng, width)[:6] + [zeros, zeros[:, ::-1], rng.choice(_ALPHABET, (2, 3, width))]:
            values, ids = activation_eval(spec, x)
            _same_bits(values, _pool_values_oracle(spec, x))
            _same_bits(ids, _pool_ids_oracle(spec, x))
    assert np.signbit(activation_eval(spec, zeros)[0]).any() != rectified


def test_activation_eval_refuses_non_finite_input():
    for act in (relu_spec(), PoolSpec(2), PoolSpec(3, rectified=False)):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="^activation input must be finite$"):
                activation_eval(act, np.array([1.0, 2.0, bad, 0.0, 1.0, 3.0]))


def test_cpwl_eval_takes_finite_input_near_overflow_without_warning():
    x = np.array([[1e308, -1e308, 1.7e308], [-1.7e308, 0.0, -0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (relu_spec(), abs_spec(), leaky_relu_spec(0.1), hard_tanh_spec()):
            _same_bits(cpwl_eval(spec, x), _cpwl_eval_oracle(spec, x))
            _same_bits(cpwl_eval(spec, 1e308), _cpwl_eval_oracle(spec, 1e308))
        assert cpwl_eval(relu_spec(), x).tolist() == [[1e308, 0.0, 1.7e308], [0.0, 0.0, 0.0]]
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="^activation input must be finite$"):
                cpwl_eval(relu_spec(), np.array([1e308, 1e308, bad]))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: unrectify(relu_spec(), np.array([1.0, np.nan])), "^activation input must be finite$"),
        (lambda: maxlu2(np.ones(3)), r"^maxlu2 expects a 2-vector, got shape \(3,\)$"),
        (lambda: CpwlSpec(right_pieces=tuple((1.0, float(k)) for k in range(63))), "^piece ids are packed into 62 bits$"),
        (lambda: TransformSpec("relu"), "^unknown transform kind 'relu'$"),
    ],
    ids=["unrectify_nan", "maxlu2_three_vector", "cpwl_63_pieces", "transform_kind_relu"],
)
def test_basis_rejects_bad_inputs_and_specs(make, message):
    with pytest.raises(ValueError, match=message):
        make()
