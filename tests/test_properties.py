import warnings

import numpy as np
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import random_cpwl_spec, random_valid_dag
from unrectify import (
    ActivationAffine,
    activation_bound,
    cpwl_eval,
    forward,
    levels,
    relu_spec,
    rescale_to_stability,
    series,
    spectral_norm,
    unrectify,
    validate,
)
from unrectify.builders import build_fusion_stack
from unrectify.stability import level_sums


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_op_sequences_stay_valid(seed):
    dag = random_valid_dag(np.random.default_rng(seed))
    assert validate(dag).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_levels_stay_contiguous(seed):
    dag = random_valid_dag(np.random.default_rng(seed))
    attained = sorted(set(levels(dag).values()))
    assert attained == list(range(attained[-1] + 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_unrectify_affine_identity(seed):
    rng = np.random.default_rng(seed)
    spec = random_cpwl_spec(rng)
    xs = rng.uniform(-10, 10, size=256)
    pattern = unrectify(spec, xs)
    recon = pattern.entries * xs + pattern.offsets
    assert np.abs(recon - cpwl_eval(spec, xs)).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_pattern_entries_within_bound(seed):
    rng = np.random.default_rng(seed)
    spec = random_cpwl_spec(rng)
    bound = activation_bound(spec)
    xs = rng.uniform(-10, 10, size=512)
    assert np.abs(unrectify(spec, xs).entries).max() <= bound + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_composition_algebra(seed):
    rng = np.random.default_rng(seed)
    dag = random_valid_dag(rng, n_ops=5)
    out_dim = dag.node_dims[dag.output_node]
    w = rng.standard_normal((int(rng.integers(1, 4)), out_dim))
    b = rng.standard_normal(w.shape[0])
    extended = series(dag, ActivationAffine(relu_spec(), w, b))
    x = rng.standard_normal(dag.input_dim)
    y, _ = forward(extended, x)
    base, _ = forward(dag, x)
    assert np.abs(y - np.maximum(w @ base + b, 0)).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-4.0, 4.0))
def test_spectral_norm_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    s = spectral_norm(w)
    assert abs(spectral_norm(scale * w) - abs(scale) * s) <= 1e-7 * max(1.0, abs(scale))
    assert abs(spectral_norm(w.T) - s) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_frobenius_sum_dominates(seed):
    rng = np.random.default_rng(seed)
    dag = random_valid_dag(rng, n_ops=5)
    linear = all(arc.elem.act is None and arc.elem.spec is None for arc in dag.arcs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sums = level_sums(dag)
    expected = ["no activation or transform present; uniform bound defaults to 1"] if linear else []
    assert [str(w.message) for w in caught] == expected
    for entry in sums:
        assert entry.frob_sum >= entry.sum - 1e-12


def _is_subsequence(short, long):
    it = iter(long)
    return all(any(item == other for other in it) for item in short)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_nested_region_codes_are_subsequences(seed):
    from unrectify import region_code
    from unrectify.graph import ancestors

    rng = np.random.default_rng(seed)
    dag = random_valid_dag(rng, n_ops=6)
    x = rng.standard_normal(dag.input_dim)
    outer = region_code(dag, dag.output_node, x)
    outer_pairs = list(zip(outer.arc_ids, outer.segments))
    for node in sorted(ancestors(dag, dag.output_node)):
        inner = region_code(dag, node, x)
        assert _is_subsequence(list(zip(inner.arc_ids, inner.segments)), outer_pairs)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_refinement_on_random_graphs(seed):
    from unrectify import check_refinement
    from unrectify.graph import ancestors

    rng = np.random.default_rng(seed)
    dag = random_valid_dag(rng, n_ops=6)
    xs = rng.standard_normal((300, dag.input_dim))
    inside = sorted(ancestors(dag, dag.output_node))
    picks = inside if len(inside) <= 4 else [
        inside[int(rng.integers(0, len(inside)))] for _ in range(4)
    ]
    for node in picks:
        assert check_refinement(dag, dag.output_node, node, xs).ok


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_rescale_idempotent(seed, frob):
    rng = np.random.default_rng(seed)
    layer_w = [
        (
            rng.standard_normal((4, 4)),
            rng.standard_normal(4),
            rng.standard_normal((4, 4)),
            rng.standard_normal(4),
        )
        for _ in range(int(rng.integers(1, 4)))
    ]
    dag = build_fusion_stack(layer_w, mode="compact")
    once = rescale_to_stability(dag, use_frobenius=frob)
    assert rescale_to_stability(once, use_frobenius=frob) is once
    norm = "frob_sum" if frob else "sum"
    for entry in level_sums(once):
        assert getattr(entry, norm) <= 1.0 + 1e-12
