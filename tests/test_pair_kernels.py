"""Pair gathers and the gradient scatter against their oracles, bit for bit.

``pair_differences`` must equal the fancy-index gather and
``losses._scatter_pair_grad`` the two ``np.add.at`` passes in
``conftest.py``, -0.0 signs included; its NaN endpoint check must raise
exactly where a gather of the validity mask finds an invalid endpoint.  The
loss and gradient tests swap both oracles into ``losses`` and compare whole
training steps; the gradient must also give the bytes of its plain formulas
on fresh arrays, and the in-place kernels must leak nothing between calls.
"""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselxyz import (
    InvalidEndpoint,
    PairSet,
    ScaleFactor,
    SceneConfig,
    SegMask,
    VesselXyzError,
    XyzMap,
    assemble_scene,
    build_pair_set,
    loss_gradient,
    pair_differences,
    render_scene,
    scale_factor,
    scale_invariant_loss,
    translation_invariant_loss,
)
from vesselxyz import losses
from conftest import oracle_loss_gradient, oracle_pair_differences, oracle_scatter_pair_grad

SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5)
LOSS_KIND_FUNCS = {
    "translation_invariant": translation_invariant_loss,
    "scale_invariant": scale_invariant_loss,
}

sizes = st.integers(1, 14)
dilation_sets = st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True).map(sorted)


def _values(rng, shape, special_frac):
    """Uniform values with a share replaced by 0.0, -0.0 and repeated constants."""
    v = rng.uniform(-2.0, 2.0, shape)
    pick = rng.uniform(size=shape) < special_frac
    v[pick] = rng.choice(SPECIAL_VALUES, size=int(pick.sum()))
    return v


def _map_and_pairs(seed, h, w, density, dilations, special_frac):
    """A map whose valid pixels cover a random mask, and that mask's pair set."""
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(h, w)) < density
    mask[rng.integers(h), rng.integers(w)] = True
    valid = mask | (rng.uniform(size=(h, w)) < 0.5)
    xyz = XyzMap(_values(rng, (h, w, 3), special_frac), valid)
    return rng, xyz, build_pair_set(SegMask(mask), dilations)


def _step(kind, pred, gt, pairs):
    """(loss bits, gradient bytes), or the error class a step raises."""
    try:
        report = LOSS_KIND_FUNCS[kind](pred, gt, pairs)
        return report.value.hex(), loss_gradient(kind, pred, gt, pairs).tobytes()
    except VesselXyzError as exc:
        return type(exc)


def _step_with_oracles(kind, pred, gt, pairs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "pair_differences", oracle_pair_differences)
        mp.setattr(losses, "_scatter_pair_grad", oracle_scatter_pair_grad)
        return _step(kind, pred, gt, pairs)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), h=sizes, w=sizes, density=st.floats(0.05, 1.0),
    dilations=dilation_sets, special_frac=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_gather_matches_fancy_index(seed, h, w, density, dilations, special_frac):
    _, xyz, pairs = _map_and_pairs(seed, h, w, density, dilations, special_frac)
    got = pair_differences(xyz, pairs)
    want = oracle_pair_differences(xyz, pairs)
    assert got.shape == want.shape == (len(pairs), 3)
    assert got.tobytes() == want.tobytes()


def _gather_raises_old_rule(xyz, pairs):
    """The boolean-gather endpoint check: does a pair touch an invalid pixel?"""
    valid = xyz.valid.reshape(-1)
    return len(pairs) > 0 and not (valid[pairs.first].all() and valid[pairs.second].all())


def test_overflowing_difference_of_valid_pixels_does_not_raise():
    coords = np.zeros((1, 3, 3))
    coords[0, 0] = [1.5e308, -1.5e308, 1.0]
    coords[0, 1] = [-1.5e308, 1.5e308, -1.0]
    xyz = XyzMap(coords, np.ones((1, 3), bool))
    pairs = PairSet([0, 1, 2], [1, 0, 2], (1, 3))
    with np.errstate(over="ignore"):
        got = pair_differences(xyz, pairs)
    inf = np.inf
    assert got.tolist() == [[inf, -inf, 2.0], [-inf, inf, -2.0], [0.0, 0.0, 0.0]]


@pytest.mark.parametrize("invalid", range(9))
def test_any_pair_touching_an_invalid_pixel_raises(invalid):
    rng = np.random.default_rng(invalid)
    valid = np.ones(9, bool)
    valid[invalid] = False
    xyz = XyzMap(rng.uniform(-1e300, 1e300, (3, 3, 3)), valid.reshape(3, 3))
    for first in range(9):
        for second in range(9):
            pairs = PairSet([0, first], [0, second], (3, 3))
            if invalid in (0, first, second):
                with pytest.raises(InvalidEndpoint):
                    pair_differences(xyz, pairs)
            else:
                with np.errstate(over="ignore"):
                    assert pair_differences(xyz, pairs).shape == (2, 3)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), h=sizes, w=sizes, n=st.integers(0, 60),
    invalid_frac=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    magnitude=st.sampled_from([1.0, 1e300, 1e308]),
)
def test_endpoint_check_matches_validity_gather(seed, h, w, n, invalid_frac, magnitude):
    # coords reach +-magnitude, so at 1e308 valid differences overflow to +-inf
    rng = np.random.default_rng(seed)
    valid = rng.uniform(size=(h, w)) >= invalid_frac
    xyz = XyzMap(magnitude / 2.0 * _values(rng, (h, w, 3), 0.3), valid)
    pairs = PairSet(rng.integers(0, h * w, n), rng.integers(0, h * w, n), (h, w))
    with np.errstate(over="ignore"):
        if _gather_raises_old_rule(xyz, pairs):
            with pytest.raises(InvalidEndpoint):
                pair_differences(xyz, pairs)
        else:
            got = pair_differences(xyz, pairs)
            assert got.tobytes() == oracle_pair_differences(xyz, pairs).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), h=sizes, w=sizes, n=st.integers(0, 400),
    touched_frac=st.floats(0.0, 1.0), special_frac=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_scatter_matches_add_at(seed, h, w, n, touched_frac, special_frac):
    # indices below `spread` only: small spreads put one pixel in many pairs,
    # and the pixels at or past it are touched by no pair
    rng = np.random.default_rng(seed)
    spread = max(1, int(round(touched_frac * h * w)))
    first = rng.integers(0, spread, n)
    second = rng.integers(0, spread, n)
    pairs = PairSet(first, second, (h, w))
    per_pair = _values(rng, (n, 3), special_frac)
    got = losses._scatter_pair_grad(pairs, per_pair)
    assert got.shape == (h, w, 3)
    assert got.tobytes() == oracle_scatter_pair_grad(pairs, per_pair).tobytes()
    untouched = np.ones(h * w, bool)
    untouched[first] = untouched[second] = False
    flat = got.reshape(-1, 3)[untouched]
    assert np.all(flat == 0.0) and not np.signbit(flat).any()


def test_scatter_of_negative_zeros_reads_positive_zero():
    pairs = PairSet([0, 0], [1, 2], (1, 4))
    got = losses._scatter_pair_grad(pairs, np.full((2, 3), -0.0))
    assert np.all(got == 0.0) and not np.signbit(got).any()
    assert got.tobytes() == oracle_scatter_pair_grad(pairs, np.full((2, 3), -0.0)).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), h=sizes, w=sizes, density=st.floats(0.05, 1.0),
    dilations=dilation_sets, special_frac=st.sampled_from([0.0, 0.3]),
    kind=st.sampled_from(sorted(LOSS_KIND_FUNCS)), scale=st.sampled_from([0.02, 1.0, 50.0]),
)
def test_training_step_matches_oracle_kernels(
    seed, h, w, density, dilations, special_frac, kind, scale
):
    # scale 0.02 puts K above the ceiling and 50 below the floor, so both
    # control-term branches of the scale-invariant gradient run
    rng, gt, pairs = _map_and_pairs(seed, h, w, density, dilations, special_frac)
    noise = _values(rng, gt.coords.shape, special_frac) * 1e-3
    pred = XyzMap(scale * (gt.coords + noise), gt.valid)
    assert _step(kind, pred, gt, pairs) == _step_with_oracles(kind, pred, gt, pairs)


@pytest.fixture(scope="module")
def rendered_vessel():
    base = SceneConfig()
    config = replace(base, resolution=64, focal_px=base.focal_px * 64 / base.resolution)
    out = render_scene(assemble_scene(124, config))
    gt = out.vessel_xyz
    return gt, SegMask(out.vessel_mask.values & gt.valid)


@pytest.mark.parametrize("scale", [1.0 / 50.0, 0.8])
@pytest.mark.parametrize("kind", sorted(LOSS_KIND_FUNCS))
def test_rendered_scene_step_matches_oracle_kernels(rendered_vessel, kind, scale):
    gt, mask = rendered_vessel
    rng = np.random.default_rng(124)
    noise = rng.normal(0.0, 1e-4, gt.coords.shape)
    coords = scale * (gt.coords + noise) + rng.uniform(-0.5, 0.5, 3)
    pred = XyzMap(np.where(gt.valid[..., None], coords, np.nan), gt.valid)
    pairs = build_pair_set(mask)
    assert len(pairs) > 1000
    if kind == "scale_invariant":
        assert scale_invariant_loss(pred, gt, pairs).control_term_active == (scale < 0.1)
    got = _step(kind, pred, gt, pairs)
    assert isinstance(got, tuple)
    assert got == _step_with_oracles(kind, pred, gt, pairs)


def _gradient_or_error(kind, pred, gt, pairs, k):
    try:
        return loss_gradient(kind, pred, gt, pairs, k)
    except VesselXyzError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), h=sizes, w=sizes, density=st.floats(0.05, 1.0),
    dilations=dilation_sets, special_frac=st.sampled_from([0.0, 0.3]),
    kind=st.sampled_from(sorted(LOSS_KIND_FUNCS)), scale=st.sampled_from([0.02, 1.0, 50.0]),
    supplied=st.sampled_from([None, 0.05, 1.0, 20.0]),
)
def test_gradient_matches_plain_formulas(
    seed, h, w, density, dilations, special_frac, kind, scale, supplied
):
    # the in-place sign chain and control term give the bytes of the formulas
    # on fresh arrays, in both control branches and with K supplied
    rng, gt, pairs = _map_and_pairs(seed, h, w, density, dilations, special_frac)
    pred = XyzMap(scale * (gt.coords + _values(rng, gt.coords.shape, special_frac) * 1e-3),
                  gt.valid)
    k = None if kind == "translation_invariant" or supplied is None else ScaleFactor(supplied, 8)
    got = _gradient_or_error(kind, pred, gt, pairs, k)
    if isinstance(got, type):
        return
    want = oracle_loss_gradient(kind, pred, gt, pairs, None if k is None else k.k)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1.0 / 50.0, 0.8, 50.0])
def test_rendered_scene_gradient_matches_plain_formulas(rendered_vessel, scale):
    # several noise draws: a one-ulp change to the control term's step shows
    # in about a third of them
    gt, mask = rendered_vessel
    pairs = build_pair_set(mask)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        coords = scale * (gt.coords + rng.normal(0.0, 1e-4, gt.coords.shape))
        pred = XyzMap(np.where(gt.valid[..., None], coords, np.nan), gt.valid)
        for kind in sorted(LOSS_KIND_FUNCS):
            got = loss_gradient(kind, pred, gt, pairs)
            assert got.tobytes() == oracle_loss_gradient(kind, pred, gt, pairs).tobytes()


_CALLS = {
    "scale_invariant_loss": lambda *a: _report_bits(scale_invariant_loss(*a)),
    "translation_invariant_loss": lambda *a: _report_bits(translation_invariant_loss(*a)),
    "scale_gradient": lambda *a: loss_gradient("scale_invariant", *a).tobytes(),
    "translation_gradient": lambda *a: loss_gradient("translation_invariant", *a).tobytes(),
    "scale_factor": lambda *a: scale_factor(*a).k.hex(),
}


def _report_bits(report):
    k = report.k_used.k.hex() if report.k_used else None
    return report.value.hex(), k, report.control_term_active, report.pair_count


@pytest.mark.parametrize("scale", [1.0 / 50.0, 0.8, 50.0])
def test_loss_calls_in_any_order_give_the_same_bits(scale):
    # the kernels work in place on their own gathers: no call may change
    # what a later call on the same (pred, gt, pairs) reads
    rng, gt, pairs = _map_and_pairs(7, 9, 11, 0.7, [1, 2, 5], 0.3)
    pred = XyzMap(scale * (gt.coords + _values(rng, gt.coords.shape, 0.3) * 1e-3), gt.valid)
    inputs = [m.coords.tobytes() for m in (pred, gt)] + [pairs.first.tobytes()]
    want = {name: call(pred, gt, pairs) for name, call in _CALLS.items()}
    for order in permutations(_CALLS):
        assert {name: _CALLS[name](pred, gt, pairs) for name in order} == want, order
    assert [m.coords.tobytes() for m in (pred, gt)] + [pairs.first.tobytes()] == inputs
    assert want["scale_invariant_loss"][2] == (scale != 0.8)
