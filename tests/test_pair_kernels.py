"""Pair gathers and the gradient scatter against their oracles, bit for bit.

``pair_differences`` must equal the fancy-index gather and
``losses._scatter_pair_grad`` the two ``np.add.at`` passes in
``conftest.py``, -0.0 signs included.  The loss and gradient tests swap both
oracles into ``losses`` and compare whole training steps.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselxyz import (
    PairSet,
    SceneConfig,
    SegMask,
    VesselXyzError,
    XyzMap,
    assemble_scene,
    build_pair_set,
    loss_gradient,
    pair_differences,
    render_scene,
    scale_invariant_loss,
    translation_invariant_loss,
)
from vesselxyz import losses
from conftest import oracle_pair_differences, oracle_scatter_pair_grad

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
