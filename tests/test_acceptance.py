"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Budgeted runtimes are asserted with time.perf_counter.
"""

import math
import shutil
import time

import numpy as np
import pytest

from vesselxyz import (
    DegenerateScale,
    PinholeCamera,
    ScaleFactor,
    SegMask,
    TriMesh,
    VesselProfile,
    XyzMap,
    assemble_scene,
    build_pair_set,
    chamfer,
    flat_liquid_fill,
    intersect_rays_brute,
    loss_gradient,
    look_at_camera,
    mae_points,
    profile_to_mesh,
    r_squared,
    read_depth_pfm,
    read_pgm,
    read_xyz_pfm,
    scale_factor,
    scale_invariant_loss,
    seg_eval,
    translation_invariant_loss,
    write_pfm,
    write_pgm,
)
from vesselxyz.bvh import cast_camera_rays
from vesselxyz.cli import EXIT_OK, main as cli_main
from vesselxyz.manifest import manifest_name
from conftest import (
    cast_depth,
    dyadic_offset,
    dyadic_xyz,
    enclosed_volume,
    icosphere,
    oracle_mad,
    oracle_mae,
    oracle_max_dst,
    oracle_r_squared,
    oracle_scale_factor,
    oracle_scale_invariant,
    oracle_translation_invariant,
    random_mask,
    random_xyz,
    scene_violations,
    surface_area,
)
from test_gradients import (
    assert_grad_close,
    clean_coords_scale,
    clean_coords_translation,
    fd_gradient,
)

from vesselxyz import mad as mad_metric
from vesselxyz import max_dst as max_dst_metric


def full_mask(h, w):
    return SegMask(np.ones((h, w), bool))


def _passes(label, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {label}: PASS{suffix}")


@pytest.fixture(scope="module")
def scene_batch(tmp_path_factory):
    """20 scenes at 256x256 generated through the CLI, shared by criteria."""
    out = tmp_path_factory.mktemp("scenes")
    t0 = time.perf_counter()
    code = cli_main(["generate", "--seeds", "1..20", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    return out, elapsed


def test_c01_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9001)
    for _ in range(200):
        h, w = int(rng.integers(6, 17)), int(rng.integers(6, 17))
        gt = dyadic_xyz(rng, h, w)
        pred = dyadic_xyz(rng, h, w)
        mask = random_mask(rng, h, w, density=0.8)
        pairs = build_pair_set(mask, [1, 2, 4])
        if len(pairs) == 0:
            continue

        # exact translation invariance on the dyadic grid
        base = translation_invariant_loss(pred, gt, pairs).value
        moved_pred = XyzMap(pred.coords + dyadic_offset(rng), pred.valid)
        moved = translation_invariant_loss(moved_pred, gt, pairs).value
        assert moved == base

        # similarity invariance of the scale-normalized loss while K stays
        # inside its window, 1e-9 relative
        try:
            k0 = scale_factor(pred, gt, pairs).k
        except DegenerateScale:
            continue
        si_base = scale_invariant_loss(pred, gt, pairs).value
        s = float(rng.uniform(0.3, 3.0))
        if not 0.1 < k0 / s < 10.0:
            continue
        t = rng.uniform(-2.0, 2.0, 3)
        pred_sim = XyzMap(s * pred.coords + t, pred.valid)
        si_moved = scale_invariant_loss(pred_sim, gt, pairs).value
        assert abs(si_moved - si_base) <= 1e-9 * max(1.0, abs(si_base))

        # argmin preserved: a similarity transform of GT attains (near-)zero
        # loss and perturbing it strictly increases the loss
        gt_sim = XyzMap(s * gt.coords + t, gt.valid)
        at_min = scale_invariant_loss(gt_sim, gt, pairs).value
        assert at_min <= 1e-9
        noisy = XyzMap(gt_sim.coords + rng.uniform(0.05, 0.1, gt_sim.coords.shape), gt_sim.valid)
        assert scale_invariant_loss(noisy, gt, pairs).value > at_min
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passes("1 invariance suite (200 triples, exact shift / 1e-9 similarity)", elapsed)


def test_c02_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9002)
    n_loss = n_metric = 0
    for _ in range(1000):
        h, w = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        gt = random_xyz(rng, h, w)
        pred = random_xyz(rng, h, w)
        mask = random_mask(rng, h, w, density=float(rng.uniform(0.3, 1.0)))
        dil = [1, 2, 4][: int(rng.integers(1, 4))]
        pairs = build_pair_set(mask, [d for d in dil if d < max(h, w)] or [1])

        sub_pred = XyzMap(pred.coords, pred.valid & True)
        if len(pairs) > 0:
            assert translation_invariant_loss(sub_pred, gt, pairs).value == (
                oracle_translation_invariant(sub_pred, gt, pairs)
            )
            try:
                k = scale_factor(sub_pred, gt, pairs).k
                assert k == oracle_scale_factor(sub_pred, gt, pairs)
                assert scale_invariant_loss(sub_pred, gt, pairs).value == (
                    oracle_scale_invariant(sub_pred, gt, pairs)
                )
                n_loss += 1
            except DegenerateScale:
                pass

        if mask.count >= 2:
            assert mae_points(pred, gt, mask) == oracle_mae(pred, gt, mask)
            assert mad_metric(gt, mask) == oracle_mad(gt, mask)
            assert max_dst_metric(gt, mask) == oracle_max_dst(gt, mask)
            assert r_squared(pred, gt, mask) == oracle_r_squared(pred, gt, mask)
            n_metric += 1
    elapsed = time.perf_counter() - t0
    assert n_loss > 800 and n_metric > 900  # the sweep must not be vacuous
    assert elapsed < 30.0
    _passes(f"2 oracle equivalence (1000 cases, {n_loss} loss / {n_metric} metric)", elapsed)


def test_c03_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9003)
    checked = 0
    for i in range(50):
        gt = random_xyz(rng, 16, 16, scale=2.0)
        # keep K near 1 so the h=1e-3 step cannot jump a 1e-2 kink margin
        pred = XyzMap(
            gt.coords * float(rng.uniform(0.8, 1.25)) + rng.uniform(-0.5, 0.5, gt.coords.shape),
            gt.valid,
        )
        pairs = build_pair_set(full_mask(16, 16), [1, 4])
        if i % 2 == 0:
            g = loss_gradient("translation_invariant", pred, gt, pairs)
            fd = fd_gradient(
                lambda m: translation_invariant_loss(m, gt, pairs).value, pred
            )
            clean = clean_coords_translation(pred, gt, pairs)
        else:
            k0 = scale_factor(pred, gt, pairs)
            g = loss_gradient("scale_invariant", pred, gt, pairs)
            fd = fd_gradient(
                lambda m: scale_invariant_loss(m, gt, pairs, k=k0).value, pred
            )
            clean = clean_coords_scale(pred, gt, pairs, k0.k)
        assert clean.mean() > 0.3
        assert_grad_close(g, fd, clean)
        checked += int(clean.sum())
    elapsed = time.perf_counter() - t0
    assert checked > 10000
    assert elapsed < 60.0
    _passes(f"3 gradient check (50 maps, {checked} coords vs finite differences)", elapsed)


def test_c04_scale_factor_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9004)
    for _ in range(100):
        h, w = int(rng.integers(4, 13)), int(rng.integers(4, 13))
        gt = random_xyz(rng, h, w)
        pred = random_xyz(rng, h, w)
        pairs = build_pair_set(full_mask(h, w), [1, 2])
        base = scale_factor(pred, gt, pairs).k
        s = float(rng.uniform(0.05, 20.0))
        scaled = XyzMap(s * pred.coords, pred.valid)
        assert scale_factor(scaled, gt, pairs).k == pytest.approx(base / s, rel=1e-12)

    # control-term fixtures: K = 20 adds +20, K = 0.05 adds -0.05
    gt = random_xyz(rng, 8, 8)
    pairs = build_pair_set(full_mask(8, 8), [1])
    low = scale_invariant_loss(XyzMap(gt.coords / 20.0, gt.valid), gt, pairs)
    assert low.control_term_active and low.value == pytest.approx(20.0, rel=1e-9)
    high = scale_invariant_loss(XyzMap(20.0 * gt.coords, gt.valid), gt, pairs)
    assert high.control_term_active and high.value == pytest.approx(-0.05, rel=1e-9)

    # engagement is strict: exactly 10 / 0.1 stay inactive
    for k_edge in (10.0, 0.1):
        r = scale_invariant_loss(gt, gt, pairs, k=ScaleFactor(k_edge, 9))
        assert not r.control_term_active
    assert scale_invariant_loss(gt, gt, pairs, k=ScaleFactor(np.nextafter(10.0, 11), 9)).control_term_active
    assert scale_invariant_loss(gt, gt, pairs, k=ScaleFactor(np.nextafter(0.1, 0), 9)).control_term_active
    elapsed = time.perf_counter() - t0
    _passes("4 scale-factor law (K(s*pred) = K/s at 1e-12; control at +K/-K)", elapsed)


def test_c05_metric_identities(scene_batch):
    out, _ = scene_batch
    t0 = time.perf_counter()
    scenes = 0
    for seed in range(1, 21):
        for role in ("vessel", "content", "opening"):
            xyz = read_xyz_pfm(out / f"{seed}_{role}_xyz.pfm")
            mask = read_pgm(out / f"{seed}_{role}_mask.pgm")
            eval_mask = SegMask(mask.values & xyz.valid)
            if eval_mask.count < 3:
                continue
            assert mae_points(xyz, xyz, eval_mask) == 0.0
            assert r_squared(xyz, xyz, eval_mask) == 1.0
            pts = xyz.coords[eval_mask.values]
            assert chamfer(pts, pts) == 0.0
            rep = seg_eval(mask, mask)
            assert (rep.iou, rep.precision, rep.recall) == (1.0, 1.0, 1.0)

        # centroid-constant prediction scores R^2 = 0
        xyz = read_xyz_pfm(out / f"{seed}_vessel_xyz.pfm")
        mask = read_pgm(out / f"{seed}_vessel_mask.pgm")
        eval_mask = SegMask(mask.values & xyz.valid)
        centroid = xyz.coords[eval_mask.values].mean(axis=0)
        const = XyzMap(np.broadcast_to(centroid, xyz.coords.shape).copy(),
                       np.ones(xyz.valid.shape, bool))
        assert abs(r_squared(const, xyz, eval_mask)) <= 1e-9
        scenes += 1
    assert scenes == 20
    elapsed = time.perf_counter() - t0
    _passes("5 metric identities (20 scenes: MAE=0, R2=1, Chamfer=0, IOU=1)", elapsed)


def test_c06_noise_response_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9006)
    sigma = 0.01
    h = w = 350  # 122500 masked pixels
    gt = random_xyz(rng, h, w, scale=1.0)
    pred = XyzMap(gt.coords + rng.normal(0.0, sigma, gt.coords.shape), gt.valid)
    got = mae_points(pred, gt, full_mask(h, w))
    expected = sigma * 2.0 * math.sqrt(2.0 / math.pi)  # chi(3) mean
    assert got == pytest.approx(expected, rel=0.02)
    elapsed = time.perf_counter() - t0
    _passes(f"6 noise response (MAE {got:.6f} vs chi3 mean {expected:.6f}, 2%)", elapsed)


def test_c07_renderer_accuracy():
    t0 = time.perf_counter()
    # plane: optical-axis depth exact to 1e-9
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    eye = np.array([0.0, 1.0, 0.0])
    cam = PinholeCamera(fx=40.0, fy=40.0, cx=15.5, cy=15.5, width=32, height=32,
                        rotation=rotation, translation=-rotation @ eye)
    plane = TriMesh(
        np.array([[-5.0, 0.0, -5.0], [-5.0, 0.0, 5.0], [5.0, 0.0, 5.0], [5.0, 0.0, -5.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
        "ground",
    )
    depth = cast_depth(plane, cam)
    assert depth.valid.all()
    np.testing.assert_allclose(depth.values, 1.0, rtol=1e-9)

    # icosphere: center-pixel depth within mesh chord error of 2e-3
    sphere = icosphere(4, radius=1.0, center=(0.0, 0.0, 3.0))
    cam = PinholeCamera(fx=200.0, fy=200.0, cx=31.5, cy=31.5, width=64, height=64)
    depth = cast_depth(sphere, cam)
    center = depth.values[31:33, 31:33]
    assert np.all(np.abs(center - 2.0) <= 2e-3)

    # cylinder: lateral-surface depth against the analytic infinite cylinder
    r, hgt, d = 0.06, 0.3, 0.5
    prof = VesselProfile((), base_radius=r, height=hgt, samples=64)
    mesh = profile_to_mesh(prof, 512, 8)
    cam = look_at_camera((0.0, hgt / 2, d), (0.0, hgt / 2, 0.0), focal_px=300.0, resolution=128)
    depth = cast_depth(mesh, cam)
    from vesselxyz.renderer import camera_rays

    origins, dirs, axial = camera_rays(cam)
    ox, oz = origins[:, 0], origins[:, 2]
    dx, dz = dirs[:, 0], dirs[:, 2]
    a = dx * dx + dz * dz
    b = 2 * (ox * dx + oz * dz)
    c = ox * ox + oz * oz - r * r
    disc = b * b - 4 * a * c
    interior = disc > (0.35 * r) ** 2  # stay away from grazing silhouette rays
    t_ana = (-b - np.sqrt(np.maximum(disc, 0.0))) / (2 * a)
    depth_ana = (t_ana * axial).reshape(128, 128)
    sel = interior.reshape(128, 128) & depth.valid
    # only lateral-surface hits (exclude the bottom cap seen from above)
    assert sel.sum() > 500
    assert np.max(np.abs(depth.values[sel] - depth_ana[sel])) <= 2e-3

    # cast == brute force on every pixel ray of a 96x96 camera aimed at a
    # 1280-triangle sphere
    small = icosphere(3, radius=0.5)
    cam = look_at_camera((0.4, 0.9, 1.2), (0.0, 0.0, 0.0), focal_px=90.0, resolution=96)
    origins, dirs, _ = camera_rays(cam)
    t_cast = cast_camera_rays(small, cam, dirs)
    t_brute, tri_brute, _, _ = intersect_rays_brute(small, origins, dirs)
    assert 0.0 < float((tri_brute >= 0).mean()) < 1.0
    assert t_cast.tobytes() == t_brute.tobytes()
    elapsed = time.perf_counter() - t0
    _passes("7 renderer accuracy (plane 1e-9, sphere/cylinder 2e-3, cast==brute)", elapsed)


def test_c08_procgen_fidelity(tmp_path):
    t0 = time.perf_counter()
    # closed forms at 256 angular segments
    cyl = VesselProfile((), base_radius=1.0, height=2.0, samples=256)
    mesh = profile_to_mesh(cyl, 256, 64)
    lateral = surface_area(mesh) - math.pi
    assert lateral == pytest.approx(2 * math.pi * 1.0 * 2.0, rel=1e-3)
    liquid = flat_liquid_fill(cyl, 0.5, 256, 64)
    assert enclosed_volume(liquid) == pytest.approx(math.pi * 0.5 * 2.0, rel=5e-3)

    # truncated cone r(h) = 1 + 0.25 h: lateral area = pi (r0 + r1) slant
    from vesselxyz import LinearTerm

    cone = VesselProfile((LinearTerm(0.25),), base_radius=1.0, height=2.0, samples=1024)
    cone_mesh = profile_to_mesh(cone, 256, 256)
    r1 = 1.0 + 0.25 * 2.0
    slant = math.hypot(2.0, r1 - 1.0)
    expected_lateral = math.pi * (1.0 + r1) * slant
    assert surface_area(cone_mesh) - math.pi == pytest.approx(expected_lateral, rel=1e-3)

    # 100/100 seeds satisfy the scene invariants
    bad = [seed for seed in range(100) if scene_violations(assemble_scene(seed))]
    assert not bad, f"scene invariant failures: {bad}"

    # bit-identical replay from a manifest
    from vesselxyz import SceneConfig, emit_scene, load_manifest
    import hashlib

    config = SceneConfig(resolution=96, angular_segments=48, vertical_segments=24)
    first = tmp_path / "first"
    second = tmp_path / "second"
    emit_scene(33, config, first)
    replayed = load_manifest(first / manifest_name(33))
    emit_scene(replayed.seed, replayed.config, second)
    h1 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(first.iterdir())}
    h2 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(second.iterdir())}
    assert h1 == h2
    elapsed = time.perf_counter() - t0
    _passes("8 procgen fidelity (closed forms, 100/100 invariants, replay)", elapsed)


def _report_rows(csv_text: str) -> list:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(dict(zip(header, cells)))
    return rows


def test_c09_closed_loop_harness(scene_batch, tmp_path):
    out, generate_seconds = scene_batch
    t0 = time.perf_counter()

    # GT as prediction: every present row reports exactly zero error
    rep_dir = tmp_path / "self"
    code = cli_main(["eval", "--gt", str(out), "--pred", str(out),
                     "--mode", "vessel-scale", "--out", str(rep_dir)])
    assert code == EXIT_OK
    rows = _report_rows((rep_dir / "report.csv").read_text())
    data = [r for r in rows if r["seed"] != "mean" and r["missing"] == "false"]
    assert len(data) >= 50  # 20 scenes x 3 objects minus degenerate views
    for r in data:
        assert float(r["mae"]) == 0.0
        assert float(r["chamfer"]) == 0.0
        assert float(r["r_squared"]) == 1.0

    # shift the content prediction by 1 cm, keep vessel/opening perfect
    pred = tmp_path / "shifted"
    pred.mkdir()
    delta = np.array([0.01, 0.0, 0.0])
    for seed in range(1, 21):
        for role in ("vessel", "opening"):
            for ext in (".pfm", ".valid.pgm"):
                name = f"{seed}_{role}_xyz{ext}"
                shutil.copy(out / name, pred / name)
        content = read_xyz_pfm(out / f"{seed}_content_xyz.pfm")
        shifted = XyzMap(
            np.where(content.valid[..., None], content.coords + delta, np.nan),
            content.valid,
        )
        write_pfm(pred / f"{seed}_content_xyz.pfm", shifted)

    vessel_dir = tmp_path / "vessel-norm"
    code = cli_main(["eval", "--gt", str(out), "--pred", str(pred),
                     "--mode", "vessel-scale", "--out", str(vessel_dir)])
    assert code == EXIT_OK
    rows = _report_rows((vessel_dir / "report.csv").read_text())
    content_mae = [
        float(r["mae"]) for r in rows
        if r["seed"] != "mean" and r["object"] == "content" and r["missing"] == "false"
    ]
    assert len(content_mae) == 20
    # vessel-normalized: the 1 cm placement error survives alignment
    for mae in content_mae:
        assert mae == pytest.approx(0.01, rel=1e-3)

    content_dir = tmp_path / "content-norm"
    code = cli_main(["eval", "--gt", str(out), "--pred", str(pred),
                     "--mode", "content-scale", "--out", str(content_dir)])
    assert code == EXIT_OK
    rows = _report_rows((content_dir / "report.csv").read_text())
    content_mae = [
        float(r["mae"]) for r in rows
        if r["seed"] != "mean" and r["object"] == "content" and r["missing"] == "false"
    ]
    assert len(content_mae) == 20
    # content-normalized: alignment removes the shift almost entirely
    for mae in content_mae:
        assert mae < 1e-6

    elapsed = time.perf_counter() - t0
    total = generate_seconds + elapsed
    assert total < 300.0
    _passes(
        f"9 closed loop (generate {generate_seconds:.0f}s + eval {elapsed:.0f}s; "
        "vessel-scale keeps 1cm, content-scale removes it)",
        total,
    )


def test_c10_format_stability(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9010)
    from vesselxyz import DepthMap

    for i in range(1000):
        h, w = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        kind = i % 3
        path = tmp_path / f"m{i}"
        if kind == 0:
            values = rng.uniform(0.1, 9.0, (h, w)).astype(np.float32).astype(np.float64)
            valid = rng.uniform(size=(h, w)) >= 0.2
            if not valid.any():
                valid[0, 0] = True
            m = DepthMap(values, valid)
            write_pfm(path.with_suffix(".pfm"), m)
            back = read_depth_pfm(path.with_suffix(".pfm"))
            assert np.array_equal(back.valid, m.valid)
            assert np.array_equal(back.values[back.valid], m.values[m.valid])
        elif kind == 1:
            coords = rng.uniform(-4, 4, (h, w, 3)).astype(np.float32).astype(np.float64)
            valid = rng.uniform(size=(h, w)) >= 0.2
            m = XyzMap(coords, valid)
            write_pfm(path.with_suffix(".pfm"), m)
            back = read_xyz_pfm(path.with_suffix(".pfm"))
            assert np.array_equal(back.valid, m.valid)
            assert np.array_equal(back.coords[back.valid], m.coords[m.valid])
        else:
            m = SegMask(rng.uniform(size=(h, w)) < 0.5)
            write_pgm(path.with_suffix(".pgm"), m)
            assert np.array_equal(read_pgm(path.with_suffix(".pgm")).values, m.values)

    # manifests hash-stable across two generation runs
    import hashlib
    from vesselxyz import SceneConfig, emit_scene

    config = SceneConfig(resolution=64, angular_segments=32, vertical_segments=16)
    runs = []
    for name in ("runA", "runB"):
        d = tmp_path / name
        for seed in (4, 5):
            emit_scene(seed, config, d)
        runs.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(d.iterdir())
            }
        )
    assert runs[0] == runs[1]
    elapsed = time.perf_counter() - t0
    _passes("10 format stability (1000 round trips, hash-stable manifests)", elapsed)
