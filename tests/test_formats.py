"""PFM/PGM round trips, malformed inputs, OBJ output, manifests."""

import hashlib
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselxyz import (
    DepthMap,
    InvalidValue,
    MalformedHeader,
    SceneConfig,
    SegMask,
    TriMesh,
    XyzMap,
    assemble_scene,
    emit_scene,
    load_manifest,
    read_depth_pfm,
    read_pgm,
    read_xyz_pfm,
    write_obj,
    write_pfm,
    write_pgm,
)
from vesselxyz.formats import _MAX_TOKEN_BYTES, validity_path
from vesselxyz.manifest import manifest_name
from conftest import oracle_obj_text


def random_depth_f32(rng, h, w, holes=0.2) -> DepthMap:
    # float32-representable values so the PFM round trip is bit-exact
    values = rng.uniform(0.1, 9.0, (h, w)).astype(np.float32).astype(np.float64)
    valid = rng.uniform(size=(h, w)) >= holes
    if not valid.any():
        valid[0, 0] = True
    return DepthMap(values, valid)


def random_xyz_f32(rng, h, w, holes=0.2) -> XyzMap:
    coords = rng.uniform(-4.0, 4.0, (h, w, 3)).astype(np.float32).astype(np.float64)
    valid = rng.uniform(size=(h, w)) >= holes
    return XyzMap(coords, valid)


class TestPfm:
    def test_depth_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(20):
            d = random_depth_f32(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            path = tmp_path / f"d{i}.pfm"
            write_pfm(path, d)
            back = read_depth_pfm(path)
            assert np.array_equal(back.valid, d.valid)
            assert np.array_equal(back.values[back.valid], d.values[d.valid])

    def test_xyz_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(20):
            m = random_xyz_f32(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            path = tmp_path / f"x{i}.pfm"
            write_pfm(path, m)
            back = read_xyz_pfm(path)
            assert np.array_equal(back.valid, m.valid)
            assert np.array_equal(back.coords[back.valid], m.coords[m.valid])

    def test_file_level_round_trip_stable(self, tmp_path):
        rng = np.random.default_rng(2)
        d = random_depth_f32(rng, 17, 23)
        p1 = tmp_path / "a.pfm"
        p2 = tmp_path / "b.pfm"
        write_pfm(p1, d)
        write_pfm(p2, read_depth_pfm(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert validity_path(p1).read_bytes() == validity_path(p2).read_bytes()

    def test_three_channel_as_depth_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "x.pfm"
        write_pfm(path, random_xyz_f32(rng, 4, 4))
        with pytest.raises(MalformedHeader):
            read_depth_pfm(path)

    def test_one_channel_as_xyz_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "d.pfm"
        write_pfm(path, random_depth_f32(rng, 4, 4))
        with pytest.raises(MalformedHeader):
            read_xyz_pfm(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "d.pfm"
        write_pfm(path, random_depth_f32(rng, 8, 8))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(MalformedHeader, match="expected 256 payload bytes, got 249"):
            read_depth_pfm(path)

    @pytest.mark.parametrize("size", ["0 4", "4 0", "-4 4", "4 -4", "-4 -4"])
    def test_nonpositive_size_rejected(self, tmp_path, size):
        path = tmp_path / "d.pfm"
        path.write_bytes(f"Pf\n{size}\n-1.0\n".encode() + bytes(64))
        with pytest.raises(MalformedHeader):
            read_depth_pfm(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # 100000 x 100000 x 3 floats would be 120 GB; the file holds 64 bytes
        path = tmp_path / "x.pfm"
        path.write_bytes(b"PF\n100000 100000\n-1.0\n" + bytes(64))
        with pytest.raises(MalformedHeader, match="expected 120000000000 payload bytes"):
            read_xyz_pfm(path)

    @pytest.mark.parametrize("spaces, ok", [(_MAX_TOKEN_BYTES - 3, True), (_MAX_TOKEN_BYTES - 2, False)])
    def test_whitespace_before_a_token_is_capped(self, tmp_path, spaces, ok):
        # the magic "Pf" and its delimiter count towards the cap too
        path = tmp_path / "d.pfm"
        blank = (b" \t\n\r" * spaces)[:spaces]
        path.write_bytes(blank + b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 2.5))
        if ok:
            assert read_depth_pfm(path).values[0, 0] == 2.5
        else:
            with pytest.raises(MalformedHeader, match="whitespace"):
                read_depth_pfm(path)

    @pytest.mark.parametrize("scale", ["0.0", "-0", "nan", "-nan", "inf", "-inf", "1e999"])
    def test_zero_or_nonfinite_scale_rejected(self, tmp_path, scale):
        # 1.5 stored little-endian; a non-finite scale used to read it big-endian, as 6.9e-41
        path = tmp_path / "d.pfm"
        path.write_bytes(f"Pf\n1 1\n{scale}\n".encode() + struct.pack("<f", 1.5))
        with pytest.raises(MalformedHeader, match="scale must be finite and nonzero") as e:
            read_depth_pfm(path)
        assert str(path) in str(e.value)

    @pytest.mark.parametrize("magic, pixel, value, read, need", [
        (b"Pf", 1, -1.0, read_depth_pfm, "finite and positive"),
        (b"Pf", 1, 0.0, read_depth_pfm, "finite and positive"),
        (b"PF", 3, np.nan, read_xyz_pfm, "finite"),
    ], ids=["negative-depth", "zero-depth", "nan-xyz"])
    def test_unholdable_valid_pixel_names_the_file(self, tmp_path, magic, pixel, value, read,
                                                    need):
        # the validity sibling marks the pixel valid, so the map constructor rejects it
        path = tmp_path / "m.pfm"
        path.write_bytes(magic + b"\n1 1\n-1.0\n" + struct.pack(f"<{pixel}f", *[value] * pixel))
        write_pgm(validity_path(path), SegMask(np.ones((1, 1), bool)))
        with pytest.raises(InvalidValue, match=f"valid pixels must have {need}") as e:
            read(path)
        assert str(e.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "magic, read", [(b"PF", read_depth_pfm), (b"Pf", read_xyz_pfm), (b"P5", read_xyz_pfm)]
    )
    def test_other_kind_rejected_at_its_magic(self, tmp_path, magic, read):
        # the header declares 120 GB; the magic fails before the size is checked
        path = tmp_path / "f.pfm"
        path.write_bytes(magic + b"\n100000 100000\n-1.0\n" + bytes(64))
        with pytest.raises(MalformedHeader, match="magic"):
            read(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"P6\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(MalformedHeader):
            read_depth_pfm(path)
        with pytest.raises(MalformedHeader):
            read_xyz_pfm(path)

    def test_sentinel_fallback_without_sibling(self, tmp_path):
        rng = np.random.default_rng(7)
        d = random_depth_f32(rng, 9, 9, holes=0.4)
        path = tmp_path / "d.pfm"
        write_pfm(path, d)
        validity_path(path).unlink()
        back = read_depth_pfm(path)  # -inf sentinel recovers the mask
        assert np.array_equal(back.valid, d.valid)

    def test_signaling_nan_reads_invalid_without_warning(self, tmp_path):
        # 0x7f800001 is a signaling NaN; casting it to float64 raises numpy's
        # "invalid value" flag, which must not surface as a warning
        path = tmp_path / "snan.pfm"
        path.write_bytes(b"PF\n1 1\n-1.0\n" + struct.pack("<Iff", 0x7F800001, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xyz = read_xyz_pfm(path)
        assert not xyz.valid.any()


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        for i in range(20):
            m = SegMask(rng.uniform(size=(int(rng.integers(1, 50)), int(rng.integers(1, 50)))) < 0.5)
            path = tmp_path / f"m{i}.pgm"
            write_pgm(path, m)
            assert np.array_equal(read_pgm(path).values, m.values)

    def test_all_set_and_all_clear(self, tmp_path):
        for fill, name in ((True, "on"), (False, "off")):
            m = SegMask(np.full((6, 4), fill))
            path = tmp_path / f"{name}.pgm"
            write_pgm(path, m)
            assert read_pgm(path).count == (24 if fill else 0)

    def test_threshold_at_128(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n3 1\n255\n" + bytes([127, 128, 200]))
        got = read_pgm(path)
        assert got.values.tolist() == [[False, True, True]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
        with pytest.raises(MalformedHeader):
            read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\xff" * 7)
        with pytest.raises(MalformedHeader, match="expected 16 payload bytes, got 7"):
            read_pgm(path)

    @pytest.mark.parametrize("size", ["0 4", "4 0", "-4 4", "4 -4", "-4 -4"])
    def test_nonpositive_size_rejected(self, tmp_path, size):
        path = tmp_path / "m.pgm"
        path.write_bytes(f"P5\n{size}\n255\n".encode() + b"\xff" * 16)
        with pytest.raises(MalformedHeader):
            read_pgm(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n100000 100000\n255\n" + b"\xff" * 16)
        with pytest.raises(MalformedHeader, match="expected 10000000000 payload bytes"):
            read_pgm(path)


# magic: (bytes per pixel, the last header field as written)
_KINDS = {b"P5": (1, b"255"), b"Pf": (4, b"-1.0"), b"PF": (12, b"-1.0")}


@settings(max_examples=300, deadline=None)
@given(
    magic=st.sampled_from(sorted(_KINDS)),
    size=st.lists(st.integers(-1, 4), min_size=2, max_size=2),
    last=st.sampled_from([None, None, b"254", b"1.0", b"0.0", b"nan", b"1e999"]),
    odd=st.none() | st.tuples(st.integers(0, 3), st.binary(max_size=6)),
    gap=st.sampled_from([b" ", b"\n", b"\t\r\n"]),
    cut=st.integers(-3, 3),
    data=st.data(),
)
def test_readers_return_a_map_or_a_format_error(magic, size, last, odd, gap, cut, data):
    """Any header, with one token replaced by arbitrary bytes or none, and a payload
    of about the size the header declares for ``magic``."""
    pixel_bytes, usual_last = _KINDS[magic]
    tokens = [magic, *(b"%d" % n for n in size), last or usual_last]
    if odd:
        tokens[odd[0]] = odd[1]
    n = max(0, size[0] * size[1] * pixel_bytes + cut)
    payload = data.draw(st.binary(min_size=n, max_size=n), label="payload")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.pfm"
        path.write_bytes(gap.join(tokens) + gap + payload)
        for read, kind in ((read_pgm, SegMask), (read_depth_pfm, DepthMap), (read_xyz_pfm, XyzMap)):
            try:
                assert isinstance(read(path), kind)
            except MalformedHeader:
                pass


class TestObj:
    def test_deterministic_output(self, tmp_path):
        scene = assemble_scene(2)
        a = tmp_path / "a.obj"
        b = tmp_path / "b.obj"
        write_obj(a, scene.opening)
        write_obj(b, scene.opening)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("# opening")
        assert text.count("\nf ") == scene.opening.num_triangles

    def test_matches_per_line_formatting(self, tmp_path):
        scene = assemble_scene(3)
        odd = TriMesh(
            np.array([
                [-0.0, 0.1, 1e-300], [1e5, 1.0 / 3.0, -2.5e-8], [0.0, -7.0, 123456789.125],
            ]),
            np.array([[0, 1, 2]]),
            "content",
        )
        for mesh in (scene.vessel, scene.content, scene.opening, odd):
            path = tmp_path / f"{mesh.label}.obj"
            write_obj(path, mesh)
            assert path.read_text(encoding="ascii") == oracle_obj_text(mesh)


def _dir_hashes(d) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.iterdir())
        if p.is_file()
    }


class TestManifest:
    def test_emit_and_reload(self, tmp_path):
        config = SceneConfig(resolution=64, angular_segments=32, vertical_segments=16)
        manifest = emit_scene(5, config, tmp_path)
        again = load_manifest(tmp_path / manifest_name(5))
        assert again.seed == manifest.seed
        assert again.files == manifest.files
        assert again.config == manifest.config
        assert again.profile == manifest.profile
        # every referenced artifact exists
        for name in manifest.files.values():
            assert (tmp_path / name).exists()

    def test_replay_byte_identical(self, tmp_path):
        config = SceneConfig(resolution=64, angular_segments=32, vertical_segments=16)
        first = tmp_path / "first"
        second = tmp_path / "second"
        manifest = emit_scene(11, config, first)
        emit_scene(manifest.seed, manifest.config, second)
        assert _dir_hashes(first) == _dir_hashes(second)

    def test_two_runs_hash_stable(self, tmp_path):
        config = SceneConfig(resolution=48, angular_segments=24, vertical_segments=12)
        a = tmp_path / "a"
        b = tmp_path / "b"
        for seed in (1, 2):
            emit_scene(seed, config, a)
            emit_scene(seed, config, b)
        assert _dir_hashes(a) == _dir_hashes(b)
