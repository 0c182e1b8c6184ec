import json

import numpy as np
import pytest

from veplab import (
    StimulusSpec,
    build_frame_schedule,
    radial_phase,
    render_checkerboard,
    render_gabor,
    validate_spec,
)
from veplab.errors import InputError
from veplab.stimgen import (
    ANGULAR_CYCLES,
    FIXATION_RADIUS_PX,
    GABOR_CONTRAST,
    GABOR_PHASE,
    GABOR_SIGMA_PX,
    GABOR_SIZE_PX,
    GABOR_SPATIAL_FREQ,
    MAX_FRAMES,
    OUTER_RADIUS_PX,
    PULSE_DEPTH,
    RADIAL_CYCLES,
    NonIntegerCycleWarning,
    write_pgm,
)


def checker_polar():
    """Pixel radius and angle over the whole checkerboard grid."""
    c = OUTER_RADIUS_PX
    y, x = np.mgrid[0 : 2 * c + 1, 0 : 2 * c + 1].astype(np.float64)
    return np.hypot(x - c, y - c), np.arctan2(y - c, x - c)


def test_radial_phase_unit_points():
    for fc in (8.0, 12.0, 16.0):
        assert abs(radial_phase(0.0, fc)) <= 1e-12
        assert abs(radial_phase(1 / (4 * fc), fc) - np.pi / 2) <= 1e-12
        assert abs(radial_phase(1 / (2 * fc), fc) - np.pi) <= 1e-12


def test_radial_phase_range_and_period():
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 100, size=1000)
    phi = radial_phase(t, 11.3)
    assert np.all(phi >= 0.0) and np.all(phi <= np.pi)
    np.testing.assert_allclose(radial_phase(t + 1 / 11.3, 11.3), phi, atol=1e-9)


def test_radial_phase_rejects_bad_freq():
    with pytest.raises(InputError):
        radial_phase(0.0, 0.0)


def test_validate_spec_nyquist():
    validate_spec(StimulusSpec("gabor_pulse", 72.0, 144.0, 1.0))  # ok at limit
    with pytest.raises(InputError, match="Nyquist"):
        validate_spec(StimulusSpec("pattern_reversal", 80.0, 144.0, 1.0))
    with pytest.raises(InputError):
        validate_spec(StimulusSpec("pattern_reversal", 10.0, 144.0, 0.0))


def test_validate_spec_warns_on_noninteger_cycle():
    with pytest.warns(NonIntegerCycleWarning):
        validate_spec(StimulusSpec("pattern_reversal", 14.0, 144.0, 1.0))


def test_reversal_schedule_period():
    sch = build_frame_schedule(StimulusSpec("pattern_reversal", 7.2, 144.0, 1.0))
    assert sch.n_frames == 144
    ids = sch.values
    assert set(ids.tolist()) == {0, 1}
    # 7.2 Hz on 144 Hz: 20-frame on/off cycle, 10 frames per pattern
    np.testing.assert_array_equal(ids[:20], [0] * 10 + [1] * 10)
    np.testing.assert_array_equal(ids[20:40], ids[:20])


def test_reversal_flip_count_integer_cycles():
    # over one full loop of the schedule there are 2*f*duration reversals
    for f, dur in ((7.2, 5.0), (9.0, 1.0), (8.0, 2.0)):
        sch = build_frame_schedule(StimulusSpec("pattern_reversal", f, 144.0, dur))
        ids = sch.values
        flips = int(np.sum(ids != np.roll(ids, -1)))
        assert flips == round(2 * f * dur)


def test_gabor_pulse_alternates_at_half_refresh():
    sch = build_frame_schedule(StimulusSpec("gabor_pulse", 72.0, 144.0, 0.5))
    vals = sch.values
    np.testing.assert_allclose(vals[0::2], 1.0 + PULSE_DEPTH, atol=1e-12)
    np.testing.assert_allclose(vals[1::2], 1.0 - PULSE_DEPTH, atol=1e-12)


@pytest.mark.filterwarnings("ignore::veplab.stimgen.NonIntegerCycleWarning")
def test_schedule_length_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        fr = rng.uniform(60, 240)
        dur = rng.uniform(0.1, 6.0)
        f = rng.uniform(1.0, fr / 2)
        sch = build_frame_schedule(StimulusSpec("radial_motion", f, fr, dur))
        assert sch.n_frames == round(dur * fr)
        np.testing.assert_allclose(sch.frame_times(), np.arange(sch.n_frames) / fr)


@pytest.mark.filterwarnings("ignore::veplab.stimgen.NonIntegerCycleWarning")
def test_radial_schedule_matches_high_precision_reference():
    # 14 Hz on 144 Hz is a non-integer 10.2857 frames/cycle; exact frame-time
    # evaluation must match an mpmath reference to 1e-12
    import mpmath

    mpmath.mp.dps = 40
    sch = build_frame_schedule(StimulusSpec("radial_motion", 14.0, 144.0, 1.0))
    for n in range(0, sch.n_frames, 7):
        t = mpmath.mpf(n) / 144
        ref = mpmath.pi / 2 + mpmath.pi / 2 * mpmath.sin(
            2 * mpmath.pi * 14 * t - mpmath.pi / 2
        )
        assert abs(sch.values[n] - float(ref)) <= 1e-12


def test_checkerboard_negation_between_phases():
    a = render_checkerboard(0.0).values
    b = render_checkerboard(np.pi).values
    r, _ = checker_polar()
    annulus = (r >= FIXATION_RADIUS_PX) & (r <= OUTER_RADIUS_PX)
    # sign(sin(x+pi)) = -sign(sin(x)) inside the annulus
    np.testing.assert_allclose(a[annulus], -b[annulus], atol=1e-12)


def test_checkerboard_fixation_disk_white_and_outside_gray():
    r, _ = checker_polar()
    for phase in (0.0, 1.0, np.pi):
        img = render_checkerboard(phase).values
        assert np.all(img[r < FIXATION_RADIUS_PX] == 1.0)
        assert np.all(img[r > OUTER_RADIUS_PX] == 0.0)


def test_checkerboard_ring_count_oracle():
    # sample a mid-wedge ray; the 1-D radial profile evaluated at the same
    # pixel radii is the oracle for how many band transitions it crosses
    img = render_checkerboard(0.0).values
    c = OUTER_RADIUS_PX
    theta = np.pi / (2 * ANGULAR_CYCLES)  # middle of the first wedge
    ray_signs, radii = [], []
    for r in range(1, c - 1):
        px = c + round(r * np.cos(theta))
        py = c + round(r * np.sin(theta))
        v = img[py, px]
        if v != 0:
            ray_signs.append(v)
            radii.append(np.hypot(px - c, py - c))
    radii = np.array(radii)
    oracle = np.sign(np.sin(2 * np.pi * RADIAL_CYCLES * radii / OUTER_RADIUS_PX))
    oracle[radii < FIXATION_RADIUS_PX] = 1.0
    changes = int(np.sum(np.diff(ray_signs) != 0))
    assert changes == int(np.sum(np.diff(oracle) != 0))
    # bands alternate: transitions + 1 = 2 rings per radial cycle, since the
    # white fixation disk lies inside the first (white on this ray) ring
    assert FIXATION_RADIUS_PX < OUTER_RADIUS_PX / (2 * RADIAL_CYCLES)
    assert changes + 1 == 2 * RADIAL_CYCLES


def gabor_oracle(mask_scale):
    """The grating times the Gaussian envelope, pixel by pixel."""
    size = GABOR_SIZE_PX
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) - (size - 1) / 2.0
    grating = GABOR_CONTRAST * np.cos(
        2 * np.pi * GABOR_SPATIAL_FREQ * x / size + GABOR_PHASE
    )
    sigma = mask_scale * GABOR_SIGMA_PX
    return grating, np.exp(-(x * x + y * y) / (2.0 * sigma * sigma))


def test_gabor_center_value_equals_contrast():
    for scale in (1.0 - PULSE_DEPTH, 1.0, 1.0 + PULSE_DEPTH):
        img = render_gabor(scale).values
        grating, envelope = gabor_oracle(scale)
        np.testing.assert_allclose(img, grating * envelope, rtol=0, atol=1e-12)
        # the four centre pixels, half a pixel off the envelope's peak on
        # each axis, keep the grating at full contrast
        mid = slice(GABOR_SIZE_PX // 2 - 1, GABOR_SIZE_PX // 2 + 1)
        np.testing.assert_allclose(img[mid, mid], grating[mid, mid], rtol=1e-3)


def test_gabor_large_mask_approaches_pure_grating():
    img = render_gabor(1e6)
    x = np.arange(GABOR_SIZE_PX) - (GABOR_SIZE_PX - 1) / 2.0
    grating = GABOR_CONTRAST * np.cos(
        2 * np.pi * GABOR_SPATIAL_FREQ * x / GABOR_SIZE_PX + GABOR_PHASE
    )
    np.testing.assert_allclose(img.values[0], grating, atol=1e-9)


def test_gabor_energy_monotone_in_mask_scale():
    energies = []
    for scale in (0.5, 1.0, 1.5):
        v = render_gabor(scale).values
        energies.append(float(np.sum(v * v)))  # direct summation oracle
    assert energies[0] < energies[1] < energies[2]


def test_rendered_values_in_range():
    img1 = render_checkerboard(1.2).values
    img2 = render_gabor(0.7).values
    for img in (img1, img2):
        assert img.min() >= -1.0 and img.max() <= 1.0


def test_schedule_json_and_pgm(tmp_path):
    sch = build_frame_schedule(StimulusSpec("radial_motion", 8.0, 144.0, 0.1))
    data = json.loads(sch.to_json())
    assert data["refresh_rate_hz"] == 144.0
    assert data["paradigm"] == "radial_motion"
    assert len(data["frames"]) == sch.n_frames
    assert data["frames"][1]["t_s"] == 1 / 144.0

    img = render_gabor(1.0)
    p = tmp_path / "f.pgm"
    write_pgm(img, p)
    raw = p.read_bytes()
    header = b"P5\n256 256\n255\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 256 * 256


def test_write_frame_stack(tmp_path):
    from veplab.stimgen import write_frame_stack

    spec = StimulusSpec("pattern_reversal", 7.2, 144.0, 0.05)
    sch = build_frame_schedule(spec)
    n = write_frame_stack(spec, sch, tmp_path / "frames")
    assert n == 7
    files = sorted((tmp_path / "frames").iterdir())
    assert len(files) == 7
    assert files[0].name == "frame_00000.pgm"


def test_checkerboard_cached_geometry_matches_fresh():
    # the per-call formula, with the whole grid evaluated for every frame
    r, theta = checker_polar()
    angular = np.sin(ANGULAR_CYCLES * theta)

    def fresh(phase):
        vals = np.sign(np.sin(2 * np.pi * RADIAL_CYCLES * r / OUTER_RADIUS_PX + phase) * angular)
        vals[r > OUTER_RADIUS_PX] = 0.0
        vals[r < FIXATION_RADIUS_PX] = 1.0
        return vals

    sch = build_frame_schedule(StimulusSpec("radial_motion", 8.0, 144.0, 0.5))
    phases = [0.0, np.pi, *sch.values.tolist(), *np.linspace(0.0, np.pi, 200).tolist()]
    for phase in phases:
        assert np.array_equal(render_checkerboard(phase).values, fresh(phase)), phase


@pytest.mark.parametrize("paradigm,freq", [
    ("pattern_reversal", 8.0), ("radial_motion", 8.0), ("gabor_pulse", 72.0),
])
def test_write_frame_stack_renders_and_writes_each_frame_once(
    tmp_path, monkeypatch, paradigm, freq
):
    from veplab import stimgen

    spec = StimulusSpec(paradigm, freq, 144.0, 0.1)
    sch = build_frame_schedule(spec)
    rendered, written = [], []
    render, write = stimgen.render_frame, stimgen.write_pgm

    def counting_render(spec, state):
        rendered.append(state)
        return render(spec, state)

    def counting_write(image, path):
        written.append(path)
        return write(image, path)

    monkeypatch.setattr(stimgen, "render_frame", counting_render)
    monkeypatch.setattr(stimgen, "write_pgm", counting_write)
    assert stimgen.write_frame_stack(spec, sch, tmp_path / "frames") == sch.n_frames
    assert rendered == sch.values.tolist()
    assert len(written) == len(set(written)) == sch.n_frames


def test_luminance_rejects_nan():
    from veplab.stimgen import LuminanceImage, render_frame

    for bad in (np.full((2, 2), np.nan), np.array([[0.5, np.nan], [-1.0, 1.0]])):
        with pytest.raises(InputError, match=r"\[-1, 1\]"):
            LuminanceImage(bad)
    for scale in (np.nan, np.inf):
        with pytest.raises(InputError, match="mask_scale"):
            render_gabor(scale)
    spec = StimulusSpec("gabor_pulse", 72.0, 144.0, 0.1)
    with pytest.raises(InputError):
        render_frame(spec, np.nan)


@pytest.mark.parametrize("height", [1, 31, 32, 33, 513])
def test_write_pgm_matches_reference_encoding(tmp_path, height):
    from veplab.stimgen import LuminanceImage

    width = 513 if height == 513 else 7
    rng = np.random.default_rng(height)
    values = rng.uniform(-1.0, 1.0, size=(height, width))
    edges = [1.0, -1.0, 0.0, -0.0, 1.0 + 1e-12, -1.0 - 1e-12]
    flat = values.reshape(-1)
    # the edge values at the start and at the end, so both the first and the
    # last row block carry them
    flat[: len(edges)] = edges
    flat[-len(edges):] = edges
    path = tmp_path / "f.pgm"
    write_pgm(LuminanceImage(values), path)
    ref = np.round(np.clip((values + 1.0) * 127.5, 0, 255)).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    assert path.read_bytes() == header + ref.tobytes()


def test_default_frame_allocations_stay_small(tmp_path):
    # a frame-sized float64 temporary freed each frame lets the allocator
    # return memory to the system and fault it back in on the next frame
    import tracemalloc

    image = render_checkerboard(1.0)  # builds the cached grid
    frame_bytes = image.values.nbytes

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: write_pgm(image, tmp_path / "f.pgm")) < 1_000_000
    assert peak(lambda: render_checkerboard(1.0)) < 1.5 * frame_bytes


def test_validate_spec_rejects_frame_counts_above_ceiling():
    validate_spec(StimulusSpec("radial_motion", 8.0, 144.0, MAX_FRAMES / 144.0))
    for spec in (
        StimulusSpec("radial_motion", 8.0, 144.0, MAX_FRAMES / 144.0 + 1.0),
        StimulusSpec("radial_motion", 8.0, 144.0, 1e300),
        StimulusSpec("radial_motion", 8.0, 1e300, 1.0),
    ):
        with pytest.raises(InputError, match="duration_s .* refresh_rate_hz"):
            validate_spec(spec)


def test_pulse_depth_keeps_the_mask_width_positive(tmp_path):
    from veplab.stimgen import write_frame_stack

    # depth 1 would shrink the mask to zero width at the pulse trough
    assert 0.0 <= PULSE_DEPTH < 1.0
    spec = StimulusSpec("gabor_pulse", 72.0, 144.0, 0.05)
    sch = build_frame_schedule(spec)
    assert sch.values.min() == pytest.approx(1.0 - PULSE_DEPTH) and sch.values.min() > 0
    assert write_frame_stack(spec, sch, tmp_path / "frames") == sch.n_frames == 7
    assert len(list((tmp_path / "frames").iterdir())) == 7


# level 0.0, byte 128, covers the outside and every pixel whose angular sine
# is exactly 0 (the centre and the wedge edges on the axes); phases 0 and pi
# are the ends of the range
@pytest.mark.parametrize("phase", [0.0, np.pi, 1e-12, np.pi / 2, 2.0, np.pi - 1e-9])
def test_palette_frames_encode_like_their_pixels(tmp_path, phase):
    from veplab.stimgen import LuminanceImage

    image = render_checkerboard(phase)
    assert image.index is not None and image.levels.ndim == 1
    values = image.values
    write_pgm(image, tmp_path / "palette.pgm")
    write_pgm(LuminanceImage(values), tmp_path / "dense.pgm")
    palette = (tmp_path / "palette.pgm").read_bytes()
    assert palette == (tmp_path / "dense.pgm").read_bytes()
    ref = np.round(np.clip((values + 1) * 127.5, 0, 255)).astype(np.uint8)
    assert (ref == 128).any()
    size = 2 * OUTER_RADIUS_PX + 1
    assert palette == f"P5\n{size} {size}\n255\n".encode("ascii") + ref.tobytes()


def test_luminance_image_rejects_malformed_palettes():
    from veplab.stimgen import LuminanceImage

    index = np.zeros((3, 4), dtype=np.intp)
    image = LuminanceImage(np.array([-1.0, 0.0, 1.0]), index)
    assert (image.height, image.width) == (3, 4)
    assert np.array_equal(image.values, np.full((3, 4), -1.0))
    for levels in (np.array([0.0, 1.5]), np.array([np.nan, 0.0]), np.array([-1.1])):
        with pytest.raises(InputError, match=r"\[-1, 1\]"):
            LuminanceImage(levels, index)
    with pytest.raises(InputError, match="2-D"):
        LuminanceImage(np.array([0.0, 1.0]))
    with pytest.raises(InputError, match="palette levels must be 1-D"):
        LuminanceImage(np.zeros((2, 2)), index)
    for bad in (np.zeros(4, dtype=np.intp), np.zeros((2, 2, 2), dtype=np.intp),
                np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), [[0.5, 1.0]]):
        with pytest.raises(InputError, match="2-D integer array"):
            LuminanceImage(np.array([0.0, 1.0]), bad)


# sha256 of each stack's frame files concatenated in name order: the
# benchmark's seed-1 stimuli, 72 frames each
SEED1_FRAME_DIGESTS = {
    ("pattern_reversal", 8.0): "131d40f994ef63bf360538036babb1ddc9412938a88b6c6efeccfa20d4fcc529",
    ("radial_motion", 12.0): "3524587ccca18be6277d9371db28b89957a0ba6ae2ecd43bf322daf63febb223",
    ("gabor_pulse", 48.0): "97b6640023f9a1cc320112f6b26c62508fcb34e2810a9ea9080f0b0a0acbdca8",
}


@pytest.mark.parametrize("paradigm,freq", sorted(SEED1_FRAME_DIGESTS))
def test_default_frame_stacks_are_pinned(tmp_path, paradigm, freq):
    import hashlib

    from veplab.stimgen import write_frame_stack

    spec = StimulusSpec(paradigm, freq, 144.0, 0.5)
    assert write_frame_stack(spec, build_frame_schedule(spec), tmp_path) == 72
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.read_bytes())
    assert digest.hexdigest() == SEED1_FRAME_DIGESTS[paradigm, freq]
