"""Frame-accurate stimulus schedules and offline rendering for the three paradigms.

Paradigms: pattern_reversal (two contrast-inverted checkerboards alternating),
radial_motion (checkerboard whose radial phase follows a sinusoid, producing
contraction-expansion), and gabor_pulse (a sinusoidal grating whose Gaussian
mask width pulses at high frequency).

All states are evaluated exactly at frame timestamps t = n / refresh_rate
rather than by per-frame phase accumulation, so there is no drift for
non-integer frames-per-cycle.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError

PATTERN_REVERSAL = "pattern_reversal"
RADIAL_MOTION = "radial_motion"
GABOR_PULSE = "gabor_pulse"
PARADIGMS = (PATTERN_REVERSAL, RADIAL_MOTION, GABOR_PULSE)

# 24 h of frames at 144 Hz; a schedule this long holds about 100 MB of states
MAX_FRAMES = 24 * 3600 * 144


class NonIntegerCycleWarning(UserWarning):
    """Stimulus frequency does not divide the refresh rate evenly."""


@dataclass(frozen=True)
class CheckerGeometry:
    """Radial checkerboard geometry (rings x wedges, sizes in pixels)."""

    radial_cycles: int = 5
    angular_cycles: int = 12
    outer_radius_px: int = 256
    fixation_radius_px: int = 25

    def __post_init__(self):
        if self.radial_cycles < 1 or self.angular_cycles < 1:
            raise InputError("radial_cycles and angular_cycles must be >= 1")
        if self.outer_radius_px <= 0:
            raise InputError("outer_radius_px must be > 0")
        if self.fixation_radius_px < 0:
            raise InputError("fixation_radius_px must be >= 0")


@dataclass(frozen=True)
class GaborParams:
    """Sinusoidal grating with Gaussian envelope.

    spatial_freq is in cycles per stimulus width; phase in radians. The
    pulse scales the Gaussian mask width (sigma) by 1 +- pulse_depth, with
    pulse_depth in [0, 1) so the narrowest mask keeps a width; the grating
    contrast stays fixed.
    """

    contrast: float = 1.0
    phase: float = 2.5
    spatial_freq: float = 25.0
    mask_sigma_px: float = 48.0
    pulse_depth: float = 0.3
    size_px: int = 256

    def __post_init__(self):
        if not 0.0 <= self.contrast <= 1.0:
            raise InputError(f"contrast must be in [0, 1], got {self.contrast}")
        if not 0.0 <= self.pulse_depth < 1.0:
            raise InputError(f"pulse_depth must be in [0, 1), got {self.pulse_depth}")
        if self.mask_sigma_px <= 0:
            raise InputError("mask_sigma_px must be > 0")
        if self.size_px <= 0:
            raise InputError("size_px must be > 0")


@dataclass(frozen=True)
class StimulusSpec:
    paradigm: str
    stim_freq_hz: float
    refresh_rate_hz: float = 144.0
    duration_s: float = 5.0
    geometry: CheckerGeometry | GaborParams | None = None

    def resolved_geometry(self) -> CheckerGeometry | GaborParams:
        if self.geometry is not None:
            return self.geometry
        if self.paradigm == GABOR_PULSE:
            return GaborParams()
        return CheckerGeometry()


@dataclass(frozen=True)
class FrameSchedule:
    """Per-frame stimulus state: pattern_id, phase (rad), or mask_scale."""

    refresh_rate_hz: float
    paradigm: str
    values: np.ndarray  # pattern ids (int) or phases / mask scales (float)

    @property
    def n_frames(self) -> int:
        return len(self.values)

    @property
    def state_name(self) -> str:
        return {
            PATTERN_REVERSAL: "pattern_id",
            RADIAL_MOTION: "phase",
            GABOR_PULSE: "mask_scale",
        }[self.paradigm]

    def frame_times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.refresh_rate_hz

    def to_json(self) -> str:
        times = self.frame_times()
        vals = self.values.tolist()
        frames = [
            {"n": n, "t_s": float(t), "state": v}
            for n, (t, v) in enumerate(zip(times, vals))
        ]
        return json.dumps(
            {
                "refresh_rate_hz": self.refresh_rate_hz,
                "paradigm": self.paradigm,
                "state": self.state_name,
                "frames": frames,
            },
            indent=2,
        )


@dataclass(frozen=True)
class LuminanceImage:
    """Grayscale image with values in [-1, 1].

    LuminanceImage(values) holds a 2-D image. LuminanceImage(levels, index)
    is a palette image, levels[index]: a 1-D table of levels and a 2-D
    integer array of positions in it, each in [0, len(levels)). values is
    the 2-D image in either form.
    """

    levels: np.ndarray
    index: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.levels, dtype=np.float64)
        if self.index is None:
            if v.ndim != 2:
                raise InputError("image values must be 2-D")
        else:
            index = np.asarray(self.index)
            if index.ndim != 2 or index.dtype.kind not in "iu":
                raise InputError("a palette index must be a 2-D integer array")
            if v.ndim != 1:
                raise InputError("palette levels must be 1-D")
            object.__setattr__(self, "index", index)
        # written so that a NaN, which min() and max() propagate, fails it
        if v.size and not (v.min() >= -1.0 - 1e-12 and v.max() <= 1.0 + 1e-12):
            raise InputError("luminance values must lie in [-1, 1]")
        object.__setattr__(self, "levels", v)

    @property
    def values(self) -> np.ndarray:
        return self.levels if self.index is None else self.levels[self.index]

    @property
    def width(self) -> int:
        return (self.levels if self.index is None else self.index).shape[1]

    @property
    def height(self) -> int:
        return (self.levels if self.index is None else self.index).shape[0]


def radial_phase(t, f_c: float):
    """Contraction-expansion phase at time t for motion frequency f_c.

    phi(t) = pi/2 + (pi/2) * sin(2*pi*f_c*t - pi/2), always in [0, pi];
    phi sweeps 0 -> pi (contraction) then back (expansion) once per 1/f_c.
    """
    if f_c <= 0:
        raise InputError(f"motion frequency must be > 0, got {f_c}")
    return np.pi / 2 + (np.pi / 2) * np.sin(2 * np.pi * f_c * np.asarray(t) - np.pi / 2)


def validate_spec(spec: StimulusSpec) -> None:
    """Reject physically impossible specs; warn on non-integer frames-per-cycle.

    A spec must give between 1 and MAX_FRAMES frames (12,441,600: 24 h at
    144 Hz), so a schedule is never too large to allocate.
    """
    if spec.paradigm not in PARADIGMS:
        raise InputError(f"unknown paradigm {spec.paradigm!r}; expected {PARADIGMS}")
    for name in ("refresh_rate_hz", "duration_s", "stim_freq_hz"):
        value = getattr(spec, name)
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"{name} must be finite and > 0, got {value}")
    n_frames = spec.duration_s * spec.refresh_rate_hz
    if not (math.isfinite(n_frames) and round(n_frames) >= 1):
        raise InputError(
            f"duration_s {spec.duration_s} at {spec.refresh_rate_hz} Hz gives "
            f"{n_frames} frames; need at least 1"
        )
    if round(n_frames) > MAX_FRAMES:
        raise InputError(
            f"duration_s {spec.duration_s} at refresh_rate_hz {spec.refresh_rate_hz} "
            f"Hz gives {n_frames:g} frames; at most {MAX_FRAMES} (24 h at 144 Hz)"
        )
    if spec.stim_freq_hz > spec.refresh_rate_hz / 2:
        raise InputError(
            f"stim_freq_hz {spec.stim_freq_hz} exceeds Nyquist for "
            f"refresh {spec.refresh_rate_hz} Hz"
        )
    geometry = spec.resolved_geometry()
    if spec.paradigm == GABOR_PULSE and not isinstance(geometry, GaborParams):
        raise InputError("gabor_pulse requires GaborParams geometry")
    if spec.paradigm != GABOR_PULSE and not isinstance(geometry, CheckerGeometry):
        raise InputError(f"{spec.paradigm} requires CheckerGeometry geometry")
    frames_per_cycle = spec.refresh_rate_hz / spec.stim_freq_hz
    if abs(frames_per_cycle - round(frames_per_cycle)) > 1e-9:
        warnings.warn(
            f"{spec.stim_freq_hz} Hz on a {spec.refresh_rate_hz} Hz display gives "
            f"{frames_per_cycle:.4f} frames per cycle (non-integer)",
            NonIntegerCycleWarning,
            stacklevel=2,
        )


def build_frame_schedule(spec: StimulusSpec) -> FrameSchedule:
    """Evaluate the paradigm's state at every frame time n / refresh_rate."""
    validate_spec(spec)
    n_frames = round(spec.duration_s * spec.refresh_rate_hz)
    n = np.arange(n_frames)
    f = spec.stim_freq_hz
    fr = spec.refresh_rate_hz
    if spec.paradigm == PATTERN_REVERSAL:
        values = np.floor(2.0 * f * n / fr).astype(np.int64) % 2
    elif spec.paradigm == RADIAL_MOTION:
        values = radial_phase(n / fr, f)
    else:
        geometry = spec.resolved_geometry()
        # Cosine phase: the pulse peaks at frame 0 and still alternates
        # frame-to-frame at the Nyquist pulse rate (e.g. 72 Hz on 144 Hz),
        # where a sine sampled at frame times would be identically zero.
        values = 1.0 + geometry.pulse_depth * np.cos(2 * np.pi * f * n / fr)
    return FrameSchedule(refresh_rate_hz=fr, paradigm=spec.paradigm, values=values)


@functools.lru_cache(maxsize=4)
def _checker_grid(geom: CheckerGeometry):
    """The phase-independent parts of a checkerboard, built once per geometry.

    Returns (distinct, index), both read-only. distinct holds the sorted
    distinct values of the radial argument 2*pi*k*r/R over the grid. index
    holds, per pixel, a position in the table [ring, -ring, 0.0, 1.0] with
    ring = sign(sin(distinct + phase)): i or i + n for a pixel with radial
    value distinct[i] where sin(angular_cycles*theta) is > 0 or < 0, 2n
    where that sine is 0 or the pixel lies beyond the outer radius, and
    2n + 1 inside the fixation disk (applied last, so fixation wins).
    """
    # A default 513 x 513 grid holds about 2.3 MB; a stimulus run uses one
    # or two geometries, so a few entries bound the memory.
    size = 2 * geom.outer_radius_px + 1
    offsets = np.arange(size, dtype=np.float64) - geom.outer_radius_px
    # r depends only on |x| and |y| (hypot(-x, y) == hypot(x, y) exactly), so
    # the radial parts are built on one quadrant and gathered onto the grid
    quadrant = offsets[geom.outer_radius_px :]
    r = np.hypot(quadrant[None, :], quadrant[:, None])
    radial = 2 * np.pi * geom.radial_cycles * r / geom.outer_radius_px
    distinct, folded = np.unique(radial, return_inverse=True)
    n = len(distinct)
    fold = np.abs(offsets).astype(np.intp)
    rows, cols = fold[:, None], fold[None, :]
    index = folded.reshape(r.shape)[rows, cols]
    angular = np.arctan2(offsets[:, None], offsets[None, :])
    angular *= geom.angular_cycles
    np.sin(angular, out=angular)
    index[angular < 0] += n
    index[angular == 0] = 2 * n
    del angular
    index[(r > geom.outer_radius_px)[rows, cols]] = 2 * n
    index[(r < geom.fixation_radius_px)[rows, cols]] = 2 * n + 1
    for a in (distinct, index):
        a.setflags(write=False)
    return distinct, index


def render_checkerboard(geom: CheckerGeometry, phase: float) -> LuminanceImage:
    """Radial checkerboard at the given radial phase.

    value(r, theta) = sign(sin(2*pi*radial_cycles*r/outer_radius + phase)
                           * sin(angular_cycles*theta));
    the fixation disk is white (+1) and everything beyond the outer radius
    is mean gray (0). Per frame, sin(2*pi*k*r/R + phase) is evaluated once
    per distinct pixel radius, and the frame is the palette image of the
    2n + 2 levels [ring, -ring, 0, 1] through the read-only index
    _checker_grid builds once per CheckerGeometry; no float frame is built.
    The values equal the formula's, since sign(a*b) = sign(a)*sign(b) for
    these sines, whose products are never subnormal.
    """
    if not -1e-12 <= phase <= np.pi + 1e-12:
        raise InputError(f"phase must be in [0, pi], got {phase}")
    distinct, index = _checker_grid(geom)
    ring = np.sign(np.sin(distinct + phase))
    return LuminanceImage(np.concatenate([ring, -ring, [0.0, 1.0]]), index)


def render_gabor(params: GaborParams, mask_scale: float = 1.0) -> LuminanceImage:
    """Gabor patch with the Gaussian mask width scaled by mask_scale."""
    if not (math.isfinite(mask_scale) and mask_scale > 0):
        raise InputError(f"mask_scale must be finite and > 0, got {mask_scale}")
    size = params.size_px
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    x = coords[None, :]
    y = coords[:, None]
    grating = params.contrast * np.cos(
        2 * np.pi * params.spatial_freq * x / size + params.phase
    )
    sigma = mask_scale * params.mask_sigma_px
    envelope = np.exp(-(x**2 + y**2) / (2.0 * sigma**2))
    return LuminanceImage(grating * envelope)


def render_frame(spec: StimulusSpec, state) -> LuminanceImage:
    """Render one frame of the paradigm from its schedule state."""
    geometry = spec.resolved_geometry()
    if spec.paradigm == PATTERN_REVERSAL:
        return render_checkerboard(geometry, np.pi * int(state))
    if spec.paradigm == RADIAL_MOTION:
        return render_checkerboard(geometry, float(state))
    return render_gabor(geometry, float(state))


def write_pgm(image: LuminanceImage, path) -> None:
    """Write a binary PGM (P5), mapping [-1, 1] to [0, 255].

    Each level becomes rint(clip((v + 1) * 255/2, 0, 255)) as uint8, once
    per level; a palette image then gathers the bytes through its index.
    Every pixel goes through the same arithmetic either way, so the bytes
    equal a per-pixel encoding of values.
    """
    v = image.levels + 1.0
    v *= 255.0 / 2.0
    np.clip(v, 0, 255, out=v)
    np.rint(v, out=v)
    data = v.astype(np.uint8)
    if image.index is not None:
        data = data[image.index]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
        fh.write(data)


def write_frame_stack(spec: StimulusSpec, schedule: FrameSchedule, out_dir) -> int:
    """Render every frame of the schedule to out_dir/frame_<n>.pgm."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    for n, state in enumerate(schedule.values.tolist()):
        write_pgm(render_frame(spec, state), os.path.join(out_dir, f"frame_{n:05d}.pgm"))
    return schedule.n_frames
