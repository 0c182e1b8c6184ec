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
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_finite, check_finite_fields

PATTERN_REVERSAL = "pattern_reversal"
RADIAL_MOTION = "radial_motion"
GABOR_PULSE = "gabor_pulse"
PARADIGMS = (PATTERN_REVERSAL, RADIAL_MOTION, GABOR_PULSE)

# 24 h of frames at 144 Hz; a schedule this long holds about 100 MB of states
MAX_FRAMES = 24 * 3600 * 144


class NonIntegerCycleWarning(UserWarning):
    """Stimulus frequency does not divide the refresh rate evenly."""


# Radial checkerboard (rings x wedges, sizes in pixels)
RADIAL_CYCLES = 5
ANGULAR_CYCLES = 12
OUTER_RADIUS_PX = 256
FIXATION_RADIUS_PX = 25

# Sinusoidal grating with Gaussian envelope: the spatial frequency is in
# cycles per stimulus width and the phase in radians. The pulse scales the
# Gaussian mask width (sigma) by 1 +- PULSE_DEPTH, which is below 1 so the
# narrowest mask keeps a width; the grating contrast stays fixed.
GABOR_CONTRAST = 1.0
GABOR_PHASE = 2.5
GABOR_SPATIAL_FREQ = 25.0
GABOR_SIGMA_PX = 48.0
PULSE_DEPTH = 0.3
GABOR_SIZE_PX = 256


@dataclass(frozen=True)
class StimulusSpec:
    paradigm: str
    stim_freq_hz: float
    refresh_rate_hz: float = 144.0
    duration_s: float = 5.0


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
    check_finite("motion frequency", f_c)
    return np.pi / 2 + (np.pi / 2) * np.sin(2 * np.pi * f_c * np.asarray(t) - np.pi / 2)


def validate_spec(spec: StimulusSpec) -> None:
    """Reject physically impossible specs; warn on non-integer frames-per-cycle.

    A spec must give between 1 and MAX_FRAMES frames (12,441,600: 24 h at
    144 Hz), so a schedule is never too large to allocate.
    """
    if spec.paradigm not in PARADIGMS:
        raise InputError(f"unknown paradigm {spec.paradigm!r}; expected {PARADIGMS}")
    check_finite_fields(spec, positive=("refresh_rate_hz", "duration_s", "stim_freq_hz"))
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
        # Cosine phase: the pulse peaks at frame 0 and still alternates
        # frame-to-frame at the Nyquist pulse rate (e.g. 72 Hz on 144 Hz),
        # where a sine sampled at frame times would be identically zero.
        values = 1.0 + PULSE_DEPTH * np.cos(2 * np.pi * f * n / fr)
    return FrameSchedule(refresh_rate_hz=fr, paradigm=spec.paradigm, values=values)


@functools.cache
def _checker_grid():
    """The phase-independent parts of the checkerboard, built once.

    Returns (distinct, index), both read-only. distinct holds the sorted
    distinct values of the radial argument 2*pi*k*r/R over the grid. index
    holds, per pixel, a position in the table [ring, -ring, 0.0, 1.0] with
    ring = sign(sin(distinct + phase)): i or i + n for a pixel with radial
    value distinct[i] where sin(ANGULAR_CYCLES*theta) is > 0 or < 0, 2n
    where that sine is 0 or the pixel lies beyond the outer radius, and
    2n + 1 inside the fixation disk. The 513 x 513 grid holds about 2.3 MB.
    """
    size = 2 * OUTER_RADIUS_PX + 1
    offsets = np.arange(size, dtype=np.float64) - OUTER_RADIUS_PX
    # r depends only on |x| and |y| (hypot(-x, y) == hypot(x, y) exactly), so
    # the radial parts are built on one quadrant and gathered onto the grid
    quadrant = offsets[OUTER_RADIUS_PX:]
    r = np.hypot(quadrant[None, :], quadrant[:, None])
    radial = 2 * np.pi * RADIAL_CYCLES * r / OUTER_RADIUS_PX
    distinct, folded = np.unique(radial, return_inverse=True)
    n = len(distinct)
    fold = np.abs(offsets).astype(np.intp)
    rows, cols = fold[:, None], fold[None, :]
    index = folded.reshape(r.shape)[rows, cols]
    angular = np.arctan2(offsets[:, None], offsets[None, :])
    angular *= ANGULAR_CYCLES
    np.sin(angular, out=angular)
    index[angular < 0] += n
    index[angular == 0] = 2 * n
    del angular
    index[(r > OUTER_RADIUS_PX)[rows, cols]] = 2 * n
    index[(r < FIXATION_RADIUS_PX)[rows, cols]] = 2 * n + 1
    for a in (distinct, index):
        a.setflags(write=False)
    return distinct, index


def render_checkerboard(phase: float) -> LuminanceImage:
    """Radial checkerboard at the given radial phase.

    value(r, theta) = sign(sin(2*pi*RADIAL_CYCLES*r/OUTER_RADIUS_PX + phase)
                           * sin(ANGULAR_CYCLES*theta));
    the fixation disk is white (+1) and everything beyond the outer radius
    is mean gray (0). Per frame, sin(2*pi*k*r/R + phase) is evaluated once
    per distinct pixel radius, and the frame is the palette image of the
    2n + 2 levels [ring, -ring, 0, 1] through the read-only index
    _checker_grid builds once; no float frame is built.
    The values equal the formula's, since sign(a*b) = sign(a)*sign(b) for
    these sines, whose products are never subnormal.
    """
    if not -1e-12 <= phase <= np.pi + 1e-12:
        raise InputError(f"phase must be in [0, pi], got {phase}")
    distinct, index = _checker_grid()
    ring = np.sign(np.sin(distinct + phase))
    return LuminanceImage(np.concatenate([ring, -ring, [0.0, 1.0]]), index)


def render_gabor(mask_scale: float) -> LuminanceImage:
    """Gabor patch with the Gaussian mask width scaled by mask_scale."""
    check_finite("mask_scale", mask_scale)
    size = GABOR_SIZE_PX
    coords = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    x = coords[None, :]
    y = coords[:, None]
    grating = GABOR_CONTRAST * np.cos(
        2 * np.pi * GABOR_SPATIAL_FREQ * x / size + GABOR_PHASE
    )
    sigma = mask_scale * GABOR_SIGMA_PX
    envelope = np.exp(-(x**2 + y**2) / (2.0 * sigma**2))
    return LuminanceImage(grating * envelope)


def render_frame(spec: StimulusSpec, state) -> LuminanceImage:
    """Render one frame of the paradigm from its schedule state."""
    if spec.paradigm == PATTERN_REVERSAL:
        return render_checkerboard(np.pi * int(state))
    if spec.paradigm == RADIAL_MOTION:
        return render_checkerboard(float(state))
    return render_gabor(float(state))


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
    os.makedirs(out_dir, exist_ok=True)
    for n, state in enumerate(schedule.values.tolist()):
        write_pgm(render_frame(spec, state), os.path.join(out_dir, f"frame_{n:05d}.pgm"))
    return schedule.n_frames
