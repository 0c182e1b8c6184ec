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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError

PATTERN_REVERSAL = "pattern_reversal"
RADIAL_MOTION = "radial_motion"
GABOR_PULSE = "gabor_pulse"
PARADIGMS = (PATTERN_REVERSAL, RADIAL_MOTION, GABOR_PULSE)


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

    spatial_freq is in cycles per stimulus width; phase in radians. By
    default the pulse modulates the mask width (scale on sigma) with depth
    in [0, 1]; pulse_mode="amplitude" modulates the grating contrast
    instead, since the mechanics of the pulsing motion are a configuration
    choice.
    """

    contrast: float = 1.0
    phase: float = 2.5
    spatial_freq: float = 25.0
    mask_sigma_px: float = 48.0
    pulse_depth: float = 0.3
    size_px: int = 256
    pulse_mode: str = "mask_width"

    def __post_init__(self):
        if not 0.0 <= self.contrast <= 1.0:
            raise InputError(f"contrast must be in [0, 1], got {self.contrast}")
        if not 0.0 <= self.pulse_depth <= 1.0:
            raise InputError(f"pulse_depth must be in [0, 1], got {self.pulse_depth}")
        if self.mask_sigma_px <= 0:
            raise InputError("mask_sigma_px must be > 0")
        if self.size_px <= 0:
            raise InputError("size_px must be > 0")
        if self.pulse_mode not in ("mask_width", "amplitude"):
            raise InputError(f"unknown pulse_mode {self.pulse_mode!r}")
        if self.pulse_mode == "amplitude" and self.contrast * (1 + self.pulse_depth) > 1.0:
            raise InputError(
                "amplitude pulsing would push luminance out of [-1, 1]; "
                "lower contrast or pulse_depth"
            )


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
    """Grayscale image with values in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise InputError("image values must be 2-D")
        if v.size and (v.min() < -1.0 - 1e-12 or v.max() > 1.0 + 1e-12):
            raise InputError("luminance values must lie in [-1, 1]")
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def radial_phase(t, f_c: float):
    """Contraction-expansion phase at time t for motion frequency f_c.

    phi(t) = pi/2 + (pi/2) * sin(2*pi*f_c*t - pi/2), always in [0, pi];
    phi sweeps 0 -> pi (contraction) then back (expansion) once per 1/f_c.
    """
    if f_c <= 0:
        raise InputError(f"motion frequency must be > 0, got {f_c}")
    return np.pi / 2 + (np.pi / 2) * np.sin(2 * np.pi * f_c * np.asarray(t) - np.pi / 2)


def validate_spec(spec: StimulusSpec) -> None:
    """Reject physically impossible specs; warn on non-integer frames-per-cycle."""
    if spec.paradigm not in PARADIGMS:
        raise InputError(f"unknown paradigm {spec.paradigm!r}; expected {PARADIGMS}")
    if spec.refresh_rate_hz <= 0:
        raise InputError("refresh_rate_hz must be > 0")
    if spec.duration_s <= 0:
        raise InputError(f"duration_s must be > 0, got {spec.duration_s}")
    if spec.stim_freq_hz <= 0:
        raise InputError(f"stim_freq_hz must be > 0, got {spec.stim_freq_hz}")
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
    """The phase-independent parts of a checkerboard, built once per geometry:
    the radial argument 2*pi*k*r/R, sin(angular_cycles*theta), and the masks
    of pixels beyond the outer radius and inside the fixation disk (read-only).
    """
    # A default 513 x 513 grid holds about 4.7 MB; a stimulus run uses one
    # or two geometries, so a few entries bound the memory.
    size = 2 * geom.outer_radius_px + 1
    c = geom.outer_radius_px
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    x -= c
    y -= c
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    radial = 2 * np.pi * geom.radial_cycles * r / geom.outer_radius_px
    angular = np.sin(geom.angular_cycles * theta)
    outside = r > geom.outer_radius_px
    fixation = r < geom.fixation_radius_px
    for a in (radial, angular, outside, fixation):
        a.setflags(write=False)
    return radial, angular, outside, fixation


def render_checkerboard(geom: CheckerGeometry, phase: float) -> LuminanceImage:
    """Radial checkerboard at the given radial phase.

    value(r, theta) = sign(sin(2*pi*radial_cycles*r/outer_radius + phase)
                           * sin(angular_cycles*theta));
    the fixation disk is white (+1) and everything beyond the outer radius
    is mean gray (0). Only sin(2*pi*k*r/R + phase) is evaluated per frame;
    the rest is built once per CheckerGeometry.
    """
    if not -1e-12 <= phase <= np.pi + 1e-12:
        raise InputError(f"phase must be in [0, pi], got {phase}")
    radial, angular, outside, fixation = _checker_grid(geom)
    vals = np.sign(np.sin(radial + phase) * angular)
    vals[outside] = 0.0
    vals[fixation] = 1.0
    return LuminanceImage(vals)


def render_gabor(params: GaborParams, mask_scale: float = 1.0) -> LuminanceImage:
    """Gabor patch with the Gaussian mask width scaled by mask_scale."""
    if mask_scale <= 0:
        raise InputError(f"mask_scale must be > 0, got {mask_scale}")
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
    if geometry.pulse_mode == "amplitude":
        img = render_gabor(geometry, 1.0)
        return LuminanceImage(img.values * float(state))
    return render_gabor(geometry, float(state))


def write_pgm(image: LuminanceImage, path) -> None:
    """Write a binary PGM (P5), mapping [-1, 1] to [0, 255]."""
    v = np.clip((image.values + 1.0) * (255.0 / 2.0), 0, 255)
    data = np.round(v).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_frame_stack(spec: StimulusSpec, schedule: FrameSchedule, out_dir) -> int:
    """Render every frame of the schedule to out_dir/frame_<n>.pgm."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    for n, state in enumerate(schedule.values.tolist()):
        write_pgm(render_frame(spec, state), os.path.join(out_dir, f"frame_{n:05d}.pgm"))
    return schedule.n_frames
