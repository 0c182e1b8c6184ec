"""Ground-truth EEG synthesis: evoked harmonics + pink noise + line noise + bursts.

Every sample is reproducible from (seed, subject, task, trial), so datasets can
be regenerated bit-identically and trials can be generated in any order.

Dataset recordings are stored as an amplifier stores them: each sample is
rounded to a whole number of ADC steps of 2^-5 uV (31.25 nV, a common 24-bit
EEG step). The rounding noise is about 0.009 uV rms, against 3 uV of pink
noise, and a power-of-two step keeps every value an exact multiple of the
step with a short decimal form. synth_trial returns unrounded samples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .dsp import check_harmonics, check_windows
from .errors import InputError, check_finite, check_finite_fields, located
from .model import MARKER_BASELINE, MARKER_OFFSET, MARKER_ONSET, TRIAL_S, ChannelLayout
from .model import MarkerStream, Recording, TrialEpoch, json_text, save_markers, save_recording
from .stimgen import GABOR_PULSE, PARADIGMS, PATTERN_REVERSAL, RADIAL_MOTION

DEFAULT_GAINS = {"Pz": 0.9, "Oz": 1.0, "O1": 0.85, "O2": 0.8}

_ARTIFACT_WIDTH_S = 0.25

# amplifier resolution of every dataset recording, in microvolts
ADC_STEP_UV = 2.0**-5

# 24 h at 500 Hz; four channels this long hold about 1.4 GB of float64 samples
MAX_SAMPLES = 24 * 3600 * 500


@dataclass(frozen=True)
class SynthConfig:
    """Amplitudes in microvolts; seed fixes every random draw."""

    evoked_amp_uV: float = 2.0
    harmonic_decay: float = 0.5
    n_harmonics: int = 3
    pink_noise_uV: float = 3.0
    line_freq_hz: float = 50.0
    line_amp_uV: float = 2.0
    artifact_rate_per_min: float = 2.0
    artifact_amp_uV: float = 120.0
    channel_gains: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_GAINS)
    )
    seed: int = 0

    def __post_init__(self):
        check_finite_fields(self, non_negative=(
            "evoked_amp_uV", "pink_noise_uV", "line_amp_uV", "artifact_rate_per_min",
            "artifact_amp_uV"))
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.harmonic_decay <= 1.0:
            raise InputError("harmonic_decay must be in [0, 1]")
        if self.n_harmonics < 1:
            raise InputError("n_harmonics must be >= 1")
        # the names a recording's layout will hold
        with located("channel_gains"):
            ChannelLayout(self.channel_names)

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self.channel_gains)


@dataclass(frozen=True)
class TaskProtocol:
    paradigm: str
    targets_hz: tuple[float, ...]
    trials_per_target: int
    trial_s: float = TRIAL_S
    rest_s: float = 5.0

    def __post_init__(self):
        if self.paradigm not in PARADIGMS:
            raise InputError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        if not self.targets_hz:
            raise InputError("targets_hz must hold at least one target")
        for f in self.targets_hz:
            check_finite("targets_hz", f)
        if self.trials_per_target < 1:
            raise InputError(
                f"trials_per_target must be >= 1, got {self.trials_per_target}"
            )
        check_finite_fields(self, positive=("trial_s",), non_negative=("rest_s",))

    @property
    def n_trials(self) -> int:
        return self.trials_per_target * len(self.targets_hz)


@dataclass(frozen=True)
class SynthProtocol:
    tasks: tuple[TaskProtocol, ...]
    n_subjects: int = 14
    fs_hz: float = 500.0
    baseline_s: float = 10.0
    lead_out_s: float = 2.0

    def __post_init__(self):
        if not self.tasks:
            raise InputError("tasks must hold at least one task")
        if self.n_subjects < 1:
            raise InputError(f"n_subjects must be >= 1, got {self.n_subjects}")
        check_finite_fields(
            self, positive=("fs_hz",), non_negative=("baseline_s", "lead_out_s")
        )
        # every task must be one that analyze accepts
        for k, task in enumerate(self.tasks):
            with located(f"task {k}"):
                check_windows(task.paradigm, task.targets_hz, task.trial_s, self.fs_hz,
                              *self.sample_positions(task))

    def sample_positions(self, task: TaskProtocol) -> tuple[int, list[int], list[int]]:
        """The length of task's recording and the onset and offset sample of
        each trial, each on its segment's first sample (summed seconds drift).
        A recording longer than MAX_SAMPLES is an InputError."""
        length_s = self.baseline_s + task.n_trials * (task.trial_s + task.rest_s) + self.lead_out_s
        if not length_s * self.fs_hz <= MAX_SAMPLES:
            raise InputError(
                f"baseline_s + trials x (trial_s + rest_s) + lead_out_s at fs_hz gives a "
                f"recording of {length_s * self.fs_hz:g} samples; at most {MAX_SAMPLES} "
                "(24 h at 500 Hz)"
            )
        n_base, n_trial, n_rest, n_out = (round(s * self.fs_hz) for s in (
            self.baseline_s, task.trial_s, task.rest_s, self.lead_out_s))
        onsets = [n_base + k * (n_trial + n_rest) for k in range(task.n_trials)]
        return onsets[-1] + n_trial + n_rest + n_out, onsets, [n + n_trial for n in onsets]


def default_protocol(n_subjects: int = 14) -> SynthProtocol:
    """Three tasks: 30 five-second trials each with 5 s rests, 10 s baseline."""
    return SynthProtocol(
        tasks=(
            TaskProtocol(PATTERN_REVERSAL, (7.2, 9.0, 14.0), 10),
            TaskProtocol(RADIAL_MOTION, (8.0, 12.0, 16.0), 10),
            TaskProtocol(GABOR_PULSE, (72.0,), 30),
        ),
        n_subjects=n_subjects,
    )


def _rng_for(cfg: SynthConfig, seed_key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=tuple(seed_key))
    )


def pink_noise(rng: np.random.Generator, n_channels: int, n: int, rms: float) -> np.ndarray:
    """1/f-power noise via spectral shaping of white noise, scaled to rms."""
    white = rng.standard_normal((n_channels, n))
    if n < 2:
        # no frequency above DC to shape: an empty or one-sample segment is silent
        return np.zeros_like(white)
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n)
    amp = np.zeros_like(freqs)
    amp[1:] = 1.0 / np.sqrt(freqs[1:])
    shaped = np.fft.irfft(spec * amp[None, :], n=n, axis=1)
    scale = np.sqrt(np.mean(shaped**2, axis=1, keepdims=True))
    return rms * shaped / scale


def _segment(
    cfg: SynthConfig,
    rng: np.random.Generator,
    evoked_freq_hz: float | None,
    duration_s: float,
    fs_hz: float,
) -> np.ndarray:
    """One contiguous segment, channels x samples; evoked only if freq given."""
    n = round(duration_s * fs_hz)
    t = np.arange(n) / fs_hz
    gains = np.array([cfg.channel_gains[name] for name in cfg.channel_names])
    n_ch = len(gains)
    data = np.zeros((n_ch, n))

    # Harmonic phases are drawn even for silent segments so that the noise
    # draws line up between evoked and non-evoked configurations.
    phases = rng.uniform(0.0, 2 * np.pi, size=cfg.n_harmonics)
    if evoked_freq_hz is not None and cfg.evoked_amp_uV > 0:
        wave = np.zeros(n)
        for h in range(1, cfg.n_harmonics + 1):
            amp_h = cfg.evoked_amp_uV * cfg.harmonic_decay ** (h - 1)
            wave += amp_h * np.sin(2 * np.pi * h * evoked_freq_hz * t + phases[h - 1])
        data += gains[:, None] * wave[None, :]

    if cfg.pink_noise_uV > 0:
        data += pink_noise(rng, n_ch, n, cfg.pink_noise_uV)

    line_phase = rng.uniform(0.0, 2 * np.pi)
    if cfg.line_amp_uV > 0:
        # common-mode mains interference, identical on every channel
        data += cfg.line_amp_uV * np.sin(2 * np.pi * cfg.line_freq_hz * t + line_phase)

    n_bursts = rng.poisson(cfg.artifact_rate_per_min * duration_s / 60.0)
    width = round(_ARTIFACT_WIDTH_S * fs_hz)
    for _ in range(n_bursts):
        ch = rng.integers(n_ch)
        start = rng.integers(max(1, n - width))
        if cfg.artifact_amp_uV > 0 and width > 1:
            bump = cfg.artifact_amp_uV * np.hanning(width)
            stop = min(n, start + width)
            data[ch, start:stop] += bump[: stop - start]
    return data


def synth_trial(
    cfg: SynthConfig,
    target_freq_hz: float,
    duration_s: float,
    fs_hz: float,
    seed_key: tuple[int, ...] = (),
) -> TrialEpoch:
    """One stimulation trial; pass seed_key to vary trials under one config."""
    check_finite("duration_s", duration_s)
    check_finite("fs_hz", fs_hz)
    check_harmonics(cfg.n_harmonics, (target_freq_hz,), fs_hz)
    rng = _rng_for(cfg, seed_key)
    data = _segment(cfg, rng, target_freq_hz, duration_s, fs_hz)
    return TrialEpoch(
        condition="synthetic",
        target_freq_hz=target_freq_hz,
        samples=data,
        sample_rate_hz=fs_hz,
        onset_s=0.0,
    )


def _subject_task_files(
    cfg: SynthConfig, protocol: SynthProtocol, subject: int, task_idx: int
) -> tuple[Recording, MarkerStream, list[dict]]:
    task = protocol.tasks[task_idx]
    fs = protocol.fs_hz
    order_rng = _rng_for(cfg, (subject, task_idx))
    targets = np.repeat(task.targets_hz, task.trials_per_target)
    order_rng.shuffle(targets)

    _, onsets, offsets = protocol.sample_positions(task)
    events: list[tuple[float, str]] = [(0.0, MARKER_BASELINE)]
    trials_meta = []
    rng_base = _rng_for(cfg, (subject, task_idx, 0, 0))
    segments = [_segment(cfg, rng_base, None, protocol.baseline_s, fs)]
    for k, f in enumerate(targets.tolist()):
        rng_stim = _rng_for(cfg, (subject, task_idx, k + 1, 1))
        segments.append(_segment(cfg, rng_stim, f, task.trial_s, fs))
        events.append((onsets[k] / fs, f"{MARKER_ONSET}:{task.paradigm}:{f!r}"))
        trials_meta.append({"onset_s": onsets[k] / fs, "target_hz": f})
        events.append((offsets[k] / fs, f"{MARKER_OFFSET}:{task.paradigm}:{f!r}"))
        rng_rest = _rng_for(cfg, (subject, task_idx, k + 1, 2))
        segments.append(_segment(cfg, rng_rest, None, task.rest_s, fs))
    rng_out = _rng_for(cfg, (subject, task_idx, len(targets) + 1, 3))
    segments.append(_segment(cfg, rng_out, None, protocol.lead_out_s, fs))

    samples = np.concatenate(segments, axis=1)
    # whole ADC steps, in place; + 0.0 turns a rounded -0.0 into 0.0
    samples /= ADC_STEP_UV
    np.rint(samples, out=samples)
    samples *= ADC_STEP_UV
    samples += 0.0
    rec = Recording(sample_rate_hz=fs, layout=ChannelLayout(cfg.channel_names), samples=samples)
    return rec, MarkerStream(tuple(events)), trials_meta


def _vasf_items(rng: np.random.Generator) -> list[float]:
    return np.round(rng.uniform(0.0, 10.0, size=18), 1).tolist()


def synth_dataset(cfg: SynthConfig, protocol: SynthProtocol, out_dir) -> dict:
    """Write per-subject recording/marker CSVs plus a ground-truth manifest.

    Returns the manifest dict; the same content is written to
    out_dir/manifest.json.
    """
    # analyze removes the line the manifest records, whatever its amplitude
    if protocol.fs_hz <= 2 * cfg.line_freq_hz:
        raise InputError(f"fs_hz {protocol.fs_hz} cannot hold the {cfg.line_freq_hz} Hz line_freq_hz")
    for k, task in enumerate(protocol.tasks):
        with located(f"n_harmonics {cfg.n_harmonics}, task {k}"):
            check_harmonics(cfg.n_harmonics, task.targets_hz, protocol.fs_hz)
    os.makedirs(out_dir, exist_ok=True)
    subjects = []
    for s in range(1, protocol.n_subjects + 1):
        vasf_rng = _rng_for(cfg, (s, 99))
        tasks = []
        for ti, task in enumerate(protocol.tasks):
            rec, markers, trials_meta = _subject_task_files(cfg, protocol, s, ti)
            rec_name = f"sub{s:02d}_task{ti + 1}_recording.csv"
            mrk_name = f"sub{s:02d}_task{ti + 1}_markers.csv"
            try:
                save_recording(rec, os.path.join(out_dir, rec_name))
                save_markers(markers, os.path.join(out_dir, mrk_name))
            except OSError as exc:
                raise InputError(f"cannot write dataset files to {out_dir}: {exc}")
            # the task's definition, which analyze reads back with model.json_task
            tasks.append({
                "task": ti + 1, "paradigm": task.paradigm, "targets": list(task.targets_hz),
                "trial_s": task.trial_s, "rest_s": task.rest_s, "recording": rec_name,
                "markers": mrk_name, "vasf_items": _vasf_items(vasf_rng), "trials": trials_meta,
            })
        subjects.append(
            {
                "id": f"S{s}",
                "vasf_baseline_items": _vasf_items(_rng_for(cfg, (s, 98))),
                "tasks": tasks,
            }
        )
    manifest = {
        "fs_hz": protocol.fs_hz,
        "seed": cfg.seed,
        "config": asdict(cfg),
        "subjects": subjects,
    }
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json_text(manifest))
    except OSError as exc:
        raise InputError(f"cannot write manifest to {path}: {exc}")
    return manifest
