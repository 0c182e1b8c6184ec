"""Preprocessing chain: zero-phase band-pass, line-noise removal, artifact
suppression.

The band-pass is scipy's sosfiltfilt on an order FILTER_ORDER (4)
Butterworth design, one design per distinct band; an epoch no longer than
the filter's pad length (27 samples at order 4) is rejected with InputError.

Line noise is removed by least-squares fitting a sinusoid at the mains
frequency in overlapping LINE_WINDOW_S (1 s) windows (raised-cosine
overlap-add), and artifacts by principal-subspace cleaning in ASR_WINDOW_S
(1 s) windows: a component is dropped where its variance exceeds ASR_CUTOFF
(20) times its variance in the quietest ASR_CALIB_S (10 s) stretch of the
recording.

`check_windows` is the one rule for whether a task's trial windows can be
analysed; synth applies it before writing a task, analyze to its markers.

scipy is imported inside the functions that call it, so importing this module
(and veplab) loads numpy only; the first filter or artifact pass loads scipy.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import InputError, located
from .model import Recording, TrialEpoch
from .stimgen import GABOR_PULSE, PATTERN_REVERSAL, RADIAL_MOTION

# the same for every band, recording and task
FILTER_ORDER = 4
# sosfiltfilt's default pad: three times the taps of FILTER_ORDER sections
BANDPASS_PAD = 3 * (2 * FILTER_ORDER + 1)
LINE_WINDOW_S = 1.0
ASR_CUTOFF = 20.0
ASR_WINDOW_S = 1.0
ASR_CALIB_S = 10.0
# a trial is analysed from this long after its onset marker
SKIP_INITIAL_S = 1.0
# sin/cos reference harmonics per target (fewer in onset mode; see
# reference_harmonics)
N_HARMONICS = 3

# band edges bracket each paradigm's targets with margin
PARADIGM_BANDS = {
    PATTERN_REVERSAL: (7.0, 15.0),
    RADIAL_MOTION: (7.0, 17.0),
    GABOR_PULSE: (65.0, 80.0),
}


@dataclass(frozen=True)
class BandpassSpec:
    lo_hz: float
    hi_hz: float
    order: ClassVar[int] = FILTER_ORDER

    def validate(self, fs_hz: float) -> None:
        if not 0 < self.lo_hz < self.hi_hz < fs_hz / 2:
            raise InputError(
                f"band edges ({self.lo_hz}, {self.hi_hz}) invalid for fs {fs_hz} Hz"
            )


@functools.lru_cache(maxsize=64)
def _butter_sos(lo_hz: float, hi_hz: float, fs_hz: float) -> np.ndarray:
    # One design per distinct band; a pipeline run uses about a dozen. The
    # array is shared by every caller and stays writable because sosfiltfilt
    # rejects a read-only one, so it must not leave this module.
    from scipy import signal

    return signal.butter(
        FILTER_ORDER, [lo_hz, hi_hz], btype="bandpass", output="sos", fs=fs_hz
    )


def bandpass(epoch: TrialEpoch, spec: BandpassSpec) -> TrialEpoch:
    """Forward-backward Butterworth band-pass, per channel, length preserved.

    An epoch no longer than sosfiltfilt's pad length is an InputError.
    """
    from scipy import signal

    spec.validate(epoch.sample_rate_hz)
    sos = _butter_sos(spec.lo_hz, spec.hi_hz, epoch.sample_rate_hz)
    _check_padded(epoch.samples.shape[1])
    filtered = signal.sosfiltfilt(sos, epoch.samples, axis=1, padlen=BANDPASS_PAD)
    return epoch.replace_samples(filtered)


def _check_padded(n: int) -> None:
    if n <= BANDPASS_PAD:
        raise InputError(f"epoch of {n} samples is too short to band-pass; need > {BANDPASS_PAD}")


def _check_calibrated(n: int, n_calib: int, fs_hz: float) -> None:
    if n < n_calib:
        raise InputError(
            f"recording of {n / fs_hz:.2f} s is shorter than the {ASR_CALIB_S} s "
            "calibration window"
        )


def onset_mode(paradigm: str, targets_hz) -> bool:
    """Single-stimulus on/off detection, scored on the rest windows too,
    instead of FB-CCA."""
    return paradigm == GABOR_PULSE and len(targets_hz) == 1


def reference_harmonics(paradigm: str, targets_hz) -> int:
    """Reference harmonics the decoder builds for a task: N_HARMONICS, or in
    onset mode only those inside the paradigm's band (at least one), since
    the others cannot appear in the band-passed epoch and would only inflate
    the null rho."""
    if not onset_mode(paradigm, targets_hz):
        return N_HARMONICS
    return max(1, min(N_HARMONICS, int(PARADIGM_BANDS[paradigm][1] // max(targets_hz))))


def check_harmonics(n_harmonics: int, targets_hz, fs_hz: float) -> None:
    """Harmonic n_harmonics of every target (if any) must lie below fs_hz / 2."""
    if n_harmonics * max(targets_hz, default=0.0) >= fs_hz / 2:
        raise InputError(
            f"harmonic {n_harmonics} of {max(targets_hz)} Hz is at or above Nyquist "
            f"for fs {fs_hz} Hz"
        )


def check_windows(paradigm, targets_hz, trial_s, fs_hz, n_samples, onsets, offsets) -> int:
    """Check that a task's windows can be analysed in a recording of
    n_samples with onset and offset markers at the sorted sample positions
    onsets and offsets; return the samples decoded per trial.

    The recording must hold the ASR_CALIB_S calibration stretch and the
    paradigm's band, every reference harmonic of the targets must lie below
    Nyquist, and a trial_s window less the SKIP_INITIAL_S skip must outlast
    the band-pass pad. In onset mode each rest window, trial_s from an
    offset, must end by the next onset and inside the recording.
    """
    def samples(seconds: float) -> int:
        # capped, so an overflowing product never reaches round()
        return round(min(seconds * fs_hz, n_samples + 1.0))

    _check_calibrated(n_samples, samples(ASR_CALIB_S), fs_hz)
    with located(paradigm):
        BandpassSpec(*PARADIGM_BANDS[paradigm]).validate(fs_hz)
    with located("targets_hz"):
        check_harmonics(reference_harmonics(paradigm, targets_hz), targets_hz, fs_hz)
    n_window = samples(trial_s)
    n_segment = n_window - samples(SKIP_INITIAL_S)
    with located(f"trial_s {trial_s} s after the {SKIP_INITIAL_S} s skip"):
        _check_padded(n_segment)
    for off in offsets if onset_mode(paradigm, targets_hz) else ():
        k = bisect_left(onsets, off)
        end, what = ((onsets[k], "onset marker") if k < len(onsets) and onsets[k] < n_samples
                     else (n_samples, "recording's end"))
        if off + n_window > end:
            raise InputError(
                f"the {trial_s} s rest window after the offset marker at {off / fs_hz} s "
                f"reaches past the {what} at {end / fs_hz} s; rest_s (and lead_out_s "
                "after the last trial) is under trial_s"
            )
    return n_segment


@functools.lru_cache(maxsize=16)
def _tone_basis(n: int, fs_hz: float, f_line: float) -> np.ndarray:
    """Orthonormal basis of the sin/cos design at f_line over n samples.

    Projecting onto it gives the least-squares tone fit; columns whose
    singular value lstsq's default rcond would drop are left out, so a
    rank-deficient design fits what lstsq fits. Cached read-only: every full
    window of a line removal shares one design.
    """
    t = np.arange(n) / fs_hz
    design = np.column_stack(
        [np.sin(2 * np.pi * f_line * t), np.cos(2 * np.pi * f_line * t)]
    )
    u, sv, _ = np.linalg.svd(design, full_matrices=False)
    cutoff = (sv[0] if sv.size else 0.0) * np.finfo(float).eps * max(design.shape)
    basis = u[:, sv > cutoff]
    basis.flags.writeable = False
    return basis


def _fit_tone(seg: np.ndarray, fs_hz: float, f_line: float) -> np.ndarray:
    """Least-squares sin/cos fit at f_line along the last axis, t from 0."""
    basis = _tone_basis(seg.shape[-1], fs_hz, f_line)
    return (seg @ basis) @ basis.T


def remove_line_noise(epoch: TrialEpoch, f_line: float) -> TrialEpoch:
    """Subtract the locally fitted mains tone in overlapping windows.

    Windows are LINE_WINDOW_S long with 50% overlap; the per-window
    estimates are blended by raised-cosine overlap-add so the subtraction
    tracks slow amplitude or phase drift of the interference. Every full window starts
    its time axis at 0, so all of them are fitted by one batched projection.
    """
    fs = epoch.sample_rate_hz
    if f_line >= fs / 2:
        raise InputError(f"line frequency {f_line} Hz is above Nyquist for fs {fs}")
    x = epoch.samples
    n = x.shape[1]
    win_len = round(LINE_WINDOW_S * fs)
    if n <= win_len:
        return epoch.replace_samples(x - _fit_tone(x, fs, f_line))
    if win_len < 16:
        return epoch  # no window holds a fit's worth of samples

    hop = win_len // 2
    starts = list(range(0, n - win_len + 1, hop))
    windows = np.lib.stride_tricks.sliding_window_view(x, win_len, axis=1)
    fits = _fit_tone(windows[:, starts], fs, f_line)
    tone = np.zeros_like(x)
    weight = np.zeros(n)
    # epsilon keeps the normalization exact where only one window reaches
    w = np.hanning(win_len) + 1e-9
    for k, start in enumerate(starts):
        tone[:, start : start + win_len] += fits[:, k] * w
        weight[start : start + win_len] += w
    tail = starts[-1] + hop
    if starts[-1] + win_len < n and n - tail >= 16:
        # the one partial window reaching the end; a shorter tail is
        # covered by the last full window alone
        w = np.hanning(n - tail) + 1e-9
        tone[:, tail:] += _fit_tone(x[:, tail:], fs, f_line) * w
        weight[tail:] += w
    weight[weight == 0] = 1.0
    return epoch.replace_samples(x - tone / weight[None, :])


def suppress_artifacts(rec: Recording) -> Recording:
    """Remove high-variance principal components in ASR_WINDOW_S windows.

    Calibration statistics come from the lowest-RMS contiguous ASR_CALIB_S
    stretch. In each window, any calibration principal component whose
    variance exceeds ASR_CUTOFF times its calibration variance is dropped and
    the window is rebuilt from the remaining components. Windows with no
    flagged component are passed through untouched.
    """
    fs = rec.sample_rate_hz
    x = rec.samples
    n = x.shape[1]
    n_calib = round(ASR_CALIB_S * fs)
    _check_calibrated(n, n_calib, fs)

    # quietest calibration stretch by total energy, searched on 1 s hops
    squares = x**2
    energy = np.sum(squares, axis=0)
    csum = np.concatenate([[0.0], np.cumsum(energy)])
    hop = max(1, round(fs))
    starts = range(0, n - n_calib + 1, hop)
    calib_start = min(starts, key=lambda s: csum[s + n_calib] - csum[s])
    calib = x[:, calib_start : calib_start + n_calib]

    mu = calib.mean(axis=1, keepdims=True)
    centered = calib - mu
    cov = centered @ centered.T / centered.shape[1]
    # a silent calibration stretch says nothing about artifact thresholds
    global_scale = float(np.mean(squares))
    del squares
    if np.trace(cov) <= 1e-15 * max(global_scale, 1e-30):
        return rec
    from scipy.linalg import eigh

    lam, vecs = eigh(cov)
    lam = np.maximum(lam, 1e-12 * np.trace(cov))

    win_len = round(ASR_WINDOW_S * fs)
    out = None
    start = 0
    while start < n:
        stop = min(n, start + win_len)
        seg = x[:, start:stop] - mu
        scores = vecs.T @ seg
        var = np.mean(scores**2, axis=1)
        bad = var > ASR_CUTOFF * lam
        if np.any(bad):
            scores[bad] = 0.0
            if out is None:
                out = np.array(x)
            out[:, start:stop] = vecs @ scores + mu
        start = stop
    if out is None:
        return rec
    return replace(rec, samples=out)
