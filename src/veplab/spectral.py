"""Single-window boxcar PSD and the local-ratio SNR spectrum.

The PSD is one untapered FFT of the whole segment it is given (the pipeline
passes the trial after its onset transient), normalized so that
sum(power) * resolution equals the segment variance. SNR at a bin is its
power over the mean power of SNR_NEIGHBORS (3) bins on each side, skipping
SNR_SKIP (1) guard bin next to it; edges without a full neighborhood are NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .model import TrialEpoch

SNR_NEIGHBORS = 3
SNR_SKIP = 1


@dataclass(frozen=True)
class PowerSpectrum:
    freqs_hz: np.ndarray
    power: np.ndarray  # channels x bins, uV^2/Hz
    resolution_hz: float

    @property
    def n_bins(self) -> int:
        return len(self.freqs_hz)


@dataclass(frozen=True)
class SnrSpectrum:
    freqs_hz: np.ndarray
    snr_db: np.ndarray  # channels x bins, NaN where the neighborhood is undefined
    snr_linear: np.ndarray


class SnrReadout(NamedTuple):
    bin_freq_hz: float
    snr_db: np.ndarray  # per channel
    snr_linear: np.ndarray


def psd_boxcar(epoch: TrialEpoch) -> PowerSpectrum:
    """One-segment boxcar periodogram of the whole epoch."""
    fs = epoch.sample_rate_hz
    n = epoch.n_samples
    if n == 0:
        raise InputError("cannot take the spectrum of an empty epoch")
    seg = epoch.samples - epoch.samples.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(seg, axis=1)
    power = np.abs(spec) ** 2 / (fs * n)
    # one-sided: double every bin but DC and (for even n) Nyquist
    power[:, 1:(n + 1) // 2] *= 2.0
    return PowerSpectrum(
        freqs_hz=np.fft.rfftfreq(n, 1.0 / fs),
        power=power,
        resolution_hz=fs / n,
    )


def snr_spectrum(psd: PowerSpectrum) -> SnrSpectrum:
    """Per-bin power over the mean of nearby bins, with guard bins skipped."""
    reach = SNR_SKIP + SNR_NEIGHBORS
    n_bins = psd.n_bins
    if n_bins < 2 * reach + 1:
        raise InputError(
            f"spectrum has {n_bins} bins; need at least {2 * reach + 1} for "
            f"{SNR_NEIGHBORS} neighbor bins and {SNR_SKIP} guard bin a side"
        )
    p = psd.power
    neigh = np.zeros_like(p)
    for off in range(SNR_SKIP + 1, reach + 1):
        neigh[:, reach:-reach] += p[:, reach - off : n_bins - reach - off]
        neigh[:, reach:-reach] += p[:, reach + off : n_bins - reach + off]
    neigh /= 2 * SNR_NEIGHBORS
    with np.errstate(divide="ignore", invalid="ignore"):
        linear = np.where(neigh > 0, p / np.where(neigh > 0, neigh, 1.0), np.inf)
        linear[:, :reach] = np.nan
        linear[:, n_bins - reach :] = np.nan
        db = 10.0 * np.log10(linear)
    return SnrSpectrum(freqs_hz=psd.freqs_hz, snr_db=db, snr_linear=linear)


def snr_at(s: SnrSpectrum, f: float) -> SnrReadout:
    """SNR at the bin nearest to f (ties break toward the lower frequency)."""
    freqs = s.freqs_hz
    if not freqs[0] <= f <= freqs[-1]:
        raise InputError(
            f"{f} Hz outside spectrum range [{freqs[0]}, {freqs[-1]}] Hz"
        )
    res = freqs[1] - freqs[0]
    pos = (f - freqs[0]) / res
    low = int(np.floor(pos))
    idx = low if (pos - low) <= 0.5 else min(low + 1, len(freqs) - 1)
    return SnrReadout(
        bin_freq_hz=float(freqs[idx]),
        snr_db=s.snr_db[:, idx].copy(),
        snr_linear=s.snr_linear[:, idx].copy(),
    )

