"""Target recognition: CCA against sin/cos harmonic references, its filter-bank
extension, and threshold-based onset detection for the single-target task.

The largest canonical correlation is the largest singular value of
Qx^T Qy, where Qx and Qy are orthonormal bases of the centered row spaces of
the two variable sets (Bjorck & Golub 1973). The bases come from an SVD that
drops null directions, so a rank-deficient epoch (a virtual channel that is
the mean of two recorded ones) needs no regularisation. Filter-bank decisions
combine per-band correlations as sum_m w(m) * rho_m^2 with
w(m) = m**-FB_WEIGHT_A + FB_WEIGHT_B = m**-1.25 + 0.25 (Chen et al. 2015) and
pick the argmax target (ties break toward the lowest index).

cca_corr imports scipy.linalg on its first call, not at module import, so
stimulus generation and synthesis never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import BandpassSpec, bandpass
from .errors import DegenerateDataError, InputError
from .model import TrialEpoch

FB_WEIGHT_A = 1.25
FB_WEIGHT_B = 0.25


@dataclass(frozen=True)
class ReferenceSet:
    """Per target: 2*n_harmonics rows of sin/cos at the harmonic frequencies."""

    targets_hz: tuple[float, ...]
    fs_hz: float
    n_samples: int
    matrices: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.targets_hz)


@dataclass(frozen=True)
class FilterBankConfig:
    """Sub-bands weighted by w(m) = m**-FB_WEIGHT_A + FB_WEIGHT_B."""

    bands: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.bands:
            raise InputError("filter bank needs at least one band")
        for lo, hi in self.bands:
            if not 0 < lo < hi:
                raise InputError(f"invalid band ({lo}, {hi})")

    def weights(self) -> np.ndarray:
        m = np.arange(1, len(self.bands) + 1, dtype=np.float64)
        return m**-FB_WEIGHT_A + FB_WEIGHT_B


@dataclass(frozen=True)
class Decision:
    """Per-target combined statistics and the argmax prediction."""

    rho: tuple[float, ...]
    predicted: int
    targets_hz: tuple[float, ...]
    threshold_pass: bool | None = None

    @property
    def predicted_hz(self) -> float:
        return self.targets_hz[self.predicted]


def make_references(
    targets_hz, n_harmonics: int, fs_hz: float, n_samples: int
) -> ReferenceSet:
    """Sin/cos reference matrices for every target, h = 1..n_harmonics."""
    targets = tuple(float(f) for f in targets_hz)
    if not targets:
        raise InputError("need at least one target frequency")
    if n_harmonics < 1:
        raise InputError("n_harmonics must be >= 1")
    if n_samples < 2:
        raise InputError("n_samples must be >= 2")
    if n_harmonics * max(targets) >= fs_hz / 2:
        raise InputError(
            f"harmonic {n_harmonics} of {max(targets)} Hz is at or above Nyquist "
            f"for fs {fs_hz} Hz"
        )
    t = np.arange(n_samples) / fs_hz
    mats = []
    for f in targets:
        rows = []
        for h in range(1, n_harmonics + 1):
            rows.append(np.sin(2 * np.pi * h * f * t))
            rows.append(np.cos(2 * np.pi * h * f * t))
        mats.append(np.vstack(rows))
    return ReferenceSet(
        targets_hz=targets,
        fs_hz=fs_hz,
        n_samples=n_samples,
        matrices=tuple(mats),
    )


def cca_corr(X: np.ndarray, Y: np.ndarray) -> float:
    """Largest canonical correlation between row-variable sets X and Y.

    X is channels x samples, Y is references x samples; both are centered
    internally. Returns rho in [0, 1].
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"sample counts differ: X has {X.shape[1]}, Y has {Y.shape[1]}"
        )
    n = X.shape[1]
    if n < X.shape[0] + Y.shape[0]:
        raise InputError("need more samples than total variables for CCA")
    Xc = X - X.mean(axis=1, keepdims=True)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    for name, m in (("X", Xc), ("Y", Yc)):
        if np.any(np.sum(m**2, axis=1) == 0.0):
            raise DegenerateDataError(f"{name} has a zero-variance row")
    from scipy.linalg import orth, svdvals

    rho = float(svdvals(orth(Xc.T).T @ orth(Yc.T))[0])
    return min(rho, 1.0)


def default_filter_bank(targets_hz, ceiling_hz: float) -> FilterBankConfig:
    """Up to 5 sub-bands starting at successive multiples of the lowest target,
    all capped at ceiling_hz.

    Each corner is lowered by a 2 Hz margin so the filter's roll-off does not
    attenuate the fundamental sitting right at the nominal multiple. A band
    whose nominal corner lies within 2 Hz of the ceiling is not added, but
    the band of the fundamental is always kept.
    """
    f_min = min(float(f) for f in targets_hz)
    bands = [(max(1.0, f_min - 2.0), float(ceiling_hz))]
    for m in range(2, 6):
        lo = m * f_min
        if ceiling_hz - lo < 2.0:
            break
        bands.append((max(1.0, lo - 2.0), float(ceiling_hz)))
    return FilterBankConfig(tuple(bands))


def _check_references(epoch: TrialEpoch, refs: ReferenceSet) -> None:
    """References must be sampled like the epoch they are correlated with."""
    if refs.n_samples != epoch.n_samples:
        raise InputError(
            f"references built for {refs.n_samples} samples but epoch has "
            f"{epoch.n_samples}"
        )
    if refs.fs_hz != epoch.sample_rate_hz:
        raise InputError(
            f"references built for {refs.fs_hz} Hz but epoch is sampled at "
            f"{epoch.sample_rate_hz} Hz"
        )


def fbcca_decide(
    epoch: TrialEpoch, refs: ReferenceSet, bank: FilterBankConfig
) -> Decision:
    """Filter-bank CCA: weighted sum of squared per-band correlations."""
    _check_references(epoch, refs)
    weights = bank.weights()
    rho = np.zeros(len(refs))
    for m, (lo, hi) in enumerate(bank.bands):
        banded = bandpass(epoch, BandpassSpec(lo, hi))
        for k, ref in enumerate(refs.matrices):
            rho[k] += weights[m] * cca_corr(banded.samples, ref) ** 2
    predicted = int(np.argmax(rho))  # first max -> lowest index on ties
    return Decision(
        rho=tuple(float(r) for r in rho),
        predicted=predicted,
        targets_hz=refs.targets_hz,
    )


def detect_onset(
    epoch: TrialEpoch, ref: ReferenceSet, threshold: float
) -> Decision:
    """Single-target stimulus on/off call: pass when rho >= threshold.

    A flat (zero-variance) epoch is a legitimate "off" observation for a
    detector, so it yields rho = 0 rather than a degenerate-input error.
    """
    if len(ref) != 1:
        raise InputError("onset detection expects a single-target reference set")
    if not 0.0 < threshold <= 1.0:
        raise InputError(f"threshold must be in (0, 1], got {threshold}")
    _check_references(epoch, ref)
    try:
        rho = cca_corr(epoch.samples, ref.matrices[0])
    except DegenerateDataError:
        rho = 0.0
    return Decision(
        rho=(rho,),
        predicted=0,
        targets_hz=ref.targets_hz,
        threshold_pass=bool(rho >= threshold),
    )


@dataclass(frozen=True)
class AccuracyBreakdown:
    overall: float
    per_target: dict[float, float] = field(default_factory=dict)


def evaluate_accuracy(decisions, truth_hz) -> AccuracyBreakdown:
    """Fraction of correct predictions, overall and per true target."""
    decisions = list(decisions)
    truth = [float(f) for f in truth_hz]
    if len(decisions) != len(truth):
        raise InputError(
            f"{len(decisions)} decisions but {len(truth)} truth labels"
        )
    if not decisions:
        raise InputError("cannot evaluate accuracy of zero trials")
    hits: dict[float, list[int]] = {}
    for dec, true_f in zip(decisions, truth):
        hits.setdefault(true_f, []).append(int(dec.predicted_hz == true_f))
    per_target = {f: float(np.mean(v)) for f, v in sorted(hits.items())}
    overall = float(
        sum(sum(v) for v in hits.values()) / sum(len(v) for v in hits.values())
    )
    return AccuracyBreakdown(overall=overall, per_target=per_target)
