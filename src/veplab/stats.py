"""One-way repeated-measures ANOVA with partial eta squared, Holm-adjusted
post-hoc paired t-tests, Cohen's d, and fatigue questionnaire scoring.

p-values come from the regularized incomplete beta `scipy.special.betainc`,
imported on the first p-value rather than at module import; tabulated F and
t values in the tests are the oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InputError

# conventional 18-item split: items 6-10 (1-based) probe energy, the rest fatigue
ENERGY_ITEMS = (5, 6, 7, 8, 9)


@dataclass(frozen=True)
class RmAnovaResult:
    F: float
    df1: int
    df2: int
    p: float
    eta_sq_partial: float


@dataclass(frozen=True)
class PairedTResult:
    t: float
    df: int
    p: float
    cohen_d: float


@dataclass(frozen=True)
class VasfScore:
    fatigue: float
    energy: float
    baseline_corrected: bool = False


def f_sf(F: float, df1: int, df2: int) -> float:
    """Upper tail P(F' >= F) for the F distribution."""
    if F < 0:
        return 1.0
    from scipy.special import betainc

    return float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * F)))


def t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided p for a t statistic."""
    from scipy.special import betainc

    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def _finite(name: str, value: float) -> float:
    """value once it is finite; data large enough to overflow float64 in a
    sum of squares, an sd or t are a DegenerateDataError naming it."""
    if not math.isfinite(value):
        raise DegenerateDataError(f"{name} is {value} in float64; the data are too large to test")
    return value


def rm_anova(data) -> RmAnovaResult:
    """One-way within-subjects ANOVA on a subjects x conditions matrix."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise InputError("data must be a subjects x conditions matrix")
    n, k = x.shape
    if n < 2 or k < 2:
        raise InputError(f"need >= 2 subjects and >= 2 conditions, got {n} x {k}")
    if not np.all(np.isfinite(x)):
        raise InputError("data matrix must be complete (finite values only)")
    # an overflow reads inf or nan, which _finite then names
    with np.errstate(over="ignore", invalid="ignore"):
        grand = x.mean()
        ss_total = float(np.sum((x - grand) ** 2))
        ss_subject = float(k * np.sum((x.mean(axis=1) - grand) ** 2))
        ss_cond = float(n * np.sum((x.mean(axis=0) - grand) ** 2))
    for name, ss in (("total", ss_total), ("subject", ss_subject), ("condition", ss_cond)):
        _finite(f"the {name} sum of squares", ss)
    # with finite sums F and p are finite: the error term checked below is
    # at least 1e-12 of the total, which bounds F
    ss_err = ss_total - ss_subject - ss_cond
    df1 = k - 1
    df2 = (n - 1) * (k - 1)
    if ss_err <= 1e-12 * max(ss_total, 1e-30):
        raise DegenerateDataError(
            "zero within-subject error term; F is undefined for this design"
        )
    F = (ss_cond / df1) / (ss_err / df2)
    return RmAnovaResult(
        F=F,
        df1=df1,
        df2=df2,
        p=f_sf(F, df1, df2),
        eta_sq_partial=ss_cond / (ss_cond + ss_err),
    )


def holm_posthoc(pvals) -> list[float]:
    """Holm step-down adjustment; output matches input order."""
    p = [float(v) for v in pvals]
    if any(not 0.0 <= v <= 1.0 for v in p):
        raise InputError("p-values must lie in [0, 1]")
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


def paired_t(a, b) -> PairedTResult:
    """Two-sided paired t-test with Cohen's d on the differences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("paired_t expects two equal-length vectors")
    n = len(a)
    if n < 2:
        raise InputError("need at least 2 pairs")
    with np.errstate(over="ignore", invalid="ignore"):
        d = a - b
        sd = _finite("the sd of the differences", float(np.std(d, ddof=1)))
    if sd == 0.0:
        raise DegenerateDataError("differences have zero variance")
    mean = float(np.mean(d))
    t = _finite("t", mean / (sd / math.sqrt(n)))
    return PairedTResult(
        t=t, df=n - 1, p=t_sf_two_sided(t, n - 1), cohen_d=mean / sd
    )


def score_vasf(items, baseline: VasfScore | None = None) -> VasfScore:
    """Average the 13 fatigue and 5 energy (ENERGY_ITEMS) items; optionally
    baseline-correct. Each item must lie on the 0-10 scale."""
    vals = [float(v) for v in items]
    if len(vals) != 18:
        raise InputError(f"VAS-F has 18 items, got {len(vals)}")
    for i, v in enumerate(vals):
        # written so that a NaN fails it
        if not 0.0 <= v <= 10.0:
            raise InputError(f"VAS-F item {i + 1} is {v!r}, outside the scale's [0, 10]")
    fatigue = float(np.mean([v for i, v in enumerate(vals) if i not in ENERGY_ITEMS]))
    energy = float(np.mean([vals[i] for i in ENERGY_ITEMS]))
    if baseline is None:
        return VasfScore(fatigue=fatigue, energy=energy)
    return VasfScore(
        fatigue=fatigue - baseline.fatigue,
        energy=energy - baseline.energy,
        baseline_corrected=True,
    )
