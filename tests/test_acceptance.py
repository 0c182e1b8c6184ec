"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from veplab import (
    SynthConfig,
    TrialEpoch,
    cca_corr,
    detect_onset,
    evaluate_accuracy,
    fbcca_decide,
    holm_posthoc,
    make_references,
    psd_boxcar,
    radial_phase,
    rm_anova,
    snr_spectrum,
    synth_dataset,
    synth_trial,
)
from veplab.decode import default_filter_bank
from veplab.dsp import BandpassSpec, bandpass
from veplab.pipeline import analyze_dataset, emit_report
from veplab.stats import f_sf, t_sf_two_sided
from veplab.synth import default_protocol

FS = 500.0


def _report(criterion: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({desc}): {status} {detail}", flush=True)
    assert ok, f"criterion {criterion} ({desc}) failed: {detail}"


def test_criterion_1_radial_phase_unit_suite():
    start = time.perf_counter()
    ok = True
    for fc in (8.0, 12.0, 16.0):
        ok &= abs(radial_phase(0.0, fc) - 0.0) <= 1e-12
        ok &= abs(radial_phase(1 / (4 * fc), fc) - math.pi / 2) <= 1e-12
        ok &= abs(radial_phase(1 / (2 * fc), fc) - math.pi) <= 1e-12
    t = np.random.default_rng(0).uniform(0.0, 1000.0, size=100_000)
    phi = radial_phase(t, 11.7)
    ok &= bool(np.all(phi >= 0.0) and np.all(phi <= math.pi))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, "motion-phase unit suite", ok, f"elapsed={elapsed:.3f}s")


def test_criterion_2_spectral_fidelity_72hz():
    # single-harmonic response: on 1/f noise the second harmonic's local SNR
    # can otherwise rival the fundamental's, which is not what this probes
    cfg = SynthConfig(
        evoked_amp_uV=4.0,
        n_harmonics=1,
        pink_noise_uV=2.0,
        line_amp_uV=0.0,
        artifact_rate_per_min=0.0,
        seed=11,
    )
    ok = True
    margins = []
    for trial in range(20):
        ep = synth_trial(cfg, 72.0, 5.0, FS, seed_key=(trial,))
        # the pipeline's 1 s onset skip
        psd = psd_boxcar(ep.replace_samples(ep.samples[:, round(FS) :]))
        ok &= psd.resolution_hz == 0.25
        ok &= psd.freqs_hz[288] == 72.0
        snr = snr_spectrum(psd)
        for ch in range(snr.snr_db.shape[0]):
            db = snr.snr_db[ch]
            ok &= int(np.nanargmax(db)) == 288
            margin = min(db[288] - db[287], db[288] - db[289])
            margins.append(float(margin))
            ok &= margin >= 6.0
    _report(2, "72 Hz peak in SNR spectrum", ok, f"min margin={min(margins):.1f} dB")


def test_criterion_3_snr_null_calibration():
    rng = np.random.default_rng(33)
    means = []
    for _ in range(100):
        x = rng.normal(size=(1, 2500))
        psd = psd_boxcar(TrialEpoch("null", 10.0, x[:, round(FS) :], FS, 0.0))
        snr = snr_spectrum(psd)
        means.append(float(np.nanmean(snr.snr_linear[0])))
    grand_db = 10 * math.log10(float(np.mean(means)))
    ok = -1.0 < grand_db < 1.0
    _report(3, "white-noise SNR floor at 0 dB", ok, f"mean={grand_db:+.2f} dB")


def _cca_bruteforce(X, Y, rng, restarts=3, rounds=60, batch=200):
    Xc = X - X.mean(axis=1, keepdims=True)
    Yc = Y - Y.mean(axis=1, keepdims=True)
    p, q = Xc.shape[0], Yc.shape[0]

    def batch_corr(A, B):
        U = A @ Xc
        V = B @ Yc
        num = np.einsum("ij,ij->i", U, V)
        den = np.sqrt(np.einsum("ij,ij->i", U, U) * np.einsum("ij,ij->i", V, V))
        return np.abs(num / den)

    best = 0.0
    for _ in range(restarts):
        a = rng.normal(size=p)
        b = rng.normal(size=q)
        val = batch_corr(a[None, :], b[None, :])[0]
        scale = 1.0
        for _ in range(rounds):
            A = a[None, :] + scale * rng.normal(size=(batch, p))
            B = b[None, :] + scale * rng.normal(size=(batch, q))
            vals = batch_corr(A, B)
            i = int(np.argmax(vals))
            if vals[i] > val:
                a, b, val = A[i], B[i], vals[i]
            else:
                scale *= 0.7
                if scale < 1e-5:
                    break
        best = max(best, val)
    return best


def test_criterion_4_cca_oracle_equivalence():
    rng = np.random.default_rng(44)
    worst_gap = 0.0
    worst_inv = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        n_harm = int(rng.integers(1, 4))  # 2, 4, or 6 reference rows
        f = float(rng.uniform(6.0, 20.0))
        refs = make_references([f], n_harm, FS, 2000)
        X = rng.normal(size=(p, 2000))
        rho = cca_corr(X, refs.matrices[0])
        oracle = _cca_bruteforce(X, refs.matrices[0], rng)
        worst_gap = max(worst_gap, abs(rho - oracle))
        m = rng.normal(size=(p, p))
        while abs(np.linalg.det(m)) < 0.1:
            m = rng.normal(size=(p, p))
        worst_inv = max(worst_inv, abs(cca_corr(m @ X, refs.matrices[0]) - rho))
    ok = worst_gap <= 1e-3 and worst_inv <= 1e-9
    _report(
        4,
        "CCA matches dense-search oracle",
        ok,
        f"max |rho-oracle|={worst_gap:.2e}, max mixing drift={worst_inv:.2e}",
    )


def test_criterion_5_decoding_monotonicity_and_chance_floor():
    start = time.perf_counter()
    targets = (8.0, 12.0, 16.0)
    refs = make_references(targets, 3, FS, 2000)
    bank = default_filter_bank(targets, 50.0)

    def accuracy(amp, n):
        cfg = SynthConfig(
            evoked_amp_uV=amp,
            pink_noise_uV=3.0,
            line_amp_uV=0.0,
            artifact_rate_per_min=0.0,
            seed=2024,
        )
        decisions, truth = [], []
        for i in range(n):
            f = targets[i % 3]
            ep = synth_trial(cfg, f, 4.0, FS, seed_key=(i,))
            decisions.append(fbcca_decide(ep, refs, bank))
            truth.append(f)
        return evaluate_accuracy(decisions, truth).overall

    acc0 = accuracy(0.0, 300)
    acc_mid = accuracy(0.35, 100)
    acc_high = accuracy(4.0, 100)
    elapsed = time.perf_counter() - start
    ok = (
        0.23 <= acc0 <= 0.43
        and acc0 <= acc_mid <= acc_high
        and acc_high == 1.0
        and elapsed < 60.0
    )
    _report(
        5,
        "chance floor and amplitude monotonicity",
        ok,
        f"acc={acc0:.3f}/{acc_mid:.3f}/{acc_high:.3f}, elapsed={elapsed:.1f}s",
    )


def test_criterion_6_onset_detection_rates():
    band = BandpassSpec(65.0, 80.0)
    refs = make_references([72.0], 1, FS, 2000)

    def rho_for(amp, trial):
        cfg = SynthConfig(
            evoked_amp_uV=amp,
            pink_noise_uV=3.0,
            line_amp_uV=0.0,
            artifact_rate_per_min=0.0,
            seed=66,
        )
        ep = synth_trial(cfg, 72.0, 5.0, FS, seed_key=trial)
        banded = bandpass(ep, band)
        segment = banded.replace_samples(banded.samples[:, 500:])
        return cca_corr(segment.samples, refs.matrices[0])

    null_rhos = np.array([rho_for(0.0, (0, i)) for i in range(200)])
    threshold = float(np.quantile(null_rhos, 0.95))

    hits = 0
    for i in range(200):
        cfg = SynthConfig(
            evoked_amp_uV=4.0,
            pink_noise_uV=3.0,
            line_amp_uV=0.0,
            artifact_rate_per_min=0.0,
            seed=66,
        )
        ep = synth_trial(cfg, 72.0, 5.0, FS, seed_key=(1, i))
        banded = bandpass(ep, band)
        segment = banded.replace_samples(banded.samples[:, 500:])
        if detect_onset(segment, refs, threshold).threshold_pass:
            hits += 1
    tpr = hits / 200

    false_alarms = sum(rho_for(0.0, (2, i)) >= threshold for i in range(200))
    fpr = false_alarms / 200
    ok = tpr >= 0.9 and fpr <= 0.1
    _report(
        6,
        "null-calibrated onset detection",
        ok,
        f"threshold={threshold:.3f}, TPR={tpr:.3f}, FPR={fpr:.3f}",
    )


def test_criterion_7_statistics():
    ok = True
    res = rm_anova(np.random.default_rng(7).normal(size=(14, 7)))
    ok &= (res.df1, res.df2) == (6, 78)

    hand = rm_anova([[1.0, 2.0], [2.0, 4.0], [3.0, 3.0]])
    ok &= abs(hand.F - 3.0) <= 1e-3
    ok &= abs(hand.p - 0.225403) <= 1e-3

    ok &= holm_posthoc([0.01, 0.04]) == [0.02, 0.04]
    ok &= holm_posthoc([0.01, 0.01, 0.30]) == [0.03, 0.03, 0.30]

    # 20 tabulated distribution values (computed once with scipy.stats)
    from test_stats import F_REFERENCE, T_REFERENCE

    for F, d1, d2, expected in F_REFERENCE:
        ok &= abs(f_sf(F, d1, d2) - expected) <= 1e-6
    for t, df, expected in T_REFERENCE:
        ok &= abs(t_sf_two_sided(t, df) - expected) <= 1e-6
    _report(7, "statistical battery", ok)


@pytest.mark.slow
def test_criterion_8_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    data_dir = tmp_path / "dataset"
    synth_dataset(SynthConfig(seed=2026), default_protocol(14), data_dir)

    outputs = []
    first_report = None
    for run in (1, 2):
        report = analyze_dataset(data_dir / "manifest.json")
        first_report = first_report or report
        jp = tmp_path / f"report_{run}.json"
        mp = tmp_path / f"report_{run}.md"
        emit_report(report, "json", jp)
        emit_report(report, "markdown", mp)
        outputs.append((jp.read_bytes(), mp.read_bytes()))
    elapsed = time.perf_counter() - start

    identical = outputs[0] == outputs[1]
    shape_ok = len(first_report.tasks) == 3 and all(
        len(t["rows"]) == 14 for t in first_report.tasks
    )
    ok = identical and shape_ok and elapsed < 300.0
    _report(
        8,
        "14-subject 3-task pipeline determinism",
        ok,
        f"elapsed={elapsed:.0f}s, byte-identical={identical}",
    )
