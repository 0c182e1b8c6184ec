import numpy as np
import pytest

from veplab import (
    FilterBankConfig,
    TrialEpoch,
    cca_corr,
    default_filter_bank,
    detect_onset,
    evaluate_accuracy,
    fbcca_decide,
    make_references,
    synth_trial,
)
from veplab.decode import Decision, _basis
from veplab.errors import DegenerateDataError, InputError
from veplab.synth import SynthConfig

FS = 500.0


def cca_bruteforce(X, Y, rng, restarts=3, rounds=60, batch=200):
    """Dense stochastic search over projection directions; independent oracle."""
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


def test_make_references_shapes():
    refs = make_references([8.0, 12.0, 16.0], 3, FS, 2000)
    assert len(refs) == 3
    assert all(m.shape == (6, 2000) for m in refs.matrices)
    one = make_references([10.0], 1, FS, 500)
    assert one.matrices[0].shape == (2, 500)


def test_reference_rows_peak_at_harmonics():
    refs = make_references([8.0], 3, FS, 2000)
    freqs = np.fft.rfftfreq(2000, 1 / FS)
    for h in range(1, 4):
        for row in (refs.matrices[0][2 * (h - 1)], refs.matrices[0][2 * h - 1]):
            peak = freqs[np.argmax(np.abs(np.fft.rfft(row)) ** 2)]
            assert peak == h * 8.0


def test_make_references_nyquist():
    with pytest.raises(InputError):
        make_references([100.0], 3, FS, 1000)  # 300 Hz > 250


def test_cca_perfect_correlation():
    refs = make_references([10.0], 1, FS, 2000)
    x = refs.matrices[0][0:1]  # the sin row
    rho = cca_corr(x, refs.matrices[0])
    assert abs(rho - 1.0) <= 1e-9


def test_cca_invariance_under_invertible_mixing():
    rng = np.random.default_rng(0)
    refs = make_references([10.0], 1, FS, 2000)
    base = refs.matrices[0]  # sin;cos
    for _ in range(5):
        m = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m)) < 0.1:
            m = rng.normal(size=(2, 2))
        rho = cca_corr(m @ base, refs.matrices[0])
        assert abs(rho - 1.0) <= 1e-9


def test_cca_matches_bruteforce_on_noise():
    rng = np.random.default_rng(7)
    refs = make_references([12.0], 3, FS, 2000)
    X = rng.normal(size=(2, 2000))
    rho = cca_corr(X, refs.matrices[0])
    oracle = cca_bruteforce(X, refs.matrices[0], rng)
    assert abs(rho - oracle) <= 1e-3


def test_cca_degenerate_and_shape_errors():
    refs = make_references([10.0], 1, FS, 2000)
    with pytest.raises(DegenerateDataError):
        cca_corr(np.zeros((1, 2000)), refs.matrices[0])
    with pytest.raises(InputError):
        cca_corr(np.ones((1, 500)), refs.matrices[0])


def test_rho_bounds_and_scaling_invariance():
    rng = np.random.default_rng(1)
    refs = make_references([9.0], 2, FS, 1500)
    for _ in range(10):
        X = rng.normal(size=(3, 1500))
        rho = cca_corr(X, refs.matrices[0])
        assert 0.0 <= rho <= 1.0
        scaled = np.diag(rng.uniform(0.5, 4.0, size=3)) @ X
        assert abs(cca_corr(scaled, refs.matrices[0]) - rho) <= 1e-9
        # a virtual channel (the mean of two rows, like POz) adds no direction
        virtual = np.vstack([X, X[:2].mean(axis=0)])
        assert abs(cca_corr(virtual, refs.matrices[0]) - rho) <= 1e-12


def test_cca_on_prepared_bases_equals_cca_on_arrays():
    rng = np.random.default_rng(5)
    refs = make_references([9.0, 12.0], 3, FS, 1500)
    X = rng.normal(size=(4, 1500))
    # a virtual channel (the mean of two rows, like POz): rank 4 of 5
    X = np.vstack([X, X[:2].mean(axis=0)])
    bx = _basis(X, "X")
    assert bx.shape == X.shape and bx.q.shape == (1500, 4)
    for ref, by in zip(refs.matrices, refs.bases, strict=True):
        rho = cca_corr(X, ref)
        assert cca_corr(bx, by) == cca_corr(bx, ref) == cca_corr(X, by) == rho
        assert cca_corr(by, bx) == cca_corr(ref, bx) == cca_corr(by, X) == cca_corr(ref, X)


def make_epoch(target, amp=3.0, seed=0, duration=4.0):
    cfg = SynthConfig(
        evoked_amp_uV=amp,
        pink_noise_uV=1.5,
        line_amp_uV=0.0,
        artifact_rate_per_min=0.0,
        seed=seed,
    )
    return synth_trial(cfg, target, duration, FS)


def test_fbcca_single_band_matches_plain_cca_ranking():
    epoch = make_epoch(12.0)
    refs = make_references([8.0, 12.0, 16.0], 3, FS, epoch.n_samples)
    bank = FilterBankConfig(((7.0, 17.0),))
    # w(1) = 1**-1.25 + 0.25
    np.testing.assert_allclose(bank.weights(), [1.25])
    decision = fbcca_decide(epoch, refs, bank)
    from veplab.dsp import BandpassSpec, bandpass

    banded = bandpass(epoch, BandpassSpec(7.0, 17.0))
    plain = [cca_corr(banded.samples, m) for m in refs.matrices]
    assert decision.predicted == int(np.argmax(plain))
    np.testing.assert_allclose(decision.rho, 1.25 * np.array(plain) ** 2, atol=1e-12)


def test_fbcca_decodes_clean_trial():
    epoch = make_epoch(12.0, amp=5.0)
    refs = make_references([8.0, 12.0, 16.0], 3, FS, epoch.n_samples)
    decision = fbcca_decide(epoch, refs, default_filter_bank([8, 12, 16], 17.0))
    assert decision.predicted_hz == 12.0


def test_fbcca_weights_formula():
    bank = FilterBankConfig(((8.0, 30.0), (16.0, 30.0)))
    w = bank.weights()
    assert abs(w[0] - 1.25) <= 1e-12
    assert abs(w[1] - 0.6704482076268572) <= 1e-12


def test_fbcca_combined_statistic_matches_hand_evaluation():
    epoch = make_epoch(8.0)
    refs = make_references([8.0, 12.0], 3, FS, epoch.n_samples)
    bank = FilterBankConfig(((7.0, 30.0), (15.0, 30.0)))
    decision = fbcca_decide(epoch, refs, bank)

    from veplab.dsp import BandpassSpec, bandpass

    w = [1.25, 0.6704482076268572]
    for k, ref in enumerate(refs.matrices):
        expected = 0.0
        for m, band in enumerate(bank.bands):
            banded = bandpass(epoch, BandpassSpec(*band))
            expected += w[m] * cca_corr(banded.samples, ref) ** 2
        assert abs(decision.rho[k] - expected) <= 1e-9


def test_fbcca_rho_is_the_weighted_sum_of_array_cca_calls():
    epoch = make_epoch(12.0)
    refs = make_references([8.0, 12.0, 16.0], 3, FS, epoch.n_samples)
    bank = FilterBankConfig(((6.0, 40.0), (14.0, 40.0), (22.0, 40.0)))
    from veplab.dsp import BandpassSpec, bandpass

    expected = [0.0] * len(refs)
    for w, band in zip(bank.weights(), bank.bands, strict=True):
        banded = bandpass(epoch, BandpassSpec(*band)).samples
        for k, ref in enumerate(refs.matrices):
            expected[k] += w * cca_corr(banded, ref) ** 2
    assert fbcca_decide(epoch, refs, bank).rho == tuple(expected)


def test_fbcca_tie_breaks_to_lowest_index():
    d = Decision(rho=(0.5, 0.5, 0.2), predicted=0, targets_hz=(8.0, 12.0, 16.0))
    assert d.predicted_hz == 8.0
    # argmax over equal values must pick the first
    assert int(np.argmax(np.array([0.5, 0.5, 0.2]))) == 0


def test_detect_onset_pass_and_fail():
    epoch = make_epoch(72.0, amp=6.0)
    refs = make_references([72.0], 3, FS, epoch.n_samples)
    dec = detect_onset(epoch, refs, threshold=0.3)
    assert dec.threshold_pass is True
    assert dec.rho[0] >= 0.3

    silent = make_epoch(72.0, amp=0.0, seed=9)
    assert detect_onset(silent, refs, threshold=1.0).threshold_pass is False
    with pytest.raises(InputError):
        detect_onset(epoch, refs, threshold=0.0)
    multi = make_references([8.0, 12.0], 2, FS, epoch.n_samples)
    with pytest.raises(InputError):
        detect_onset(epoch, multi, threshold=0.3)
    # same sample count, other sample rate
    other_fs = make_references([72.0], 3, 2 * FS, epoch.n_samples)
    with pytest.raises(InputError, match="Hz"):
        detect_onset(epoch, other_fs, threshold=0.3)


def test_detect_onset_flat_epoch_is_off():
    refs = make_references([72.0], 1, FS, 2000)
    flat = TrialEpoch("t", 72.0, np.zeros((3, 2000)), FS, 0.0)
    dec = detect_onset(flat, refs, threshold=0.5)
    assert dec.rho == (0.0,)
    assert dec.threshold_pass is False


def test_constant_epoch_is_off_for_onset_and_degenerate_for_fbcca():
    refs = make_references([12.0], 3, FS, 2000)
    constant = TrialEpoch("t", 12.0, np.full((3, 2000), 5.0), FS, 0.0)
    assert detect_onset(constant, refs, threshold=0.5).rho == (0.0,)
    # zeros stay exactly zero through the band-pass; another constant leaves
    # rounding noise of about 1e-15
    zeros = constant.replace_samples(np.zeros((3, 2000)))
    with pytest.raises(DegenerateDataError, match="X has a zero-variance row"):
        fbcca_decide(zeros, refs, FilterBankConfig(((10.0, 40.0),)))


def test_chance_level_confidence_interval():
    # evoked_amp = 0: the 95% CI of decoded accuracy must contain 1/K
    targets = (8.0, 12.0, 16.0)
    refs = make_references(targets, 3, FS, 2000)
    bank = default_filter_bank(targets, 50.0)
    cfg = SynthConfig(
        evoked_amp_uV=0.0,
        pink_noise_uV=3.0,
        line_amp_uV=0.0,
        artifact_rate_per_min=0.0,
        seed=2024,
    )
    n = 150
    decisions, truth = [], []
    for i in range(n):
        f = targets[i % 3]
        decisions.append(fbcca_decide(synth_trial(cfg, f, 4.0, FS, seed_key=(i,)), refs, bank))
        truth.append(f)
    acc = evaluate_accuracy(decisions, truth).overall
    half_width = 1.96 * np.sqrt(acc * (1 - acc) / n)
    assert acc - half_width <= 1 / 3 <= acc + half_width


def test_default_filter_bank_layout():
    # corners at successive multiples of the lowest target, minus the 2 Hz
    # roll-off margin, all capped at the ceiling
    bank = default_filter_bank([8.0, 12.0, 16.0], 17.0)
    assert bank.bands == ((6.0, 17.0),)
    # the fundamental's band stays even when the ceiling is within 2 Hz of it
    assert default_filter_bank([8.0], 9.0).bands == ((6.0, 9.0),)
    wide = default_filter_bank([8.0], 88.0)
    assert wide.bands == (
        (6.0, 88.0), (14.0, 88.0), (22.0, 88.0), (30.0, 88.0), (38.0, 88.0)
    )


def test_evaluate_accuracy():
    targets = (8.0, 12.0, 16.0)

    def dec(pred):
        return Decision(rho=(0.0,) * 3, predicted=pred, targets_hz=targets)

    decisions = [dec(0), dec(1), dec(2), dec(0)]
    truth = [8.0, 12.0, 8.0, 8.0]
    out = evaluate_accuracy(decisions, truth)
    assert out.overall == 0.75
    assert out.per_target == {8.0: 2 / 3, 12.0: 1.0}

    with pytest.raises(InputError):
        evaluate_accuracy([], [])
    with pytest.raises(InputError):
        evaluate_accuracy(decisions, truth[:2])


def test_accuracy_uniform_random_near_chance():
    rng = np.random.default_rng(3)
    targets = (8.0, 12.0, 16.0)
    decisions = [
        Decision(rho=(0.0,) * 3, predicted=int(rng.integers(3)), targets_hz=targets)
        for _ in range(3000)
    ]
    truth = [targets[int(rng.integers(3))] for _ in range(3000)]
    out = evaluate_accuracy(decisions, truth)
    assert abs(out.overall - 1 / 3) <= 0.03


def test_argmax_invariance_under_positive_scaling():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = rng.uniform(0.0, 1.0, size=4)
        assert int(np.argmax(rho)) == int(np.argmax(3.7 * rho))
