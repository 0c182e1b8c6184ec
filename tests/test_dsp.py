import numpy as np
import pytest
from scipy import signal

from veplab import (
    BandpassSpec,
    ChannelLayout,
    Recording,
    TrialEpoch,
    bandpass,
    remove_line_noise,
    suppress_artifacts,
)
from veplab.dsp import FILTER_ORDER, LINE_WINDOW_S, _butter_sos
from veplab.errors import InputError
from veplab.pipeline import PARADIGM_BANDS, config_for_task

FS = 500.0


def tone_epoch(freq, amp=1.0, duration=5.0, n_ch=2, dc=0.0):
    t = np.arange(round(duration * FS)) / FS
    x = amp * np.sin(2 * np.pi * freq * t) + dc
    return TrialEpoch("test", freq if freq > 0 else 1.0, np.tile(x, (n_ch, 1)), FS, 0.0)


def fit_amplitude(x, freq, fs=FS):
    # least-squares sinusoid fit oracle: amplitude of the tone at freq
    t = np.arange(len(x)) / fs
    design = np.column_stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)])
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    return float(np.hypot(*coef))


def trim(x, seconds=0.5, fs=FS):
    k = round(seconds * fs)
    return x[k:-k]


def test_bandpass_passband_preserves_tone():
    ep = bandpass(tone_epoch(10.0), BandpassSpec(7.0, 15.0))
    amp = fit_amplitude(trim(ep.samples[0]), 10.0)
    assert abs(amp - 1.0) < 0.01


def test_bandpass_stopband_attenuates_50hz():
    ep = bandpass(tone_epoch(50.0), BandpassSpec(7.0, 15.0))
    amp = fit_amplitude(trim(ep.samples[0]), 50.0)
    assert amp < 10 ** (-40 / 20)  # >= 40 dB down


def test_bandpass_removes_dc():
    ep = bandpass(tone_epoch(10.0, amp=0.0, dc=100.0), BandpassSpec(7.0, 15.0))
    assert abs(np.mean(trim(ep.samples[0]))) < 1e-6 * 100.0


def test_bandpass_preserves_shape_and_validates():
    ep = tone_epoch(10.0, n_ch=3)
    out = bandpass(ep, BandpassSpec(7.0, 15.0))
    assert out.samples.shape == ep.samples.shape
    with pytest.raises(InputError):
        bandpass(ep, BandpassSpec(15.0, 7.0))
    with pytest.raises(InputError):
        bandpass(ep, BandpassSpec(7.0, 400.0))


def test_bandpass_linearity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2500))
    y = rng.normal(size=(2, 2500))
    a, b = 2.5, -1.3
    spec = BandpassSpec(7.0, 15.0)

    def run(m):
        return bandpass(TrialEpoch("t", 10.0, m, FS, 0.0), spec).samples

    lhs = run(a * x + b * y)
    rhs = a * run(x) + b * run(y)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_bandpass_cached_design_matches_fresh_design():
    # every analysis band, a filter-bank band and a wide 6-90 Hz band, on
    # epochs just past sosfiltfilt's pad length and at a full trial
    bands = [
        *PARADIGM_BANDS.values(),
        config_for_task(1).filter_bank(FS).bands[-1],
        (6.0, 90.0),
    ]
    rng = np.random.default_rng(3)
    _butter_sos.cache_clear()
    for lo, hi in bands:
        spec = BandpassSpec(lo, hi)
        sos = signal.butter(FILTER_ORDER, [lo, hi], btype="bandpass", output="sos", fs=FS)
        # sosfiltfilt's default padlen, from its documented rule
        unused = min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
        pad = 3 * (2 * len(sos) + 1 - unused)
        for n in (pad + 1, pad + 2, 2500):
            for n_ch in (1, 5):
                ep = TrialEpoch("t", 10.0, rng.normal(size=(n_ch, n)) * 10, FS, 0.0)
                expected = signal.sosfiltfilt(sos, ep.samples, axis=1)
                for _ in range(2):  # a design and a cache hit
                    got = bandpass(ep, spec).samples
                    assert got.tobytes() == expected.tobytes(), (lo, hi, n, n_ch)
    assert _butter_sos.cache_info().maxsize is not None


def test_bandpass_rejects_epoch_within_pad_length():
    # order 4 band-pass: 4 sections, 9 taps, a 27-sample odd extension
    spec = BandpassSpec(7.0, 17.0)
    rng = np.random.default_rng(4)
    short = TrialEpoch("t", 10.0, rng.normal(size=(2, 27)), FS, 0.0)
    too_short = "epoch of 27 samples is too short to band-pass; need > 27"
    with pytest.raises(InputError, match=too_short):
        bandpass(short, spec)
    ep = TrialEpoch("t", 10.0, rng.normal(size=(2, 28)), FS, 0.0)
    assert bandpass(ep, spec).samples.shape == (2, 28)


def test_zapline_removes_pure_line():
    ep = tone_epoch(50.0, amp=20.0)
    out = remove_line_noise(ep, 50.0)
    in_rms = np.sqrt(np.mean(ep.samples**2))
    out_rms = np.sqrt(np.mean(out.samples**2))
    assert out_rms <= 0.01 * in_rms


def test_zapline_preserves_other_tone():
    ep = tone_epoch(10.0)
    out = remove_line_noise(ep, 50.0)
    in_rms = np.sqrt(np.mean(ep.samples**2))
    diff_rms = np.sqrt(np.mean((out.samples - ep.samples) ** 2))
    assert diff_rms <= 0.01 * in_rms


def test_zapline_zero_in_zero_out():
    ep = TrialEpoch("t", 10.0, np.zeros((2, 2500)), FS, 0.0)
    out = remove_line_noise(ep, 50.0)
    np.testing.assert_array_equal(out.samples, 0.0)


def test_zapline_psd_surgical():
    # >= 20 dB down at the line bin, < 0.5 dB change more than 2 Hz away
    rng = np.random.default_rng(1)
    n = 5000
    t = np.arange(n) / FS
    noise = rng.normal(size=n)
    x = noise + 15.0 * np.sin(2 * np.pi * 50.0 * t + 0.7)
    ep = TrialEpoch("t", 10.0, x[None, :], FS, 0.0)
    out = remove_line_noise(ep, 50.0)

    def psd(sig):
        return np.abs(np.fft.rfft(sig)) ** 2

    freqs = np.fft.rfftfreq(n, 1 / FS)
    p_in = psd(ep.samples[0])
    p_out = psd(out.samples[0])
    line_bin = np.argmin(np.abs(freqs - 50.0))
    assert 10 * np.log10(p_out[line_bin] / p_in[line_bin]) <= -20.0
    far = np.abs(freqs - 50.0) > 2.0
    # compare in coarse bands to average out single-bin noise wiggle
    far_in = p_in[far].reshape(-1)
    far_out = p_out[far].reshape(-1)
    k = 50
    m = len(far_in) // k * k
    band_in = far_in[:m].reshape(-1, k).sum(axis=1)
    band_out = far_out[:m].reshape(-1, k).sum(axis=1)
    change_db = 10 * np.log10(band_out / band_in)
    assert np.max(np.abs(change_db)) < 0.5


def noise_recording(rng, n_ch=4, duration=30.0, scale=5.0):
    x = rng.normal(scale=scale, size=(n_ch, round(duration * FS)))
    names = tuple(f"ch{i}" for i in range(n_ch))
    return Recording(FS, ChannelLayout(names), x)


def test_asr_identity_when_clean():
    rec = noise_recording(np.random.default_rng(2))
    out = suppress_artifacts(rec)
    # no window is flagged, so no copy is made
    assert out is rec
    rms = np.sqrt(np.mean(rec.samples**2))
    assert np.sqrt(np.mean((out.samples - rec.samples) ** 2)) <= 1e-9 * rms


def test_asr_removes_injected_burst():
    rng = np.random.default_rng(4)
    rec = noise_recording(rng)
    x = np.array(rec.samples)
    # one 500 uV burst on channel 1, well inside a single 1 s window
    burst = 500.0 * np.hanning(100)
    start = round(20.2 * FS)
    x[1, start : start + 100] += burst
    # a time axis that starts at 7 s and is carried through the cleaning
    times = 7.0 + np.arange(x.shape[1]) / FS
    dirty = Recording(FS, rec.layout, x, times_s=times)
    out = suppress_artifacts(dirty)
    assert out is not dirty and out.t0 == 7.0
    np.testing.assert_array_equal(out.times(), times)

    w0 = round(20.0 * FS)
    w1 = w0 + round(FS)
    rms_before = np.sqrt(np.mean(dirty.samples[:, w0:w1] ** 2))
    rms_after = np.sqrt(np.mean(out.samples[:, w0:w1] ** 2))
    assert rms_after <= 0.2 * rms_before

    # windows without the burst change by < 1%
    mask = np.ones(dirty.n_samples, dtype=bool)
    mask[w0:w1] = False
    rel = np.sqrt(np.mean((out.samples[:, mask] - dirty.samples[:, mask]) ** 2))
    assert rel < 0.01 * np.sqrt(np.mean(dirty.samples[:, mask] ** 2))


def test_asr_silent_calibration_is_identity():
    # a dead-flat quiet stretch carries no calibration information; the
    # cleaner must not wipe the rest of the recording against it
    x = np.zeros((2, round(30 * FS)))
    t = np.arange(round(5 * FS)) / FS
    x[:, -len(t):] = np.sin(2 * np.pi * 10.0 * t)
    rec = Recording(FS, ChannelLayout(("a", "b")), x)
    out = suppress_artifacts(rec)
    np.testing.assert_array_equal(out.samples, rec.samples)


def test_asr_requires_long_recording():
    rec = Recording(FS, ChannelLayout(("a",)), np.random.default_rng(0).normal(size=(1, 100)))
    with pytest.raises(InputError):
        suppress_artifacts(rec)


def test_all_ops_preserve_shape():
    ep = tone_epoch(10.0, n_ch=3)
    assert bandpass(ep, BandpassSpec(7.0, 15.0)).samples.shape == ep.samples.shape
    assert remove_line_noise(ep, 50.0).samples.shape == ep.samples.shape
    rec = noise_recording(np.random.default_rng(5), n_ch=3, duration=12.0)
    assert suppress_artifacts(rec).samples.shape == rec.samples.shape


def per_window_lstsq(x, fs, f_line):
    """Reference line removal: one lstsq per raised-cosine window."""

    def fit(seg):
        t = np.arange(seg.shape[1]) / fs
        design = np.column_stack(
            [np.sin(2 * np.pi * f_line * t), np.cos(2 * np.pi * f_line * t)]
        )
        coef, *_ = np.linalg.lstsq(design, seg.T, rcond=None)
        return (design @ coef).T

    n = x.shape[1]
    win_len = round(LINE_WINDOW_S * fs)
    if n <= win_len:
        return x - fit(x)
    hop = win_len // 2
    tone = np.zeros_like(x)
    weight = np.zeros(n)
    for start in range(0, n, hop):
        stop = min(n, start + win_len)
        seg = x[:, start:stop]
        if seg.shape[1] < 16:
            break
        w = np.hanning(seg.shape[1]) + 1e-9
        tone[:, start:stop] += fit(seg) * w[None, :]
        weight[start:stop] += w
        if stop == n:
            break
    weight[weight == 0] = 1.0
    return x - tone / weight[None, :]


# the rate is rate_scale * FS, so a 1 s window holds 500 * rate_scale samples;
# the line sits at 0.1 and 0.12 of the rate (50 and 60 Hz at 500 Hz)
@pytest.mark.parametrize(
    "n, rate_scale",
    [
        (1, 1.0),  # n <= win_len: one fit over the whole epoch
        (300, 1.0),
        (500, 1.0),
        (2500, 1.0),  # full windows end exactly at the last sample
        (2760, 1.0),  # a partial tail window is fitted
        (2595, 0.05),  # 25-sample windows: the 15-sample tail is too short to fit
        (2596, 0.05),  # ... and a 16-sample tail is fitted
        (2500, 0.02),  # 10 Hz, 10-sample windows: none is long enough to fit
    ],
)
def test_batched_line_fit_matches_per_window_lstsq(n, rate_scale):
    fs = rate_scale * FS
    rng = np.random.default_rng(n)
    t = np.arange(n) / fs
    x = rng.normal(scale=3.0, size=(5, n)) + 2.0 * np.sin(2 * np.pi * 0.1 * fs * t + 0.3)
    ep = TrialEpoch("t", 10.0, x, fs, 0.0)
    for f_line in (0.1 * fs, 0.12 * fs):
        out = remove_line_noise(ep, f_line).samples
        expected = per_window_lstsq(x, fs, f_line)
        assert np.max(np.abs(out - expected)) <= 1e-12
