import numpy as np
import pytest

from veplab import TrialEpoch, psd_boxcar, snr_at, snr_spectrum
from veplab.spectral import PowerSpectrum
from veplab.errors import InputError
from veplab.pipeline import SKIP_INITIAL_S

FS = 500.0


def epoch_from(x):
    return TrialEpoch("t", 10.0, np.atleast_2d(x), FS, 0.0)


def post_skip(x):
    """Epoch of x after the pipeline's 1 s onset skip."""
    return epoch_from(np.atleast_2d(x)[:, round(SKIP_INITIAL_S * FS) :])


def test_resolution_and_bin_index():
    psd = psd_boxcar(post_skip(np.zeros(2500) + np.sin(np.arange(2500))))
    assert psd.resolution_hz == 0.25
    assert psd.freqs_hz[288] == 72.0
    assert psd.n_bins == 1001


def test_pure_tone_dominant_bin():
    t = np.arange(2500) / FS
    psd = psd_boxcar(post_skip(np.sin(2 * np.pi * 10.0 * t)))
    p = psd.power[0]
    bin10 = round(10.0 / psd.resolution_hz)
    assert np.argmax(p) == bin10
    assert p[bin10] / p.sum() >= 0.99


def test_parseval_matches_variance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=2500)
    psd = psd_boxcar(post_skip(x))
    seg = x[500:]
    var = np.mean((seg - seg.mean()) ** 2)
    total = psd.power[0].sum() * psd.resolution_hz
    assert abs(total - var) <= 1e-6 * var


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 2001])
def test_parseval_holds_at_odd_and_short_lengths(n):
    # the one-sided doubling spares DC, and the Nyquist bin only at even n
    x = np.random.default_rng(n).normal(size=n)
    psd = psd_boxcar(epoch_from(x))
    var = np.mean((x - x.mean()) ** 2)
    assert abs(psd.power[0].sum() * psd.resolution_hz - var) <= 1e-9 * max(var, 1e-300)


def test_skip_guard():
    # a 1 s skip leaves an empty epoch of a 0.8 s one
    with pytest.raises(InputError, match="empty epoch"):
        psd_boxcar(post_skip(np.ones(400)))


def test_snr_flat_spectrum_zero_db():
    freqs = np.arange(0, 100) * 0.25
    psd = PowerSpectrum(freqs_hz=freqs, power=np.full((2, 100), 3.7), resolution_hz=0.25)
    snr = snr_spectrum(psd)
    defined = np.isfinite(snr.snr_db[0])
    assert defined.sum() == 100 - 2 * 4
    np.testing.assert_allclose(snr.snr_db[:, defined], 0.0, atol=1e-12)


def test_snr_forced_arithmetic():
    # P(target) = 8 with all six neighborhood bins = 2 -> 10*log10(4)
    power = np.full((1, 21), 2.0)
    power[0, 10] = 8.0
    psd = PowerSpectrum(np.arange(21) * 1.0, power, 1.0)
    snr = snr_spectrum(psd)
    assert abs(snr.snr_db[0, 10] - 10 * np.log10(4.0)) <= 1e-12
    assert abs(snr.snr_linear[0, 10] - 4.0) <= 1e-12


def test_snr_guard_bin_excluded():
    # energy in the adjacent (skipped) bin must not affect the target's SNR
    power = np.full((1, 21), 2.0)
    power[0, 11] = 1e6
    psd = PowerSpectrum(np.arange(21) * 1.0, power, 1.0)
    snr = snr_spectrum(psd)
    assert abs(snr.snr_db[0, 10]) <= 1e-12


def test_snr_white_noise_mean_near_zero_db():
    # the mean power ratio over interior bins should sit at 0 dB (+-1);
    # note the mean must be taken on the linear ratios: averaging the dB
    # values themselves is analytically biased to -2.14 dB for white noise
    rng = np.random.default_rng(42)
    means = []
    for _ in range(100):
        x = rng.normal(size=2500)
        psd = psd_boxcar(post_skip(x))
        snr = snr_spectrum(psd)
        means.append(np.nanmean(snr.snr_linear[0]))
    grand_db = 10 * np.log10(np.mean(means))
    assert -1.0 < grand_db < 1.0


def test_snr_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=2500)
    psd = psd_boxcar(post_skip(x))
    snr1 = snr_spectrum(psd)
    scaled = PowerSpectrum(psd.freqs_hz, psd.power * 137.5, psd.resolution_hz)
    snr2 = snr_spectrum(scaled)
    d = np.isfinite(snr1.snr_db)
    np.testing.assert_allclose(snr1.snr_db[d], snr2.snr_db[d], atol=1e-12)


def test_snr_edges_are_nan_not_zero():
    rng = np.random.default_rng(2)
    psd = psd_boxcar(post_skip(rng.normal(size=2500)))
    snr = snr_spectrum(psd)
    assert np.all(np.isnan(snr.snr_db[:, :4]))
    assert np.all(np.isnan(snr.snr_db[:, -4:]))


def test_snr_validates_params():
    small = PowerSpectrum(np.arange(5) * 1.0, np.ones((1, 5)), 1.0)
    with pytest.raises(InputError):
        snr_spectrum(small)


def test_concatenated_epochs_change_resolution_not_dominance():
    t = np.arange(2500) / FS
    x = np.sin(2 * np.pi * 10.0 * t)
    single = psd_boxcar(post_skip(x))
    t2 = np.arange(5000) / FS
    double = psd_boxcar(post_skip(np.sin(2 * np.pi * 10.0 * t2)))
    assert double.resolution_hz < single.resolution_hz
    for psd in (single, double):
        peak = psd.freqs_hz[np.argmax(psd.power[0])]
        assert peak == 10.0


def test_snr_at_nearest_and_ties():
    freqs = np.arange(0, 40) * 0.25
    power = np.ones((1, 40))
    snr = snr_spectrum(PowerSpectrum(freqs, power, 0.25))
    assert snr_at(snr, 5.0).bin_freq_hz == 5.0
    assert snr_at(snr, 5.06).bin_freq_hz == 5.0
    assert snr_at(snr, 5.20).bin_freq_hz == 5.25
    # exact midpoint ties to the lower bin
    assert snr_at(snr, 5.125).bin_freq_hz == 5.0
    with pytest.raises(InputError):
        snr_at(snr, 11.0)


def test_snr_at_72_on_quarter_hz_grid():
    t = np.arange(2500) / FS
    x = 4.0 * np.sin(2 * np.pi * 72.0 * t) + np.random.default_rng(3).normal(size=2500)
    psd = psd_boxcar(post_skip(x))
    snr = snr_spectrum(psd)
    out = snr_at(snr, 72.0)
    assert out.bin_freq_hz == 72.0
    np.testing.assert_array_equal(out.snr_db, snr.snr_db[:, 288])

