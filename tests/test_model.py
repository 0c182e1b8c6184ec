import warnings

import numpy as np
import pytest

from veplab import (
    ChannelLayout,
    MarkerStream,
    Recording,
    TrialEpoch,
    derive_virtual_channel,
    extract_epochs,
    load_markers,
    load_recording,
    save_markers,
    save_recording,
)
from veplab.errors import InputError, ParseError
from veplab.model import _clock_fractions
from veplab.synth import MAX_SAMPLES


def make_recording(rng, n_ch=3, n=40, fs=500.0):
    names = tuple(f"ch{i}" for i in range(n_ch))
    return Recording(
        sample_rate_hz=fs,
        layout=ChannelLayout(names),
        samples=rng.normal(size=(n_ch, n)) * 10,
    )


def test_layout_rejects_duplicates_and_empty():
    with pytest.raises(InputError):
        ChannelLayout(("a", "a"))
    with pytest.raises(InputError):
        ChannelLayout(())


@pytest.mark.parametrize("name", ["Pz,x", "Pz\nx", "Pz\rx", "Pz\ud800"])
def test_layout_rejects_names_a_csv_header_cannot_hold(name):
    with pytest.raises(InputError, match="channel name"):
        ChannelLayout(("Oz", name))


def test_unusual_names_round_trip(tmp_path):
    names = ("P z", "Ωz", "", "Oz;1", '"Pz"')
    p = tmp_path / "rec.csv"
    save_recording(Recording(500.0, ChannelLayout(names), np.zeros((5, 3))), p)
    assert load_recording(p).layout.names == names


def test_recording_invariants():
    layout = ChannelLayout(("a", "b"))
    with pytest.raises(InputError):
        Recording(0.0, layout, np.zeros((2, 4)))
    with pytest.raises(InputError):
        Recording(500.0, layout, np.zeros((3, 4)))
    with pytest.raises(InputError):
        Recording(500.0, layout, np.array([[1.0, np.nan], [0.0, 0.0]]))
    for fs in (np.inf, np.nan):
        with pytest.raises(InputError, match="sample_rate_hz"):
            Recording(fs, layout, np.zeros((2, 4)))


def test_recording_rejects_bad_times():
    # such a recording used to save without complaint and then fail to load
    layout = ChannelLayout(("a",))
    with pytest.raises(InputError, match="times_s must be finite"):
        Recording(500.0, layout, np.zeros((1, 3)), times_s=[np.nan, 0.002, 0.004])
    with pytest.raises(InputError, match="times_s must be finite"):
        Recording(500.0, layout, np.zeros((1, 3)), times_s=[0.0, np.inf, 0.004])
    for times in ([0.0, 0.004, 0.002], [0.0, 0.002, 0.002]):
        with pytest.raises(InputError, match="sample 2 is not after sample 1"):
            Recording(500.0, layout, np.zeros((1, 3)), times_s=times)


def test_trial_epoch_rejects_non_finite_rate():
    for fs in (np.nan, np.inf, 0.0):
        with pytest.raises(InputError, match="sample_rate_hz must be finite and > 0"):
            TrialEpoch("x", 8.0, np.zeros((1, 4)), fs, 0.0)
    for freq in (np.nan, np.inf, 0.0, -8.0):
        with pytest.raises(InputError, match="target_freq_hz must be finite and > 0"):
            TrialEpoch("x", freq, np.zeros((1, 4)), 500.0, 0.0)


def test_load_small_csv(tmp_path):
    p = tmp_path / "rec.csv"
    p.write_text(
        "time_s,Pz,Oz\n0.0,1.0,3.0\n0.002,2.0,4.0\n0.004,1.5,3.5\n0.006,0.5,2.5\n"
    )
    rec = load_recording(p)
    assert rec.layout.names == ("Pz", "Oz")
    assert rec.samples.shape == (2, 4)
    assert rec.sample_rate_hz == 500.0
    assert rec.t0 == 0.0
    np.testing.assert_array_equal(rec.channel("Pz"), [1.0, 2.0, 1.5, 0.5])


def test_load_rejects_nan_cell_naming_row(tmp_path):
    p = tmp_path / "rec.csv"
    p.write_text("time_s,a\n0.0,1.0\n0.002,nan\n0.004,2.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_recording(p)


def test_load_rejects_ragged_row(tmp_path):
    p = tmp_path / "rec.csv"
    p.write_text("time_s,a,b\n0.0,1.0,2.0\n0.002,1.0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_recording(p)


def test_load_rejects_irregular_sampling(tmp_path):
    # a dropped row leaves the end timestamps, and so the inferred fs, nearly
    # unchanged; the step across the gap is twice the sampling interval
    p = tmp_path / "rec.csv"
    save_recording(make_recording(np.random.default_rng(5), n=20), p)
    lines = p.read_text().splitlines(keepends=True)
    del lines[10]  # file row 11
    p.write_text("".join(lines))
    with pytest.raises(ParseError, match="row 11 .* 1 % away"):
        load_recording(p)


def test_load_rejects_infinite_sample_rate(tmp_path):
    # 1 / 1e-320 overflows to inf
    p = tmp_path / "rec.csv"
    p.write_text("time_s,a\n0.0,1.0\n1e-320,2.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=f"{p}: sample_rate_hz must be finite"):
            load_recording(p)


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "rec.csv"
    p.write_text("t,a\n0.0,1.0\n")
    with pytest.raises(ParseError, match="header"):
        load_recording(p)


def test_roundtrip_bit_exact(tmp_path):
    # save -> load -> save must reproduce the file byte for byte
    rng = np.random.default_rng(42)
    for trial in range(5):
        rec = make_recording(rng, n_ch=rng.integers(1, 5), n=rng.integers(2, 60))
        p1 = tmp_path / f"a{trial}.csv"
        p2 = tmp_path / f"b{trial}.csv"
        save_recording(rec, p1)
        loaded = load_recording(p1)
        save_recording(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.samples, rec.samples)
        assert loaded.sample_rate_hz == rec.sample_rate_hz


def test_save_matches_per_cell_repr(tmp_path):
    # lengths either side of the writer's 4096-row blocks
    special = np.array([-0.0, 5e-324, 1.7e308, 3.0, -12.0, 0.1, 1e16])
    rng = np.random.default_rng(7)

    def check(samples, times, name, fs=500.0):
        rec = Recording(fs, ChannelLayout(("Pz", "Oz")), samples, times_s=times)
        expected = "time_s,Pz,Oz\n" + "".join(
            ",".join(repr(float(v)) for v in (t, *samples[:, j])) + "\n"
            for j, t in enumerate(rec.times())
        )
        p = tmp_path / f"{name}.csv"
        save_recording(rec, p)
        assert p.read_bytes() == expected.encode("utf-8"), name
        return p

    for n in (1, 4095, 4096, 4097):
        samples = rng.normal(size=(2, n)) * 10
        samples.flat[: min(samples.size, special.size)] = special[: samples.size]
        times = np.arange(n) / 500.0
        times[0] = -0.0
        check(samples, times, f"rec{n}")
    # few distinct values on a 2^-5 grid, with 0.0 and -0.0 in one column:
    # the writer's repeats must not merge the two zeros
    for n in (4095, 4096, 4097, 8193):
        samples = np.round(rng.normal(size=(2, n)) * 2) / 32
        samples[0, ::3] = 0.0
        samples[0, 1::7] = -0.0
        check(samples, np.arange(n) / 500.0, f"steps{n}")
    # regular clocks written from integers at the first seven rates, by repr
    # at the others, and every clock that does not start at sample 0
    n = 4097
    samples = np.round(rng.normal(size=(2, n)) * 2) / 32
    for fs in (500.0, 250.0, 1000.0, 2000.0, 256.0, 512.0, 1.0, 1024.0, 600.0, 20000.0):
        assert (_clock_fractions(n, fs) is None) == (fs in (600.0, 20000.0))
        check(samples, None, f"clock{fs:g}", fs)
        for start in (0.0, 1 / 3, -2.0):
            check(samples, start + np.arange(n) / fs, f"from{start:g}_at{fs:g}", fs)
        times = np.arange(n) / fs
        times[0] = -0.0
        check(samples, times, f"signed_zero_at{fs:g}", fs)
    loaded = load_recording(check(samples, None, "written", 1000.0))
    check(loaded.samples, loaded.times_s, "loaded", loaded.sample_rate_hz)


def test_clock_fractions_rule():
    # 600 = 2^3 x 3 x 5^2 has no finite decimal period; repr writes 1/20000 as
    # 5e-05; a rate must be whole
    for fs in (600.0, 20000.0, 3.0, 500.5):
        assert _clock_fractions(10, fs) is None
    # at 500 Hz k / 500 is the decimal k x 2 / 1000: 15 digits up to k = 5e14 - 1
    assert _clock_fractions(5 * 10**14, 500.0) is not None
    assert _clock_fractions(5 * 10**14 + 1, 500.0) is None
    # at 1024 Hz m = 10^10 / 1024 = 9765625; past the bound the exact decimal
    # can be longer than repr
    assert _clock_fractions(102_400_000, 1024.0) is not None
    assert _clock_fractions(102_400_001, 1024.0) is None
    k = 10**10 + 1
    assert str(k // 1024) + _clock_fractions(1, 1024.0)[k % 1024] == "9765625.0009765625"
    assert repr(k / 1024) == "9765625.000976562"


def test_clock_text_is_repr_at_500_hz():
    # every fraction, after whole seconds 0 and each power of ten that a
    # synthesised recording reaches
    fractions = _clock_fractions(MAX_SAMPLES, 500.0)
    assert len(fractions) == 500
    wholes = [0] + [10**e for e in range(len(str(MAX_SAMPLES // 500)))]
    assert wholes[-1] <= MAX_SAMPLES // 500
    for q in wholes:
        for r, fraction in enumerate(fractions):
            assert str(q) + fraction == repr((q * 500 + r) / 500.0), (q, r)


def test_markers_roundtrip_and_vocabulary(tmp_path):
    mk = MarkerStream(
        (
            (0.0, "baseline_start"),
            (10.0, "trial_onset:radial_motion:12.0"),
            (15.0, "trial_offset:radial_motion:12.0"),
        )
    )
    p = tmp_path / "mk.csv"
    save_markers(mk, p)
    loaded = load_markers(p)
    assert loaded.events == mk.events
    with pytest.raises(InputError):
        MarkerStream(((0.0, "not_a_label"),))
    with pytest.raises(InputError):
        MarkerStream(((1.0, "baseline_start"), (0.5, "baseline_start")))
    p.write_text("time_s,label\n0.0,baseline_start\nnan,baseline_start\n")
    with pytest.raises(ParseError, match="row 3 has a non-finite time"):
        load_markers(p)


def test_derive_virtual_channel_mean():
    rec = Recording(
        500.0,
        ChannelLayout(("Pz", "Oz")),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
    )
    out = derive_virtual_channel(rec, "POz", ["Pz", "Oz"])
    np.testing.assert_array_equal(out.channel("POz"), [2.0, 3.0])
    assert out.layout.names == ("Pz", "Oz", "POz")
    # originals untouched
    np.testing.assert_array_equal(out.samples[:2], rec.samples)
    # the time axis carries over, loaded timestamps included
    timed = Recording(500.0, rec.layout, rec.samples, times_s=[3.0, 3.002])
    out = derive_virtual_channel(timed, "POz", ["Pz", "Oz"])
    assert out.t0 == 3.0
    np.testing.assert_array_equal(out.times(), [3.0, 3.002])
    assert out.sample_rate_hz == 500.0


def test_derive_single_source_is_copy():
    rec = Recording(500.0, ChannelLayout(("a",)), np.array([[1.0, -2.0, 3.0]]))
    out = derive_virtual_channel(rec, "b", ["a"])
    np.testing.assert_array_equal(out.channel("b"), out.channel("a"))


def test_derive_matches_per_sample_loop_oracle():
    rng = np.random.default_rng(7)
    rec = make_recording(rng, n_ch=4, n=50)
    sources = ["ch0", "ch2", "ch3"]
    out = derive_virtual_channel(rec, "v", sources)
    # brute-force oracle: average each sample in a python loop
    expected = [
        sum(rec.channel(s)[i] for s in sources) / len(sources)
        for i in range(rec.n_samples)
    ]
    np.testing.assert_allclose(out.channel("v"), expected, rtol=0, atol=1e-12)


def test_derive_errors():
    rec = Recording(500.0, ChannelLayout(("a",)), np.zeros((1, 4)))
    with pytest.raises(InputError):
        derive_virtual_channel(rec, "a", ["a"])  # duplicate name
    with pytest.raises(InputError):
        derive_virtual_channel(rec, "b", ["missing"])


def test_derive_idempotent_content():
    rng = np.random.default_rng(3)
    rec = make_recording(rng, n_ch=3)
    a = derive_virtual_channel(rec, "v1", ["ch0", "ch1"])
    b = derive_virtual_channel(a, "v2", ["ch0", "ch1"])
    np.testing.assert_array_equal(b.channel("v1"), b.channel("v2"))


def test_extract_epochs_counts_and_snapping(tmp_path):
    fs = 500.0
    n = round(320 * fs)
    rec = Recording(
        fs, ChannelLayout(("a",)), np.arange(n, dtype=float)[None, :]
    )
    events = [(0.0, "baseline_start")]
    for k in range(30):
        t = 10.0 + 10.0 * k
        events.append((t, f"trial_onset:radial_motion:8.0"))
        events.append((t + 5.0, f"trial_offset:radial_motion:8.0"))
    mk = MarkerStream(tuple(events))
    epochs = extract_epochs(rec, mk, 5.0)
    assert len(epochs) == 30
    assert all(e.n_samples == 2500 for e in epochs)
    assert epochs[0].condition == "radial_motion"
    assert epochs[0].target_freq_hz == 8.0
    # sample snapping: epoch 0 starts at sample 5000
    assert epochs[0].samples[0, 0] == 5000.0
    # the time origin is the first timestamp: a marker there cuts sample 0,
    # in memory and after a save/load round trip
    late = Recording(fs, rec.layout, rec.samples, times_s=3.0 + np.arange(n) / fs)
    path = tmp_path / "late.csv"
    save_recording(late, path)
    first = MarkerStream(((3.0, "trial_onset:radial_motion:8.0"),))
    for r in (late, load_recording(path)):
        assert r.t0 == 3.0
        assert extract_epochs(r, first, 5.0)[0].samples[0, 0] == 0.0


def test_extract_epochs_empty_and_bounds():
    rec = Recording(500.0, ChannelLayout(("a",)), np.zeros((1, 1000)))
    assert extract_epochs(rec, MarkerStream(()), 1.0) == []
    mk = MarkerStream(((1.0, "trial_onset:radial_motion:8.0"),))
    with pytest.raises(InputError, match="1.0"):
        extract_epochs(rec, mk, 5.0)
    # a trial length can come from a manifest
    for length in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="epoch length must be finite and > 0"):
            extract_epochs(rec, mk, length)
