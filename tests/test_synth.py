import json

import numpy as np
import pytest

from veplab import (
    SynthConfig,
    SynthProtocol,
    TaskProtocol,
    default_protocol,
    load_markers,
    load_recording,
    psd_boxcar,
    synth_dataset,
    synth_trial,
)
from veplab import synth
from veplab.errors import InputError
from veplab.synth import ADC_STEP_UV, pink_noise


def quiet_config(**kw):
    base = dict(
        evoked_amp_uV=2.0,
        pink_noise_uV=0.0,
        line_amp_uV=0.0,
        artifact_rate_per_min=0.0,
        seed=1,
    )
    base.update(kw)
    return SynthConfig(**base)


def test_pure_tones_only_at_harmonics():
    cfg = quiet_config(n_harmonics=3, harmonic_decay=0.5)
    ep = synth_trial(cfg, 10.0, 4.0, 500.0)
    psd = psd_boxcar(ep)
    harmonic_bins = {round(h * 10.0 / psd.resolution_hz) for h in (1, 2, 3)}
    power = psd.power[0]
    on = sum(power[b] for b in harmonic_bins)
    assert on / power.sum() > 0.999999


def test_seed_determinism_and_seed_keys():
    cfg = SynthConfig(seed=99)
    a = synth_trial(cfg, 12.0, 2.0, 500.0)
    b = synth_trial(cfg, 12.0, 2.0, 500.0)
    np.testing.assert_array_equal(a.samples, b.samples)
    c = synth_trial(cfg, 12.0, 2.0, 500.0, seed_key=(1,))
    assert not np.array_equal(a.samples, c.samples)


def test_nyquist_guard():
    cfg = SynthConfig(n_harmonics=3)
    with pytest.raises(InputError):
        synth_trial(cfg, 90.0, 1.0, 500.0)  # 3*90 > 250
    # a length or rate that is not a finite number > 0 is named, not turned
    # into a sample count
    for duration_s, fs_hz, name in (
        (float("nan"), 500.0, "duration_s"),
        (float("inf"), 500.0, "duration_s"),
        (0.0, 500.0, "duration_s"),
        (1.0, float("nan"), "fs_hz"),
        (1.0, float("inf"), "fs_hz"),
    ):
        with pytest.raises(InputError, match=f"{name} must be finite and > 0"):
            synth_trial(cfg, 8.0, duration_s, fs_hz)


def test_rms_monotone_in_evoked_amp():
    rmss = []
    for amp in (0.0, 1.0, 3.0, 8.0):
        cfg = SynthConfig(evoked_amp_uV=amp, seed=5)
        ep = synth_trial(cfg, 12.0, 5.0, 500.0)
        rmss.append(float(np.sqrt(np.mean(ep.samples**2))))
    assert rmss == sorted(rmss)
    assert rmss[0] < rmss[-1]


def test_pink_noise_spectral_slope():
    # log-log PSD slope of 1/f noise should be ~ -1 over 2-100 Hz
    rng = np.random.default_rng(11)
    fs = 500.0
    x = pink_noise(rng, 1, 60 * int(fs), rms=1.0)
    n = x.shape[1]
    freqs = np.fft.rfftfreq(n, 1 / fs)
    psd = np.abs(np.fft.rfft(x[0])) ** 2
    band = (freqs >= 2.0) & (freqs <= 100.0)
    slope = np.polyfit(np.log10(freqs[band]), np.log10(psd[band]), 1)[0]
    assert abs(slope - (-1.0)) < 0.2


def test_pink_noise_rms_scaling():
    rng = np.random.default_rng(2)
    x = pink_noise(rng, 3, 5000, rms=2.5)
    np.testing.assert_allclose(np.sqrt(np.mean(x**2, axis=1)), 2.5, rtol=1e-9)


def small_protocol(n_subjects=2):
    return SynthProtocol(
        tasks=(
            TaskProtocol("pattern_reversal", (7.2, 9.0, 14.0), 1, trial_s=2.0, rest_s=1.0),
            # rest windows as long as the trials: onset detection scores them
            TaskProtocol("gabor_pulse", (72.0,), 2, trial_s=2.0, rest_s=2.0),
        ),
        n_subjects=n_subjects,
        baseline_s=10.0,
        lead_out_s=1.0,
    )


def test_dataset_files_and_manifest(tmp_path):
    cfg = SynthConfig(seed=4)
    manifest = synth_dataset(cfg, small_protocol(), tmp_path)
    assert len(manifest["subjects"]) == 2
    files = sorted(p.name for p in tmp_path.iterdir())
    # 2 subjects x 2 tasks x (recording + markers) + manifest
    assert len([f for f in files if f.endswith(".csv")]) == 8
    assert "manifest.json" in files
    with open(tmp_path / "manifest.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["subjects"] == manifest["subjects"]


def test_dataset_marker_count_and_spacing(tmp_path):
    cfg = SynthConfig(seed=4)
    protocol = small_protocol(n_subjects=1)
    manifest = synth_dataset(cfg, protocol, tmp_path)
    task = manifest["subjects"][0]["tasks"][0]
    markers = load_markers(tmp_path / task["markers"])
    onsets = [t for t, _, _ in markers.with_prefix("trial_onset")]
    assert len(onsets) == 3  # 3 targets x 1 trial
    gaps = np.diff(onsets)
    assert np.all(gaps == task["trial_s"] + task["rest_s"])


def test_manifest_targets_roundtrip_with_markers(tmp_path):
    cfg = SynthConfig(seed=8)
    manifest = synth_dataset(cfg, small_protocol(n_subjects=1), tmp_path)
    for task in manifest["subjects"][0]["tasks"]:
        markers = load_markers(tmp_path / task["markers"])
        parsed = markers.with_prefix("trial_onset")
        assert [p[2] for p in parsed] == [t["target_hz"] for t in task["trials"]]
        assert [p[0] for p in parsed] == [t["onset_s"] for t in task["trials"]]


def test_dataset_recording_loads_and_has_expected_length(tmp_path):
    cfg = SynthConfig(seed=4)
    protocol = small_protocol(n_subjects=1)
    manifest = synth_dataset(cfg, protocol, tmp_path)
    task = manifest["subjects"][0]["tasks"][0]
    rec = load_recording(tmp_path / task["recording"])
    dur = 10.0 + 3 * (2.0 + 1.0) + 1.0
    assert rec.n_samples == round(dur * 500)
    assert rec.layout.names == tuple(cfg.channel_gains)


def test_dataset_regeneration_is_bit_identical(tmp_path):
    cfg = SynthConfig(seed=123)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    synth_dataset(cfg, small_protocol(n_subjects=1), d1)
    synth_dataset(cfg, small_protocol(n_subjects=1), d2)
    for p1 in sorted(d1.iterdir()):
        assert p1.read_bytes() == (d2 / p1.name).read_bytes()


def test_default_protocol_shape():
    proto = default_protocol()
    assert proto.n_subjects == 14
    assert len(proto.tasks) == 3
    assert [t.n_trials for t in proto.tasks] == [30, 30, 30]
    assert proto.tasks[0].targets_hz == (7.2, 9.0, 14.0)
    assert proto.tasks[2].targets_hz == (72.0,)


def test_pink_noise_of_under_two_samples_is_silent():
    rng = np.random.default_rng(2)
    assert pink_noise(rng, 3, 0, rms=2.5).shape == (3, 0)
    np.testing.assert_array_equal(pink_noise(rng, 3, 1, rms=2.5), np.zeros((3, 1)))


def test_zero_rest_baseline_and_lead_out_synthesize(tmp_path):
    # five 2 s trials fill the 10 s that artifact calibration needs; FB-CCA
    # decoding reads no rest window
    protocol = SynthProtocol(
        tasks=(TaskProtocol("radial_motion", (8.0,), 5, trial_s=2.0, rest_s=0.0),),
        n_subjects=1,
        baseline_s=0.0,
        lead_out_s=0.0,
    )
    manifest = synth_dataset(SynthConfig(seed=3), protocol, tmp_path)
    rec = load_recording(tmp_path / manifest["subjects"][0]["tasks"][0]["recording"])
    assert rec.n_samples == 5 * 2.0 * 500
    assert np.all(np.isfinite(rec.samples))


_TASK = dict(paradigm="gabor_pulse", targets_hz=(72.0,), trials_per_target=2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("paradigm", "flicker"),
        ("targets_hz", ()),
        ("targets_hz", (8.0, float("nan"))),
        ("targets_hz", (float("inf"),)),
        ("targets_hz", (0.0,)),
        ("targets_hz", (-8.0,)),
        ("trials_per_target", 0),
        ("trial_s", -1.0),
        ("trial_s", 0.0),
        ("trial_s", float("nan")),
        ("rest_s", -1.0),
        ("rest_s", float("inf")),
    ],
)
def test_task_protocol_rejects_invalid_field(field, value):
    with pytest.raises(InputError, match=field):
        TaskProtocol(**dict(_TASK, **{field: value}))


@pytest.mark.parametrize(
    "field, value",
    [
        ("tasks", ()),
        ("n_subjects", 0),
        ("n_subjects", -1),
        ("fs_hz", 0.0),
        ("fs_hz", float("nan")),
        ("fs_hz", float("inf")),
        ("baseline_s", -1.0),
        ("lead_out_s", -0.5),
    ],
)
def test_synth_protocol_rejects_invalid_field(field, value):
    base = dict(tasks=(TaskProtocol(**_TASK),))
    with pytest.raises(InputError, match=field):
        SynthProtocol(**dict(base, **{field: value}))


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in (
            "evoked_amp_uV", "pink_noise_uV", "line_amp_uV", "artifact_rate_per_min",
            "artifact_amp_uV",
        )
        for value in (-1.0, float("nan"), float("inf"))
    ]
    + [("seed", -1)],
)
def test_synth_config_rejects_invalid_field(field, value):
    with pytest.raises(InputError, match=field):
        SynthConfig(**{field: value})


def test_markers_sit_on_their_segment_starts(tmp_path):
    # 1.101 s at 500 Hz is 550.5 samples: each trial and rest segment is
    # cut to a whole number of samples, and every marker must stay on the
    # first sample of its segment instead of drifting by a sample a trial
    fs = 500.0
    protocol = SynthProtocol(
        tasks=(TaskProtocol("radial_motion", (8.0, 12.0), 3, trial_s=1.101, rest_s=1.101),),
        n_subjects=1,
        fs_hz=fs,
        baseline_s=2.0,
        lead_out_s=1.0,
    )
    manifest = synth_dataset(SynthConfig(seed=2), protocol, tmp_path)
    task = manifest["subjects"][0]["tasks"][0]
    markers = load_markers(tmp_path / task["markers"])
    n_base, n_trial = round(2.0 * fs), round(1.101 * fs)
    starts = n_base + 2 * n_trial * np.arange(6)
    for prefix, first in (("trial_onset", starts), ("trial_offset", starts + n_trial)):
        times = np.array([t for t, _, _ in markers.with_prefix(prefix)])
        np.testing.assert_allclose(times * fs, first, rtol=0, atol=1e-9)
    onsets = [t["onset_s"] for t in task["trials"]]
    assert onsets == [t for t, _, _ in markers.with_prefix("trial_onset")]
    rec = load_recording(tmp_path / task["recording"])
    assert rec.n_samples == starts[-1] + 2 * n_trial + round(1.0 * fs)


def _recorded_dataset(tmp_path, monkeypatch):
    """One subject's recordings as written, and the unrounded assembly of
    each: the _segment outputs in the order the recording concatenates them."""
    segments = []
    original = synth._segment

    def recording(*args):
        segments.append(original(*args))
        return segments[-1]

    monkeypatch.setattr(synth, "_segment", recording)
    manifest = synth_dataset(SynthConfig(seed=6), small_protocol(n_subjects=1), tmp_path)
    pairs = []
    for task in manifest["subjects"][0]["tasks"]:
        n_segments = 2 + 2 * len(task["trials"])  # baseline, trial/rest pairs, lead-out
        exact = np.concatenate(segments[:n_segments], axis=1)
        del segments[:n_segments]
        pairs.append((tmp_path / task["recording"], exact))
    assert not segments
    return pairs


def test_dataset_recordings_are_whole_adc_steps(tmp_path, monkeypatch):
    for path, exact in _recorded_dataset(tmp_path, monkeypatch):
        x = load_recording(path).samples
        counts = x / ADC_STEP_UV
        np.testing.assert_array_equal(counts, np.rint(counts))
        assert np.max(np.abs(x - exact)) <= ADC_STEP_UV / 2
        # values within half a step below zero round to zero, not to -0.0
        assert np.any(exact < 0) and np.any((exact > -ADC_STEP_UV / 2) & (exact < 0))
        assert not np.any((x == 0) & np.signbit(x))
        assert "-0.0" not in path.read_text().replace("\n", ",").split(",")


def test_synth_trial_is_not_quantised():
    counts = synth_trial(SynthConfig(seed=6), 12.0, 2.0, 500.0).samples / ADC_STEP_UV
    assert np.mean(counts != np.rint(counts)) > 0.99
