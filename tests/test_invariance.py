"""Metamorphic checks of the analysis (Chen, Cheung & Yiu 1998, HKUST-CS98-01):
transforms of a dataset's saved files that must not change what analyze finds.

Every sample doubled, and every timestamp and marker moved 3 s later, leave
each unrounded SubjectTaskResult bit-equal: scaling by a power of two changes
no rounding in the chain, and a common time offset moves no sample position. Reversing the channel
columns permutes the artifact and CCA subspaces, so their floating-point sums
run in another order: every decision stays, and the largest gaps measured on
this dataset were |d rho| 1.3e-15 and |d SNR| 7.5e-14 dB, against bounds of
1e-12 and 1e-9 dB. Tripling every sample, a scale that is not a power of two,
rounds differently at each step but keeps every decision within the same
bounds (measured 1.3e-15 and 2.9e-13 dB).
"""

import dataclasses
import shutil

import numpy as np
import pytest

from veplab import SynthConfig, SynthProtocol, default_protocol, synth_dataset
from veplab.model import (
    ChannelLayout,
    MarkerStream,
    load_markers,
    load_recording,
    save_markers,
    save_recording,
)
from veplab.pipeline import _manifest_entries, analyze_recording


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """One subject doing the paper's three tasks, with fewer trials."""
    out = tmp_path_factory.mktemp("invariance")
    tasks = tuple(
        dataclasses.replace(t, trials_per_target=3 // len(t.targets_hz))
        for t in default_protocol().tasks
    )
    synth_dataset(SynthConfig(seed=11), SynthProtocol(tasks, n_subjects=1), out)
    return out


def _results(dataset_dir):
    return [analyze_recording(cfg) for cfg, _ in _manifest_entries(str(dataset_dir / "manifest.json"))]


def _transformed(dataset, tmp_path, recording=None, markers=None):
    """A copy of the dataset whose recordings and markers went through the
    given transforms."""
    out = tmp_path / "transformed"
    shutil.copytree(dataset, out)
    for path in out.glob("*_recording.csv") if recording else ():
        save_recording(recording(load_recording(path)), path)
    for path in out.glob("*_markers.csv") if markers else ():
        save_markers(markers(load_markers(path)), path)
    return out


@pytest.fixture(scope="module")
def original(dataset):
    return _results(dataset)


def test_doubled_samples_and_later_times_give_bit_equal_results(dataset, original, tmp_path):
    moved = _transformed(
        dataset, tmp_path,
        recording=lambda rec: dataclasses.replace(
            rec, samples=rec.samples * 2.0, times_s=rec.times_s + 3.0),
        markers=lambda m: MarkerStream(tuple((t + 3.0, label) for t, label in m.events)),
    )
    assert [repr(r) for r in _results(moved)] == [repr(r) for r in original]


def test_reversed_channels_give_the_same_decisions(dataset, original, tmp_path):
    reversed_ = _transformed(
        dataset, tmp_path,
        recording=lambda rec: dataclasses.replace(
            rec, layout=ChannelLayout(rec.layout.names[::-1]), samples=rec.samples[::-1]),
    )
    for got, want in zip(_results(reversed_), original, strict=True):
        decisions = [(g.decision, w.decision) for g, w in zip(got.trials, want.trials, strict=True)]
        decisions += zip(got.offset_decisions, want.offset_decisions, strict=True)
        for g, w in decisions:
            assert (g.predicted, g.threshold_pass) == (w.predicted, w.threshold_pass)
            assert np.max(np.abs(np.subtract(g.rho, w.rho))) <= 1e-12
        assert max(abs(g.snr_db_target - w.snr_db_target)
                   for g, w in zip(got.trials, want.trials)) <= 1e-9


def test_tripled_samples_give_the_same_decisions(dataset, original, tmp_path):
    tripled = _transformed(
        dataset, tmp_path,
        recording=lambda rec: dataclasses.replace(rec, samples=rec.samples * 3.0),
    )
    for got, want in zip(_results(tripled), original, strict=True):
        pairs = [(g.decision, w.decision) for g, w in zip(got.trials, want.trials, strict=True)]
        pairs += zip(got.offset_decisions, want.offset_decisions, strict=True)
        assert [(g.predicted, g.threshold_pass) for g, _ in pairs] == [
            (w.predicted, w.threshold_pass) for _, w in pairs]
        assert max(np.max(np.abs(np.subtract(g.rho, w.rho))) for g, w in pairs) <= 1e-12
        assert max(abs(g.snr_db_target - w.snr_db_target)
                   for g, w in zip(got.trials, want.trials)) <= 1e-9
