"""The window rule, `dsp.check_windows`, is stated once and applied on both
sides: `SynthProtocol` refuses a task whose windows analyze could not read,
and analyze accepts every dataset synth writes. Whatever protocol synth
accepts, `veplab analyze --dataset` exits 0 or 3; at the rule's edges both
sides accept."""

import json
import re

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from veplab.cli import main
from veplab.dsp import BANDPASS_PAD
from veplab.errors import InputError
from veplab.stimgen import PARADIGMS
from veplab.synth import SynthConfig, SynthProtocol, TaskProtocol, synth_dataset


def _analyze(out) -> int:
    return main(["analyze", "--dataset", str(out / "manifest.json"),
                 "--out", str(out / "report.json")])


@st.composite
def protocols(draw):
    """A 1-subject protocol of one small task. Targets lie below a sixth of
    the rate, where synth can represent their three harmonics, so that most
    draws reach the window rule."""
    fs_hz = float(draw(st.integers(60, 600)))
    fractions = st.floats(0.01, 0.99, exclude_max=True)
    targets = draw(st.lists(fractions, min_size=1, max_size=3, unique=True))
    task = TaskProtocol(
        draw(st.sampled_from(PARADIGMS)), tuple(f * fs_hz / 6 for f in targets),
        draw(st.integers(1, 2)), trial_s=draw(st.floats(1.0, 3.0)),
        rest_s=draw(st.floats(0.0, 3.0)),
    )
    return dict(tasks=(task,), n_subjects=1, fs_hz=fs_hz, lead_out_s=draw(st.floats(0.0, 3.0)))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=protocols())
def test_every_protocol_synth_accepts_analyzes(tmp_path_factory, fields):
    out = tmp_path_factory.mktemp("ds")
    try:
        synth_dataset(SynthConfig(seed=5), SynthProtocol(**fields), out)
    except InputError as exc:
        event("synth rejects: " + re.sub(r"-?\d+(\.\d+)?(e-?\d+)?", "#", str(exc).split(": ")[-1]))
        assume(False)
    code = _analyze(out)
    event(f"analyze exit {code}")
    assert code in (0, 3)


FS = 500.0
GABOR = dict(paradigm="gabor_pulse", targets_hz=(72.0,), trials_per_target=2)


@pytest.mark.parametrize("task, protocol, too_far, named", [
    # a 1.056 s trial leaves a 28-sample decode segment after the 1 s skip,
    # one more than the band-pass pad; its 72 Hz target sits in the first
    # spectrum bin with neighbours on both sides
    (dict(GABOR, trial_s=1.056, rest_s=1.056), dict(lead_out_s=0.0),
     dict(trial_s=1.054), f"epoch of {BANDPASS_PAD} samples is too short"),
    # rests as long as the trials: each rest window ends on the next onset,
    # and without a lead-out the last one ends on the recording's end
    (dict(GABOR, trial_s=2.0, rest_s=2.0), dict(lead_out_s=0.0),
     dict(rest_s=2.0 - 1 / FS), "reaches past the onset marker at 13.998 s"),
    (dict(GABOR, trial_s=2.0, rest_s=2.0), dict(lead_out_s=0.0),
     dict(trials_per_target=1, rest_s=2.0 - 1 / FS), "reaches past the recording's end"),
    # five 2 s trials with nothing between them fill the 10 s calibration
    (dict(paradigm="radial_motion", targets_hz=(8.0,), trials_per_target=5, trial_s=2.0,
          rest_s=0.0), dict(baseline_s=0.0, lead_out_s=0.0),
     dict(trial_s=2.0 - 1 / FS), "shorter than the 10.0 s calibration window"),
])
def test_rule_edges_synthesize_and_analyze(tmp_path, task, protocol, too_far, named):
    out = tmp_path / "ds"
    accepted = SynthProtocol((TaskProtocol(**task),), n_subjects=1, fs_hz=FS, **protocol)
    synth_dataset(SynthConfig(seed=2), accepted, out)
    assert _analyze(out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tasks"][0]["trial_s"] == task["trial_s"]
    # one sample further and synth refuses the task
    with pytest.raises(InputError, match=named):
        SynthProtocol((TaskProtocol(**dict(task, **too_far)),), n_subjects=1, fs_hz=FS,
                      **protocol)
