"""Property tests for the file boundaries: every generated file either loads or
fails with InputError / DegenerateDataError, and `veplab analyze --dataset`
exits 0, 2 or 3. Any other exception is a defect. Recording CSVs read by
numpy's reader load exactly as the per-row parser would load them.

Synthesis is never run on a generated config: only its loader is exercised.
"""

import copy
import json
import warnings
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from veplab import model
from veplab.cli import _load_synth_config, main
from veplab.errors import DegenerateDataError, InputError, ParseError
from veplab.model import load_markers, load_recording
from veplab.synth import SynthConfig, SynthProtocol, TaskProtocol, synth_dataset

FUZZ = settings(max_examples=150, deadline=None)
EXPECTED = (InputError, DegenerateDataError)

# JSON values of every type, NaN and infinities included (json.load accepts them)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.just(10**400),  # parses as a Python int no float can hold
    st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=6), kids, max_size=4)
    ),
    max_leaves=8,
)
numbers = st.one_of(st.floats(), st.integers(-5, 10**6))
cells = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["", "x", "1e999", "-0", "0x10", " 1", "1_0", "\ufeff1"]),
    st.text(max_size=5),
)
labels = st.one_of(
    st.sampled_from(
        ["baseline_start", "trial_onset:radial_motion:8.0", "trial_offset:gabor_pulse:72"]
    ),
    st.builds(
        lambda kind, paradigm, freq: f"{kind}:{paradigm}:{freq}",
        st.sampled_from(["trial_onset", "trial_offset", "baseline_start", "x"]),
        st.text(max_size=6),
        cells,
    ),
    st.text(max_size=12),
)


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return path


@st.composite
def recording_files(draw):
    header = draw(st.one_of(st.just("time_s,Pz,Oz"), st.just("time_s"), st.text(max_size=12)))
    rows = []
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 3)):  # mostly well-formed rows at 500 Hz
            values = draw(st.lists(numbers, min_size=2, max_size=2))
            rows.append(",".join(repr(v) for v in [i / 500.0, *values]))
        else:
            rows.append(",".join(draw(st.lists(cells, max_size=4))))
    text = "\n".join([header, *rows]) + "\n"
    return draw(st.one_of(st.just(text), st.binary(max_size=64)))


@st.composite
def marker_files(draw):
    header = draw(st.one_of(st.just("time_s,label"), st.text(max_size=12)))
    rows = [
        f"{draw(st.one_of(numbers.map(repr), cells))},{draw(labels)}"
        if draw(st.integers(0, 3))
        else draw(st.text(max_size=12))
        for _ in range(draw(st.integers(0, 6)))
    ]
    text = "\n".join([header, *rows]) + "\n"
    return draw(st.one_of(st.just(text), st.binary(max_size=64)))


def _objects(value_for: dict):
    """JSON objects over the given keys and an unknown one, each present or
    not, each value either plausible for its key or any JSON value."""
    return st.fixed_dictionaries({}, optional={
        key: st.one_of(value_for.get(key, json_values), json_values)
        for key in [*value_for, "bogus"]
    })


task_protocols = _objects({
    "paradigm": st.sampled_from(["pattern_reversal", "radial_motion", "gabor_pulse"]),
    "targets_hz": st.lists(numbers, max_size=3),
    "trials_per_target": st.integers(-2, 10),
    "trial_s": numbers,
    "rest_s": numbers,
})
protocols = _objects({
    "tasks": st.lists(task_protocols, max_size=3),
    "n_subjects": st.integers(-2, 20),
    "fs_hz": numbers,
    "baseline_s": numbers,
    "lead_out_s": numbers,
})
synth_configs = _objects({
    **{f.name: numbers for f in fields(SynthConfig)},
    "n_harmonics": st.integers(-2, 5),
    "seed": st.integers(-2, 2**40),
    "channel_gains": st.dictionaries(st.text(max_size=4), numbers, max_size=3),
    "protocol": protocols,
})


# cells float() reads and numpy's reader does not, or that neither reads as a
# finite number, and characters either may strip around a number
odd_cells = st.sampled_from(
    ["1_0", "\uff11", "\u0661", "nan", "1e999", "-inf", "", "x", "0x10", "1e", "+.5", "-0"]
)
spaces = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\xa0", "\x1c", "\x1f", "\x85", "\u3000"])


@st.composite
def recording_tables(draw):
    """A valid recording CSV at 500 Hz, often mutated in a way that either
    parser may treat differently."""
    n_ch = draw(st.integers(1, 3))
    rows = [
        [repr(i / 500.0)] + [repr(v) for v in draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=n_ch, max_size=n_ch
        ))]
        for i in range(draw(st.integers(0, 6)))
    ]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["blank", "space line", "cell", "pad", "ragged"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "blank":
            lines.insert(at, "")
        elif kind == "space line":
            lines.insert(at, draw(spaces))
        elif rows and rows[at % len(rows)]:  # "ragged" pops can empty a row
            row = rows[at % len(rows)]
            col = draw(st.integers(0, len(row) - 1))
            if kind == "cell":
                row[col] = draw(odd_cells)
            elif kind == "pad":
                row[col] = draw(spaces) + row[col] + draw(spaces)
            elif draw(st.booleans()):
                row.pop()
            else:
                row.append("1.0")
            lines = [",".join(r) for r in rows]
    header = "time_s," + ",".join(f"c{k}" for k in range(n_ch))
    end = draw(st.sampled_from(["\n", "", "\r\n"]))
    return end.join([header, *lines]) + end


def _load(path):
    """(recording, None) or (None, ParseError message); warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return load_recording(path), None
        except ParseError as exc:
            return None, str(exc)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_dataset")
    protocol = SynthProtocol(
        tasks=(
            TaskProtocol("radial_motion", (8.0,), 1),
            TaskProtocol("gabor_pulse", (72.0,), 1),
        ),
        n_subjects=1,
    )
    return out, synth_dataset(SynthConfig(seed=5), protocol, out)


@FUZZ
@given(content=recording_files())
def test_load_recording_fails_only_with_input_error(work, content):
    path = _write(work / "rec.csv", content)
    try:
        load_recording(path)
    except EXPECTED:
        pass


@FUZZ
@given(text=recording_tables())
# where the two parsers differ: numpy's reader strips U+001C..U+001F and warns
# on an empty body, float() reads 1_0 and other scripts' digits
@example(text="time_s,a\n0.0,\x1c1.0\n0.002,1.0\n")
@example(text="time_s,a\n\n\n")
@example(text="time_s,a\n0.0,1_0\n0.002,\uff11\n")
@example(text="time_s,a\n0.0,1.0\n0.002,nan\n")
@example(text="time_s,a\n0.0,1.0\n \n0.002,1.0\n")
def test_load_recording_matches_per_row_parser(work, text):
    path = work / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    rec, error = _load(path)
    with mock.patch.object(model, "_parse_table", model._parse_rows):
        ref, ref_error = _load(path)
    event("loaded" if rec is not None else "ParseError")
    assert error == ref_error
    if rec is not None:
        assert rec.samples.tobytes() == ref.samples.tobytes()
        assert rec.times_s.tobytes() == ref.times_s.tobytes()
        assert rec.sample_rate_hz == ref.sample_rate_hz


@FUZZ
@given(content=marker_files())
def test_load_markers_fails_only_with_input_error(work, content):
    path = _write(work / "markers.csv", content)
    try:
        load_markers(path)
    except EXPECTED:
        pass


@FUZZ
@given(config=st.one_of(synth_configs, json_values))
def test_load_synth_config_fails_only_with_input_error(work, config):
    path = _write(work / "synth.json", json.dumps(config))
    try:
        _load_synth_config(path)
    except EXPECTED:
        pass


def _slots(node, found):
    """Every (container, key) pair in a decoded JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        found.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, found)
    return found


# the small dataset's files, as its manifest names them
DATASET_FILES = [f"sub01_task{t}_{kind}.csv" for t in (1, 2) for kind in ("recording", "markers")]
# up to three (slot, delete, value) edits: slot picks, modulo their number, one
# (container, key) pair of the manifest as the earlier edits left it
manifest_edits = st.lists(
    st.tuples(
        st.integers(0, 10**4),
        st.booleans(),
        st.one_of(
            json_values,
            st.sampled_from([0, -1, 1.7e308, "", ".", "missing.csv", [], {}, *DATASET_FILES]),
        ),
    ),
    max_size=3,
)
# two task-1 VAS-F items whose sum overflows a float: fatigue came out inf and
# the report writer raised a bare ValueError (exit 1)
OVERFLOWING_VASF = {
    "subjects": [
        {
            "id": "S1",
            "vasf_baseline_items": [5.0] * 18,
            "tasks": [
                {
                    "task": 1,
                    "paradigm": "radial_motion",
                    "targets": [8.0],
                    "recording": DATASET_FILES[0],
                    "markers": DATASET_FILES[1],
                    "vasf_items": [1.7e308, 1.7e308] + [5.0] * 16,
                }
            ],
        }
    ]
}


def _edited(base, edits):
    manifest = copy.deepcopy(base)
    for slot, delete, value in edits:
        slots = _slots(manifest, [])
        if not slots:
            break
        node, key = slots[slot % len(slots)]
        if isinstance(node, dict) and delete:
            del node[key]
        else:
            node[key] = value
    return manifest


@settings(max_examples=100, deadline=None)
# whole: None keeps the edited manifest, a 1-tuple replaces it
@given(edits=manifest_edits, whole=st.one_of(st.none(), st.tuples(json_values)))
@example(edits=[], whole=(OVERFLOWING_VASF,))
def test_analyze_dataset_exits_0_2_or_3(small_dataset, edits, whole):
    out, base = small_dataset
    manifest = _edited(base, edits) if whole is None else whole[0]
    path = _write(out / "fuzzed.json", json.dumps(manifest))
    code = main(["analyze", "--dataset", str(path), "--out", str(out / "r.json")])
    event(f"exit {code}")
    assert code in (0, 2, 3)
