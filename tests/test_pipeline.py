import json
import re

import numpy as np
import pytest

from veplab import (
    SynthConfig,
    SynthProtocol,
    TaskProtocol,
    decode,
    default_protocol,
    dsp,
    load_recording,
    pipeline,
    save_recording,
    spectral,
    synth_dataset,
)
from veplab.cli import main
from veplab.errors import InputError
from veplab.pipeline import (
    Report,
    analyze_dataset,
    config_for_task,
    analyze_recording,
    emit_report,
    result_report,
    stats_report,
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = SynthConfig(
        evoked_amp_uV=4.0,
        pink_noise_uV=2.0,
        artifact_rate_per_min=1.0,
        seed=21,
    )
    protocol = SynthProtocol(
        tasks=(
            TaskProtocol("radial_motion", (8.0, 12.0, 16.0), 2),
            TaskProtocol("gabor_pulse", (72.0,), 4),
        ),
        n_subjects=3,
    )
    manifest = synth_dataset(cfg, protocol, out)
    return out, manifest


def test_config_for_task_defaults():
    for task, proto in enumerate(default_protocol().tasks, start=1):
        cfg = config_for_task(task)
        assert (cfg.paradigm, cfg.targets_hz, cfg.trial_s) == (
            proto.paradigm, proto.targets_hz, proto.trial_s
        )
    cfg = config_for_task(1)
    assert cfg.targets_hz == (7.2, 9.0, 14.0)
    assert (cfg.band.lo_hz, cfg.band.hi_hz) == (7.0, 15.0)
    assert pipeline.SKIP_INITIAL_S == 1.0
    assert spectral.SNR_NEIGHBORS == 3 and spectral.SNR_SKIP == 1
    assert dsp.ASR_CUTOFF == 20.0 and dsp.FILTER_ORDER == 4
    assert (decode.FB_WEIGHT_A, decode.FB_WEIGHT_B) == (1.25, 0.25)
    assert config_for_task(3).targets_hz == (72.0,)
    for task in (0, 9):
        with pytest.raises(InputError):
            config_for_task(task)


def test_single_recording_pipeline(tiny_dataset):
    out, manifest = tiny_dataset
    task = manifest["subjects"][0]["tasks"][0]
    cfg = config_for_task(
        2,
        recording_path=str(out / task["recording"]),
        markers_path=str(out / task["markers"]),
        subject="S1",
    )
    report = result_report(cfg, analyze_recording(cfg))
    row = report.tasks[0]["rows"][0]
    assert row["subject"] == "S1"
    assert set(row["per_target_accuracy_pct"]) == {"8.0", "12.0", "16.0"}
    assert set(row["per_target_snr_db"]) == {"8.0", "12.0", "16.0"}
    # strong evoked amplitude: the tiny dataset should decode perfectly
    assert row["accuracy_pct"] == 100.0
    assert row["snr_db"] > 6.0


def test_dataset_report_shape_and_aggregate(tiny_dataset):
    out, _ = tiny_dataset
    report = analyze_dataset(out / "manifest.json")
    assert [t["task"] for t in report.tasks] == [1, 2]
    for t in report.tasks:
        assert len(t["rows"]) == 3
        agg = t["aggregate"]
        for key in ("snr_db", "accuracy_pct", "fatigue"):
            vals = [r[key] for r in t["rows"]]
            mean = round(float(np.mean(vals)), 4)
            se = round(float(np.std(vals, ddof=1) / np.sqrt(len(vals))), 4)
            assert agg[key]["mean"] == mean
            assert agg[key]["se"] == se
    # onset/offset task decodes cleanly at this amplitude
    assert all(r["accuracy_pct"] == 100.0 for r in report.tasks[1]["rows"])


def test_report_json_markdown_same_numbers(tiny_dataset, tmp_path):
    out, _ = tiny_dataset
    report = analyze_dataset(out / "manifest.json")
    jp = tmp_path / "report.json"
    mp = tmp_path / "report.md"
    emit_report(report, "json", jp)
    emit_report(report, "markdown", mp)

    data = json.loads(jp.read_text())
    lines = mp.read_text().splitlines()
    body = [l for l in lines[2:] if l.startswith("|")]
    n_tasks = len(data["tasks"])
    for i, row_line in enumerate(body[:-1]):
        cells = [c.strip() for c in row_line.strip("|").split("|")]
        assert cells[0] == data["tasks"][0]["rows"][i]["subject"]
        for t in range(n_tasks):
            row = data["tasks"][t]["rows"][i]
            assert float(cells[1 + 3 * t]) == row["snr_db"]
            assert float(cells[2 + 3 * t]) == row["accuracy_pct"]
            assert float(cells[3 + 3 * t]) == row["fatigue"]
    avg_cells = [c.strip() for c in body[-1].strip("|").split("|")]
    assert avg_cells[0] == "Average"
    for t in range(n_tasks):
        agg = data["tasks"][t]["aggregate"]["snr_db"]
        mean, se = avg_cells[1 + 3 * t].split(" ± ")
        assert float(mean) == agg["mean"]
        assert float(se) == agg["se"]


def test_deterministic_reports(tiny_dataset, tmp_path):
    out, _ = tiny_dataset
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    emit_report(analyze_dataset(out / "manifest.json"), "json", p1)
    emit_report(analyze_dataset(out / "manifest.json"), "json", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_noiseless_dataset_decodes_perfectly(tmp_path):
    cfg = SynthConfig(
        evoked_amp_uV=2.0,
        pink_noise_uV=0.0,
        line_amp_uV=0.0,
        artifact_rate_per_min=0.0,
        seed=1,
    )
    protocol = SynthProtocol(
        tasks=(
            TaskProtocol("radial_motion", (8.0, 12.0, 16.0), 1),
            TaskProtocol("gabor_pulse", (72.0,), 2),
        ),
        n_subjects=2,
    )
    synth_dataset(cfg, protocol, tmp_path)
    report = analyze_dataset(tmp_path / "manifest.json")
    for t in report.tasks:
        assert all(r["accuracy_pct"] == 100.0 for r in t["rows"])


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(InputError):
        emit_report(Report(tasks=[]), "json", tmp_path / "x.json")


def test_stats_report_from_report(tiny_dataset, tmp_path, capsys):
    out, manifest = tiny_dataset
    report = analyze_dataset(out / "manifest.json")
    res = stats_report(report, test="rm-anova", metric="snr")
    # 3 + 1 conditions, 3 subjects -> df (3, 6)
    assert res["df"] == [3, 6]
    assert 0.0 <= res["p"] <= 1.0
    assert len(res["conditions"]) == 4

    post = stats_report(report, test="posthoc", metric="snr")
    assert len(post["posthoc"]) == 6
    for entry in post["posthoc"]:
        assert entry["p_holm"] >= 0.0 and entry["df"] == 2

    # reports merged from hand-edited files: every task must hold the same
    # subjects, every subject the same numeric targets
    def edited(edit):
        tasks = json.loads(report.to_json())["tasks"]
        edit(tasks)
        return Report(tasks=tasks)

    def renamed(tasks):
        tasks[1]["rows"][0]["subject"] = "other"

    def retargeted(tasks):
        del tasks[0]["rows"][1]["per_target_snr_db"]["8.0"]

    def misnamed(tasks):
        for r in tasks[0]["rows"]:
            r["per_target_snr_db"]["8 Hz"] = r["per_target_snr_db"].pop("8.0")

    for edit, message in [
        (lambda tasks: tasks[1]["rows"].pop(), "task 2 has subjects"),
        (lambda tasks: tasks[0]["rows"].clear(), "task 1 has no subject rows"),
        (renamed, "task 2 has subjects"),
        (retargeted, "task 1, subject S2: per_target_snr_db has targets"),
        (misnamed, "not a number"),
    ]:
        with pytest.raises(InputError, match=message):
            stats_report(edited(edit), test="rm-anova", metric="snr")
    # the markdown table reads each subject's rows by position
    for edit in (lambda tasks: tasks[1]["rows"].pop(1), renamed):
        with pytest.raises(InputError, match="task 2 has subjects"):
            edited(edit).to_markdown()
    # so a manifest without S2's task 2 gives a JSON report and no table
    unbalanced = json.loads(json.dumps(manifest))
    del unbalanced["subjects"][1]["tasks"][1]
    path = out / "unbalanced.json"
    path.write_text(json.dumps(unbalanced))
    argv = ["analyze", "--dataset", str(path), "--out"]
    assert main([*argv, str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert main([*argv, str(tmp_path / "r.md"), "--format", "markdown"]) == 2
    assert "task 2 has subjects" in capsys.readouterr().err
    assert not (tmp_path / "r.md").exists()


def test_cli_stimgen_and_synth_and_analyze(tmp_path):
    sched = tmp_path / "sched.json"
    assert main(["stimgen", "--paradigm", "radial", "--freq", "8",
                 "--duration", "0.5", "--out", str(sched)]) == 0
    data = json.loads(sched.read_text())
    assert len(data["frames"]) == 72

    out = tmp_path / "ds"
    cfgp = tmp_path / "synth.json"
    cfgp.write_text(json.dumps({
        "evoked_amp_uV": 4.0,
        "seed": 7,
        "protocol": {
            "tasks": [{"paradigm": "gabor_pulse", "targets_hz": [72.0],
                       "trials_per_target": 2}],
            "n_subjects": 1,
        },
    }))
    assert main(["synth", "--config", str(cfgp), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["subjects"]) == 1

    rep = tmp_path / "rep.json"
    dec = tmp_path / "dec.csv"
    code = main([
        "analyze",
        "--recording", str(out / "sub01_task1_recording.csv"),
        "--markers", str(out / "sub01_task1_markers.csv"),
        "--task", "3",
        "--out", str(rep),
        "--decisions", str(dec),
    ])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["tasks"][0]["rows"][0]["accuracy_pct"] == 100.0
    header = dec.read_text().splitlines()[0]
    assert header == "trial,predicted_hz,true_hz,rho_1,pass"

    stats_out = tmp_path / "stats.json"
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    (reports_dir / "r.json").write_text(rep.read_text())
    # one task/one target -> not enough subjects; exit code 2 (input error)
    assert main(["stats", "--reports", str(reports_dir), "--test", "rm-anova",
                 "--out", str(stats_out)]) == 2


@pytest.mark.parametrize("fs", [1000.0, 600.0])
def test_dataset_at_another_clock_rate_analyzes_and_round_trips(tmp_path, fs):
    # the writer prints each time from integers at 1000 Hz, by repr at 600 Hz
    # (no finite decimal period); saving a loaded recording gives its bytes
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"protocol": {"n_subjects": 1, "fs_hz": fs, "tasks": [
        {"paradigm": "radial_motion", "targets_hz": [8, 10], "trials_per_target": 2}]}}))
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    assert main(["analyze", "--dataset", str(out / "manifest.json"),
                 "--out", str(tmp_path / "r.json")]) == 0
    recording, again = out / "sub01_task1_recording.csv", tmp_path / "again.csv"
    save_recording(load_recording(recording), again)
    assert again.read_bytes() == recording.read_bytes()


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["analyze", "--recording", "missing.csv", "--markers", "m.csv",
                 "--task", "1", "--out", str(tmp_path / "x.json")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,a\n0.0,1.0\n0.002,nan\n")
    mk = tmp_path / "mk.csv"
    mk.write_text("time_s,label\n0.0,baseline_start\n")
    assert main(["analyze", "--recording", str(bad), "--markers", str(mk),
                 "--task", "1", "--out", str(tmp_path / "y.json")]) == 2

    # malformed files: exit 2, and the message names the file and the key or label
    rec = tmp_path / "rec.csv"
    rec.write_text("time_s,a\n" + "".join(f"{i / 100!r},0.0\n" for i in range(1200)))
    dots = tmp_path / "dots.csv"
    dots.write_text("time_s,label\n0.0,trial_onset:radial_motion:..\n")
    no_subjects = tmp_path / "man.json"
    no_subjects.write_text(json.dumps({"tasks": []}))
    no_recording = tmp_path / "man2.json"
    no_recording.write_text(json.dumps({"subjects": [{"id": "S1", "tasks": [
        {"task": 1, "paradigm": "radial_motion", "targets": [8.0], "markers": "m.csv"}
    ]}]}))
    int_subjects = tmp_path / "man3.json"
    int_subjects.write_text(json.dumps({"subjects": 3}))
    missing_file = tmp_path / "man4.json"
    missing_file.write_text(json.dumps({"subjects": [{"id": "S7", "tasks": [
        {"task": 2, "paradigm": "radial_motion", "targets": [8.0],
         "recording": "r", "markers": "m.csv"}
    ]}]}))
    # one row per (task, subject) and one definition per task, checked
    # before any recording is read
    entry = {"task": 1, "paradigm": "radial_motion", "targets": [8.0, 12.0],
             "recording": "rec.csv", "markers": "mk.csv"}
    twice = tmp_path / "man5.json"
    twice.write_text(json.dumps({"subjects": [{"id": "S1", "tasks": [entry]}] * 2}))
    two_ways = tmp_path / "man6.json"
    two_ways.write_text(json.dumps({"subjects": [
        {"id": "S1", "tasks": [dict(entry, paradigm="pattern_reversal")]},
        {"id": "S2", "tasks": [entry]},
    ]}))
    bad_seed = tmp_path / "synth.json"
    bad_seed.write_text(json.dumps({"seed": "x"}))
    bogus_protocol = tmp_path / "synth2.json"
    bogus_protocol.write_text(
        json.dumps({"protocol": {"tasks": [], "baseline_s": 99, "bogus": 1}})
    )
    reports = tmp_path / "reports"
    reports.mkdir()
    row = {"subject": "S3", "snr_db": 1.0, "accuracy_pct": 90.0, "fatigue": None,
           "per_target_snr_db": {"8.0": None}, "per_target_accuracy_pct": {"8.0": 90.0}}
    task2 = {"task": 2, "paradigm": "radial_motion", "targets": [8.0, 12.0]}
    (reports / "r.json").write_text(json.dumps({"tasks": [dict(task2, rows=[row])]}))
    # a report copied twice would count each of its subjects twice
    copied = tmp_path / "copied"
    copied.mkdir()
    rows = [
        dict(row, subject=subject, per_target_snr_db={"8.0": snr, "12.0": snr / 2})
        for subject, snr in (("S3", 3.0), ("S4", 5.0))
    ]
    for name in ("a.json", "b.json"):
        (copied / name).write_text(json.dumps({"tasks": [dict(task2, rows=rows)]}))
    # reports whose task 2 names different stimulus sets are two conditions
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "a.json").write_text(json.dumps({"tasks": [dict(task2, rows=rows[:1])]}))
    (mixed / "b.json").write_text(json.dumps({"tasks": [
        dict(task2, paradigm="pattern_reversal", rows=rows[1:])
    ]}))
    # nor reports whose task 2 was read in windows of different lengths
    lengths = tmp_path / "lengths"
    lengths.mkdir()
    (lengths / "a.json").write_text(json.dumps({"tasks": [dict(task2, rows=rows[:1])]}))
    (lengths / "b.json").write_text(json.dumps({"tasks": [
        dict(task2, trial_s=3.0, rows=rows[1:])
    ]}))
    # a marker file without trials leaves nothing to score
    baseline_only = tmp_path / "man7.json"
    baseline_only.write_text(json.dumps({"subjects": [{"id": "S1", "tasks": [entry]}]}))
    # a report without its stimulus set cannot be checked against another
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "a.json").write_text(json.dumps({"tasks": [{"task": 2, "rows": rows}]}))
    out = str(tmp_path / "z.json")
    cases = [
        (["analyze", "--recording", str(rec), "--markers", str(dots), "--task", "2",
          "--out", out], [str(dots), "trial_onset:radial_motion:.."]),
        (["analyze", "--dataset", str(no_subjects), "--out", out],
         [str(no_subjects), "'subjects'"]),
        (["analyze", "--dataset", str(no_recording), "--out", out],
         [str(no_recording), "'recording'"]),
        (["analyze", "--dataset", str(int_subjects), "--out", out],
         [str(int_subjects), "subjects"]),
        (["analyze", "--dataset", str(missing_file), "--out", out],
         [str(missing_file), "subject S7", "task 2", "recording"]),
        (["analyze", "--dataset", str(twice), "--out", out],
         [f"task 1, subject S1 appears in {twice} and again in {twice}"]),
        (["analyze", "--dataset", str(two_ways), "--out", out],
         [str(two_ways), "task 1 is pattern_reversal", "subject S1", "radial_motion",
          "subject S2"]),
        (["analyze", "--dataset", str(baseline_only), "--out", out],
         [f"{baseline_only}: subject S1, task 1, recording rec.csv: "
          "cannot evaluate accuracy of zero trials"]),
        (["analyze", "--recording", str(rec), "--markers", str(mk), "--task", "1",
          "--out", out], ["subject rec.csv, task 1: cannot evaluate accuracy of zero trials"]),
        (["synth", "--config", str(bad_seed), "--out", str(tmp_path / "ds")],
         [str(bad_seed), "seed"]),
        (["synth", "--config", str(bogus_protocol), "--out", str(tmp_path / "ds")],
         [str(bogus_protocol), "protocol", "'bogus'"]),
        (["stats", "--reports", str(reports), "--test", "rm-anova"],
         [str(reports / "r.json"), "task 2", "subject S3", "per_target_snr_db"]),
        (["stats", "--reports", str(copied), "--test", "rm-anova"],
         ["task 2, subject S3", str(copied / "a.json"), str(copied / "b.json")]),
        (["stats", "--reports", str(mixed), "--test", "rm-anova"],
         ["task 2 is radial_motion", "pattern_reversal", str(mixed / "a.json"),
          str(mixed / "b.json")]),
        (["stats", "--reports", str(lengths), "--test", "rm-anova"],
         ["task 2 is radial_motion at [8.0, 12.0] Hz in 5.0 s trials for subject S3 in "
          f"{lengths / 'a.json'}", f"3.0 s trials for subject S4 in {lengths / 'b.json'}"]),
        (["stats", "--reports", str(bare), "--test", "rm-anova"],
         [str(bare / "a.json"), "task 2", "missing key 'paradigm'"]),
    ]
    # non-finite stimulus numbers, a duration too short for one frame, and
    # frame counts above the ceiling
    schedule = str(tmp_path / "s.json")
    for flag, field, values in (
        ("--freq", "stim_freq_hz", ("nan", "inf")),
        ("--refresh", "refresh_rate_hz", ("nan", "inf", "1e300")),
        ("--duration", "duration_s", ("nan", "inf", "1e-9", "1e300")),
    ):
        argv = ["stimgen", "--paradigm", "radial", "--freq", "8", "--out", schedule]
        for value in values:
            cases.append(([*argv, flag, value], [field]))
    capsys.readouterr()
    for argv, named in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert all(n in err for n in named), err


@pytest.mark.parametrize("subjects", ["0", "-1"])
def test_cli_synth_rejects_subject_count_below_one(tmp_path, capsys, subjects):
    out = tmp_path / "ds"
    assert main(["synth", "--subjects", subjects, "--out", str(out)]) == 2
    assert "n_subjects" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("task", "trials_per_target", 0),
        ("task", "targets_hz", []),
        ("task", "targets_hz", [8.0, -8.0]),
        ("task", "paradigm", "flicker"),
        ("task", "trial_s", -1.0),
        ("task", "rest_s", -1.0),
        ("protocol", "tasks", []),
        ("protocol", "fs_hz", 0.0),
        ("protocol", "baseline_s", -1.0),
        ("protocol", "lead_out_s", -1.0),
        # past the stated ceilings: a Poisson draw too large for numpy, samples
        # that overflow float64, and a mains line analyze would refuse
        ("config", "artifact_rate_per_min", 1e300),
        ("config", "evoked_amp_uV", 1e308),
        ("config", "artifact_amp_uV", 1e308),
        ("config", "channel_gains", {"Oz": 1e308}),
        ("config", "line_freq_hz", 0.0),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_synth_rejects_invalid_protocol(tmp_path, capsys, where, field, value):
    task = {"paradigm": "gabor_pulse", "targets_hz": [72.0], "trials_per_target": 2}
    protocol = {"tasks": [task], "n_subjects": 1}
    document = {"protocol": protocol}
    {"task": task, "protocol": protocol, "config": document}[where][field] = value
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    named = [str(config), field] + (["task 0"] if where == "task" else [])
    assert all(n in err for n in named), err
    assert not out.exists()


@pytest.mark.parametrize("name", ["Pz,x", "Pz\nx", "Pz\ud800"])
def test_cli_synth_rejects_a_channel_name_the_csv_header_cannot_hold(tmp_path, capsys, name):
    # each used to synthesise a dataset that analyze could not read, or to end
    # in a UnicodeEncodeError traceback
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"channel_gains": {name: 0.9, "Oz": 1.0}}))
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(config), "--subjects", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: channel_gains: channel name" in err, err
    assert not out.exists()


def test_cli_synth_refuses_a_recording_too_long_to_allocate(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"protocol": {"n_subjects": 1, "tasks": [
        {"paradigm": "radial_motion", "targets_hz": [8, 10], "trials_per_target": 1,
         "trial_s": 1e12}]}}))
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: protocol: task 0: " in err and "trial_s" in err, err
    assert not out.exists()


def test_json_nested_too_deep_to_decode_exits_2_naming_the_file(tmp_path, capsys):
    # deeper than the decoder goes: each command used to end in a
    # RecursionError traceback. Written as text, since json.dumps recurses too
    deep = "[" * 100_000 + "]" * 100_000
    document = tmp_path / "deep.json"
    document.write_text(deep)
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "deep.json").write_text(deep)
    for argv, named in (
        (["analyze", "--dataset", str(document), "--out", str(tmp_path / "r.json")], document),
        (["synth", "--config", str(document), "--out", str(tmp_path / "ds")], document),
        (["stats", "--reports", str(reports), "--test", "rm-anova"], reports / "deep.json"),
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert f"{named}: cannot read JSON: " in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("subject", ["", "S|1", "S\n1", "S\ud800"])
def test_manifest_subject_a_report_row_cannot_hold_exits_2(tiny_dataset, tmp_path, capsys,
                                                           subject):
    # "" was reported as sub01, "S|1" added a markdown column, "S\n1" split
    # its row and "S\ud800" ended in a UnicodeEncodeError traceback
    out, manifest = tiny_dataset
    edited = json.loads(json.dumps(manifest))
    edited["subjects"][1]["id"] = subject
    path = out / "edited_id.json"
    path.write_text(json.dumps(edited))
    capsys.readouterr()
    assert main(["analyze", "--dataset", str(path), "--format", "markdown",
                 "--out", str(tmp_path / "r.md")]) == 2
    assert f"{path}: subject entry 1: id " in capsys.readouterr().err
    assert not (tmp_path / "r.md").exists()


@pytest.mark.parametrize("name", ["S|1_task1_recording.csv", "_task1_recording.csv"])
def test_recording_file_name_a_report_row_cannot_hold_exits_2(tiny_dataset, tmp_path, capsys,
                                                              name):
    # without a manifest the subject is the file name's prefix before "_"
    out, _ = tiny_dataset
    recording = tmp_path / name
    recording.write_bytes((out / "sub01_task1_recording.csv").read_bytes())
    capsys.readouterr()
    assert main(["analyze", "--recording", str(recording),
                 "--markers", str(out / "sub01_task1_markers.csv"), "--task", "2",
                 "--format", "markdown", "--out", str(tmp_path / "r.md")]) == 2
    assert f"{recording}: subject " in capsys.readouterr().err
    assert not (tmp_path / "r.md").exists()


def test_synth_config_reads_every_protocol_field(tmp_path):
    from veplab.cli import _load_synth_config

    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"protocol": {
        "tasks": [{"paradigm": "gabor_pulse", "targets_hz": [72], "trials_per_target": 2,
                   "rest_s": 6}],
        "baseline_s": 12, "lead_out_s": 1.5, "fs_hz": 250,
    }}))
    _, protocol = _load_synth_config(path)
    assert (protocol.baseline_s, protocol.lead_out_s, protocol.fs_hz) == (12.0, 1.5, 250.0)
    assert protocol.tasks == (TaskProtocol("gabor_pulse", (72.0,), 2, rest_s=6.0),)


def test_non_finite_snr_is_degenerate_not_nan(tiny_dataset, tmp_path, capsys):
    # a 0.6 Hz target lies far below the radial-motion analysis band, so its
    # SNR is 0/0; the report must not carry the NaN. The manifest and the
    # markers both name the 0.6 Hz target, so the two agree.
    out, manifest = tiny_dataset
    task = dict(manifest["subjects"][0]["tasks"][0], targets=[0.6, 12.0, 16.0])
    markers = tmp_path / "markers.csv"
    markers.write_text((out / task["markers"]).read_text().replace(":8.0", ":0.6"))
    task.update(recording=str(out / task["recording"]), markers=str(markers))
    dataset = tmp_path / "manifest.json"
    dataset.write_text(json.dumps({"subjects": [{"id": "S1", "tasks": [task]}]}))
    report = tmp_path / "r.json"
    argv = ["analyze", "--dataset", str(dataset), "--out", str(report)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert all(n in err for n in ("subject S1", "task 1", "0.6 Hz")), err
    assert err.count("subject S1") == err.count("task 1") == 1, err
    assert not report.exists()
    with pytest.raises(ValueError):
        Report(tasks=[{"rows": [{"snr_db": float("nan")}]}]).to_json()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("test, snr, named", [
    ("rm-anova", [1e200, 5e200, 3e200], "the total sum of squares is inf"),
    ("posthoc", [1e200, 5e200, 3e200], "the sd of the differences is inf"),
    ("posthoc", [1e308, -1e308, 1e308], "the sd of the differences is nan"),
])
def test_stats_past_float64_is_degenerate(tmp_path, capsys, test, snr, named):
    # finite SNRs whose squares overflow: rm-anova ended in a NaN traceback,
    # posthoc reported t 0.0 and p_holm 1.0 from an infinite sd
    reports = tmp_path / "reports"
    reports.mkdir()
    rows = [{"subject": f"S{k}", "snr_db": 1.0, "accuracy_pct": 90.0, "fatigue": None,
             "per_target_snr_db": {"8.0": v, "12.0": -v},
             "per_target_accuracy_pct": {"8.0": 90.0, "12.0": 90.0}}
            for k, v in enumerate(snr, start=1)]
    (reports / "r.json").write_text(json.dumps({"tasks": [
        {"task": 2, "paradigm": "radial_motion", "targets": [8.0, 12.0], "rows": rows}]}))
    out = tmp_path / "stats.json"
    capsys.readouterr()
    assert main(["stats", "--reports", str(reports), "--test", test, "--out", str(out)]) == 3
    assert f"metric snr: {named}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_decisions_analyze_once(tiny_dataset, tmp_path, monkeypatch):
    import veplab.cli
    import veplab.pipeline

    out, manifest = tiny_dataset
    task = manifest["subjects"][0]["tasks"][0]
    calls = []
    original = veplab.pipeline.analyze_recording

    def counting(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(veplab.pipeline, "analyze_recording", counting)
    monkeypatch.setattr(veplab.cli, "analyze_recording", counting)
    argv = ["analyze", "--recording", str(out / task["recording"]),
            "--markers", str(out / task["markers"]), "--task", "2"]
    with_dec, without = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(with_dec), "--decisions",
                        str(tmp_path / "dec.csv")]) == 0
    assert len(calls) == 1
    assert main(argv + ["--out", str(without)]) == 0
    assert with_dec.read_bytes() == without.read_bytes()


def test_markdown_is_pipe_table(tiny_dataset):
    out, _ = tiny_dataset
    report = analyze_dataset(out / "manifest.json")
    md = report.to_markdown()
    lines = md.splitlines()
    assert lines[0].startswith("| Subject |")
    assert re.match(r"^\|(-+\|)+$", lines[1].replace("-", "-"))
    assert lines[-1].startswith("| Average |")


def _pinned_row(subject, snr_db, fatigue, per_target_snr_db):
    return {
        "subject": subject,
        "snr_db": snr_db,
        "accuracy_pct": 100.0,
        "fatigue": fatigue,
        "per_target_snr_db": per_target_snr_db,
        "per_target_accuracy_pct": dict.fromkeys(per_target_snr_db, 100.0),
    }


def _pinned_aggregate(snr_db, fatigue):
    return {
        "snr_db": dict(zip(("mean", "se"), snr_db)),
        "accuracy_pct": {"mean": 100.0, "se": 0.0},
        "fatigue": dict(zip(("mean", "se"), fatigue)),
    }


# the report of tiny_dataset with recordings stored at the 2^-5 uV ADC step;
# any moved number fails here
PINNED_TINY_REPORT = {"tasks": [
    {
        "task": 1,
        "paradigm": "radial_motion",
        "targets": [8.0, 12.0, 16.0],
        "trial_s": 5.0,
        "aggregate": _pinned_aggregate((30.3989, 0.505), (0.6231, 0.5004)),
        "rows": [
            _pinned_row("S1", 30.8294, 1.5154,
                        {"8.0": 29.8115, "12.0": 29.7654, "16.0": 32.9114}),
            _pinned_row("S2", 30.9749, 0.5692,
                        {"8.0": 29.8778, "12.0": 31.4498, "16.0": 31.597}),
            _pinned_row("S3", 29.3924, -0.2154,
                        {"8.0": 27.3286, "12.0": 30.005, "16.0": 30.8435}),
        ],
    },
    {
        "task": 2,
        "paradigm": "gabor_pulse",
        "targets": [72.0],
        "trial_s": 5.0,
        "aggregate": _pinned_aggregate((38.1786, 0.6864), (0.241, 0.3222)),
        "rows": [
            _pinned_row("S1", 36.8534, -0.1077, {"72.0": 36.8534}),
            _pinned_row("S2", 39.1514, 0.8846, {"72.0": 39.1514}),
            _pinned_row("S3", 38.5311, -0.0538, {"72.0": 38.5311}),
        ],
    },
]}


def test_tiny_dataset_report_numbers_are_pinned(tiny_dataset):
    out, _ = tiny_dataset
    report = json.loads(analyze_dataset(out / "manifest.json").to_json())
    assert report == PINNED_TINY_REPORT


def _line_frequencies(monkeypatch, manifest_path) -> set[float]:
    """Every line frequency analyze_dataset removes for manifest_path."""
    seen = set()
    original = pipeline.remove_line_noise

    def recording(epoch, f_line):
        seen.add(f_line)
        return original(epoch, f_line)

    monkeypatch.setattr(pipeline, "remove_line_noise", recording)
    analyze_dataset(manifest_path)
    return seen


def test_line_frequency_comes_from_the_manifest(tmp_path, monkeypatch, capsys):
    out = tmp_path / "ds"
    protocol = SynthProtocol(
        tasks=(
            TaskProtocol("radial_motion", (8.0, 12.0), 1),
            TaskProtocol("gabor_pulse", (72.0,), 1),
        ),
        n_subjects=1,
    )
    manifest = synth_dataset(SynthConfig(line_freq_hz=60.0, seed=3), protocol, out)
    assert _line_frequencies(monkeypatch, out / "manifest.json") == {60.0}

    del manifest["config"]["line_freq_hz"]
    unrecorded = out / "unrecorded.json"
    unrecorded.write_text(json.dumps(manifest))
    assert _line_frequencies(monkeypatch, unrecorded) == {50.0}

    capsys.readouterr()
    for value in (float("nan"), float("inf"), 0, -60.0, 10**400, "60", True):
        manifest["config"]["line_freq_hz"] = value
        bad = out / "bad.json"
        bad.write_text(json.dumps(manifest))
        argv = ["analyze", "--dataset", str(bad), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "config: line_freq_hz" in err, err


def test_recording_line_frequency_option_matches_the_dataset(tmp_path, capsys):
    # a 60 Hz recording scored through --recording removes the 50 Hz default
    # unless told otherwise; the dataset path reads 60 Hz from its manifest.
    # The dataset's only task is the default protocol's task 3.
    config = tmp_path / "mains60.json"
    config.write_text(json.dumps({"line_freq_hz": 60, "seed": 3, "protocol": {
        "n_subjects": 1, "tasks": [
            {"paradigm": "gabor_pulse", "targets_hz": [72], "trials_per_target": 4}]}}))
    out = tmp_path / "mains60"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    dataset_report = tmp_path / "dataset.json"
    assert main(["analyze", "--dataset", str(out / "manifest.json"),
                 "--out", str(dataset_report)]) == 0
    expected = json.loads(dataset_report.read_text())["tasks"][0]["rows"][0]
    argv = ["analyze", "--recording", str(out / "sub01_task1_recording.csv"),
            "--markers", str(out / "sub01_task1_markers.csv"), "--task", "3",
            "--out", str(tmp_path / "r.json")]

    def per_target_snr(extra):
        assert main(argv + extra) == 0
        row = json.loads((tmp_path / "r.json").read_text())["tasks"][0]["rows"][0]
        return row["per_target_snr_db"]

    decisions = tmp_path / "d.csv"
    assert per_target_snr(["--line-freq", "60", "--decisions", str(decisions)]) == \
        expected["per_target_snr_db"]
    # a header plus one row per stimulation and one per rest epoch
    assert len(decisions.read_text().splitlines()) == 1 + 4 + 4
    assert per_target_snr([]) != expected["per_target_snr_db"]

    capsys.readouterr()
    for value in ("nan", "inf", "0", "-60"):
        assert main(argv + ["--line-freq", value]) == 2
        err = capsys.readouterr().err
        assert "--line-freq must be finite and > 0" in err, err
    assert main(["analyze", "--dataset", str(out / "manifest.json"), "--line-freq", "60",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "--line-freq applies to --recording only" in capsys.readouterr().err


def test_dataset_rejects_single_recording_flags(tiny_dataset, tmp_path, capsys):
    # the manifest names every recording, its markers and task, so these
    # flags would be ignored; a decisions CSV would silently not be written
    out, _ = tiny_dataset
    base = ["analyze", "--dataset", str(out / "manifest.json"), "--out", str(tmp_path / "r.json")]
    capsys.readouterr()
    for flag, value in (
        ("--decisions", str(tmp_path / "d.csv")),
        ("--recording", str(out / "sub01_task1_recording.csv")),
        ("--markers", str(out / "sub01_task1_markers.csv")),
        ("--task", "1"),
    ):
        assert main([*base, flag, value]) == 2, flag
        assert f"{flag} applies to --recording only" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "r.json").exists()


def _synth_rejects(tmp_path, capsys, protocol, named):
    """veplab synth exits 2 on protocol, naming the config, task 0 and named,
    and writes nothing."""
    config = tmp_path / "rejected.json"
    config.write_text(json.dumps({"protocol": dict(protocol, n_subjects=1)}))
    out = tmp_path / "rejected"
    capsys.readouterr()
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(n in err for n in [f"{config}: protocol: task 0: ", *named]), err
    assert not out.exists()


def _edited_dataset(tmp_path, task, trial_s):
    """The manifest of a 1-subject dataset of task, as synth writes it, with
    its trial_s edited: analyze then reads windows synth did not write."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"protocol": {"n_subjects": 1, "tasks": [task]}}))
    out = tmp_path / "ds"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["subjects"][0]["tasks"][0]["trial_s"] = trial_s
    path = out / "edited.json"
    path.write_text(json.dumps(manifest))
    return path


def test_rest_window_past_next_onset_is_an_input_error(tmp_path, capsys):
    # 1 s rests under 5 s windows: each rest epoch would read the next
    # stimulation, and onset accuracy would come out wrong instead
    gabor = {"paradigm": "gabor_pulse", "targets_hz": [72.0], "trials_per_target": 6}
    _synth_rejects(tmp_path, capsys, {
        "tasks": [dict(gabor, trial_s=5.0, rest_s=1.0)], "lead_out_s": 6.0,
    }, ["offset marker at 15.0 s", "onset marker at 16.0 s", "rest_s (and lead_out_s after "
        "the last trial) is under trial_s"])
    # the same fault reaches analyze only through an edited manifest
    manifest = _edited_dataset(tmp_path, dict(gabor, trial_s=2.0, rest_s=2.0), 3.0)
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["analyze", "--dataset", str(manifest), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    named = ["subject S1", "recording sub01_task1_recording.csv", "sub01_task1_markers.csv",
             "3.0 s rest window after the offset marker at 12.0 s reaches past the onset "
             "marker at 14.0 s"]
    assert all(n in err for n in named), err
    assert not report.exists()


def test_dataset_errors_name_the_manifest_entry(tmp_path, capsys):
    # 1 s rests under 5 s windows, and the default 2 s lead-out: each rest
    # window would run past the next onset, the last past the recording's end
    _synth_rejects(tmp_path, capsys, {"tasks": [
        {"paradigm": "gabor_pulse", "targets_hz": [72.0], "trials_per_target": 2,
         "trial_s": 5.0, "rest_s": 1.0},
    ]}, ["rest_s (and lead_out_s after the last trial) is under trial_s"])
    # 13 s windows reach past the 12 s after the last onset
    manifest = _edited_dataset(tmp_path, {
        "paradigm": "radial_motion", "targets_hz": [8.0, 12.0], "trials_per_target": 1,
    }, 13.0)
    capsys.readouterr()
    assert main(["analyze", "--dataset", str(manifest),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    where = f"{manifest}: subject S1, task 1, recording sub01_task1_recording.csv: "
    assert where + "stage epoching: " in err, err
    with pytest.raises(InputError, match="exceeds recording bounds") as info:
        analyze_dataset(manifest)
    assert type(info.value) is InputError


def test_epoch_too_short_to_band_pass_is_an_input_error(tmp_path, capsys, monkeypatch):
    # a 1.05 s trial leaves 25 samples after the decoder's initial skip,
    # fewer than the 27-sample pad of an order-4 band-pass
    radial = {"paradigm": "radial_motion", "targets_hz": [8, 10], "trials_per_target": 1}
    too_short = "epoch of 25 samples is too short to band-pass; need > 27"
    _synth_rejects(tmp_path, capsys, {"tasks": [dict(radial, trial_s=1.05, rest_s=2)]},
                   ["protocol: task 0: trial_s 1.05 s after the 1.0 s skip: " + too_short])
    manifest = _edited_dataset(tmp_path, radial, 1.05)
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["analyze", "--dataset", str(manifest), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    named = ["subject S1", "sub01_task1_markers.csv: trial_s 1.05 s", too_short]
    assert all(n in err for n in named), err
    assert not report.exists()
    # the rule rejects the windows before any trial is decoded; an error
    # while one is decoded names the trial
    def failing(*args):
        raise InputError("decoder fault")

    monkeypatch.setattr(pipeline, "fbcca_decide", failing)
    manifest.write_text(manifest.read_text().replace('"trial_s": 1.05', '"trial_s": 5.0'))
    assert main(["analyze", "--dataset", str(manifest), "--out", str(report)]) == 2
    assert "stage decode, trial 0: decoder fault" in capsys.readouterr().err


def test_markers_contradicting_the_task_are_an_input_error(tiny_dataset, tmp_path, capsys):
    # markers of another paradigm or target would be decoded against the
    # wrong references, scored near 0 % and reported under the task's label
    out, manifest = tiny_dataset
    for paradigm, targets, mismatch in (
        ("pattern_reversal", [7.2, 9.0, 14.0], "marker at 10.0 s names radial_motion"),
        ("radial_motion", [8.0, 12.0, 15.0], "s names radial_motion at 16.0 Hz"),
    ):
        edited = json.loads(json.dumps(manifest))
        for subject in edited["subjects"]:
            for task in subject["tasks"]:
                for key in ("recording", "markers"):
                    task[key] = str(out / task[key])
        # every subject's task 1, so that the manifest defines task 1 once
        for subject in edited["subjects"]:
            subject["tasks"][0].update(paradigm=paradigm, targets=targets)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(["analyze", "--dataset", str(path),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        named = ["subject S1, task 1", "sub01_task1_markers.csv: marker at ", mismatch]
        assert all(n in err for n in named), err
    # the single-recording path: task 1 of the default protocol is pattern
    # reversal, the recording's task is radial motion
    markers = str(out / "sub01_task1_markers.csv")
    assert main(["analyze", "--recording", str(out / "sub01_task1_recording.csv"),
                 "--markers", markers, "--task", "1",
                 "--out", str(tmp_path / "one.json")]) == 2
    err = capsys.readouterr().err
    assert f"{markers}: marker at 10.0 s names radial_motion" in err, err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "one.json").exists()


def test_task_read_in_two_window_lengths_is_an_input_error(tiny_dataset, tmp_path, capsys):
    # S2's task 1 read in 3 s windows would be pooled with 5 s ones as one
    # condition; the manifest defines task 1 twice and names both subjects
    out, manifest = tiny_dataset
    edited = json.loads(json.dumps(manifest))
    for subject in edited["subjects"]:
        for task in subject["tasks"]:
            for key in ("recording", "markers"):
                task[key] = str(out / task[key])
    edited["subjects"][1]["tasks"][0]["trial_s"] = 3.0
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(edited))
    capsys.readouterr()
    assert main(["analyze", "--dataset", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert (f"task 1 is radial_motion at [8.0, 12.0, 16.0] Hz in 5.0 s trials for subject S1 "
            f"in {path}, but radial_motion at [8.0, 12.0, 16.0] Hz in 3.0 s trials for "
            f"subject S2 in {path}") in err, err
    assert not (tmp_path / "r.json").exists()
