"""End-to-end offline analysis: preprocess, PSD, SNR, decode, report.

A single run covers one recording/marker pair (one subject doing one task);
`analyze_dataset` drives the full synthetic cohort from a manifest and
assembles the per-subject performance/fatigue table with mean +- SE rows.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import stats as vstats
from .decode import (
    Decision,
    FilterBankConfig,
    default_filter_bank,
    detect_onset,
    evaluate_accuracy,
    fbcca_decide,
    make_references,
)
from .dsp import N_HARMONICS, PARADIGM_BANDS, SKIP_INITIAL_S, BandpassSpec, bandpass, check_windows
from .dsp import onset_mode, reference_harmonics
from .dsp import remove_line_noise, suppress_artifacts
from .errors import DegenerateDataError, InputError, check_finite, located
from .model import MARKER_OFFSET, MARKER_ONSET, TRIAL_S, Recording, TrialEpoch
from .model import check_label, derive_virtual_channel, extract_epochs, json_task, json_text
from .model import json_value, load_markers, load_recording, read_json
from .spectral import psd_boxcar, snr_at, snr_spectrum
from .synth import default_protocol

# the analysis is the same for every task and subject
# null rho for 4 s band-limited epochs reaches ~0.4; evoked trials at the
# default synth amplitudes sit near 0.99
ONSET_THRESHOLD = 0.6
ANALYSIS_CHANNEL = "POz"


@dataclass(frozen=True)
class PipelineConfig:
    task: int
    paradigm: str
    targets_hz: tuple[float, ...]
    band: BandpassSpec
    recording_path: str = ""
    markers_path: str = ""
    subject: str = ""
    line_freq_hz: float = 50.0
    trial_s: float = TRIAL_S

    def filter_bank(self, fs_hz: float) -> FilterBankConfig:
        """Sub-bands for FB-CCA decoding.

        The ceiling covers the reference harmonics: decoding through the
        narrow task band would erase the harmonic structure that separates
        targets whose frequencies are multiples of each other (8 vs 16 Hz).
        """
        ceiling = min(N_HARMONICS * max(self.targets_hz) + 2.0, 0.45 * fs_hz)
        return default_filter_bank(self.targets_hz, ceiling)


def _paradigm_config(task: int, paradigm: str, targets_hz, trial_s, **fields) -> PipelineConfig:
    """Config for a task on a known paradigm, which fixes the analysis band."""
    band = BandpassSpec(*PARADIGM_BANDS[paradigm])
    return PipelineConfig(task, paradigm, tuple(targets_hz), band, trial_s=trial_s, **fields)


def config_for_task(
    task: int, recording_path: str = "", markers_path: str = "", subject: str = "",
    line_freq_hz: float = PipelineConfig.line_freq_hz,
) -> PipelineConfig:
    """Task `task` (numbered from 1) of `default_protocol()`: its paradigm,
    targets and trial length, with line_freq_hz as the mains frequency."""
    tasks = default_protocol().tasks
    if not 1 <= task <= len(tasks):
        raise InputError(f"task must be one of 1..{len(tasks)}, got {task}")
    t = tasks[task - 1]
    return _paradigm_config(
        task, t.paradigm, t.targets_hz, t.trial_s,
        recording_path=recording_path, markers_path=markers_path, subject=subject,
        line_freq_hz=line_freq_hz,
    )


@dataclass
class TrialOutcome:
    trial: int
    true_hz: float
    decision: Decision
    snr_db_target: float  # at the analysis channel, fundamental frequency


@dataclass
class SubjectTaskResult:
    subject: str
    task: int
    paradigm: str
    trials: list[TrialOutcome]
    offset_decisions: list[Decision] = field(default_factory=list)

    def per_target_snr_db(self) -> dict[float, float]:
        by: dict[float, list[float]] = {}
        for tr in self.trials:
            by.setdefault(tr.true_hz, []).append(tr.snr_db_target)
        return {f: float(np.mean(v)) for f, v in sorted(by.items())}

    def accuracy(self) -> tuple[float, dict[float, float]]:
        detection = bool(
            self.trials and self.trials[0].decision.threshold_pass is not None
        )
        if detection:
            # single-stimulus task: correct = pass on stimulation epochs
            # and no pass on rest epochs
            tp = sum(1 for tr in self.trials if tr.decision.threshold_pass)
            tn = sum(1 for d in self.offset_decisions if not d.threshold_pass)
            total = len(self.trials) + len(self.offset_decisions)
            onset_rate = tp / len(self.trials)
            return (tp + tn) / total, {self.trials[0].true_hz: onset_rate}
        breakdown = evaluate_accuracy(
            [tr.decision for tr in self.trials], [tr.true_hz for tr in self.trials]
        )
        return breakdown.overall, breakdown.per_target


def _analysis_channel(rec: Recording) -> tuple[Recording, str]:
    names = rec.layout.names
    if ANALYSIS_CHANNEL in names:
        return rec, ANALYSIS_CHANNEL
    if "Pz" in names and "Oz" in names:
        rec = derive_virtual_channel(rec, ANALYSIS_CHANNEL, ["Pz", "Oz"])
        return rec, ANALYSIS_CHANNEL
    rec = derive_virtual_channel(rec, "avg_all", list(names))
    return rec, "avg_all"


def _staged(stage: str, trial: int | None, fn, *args, **kwargs):
    with located(f"stage {stage}" + ("" if trial is None else f", trial {trial}")):
        return fn(*args, **kwargs)


def _preprocess(epoch: TrialEpoch, cfg: PipelineConfig, trial: int) -> TrialEpoch:
    """Narrow-band chain feeding the PSD/SNR analysis (and onset detection):
    the band-passed, line-cleaned epoch after the onset skip."""
    epoch = _staged("bandpass", trial, bandpass, epoch, cfg.band)
    epoch = _staged("line-removal", trial, remove_line_noise, epoch, cfg.line_freq_hz)
    return _post_skip(epoch)


def _post_skip(epoch: TrialEpoch) -> TrialEpoch:
    k0 = round(SKIP_INITIAL_S * epoch.sample_rate_hz)
    return epoch.replace_samples(epoch.samples[:, k0:])


def _check_subject(subject: str, what: str) -> str:
    """subject once it is non-empty and a markdown report row can hold it."""
    if not subject:
        raise InputError(f"{what} is empty; a report row needs a subject")
    return check_label(subject, what, "|", "a markdown report row")


def analyze_recording(cfg: PipelineConfig) -> SubjectTaskResult:
    """Run the full analysis chain for one recording/marker pair."""
    if not cfg.recording_path or not cfg.markers_path:
        raise InputError("config must carry recording_path and markers_path")
    subject = cfg.subject or os.path.basename(str(cfg.recording_path)).split("_")[0]
    _check_subject(subject, f"{cfg.recording_path}: subject")
    rec = _staged("load", None, load_recording, cfg.recording_path)
    markers = _staged("load", None, load_markers, cfg.markers_path)
    positions = []  # of the onset, then the offset markers
    for prefix in (MARKER_ONSET, MARKER_OFFSET):
        for t, paradigm, freq in markers.with_prefix(prefix):
            if paradigm != cfg.paradigm or freq not in cfg.targets_hz:
                raise InputError(
                    f"{cfg.markers_path}: marker at {t} s names {paradigm} at {freq!r} Hz,"
                    f" but task {cfg.task} is {cfg.paradigm} at {list(cfg.targets_hz)} Hz"
                )
        positions.append([rec.sample_index(t) for t, _, _ in markers.with_prefix(prefix)])
    fs = rec.sample_rate_hz
    with located(cfg.markers_path):
        # every decoded segment is one epoch window minus the onset skip
        n_segment = check_windows(
            cfg.paradigm, cfg.targets_hz, cfg.trial_s, fs, rec.n_samples, *positions
        )
    rec, channel = _analysis_channel(rec)
    # Artifact suppression runs on the continuous recording: its calibration
    # needs >= 10 s of data, which no single trial epoch can provide.
    rec = _staged("artifact-suppression", None, suppress_artifacts, rec)
    epochs = _staged("epoching", None, extract_epochs, rec, markers, cfg.trial_s)
    ch_idx = rec.layout.index(channel)

    detection = onset_mode(cfg.paradigm, cfg.targets_hz)
    refs = make_references(cfg.targets_hz, reference_harmonics(cfg.paradigm, cfg.targets_hz),
                           fs, n_segment)
    bank = cfg.filter_bank(fs)
    trials = []
    for i, epoch in enumerate(epochs):
        narrow = _preprocess(epoch, cfg, i)
        psd = _staged("psd", i, psd_boxcar, narrow)
        snr = _staged("snr", i, snr_spectrum, psd)
        readout = _staged("snr", i, snr_at, snr, epoch.target_freq_hz)
        if detection:
            # the single-target on/off call runs on the band-passed segment
            decision = _staged("decode", i, detect_onset, narrow, refs, ONSET_THRESHOLD)
        else:
            # FB-CCA applies its own sub-band filters; feed it the
            # line-cleaned but otherwise full-band epoch so reference
            # harmonics stay available
            cleaned = _staged("line-removal", i, remove_line_noise, epoch, cfg.line_freq_hz)
            decision = _staged("decode", i, fbcca_decide, _post_skip(cleaned), refs, bank)
        trials.append(TrialOutcome(
            trial=i, true_hz=epoch.target_freq_hz, decision=decision,
            snr_db_target=float(readout.snr_db[ch_idx]),
        ))

    offset_decisions = []
    if detection:
        # the rest windows, which the rule above keeps clear of the next onset
        rest_epochs = _staged("epoching", None, extract_epochs, rec, markers, cfg.trial_s,
                              marker_prefix=MARKER_OFFSET)
        offset_decisions = [
            _staged("decode", i, detect_onset, _preprocess(epoch, cfg, i), refs, ONSET_THRESHOLD)
            for i, epoch in enumerate(rest_epochs)
        ]

    return SubjectTaskResult(subject=subject, task=cfg.task, paradigm=cfg.paradigm,
                             trials=trials, offset_decisions=offset_decisions)


def _round4(x: float) -> float:
    return round(float(x), 4)


def _row_from_result(result: SubjectTaskResult, fatigue: float | None) -> dict:
    overall, per_target = result.accuracy()
    per_target_snr = result.per_target_snr_db()
    for f, snr_db in per_target_snr.items():
        if not math.isfinite(snr_db):
            raise DegenerateDataError(f"SNR at target {f!r} Hz is {snr_db}")
    return {
        "subject": result.subject,
        "snr_db": _round4(np.mean(list(per_target_snr.values()))),
        "accuracy_pct": _round4(100.0 * overall),
        "fatigue": None if fatigue is None else _round4(fatigue),
        "per_target_snr_db": {
            repr(f): _round4(v) for f, v in per_target_snr.items()
        },
        "per_target_accuracy_pct": {
            repr(f): _round4(100.0 * v) for f, v in sorted(per_target.items())
        },
    }


def _aggregate(rows: list[dict]) -> dict:
    agg = {}
    for key in ("snr_db", "accuracy_pct", "fatigue"):
        vals = [r[key] for r in rows if r[key] is not None]
        if not vals:
            agg[key] = None
            continue
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        agg[key] = {"mean": _round4(mean), "se": _round4(se)}
    return agg


@dataclass
class Report:
    """Per-task subject rows plus aggregate mean +- SE, Table-style."""

    tasks: list[dict]

    def to_json(self) -> str:
        return json_text({"tasks": self.tasks})

    def subjects(self) -> list[str]:
        """Row subjects, once every task holds the same ones in the same order."""
        subjects = [r["subject"] for r in self.tasks[0]["rows"]] if self.tasks else []
        for t in self.tasks:
            have = [r["subject"] for r in t["rows"]]
            if not have:
                raise InputError(f"task {t['task']} has no subject rows")
            if have != subjects:
                raise InputError(f"task {t['task']} has subjects {have}, expected {subjects}")
        return subjects

    def to_markdown(self) -> str:
        if not self.tasks:
            raise InputError("cannot render an empty report")
        subjects = self.subjects()
        head = ["Subject"]
        for t in self.tasks:
            head += [
                f"Task {t['task']} SNR (dB)",
                f"Task {t['task']} Accuracy (%)",
                f"Task {t['task']} Fatigue",
            ]
        lines = [
            "| " + " | ".join(head) + " |",
            "|" + "---|" * len(head),
        ]

        def cell(v):
            return "-" if v is None else repr(v)

        for i, subject in enumerate(subjects):
            row = [subject]
            for t in self.tasks:
                r = t["rows"][i]
                row += [cell(r["snr_db"]), cell(r["accuracy_pct"]), cell(r["fatigue"])]
            lines.append("| " + " | ".join(row) + " |")
        avg = ["Average"]
        for t in self.tasks:
            for key in ("snr_db", "accuracy_pct", "fatigue"):
                a = t["aggregate"][key]
                avg.append("-" if a is None else f"{a['mean']!r} ± {a['se']!r}")
        lines.append("| " + " | ".join(avg) + " |")
        return "\n".join(lines) + "\n"


def _task_entry(cfg: PipelineConfig, rows: list[dict]) -> dict:
    """One task of a report: its stimulus set, subject rows and aggregate."""
    return {
        "task": cfg.task,
        "paradigm": cfg.paradigm,
        "targets": list(cfg.targets_hz),
        "trial_s": cfg.trial_s,
        "rows": rows,
        "aggregate": _aggregate(rows),
    }


def result_report(cfg: PipelineConfig, result: SubjectTaskResult) -> Report:
    """Wrap one analyzed recording as a single-subject report."""
    with located(f"subject {result.subject}, task {result.task}"):
        row = _row_from_result(result, None)
    return Report(tasks=[_task_entry(cfg, [row])])


def check_task_rows(rows) -> None:
    """One definition per task number, one row per (task, subject); rows
    yields (source, (task, paradigm, targets, trial_s), subject). Errors name
    both sources at fault."""
    defined: dict[int, tuple[str, str]] = {}
    held: dict[tuple[int, str], str] = {}
    for source, (task, paradigm, targets, trial_s), subject in rows:
        stimuli = f"{paradigm} at {list(targets)} Hz in {trial_s} s trials"
        first, by = defined.setdefault(task, (stimuli, f"subject {subject} in {source}"))
        if stimuli != first:
            raise InputError(
                f"task {task} is {first} for {by}, but {stimuli} for subject {subject} in {source}"
            )
        if (task, subject) in held:
            raise InputError(f"task {task}, subject {subject} appears in "
                             f"{held[task, subject]} and again in {source}")
        held[task, subject] = source


def _manifest_entries(manifest_path: str) -> list[tuple[PipelineConfig, float | None]]:
    """Config and fatigue score of every subject/task pair in a manifest.

    Every entry is read and checked, its files included, before any is
    analyzed, so a malformed one fails fast; errors name the manifest, the
    subject, the task and the key.
    """
    base = os.path.dirname(manifest_path)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: top level must be a JSON object")
    # the mains frequency synth wrote into the data; 50 Hz when not recorded
    config = json_value(manifest, "config", dict, manifest_path, required=False) or {}
    config = {"line_freq_hz": PipelineConfig.line_freq_hz, **config}
    line_freq_hz = float(check_finite(
        f"{manifest_path}: config: line_freq_hz",
        json_value(config, "line_freq_hz", float, f"{manifest_path}: config"),
    ))
    entries: list[tuple[PipelineConfig, float | None]] = []
    for k, subj in enumerate(json_value(manifest, "subjects", list, manifest_path, item=dict)):
        at_id = f"{manifest_path}: subject entry {k}"
        sid = _check_subject(json_value(subj, "id", str, at_id), f"{at_id}: id")
        where = f"{manifest_path}: subject {sid}"
        baseline_items = json_value(
            subj, "vasf_baseline_items", list, where, item=float, required=False
        )
        baseline = None
        if baseline_items is not None:
            with located(f"{where}, vasf_baseline_items"):
                baseline = vstats.score_vasf(baseline_items)
        for task_entry in json_value(subj, "tasks", list, where, item=dict):
            definition = json_task(task_entry, where)
            at = f"{where}, task {definition[0]}"
            paths = {}
            for key in ("recording", "markers"):
                paths[key] = os.path.join(base, json_value(task_entry, key, str, at))
                if not os.path.isfile(paths[key]):
                    raise InputError(f"{at}: {key} {paths[key]!r} is not a file")
            cfg = _paradigm_config(
                *definition,
                recording_path=paths["recording"],
                markers_path=paths["markers"],
                subject=sid,
                line_freq_hz=line_freq_hz,
            )
            fatigue = None
            items = json_value(
                task_entry, "vasf_items", list, at, item=float, required=False
            )
            if items is not None and baseline is not None:
                with located(f"{at}, vasf_items"):
                    fatigue = vstats.score_vasf(items, baseline).fatigue
            entries.append((cfg, fatigue))
    check_task_rows(
        (manifest_path, (c.task, c.paradigm, c.targets_hz, c.trial_s), c.subject)
        for c, _ in entries
    )
    return entries


def analyze_dataset(manifest_path) -> Report:
    """Analyze every subject/task pair listed in a synthetic-dataset manifest."""
    by_task: dict[int, tuple[PipelineConfig, list[dict]]] = {}
    for cfg, fatigue in _manifest_entries(str(manifest_path)):
        with located(
            f"{manifest_path}: subject {cfg.subject}, task {cfg.task}, "
            f"recording {os.path.basename(cfg.recording_path)}"
        ):
            row = _row_from_result(analyze_recording(cfg), fatigue)
        by_task.setdefault(cfg.task, (cfg, []))[1].append(row)
    return Report(tasks=[_task_entry(*by_task[t]) for t in sorted(by_task)])


def emit_report(report: Report, fmt: str, path) -> None:
    """Write the report as JSON or a markdown table."""
    if not report.tasks or not report.tasks[0]["rows"]:
        raise InputError("cannot emit an empty report")
    if fmt == "json":
        text = report.to_json()
    elif fmt == "markdown":
        text = report.to_markdown()
    else:
        raise InputError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def condition_matrix(report: Report, metric: str = "snr") -> tuple[list[str], np.ndarray]:
    """Subjects x conditions matrix for the statistical battery.

    For snr/accuracy a condition is one (task, target) pair; for fatigue it
    is the task itself.
    """
    if metric not in ("snr", "accuracy", "fatigue"):
        raise InputError(f"unknown metric {metric!r}")
    names: list[str] = []
    columns: list[list[float]] = []
    report.subjects()  # repeated measures: every task holds the same subjects, in order
    for t in report.tasks:
        if metric == "fatigue":
            vals = [r["fatigue"] for r in t["rows"]]
            if any(v is None for v in vals):
                raise InputError(f"task {t['task']} has missing fatigue scores")
            names.append(f"task{t['task']}")
            columns.append([float(v) for v in vals])
            continue
        key = "per_target_snr_db" if metric == "snr" else "per_target_accuracy_pct"
        targets = t["rows"][0][key]
        for r in t["rows"]:
            if r[key].keys() != targets.keys():
                raise InputError(
                    f"task {t['task']}, subject {r['subject']}: {key} has targets "
                    f"{sorted(r[key])}, expected {sorted(targets)}"
                )
        try:
            ordered = sorted(targets, key=float)
        except ValueError:
            raise InputError(
                f"task {t['task']}: {key} has a target that is not a number: "
                f"{sorted(targets)}"
            ) from None
        for target in ordered:
            names.append(f"task{t['task']}:{target}Hz")
            columns.append([float(r[key][target]) for r in t["rows"]])
    return names, np.array(columns).T


def stats_report(report: Report, test: str, metric: str = "snr") -> dict:
    """Run rm-anova or Holm-corrected post-hoc paired t-tests on a report."""
    names, matrix = condition_matrix(report, metric)
    if matrix.shape[0] < 2:
        raise InputError("need at least 2 subjects for statistics")
    out = {"test": test, "metric": metric, "conditions": names}
    if test == "rm-anova":
        with located(f"metric {metric}"):
            res = vstats.rm_anova(matrix)
        out.update(
            F=res.F, df=[res.df1, res.df2], p=res.p, eta_sq=res.eta_sq_partial,
            posthoc=[],
        )
    elif test == "posthoc":
        pairs = list(itertools.combinations(range(len(names)), 2))
        with located(f"metric {metric}"):
            results = [vstats.paired_t(matrix[:, i], matrix[:, j]) for i, j in pairs]
        adjusted = vstats.holm_posthoc([r.p for r in results])
        out["posthoc"] = [
            {"pair": [names[i], names[j]], "t": r.t, "df": r.df, "p_holm": p_adj, "d": r.cohen_d}
            for (i, j), r, p_adj in zip(pairs, results, adjusted)
        ]
    else:
        raise InputError(f"unknown test {test!r}; expected rm-anova or posthoc")
    return out
