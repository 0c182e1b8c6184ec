"""Command-line front end: stimulus schedules, synthetic datasets, analysis,
and the statistical battery.

Exit codes: 0 success, 2 input error, 3 numeric degeneracy.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, fields, replace

from .decode import Decision
from .errors import DegenerateDataError, InputError, check_finite, located
from .model import json_task, json_text, json_value, read_json
from .pipeline import (
    PipelineConfig,
    Report,
    analyze_dataset,
    analyze_recording,
    check_task_rows,
    config_for_task,
    emit_report,
    result_report,
    stats_report,
)
from .stimgen import (
    GABOR_PULSE,
    PATTERN_REVERSAL,
    RADIAL_MOTION,
    StimulusSpec,
    build_frame_schedule,
    write_frame_stack,
)
from .synth import SynthConfig, SynthProtocol, TaskProtocol, default_protocol, synth_dataset

_PARADIGM_ALIAS = {
    "reversal": PATTERN_REVERSAL,
    "radial": RADIAL_MOTION,
    "gabor": GABOR_PULSE,
}


def _cmd_stimgen(args) -> int:
    spec = StimulusSpec(
        paradigm=_PARADIGM_ALIAS[args.paradigm],
        stim_freq_hz=args.freq,
        refresh_rate_hz=args.refresh,
        duration_s=args.duration,
    )
    schedule = build_frame_schedule(spec)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(schedule.to_json() + "\n")
    print(f"wrote {schedule.n_frames} frames to {args.out}")
    if args.render_dir:
        n = write_frame_stack(spec, schedule, args.render_dir)
        print(f"rendered {n} PGM frames to {args.render_dir}")
    return 0


# element types of the array and object fields a synth config may set
_JSON_ITEMS = {"channel_gains": float, "targets_hz": float, "tasks": dict}


def _json_fields(where: str, cls, raw, **required) -> dict:
    """Keyword arguments for the dataclass cls read from the JSON object raw.

    Each field must have the JSON type of its default; fields without one
    must be present, with the type given in required. Unknown keys are
    rejected and number fields become floats.
    """
    if not isinstance(raw, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise InputError(f"{where}: unknown keys {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        if f.name in required:
            kind = required[f.name]
        else:
            kind = type(f.default if f.default is not MISSING else f.default_factory())
        value = json_value(
            raw, f.name, kind, where, item=_JSON_ITEMS.get(f.name),
            required=f.name in required,
        )
        if value is not None:
            values[f.name] = float(value) if kind is float else value
    return values


def _load_synth_config(path) -> tuple[SynthConfig, SynthProtocol | None]:
    raw = read_json(path)
    proto_raw = raw.pop("protocol", None) if isinstance(raw, dict) else None
    values = _json_fields(path, SynthConfig, raw)
    with located(path):
        cfg = SynthConfig(**values)
    if proto_raw is None:
        return cfg, None
    proto = _json_fields(f"{path}: protocol", SynthProtocol, proto_raw, tasks=list)
    tasks = []
    for k, task_raw in enumerate(proto["tasks"]):
        task = _json_fields(
            f"{path}: protocol task {k}", TaskProtocol, task_raw,
            paradigm=str, targets_hz=list, trials_per_target=int,
        )
        task["targets_hz"] = tuple(float(f) for f in task["targets_hz"])
        with located(f"{path}: protocol task {k}"):
            tasks.append(TaskProtocol(**task))
    with located(f"{path}: protocol"):
        return cfg, SynthProtocol(**dict(proto, tasks=tuple(tasks)))


def _cmd_synth(args) -> int:
    if args.config:
        cfg, protocol = _load_synth_config(args.config)
    else:
        cfg, protocol = SynthConfig(), None
    if protocol is None:
        protocol = default_protocol()
    if args.subjects is not None:
        protocol = replace(protocol, n_subjects=args.subjects)
    manifest = synth_dataset(cfg, protocol, args.out)
    n_files = sum(len(s["tasks"]) for s in manifest["subjects"])
    print(f"wrote {n_files} recording/marker pairs + manifest to {args.out}")
    return 0


def _write_decisions_csv(trials, offsets, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        n_targets = len(trials[0].decision.rho) if trials else 1
        rho_cols = ",".join(f"rho_{k + 1}" for k in range(n_targets))
        fh.write(f"trial,predicted_hz,true_hz,{rho_cols},pass\n")

        def write_row(i: int, dec: Decision, true_hz: float):
            rhos = ",".join(repr(r) for r in dec.rho)
            flag = "" if dec.threshold_pass is None else str(int(dec.threshold_pass))
            fh.write(f"{i},{dec.predicted_hz!r},{true_hz!r},{rhos},{flag}\n")

        for tr in trials:
            write_row(tr.trial, tr.decision, tr.true_hz)
        for j, dec in enumerate(offsets):
            write_row(len(trials) + j, dec, 0.0)


def _cmd_analyze(args) -> int:
    fmt = args.format
    if args.dataset:
        # the manifest names each recording, its markers, task and mains
        # frequency, and a dataset run writes no per-trial decisions
        for flag, value in (
            ("--recording", args.recording), ("--markers", args.markers),
            ("--task", args.task), ("--line-freq", args.line_freq),
            ("--decisions", args.decisions),
        ):
            if value is not None:
                raise InputError(f"{flag} applies to --recording only, not to --dataset")
        report = analyze_dataset(args.dataset)
    else:
        if not (args.recording and args.markers and args.task):
            raise InputError(
                "analyze needs either --dataset or --recording/--markers/--task"
            )
        line_freq = PipelineConfig.line_freq_hz if args.line_freq is None else args.line_freq
        cfg = config_for_task(
            args.task, recording_path=args.recording, markers_path=args.markers,
            line_freq_hz=check_finite("--line-freq", line_freq),
        )
        result = analyze_recording(cfg)
        if args.decisions:
            _write_decisions_csv(result.trials, result.offset_decisions, args.decisions)
        report = result_report(cfg, result)
    emit_report(report, fmt, args.out)
    print(f"wrote {fmt} report to {args.out}")
    return 0


def _report_tasks(path, data: dict) -> list[tuple[tuple, dict]]:
    """The definition and entry of each task of a report JSON once every row
    value has its JSON type; errors name the file, the task, the subject and
    the key."""
    tasks = [(json_task(t, path), t) for t in json_value(data, "tasks", list, path, item=dict)]
    for definition, t in tasks:
        where = f"{path}: task {definition[0]}"
        for k, row in enumerate(json_value(t, "rows", list, where, item=dict)):
            subject = json_value(row, "subject", str, f"{where}, row {k}")
            at = f"{where}, subject {subject}"
            json_value(row, "snr_db", float, at)
            json_value(row, "accuracy_pct", float, at)
            # fatigue is null for a subject without questionnaire scores
            if "fatigue" not in row or row["fatigue"] is not None:
                json_value(row, "fatigue", float, at)
            for key in ("per_target_snr_db", "per_target_accuracy_pct"):
                json_value(row, key, dict, at, item=float)
    return tasks


def _cmd_stats(args) -> int:
    reports = []
    for name in sorted(os.listdir(args.reports)):
        if name.endswith(".json"):
            path = os.path.join(args.reports, name)
            data = read_json(path)
            if isinstance(data, dict) and "tasks" in data:
                reports.append((path, _report_tasks(path, data)))
    if not reports:
        raise InputError(f"no report JSON files found in {args.reports}")
    # a second copy of a subject would count as one more subject, and a task
    # defined two ways would pool two conditions
    check_task_rows(
        (path, definition, row["subject"])
        for path, tasks in reports for definition, t in tasks for row in t["rows"]
    )
    merged: dict[int, dict] = {}
    for path, tasks in reports:
        for _, t in tasks:
            merged.setdefault(t["task"], dict(t, rows=[]))["rows"].extend(t["rows"])
    combined = Report(tasks=[merged[k] for k in sorted(merged)])
    out = stats_report(combined, test=args.test, metric=args.metric)
    text = json_text(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veplab",
        description="VEP stimulus schedules, synthetic EEG, and offline analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stimgen", help="build a frame-accurate stimulus schedule")
    p.add_argument("--paradigm", required=True, choices=sorted(_PARADIGM_ALIAS))
    p.add_argument("--freq", required=True, type=float, help="stimulus frequency, Hz")
    p.add_argument("--refresh", type=float, default=144.0, help="display refresh, Hz")
    p.add_argument("--duration", type=float, default=5.0, help="seconds")
    p.add_argument("--out", required=True, help="schedule JSON path")
    p.add_argument("--render-dir", help="also render every frame as PGM here")
    p.set_defaults(fn=_cmd_stimgen)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth dataset")
    p.add_argument("--config", help="JSON with generator fields (optional)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--subjects", type=int, help="override subject count")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("analyze", help="run the offline analysis pipeline")
    p.add_argument("--recording", help="recording CSV")
    p.add_argument("--markers", help="marker CSV")
    n_tasks = len(default_protocol().tasks)
    p.add_argument("--task", type=int, choices=range(1, n_tasks + 1), help="task id")
    p.add_argument("--dataset", help="dataset manifest JSON (batch mode)")
    p.add_argument("--out", required=True, help="report path")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--decisions", help="also write per-trial decisions CSV here")
    p.add_argument(
        "--line-freq", type=float,
        help="mains frequency removed from a --recording, Hz (default 50)",
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("stats", help="statistical battery over report files")
    p.add_argument("--reports", required=True, help="directory of report JSONs")
    p.add_argument("--test", required=True, choices=("rm-anova", "posthoc"))
    p.add_argument("--metric", choices=("snr", "accuracy", "fatigue"), default="snr")
    p.add_argument("--out", help="write stats JSON here (default: stdout)")
    p.set_defaults(fn=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
