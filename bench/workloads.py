"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

A pass is one closed-loop iteration: a single caller runs each veplab command
in-process through `veplab.cli.main` and waits for it before the next. Only
the veplab calls are timed; clearing old outputs and checking new ones are not.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback

REFRESH_HZ = 144.0
STIM_DURATION_S = 0.5
# Frequencies with a whole number of frames per cycle at 144 Hz, so every
# schedule is exactly periodic and no NonIntegerCycleWarning is raised.
CHECKER_FREQS_HZ = (6.0, 8.0, 9.0, 12.0, 16.0, 18.0)
GABOR_FREQS_HZ = (36.0, 48.0, 72.0)
SPELLER_TARGETS_HZ = tuple(round(8.0 + 0.2 * k, 1) for k in range(40))


def synth_seed(seed: int) -> int:
    return seed % 2**32


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_tree(root) -> str:
    """Digest of every file name and its bytes under root, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(sha256_file(path).encode())
    return h.hexdigest()


def cli(veplab, argv) -> bool:
    """Run one veplab command in-process; True when it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = veplab.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    if code != 0:
        print(f"veplab {' '.join(argv)} ended with {code}", file=sys.stderr)
    return code == 0


class PassResult:
    def __init__(self):
        self.phases: dict[str, float] = {}
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())

    def fail(self, n_ops: int, problem: str) -> None:
        self.failed += n_ops
        self.problems.append(problem)


class Timer:
    """Adds the wall and CPU time of the with-block to a PassResult phase."""

    def __init__(self, result: PassResult, phase: str):
        self.result, self.phase = result, phase

    def __enter__(self):
        self.t0, self.c0 = time.perf_counter(), cpu_seconds()

    def __exit__(self, *exc):
        self.result.phases[self.phase] = (
            self.result.phases.get(self.phase, 0.0) + time.perf_counter() - self.t0
        )
        self.result.cpu_s += cpu_seconds() - self.c0


def fresh_dir(path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    """A named workload; by default it has no decoded targets to check."""

    def __init__(self, name: str, why: str):
        self.name, self.why = name, why

    def warmup_inputs(self, veplab, seed: int, in_dir: str) -> dict | None:
        """Inputs of the untimed warm-up pass; None warms up on the real inputs."""
        return None

    def decision_observers(self, decisions: list) -> dict:
        return {}

    def check_decisions(self, manifest_path: str, decisions: list) -> list[str]:
        return []


class DatasetWorkload(Workload):
    """Synthesize a dataset with `veplab synth`, then analyze it.

    Analysis is `veplab analyze --dataset` (JSON), the markdown rendering of
    the same report through `pipeline.emit_report`, and, with two or more
    subjects, the statistical battery through `veplab stats`.
    """

    main_phase = "analyze_s"
    stats_runs = (("rm-anova", "snr"), ("posthoc", "snr"), ("rm-anova", "fatigue"), ("posthoc", "fatigue"))

    # -- inputs -----------------------------------------------------------

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def protocol(self, veplab, seed: int):
        """The SynthProtocol that `veplab synth` will run for this config."""
        raise NotImplementedError

    def synth_argv(self, config_path: str, out_dir: str) -> list[str]:
        return ["synth", "--config", config_path, "--out", out_dir]

    def write_inputs(self, veplab, seed: int, in_dir: str) -> dict:
        path = os.path.join(in_dir, f"{self.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.config(seed), fh, indent=2)
        return {"config": path, "protocol": self.protocol(veplab, seed)}

    def warmup_inputs(self, veplab, seed: int, in_dir: str) -> dict:
        """The same subjects and paradigms with two trials per task.

        It takes every code path of a pass (lazy imports, first-call set-up)
        at a fraction of a full pass's cost.
        """
        full = self.protocol(veplab, seed)
        tasks = [
            {"paradigm": t.paradigm, "targets_hz": list(t.targets_hz[:2]),
             "trials_per_target": 1 if len(t.targets_hz) > 1 else 2,
             "trial_s": t.trial_s, "rest_s": t.rest_s}
            for t in full.tasks
        ]
        os.makedirs(in_dir, exist_ok=True)
        path = os.path.join(in_dir, f"{self.name}-warmup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seed": synth_seed(seed), "protocol": {"n_subjects": full.n_subjects, "tasks": tasks}}, fh)
        protocol = veplab.synth.SynthProtocol(
            tasks=tuple(
                veplab.synth.TaskProtocol(t["paradigm"], tuple(t["targets_hz"]), t["trials_per_target"],
                                          t["trial_s"], t["rest_s"])
                for t in tasks
            ),
            n_subjects=full.n_subjects,
        )
        return {"config": path, "protocol": protocol}

    # -- one pass ---------------------------------------------------------

    def run_pass(self, veplab, inputs: dict, out_dir: str) -> PassResult:
        res = PassResult()
        protocol = inputs["protocol"]
        n_rec = protocol.n_subjects * len(protocol.tasks)
        with_stats = protocol.n_subjects >= 2
        dataset = os.path.join(out_dir, "dataset")
        reports = fresh_dir(os.path.join(out_dir, "reports"))
        stats_dir = fresh_dir(os.path.join(out_dir, "stats"))
        shutil.rmtree(dataset, ignore_errors=True)
        report_json = os.path.join(reports, "report.json")
        report_md = os.path.join(reports, "report.md")

        res.attempted = 2 * n_rec + (len(self.stats_runs) if with_stats else 0)
        with Timer(res, "synth_s"):
            synth_ok = cli(veplab, self.synth_argv(inputs["config"], dataset))
        if not synth_ok:
            res.fail(res.attempted, "veplab synth failed")
            return res
        manifest_path = os.path.join(dataset, "manifest.json")
        with Timer(res, "analyze_s"):
            analyze_ok = cli(veplab, ["analyze", "--dataset", manifest_path, "--out", report_json])
            if analyze_ok:
                try:
                    with open(report_json, encoding="utf-8") as fh:
                        report = veplab.pipeline.Report(tasks=json.load(fh)["tasks"])
                    veplab.pipeline.emit_report(report, "markdown", report_md)
                except Exception:
                    traceback.print_exc()
                    analyze_ok = False
            stats_ok = {}
            if analyze_ok and with_stats:
                for test, metric in self.stats_runs:
                    out = os.path.join(stats_dir, f"{test}_{metric}.json")
                    stats_ok[(test, metric)] = cli(
                        veplab,
                        ["stats", "--reports", reports, "--test", test, "--metric", metric, "--out", out],
                    )

        manifest = self._check_dataset(res, protocol, dataset, n_rec)
        if not analyze_ok:
            res.fail(res.attempted - n_rec, "veplab analyze failed")
            return res
        self._check_report(res, manifest, report_json, report_md, n_rec)
        for (test, metric), ok in stats_ok.items():
            out = os.path.join(stats_dir, f"{test}_{metric}.json")
            problem = None if ok else f"veplab stats {test} {metric} failed"
            if ok:
                problem = check_stats(out, test)
                res.digests[f"stats/{test}_{metric}.json"] = sha256_file(out)
            if problem:
                res.fail(1, problem)
        res.digests["dataset"] = sha256_tree(dataset)
        return res

    # -- checks -----------------------------------------------------------

    def _check_dataset(self, res: PassResult, protocol, dataset: str, n_rec: int):
        """The manifest and marker files against the protocol's ground truth."""
        try:
            with open(os.path.join(dataset, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            res.fail(n_rec, f"manifest unreadable: {exc}")
            return None
        subjects = manifest.get("subjects", [])
        if len(subjects) != protocol.n_subjects:
            res.fail(n_rec, f"manifest has {len(subjects)} subjects, expected {protocol.n_subjects}")
            return None
        for subj in subjects:
            for task, entry in zip(protocol.tasks, subj["tasks"]):
                problem = check_recording(dataset, task, entry, protocol.baseline_s)
                if problem:
                    res.fail(1, f"{subj['id']} task {entry['task']}: {problem}")
        return manifest

    def _check_report(self, res, manifest, report_json, report_md, n_rec) -> None:
        """Every trial decoded to its ground-truth target: 100 % per target."""
        if manifest is None:
            return
        try:
            with open(report_json, encoding="utf-8") as fh:
                report = json.load(fh)
            with open(report_md, encoding="utf-8") as fh:
                md_lines = fh.read().splitlines()
        except (OSError, ValueError) as exc:
            res.fail(n_rec, f"report unreadable: {exc}")
            return
        res.digests["report.json"] = sha256_file(report_json)
        res.digests["report.md"] = sha256_file(report_md)
        subjects = manifest["subjects"]
        ids = [s["id"] for s in subjects]
        if len(md_lines) != len(ids) + 3:
            res.fail(n_rec, f"markdown report has {len(md_lines)} lines, expected {len(ids) + 3}")
        tasks = {t["task"]: t for t in report.get("tasks", [])}
        for entry in subjects[0]["tasks"]:
            t = tasks.get(entry["task"])
            if t is None or [r["subject"] for r in t["rows"]] != ids:
                res.fail(len(ids), f"report task {entry['task']} missing or has wrong subjects")
                continue
            targets = sorted(repr(float(f)) for f in entry["targets"])
            for row in t["rows"]:
                where = f"report {row['subject']} task {entry['task']}"
                if sorted(row["per_target_snr_db"]) != targets:
                    res.fail(1, f"{where}: targets {sorted(row['per_target_snr_db'])} != {targets}")
                elif row["accuracy_pct"] != 100.0 or set(row["per_target_accuracy_pct"].values()) != {100.0}:
                    res.fail(1, f"{where}: decoded targets disagree with ground truth")
                elif not (math.isfinite(row["snr_db"]) and row["fatigue"] is not None):
                    res.fail(1, f"{where}: non-finite SNR or missing fatigue")

    # -- trace expectations -----------------------------------------------

    def expected_calls(self, veplab, inputs: dict) -> dict[str, int]:
        """Calls each traced function must see in one pass, from the protocol.

        Per FB-CCA trial: one narrow band-pass plus one per filter-bank band,
        line removal on the narrow and the full-band epoch, and one CCA per
        band and target. Onset tasks decode every stimulation and rest epoch
        once, each after one band-pass and one line removal.
        """
        protocol = inputs["protocol"]
        pl = veplab.pipeline
        counts = dict.fromkeys(
            ("dsp.bandpass", "decode.cca_corr", "decode.fbcca_decide", "decode.detect_onset",
             "dsp.remove_line_noise", "model.load_recording", "pipeline.analyze_recording"),
            0,
        )
        for task in protocol.tasks:
            n = task.n_trials * protocol.n_subjects
            counts["model.load_recording"] += protocol.n_subjects
            counts["pipeline.analyze_recording"] += protocol.n_subjects
            if task.paradigm == "gabor_pulse" and len(task.targets_hz) == 1:
                for fn in ("dsp.bandpass", "dsp.remove_line_noise", "decode.detect_onset", "decode.cca_corr"):
                    counts[fn] += 2 * n
                continue
            cfg = pl.PipelineConfig(
                task=1, paradigm=task.paradigm, targets_hz=task.targets_hz,
                band=veplab.dsp.BandpassSpec(*pl.PARADIGM_BANDS[task.paradigm]),
            )
            n_bands = len(cfg.filter_bank(protocol.fs_hz).bands)
            counts["dsp.bandpass"] += n * (1 + n_bands)
            counts["dsp.remove_line_noise"] += 2 * n
            counts["decode.fbcca_decide"] += n
            counts["decode.cca_corr"] += n * n_bands * len(task.targets_hz)
        return counts

    def decision_observers(self, decisions: list) -> dict:
        """Record each analyze_recording result for the ground-truth check."""

        def observe(_stats, _args, _kwargs, result):
            decisions.append(result)

        return {"pipeline.analyze_recording": observe}

    def check_decisions(self, manifest_path: str, decisions: list) -> list[str]:
        """Each traced decision against the manifest's target sequence."""
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        by_key = {(r.subject, r.task): r for r in decisions}
        problems = []
        for subj in manifest["subjects"]:
            for entry in subj["tasks"]:
                r = by_key.get((subj["id"], entry["task"]))
                truth = [t["target_hz"] for t in entry["trials"]]
                where = f"{subj['id']} task {entry['task']}"
                if r is None:
                    problems.append(f"{where}: no traced analysis")
                elif [tr.true_hz for tr in r.trials] != truth:
                    problems.append(f"{where}: epochs out of order with the manifest")
                elif r.trials and r.trials[0].decision.threshold_pass is not None:
                    if not all(tr.decision.threshold_pass for tr in r.trials) or any(
                        d.threshold_pass for d in r.offset_decisions
                    ):
                        problems.append(f"{where}: onset calls disagree with ground truth")
                elif [tr.decision.predicted_hz for tr in r.trials] != truth:
                    problems.append(f"{where}: decoded targets disagree with ground truth")
        return problems


class CohortWorkload(DatasetWorkload):
    """The paper's protocol: 2 subjects x the default 3 tasks."""

    n_subjects = 2

    def config(self, seed):
        return {"seed": synth_seed(seed)}

    def protocol(self, veplab, seed):
        return veplab.synth.default_protocol(self.n_subjects)

    def synth_argv(self, config_path, out_dir):
        return super().synth_argv(config_path, out_dir) + ["--subjects", str(self.n_subjects)]


class SpellerWorkload(DatasetWorkload):
    """One subject, one radial-motion recording, 40 targets 8.0-15.8 Hz."""

    task = {
        "paradigm": "radial_motion",
        "targets_hz": list(SPELLER_TARGETS_HZ),
        "trials_per_target": 1,
        "trial_s": 5.0,
        "rest_s": 0.5,
    }

    def config(self, seed):
        return {"seed": synth_seed(seed), "protocol": {"n_subjects": 1, "tasks": [self.task]}}

    def protocol(self, veplab, seed):
        t = self.task
        return veplab.synth.SynthProtocol(
            tasks=(veplab.synth.TaskProtocol(t["paradigm"], tuple(t["targets_hz"]),
                                             t["trials_per_target"], t["trial_s"], t["rest_s"]),),
            n_subjects=1,
        )


def check_recording(dataset: str, task, entry: dict, baseline_s: float) -> str | None:
    """Manifest entry and marker CSV of one recording against its protocol."""
    truth = [t["target_hz"] for t in entry["trials"]]
    if entry["paradigm"] != task.paradigm or sorted(truth) != sorted(
        f for f in task.targets_hz for _ in range(task.trials_per_target)
    ):
        return "manifest trials differ from the protocol"
    if os.path.getsize(os.path.join(dataset, entry["recording"])) == 0:
        return "empty recording CSV"
    with open(os.path.join(dataset, entry["markers"]), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",", 1) for line in fh][1:]
    onsets = [(float(t), label) for t, label in rows if label.startswith("trial_onset:")]
    period = task.trial_s + task.rest_s
    expected = [
        (baseline_s + k * period, f"trial_onset:{task.paradigm}:{f!r}") for k, f in enumerate(truth)
    ]
    if len(onsets) != len(expected) or any(
        abs(t - te) > 1e-9 or lab != le for (t, lab), (te, le) in zip(onsets, expected)
    ):
        return "marker onsets disagree with the manifest"
    return None


def check_stats(path: str, test: str) -> str | None:
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    k = len(out["conditions"])
    if test == "rm-anova":
        if not (math.isfinite(out["F"]) and 0.0 <= out["p"] <= 1.0):
            return f"{path}: F or p out of range"
    elif len(out["posthoc"]) != k * (k - 1) // 2 or not all(
        0.0 <= p["p_holm"] <= 1.0 for p in out["posthoc"]
    ):
        return f"{path}: posthoc pairs or p values wrong"
    return None


class StimulusWorkload(Workload):
    """`veplab stimgen --render-dir` for all three paradigms at 144 Hz."""

    main_phase = "render_s"
    paradigms = (("reversal", "pattern_reversal"), ("radial", "radial_motion"), ("gabor", "gabor_pulse"))

    def freqs(self, seed: int) -> dict[str, float]:
        # seed + 1 moves every paradigm to another frequency
        return {
            "reversal": CHECKER_FREQS_HZ[seed % len(CHECKER_FREQS_HZ)],
            "radial": CHECKER_FREQS_HZ[(seed + 2) % len(CHECKER_FREQS_HZ)],
            "gabor": GABOR_FREQS_HZ[seed % len(GABOR_FREQS_HZ)],
        }

    @property
    def n_frames(self) -> int:
        return round(REFRESH_HZ * STIM_DURATION_S)

    def write_inputs(self, veplab, seed: int, in_dir: str) -> dict:
        path = os.path.join(in_dir, f"{self.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"refresh_hz": REFRESH_HZ, "duration_s": STIM_DURATION_S, "freqs_hz": self.freqs(seed)}, fh)
        return {"config": path}

    def run_pass(self, veplab, inputs: dict, out_dir: str) -> PassResult:
        res = PassResult()
        with open(inputs["config"], encoding="utf-8") as fh:
            cfg = json.load(fh)
        fresh_dir(out_dir)
        res.attempted = len(self.paradigms) * self.n_frames
        ok = {}
        with Timer(res, "render_s"):
            for alias, _ in self.paradigms:
                ok[alias] = cli(veplab, [
                    "stimgen", "--paradigm", alias, "--freq", repr(cfg["freqs_hz"][alias]),
                    "--refresh", repr(cfg["refresh_hz"]), "--duration", repr(cfg["duration_s"]),
                    "--out", os.path.join(out_dir, f"{alias}.json"),
                    "--render-dir", os.path.join(out_dir, alias),
                ])
        for alias, paradigm in self.paradigms:
            problem = "veplab stimgen failed" if not ok[alias] else self._check_stack(
                out_dir, alias, paradigm, cfg["freqs_hz"][alias], res
            )
            if problem:
                res.fail(self.n_frames, f"{alias}: {problem}")
        return res

    def _check_stack(self, out_dir, alias, paradigm, freq, res) -> str | None:
        """Frame count, PGM layout and the paradigm's periodicity.

        Frames one stimulus period apart have states equal up to rounding, so
        at most a few boundary pixels of the checkerboard may differ.
        """
        import numpy as np  # not at module level: the set-up probes time numpy's import

        with open(os.path.join(out_dir, f"{alias}.json"), encoding="utf-8") as fh:
            schedule = json.load(fh)
        frames = schedule["frames"]
        if schedule["paradigm"] != paradigm or len(frames) != self.n_frames or any(
            fr["n"] != n or abs(fr["t_s"] - n / REFRESH_HZ) > 1e-12 for n, fr in enumerate(frames)
        ):
            return "schedule frames or times wrong"
        stack = os.path.join(out_dir, alias)
        names = sorted(os.listdir(stack))
        if names != [f"frame_{n:05d}.pgm" for n in range(self.n_frames)]:
            return f"{len(names)} frame files, expected {self.n_frames}"
        period = round(REFRESH_HZ / freq)
        h = hashlib.sha256()
        window = collections.deque(maxlen=period)  # bounded, so checking adds little to peak RSS
        distinct = set()
        for n, name in enumerate(names):
            with open(os.path.join(stack, name), "rb") as fh:
                data = fh.read()
            h.update(data)
            distinct.add(hashlib.sha256(data).digest())
            head = data.split(b"\n", 3)
            if len(head) != 4 or head[0] != b"P5" or head[2] != b"255":
                return f"{name}: not a binary PGM"
            w, ht = (int(v) for v in head[1].split())
            if len(head[3]) != w * ht:
                return f"{name}: {len(head[3])} pixel bytes, expected {w * ht}"
            pixels = np.frombuffer(head[3], dtype=np.uint8)
            if len(window) == period and np.count_nonzero(window[0] != pixels) > 1e-3 * pixels.size:
                return f"frame {n} differs from frame {n - period}, one period earlier"
            window.append(pixels)
        if paradigm == "pattern_reversal" and len(distinct) != 2:
            return f"{len(distinct)} distinct pattern reversal frames, expected 2"
        res.digests[f"frames/{alias}"] = h.hexdigest()
        res.digests[f"schedule/{alias}.json"] = sha256_file(os.path.join(out_dir, f"{alias}.json"))
        return None

    def expected_calls(self, veplab, inputs: dict) -> dict[str, int]:
        n = len(self.paradigms)
        return {
            "stimgen.build_frame_schedule": n,
            "stimgen.write_frame_stack": n,
            "stimgen.render_frame": n * self.n_frames,
            "stimgen.write_pgm": n * self.n_frames,
        }


WORKLOADS = {
    w.name: w
    for w in (
        CohortWorkload(
            "cohort",
            "paper protocol, 2 subjects x 3 tasks via the CLI; the model CSV layer dominates; 6 independent recordings",
        ),
        SpellerWorkload(
            "speller40",
            "one 40-target radial recording (8.0-15.8 Hz); FB-CCA decode dominates, CSV I/O is small, nothing to parallelize",
        ),
        StimulusWorkload(
            "stimulus",
            "0.5 s of frames for all 3 paradigms at 144 Hz; only stimgen runs; pattern reversal has 2 distinct frames",
        ),
    )
}
