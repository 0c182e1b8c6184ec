"""`veplab stimgen` and `veplab synth` run on numpy alone; the analysis and
statistics functions import scipy on their first call."""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# Runs in a fresh interpreter, so no other test has imported scipy yet. The
# last stdout line is a JSON summary.
SCRIPT = textwrap.dedent(
    """
    import json, os, sys

    import veplab, veplab.cli
    from veplab.cli import main

    work = sys.argv[1]
    config = os.path.join(work, "synth.json")
    with open(config, "w") as fh:
        json.dump({"seed": 3, "protocol": {"n_subjects": 2, "tasks": [
            {"paradigm": "radial_motion", "targets_hz": [8.0, 12.0],
             "trials_per_target": 1, "trial_s": 2.0, "rest_s": 1.0},
        ]}}, fh)
    # checkerboards are palette frames, gratings dense ones
    codes = {
        paradigm: main([
            "stimgen", "--paradigm", paradigm, "--freq", "36", "--duration", "0.1",
            "--out", os.path.join(work, paradigm + ".json"),
            "--render-dir", os.path.join(work, paradigm),
        ])
        for paradigm in ("reversal", "radial", "gabor")
    }
    codes["synth"] = main(["synth", "--config", config, "--out", os.path.join(work, "ds")])
    scipy_after_generate = sorted(
        m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
    )
    reports = os.path.join(work, "reports")
    os.mkdir(reports)
    codes["analyze"] = main([
        "analyze", "--dataset", os.path.join(work, "ds", "manifest.json"),
        "--out", os.path.join(reports, "report.json"),
    ])
    for test in ("rm-anova", "posthoc"):
        codes[test] = main([
            "stats", "--reports", reports, "--test", test,
            "--out", os.path.join(work, test + ".json"),
        ])
    print(json.dumps({"codes": codes, "scipy_after_generate": scipy_after_generate}))
    """
)


def test_generation_loads_no_scipy_and_analysis_loads_it_on_use(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["scipy_after_generate"] == []
    assert summary["codes"] == {
        "reversal": 0, "radial": 0, "gabor": 0, "synth": 0, "analyze": 0, "rm-anova": 0,
        "posthoc": 0,
    }, proc.stderr
    # 0.1 s at 144 Hz is 14 frames
    for paradigm in ("reversal", "radial", "gabor"):
        assert [p.suffix for p in (tmp_path / paradigm).iterdir()] == [".pgm"] * 14, paradigm
    stats = json.loads((tmp_path / "rm-anova.json").read_text())
    assert 0.0 <= stats["p"] <= 1.0
