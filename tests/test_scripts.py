import ast
import csv
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tta_align.config import ExperimentConfig
from tta_align.data import SyntheticSpec

REPO = Path(__file__).resolve().parents[1]


def test_write_default_config_round_trips(tmp_path):
    out = tmp_path / "config.json"
    script = REPO / "scripts" / "write_default_config.py"
    subprocess.run(
        [sys.executable, str(script), "--out", str(out)],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=120,
    )
    cfg = ExperimentConfig.from_json_file(out)
    assert cfg.to_dict() == ExperimentConfig.default().to_dict()
    # every schema field is written, unset optional ones as null
    doc = json.loads(out.read_text())
    assert set(doc["synthetic"]) == {f.name for f in fields(SyntheticSpec)}
    assert doc["shift"]["transforms"][0]["direction"] is None


def test_sweep_steps_writes_one_summary_row_per_run(tmp_path):
    script = REPO / "scripts" / "sweep_steps.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--steps", "1", "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=300,
    )
    # the one summary table printed is the run directory's own
    summary = (tmp_path / "summary.txt").read_text()
    assert proc.stdout == f"outputs: {tmp_path}\n{summary}"
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["source", "cafa_steps_1"]
    for row in rows:
        with open(tmp_path / f"run_{row['method']}.csv", newline="") as fh:
            accuracies = [float(r["accuracy"]) for r in csv.DictReader(fh)]
        assert len(accuracies) == 60  # the default stream
        assert float(row["mean_accuracy"]) == float(np.mean(accuracies))
        assert 0.0 < float(row["final_quarter_accuracy"]) <= 1.0


@pytest.mark.parametrize(
    "args, message",
    [
        (["--steps", "0"], "method 'cafa' needs steps_per_batch >= 1"),
        (["--out-dir", ""], "output_dir must name a directory, got ''"),
    ],
    ids=["steps_0", "empty_out_dir"],
)
def test_sweep_steps_refuses_a_bad_config_in_one_line(tmp_path, args, message):
    # the sweep runs `tta-align compare`: one config error line, exit 1, no
    # traceback, and nothing written, in the working directory either
    (tmp_path / "manifest.json").write_text("{}")
    script = REPO / "scripts" / "sweep_steps.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path / "out"), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"config error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_default_compare_output_is_pinned(tmp_path):
    # every file of a default `pretrain` + `compare` run, byte for byte; a
    # change that moves rounding on purpose re-pins with the script
    out = tmp_path / "pins.json"
    script = REPO / "scripts" / "pin_default_compare.py"
    subprocess.run(
        [sys.executable, str(script), "--out", str(out)],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=300,
    )
    made = json.loads(out.read_text())
    pinned = json.loads((REPO / "tests" / "data" / "default_compare_sha256.json").read_text())
    assert len(pinned["sha256"]) == 19  # 17 compare files, the checkpoint and the stats
    moved = sorted(
        name
        for name in pinned["sha256"].keys() | made["sha256"].keys()
        if pinned["sha256"].get(name) != made["sha256"].get(name)
    )
    assert not moved, (
        f"moved: {moved}; pinned on NumPy {pinned['numpy']} ({pinned['blas']}), "
        f"run on NumPy {made['numpy']} ({made['blas']})"
    )


def test_readme_output_files_are_the_pinned_files():
    # the backticked file names under README "Output files", with `<name>`
    # expanded to each default run name, are the files that the default
    # `pretrain` and `compare` write: the pinned ones, which the test above
    # checks a fresh run against
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Output files", 1)[1].split("\n## ", 1)[0]
    names = set(re.findall(r"`([\w<>]+\.\w+)`", section)) - {"config.py"}  # a module
    runs = [m.run_name for m in ExperimentConfig.default().methods]
    listed = {name.replace("<name>", run) for name in names for run in runs}
    pinned = json.loads((REPO / "tests" / "data" / "default_compare_sha256.json").read_text())
    assert sorted(listed) == sorted(pinned["sha256"])


def test_readme_layout_names_every_module():
    # the README's Layout block lists each module of the package once, and
    # nothing that is not one
    readme = (REPO / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```\n", 2)[1]
    listed = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    modules = {p.name for p in (REPO / "src" / "tta_align").glob("*.py")} - {"__init__.py"}
    assert sorted(listed) == sorted(modules)


def test_readme_names_stay_real():
    # outside its fenced blocks, every backticked `module.name` of the package
    # (`tta_align.` optional) is an attribute of that module, and every
    # `tests/<file>::Name[::name]` a test or class of that file
    prose = re.sub(r"^```.*?^```", "", (REPO / "README.md").read_text(), flags=re.M | re.S)
    modules = {p.stem for p in (REPO / "src" / "tta_align").glob("*.py")} - {"__init__"}
    stale, resolved = [], 0
    for span in re.findall(r"`([^`\n]+)`", prose):
        ref = re.match(r"(?:tta_align\.)?([a-z_]+)((?:\.\w+)+)", span)
        # `config.py` and `stats.bin` are file names
        if not ref or ref[1] not in modules or re.fullmatch(r"\.(py|bin)", ref[2]):
            continue
        obj = importlib.import_module(f"tta_align.{ref[1]}")
        for name in ref[2][1:].split("."):
            obj = getattr(obj, name, None)
        resolved += obj is not None
        stale += [span] if obj is None else []
    for ref in re.findall(r"`(tests/\w+\.py)((?:::\w+)+)`", prose):
        resolved += 1
        scope = ast.parse((REPO / ref[0]).read_text()).body
        for name in ref[1][2:].split("::"):
            scope = next((n.body for n in scope or () if getattr(n, "name", None) == name), None)
        stale += [ref[0] + ref[1]] if scope is None else []
    assert resolved and not stale, stale
