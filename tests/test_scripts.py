import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

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
    assert doc["synthetic"]["class_means"] is None
