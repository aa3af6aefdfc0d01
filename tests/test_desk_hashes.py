"""The same-bytes manifest: the sha256 of every file that the `run`,
`train-detector`, `train-gnn`, `train-agent` and `sweep` commands write for
`configs/desk.json`, recorded in `tests/golden/desk-hashes.json` together
with the platform that made them (the numpy version and the BLAS that numpy
reports).

On that platform a change that moves a byte fails here, naming each file that
moved. Elsewhere the right bits are unknown, so the test prints the hashes it
computed and skips. A change that means to move bytes regenerates the
manifest, from the root of a checkout:

    PYTHONPATH=src python tests/test_desk_hashes.py

and explains each file that the manifest's diff shows moving.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from selfheal.harness.cli import main

ROOT = Path(__file__).resolve().parent.parent
DESK_CONFIG = ROOT / "configs" / "desk.json"
MANIFEST = ROOT / "tests" / "golden" / "desk-hashes.json"
COMMANDS = ("run", "train-detector", "train-gnn", "train-agent", "sweep")


def platform() -> dict:
    """The numpy version and the BLAS, by name and version, that numpy
    reports; a numpy too old to report it as a dict gives "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def desk_hashes(workdir) -> dict:
    """sha256 of each file the commands write, by name. They run in `workdir`,
    so they write to its `out/desk`, the config's own output directory, which
    the report's provenance hashes with the rest of the config."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(DESK_CONFIG)])
            if code != 0:
                raise RuntimeError(f"selfheal {command} exited with {code}")
    finally:
        os.chdir(cwd)
    out = Path(workdir) / "out" / "desk"
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def test_desk_files_keep_their_bytes(tmp_path):
    recorded = json.loads(MANIFEST.read_text())
    hashes = desk_hashes(tmp_path)
    if recorded["platform"] != platform():
        computed = json.dumps(hashes, indent=1)
        print(computed)
        pytest.skip(f"the manifest was recorded on {recorded['platform']}, not on "
                    f"{platform()}; computed here: {computed}")
    moved = sorted(name for name in recorded["sha256"].keys() | hashes.keys()
                   if recorded["sha256"].get(name) != hashes.get(name))
    assert not moved, f"desk files whose bytes moved: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        manifest = {"config": "configs/desk.json", "platform": platform(),
                    "sha256": desk_hashes(workdir)}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}")
