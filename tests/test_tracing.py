"""The benchmark's in-layer trace points must name code that exists.

`perfbench/tracing.py` wraps a few calls inside one layer by module and
attribute name. A renamed target would not fail the benchmark; its per-layer
metrics would just read zero. These tests fail instead, as does a GNN epoch
that stops recording the spans its per-layer metrics read.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _intra_layer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INTRA_LAYER


@pytest.mark.parametrize("module_name, attr, key", _intra_layer())
def test_intra_layer_target_resolves(module_name, attr, key):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr}, traced as {key}, is gone"
        owner = getattr(owner, part)
    assert callable(owner)
    assert key.split(".")[0] == module_name.split(".")[1]


def test_gnn_training_keeps_its_traced_grad_calls():
    # `numerics.grad.depgraph_us` and `depgraph.train_gnn.s` read these spans;
    # an epoch that stops calling the tape's `grad` would zero the first
    script = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('tracing', {str(_TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "from selfheal.harness import pipeline\n"
        "from selfheal.simulator.cascade import make_cascade_dataset\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "pipeline.train_gnn(make_cascade_dataset(4, seed=5), epochs=3, seed=1)\n"
        "print(tracer.count('numerics.grad@depgraph'), tracer.count('depgraph.train_gnn'))\n"
    )
    src = str(_TRACING.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    grad_calls, train_calls = map(int, proc.stdout.split())
    assert grad_calls == 3
    assert train_calls == 1
