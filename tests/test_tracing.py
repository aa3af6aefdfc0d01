"""The benchmark's in-layer trace points must name code that exists.

`perfbench/tracing.py` wraps a few calls inside one layer by module and
attribute name. A renamed target would not fail the benchmark; its per-layer
metrics would just read zero. These tests fail instead.
"""

import importlib
import importlib.util
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
