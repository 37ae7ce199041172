"""The names the benchmark's tracer and launcher wrap must keep resolving.

``perfbench/trace.py`` wraps program functions by module attribute and
methods by class ``__dict__`` entry, and ``perfbench/launcher.py`` patches a
few module attributes by name; a rename or deletion here would otherwise
fail only the benchmark's own suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import trace  # noqa: E402


def _module(name: str):
    return importlib.import_module(f"rolechain.{name}")


@pytest.mark.parametrize("mod, attr", [(t[0], t[1]) for t in trace.FUNCTIONS])
def test_traced_function_resolves(mod, attr):
    assert callable(getattr(_module(mod), attr))


@pytest.mark.parametrize("mod, cls, attr, kind", [(t[0], t[1], t[2], t[4]) for t in trace.METHODS])
def test_traced_method_is_on_its_class(mod, cls, attr, kind):
    # SignedTransaction.tx_id is the one "property" entry.
    member = getattr(_module(mod), cls).__dict__[attr]
    assert isinstance(member, property) if kind == "property" else callable(member)


def test_launcher_patch_points_exist():
    from rolechain import api, codec, consensus
    from rolechain.state import WorldState

    for module, attr in ((api, "submit_tx"), (api, "run_until_quiescent"), (consensus, "step")):
        assert callable(getattr(module, attr))
    network = consensus.Network(consensus.NetworkConfig(validators=["0" * 40]), WorldState())
    # The benchmark reads the trace only as its count and its digest.
    assert len(network.trace) == 0 and codec.digest(network.trace) == codec.digest([])
