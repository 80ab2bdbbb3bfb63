import importlib
import os
import pkgutil

import pytest

import rgkit
from rgkit import adapters, semantics
from rgkit.adapters import AdapterContext, IMP_ADAPTER
from rgkit.semantics import Ctx
from rgkit.values import BoolType, IntType, Schema

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus_path(name: str) -> str:
    return os.path.normpath(os.path.join(CORPUS, name))


@pytest.fixture
def xschema() -> Schema:
    return Schema([("x", IntType(0, 3), 0), ("flag", BoolType(), False)])


@pytest.fixture
def xctx(xschema) -> Ctx:
    return Ctx(AdapterContext(xschema), IMP_ADAPTER)


@pytest.fixture
def build_calls(monkeypatch):
    """The positional arguments of every `build_graph` call made without
    observers, through whichever rgkit module the call is made: the outer
    configuration graphs of a command.  A build with observers checks a
    program obligation, so at teardown their number must equal the number
    of `prog_validity` calls."""
    calls: list = []
    observed, obligations = [0], [0]
    orig_build, orig_pv = semantics.build_graph, adapters.prog_validity

    def counted_build(*a, **kw):
        if kw.get("on_expand") is None and kw.get("on_comp") is None:
            calls.append(a)
        else:
            observed[0] += 1
        return orig_build(*a, **kw)

    def counted_pv(*a, **kw):
        obligations[0] += 1
        return orig_pv(*a, **kw)

    for info in pkgutil.iter_modules(rgkit.__path__):
        mod = importlib.import_module(f"rgkit.{info.name}")
        if getattr(mod, "build_graph", None) is orig_build:
            monkeypatch.setattr(mod, "build_graph", counted_build)
        if getattr(mod, "prog_validity", None) is orig_pv:
            monkeypatch.setattr(mod, "prog_validity", counted_pv)
    yield calls
    assert observed[0] == obligations[0]
