import importlib
import os
import pkgutil

import pytest

import rgkit
from rgkit import semantics
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
def build_calls(monkeypatch) -> list:
    """The positional arguments of every `build_graph` call, through
    whichever rgkit module the call is made."""
    calls: list = []
    orig = semantics.build_graph

    def counted(*a, **kw):
        calls.append(a)
        return orig(*a, **kw)

    for info in pkgutil.iter_modules(rgkit.__path__):
        mod = importlib.import_module(f"rgkit.{info.name}")
        if getattr(mod, "build_graph", None) is orig:
            monkeypatch.setattr(mod, "build_graph", counted)
    return calls
