"""The `_node` contract: every syntax-node class behaves as the frozen
dataclass it stands for.  `_node` lets `dataclass` build only the field
table and installs shared methods; each class here is compared with a
`dataclass(frozen=True)` twin built from the same annotations, defaults
and `__post_init__`, with `_node`'s cached hash formula."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import rgkit
from rgkit.events import FIN, EsIter, ParallelEventSystem
from rgkit.exprs import HeadE, Len, Lit, Var, _node_repr
from rgkit.relations import true_set
from rgkit.values import IntType, LoadError, Schema


def _node_classes() -> list[type]:
    out = []
    for info in pkgutil.iter_modules(rgkit.__path__):
        mod = importlib.import_module(f"rgkit.{info.name}")
        out += [v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == mod.__name__
                and v.__dict__.get("__repr__") is _node_repr]
    return out


NODE_CLASSES = _node_classes()


def _twin(cls: type) -> type:
    ns = {"__annotations__": dict(vars(cls).get("__annotations__", {})),
          "__module__": cls.__module__, "__qualname__": cls.__qualname__,
          "__doc__": vars(cls).get("__doc__")}
    if ns["__doc__"].startswith(cls.__name__ + "("):
        ns["__doc__"] = None  # written by `_node`: let dataclass write it
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            ns[f.name] = f.default
    if "__post_init__" in vars(cls):
        ns["__post_init__"] = cls.__post_init__
    twin = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))
    names = [f.name for f in dataclasses.fields(twin)]

    def __hash__(self):  # the formula of `_node`, which both must keep
        return hash((cls.__name__,) + tuple(getattr(self, n) for n in names))

    twin.__hash__ = __hash__
    return twin


TWINS = {cls: _twin(cls) for cls in NODE_CLASSES}
TVar, TLit = TWINS[Var], TWINS[Lit]

# Field values as (node side, twin side) pairs: nested nodes, plain values
# and tuples holding nodes.
POOL = [
    (Var("a"), TVar("a")),
    ("s", "s"),
    (Lit(2), TLit(2)),
    ((Var("b"), 3), (TVar("b"), 3)),
    (Lit(1, IntType(0, 3)), TLit(1, IntType(0, 3))),
]


def _args(cls, shift: int) -> tuple[list, list]:
    names = [f.name for f in dataclasses.fields(cls)]
    if cls is ParallelEventSystem:  # systems: ((identifier, system), ...)
        return [(("k1", FIN), ("k2", Var("x")))], [(("k1", FIN), ("k2", TVar("x")))]
    picks = [POOL[(i + shift) % len(POOL)] for i in range(len(names))]
    return [p[0] for p in picks], [p[1] for p in picks]


def test_every_node_class_is_found():
    assert len(NODE_CLASSES) == 68
    assert {c.__module__ for c in NODE_CLASSES} == {
        "rgkit.exprs", "rgkit.adapters", "rgkit.events", "rgkit.bpel"}


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_class_matches_frozen_dataclass_twin(cls):
    twin = TWINS[cls]
    assert dataclasses.is_dataclass(cls)
    assert [(f.name, f.type, f.default, f.init) for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default, f.init) for f in dataclasses.fields(twin)]
    assert cls.__match_args__ == twin.__match_args__
    assert cls.__doc__ == twin.__doc__
    assert inspect.signature(cls) == inspect.signature(twin)

    a, ta = _args(cls, 0)
    b, tb = _args(cls, 1)
    x, tx = cls(*a), twin(*ta)
    x2, y, ty = cls(*a), cls(*b), twin(*tb)
    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert hash(x) == hash(tx) == hash(x2) and hash(y) == hash(ty)
    assert (x == x2, x != x2, x == y, x != y) == (
        tx == twin(*ta), tx != twin(*ta), tx == ty, tx != ty)
    assert (x == 1, x != 1, x == None) == (tx == 1, tx != 1, tx == None)  # noqa: E711

    if cls is not ParallelEventSystem:
        for f, new, tnew in zip(dataclasses.fields(cls), b, tb):
            r = dataclasses.replace(x, **{f.name: new})
            tr = dataclasses.replace(tx, **{f.name: tnew})
            assert type(r) is cls and repr(r) == repr(tr) and hash(r) == hash(tr)

    for obj in (x, tx):
        name = next(iter(cls.__match_args__), "anything")
        with pytest.raises(dataclasses.FrozenInstanceError) as set_err:
            setattr(obj, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError) as del_err:
            delattr(obj, name)
        assert (str(set_err.value), str(del_err.value)) == (
            f"cannot assign to field {name!r}", f"cannot delete field {name!r}")


def test_defaults():
    assert Lit(3).vtype is None and TLit(3).vtype is None
    assert repr(Lit(3)) == repr(TLit(3)) == "Lit(value=3, vtype=None)"
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        TVar()


def test_equal_fields_in_other_classes_are_unequal():
    assert Len(Var("a")) != HeadE(Var("a"))
    assert not Len(Var("a")) == HeadE(Var("a"))
    tlen, thead = TWINS[Len](TVar("a")), TWINS[HeadE](TVar("a"))
    assert tlen != thead and not tlen == thead


def test_post_init_runs():
    schema = Schema([("x", IntType(0, 1), 0)])
    for cls in (EsIter, TWINS[EsIter]):
        with pytest.raises(LoadError, match="iteration body cannot be the finished system"):
            cls(true_set(schema), FIN)
    for cls in (ParallelEventSystem, TWINS[ParallelEventSystem]):
        pes = cls((("t2", FIN), ("t1", FIN)))
        assert pes.systems == (("t1", FIN), ("t2", FIN))
        with pytest.raises(LoadError, match="duplicate system identifiers"):
            cls((("t1", FIN), ("t1", FIN)))


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_first_and_cached_hash_follow_the_formula(cls):
    x = cls(*_args(cls, 0)[0])
    assert cls._h is None and "_h" not in vars(x)
    want = hash((cls.__name__,) + tuple(getattr(x, f.name) for f in dataclasses.fields(cls)))
    assert hash(x) == want and vars(x)["_h"] == want
    assert hash(x) == want


def test_hashed_classes_have_zero_one_and_more_fields():
    assert {min(len(dataclasses.fields(c)), 2) for c in NODE_CLASSES} == {0, 1, 2}


def test_literals_of_equal_value_but_other_class_are_unequal():
    assert Lit(1) != Lit(True) and not Lit(1) == Lit(True)
    assert Lit(0) != Lit(False) and Lit(1) == Lit(1) and Lit(True) == Lit(True)
    assert Len(Lit(1)) != Len(Lit(True))
    assert hash(Lit(1)) == hash(Lit(True)) == hash(("Lit", 1, None))
    assert Lit(1, IntType(0, 3)) == Lit(1, IntType(0, 3)) != Lit(1, IntType(0, 2))
    assert (Lit(1) == 1, Lit(1) == Var("a")) == (False, False)
