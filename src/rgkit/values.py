"""Finite value universe and state schemas.

Every state variable is declared with a finite type; this is what makes
every semantic check in the toolkit exact instead of bounded.  Values use
compact canonical Python representations so states are plain hashable
tuples:

    Int  -> int            Bool -> bool        Sym -> str
    Seq  -> tuple          Rec  -> tuple of field values (declared order)
    Opt  -> None | (v,)    (1-tuple wraps a present value)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class LoadError(Exception):
    """Model rejected at load time (type error, bad reference, syntax)."""

    def __init__(self, msg: str, pos: tuple[int, int] | None = None):
        self.msg = msg
        self.pos = pos
        super().__init__(f"{pos[0]}:{pos[1]}: {msg}" if pos else msg)


class DomainOverflow(Exception):
    """An assignment left the declared domain of a state variable."""

    def __init__(self, var: str, value: Any):
        self.var = var
        self.value = value
        super().__init__(f"domain-overflow: {var} <- {value!r}")


@dataclass(frozen=True)
class IntType:
    lo: int
    hi: int  # inclusive

    def __str__(self) -> str:
        return f"INT {self.lo}..{self.hi}"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "BOOL"


@dataclass(frozen=True)
class SymType:
    values: tuple[str, ...]

    def __str__(self) -> str:
        return "SYM {%s}" % ", ".join(self.values)


@dataclass(frozen=True)
class SeqType:
    elem: "Type"
    max_len: int

    def __str__(self) -> str:
        return f"SEQ {self.max_len} OF {self.elem}"


@dataclass(frozen=True)
class RecType:
    fields: tuple[tuple[str, "Type"], ...]

    def field_index(self, name: str) -> int:
        for i, (f, _) in enumerate(self.fields):
            if f == name:
                return i
        raise LoadError(f"unknown record field {name!r}")

    def __str__(self) -> str:
        return "REC {%s}" % ", ".join(f"{f}: {t}" for f, t in self.fields)


@dataclass(frozen=True)
class OptType:
    inner: "Type"

    def __str__(self) -> str:
        return f"OPT {self.inner}"


Type = IntType | BoolType | SymType | SeqType | RecType | OptType


def conformer(t: Type) -> Callable[[Any], bool]:
    """The membership test of type `t`, built once from the type: bool-ness,
    INT range, SYM membership, SEQ length, REC arity and OPT shape, checked
    recursively.  `bool` is not an INT value."""
    if isinstance(t, BoolType):
        return lambda v: v is True or v is False
    if isinstance(t, IntType):
        lo, hi = t.lo, t.hi
        return lambda v: (
            (v.__class__ is int or isinstance(v, int) and not isinstance(v, bool))
            and lo <= v <= hi
        )
    if isinstance(t, SymType):
        syms = frozenset(t.values)
        return lambda v: isinstance(v, str) and v in syms
    if isinstance(t, SeqType):
        elem, n = conformer(t.elem), t.max_len

        def seq(v) -> bool:
            if not isinstance(v, tuple) or len(v) > n:
                return False
            for x in v:
                if not elem(x):
                    return False
            return True

        return seq
    if isinstance(t, RecType):
        parts = tuple(conformer(ft) for _, ft in t.fields)
        k = len(parts)

        def rec(v) -> bool:
            if not isinstance(v, tuple) or len(v) != k:
                return False
            for ok, x in zip(parts, v):
                if not ok(x):
                    return False
            return True

        return rec
    if isinstance(t, OptType):
        inner = conformer(t.inner)
        return lambda v: v is None or isinstance(v, tuple) and len(v) == 1 and inner(v[0])
    raise TypeError(f"not a type: {t!r}")


def conforms(v: Any, t: Type) -> bool:
    """One-off membership test for load-time checks; writes through a
    schema use its `conformers`."""
    return conformer(t)(v)


def default_value(t: Type) -> Any:
    if isinstance(t, BoolType):
        return False
    if isinstance(t, IntType):
        return t.lo
    if isinstance(t, SymType):
        return t.values[0]
    if isinstance(t, SeqType):
        return ()
    if isinstance(t, RecType):
        return tuple(default_value(ft) for _, ft in t.fields)
    if isinstance(t, OptType):
        return None
    raise TypeError(f"not a type: {t!r}")


def domain_size(t: Type) -> int:
    if isinstance(t, BoolType):
        return 2
    if isinstance(t, IntType):
        return max(0, t.hi - t.lo + 1)
    if isinstance(t, SymType):
        return len(t.values)
    if isinstance(t, SeqType):
        n, total = domain_size(t.elem), 0
        for k in range(t.max_len + 1):
            total += n**k
        return total
    if isinstance(t, RecType):
        total = 1
        for _, ft in t.fields:
            total *= domain_size(ft)
        return total
    if isinstance(t, OptType):
        return 1 + domain_size(t.inner)
    raise TypeError(f"not a type: {t!r}")


def domain_iter(t: Type) -> Iterator[Any]:
    """Deterministic enumeration of every value of a finite type."""
    if isinstance(t, BoolType):
        yield False
        yield True
    elif isinstance(t, IntType):
        yield from range(t.lo, t.hi + 1)
    elif isinstance(t, SymType):
        yield from t.values
    elif isinstance(t, SeqType):
        for k in range(t.max_len + 1):
            for combo in itertools.product(*([list(domain_iter(t.elem))] * k)):
                yield tuple(combo)
    elif isinstance(t, RecType):
        for combo in itertools.product(*(list(domain_iter(ft)) for _, ft in t.fields)):
            yield tuple(combo)
    elif isinstance(t, OptType):
        yield None
        for v in domain_iter(t.inner):
            yield (v,)
    else:
        raise TypeError(f"not a type: {t!r}")


def render_value(v: Any, t: Type) -> str:
    """Concrete-syntax rendering (parseable back by the model reader)."""
    if isinstance(t, BoolType):
        return "true" if v else "false"
    if isinstance(t, IntType):
        return str(v)
    if isinstance(t, SymType):
        return v
    if isinstance(t, SeqType):
        return "[%s]" % ", ".join(render_value(x, t.elem) for x in v)
    if isinstance(t, RecType):
        return "{%s}" % ", ".join(
            f"{f}: {render_value(x, ft)}" for x, (f, ft) in zip(v, t.fields)
        )
    if isinstance(t, OptType):
        return "NONE" if v is None else f"SOME {render_value(v[0], t.inner)}"
    raise TypeError(f"not a type: {t!r}")


def value_to_json(v: Any, t: Type) -> Any:
    if isinstance(t, (BoolType, IntType, SymType)):
        return v
    if isinstance(t, SeqType):
        return [value_to_json(x, t.elem) for x in v]
    if isinstance(t, RecType):
        return {f: value_to_json(x, ft) for x, (f, ft) in zip(v, t.fields)}
    if isinstance(t, OptType):
        return None if v is None else {"some": value_to_json(v[0], t.inner)}
    raise TypeError(f"not a type: {t!r}")


class Schema:
    """Ordered declaration of state variables; a state is a value tuple."""

    def __init__(self, decls: list[tuple[str, Type, Any]]):
        self.names: tuple[str, ...] = tuple(n for n, _, _ in decls)
        self.types: tuple[Type, ...] = tuple(t for _, t, _ in decls)
        self.inits: tuple[Any, ...] = tuple(v for _, _, v in decls)
        self.index: dict[str, int] = {}
        for i, n in enumerate(self.names):
            if n in self.index:
                raise LoadError(f"duplicate variable {n!r}")
            self.index[n] = i
        # per-variable domain checks, built once for every write through
        # this schema (`set`, `state`, compiled assignments)
        self.conformers: tuple[Callable[[Any], bool], ...] = tuple(
            conformer(t) for t in self.types
        )
        for n, ok, v in zip(self.names, self.conformers, self.inits):
            if not ok(v):
                raise LoadError(f"initial value of {n!r} outside its domain: {v!r}")

    def __len__(self) -> int:
        return len(self.names)

    def var_type(self, name: str) -> Type:
        try:
            return self.types[self.index[name]]
        except KeyError:
            raise LoadError(f"undeclared variable {name!r}") from None

    def initial_state(self) -> tuple:
        return self.inits

    def state(self, **bindings: Any) -> tuple:
        """Initial state with some variables overridden (test convenience)."""
        vals = list(self.inits)
        for n, v in bindings.items():
            i = self.index[n]
            if not self.conformers[i](v):
                raise DomainOverflow(n, v)
            vals[i] = v
        return tuple(vals)

    def get(self, s: tuple, name: str) -> Any:
        return s[self.index[name]]

    def set(self, s: tuple, name: str, v: Any) -> tuple:
        i = self.index[name]
        if not self.conformers[i](v):
            raise DomainOverflow(name, v)
        return s[:i] + (v,) + s[i + 1 :]

    def state_to_dict(self, s: tuple) -> dict[str, Any]:
        return {
            n: value_to_json(v, t) for n, t, v in zip(self.names, self.types, s)
        }

    def render_state(self, s: tuple) -> str:
        return "{%s}" % ", ".join(
            f"{n}={render_value(v, t)}" for n, t, v in zip(self.names, self.types, s)
        )

    def product_size(self) -> int:
        total = 1
        for t in self.types:
            total *= domain_size(t)
        return total

    def all_states(self, budget: int = 1_000_000) -> list[tuple]:
        if self.product_size() > budget:
            raise DomainOverflow("<schema product>", self.product_size())
        return [tuple(c) for c in itertools.product(*(list(domain_iter(t)) for t in self.types))]
