"""`conformer` against the recursive membership test it replaced."""

import glob
import os
import random

import pytest

from conftest import CORPUS
from rgkit.modelfile import load
from rgkit.values import (
    BoolType,
    IntType,
    OptType,
    RecType,
    SeqType,
    SymType,
    conformer,
    default_value,
    domain_iter,
    domain_size,
)

KERNEL_2T = os.path.join(os.path.dirname(__file__), "..", "perfbench", "kernel_2t.pcm")
ENUMERATE_MAX = 20_000  # types with a larger domain are sampled
SAMPLES = 300


def reference_conforms(v, t) -> bool:
    """The recursive domain check `conformer` replaced."""
    if isinstance(t, BoolType):
        return isinstance(v, bool)
    if isinstance(t, IntType):
        return isinstance(v, int) and not isinstance(v, bool) and t.lo <= v <= t.hi
    if isinstance(t, SymType):
        return isinstance(v, str) and v in t.values
    if isinstance(t, SeqType):
        return (
            isinstance(v, tuple)
            and len(v) <= t.max_len
            and all(reference_conforms(x, t.elem) for x in v)
        )
    if isinstance(t, RecType):
        return (
            isinstance(v, tuple)
            and len(v) == len(t.fields)
            and all(reference_conforms(x, ft) for x, (_, ft) in zip(v, t.fields))
        )
    if isinstance(t, OptType):
        return v is None or (
            isinstance(v, tuple) and len(v) == 1 and reference_conforms(v[0], t.inner)
        )
    raise TypeError(f"not a type: {t!r}")


def components(t):
    """`t` and every type nested in it."""
    yield t
    if isinstance(t, SeqType):
        yield from components(t.elem)
    elif isinstance(t, RecType):
        for _, ft in t.fields:
            yield from components(ft)
    elif isinstance(t, OptType):
        yield from components(t.inner)


def corpus_types() -> list:
    """Every variable type of the corpus schemas and the two-thread buddy
    benchmark schema, with the types nested in them, in a fixed order."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.pcm"))) + [KERNEL_2T]:
        for t in load(path).schema.types:
            for c in components(t):
                out.setdefault(c, None)
    return list(out)


def sample(t, rng: random.Random):
    """A random value of `t`."""
    if isinstance(t, BoolType):
        return rng.random() < 0.5
    if isinstance(t, IntType):
        return rng.randint(t.lo, t.hi)
    if isinstance(t, SymType):
        return rng.choice(t.values)
    if isinstance(t, SeqType):
        return tuple(sample(t.elem, rng) for _ in range(rng.randint(0, t.max_len)))
    if isinstance(t, RecType):
        return tuple(sample(ft, rng) for _, ft in t.fields)
    if rng.random() < 0.2:
        return None
    return (sample(t.inner, rng),)


def values_of(t) -> list:
    """Every value of `t` when its domain is small, else a fixed sample."""
    if domain_size(t) <= ENUMERATE_MAX:
        return list(domain_iter(t))
    rng = random.Random(repr(t))
    return [default_value(t)] + [sample(t, rng) for _ in range(SAMPLES)]


def near_misses(t) -> list:
    """Values just outside `t`, also nested one level inside REC/SEQ/OPT."""
    if isinstance(t, IntType):
        return [t.lo - 1, t.hi + 1, True, False, "0", None]
    if isinstance(t, BoolType):
        return [1, 0, None, "true"]
    if isinstance(t, SymType):
        return ["__unknown__", 0, None, (t.values[0],)]
    d = default_value(t)
    if isinstance(t, SeqType):
        e = default_value(t.elem)
        return [(e,) * (t.max_len + 1), list((e,) * t.max_len), None] + [
            (bad,) for bad in near_misses(t.elem)
        ]
    if isinstance(t, RecType):
        out = [d[:-1], d + (d[0],), list(d), None]
        for i, (_, ft) in enumerate(t.fields):
            out += [d[:i] + (bad,) + d[i + 1 :] for bad in near_misses(ft)]
        return out
    inner = default_value(t.inner)
    return [(inner, inner), (), inner if inner is not None else 0, [inner]] + [
        (bad,) for bad in near_misses(t.inner)
    ]


TYPES = corpus_types()


@pytest.mark.parametrize("t", TYPES, ids=str)
def test_conformer_matches_reference(t):
    ok = conformer(t)
    for v in values_of(t):
        assert ok(v) is True and reference_conforms(v, t), v
    for v in near_misses(t):
        assert ok(v) is False and reference_conforms(v, t) is False, v


def test_conformer_hand_made_near_misses():
    i = IntType(-1, 2)
    seq = SeqType(i, 2)
    rec = RecType((("a", BoolType()), ("b", SymType(("X", "Y")))))
    opt = OptType(RecType((("s", seq),)))
    cases = [
        (i, -2), (i, 3), (i, True), (i, -1), (i, 2),
        (BoolType(), 1), (BoolType(), True),
        (SymType(("X", "Y")), "Z"),
        (seq, (0, 1, 2)), (seq, (0, 1)), (seq, (0, 3)), (seq, (0, False)),
        (rec, (True,)), (rec, (True, "X", "Y")), (rec, (True, "X")), (rec, (1, "X")),
        (opt, ((0,), (0,))), (opt, (((0, 1),),)), (opt, (((0, 5),),)), (opt, None),
        (opt, ((0,),)), (OptType(BoolType()), (1,)),
    ]
    for t, v in cases:
        assert conformer(t)(v) == reference_conforms(v, t), (t, v)
    with pytest.raises(TypeError):
        conformer("INT")
