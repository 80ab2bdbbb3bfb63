"""Concurrent buddy memory-pool verification corpus.

A pool of `n_max` root blocks of `max_sz` bytes; each block splits into
four partners recursively for `n_levels` levels, tracked by per-level
status bitmaps (a forest of complete quadtrees) and per-level free lists
of relative start addresses.  The corpus ships:

  * the structural invariants (well-shaped bitmaps, configuration
    consistency, the memory-partition property) as fast native state
    predicates, which a model file's BUDDY section registers as sets;
  * a brute-force oracle enumerating every premise-satisfying bitmap
    assignment at small dimensions and asserting the partition property
    (with selectable premise drops to show the premises matter);
  * a desk-scale kernel model: per-thread event systems iterating a
    choice of allocate/release events whose bodies transliterate the
    allocator service logic statement by statement (block marking
    through ALLOCATING/FREEING, the partner-coalescing loop, wait-queue
    handling), plus an atomic scheduler system; and
  * the per-thread guarantee, the service postconditions, and the
    variant-indexed loop invariant family for the release loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from .adapters import AdapterContext, Await, Basic, Cond, Ctx, IMP_ADAPTER, PSeq, While
from .events import (
    EsAtomic,
    EsBasic,
    EsChoice,
    EsIter,
    EventSet,
    EventSpec,
    EventSystem,
    ParallelEventSystem,
)
from .exprs import (
    AppendE,
    Arith,
    BoolOp,
    Cmp,
    Expr,
    Field,
    ForallLt,
    HeadE,
    Index,
    Len,
    Lit,
    MkRec,
    MkSeq,
    MkSome,
    NoneLit,
    RecWith,
    RecWithDyn,
    RemoveE,
    TailE,
    TheOpt,
    UpdateE,
    Var,
)
from .relations import RelDesc, RelRule, StateSet
from .values import (
    BoolType,
    IntType,
    OptType,
    RecType,
    Schema,
    SeqType,
    SymType,
)
from .verdicts import Verdict, diag, fail, ok

FREE = "FREE"
ALLOCATED = "ALLOCATED"
DIVIDED = "DIVIDED"
ALLOCATING = "ALLOCATING"
FREEING = "FREEING"
NOEXIST = "NOEXIST"

BLOCK_STATES = (FREE, ALLOCATED, DIVIDED, ALLOCATING, FREEING, NOEXIST)
MEMBLOCK = frozenset((ALLOCATED, FREE, ALLOCATING, FREEING))

OK_RET = "OK"
ENOMEM = "ENOMEM"
ETIMEOUT = "ETIMEOUT"
ESIZEERR = "ESIZEERR"
NORET = "NORET"
RETS = (NORET, OK_RET, ENOMEM, ETIMEOUT, ESIZEERR)

READY = "READY"
BLOCKED = "BLOCKED"
RUNNING = "RUNNING"

NOWAIT = 0
FOREVER = -1


def is_memblock(bit: str) -> bool:
    return bit in MEMBLOCK


@dataclass(frozen=True)
class BuddyDims:
    n_max: int = 1
    n_levels: int = 2
    max_sz: int = 64
    threads: tuple[str, ...] = ("t1", "t2")
    alloc_sizes: tuple[int, ...] = (16,)
    timeouts: tuple[int, ...] = (NOWAIT, 1, FOREVER)
    free_blocks: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (1, 1))
    tick_max: int = 2

    def level_size(self, i: int) -> int:
        return self.max_sz // 4**i

    def bits_len(self, i: int) -> int:
        return self.n_max * 4**i

    def total_bytes(self) -> int:
        return self.n_max * self.max_sz

    def consistent(self) -> bool:
        # exists n > 0 with max_sz = 4 * n * 4^n_levels
        q = 4 * 4**self.n_levels
        return (
            self.n_max > 0
            and self.n_levels > 0
            and self.max_sz % q == 0
            and self.max_sz // q > 0
        )


# ----------------------------------------------------------------------
# Structural invariants as native predicates over (bits per level).
# ----------------------------------------------------------------------


def inv_mempool_info(dims: BuddyDims, bits: list[tuple[str, ...]]) -> bool:
    if not dims.consistent() or len(bits) != dims.n_levels:
        return False
    return all(len(bits[i]) == dims.bits_len(i) for i in range(dims.n_levels))


def inv_bitmap(dims: BuddyDims, bits: list[tuple[str, ...]]) -> bool:
    """Well-shaped forest: an existing block's parent is DIVIDED and its
    children are NOEXIST; a DIVIDED block's parent is DIVIDED; a NOEXIST
    bit's children are NOEXIST and its parent is not DIVIDED."""
    for i in range(dims.n_levels):
        for j, b in enumerate(bits[i]):
            parent = bits[i - 1][j // 4] if i > 0 else None
            if is_memblock(b):
                if parent is not None and parent != DIVIDED:
                    return False
                if i + 1 < dims.n_levels:
                    if any(bits[i + 1][4 * j + c] != NOEXIST for c in range(4)):
                        return False
            elif b == DIVIDED:
                if parent is not None and parent != DIVIDED:
                    return False
            elif b == NOEXIST:
                if parent is not None and parent == DIVIDED:
                    return False
                if i + 1 < dims.n_levels:
                    if any(bits[i + 1][4 * j + c] != NOEXIST for c in range(4)):
                        return False
    return True


def inv_bitmap0(dims: BuddyDims, bits: list[tuple[str, ...]]) -> bool:
    return all(b != NOEXIST for b in bits[0])


def inv_bitmapn(dims: BuddyDims, bits: list[tuple[str, ...]]) -> bool:
    return all(b != DIVIDED for b in bits[dims.n_levels - 1])


def mem_part(dims: BuddyDims, bits: list[tuple[str, ...]]) -> bool:
    """Every relative address is covered by exactly one existing block;
    block (i, j) covers [j * (max_sz / 4^i), (j + 1) * (max_sz / 4^i)).

    An address's cover changes only where some level's block index
    `addr // size` does, so one address per run of equal indices is
    checked: the runs start at the multiples of each level size (at one
    past them for a negative size)."""
    total = dims.total_bytes()
    if total <= 0:
        return True
    sizes = [dims.level_size(i) for i in range(dims.n_levels)]
    if 0 in sizes:
        return False
    starts = {0}
    for size in sizes:
        starts.update(range(size, total, size) if size > 0 else range(1, total, -size))
    for addr in sorted(starts):
        covered = 0
        for i, size in enumerate(sizes):
            j = addr // size
            if j < len(bits[i]) and is_memblock(bits[i][j]):
                covered += 1
        if covered != 1:
            return False
    return True


PREMISES = ("inv_mempool_info", "inv_bitmap", "inv_bitmap0", "inv_bitmapn")


def _premise_fns(dims: BuddyDims):
    return {
        "inv_mempool_info": lambda b: inv_mempool_info(dims, b),
        "inv_bitmap": lambda b: inv_bitmap(dims, b),
        "inv_bitmap0": lambda b: inv_bitmap0(dims, b),
        "inv_bitmapn": lambda b: inv_bitmapn(dims, b),
    }


def valid_assignment_estimate(dims: BuddyDims) -> int:
    """Count of premise-satisfying bitmap assignments (quadtree recurrence)."""

    def f(levels_left: int) -> int:
        if levels_left == 1:
            return len(MEMBLOCK)
        return len(MEMBLOCK) + f(levels_left - 1) ** 4

    return f(dims.n_levels) ** dims.n_max


def _estimate_detail(estimate: int) -> dict:
    """The estimate for a report: the number itself, or its count of
    decimal digits when it has more than Python converts to a string."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if not limit or estimate < 10**limit:
        return {"estimated_assignments": estimate}
    digits = max(0, int(estimate.bit_length() * math.log10(2)) - 1)
    while 10**digits <= estimate:
        digits += 1
    return {"estimated_assignments_digits": digits}


def _enumerate_bitmaps(dims: BuddyDims, drop: str | None, prefix: tuple = (),
                       depth: int | None = None):
    """Backtracking enumeration of bitmap assignments with early pruning of
    the (non-dropped) premises.  Cells are taken level by level, block by
    block.  Yields, in that order, the complete assignments that satisfy
    every premise except the dropped one and whose first cells are
    `prefix`.  With `depth`, yields instead the values of the first
    `depth` cells of those assignments, once each."""
    order = [(i, j) for i in range(dims.n_levels) for j in range(dims.bits_len(i))]
    bits = [[NOEXIST] * dims.bits_len(i) for i in range(dims.n_levels)]
    last = dims.n_levels - 1
    stop = len(order) if depth is None else depth

    def allowed(i: int, j: int) -> tuple[str, ...]:
        opts: tuple[str, ...] = BLOCK_STATES
        if drop != "inv_bitmap" and i > 0:
            parent = bits[i - 1][j // 4]
            if parent == DIVIDED:
                opts = tuple(o for o in opts if o != NOEXIST)
            else:  # memblock or NOEXIST parent
                opts = (NOEXIST,)
        if drop != "inv_bitmap0" and i == 0:
            opts = tuple(o for o in opts if o != NOEXIST)
        if drop != "inv_bitmapn" and i == last:
            opts = tuple(o for o in opts if o != DIVIDED)
        return opts

    def rec(pos: int):
        if pos == stop:
            if depth is None:
                yield [tuple(row) for row in bits]
            else:
                yield tuple(bits[i][j] for i, j in order[:depth])
            return
        i, j = order[pos]
        opts = allowed(i, j)
        if pos < len(prefix):
            opts = (prefix[pos],) if prefix[pos] in opts else ()
        for o in opts:
            bits[i][j] = o
            yield from rec(pos + 1)
        bits[i][j] = NOEXIST

    yield from rec(0)


def _oracle_tasks(dims: BuddyDims, drop: str | None) -> list[tuple]:
    """One task per value of the level-0 cells and the first level-1 cell,
    in enumeration order.  Splitting on the first cell alone leaves almost
    all the work in its DIVIDED chunk (66,560 of 67,600 assignments at
    n_max 2, n_levels 2); the level-1 cell splits that chunk four ways."""
    cells = sum(dims.bits_len(i) for i in range(dims.n_levels))
    depth = min(dims.bits_len(0) + 1, cells)
    return [(dims, drop, prefix) for prefix in _enumerate_bitmaps(dims, drop, depth=depth)]


def _oracle_chunk(args):
    """Worker: enumerate the assignments whose first cells are `prefix`, up
    to the third counterexample.  Returns the number examined and each
    counterexample with the count examined when it was found."""
    dims, drop, prefix = args
    examined = 0
    counterexamples = []
    fns = _premise_fns(dims)
    active = [p for p in PREMISES if p != drop]
    for bits in _enumerate_bitmaps(dims, drop, prefix):
        examined += 1
        if not all(fns[p](bits) for p in active):  # honest re-check of pruning
            raise AssertionError("pruning disagrees with the invariant predicates")
        if not mem_part(dims, bits):
            counterexamples.append((examined, bits))
            if len(counterexamples) >= 3:
                break
    return examined, counterexamples


def _merge_chunks(chunks) -> tuple[int, list]:
    """The examined count and the counterexamples of one search over all
    chunks, taken in enumeration order and stopped at the third
    counterexample, so that the report does not depend on the worker
    count."""
    examined, counterexamples = 0, []
    for ex, found in chunks:
        for at, bits in found:
            counterexamples.append(bits)
            if len(counterexamples) == 3:
                return examined + at, counterexamples
        examined += ex
    return examined, counterexamples


def partition_theorem_oracle(
    dims: BuddyDims,
    drop_premise: str | None = None,
    workers: int = 1,
    budget: int = 2_000_000,
) -> Verdict:
    """Enumerate every bitmap assignment satisfying the four structural
    premises (minus `drop_premise` when given) and assert the partition
    property on each.  PASS iff no counterexample exists."""
    check = "partition-oracle"
    if drop_premise is not None and drop_premise not in PREMISES:
        return diag(check, "unknown-premise", detail={"premise": drop_premise})
    estimate = valid_assignment_estimate(dims)
    if drop_premise is not None:
        estimate = 6 ** sum(dims.bits_len(i) for i in range(dims.n_levels))
    if estimate > budget:
        return diag(
            check,
            "dims-too-large",
            detail={**_estimate_detail(estimate), "budget": budget},
        )

    tasks = _oracle_tasks(dims, drop_premise)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            examined, counterexamples = _merge_chunks(pool.map(_oracle_chunk, tasks))
    else:
        examined, counterexamples = _merge_chunks(map(_oracle_chunk, tasks))

    if counterexamples:
        counterexamples.sort()
        return fail(
            check,
            "partition-violated",
            witness={"bits": counterexamples[0]},
            detail={"examined": examined, "dropped": drop_premise},
        )
    return ok(check, detail={"examined": examined, "dropped": drop_premise})


# ----------------------------------------------------------------------
# Kernel model: schema.
# ----------------------------------------------------------------------

GVARS_CONF = ("mem_pools", "max_sz", "n_max", "n_levels")
GVARS_MUT = ("levels", "wait_q", "cur", "tick", "thd_state")
LVAR_NAMES = (
    "lvl", "bn", "bb", "blk", "lsz", "lsizes", "i", "alloc_l", "free_l",
    "block_pt", "free_block_r", "need_resched", "alloc_retry", "got_block",
    "timed_out", "th", "freeing_node", "allocating_node", "ret",
    "mempoolalloc_ret", "end_time", "waiting_tmo", "cur_op", "cur_sz", "cur_tmo",
)


@dataclass
class BuddyLayout:
    dims: BuddyDims
    schema: Schema
    block_rec: RecType
    idx: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self.idx = dict(self.schema.index)
        self.tix = {t: k for k, t in enumerate(self.dims.threads)}

    def bits_of(self, s: tuple, level: int) -> tuple:
        return s[self.idx["levels"]][level][0]

    def free_list_of(self, s: tuple, level: int) -> tuple:
        return s[self.idx["levels"]][level][1]

    def all_bits(self, s: tuple) -> list[tuple]:
        return [lvl[0] for lvl in s[self.idx["levels"]]]

    def lvar(self, s: tuple, var: str, t: str):
        return s[self.idx[var]][self.tix[t]]


def build_schema(dims: BuddyDims) -> tuple[Schema, RecType]:
    n_thr = len(dims.threads)
    max_bits = dims.bits_len(dims.n_levels - 1)
    addr_t = IntType(0, dims.total_bytes() - 1)
    bits_t = SeqType(SymType(BLOCK_STATES), max_bits)
    flist_t = SeqType(addr_t, max_bits)
    level_rec = RecType((("bits", bits_t), ("free_list", flist_t)))
    block_rec = RecType(
        (
            ("level", IntType(0, dims.n_levels - 1)),
            ("block", IntType(0, max_bits - 1)),
            ("data", addr_t),
        )
    )
    thr_sym = SymType(dims.threads)

    def per_thread(t, dflt):
        return RecType(tuple((th, t) for th in dims.threads)), tuple(
            dflt for _ in dims.threads
        )

    init_levels = []
    for i in range(dims.n_levels):
        if i == 0:
            bits = tuple([FREE] * dims.bits_len(0))
            flist = tuple(r * dims.max_sz for r in range(dims.n_max))
        else:
            bits = tuple([NOEXIST] * dims.bits_len(i))
            flist = ()
        init_levels.append((bits, flist))

    max_tmo = max((x for x in dims.timeouts if x > 0), default=0)
    int_t = IntType
    decls: list[tuple[str, Any, Any]] = [
        ("mem_pools", SeqType(SymType(("p1",)), 1), ("p1",)),
        ("max_sz", int_t(dims.max_sz, dims.max_sz), dims.max_sz),
        ("n_max", int_t(dims.n_max, dims.n_max), dims.n_max),
        ("n_levels", int_t(dims.n_levels, dims.n_levels), dims.n_levels),
        ("levels", SeqType(level_rec, dims.n_levels), tuple(init_levels)),
        ("wait_q", SeqType(thr_sym, n_thr), ()),
        ("cur", OptType(thr_sym), None),
        ("tick", int_t(0, dims.tick_max), 0),
    ]
    ts_rec, ts_init = per_thread(SymType((READY, BLOCKED, RUNNING)), READY)
    decls.append(("thd_state", ts_rec, ts_init))
    lvl_t = int_t(0, dims.n_levels - 1)
    bnum_t = int_t(0, max_bits - 1)
    for name, t, dflt in [
        ("lvl", lvl_t, 0),
        ("bn", bnum_t, 0),
        ("bb", bnum_t, 0),
        ("blk", addr_t, 0),
        ("lsz", int_t(0, dims.max_sz), 0),
        ("lsizes", SeqType(int_t(0, dims.max_sz), dims.n_levels), ()),
        ("i", int_t(0, 4), 0),
        ("alloc_l", int_t(-1, dims.n_levels - 1), -1),
        ("free_l", int_t(-1, dims.n_levels - 1), -1),
        ("block_pt", addr_t, 0),
        ("free_block_r", BoolType(), False),
        ("need_resched", BoolType(), False),
        ("alloc_retry", BoolType(), False),
        ("got_block", BoolType(), False),
        ("timed_out", BoolType(), False),
        ("th", OptType(thr_sym), None),
        ("freeing_node", OptType(block_rec), None),
        ("allocating_node", OptType(block_rec), None),
        ("ret", SymType(RETS), NORET),
        ("mempoolalloc_ret", OptType(block_rec), None),
        ("end_time", int_t(0, dims.tick_max + max_tmo), 0),
        ("waiting_tmo", int_t(min(dims.timeouts), max(max(dims.timeouts), 0)), 0),
        ("cur_op", SymType(("none", "alloc", "free")), "none"),
        ("cur_sz", int_t(0, max(dims.alloc_sizes)), 0),
        ("cur_tmo", int_t(min(dims.timeouts), max(max(dims.timeouts), 0)), 0),
    ]:
        rec_t, rec_init = per_thread(t, dflt)
        decls.append((name, rec_t, rec_init))
    return Schema(decls), block_rec


# ----------------------------------------------------------------------
# Kernel-state invariants and properties.
# ----------------------------------------------------------------------


def kernel_inv(layout: BuddyLayout) -> Callable[[tuple], bool]:
    """The structural invariant: consistent configuration, well-shaped
    bitmaps, and the partition property; memoized on the pool value."""
    dims = layout.dims
    cache: dict = {}

    def check(s: tuple) -> bool:
        key = s[layout.idx["levels"]]
        hit = cache.get(key)
        if hit is None:
            bits = layout.all_bits(s)
            hit = (
                inv_mempool_info(dims, bits)
                and inv_bitmap(dims, bits)
                and inv_bitmap0(dims, bits)
                and inv_bitmapn(dims, bits)
                and mem_part(dims, bits)
            )
            cache[key] = hit
        return hit

    return check


def quiescent(layout: BuddyLayout) -> Callable[[tuple], bool]:
    def check(s: tuple) -> bool:
        for t in layout.dims.threads:
            if layout.lvar(s, "freeing_node", t) is not None:
                return False
            if layout.lvar(s, "allocating_node", t) is not None:
                return False
        return True

    return check


def no_partner_fragmentation(layout: BuddyLayout) -> Callable[[tuple], bool]:
    """No group of four FREE partner bits below the root level."""
    dims = layout.dims

    def check(s: tuple) -> bool:
        for i in range(1, dims.n_levels):
            bits = layout.bits_of(s, i)
            for g in range(0, len(bits), 4):
                if all(bits[g + c] == FREE for c in range(4)):
                    return False
        return True

    return check


def free_list_valid(layout: BuddyLayout) -> Callable[[tuple], bool]:
    """Free lists hold exactly the FREE blocks' addresses, distinct and
    aligned to the level's block size."""
    dims = layout.dims

    def check(s: tuple) -> bool:
        for i in range(dims.n_levels):
            size = dims.level_size(i)
            bits = layout.bits_of(s, i)
            flist = layout.free_list_of(s, i)
            if len(set(flist)) != len(flist):
                return False
            listed = set()
            for addr in flist:
                if addr % size != 0 or addr // size >= len(bits):
                    return False
                listed.add(addr // size)
            for j, b in enumerate(bits):
                if (b == FREE) != (j in listed):
                    return False
        return True

    return check


def gvars_conf_stable(layout: BuddyLayout, s: tuple, r: tuple) -> bool:
    return all(s[layout.idx[v]] == r[layout.idx[v]] for v in GVARS_CONF)


def gvars_nochange(layout: BuddyLayout, s: tuple, r: tuple) -> bool:
    return all(s[layout.idx[v]] == r[layout.idx[v]] for v in GVARS_CONF + GVARS_MUT)


def lvars_nochange(layout: BuddyLayout, t: str, s: tuple, r: tuple) -> bool:
    k = layout.tix[t]
    return all(s[layout.idx[v]][k] == r[layout.idx[v]][k] for v in LVAR_NAMES)


def thread_guarantee(layout: BuddyLayout, t: str) -> RelDesc:
    """Identity, or: configuration stable; a descheduled thread changes
    nothing; a scheduled step preserves the structural invariant; other
    threads' locals never change."""
    inv = kernel_inv(layout)
    cur_i = layout.idx["cur"]

    def pred(s: tuple, r: tuple) -> bool:
        if s == r:
            return True
        if not gvars_conf_stable(layout, s, r):
            return False
        if s[cur_i] != (t,):
            if not (gvars_nochange(layout, s, r) and lvars_nochange(layout, t, s, r)):
                return False
        else:
            if inv(s) and not inv(r):
                return False
        for t2 in layout.dims.threads:
            if t2 != t and not lvars_nochange(layout, t2, s, r):
                return False
        return True

    return RelDesc(layout.schema, "pred", pair_pred=pred, name=f"guarantee[{t}]")


def mblk_valid(layout: BuddyLayout, s: tuple, sz: int, mblk: tuple) -> bool:
    dims = layout.dims
    level, block, data = mblk
    if not (0 <= level < dims.n_levels):
        return False
    if not (0 <= block < dims.bits_len(level)):
        return False
    size = dims.level_size(level)
    return data == size * block and size >= sz


def alloc_post(layout: BuddyLayout, t: str, sz: int, tmo: int) -> StateSet:
    """Case split on the timeout mode: OK with a valid block, or the
    mode's failure return with no block."""
    inv = kernel_inv(layout)

    def pred(s: tuple) -> bool:
        if not inv(s):
            return False
        if layout.lvar(s, "allocating_node", t) is not None:
            return False
        if layout.lvar(s, "freeing_node", t) is not None:
            return False
        ret = layout.lvar(s, "ret", t)
        mpr = layout.lvar(s, "mempoolalloc_ret", t)
        success = (
            ret == OK_RET and mpr is not None and mblk_valid(layout, s, sz, mpr[0])
        )
        if tmo == FOREVER:
            return success or (ret == ESIZEERR and mpr is None)
        if tmo == NOWAIT:
            return success or (ret in (ENOMEM, ESIZEERR) and mpr is None)
        return success or (ret in (ETIMEOUT, ESIZEERR) and mpr is None)

    return StateSet(layout.schema, native=pred, name=f"alloc_post[{t},{sz},{tmo}]")


def free_post(layout: BuddyLayout, t: str) -> StateSet:
    inv = kernel_inv(layout)

    def pred(s: tuple) -> bool:
        return (
            inv(s)
            and layout.lvar(s, "allocating_node", t) is None
            and layout.lvar(s, "freeing_node", t) is None
        )

    return StateSet(layout.schema, native=pred, name=f"free_post[{t}]")


# ----------------------------------------------------------------------
# Expression/program construction helpers.
# ----------------------------------------------------------------------


def _lit(v) -> Lit:
    return Lit(v)


def _and(*xs: Expr) -> Expr:
    out = xs[0]
    for x in xs[1:]:
        out = BoolOp("AND", out, x)
    return out


def _eq(a: Expr, b: Expr) -> Expr:
    return Cmp("=", a, b)


def _add(a, b) -> Expr:
    return Arith("+", a, b)


def _mul(a, b) -> Expr:
    return Arith("*", a, b)


def _div(a, b) -> Expr:
    return Arith("DIV", a, b)


class _B:
    """Body builder for one thread: thread-guarded statements, pool access."""

    def __init__(self, layout: BuddyLayout, t: str):
        self.layout = layout
        self.t = t
        self.schema = layout.schema

    # thread-local access -------------------------------------------------
    def L(self, var: str) -> Expr:
        return Field(Var(var), self.t)

    def setL(self, var: str, e: Expr) -> tuple:
        return (var, RecWith(Var(var), self.t, e))

    # pool access ---------------------------------------------------------
    def bits(self, lvl: Expr) -> Expr:
        return Field(Index(Var("levels"), lvl), "bits")

    def flist(self, lvl: Expr) -> Expr:
        return Field(Index(Var("levels"), lvl), "free_list")

    def set_bit(self, lvl: Expr, j: Expr, state: str) -> tuple:
        lev = Index(Var("levels"), lvl)
        new = RecWith(lev, "bits", UpdateE(Field(lev, "bits"), j, _lit(state)))
        return ("levels", UpdateE(Var("levels"), lvl, new))

    def append_flist(self, lvl: Expr, addr: Expr) -> tuple:
        lev = Index(Var("levels"), lvl)
        new = RecWith(lev, "free_list", AppendE(Field(lev, "free_list"), addr))
        return ("levels", UpdateE(Var("levels"), lvl, new))

    def remove_flist(self, lvl: Expr, addr: Expr) -> tuple:
        lev = Index(Var("levels"), lvl)
        new = RecWith(lev, "free_list", RemoveE(Field(lev, "free_list"), addr))
        return ("levels", UpdateE(Var("levels"), lvl, new))

    def partner_bits_free(self, lvl: Expr, bn: Expr) -> Expr:
        group = _mul(_div(bn, _lit(4)), _lit(4))
        return ForallLt(
            "pk",
            _lit(4),
            _eq(Index(self.bits(lvl), _add(group, Var("pk"))), _lit(FREE)),
        )

    def block_fits(self, addr: Expr, sz: Expr) -> Expr:
        return Cmp("<=", _add(addr, sz), _lit(self.layout.dims.total_bytes()))

    def scheduled(self) -> Expr:
        return _eq(Var("cur"), MkSome(_lit(self.t)))

    # statement forms -----------------------------------------------------
    def guarded(self, *assigns: tuple) -> Await:
        """t |> multi-assignment: one step, only when scheduled."""
        return Await(StateSet(self.schema, self.scheduled()), Basic(tuple(assigns)))

    def guarded_prog(self, body) -> Await:
        return Await(StateSet(self.schema, self.scheduled()), body)

    def guarded_await(self, cond: Expr, body) -> Await:
        return Await(StateSet(self.schema, _and(self.scheduled(), cond)), body)

    def cond(self, c: Expr, then, other=None):
        return Cond(StateSet(self.schema, c), then, other if other is not None else Basic(()))

    def for_loop(self, init, cond: Expr, inc, body):
        """FOR init; cond; inc DO body ROF desugars to init ;; WHILE."""
        return PSeq(init, While(StateSet(self.schema, cond), PSeq(body, inc)))

    def seq(self, *stmts):
        out = stmts[-1]
        for st in reversed(stmts[:-1]):
            out = PSeq(st, out)
        return out

    def mkblock(self, lvl: Expr, bn: Expr, data: Expr) -> Expr:
        return MkSome(MkRec((("level", lvl), ("block", bn), ("data", data))))


def _scratch_reset(b: _B) -> Await:
    """Return every local to its initial value as the body's final step, so
    event iterations converge to one local state.  Service postconditions
    are checked at this step's source configuration (the completion
    moment), which is where ret/mempoolalloc_ret still carry the result."""
    return b.guarded(
        b.setL("lvl", _lit(0)),
        b.setL("bn", _lit(0)),
        b.setL("bb", _lit(0)),
        b.setL("blk", _lit(0)),
        b.setL("lsz", _lit(0)),
        b.setL("lsizes", MkSeq(())),
        b.setL("i", _lit(0)),
        b.setL("alloc_l", _lit(-1)),
        b.setL("free_l", _lit(-1)),
        b.setL("block_pt", _lit(0)),
        b.setL("got_block", _lit(False)),
        b.setL("th", NoneLit()),
        b.setL("end_time", _lit(0)),
        b.setL("waiting_tmo", _lit(0)),
        b.setL("need_resched", _lit(False)),
        b.setL("timed_out", _lit(False)),
        b.setL("ret", _lit(NORET)),
        b.setL("mempoolalloc_ret", NoneLit()),
        b.setL("cur_op", _lit("none")),
        b.setL("cur_sz", _lit(0)),
        b.setL("cur_tmo", _lit(0)),
    )


def build_free_body(layout: BuddyLayout, t: str, level: int, block: int):
    """The release service for one block instance: mark FREEING under an
    await on the block being ALLOCATED, build the level-size table, run
    the coalescing loop, wake all waiters.

    Statement groups that read and write only this thread's locals are
    folded into single guarded steps: interleaving on thread-local state
    is unobservable to every checked property, and the folding is what
    keeps the closed two-thread product at desk scale."""
    b = _B(layout, t)
    dims = layout.dims
    data = dims.level_size(level) * block

    mark = b.guarded_await(
        _eq(Index(b.bits(_lit(level)), _lit(block)), _lit(ALLOCATED)),
        Basic(
            (
                b.set_bit(_lit(level), _lit(block), FREEING),
                b.setL("freeing_node", b.mkblock(_lit(level), _lit(block), _lit(data))),
                b.setL("cur_op", _lit("free")),
                b.setL("need_resched", _lit(False)),
            )
        ),
    )
    # lsizes table: local-only computation, one guarded step
    build_sizes = b.guarded_prog(
        b.seq(
            Basic((b.setL("lsizes", MkSeq((_lit(dims.max_sz),))),)),
            b.for_loop(
                Basic((b.setL("i", _lit(1)),)),
                Cmp("<=", b.L("i"), _lit(level)),
                Basic((b.setL("i", _add(b.L("i"), _lit(1))),)),
                Basic(
                    (
                        b.setL(
                            "lsizes",
                            AppendE(
                                b.L("lsizes"),
                                _div(Index(b.L("lsizes"), Arith("-", b.L("i"), _lit(1))), _lit(4)),
                            ),
                        ),
                    )
                ),
            ),
        )
    )
    start_loop = b.guarded(
        b.setL("free_block_r", _lit(True)),
        b.setL("bn", _lit(block)),
        b.setL("lvl", _lit(level)),
    )
    loop = While(StateSet(layout.schema, b.L("free_block_r")), build_free_loop_body(layout, t))
    wake = build_wake_atom(layout, t)
    return b.seq(mark, build_sizes, start_loop, loop, wake, _scratch_reset(b))


def build_free_loop_body(layout: BuddyLayout, t: str, no_decrease: bool = False):
    """One pass of the coalescing loop: read the level size and block
    address (thread-local reads, folded into the atomic section), then
    free the bit and either merge four FREE partners one level up or
    append to the free list and stop.

    `no_decrease` builds the variant-broken mutant (level never drops)."""
    b = _B(layout, t)
    lsz = Basic((b.setL("lsz", Index(b.L("lsizes"), b.L("lvl"))),))
    blk = Basic((b.setL("blk", _mul(b.L("lsz"), b.L("bn"))),))

    merge_for = b.for_loop(
        Basic((b.setL("i", _lit(0)),)),
        Cmp("<", b.L("i"), _lit(4)),
        Basic((b.setL("i", _add(b.L("i"), _lit(1))),)),
        b.seq(
            Basic((b.setL("bb", _add(_mul(_div(b.L("bn"), _lit(4)), _lit(4)), b.L("i"))),)),
            Basic((b.set_bit(b.L("lvl"), b.L("bb"), NOEXIST),)),
            Basic((b.setL("block_pt", _mul(b.L("lsz"), b.L("bb"))),)),
            b.cond(
                _and(Cmp("!=", b.L("bn"), b.L("bb")), b.block_fits(b.L("block_pt"), b.L("lsz"))),
                Basic((b.remove_flist(b.L("lvl"), b.L("block_pt")),)),
            ),
        ),
    )
    new_lvl = b.L("lvl") if no_decrease else Arith("-", b.L("lvl"), _lit(1))
    merge_then = b.seq(
        merge_for,
        Basic((b.setL("lvl", new_lvl),)),
        Basic((b.setL("bn", _div(b.L("bn"), _lit(4))),)),
        Basic((b.set_bit(b.L("lvl"), b.L("bn"), FREEING),)),
        Basic(
            (
                b.setL(
                    "freeing_node",
                    b.mkblock(
                        b.L("lvl"),
                        b.L("bn"),
                        _mul(_div(_lit(layout.dims.max_sz), Arith("^", _lit(4), b.L("lvl"))), b.L("bn")),
                    ),
                ),
            )
        ),
    )
    merge_else = b.seq(
        b.cond(
            b.block_fits(b.L("blk"), b.L("lsz")),
            Basic((b.append_flist(b.L("lvl"), b.L("blk")),)),
        ),
        Basic((b.setL("free_block_r", _lit(False)),)),
    )
    return b.guarded_prog(
        b.seq(
            lsz,
            blk,
            Basic((b.set_bit(b.L("lvl"), b.L("bn"), FREE),)),
            Basic((b.setL("freeing_node", NoneLit()),)),
            b.cond(
                _and(Cmp(">", b.L("lvl"), _lit(0)), b.partner_bits_free(b.L("lvl"), b.L("bn"))),
                merge_then,
                merge_else,
            ),
        )
    )


def build_wake_atom(layout: BuddyLayout, t: str):
    """Wake every waiter (head first), then yield when a wake happened."""
    b = _B(layout, t)
    body = b.seq(
        While(
            StateSet(layout.schema, Cmp("!=", Var("wait_q"), MkSeq(()))),
            b.seq(
                Basic((b.setL("th", MkSome(HeadE(Var("wait_q")))),)),
                Basic((("wait_q", TailE(Var("wait_q"))),)),
                Basic(
                    (
                        (
                            "thd_state",
                            RecWithDyn(
                                Var("thd_state"),
                                TheOpt(b.L("th")),
                                _lit(READY),
                            ),
                        ),
                    )
                ),
                Basic((b.setL("need_resched", _lit(True)),)),
            ),
        ),
        b.cond(b.L("need_resched"), Basic((("cur", NoneLit()),))),
    )
    return b.guarded_prog(body)


def build_alloc_body(layout: BuddyLayout, t: str, sz: int, tmo: int):
    """The allocation service: compute the level-size table and the target
    level, atomically grab the deepest free block at or above it, split
    down while holding the ALLOCATING marker, and either return the block
    or fail/pend according to the timeout mode."""
    b = _B(layout, t)
    dims = layout.dims

    init = b.guarded(
        b.setL("mempoolalloc_ret", NoneLit()),
        b.setL("ret", _lit(NORET)),
        b.setL("alloc_retry", _lit(True)),
        b.setL("timed_out", _lit(False)),
        b.setL("cur_op", _lit("alloc")),
        b.setL("cur_sz", _lit(sz)),
        b.setL("cur_tmo", _lit(tmo)),
    )

    # level sizes and the target level: local-only setup, one guarded step
    setup = b.guarded_prog(
        b.seq(
            Basic((b.setL("lsizes", MkSeq((_lit(dims.max_sz),))), b.setL("alloc_l", _lit(-1)))),
            b.for_loop(
                Basic((b.setL("i", _lit(1)),)),
                Cmp("<", b.L("i"), _lit(dims.n_levels)),
                Basic((b.setL("i", _add(b.L("i"), _lit(1))),)),
                Basic(
                    (
                        b.setL(
                            "lsizes",
                            AppendE(
                                b.L("lsizes"),
                                _div(Index(b.L("lsizes"), Arith("-", b.L("i"), _lit(1))), _lit(4)),
                            ),
                        ),
                    )
                ),
            ),
            b.for_loop(
                Basic((b.setL("i", _lit(0)),)),
                Cmp("<", b.L("i"), _lit(dims.n_levels)),
                Basic((b.setL("i", _add(b.L("i"), _lit(1))),)),
                b.cond(
                    Cmp(">=", Index(b.L("lsizes"), b.L("i")), _lit(sz)),
                    Basic((b.setL("alloc_l", b.L("i")),)),
                ),
            ),
        )
    )

    grab = b.guarded_prog(
        b.seq(
            Basic((b.setL("free_l", _lit(-1)),)),
            b.for_loop(
                Basic((b.setL("i", _lit(0)),)),
                Cmp("<=", b.L("i"), b.L("alloc_l")),
                Basic((b.setL("i", _add(b.L("i"), _lit(1))),)),
                b.cond(
                    Cmp("!=", b.flist(b.L("i")), MkSeq(())),
                    Basic((b.setL("free_l", b.L("i")),)),
                ),
            ),
            b.cond(
                Cmp(">=", b.L("free_l"), _lit(0)),
                b.seq(
                    Basic((b.setL("blk", HeadE(b.flist(b.L("free_l")))),)),
                    Basic((b.remove_flist(b.L("free_l"), b.L("blk")),)),
                    Basic((b.setL("lvl", b.L("free_l")),)),
                    Basic((b.setL("bn", _div(b.L("blk"), Index(b.L("lsizes"), b.L("free_l")))),)),
                    Basic((b.set_bit(b.L("lvl"), b.L("bn"), ALLOCATING),)),
                    Basic((b.setL("allocating_node", b.mkblock(b.L("lvl"), b.L("bn"), b.L("blk"))),)),
                    Basic((b.setL("got_block", _lit(True)),)),
                ),
                Basic((b.setL("got_block", _lit(False)),)),
            ),
        )
    )

    child = _add(_mul(_lit(4), b.L("bn")), b.L("i"))
    child_sz = Index(b.L("lsizes"), _add(b.L("lvl"), _lit(1)))
    split_atom = b.guarded_prog(
        b.seq(
            Basic((b.set_bit(b.L("lvl"), b.L("bn"), DIVIDED),)),
            b.for_loop(
                Basic((b.setL("i", _lit(1)),)),
                Cmp("<", b.L("i"), _lit(4)),
                Basic((b.setL("i", _add(b.L("i"), _lit(1))),)),
                b.seq(
                    Basic((b.set_bit(_add(b.L("lvl"), _lit(1)), child, FREE),)),
                    b.cond(
                        b.block_fits(_mul(child, child_sz), child_sz),
                        Basic((b.append_flist(_add(b.L("lvl"), _lit(1)), _mul(child, child_sz)),)),
                    ),
                ),
            ),
            Basic((b.setL("lvl", _add(b.L("lvl"), _lit(1))),)),
            Basic((b.setL("bn", _mul(_lit(4), b.L("bn"))),)),
            Basic((b.set_bit(b.L("lvl"), b.L("bn"), ALLOCATING),)),
            Basic((b.setL("allocating_node", b.mkblock(b.L("lvl"), b.L("bn"), b.L("blk"))),)),
        )
    )
    split_loop = While(
        StateSet(layout.schema, Cmp("<", b.L("lvl"), b.L("alloc_l"))), split_atom
    )

    finish = b.guarded_prog(
        b.seq(
            Basic((b.set_bit(b.L("lvl"), b.L("bn"), ALLOCATED),)),
            Basic(
                (
                    b.setL("allocating_node", NoneLit()),
                    b.setL("mempoolalloc_ret", b.mkblock(b.L("lvl"), b.L("bn"), b.L("blk"))),
                    b.setL("ret", _lit(OK_RET)),
                    b.setL("alloc_retry", _lit(False)),
                )
            ),
        )
    )

    nomem_exit = b.guarded(
        b.setL("ret", _lit(ENOMEM)),
        b.setL("mempoolalloc_ret", NoneLit()),
        b.setL("alloc_retry", _lit(False)),
    )

    pend_assigns = [
        ("thd_state", RecWith(Var("thd_state"), t, _lit(BLOCKED))),
        ("wait_q", AppendE(Var("wait_q"), _lit(t))),
        b.setL("waiting_tmo", _lit(tmo)),
        b.setL("timed_out", _lit(False)),
        ("cur", NoneLit()),
    ]
    if tmo > 0:
        pend_assigns.insert(3, b.setL("end_time", _add(Var("tick"), _lit(tmo))))
    pend = b.guarded(*pend_assigns)
    resume_check = b.guarded_prog(
        b.cond(
            b.L("timed_out"),
            Basic(
                (
                    b.setL("ret", _lit(ETIMEOUT)),
                    b.setL("mempoolalloc_ret", NoneLit()),
                    b.setL("alloc_retry", _lit(False)),
                )
            ),
        )
    )
    wait_path = b.seq(pend, resume_check) if tmo > 0 else pend

    attempt = b.cond(
        Cmp("<", b.L("alloc_l"), _lit(0)),
        b.guarded(
            b.setL("ret", _lit(ESIZEERR)),
            b.setL("mempoolalloc_ret", NoneLit()),
            b.setL("alloc_retry", _lit(False)),
        ),
        b.seq(
            grab,
            b.cond(
                b.L("got_block"),
                b.seq(split_loop, finish),
                nomem_exit if tmo == NOWAIT else wait_path,
            ),
        ),
    )

    loop = While(
        StateSet(layout.schema, b.L("alloc_retry")),
        b.seq(setup, attempt),
    )
    return b.seq(init, loop, _scratch_reset(b))


# ----------------------------------------------------------------------
# Scheduler and the kernel model.
# ----------------------------------------------------------------------


def build_sched_events(layout: BuddyLayout) -> tuple[EventSet, EventSet]:
    schema = layout.schema
    sched = []
    timeout = []
    for t in layout.dims.threads:
        guard = _and(
            _eq(Field(Var("thd_state"), t), _lit(READY)),
            Cmp("!=", Var("cur"), MkSome(_lit(t))),
        )
        sched.append(
            EventSpec(f"sched({t})", StateSet(schema, guard), Basic((("cur", MkSome(_lit(t))),)))
        )
        tguard = _and(
            _eq(Field(Var("thd_state"), t), _lit(BLOCKED)),
            Cmp(">=", Field(Var("waiting_tmo"), t), _lit(1)),
            Cmp(">=", Var("tick"), Field(Var("end_time"), t)),
        )
        timeout.append(
            EventSpec(
                f"timeout({t})",
                StateSet(schema, tguard),
                Basic(
                    (
                        ("thd_state", RecWith(Var("thd_state"), t, _lit(READY))),
                        ("wait_q", RemoveE(Var("wait_q"), _lit(t))),
                        ("timed_out", RecWith(Var("timed_out"), t, _lit(True))),
                    )
                ),
            )
        )
    return EventSet(tuple(sched)), EventSet(tuple(timeout))


@dataclass
class BuddyModel:
    dims: BuddyDims
    layout: BuddyLayout
    ctx: Ctx
    pes: ParallelEventSystem
    rely: RelDesc  # environment of the whole kernel: clock advance
    thread_systems: dict[str, EventSystem]
    alloc_instances: dict[str, list[tuple[int, int]]]  # thread -> (sz, tmo)
    invariants: dict[str, Callable[[tuple], bool]]
    guarantees: dict[str, RelDesc]

    def initial_state(self) -> tuple:
        return self.layout.schema.initial_state()


def estimate_build_cost(dims: BuddyDims) -> int:
    per_thread = (
        len(dims.alloc_sizes) * len(dims.timeouts) * 40
        + len(dims.free_blocks) * 25
    )
    return (
        valid_assignment_estimate(dims)
        * per_thread ** len(dims.threads)
        * (dims.tick_max + 1)
    )


def build_kernel_model(dims: BuddyDims | None = None, force: bool = False) -> BuddyModel:
    """Assemble the parallel event system: one iterated alloc/free choice
    per thread plus the atomic scheduler, with the clock advanced by the
    environment rely."""
    dims = dims or BuddyDims()
    if not dims.consistent():
        raise ValueError(f"inconsistent pool configuration: {dims}")
    for level, block in dims.free_blocks:
        if not (0 <= level < dims.n_levels and 0 <= block < dims.bits_len(level)):
            raise ValueError(f"free block ({level},{block}) out of range")
    est = estimate_build_cost(dims)
    if est > 50_000_000 and not force:
        raise ValueError(
            f"dims too large for desk-scale checking (cost estimate {est}); "
            "pass force=True to override"
        )

    schema, block_rec = build_schema(dims)
    layout = BuddyLayout(dims, schema, block_rec)
    ctx = Ctx(AdapterContext(schema), IMP_ADAPTER)

    thread_systems: dict[str, EventSystem] = {}
    alloc_instances: dict[str, list] = {}
    always = StateSet(schema, Lit(True))
    for t in dims.threads:
        frees = []
        for level, block in dims.free_blocks:
            data = dims.level_size(level) * block
            guard = _and(
                Cmp("=", Var("mem_pools"), MkSeq((Lit("p1"),))),
                Cmp("<", Lit(level), Len(Var("levels"))),
                Cmp("<", Lit(block), Len(Field(Index(Var("levels"), Lit(level)), "bits"))),
                Cmp(
                    "=",
                    Lit(data),
                    _mul(_div(Lit(dims.max_sz), Arith("^", Lit(4), Lit(level))), Lit(block)),
                ),
            )
            frees.append(
                EventSpec(
                    f"mem_pool_free({{level: {level}, block: {block}, data: {data}}})",
                    StateSet(schema, guard),
                    build_free_body(layout, t, level, block),
                )
            )
        allocs = []
        for sz in dims.alloc_sizes:
            for tmo in dims.timeouts:
                guard = Cmp("=", Var("mem_pools"), MkSeq((Lit("p1"),)))
                allocs.append(
                    EventSpec(
                        f"mem_pool_alloc(p1, {sz}, {tmo})",
                        StateSet(schema, guard),
                        build_alloc_body(layout, t, sz, tmo),
                    )
                )
        arms = []
        if frees:
            arms.append(EsBasic(EventSet(tuple(frees))))
        if allocs:
            arms.append(EsBasic(EventSet(tuple(allocs))))
        if not arms:
            raise ValueError("a thread system needs at least one event")
        thread_systems[t] = EsIter(
            always, EsChoice(arms[0], arms[1]) if len(arms) == 2 else arms[0]
        )
        alloc_instances[t] = [(sz, tmo) for sz in dims.alloc_sizes for tmo in dims.timeouts]

    sched_set, timeout_set = build_sched_events(layout)
    sched_sys = EsIter(always, EsChoice(EsAtomic(sched_set), EsAtomic(timeout_set)))

    systems = tuple(
        sorted([(t, thread_systems[t]) for t in dims.threads] + [("sched", sched_sys)])
    )
    pes = ParallelEventSystem(systems)

    rely = RelDesc(
        schema,
        "rules",
        rules=(
            RelRule(
                StateSet(schema, Cmp("<", Var("tick"), Lit(dims.tick_max))),
                (("tick", _add(Var("tick"), Lit(1))),),
            ),
        ),
        includes_identity=False,
        name="clock-advance",
    )

    invariants = {
        "inv": kernel_inv(layout),
        "quiescent": quiescent(layout),
        "no_partner_fragmentation": no_partner_fragmentation(layout),
        "free_list_valid": free_list_valid(layout),
    }
    guarantees = {t: thread_guarantee(layout, t) for t in dims.threads}
    return BuddyModel(
        dims, layout, ctx, pes, rely, thread_systems,
        alloc_instances, invariants, guarantees,
    )


# ----------------------------------------------------------------------
# Loop-variant family for the release loop.
# ----------------------------------------------------------------------


def mp_free_loopinv(layout: BuddyLayout, t: str) -> Callable[[int], StateSet]:
    """Variant-indexed invariant for the coalescing loop: the variant is
    the held block's level plus one while a node is being freed, zero
    once the node is released."""
    dims = layout.dims
    inv = kernel_inv(layout)

    def family(alpha: int) -> StateSet:
        def pred(s: tuple) -> bool:
            if not inv(s):
                return False
            if layout.schema.get(s, "cur") != (t,):
                return False
            lsizes = layout.lvar(s, "lsizes", t)
            lvl = layout.lvar(s, "lvl", t)
            bn = layout.lvar(s, "bn", t)
            fbr = layout.lvar(s, "free_block_r", t)
            node = layout.lvar(s, "freeing_node", t)
            if not lsizes or lvl >= len(lsizes):
                return False
            if any(lsizes[ii] != dims.max_sz // 4**ii for ii in range(len(lsizes))):
                return False
            if bn >= len(layout.bits_of(s, lvl)):
                return False
            if fbr:
                if node is None:
                    return False
                level_n, block_n, data_n = node[0]
                if not (level_n == lvl and block_n == bn):
                    return False
                if layout.bits_of(s, lvl)[bn] != FREEING:
                    return False
                if data_n != dims.level_size(lvl) * bn:
                    return False
            else:
                if node is not None:
                    return False
            return alpha == (lvl + 1 if node is not None else 0)

        return StateSet(layout.schema, native=pred, name=f"mp_free_loopinv[{t},{alpha}]")

    return family
