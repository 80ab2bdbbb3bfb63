from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mem_part_oracle import mem_part as per_byte_mem_part
from rgkit import buddy
from rgkit.buddy import (
    ALLOCATED,
    ALLOCATING,
    BLOCK_STATES,
    BuddyDims,
    DIVIDED,
    FREE,
    FREEING,
    NOEXIST,
    build_kernel_model,
    inv_bitmap,
    inv_bitmap0,
    inv_bitmapn,
    inv_mempool_info,
    mem_part,
    mp_free_loopinv,
    PREMISES,
    _enumerate_bitmaps,
    _oracle_tasks,
    partition_theorem_oracle,
    valid_assignment_estimate,
)
from rgkit import buddy_checks
from rgkit.buddy_checks import analyze_kernel
from rgkit.checker import Universe, check_loop_variant
from rgkit.relations import StateSet, identity_rel, univ_rel
from rgkit.semantics import build_graph, step_pes


D12 = BuddyDims(n_max=1, n_levels=2)


def bits(level0, level1):
    return [tuple(level0), tuple(level1)]


def test_undivided_root_satisfies_all():
    b = bits([FREE], [NOEXIST] * 4)
    assert inv_mempool_info(D12, b)
    assert inv_bitmap(D12, b)
    assert inv_bitmap0(D12, b)
    assert inv_bitmapn(D12, b)
    assert mem_part(D12, b)


def test_divided_root_with_children():
    b = bits([DIVIDED], [FREE, ALLOCATED, FREE, FREE])
    assert inv_bitmap(D12, b) and mem_part(D12, b)


def test_child_of_existing_block_must_not_exist():
    b = bits([FREE], [FREE, NOEXIST, NOEXIST, NOEXIST])
    assert not inv_bitmap(D12, b)


def test_divided_without_children_loses_coverage():
    b = bits([DIVIDED], [NOEXIST] * 4)
    assert not inv_bitmap(D12, b)  # NOEXIST child of a DIVIDED parent
    assert not mem_part(D12, b)


def test_mid_operation_bits_are_blocks():
    b = bits([DIVIDED], [ALLOCATING, FREEING, FREE, ALLOCATED])
    assert inv_bitmap(D12, b) and mem_part(D12, b)


def test_partition_oracle_small_dims():
    v = partition_theorem_oracle(D12)
    assert v.passed and v.detail["examined"] == 260
    assert valid_assignment_estimate(D12) == 260


def test_partition_oracle_premise_necessity():
    v = partition_theorem_oracle(D12, drop_premise="inv_bitmapn")
    assert v.failed and v.clause == "partition-violated"
    v2 = partition_theorem_oracle(D12, drop_premise="inv_bitmap0")
    assert v2.failed


@pytest.mark.parametrize("dims, drop", [
    *((D12, drop) for drop in (None, *PREMISES)),
    (BuddyDims(n_max=1, n_levels=1, max_sz=16), None),
    (BuddyDims(n_max=2, n_levels=2), None),
])
def test_oracle_tasks_cover_the_enumeration_in_order(dims, drop):
    """The oracle's tasks, one per prefix of level-0 cells and the first
    level-1 cell, enumerate together exactly the single search, in its
    order, so the ordered merge sees what one search sees."""
    tasks = _oracle_tasks(dims, drop)
    chunks = [list(_enumerate_bitmaps(d, dr, prefix)) for d, dr, prefix in tasks]
    assert [b for chunk in chunks for b in chunk] == list(_enumerate_bitmaps(dims, drop))
    assert all(chunks)
    if dims.n_max == 2:
        # the first cell's DIVIDED chunk (66,560 of 67,600) no longer dominates
        assert len(tasks) == 40 and max(map(len, chunks)) == 16_384


@pytest.mark.parametrize("drop", [None, *PREMISES])
@pytest.mark.parametrize("n_max, n_levels", [(1, 2), (2, 2)])
def test_mem_part_agrees_with_per_byte_oracle_on_enumerated_bitmaps(monkeypatch, n_max, n_levels, drop):
    """Every assignment the oracle examines, plain and with each premise
    dropped, gets the same answer from both definitions."""
    dims = BuddyDims(n_max=n_max, n_levels=n_levels)
    answers = []

    def both(d, b):
        got = mem_part(d, b)
        assert got == per_byte_mem_part(d, b), b
        answers.append(got)
        return got

    monkeypatch.setattr(buddy, "mem_part", both)
    v = partition_theorem_oracle(dims, drop_premise=drop, budget=6**10)
    assert not v.diagnostic
    assert len(answers) >= v.detail["examined"] > 0
    if drop in (None, "inv_mempool_info"):
        assert v.passed and all(answers)
    else:
        assert v.failed and not all(answers)


def _outcome(f, *args):
    try:
        return f(*args)
    except IndexError:
        return IndexError


@settings(max_examples=400, deadline=None)
@given(
    n_max=st.integers(-2, 3),
    n_levels=st.integers(0, 3),
    max_sz=st.integers(-40, 70),
    data=st.data(),
)
def test_mem_part_agrees_with_per_byte_oracle_on_any_dims(n_max, n_levels, max_sz, data):
    """Inconsistent dims too: a max_sz that is not a multiple of 4^i, a
    level size of 0, negative sizes, rows of any length."""
    dims = BuddyDims(n_max=n_max, n_levels=n_levels, max_sz=max_sz)
    bits = [tuple(data.draw(st.lists(st.sampled_from(BLOCK_STATES), max_size=2 * 4**i)))
            for i in range(n_levels)]
    assert _outcome(mem_part, dims, bits) == _outcome(per_byte_mem_part, dims, bits)


def test_partition_oracle_degenerate_one_level():
    v = partition_theorem_oracle(BuddyDims(n_max=1, n_levels=1, max_sz=16))
    assert v.passed


def test_partition_oracle_refuses_large_dims():
    v = partition_theorem_oracle(BuddyDims(n_max=1, n_levels=3, max_sz=256))
    assert v.diagnostic and v.clause == "dims-too-large"


def test_build_refuses_oversized_models():
    with pytest.raises(ValueError):
        build_kernel_model(BuddyDims(threads=("t1", "t2", "t3", "t4"),
                                     alloc_sizes=(16, 32, 64, 128),
                                     timeouts=(0, 1, 2, -1),
                                     n_levels=3, max_sz=256))


def test_model_shape_three_systems():
    m = build_kernel_model(BuddyDims(tick_max=1))
    assert m.pes.keys == ["sched", "t1", "t2"]
    assert set(m.thread_systems) == {"t1", "t2"}


def test_degenerate_single_alloc_event():
    dims = BuddyDims(threads=("t1",), alloc_sizes=(16,), timeouts=(0,),
                     free_blocks=(), tick_max=1)
    m = build_kernel_model(dims)
    # one guarded alloc instance under the iteration (no free arm at all)
    sys_t1 = m.thread_systems["t1"]
    allocs = sys_t1.body.events.instances
    assert len(allocs) == 1 and allocs[0].label == "mem_pool_alloc(p1, 16, 0)"


def drive(model, choose, max_steps=400):
    """Run the closed system deterministically, choosing steps by label
    preference order; returns the visited states."""
    s = model.initial_state()
    spec = model.pes
    seen = [s]
    for _ in range(max_steps):
        steps = step_pes(model.ctx, spec, s)
        if not steps:
            break
        pick = choose(steps)
        if pick is None:
            break
        _, spec, s = pick
        seen.append(s)
    return spec, s, seen


def prefer(*prefixes):
    def choose(steps):
        for p in prefixes:
            for st in steps:
                if st[0].label is not None and st[0].label.startswith(p):
                    return st
        return steps[0]

    return choose


def test_alloc_then_free_coalesces():
    dims = BuddyDims(threads=("t1",), alloc_sizes=(16,), timeouts=(0,),
                     free_blocks=((1, 0),), tick_max=1)
    m = build_kernel_model(dims)
    layout = m.layout
    inv = m.invariants["inv"]
    script = {"allocated": False}

    def choose(steps):
        # keep the running body moving; at the event choice, allocate
        # first and release afterwards; schedule t1 when it is blocked
        for st in steps:
            if st[0].k == "t1" and st[0].kind == "tau":
                return st
        want = "mem_pool_free" if script["allocated"] else "mem_pool_alloc"
        for st in steps:
            if st[0].k == "t1" and (st[0].label or "").startswith(want):
                return st
        for st in steps:
            if st[0].label == "sched(t1)":
                return st
        for st in steps:  # let the scheduler unfold to reach its events
            if st[0].k == "sched" and st[0].kind == "tau":
                return st
        return None

    def drive_scripted(max_steps=400):
        s = m.initial_state()
        spec = m.pes
        seen = [s]
        for _ in range(max_steps):
            steps = step_pes(m.ctx, spec, s)
            pick = choose(steps)
            if pick is None:
                break
            _, spec, s = pick
            seen.append(s)
            if layout.bits_of(s, 1)[0] == ALLOCATED:
                script["allocated"] = True
        return spec, s, seen

    spec, s, seen = drive_scripted()
    for st in seen:
        assert inv(st)
    # after the full loop the final state must have been through an
    # allocated-then-coalesced cycle: find intermediate evidence
    had_allocated = any(layout.bits_of(st, 1)[0] == ALLOCATED for st in seen)
    had_freeing = any(
        layout.bits_of(st, 0)[0] == FREEING or layout.bits_of(st, 1)[0] == FREEING
        for st in seen
    )
    assert had_allocated and had_freeing
    # coalescing restores the whole root eventually
    restored = any(
        layout.bits_of(st, 0)[0] == FREE
        and all(x == NOEXIST for x in layout.bits_of(st, 1))
        and layout.free_list_of(st, 0) == (0,)
        for st in seen
    )
    assert restored


def test_guarantee_accepts_identity_and_rejects_foreign_local_change():
    m = build_kernel_model(BuddyDims(tick_max=1))
    layout = m.layout
    g1 = m.guarantees["t1"]
    s = m.initial_state()
    assert g1.contains(s, s)
    # t1 touching t2's locals is outside t1's guarantee
    idx = layout.idx["lvl"]
    k2 = layout.tix["t2"]
    rec = list(s[idx])
    rec[k2] = 1
    r = s[:idx] + (tuple(rec),) + s[idx + 1:]
    assert not g1.contains(s, r)
    assert g1.contains(r, r)


def test_mp_free_loopinv_family_on_reachable_states():
    dims = BuddyDims(threads=("t1",), alloc_sizes=(16,), timeouts=(0,),
                     free_blocks=((1, 0), (1, 1)), tick_max=1)
    m = build_kernel_model(dims)
    g = build_graph(m.ctx, m.pes, None, m.rely,
                    init_states=[m.initial_state()], budget=200_000)
    states, seen = [], set()
    for _, st in g.nodes:
        if st not in seen:
            seen.add(st)
            states.append(st)
    u = Universe("reachable", states)
    fam = mp_free_loopinv(m.layout, "t1")
    from rgkit.buddy import build_free_loop_body

    body = build_free_loop_body(m.layout, "t1")
    b = StateSet(m.layout.schema, native=lambda s: m.layout.lvar(s, "free_block_r", "t1"),
                 name="free_block_r[t1]")
    v = check_loop_variant(
        m.ctx, body, b, identity_rel(m.layout.schema), univ_rel(m.layout.schema),
        fam, range(0, dims.n_levels + 1), u,
    )
    assert v.passed, (v.clause, v.witness)
    # mutant that never descends a level fails the decrease condition
    bad = build_free_loop_body(m.layout, "t1", no_decrease=True)
    v2 = check_loop_variant(
        m.ctx, bad, b, identity_rel(m.layout.schema), univ_rel(m.layout.schema),
        fam, range(0, dims.n_levels + 1), u,
    )
    assert v2.failed and v2.clause.startswith("condition-1")


class RejectPair:
    """A guarantee that holds for every step except one (pre, post) pair."""

    def __init__(self, pre, post):
        self.pair = (pre, post)

    def contains(self, s, t):
        return (s, t) != self.pair


class RejectState:
    """A postcondition that holds at every state except one."""

    def __init__(self, s):
        self.s = s

    def holds(self, s):
        return s != self.s


def test_kernel_checks_report_first_failure_in_graph_order(monkeypatch):
    """analyze_kernel evaluates each distinct state and (thread, pre, post)
    triple once; its counts and first failures are those of a scan over
    every node and edge."""
    dims = BuddyDims(n_levels=1, max_sz=16, threads=("t1", "t2"), alloc_sizes=(4,),
                     timeouts=(0,), free_blocks=(), tick_max=0)
    m = build_kernel_model(dims)
    g = build_graph(m.ctx, m.pes, None, m.rely, init_states=[m.initial_state()])
    states = [s for _, s in g.nodes]
    to_dict = m.layout.schema.state_to_dict
    guarded = [(a, lbl, b) for a, lbl, b in g.comp_edges if lbl.k in m.guarantees]
    heads, lvar = m.thread_systems, m.layout.lvar

    def completes(a, lbl, b):  # returns thread lbl.k to its iteration head
        t = lbl.k
        return t in heads and g.nodes[b][0].get(t) == heads[t] != g.nodes[a][0].get(t)

    # (thread, pre, post, op) of every step that completes a service
    done = [(lbl.k, states[a], states[b], lvar(states[a], "cur_op", lbl.k))
            for a, lbl, b in g.comp_edges if completes(a, lbl, b)]
    asked = []

    def counted(make):  # the postconditions `make` builds, recording each question
        def build(layout, t, *args):
            post = make(layout, t, *args)
            return SimpleNamespace(holds=lambda s: asked.append((t, s)) or post.holds(s))
        return build

    monkeypatch.setattr(buddy_checks, "alloc_post", counted(buddy_checks.alloc_post))
    monkeypatch.setattr(buddy_checks, "free_post", counted(buddy_checks.free_post))
    verdicts = dict(analyze_kernel(m).verdicts)
    monkeypatch.undo()
    assert all(v.passed for v in verdicts.values())
    quiescent = m.invariants["quiescent"]
    assert verdicts["quiescent-properties"].detail == {
        "quiescent_states": sum(1 for s in states if quiescent(s))}
    assert verdicts["thread-guarantees"].detail == {"thread_steps": len(guarded)}
    ops = [op for *_, op in done]
    assert verdicts["service-postconditions"].detail == {
        "alloc": ops.count("alloc"), "free": ops.count("free")} == {"alloc": 108, "free": 0}
    # a postcondition is asked once per (thread, pre, post) triple, not per step
    triples = {(t, s, r) for t, s, r, op in done if op != "none"}
    assert len(asked) == len(triples) == 20

    # a quiescent state met at several nodes, the first after the root
    later = next(s for s in states[1:] if quiescent(s) and states.count(s) > 1)
    m.invariants["inv"] = lambda s: s != later
    m.invariants["free_list_valid"] = lambda s: s != later
    verdicts = dict(analyze_kernel(m).verdicts)
    for name in ("structural-invariants", "quiescent-properties"):
        assert verdicts[name].failed and verdicts[name].witness == {"state": to_dict(later)}

    # a (pre, post) pair stepped by both threads; the first such edge fails
    pairs = [(states[a], states[b]) for a, _, b in guarded]
    threads: dict = {}
    for pair, (_, lbl, _) in zip(pairs, guarded):
        threads.setdefault(pair, set()).add(lbl.k)
    pre, post = next(pair for pair, ks in threads.items() if len(ks) > 1)
    _, lbl, _ = guarded[pairs.index((pre, post))]
    m.guarantees = {t: RejectPair(pre, post) for t in m.guarantees}
    verdict = dict(analyze_kernel(m).verdicts)["thread-guarantees"]
    assert verdict.failed and verdict.witness == {
        "thread": lbl.k, "label": lbl.render(), "pre": to_dict(pre), "post": to_dict(post)}

    # the first edge that returns a thread to its head after an alloc
    a, lbl, _ = next(e for e in g.comp_edges
                     if completes(*e) and lvar(states[e[0]], "cur_op", e[1].k) == "alloc")
    monkeypatch.setattr(buddy_checks, "alloc_post", lambda *args: RejectState(states[a]))
    verdict = dict(analyze_kernel(m).verdicts)["service-postconditions"]
    assert verdict.failed and verdict.witness == {
        "thread": lbl.k, "service": "alloc", "size": lvar(states[a], "cur_sz", lbl.k),
        "timeout": lvar(states[a], "cur_tmo", lbl.k), "state": to_dict(states[a])}
