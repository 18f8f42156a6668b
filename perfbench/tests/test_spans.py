"""Self-time arithmetic and wrapper installation."""

import time

import pytest

from spans import Installation, Span, Target, Tracer, _wrap_generator, aggregate, self_times


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),  # siblings a and b overlap on [3, 4]
        Span("b", 3.0, 6.0, 0),
        Span("c", 7.0, 9.0, 0),  # disjoint sibling with a nested child
        Span("leaf", 7.5, 8.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])


def test_child_outside_its_parent_is_clipped():
    spans = [Span("root", 0.0, 2.0, None), Span("late", 1.5, 3.0, 0)]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_aggregate_sums_by_name_and_keeps_maxima():
    spans = [
        Span("outer", 0.0, 4.0, None),
        Span("inner", 0.5, 1.5, 0, {"rows": 3, "max_overflow": 0.2}),
        Span("inner", 2.0, 3.0, 0, {"rows": 4, "max_overflow": 0.1}),
    ]
    stats = aggregate([spans, [Span("outer", 0.0, 1.0, None)]])
    assert stats["outer"].calls == 2
    assert stats["outer"].self_s == pytest.approx(3.0)
    assert stats["outer"].total_s == pytest.approx(5.0)
    assert stats["inner"].counts == {"rows": 7, "max_overflow": 0.2}


def test_installation_patches_every_lookup_site_and_restores_them():
    import numpy as np

    from cellbranch import experiments, presets, tree

    original = tree.simulate_tree_dfs
    tracer = Tracer()
    installation = Installation(
        tracer, [Target("cellbranch.tree", "simulate_tree_dfs", "dfs", lambda a, k, r: {"n": r.n})]
    )
    try:
        assert experiments.simulate_tree_dfs is tree.simulate_tree_dfs is not original
        env, imm = presets.subcritical_binomial()
        experiments.simulate_tree_dfs(0, 3, env, imm, np.random.default_rng(0))
    finally:
        installation.remove()
    assert experiments.simulate_tree_dfs is tree.simulate_tree_dfs is original
    assert [(s.name, s.counts) for s in tracer.spans] == [("dfs", {"n": 3})]


def test_generator_span_excludes_the_consumer():
    def numbers():
        yield 1
        yield 2

    tracer = Tracer()
    for _ in _wrap_generator(tracer, "gen", numbers, None)():
        time.sleep(0.05)
    assert len(tracer.spans) == 3  # two items and the final StopIteration
    assert sum(s.end - s.start for s in tracer.spans) < 0.05
