"""Tests of the benchmark's own machinery: span arithmetic, hooks, oracle.

    python3 -m pytest benchmarks -q
"""

import types

import numpy as np
import pytest

import oracle
import spans


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, op_id=0)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] is covered once
        _span("c", 9.0, 12.0, parent=0),  # only [9, 10] lies inside root
        _span("a.child", 1.5, 2.5, parent=1),  # a grandchild does not count for root
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


LIB_SOURCE = """
def helper(x):
    return 2 * x

def work(x):
    return helper(x) + 1

class Log:
    def write(self):
        return "written"
"""


def _fake_package():
    lib = types.ModuleType("lib")
    exec(LIB_SOURCE, lib.__dict__)
    user = types.ModuleType("user")
    user.work = lib.work  # imported by name, as `from .lib import work`
    return {"lib": lib, "user": user}


HOOKS = (
    spans.Hook("lib.work", "lib", "work"),
    spans.Hook("lib.helper", "lib", "helper", span=False),
    spans.Hook("lib.log_write", "lib", "Log.write"),
    spans.Hook("lib.renamed", "lib", "no_longer_here"),
    spans.Hook("gone.fn", "gone", "fn"),
)


def test_hooks_wrap_every_alias_report_absent_names_and_restore():
    modules = _fake_package()
    original = modules["lib"].work
    tracer = spans.Tracer(op_id=7)
    with spans.installed(tracer, modules, HOOKS) as absent:
        assert modules["user"].work(3) == 7
        assert modules["lib"].work(1) == 3
        assert modules["lib"].Log().write() == "written"
    assert absent == ["lib.no_longer_here", "gone.fn"]
    assert [(s.name, s.parent, s.op_id) for s in tracer.spans] == (
        [("lib.work", -1, 7)] * 2 + [("lib.log_write", -1, 7)])
    assert modules["lib"].work is original and modules["user"].work is original
    assert "write" in vars(modules["lib"].Log) and modules["lib"].Log().write() == "written"
    assert modules["user"].work(3) == 7


def test_counting_hook_records_the_enclosing_span():
    modules = _fake_package()
    tracer = spans.Tracer()
    with spans.installed(tracer, modules, HOOKS):
        modules["user"].work(1)
        modules["lib"].helper(1)
    assert tracer.calls[("lib.helper", "lib.work")] == 1
    assert tracer.calls[("lib.helper", None)] == 1


def test_a_changed_return_type_is_noted_not_raised():
    mod = types.ModuleType("dataio")
    mod.read_features = lambda path: 42  # no .features attribute
    tracer = spans.Tracer()
    with spans.installed(tracer, {"dataio": mod},
                         (spans.Hook("dataio.read_features", "dataio", "read_features"),)):
        assert mod.read_features("x") == 42
    assert tracer.observer_errors == {"dataio.read_features"}


def test_layer_metrics_of_an_empty_trace_are_zero():
    metrics = spans.layer_metrics(spans.Tracer())
    assert metrics["metrics.self_s"] == 0.0
    assert metrics["model.forward_useful_ratio"] == 0.0
    assert metrics["trainer.steps"] == 0


def test_teacher_useful_ratio_counts_distinct_index_pairs():
    tracer = spans.Tracer()
    tracer.batches = [np.array([0, 1]), np.array([0, 1]), np.array([1, 2])]
    # 12 entries computed; distinct pairs: {0,1}x{0,1} and {1,2}x{1,2} share (1, 1)
    assert spans.layer_metrics(tracer)["softlabels.teacher_useful_ratio"] == pytest.approx(7 / 12)


def _brute_ranks(sims, relevant):
    out = []
    for i, row in enumerate(sims):
        ranks = [int(np.sum(row > row[j]) + np.sum(row[:j] == row[j]))
                 for j in np.flatnonzero(relevant[i])]
        out.append(sorted(ranks))
    return out


def test_positive_ranks_match_the_counting_definition_with_ties():
    rng = np.random.default_rng(0)
    sims = rng.integers(0, 4, size=(6, 9)).astype(float)  # many ties
    relevant = rng.random((6, 9)) < 0.4
    relevant[:, 0] = True
    got = [list(r) for r in oracle.positive_ranks(sims, relevant)]
    assert got == _brute_ranks(sims, relevant)


def test_direction_metrics_on_a_hand_ranked_case():
    # query 0: relevant at ranks 0 and 2 (R=2); query 1: relevant at rank 1 (R=1)
    metrics = oracle.direction_metrics([np.array([0, 2]), np.array([1])])
    assert metrics["r_at_1"] == 50.0
    assert metrics["r_at_5"] == 100.0
    assert metrics["r_precision"] == pytest.approx((1 / 2 + 0 / 1) / 2)
    assert metrics["map_at_r"] == pytest.approx((1.0 / 2 + 0.0) / 2)
