"""Tests of the benchmark's own machinery.

Run with `python3 -m pytest benchmarks/tests`.
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import run
import spans
import workload
from recomb import golden
from recomb.monomials import apply_permutation, get_context
from recomb.reproduce import Report

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    S = spans.Span
    tree = [S("root", "r", None, 0.0, 10.0),
            S("a", "r", 0, 1.0, 4.0),
            S("b", "r", 0, 5.0, 9.0),
            S("b.inner", "r", 2, 6.0, 7.5)]
    assert spans.self_times(tree) == [3.0, 3.0, 2.5, 1.5]
    m = spans.span_metrics(tree, ["b", "absent"])
    assert m["b.wall_s"] == 4.0 and m["b.self_s"] == 2.5
    assert m["absent.wall_s"] == 0.0 and m["absent.cpu_per_wall"] == 0.0


def test_tracer_records_parents_and_counts():
    tr = spans.Tracer("run-0")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        tr.count("items", 3)
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", None),
                                                       ("inner", 0)]
    assert tr.counts == {"items": 3}
    own = spans.self_times(tr.spans)
    assert own[0] + own[1] == pytest.approx(tr.spans[0].wall_s)
    off = spans.Tracer("run-1", enabled=False)
    with off.span("outer"):
        off.count("items", 3)
    assert off.spans == [] and off.counts == {}


def test_metric_names_and_units_follow_the_pattern():
    catalogue = workload.per_layer_catalogue()
    for name, (unit, better) in catalogue.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("higher", "lower")
    assert not NAME.fullmatch("linalg rank")
    assert not NAME.fullmatch(".hidden")
    assert [m["name"] for m in BENCH["per_layer"]] == list(catalogue)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in BENCH["workloads"]] == list(workload.WORKLOADS)
    assert list(run.WORKLOADS) == list(workload.WORKLOADS)


def test_wrong_expected_value_is_counted_as_failed(monkeypatch):
    rep = Report("unit")
    rep.add("right", 1, 1)
    rep.add("wrong", 2, 3)
    rep.add("stretch miss", 4, 5, stretch=True)
    assert workload.check_counts(rep) == (2, 1, 1)

    wrong = json.loads(json.dumps(golden.scalars()))
    wrong["nullspace_dim"]["n3_d7"] = 244
    monkeypatch.setattr(workload, "SC", wrong)
    wl = dataclasses.replace(workload.WORKLOADS["deg7-lattice"], min_answers=1)
    monkeypatch.setitem(workload.WORKLOADS, "deg7-lattice", wl)
    inputs = wl.setup(0)
    result = workload.measure("deg7-lattice", inputs, 0, 0.0, traced=False)
    (sample,) = result["samples"]
    # the nullspace dimension and the lattice basis size both use it
    assert sample["checks_failed"] == 2
    assert sum("[FAIL]" in line for line in result["check_lines"]) == 2


def test_relabelled_vector_matches_apply_permutation():
    ctx = get_context(3, 7)
    idc = golden.load_identity("ternary_recombination")
    for seed in (0, 7):
        sigma = workload.sigma_for(seed, 7)
        assert workload.relabel_vector(ctx, ctx.vector_of(idc), sigma) == \
            ctx.vector_of(apply_permutation(idc, sigma)).tolist()


def test_module_rank_is_invariant_under_relabelling():
    from recomb.identities import module_rank
    expected = golden.scalars()["module_ranks_n3_d7"]["reduced_generator_1"]
    P = golden.load_identity("reduced_generator_1")
    for seed in (0, 7):
        Ps = apply_permutation(P, workload.sigma_for(seed, 7))
        assert Ps != P
        assert module_rank([Ps], workload.P) == expected


def test_computed_nnz_matches_the_matrix():
    from recomb.expansion import build_expansion_matrix
    E = build_expansion_matrix(3, 7)
    assert workload._computed_nnz(E.ctx) == int((E.array != 0).sum())


def test_speed_factor_is_the_median_chunk_time_of_the_interval():
    import speed
    ref = speed.REFERENCE_CHUNK_S
    # twice as slow from t=10 on; the 4x outliers (chunks that waited for a
    # core) must not move the factor
    samples = [(t * 0.5, ref * (2 if t >= 20 else 1) * (4 if t % 4 == 3 else 1))
               for t in range(40)]
    assert speed.speed_factor(samples, 0.0, 9.9) == pytest.approx(1.0)
    assert speed.speed_factor(samples, 10.0, 19.9) == pytest.approx(2.0)
    # a short interval borrows the chunks nearest its middle
    assert speed.speed_factor(samples, 15.01, 15.02) == pytest.approx(2.0)
    with pytest.raises(speed.ProbeError):
        speed.speed_factor(samples[:1], 0.0, 1.0)
