"""Tests of the benchmark's own code at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import bayeshield as bs

import checks
import run
import worker
from inputs import cli_argv, make_inputs, write_cli_inputs
from tracer import Span, Tracer, self_times, summarize
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "moons-2k-l2": dict(n=40),
    "mixture-k10-d64": dict(n=40, d=5),
    "images-cli-embed": dict(n=20, d=12, embedding=(4, 3)),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def fake_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


# ------------------------------------------------------------- metric names

def test_metric_names_are_well_formed_and_match_benchmark_json():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    layers = worker.layer_metrics(Tracer(), 1, 0.0, 0.0, 0.0)
    assert end_to_end == list(run.UNITS)
    assert sorted(per_layer) == sorted(layers)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name in end_to_end + per_layer + list(WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert all(units[k] == v for k, v in run.UNITS.items())
    assert all(units[k] == v["unit"] for k, v in layers.items())


# --------------------------------------------------------------- generators

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_deterministic_from_the_seed(name):
    a, b, c = (make_inputs(tiny(name), seed) for seed in (5, 5, 6))
    assert np.array_equal(a.data.points, b.data.points)
    assert np.array_equal(a.data.labels, b.data.labels)
    assert a.constraint == b.constraint and a.config == b.config and a.kernel == b.kernel
    if a.embedding is not None:
        for la, lb in zip(a.embedding.layers, b.embedding.layers):
            assert np.array_equal(la.weight, lb.weight)
    assert not np.array_equal(a.data.points, c.data.points)


def test_frozen_rows_follow_the_share():
    inputs = make_inputs(tiny("mixture-k10-d64"), 0)
    assert len(inputs.constraint.frozen) == 10
    assert inputs.constraint.norm_order == "linf"


# ------------------------------------------------------------------ tracing

def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 7.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])
    totals = summarize(spans)
    assert totals["a"].calls == 1 and totals["root"].self_seconds == pytest.approx(5.0)


def test_nested_spans_share_an_operation_and_record_parents():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 5.0, 6.0, 7.0))
    with tracer.span("op"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert {s.op for s in tracer.spans} == {0}
    assert summarize(tracer.spans)["op"].self_seconds == pytest.approx(5.0)


def test_tracer_wraps_every_binding_and_restores_them():
    original = bs.estimator.estimate_posteriors
    data = bs.generate_moons(10, 0.1, 0)
    tracer = Tracer()
    targets = {
        "estimator.estimate_bayes_error": {},
        "estimator.estimate_posteriors": {"pairs": worker._pairs, "gone": lambda a, r: r.no_such},
        "estimator.no_such_function": {},
    }
    with tracer.installed("bayeshield", targets):
        assert bs.estimate_posteriors is not original
        with tracer.span("op"):
            bs.estimate_bayes_error(data, bs.SimilarityKernel(0.5))
    assert bs.estimator.estimate_posteriors is original and bs.estimate_posteriors is original
    names = [s.name for s in tracer.spans]
    assert names == ["op", "estimator.estimate_bayes_error", "estimator.estimate_posteriors"]
    assert tracer.spans[2].parent == 1 and tracer.spans[2].counts == {"pairs": 90}
    assert tracer.absent == {"estimator.no_such_function",
                             "estimator.estimate_posteriors.gone"}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99))) is None
    assert run.tail_percentile(list(range(100))) == (90.0, 89)  # 90..99 lie beyond
    assert run.tail_percentile(list(range(1000)))[0] == 99.0


# ------------------------------------------------------------------- checks

def test_budget_check_flags_an_infeasible_delta():
    for norm, bad in (("l2", [0.6, 0.8001]), ("linf", [0.2, -1.0001])):
        constraint = bs.PerturbationConstraint(norm, 1.0)
        ok = np.array([[0.6, 0.8], [0.0, 1.0 + 1e-13]])
        assert checks.check_budget(ok, constraint) == []
        assert checks.check_budget(np.array([[0.0, 0.0], bad]), constraint)


def test_budget_check_ignores_frozen_rows():
    constraint = bs.PerturbationConstraint("linf", 1.0, frozenset({1}))
    assert checks.check_budget(np.array([[0.5], [3.0]]), constraint) == []


def test_frozen_check_flags_a_moved_frozen_row():
    constraint = bs.PerturbationConstraint("l2", 1.0, frozenset({0}))
    points = np.zeros((2, 2))
    deltas = np.array([[0.0, 1e-300], [0.5, 0.0]])
    assert checks.check_frozen(points, points + deltas, deltas, constraint)
    clean = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert checks.check_frozen(points, points + clean, clean, constraint) == []


def test_sum_final_and_clean_checks_flag_wrong_outputs():
    data = bs.generate_moons(20, 0.1, 0)
    kernel = bs.SimilarityKernel(0.5)
    deltas = np.full(data.points.shape, 0.01)
    perturbed = data.with_points(data.points + deltas)
    assert checks.check_sum(data.points, perturbed.points, deltas) == []
    assert checks.check_sum(data.points, perturbed.points, deltas * 2)
    right = bs.estimate_bayes_error(perturbed, kernel).value
    assert checks.check_final_estimate(perturbed, [right], kernel, None) == []
    assert checks.check_final_estimate(perturbed, [np.nextafter(right, 1.0)], kernel, None)
    assert checks.check_clean_estimate(0.25, [0.25 + 1e-12]) == []
    assert checks.check_clean_estimate(0.25, [0.26])


def test_ascent_check_flags_a_short_or_flat_trace():
    assert checks.check_ascent([0.2, 0.25, 0.3], 2) == []
    assert checks.check_ascent([0.2, 0.3], 2)  # a step missing
    assert checks.check_ascent([0.2, 0.2, 0.2], 2)  # no ascent


# ------------------------------------------------------------------- cycles

@pytest.mark.filterwarnings("ignore::bayeshield.StepSizeWarning")
@pytest.mark.parametrize("name", ["moons-2k-l2", "mixture-k10-d64"])
def test_library_cycle_passes_its_checks(name):
    workload = tiny(name)
    runner = worker.Runner(workload, make_inputs(workload, 0), None, {})
    tracer = Tracer()
    runner.cycle(tracer)  # checks run after the traced operations, untraced
    runner.cycle()
    assert (runner.attempted, runner.failed) == (4, 0), runner.failures
    assert runner.after is not None
    layers = worker.layer_metrics(tracer, 1, 0.0, 0.0, 0.0)
    assert layers["perturb.objective_and_gradient.calls"]["value"] == workload.iterations
    # the estimate plus the perturbation's final recompute
    assert layers["estimator.estimate_posteriors.calls"]["value"] == 2
    assert layers["embed.embed_points.calls"]["value"] == 0


def test_cli_cycle_in_process_passes_its_checks(tmp_path):
    workload = tiny("images-cli-embed")
    inputs = make_inputs(workload, 0)
    files = write_cli_inputs(inputs, tmp_path)
    runner = worker.Runner(workload, inputs, files, {})
    tracer = Tracer()
    runner.cycle(tracer, in_process=True)
    assert (runner.attempted, runner.failed) == (2, 0), runner.failures
    layers = worker.layer_metrics(tracer, 1, 1.0, 0.0, 0.0)
    assert layers["cli.read_dataset_csv.share"]["value"] > 0
    assert layers["cli.bytes_written"]["value"] > 0
    assert layers["share.cli"]["value"] > 0
    assert cli_argv(workload, inputs, files)["perturb"][0] == "perturb"


def test_cli_cycle_flags_a_tampered_output(tmp_path):
    workload = tiny("images-cli-embed")
    inputs = make_inputs(workload, 0)
    files = write_cli_inputs(inputs, tmp_path)
    runner = worker.Runner(workload, inputs, files, {})
    runner.cycle(in_process=True)
    deltas_path = files.outputs["perturb"][1]
    text = deltas_path.read_text().splitlines()
    text[2] = ",".join(["1.0"] * workload.d)  # row 0 far outside the budget
    deltas_path.write_text("\n".join(text) + "\n")
    runner.verdict.clear()
    runner.first_digest.clear()
    assert runner._check_cli_perturb()
