"""End-to-end acceptance checks.

One test per numbered criterion in the package's acceptance list (see
README). Each prints a single ``criterion N: PASS/FAIL`` line with the
measured numbers and runtime, then asserts both the criterion and its
runtime budget.
"""

import json
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

from bayeshield.cli import read_dataset_csv, read_deltas_csv, read_trace_csv
from bayeshield.core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    SimilarityKernel,
)
from bayeshield.embed import EmbeddingLayer, EmbeddingMap
from bayeshield.estimator import (
    estimate_bayes_error,
    estimate_posteriors,
    median_heuristic_bandwidth,
)
from bayeshield.perturb import (
    StepSizeWarning,
    default_step_size,
    objective_and_gradient,
    pga_maximize,
    project,
)
from bayeshield.synth import (
    MOONS_BANDWIDTH,
    analytic_bayes_error,
    canonical_truncated_normal_pair,
    finite_difference_gradient,
    generate_moons,
    sample_truncated_normal_pair,
)

K1 = SimilarityKernel(bandwidth=1.0)


def _finish(number, ok, elapsed, budget, detail):
    within = elapsed <= budget
    status = "PASS" if (ok and within) else "FAIL"
    line = (
        f"criterion {number}: {status} ({detail}; "
        f"{elapsed:.1f}s of {budget:.0f}s budget)"
    )
    print(line)
    assert ok and within, line


def _sample_errors(n, analytic, seeds):
    spec = canonical_truncated_normal_pair()
    errors = []
    for seed in seeds:
        data = sample_truncated_normal_pair(spec, n, seed)
        kernel = SimilarityKernel(bandwidth=median_heuristic_bandwidth(data))
        errors.append(abs(estimate_bayes_error(data, kernel).value - analytic))
    return errors


def test_criterion_1_truncnorm_estimate():
    started = time.perf_counter()
    analytic = analytic_bayes_error(canonical_truncated_normal_pair())
    analytic_ok = abs(analytic - 0.1427) <= 0.0005
    median_err = statistics.median(_sample_errors(2000, analytic, range(10)))
    sample_ok = median_err <= 0.01
    _finish(
        1,
        analytic_ok and sample_ok,
        time.perf_counter() - started,
        10,
        f"analytic={analytic:.6f}, median |err| at n=2000 = {median_err:.4f}",
    )


def _moons_lift(norm, eps, seed):
    data = generate_moons(200, 0.1, seed)
    kernel = SimilarityKernel(bandwidth=MOONS_BANDWIDTH)
    constraint = PerturbationConstraint(norm_order=norm, radius=eps)
    config = PgaConfig(step_size=default_step_size(200, eps), max_iterations=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        result = pga_maximize(data, kernel, constraint, config)
    return result.trace[-1] / result.trace[0]


def test_criterion_2_moons_lift():
    started = time.perf_counter()
    sweep_times = []
    details = []
    chosen = None
    # the bracket must hold under at least one norm, so stop at the first
    # norm that satisfies both budgets
    for norm in ("l2", "linf"):
        medians = {}
        for eps in (0.25, 0.15):
            sweep_start = time.perf_counter()
            lifts = [_moons_lift(norm, eps, seed) for seed in range(10)]
            sweep_times.append(time.perf_counter() - sweep_start)
            medians[eps] = statistics.median(lifts)
        details.append(
            f"{norm}: med(0.25)={medians[0.25]:.4f}, med(0.15)={medians[0.15]:.4f}"
        )
        if 1.20 <= medians[0.25] <= 1.40 and medians[0.15] >= 1.20:
            chosen = norm
            break
    ok = chosen is not None and max(sweep_times) <= 60
    _finish(
        2,
        ok,
        time.perf_counter() - started,
        60 * len(sweep_times),
        "; ".join(details) + f"; worst sweep {max(sweep_times):.1f}s",
    )


def test_criterion_3_monotone_ascent():
    started = time.perf_counter()
    rng = np.random.default_rng(12345)
    eps = 0.2
    failed_cases = []
    for case in range(20):
        n = int(rng.integers(6, 51))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 4))
        data = LabeledDataset(rng.normal(size=(n, d)), rng.integers(0, k, n), k)
        constraint = PerturbationConstraint(norm_order="l2", radius=eps)
        found = False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            for halving in range(6):
                eta = 0.1 * eps / (2**halving)
                result = pga_maximize(
                    data,
                    K1,
                    constraint,
                    PgaConfig(step_size=eta, max_iterations=25),
                )
                trace = np.asarray(result.trace)
                if np.diff(trace).min() >= -1e-9 and trace[-1] >= trace[0]:
                    found = True
                    break
        if not found:
            failed_cases.append(case)
    _finish(
        3,
        not failed_cases,
        time.perf_counter() - started,
        30,
        f"20 datasets, eta halving from {0.1 * eps:g}, failures: {failed_cases or 'none'}",
    )


def _tanh_embedding(rng, d):
    mid = d + 1
    return EmbeddingMap(
        layers=(
            EmbeddingLayer(
                weight=rng.normal(size=(mid, d)) * 0.7,
                bias=rng.normal(size=mid) * 0.1,
                activation="tanh",
            ),
            EmbeddingLayer(
                weight=rng.normal(size=(d, mid)) * 0.7,
                bias=rng.normal(size=d) * 0.1,
                activation="tanh",
            ),
        )
    )


def _scaled_max_error(analytic, fd):
    return float(np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12))


def test_criterion_4_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    worst_plain = 0.0
    worst_embedded = 0.0
    instances = 0
    attempts = 0
    while instances < 20:
        attempts += 1
        assert attempts < 500, "could not draw tie-free instances"
        n = int(rng.integers(5, 21))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        data = LabeledDataset(rng.normal(size=(n, d)), rng.integers(0, k, n), k)
        mapping = _tanh_embedding(rng, d)
        plain = objective_and_gradient(data, K1)
        embedded = objective_and_gradient(data, K1, embedding=mapping)
        if plain.tied_rows or embedded.tied_rows:
            continue
        fd_plain = finite_difference_gradient(data, K1, h=1e-5)
        fd_embedded = finite_difference_gradient(data, K1, embedding=mapping, h=1e-5)
        worst_plain = max(worst_plain, _scaled_max_error(plain.gradients, fd_plain))
        worst_embedded = max(
            worst_embedded, _scaled_max_error(embedded.gradients, fd_embedded)
        )
        instances += 1
    ok = worst_plain <= 1e-5 and worst_embedded <= 1e-5
    _finish(
        4,
        ok,
        time.perf_counter() - started,
        30,
        f"max rel err plain={worst_plain:.2e}, embedded={worst_embedded:.2e}",
    )


def test_criterion_5_frozen_mix():
    started = time.perf_counter()
    data = generate_moons(200, 0.1, 0)
    kernel = SimilarityKernel(bandwidth=MOONS_BANDWIDTH)
    rng = np.random.default_rng(0)
    details = []
    ok = True
    for fraction in (0.5, 0.9):
        frozen = frozenset(
            int(i) for i in rng.choice(200, size=int(fraction * 200), replace=False)
        )
        constraint = PerturbationConstraint(
            norm_order="l2", radius=0.25, frozen=frozen
        )
        config = PgaConfig(
            step_size=default_step_size(200, 0.25), max_iterations=100
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepSizeWarning)
            result = pga_maximize(data, kernel, constraint, config)
        gained = result.trace[-1] >= result.trace[0]
        rows = sorted(frozen)
        untouched = bool(
            np.array_equal(result.perturbed.points[rows], data.points[rows])
        ) and not result.deltas[rows].any()
        if fraction == 0.5:
            ok = ok and gained and untouched
        else:
            ok = ok and gained
        details.append(
            f"{int(fraction * 100)}% frozen: lift "
            f"{result.trace[-1] / result.trace[0]:.4f}, rows untouched: {untouched}"
        )
    _finish(5, ok, time.perf_counter() - started, 30, "; ".join(details))


def test_criterion_6_convergence_trend():
    started = time.perf_counter()
    analytic = analytic_bayes_error(canonical_truncated_normal_pair())
    err_small = statistics.median(_sample_errors(100, analytic, range(10)))
    err_large = statistics.median(_sample_errors(2000, analytic, range(10)))
    _finish(
        6,
        err_large < err_small,
        time.perf_counter() - started,
        30,
        f"median |err| n=2000: {err_large:.4f} < n=100: {err_small:.4f}",
    )


def test_criterion_7_projection_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for norm in ("l2", "linf"):
        for _ in range(1000):
            d = int(rng.integers(1, 11))
            radius = float(rng.uniform(0.1, 2.0))
            constraint = PerturbationConstraint(norm_order=norm, radius=radius)
            vec = rng.normal(size=d) * float(rng.uniform(0.1, 4.0))
            once = project(vec, constraint)
            twice = project(once, constraint)
            ok &= bool(np.array_equal(once, twice))
            if norm == "l2":
                ok &= float(np.sqrt((once**2).sum())) <= radius + 1e-12
                vec_norm = float(np.sqrt((vec**2).sum()))
            else:
                ok &= float(np.abs(once).max()) <= radius + 1e-12
                clamp = [min(max(float(v), -radius), radius) for v in vec]
                ok &= bool(np.array_equal(once, np.asarray(clamp)))
                vec_norm = float(np.abs(vec).max())
            # scale well inside the ball so the input is strictly feasible
            feasible = vec * (radius / (2.0 * max(radius, vec_norm)))
            ok &= bool(np.array_equal(project(feasible, constraint), feasible))
    _finish(
        7,
        ok,
        time.perf_counter() - started,
        5,
        "1000 vectors per norm: idempotent, feasible, clamp-consistent",
    )


def test_criterion_8_estimator_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        data = LabeledDataset(
            rng.normal(size=(n, d)) * float(10.0 ** rng.uniform(-1, 1)),
            rng.integers(0, k, n),
            k,
        )
        kernel = SimilarityKernel(bandwidth=float(10.0 ** rng.uniform(-0.7, 0.7)))
        posteriors = estimate_posteriors(data, kernel)
        ok &= float(np.abs(posteriors.values.sum(axis=1) - 1.0).max()) <= 1e-9
        value = estimate_bayes_error(data, kernel).value
        # upper bound holds up to the rounding of the mean
        ok &= 0.0 <= value <= 1.0 - 1.0 / k + 1e-12
        perm = rng.permutation(n)
        permuted = LabeledDataset(data.points[perm], data.labels[perm], k)
        ok &= abs(estimate_bayes_error(permuted, kernel).value - value) <= 1e-12
        relabel = rng.permutation(k)
        relabeled = LabeledDataset(data.points, relabel[data.labels], k)
        ok &= abs(estimate_bayes_error(relabeled, kernel).value - value) <= 1e-12
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        moved = data.with_points(data.points @ q.T + rng.normal(size=d))
        ok &= abs(estimate_bayes_error(moved, kernel).value - value) <= 1e-9
    _finish(
        8,
        ok,
        time.perf_counter() - started,
        30,
        "100 cases: row sums, bounds, permutation/relabel/rigid-motion invariance",
    )


def _run_demo(name, outdir):
    return subprocess.run(
        [sys.executable, "-m", "bayeshield", "demo", name, "--seed", "0",
         "--out", str(outdir)],
        capture_output=True,
        text=True,
    )


def _config_without_out(report):
    return {key: v for key, v in report["config"].items() if key != "out"}


def test_criterion_9_cli_contract(tmp_path):
    started = time.perf_counter()
    ok = True
    notes = []

    first_tn = tmp_path / "tn1"
    second_tn = tmp_path / "tn2"
    for outdir in (first_tn, second_tn):
        run = _run_demo("truncnorm", outdir)
        ok &= run.returncode == 0
    sample = read_dataset_csv(first_tn / "truncnorm_sample.csv")
    ok &= sample.n == 2000 and sample.d == 1 and sample.num_classes == 2
    report_a = json.loads((first_tn / "truncnorm_report.json").read_text())
    report_b = json.loads((second_tn / "truncnorm_report.json").read_text())
    ok &= report_a["version"] == 1 and report_a["command"] == "demo"
    replay_tn = (
        report_a["results"] == report_b["results"]
        and report_a["input_fingerprint"] == report_b["input_fingerprint"]
        and _config_without_out(report_a) == _config_without_out(report_b)
        and (first_tn / "truncnorm_sample.csv").read_bytes()
        == (second_tn / "truncnorm_sample.csv").read_bytes()
    )
    ok &= replay_tn
    notes.append(f"truncnorm replay bit-identical: {replay_tn}")

    first_m = tmp_path / "m1"
    second_m = tmp_path / "m2"
    for outdir in (first_m, second_m):
        run = _run_demo("moons", outdir)
        ok &= run.returncode == 0
    before = read_dataset_csv(first_m / "moons_before.csv")
    after = read_dataset_csv(first_m / "moons_after.csv")
    deltas = read_deltas_csv(first_m / "moons_deltas.csv")
    trace = read_trace_csv(first_m / "moons_trace.csv")
    ok &= before.n == after.n == 200 and deltas.shape == (200, 2)
    ok &= len(trace) == 101 and trace[-1] >= trace[0]
    ok &= bool(np.array_equal(after.labels, before.labels))
    report_a = json.loads((first_m / "moons_report.json").read_text())
    report_b = json.loads((second_m / "moons_report.json").read_text())
    replay_m = (
        report_a["results"] == report_b["results"]
        and report_a["input_fingerprint"] == report_b["input_fingerprint"]
        and _config_without_out(report_a) == _config_without_out(report_b)
        and all(
            (first_m / name).read_bytes() == (second_m / name).read_bytes()
            for name in (
                "moons_before.csv",
                "moons_after.csv",
                "moons_deltas.csv",
                "moons_trace.csv",
            )
        )
    )
    ok &= replay_m
    notes.append(
        f"moons replay bit-identical: {replay_m}, "
        f"lift {trace[-1] / trace[0]:.4f}"
    )
    _finish(9, ok, time.perf_counter() - started, 60, "; ".join(notes))
