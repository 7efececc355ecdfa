"""One benchmark process: set up a workload's inputs, then run cycles of
one estimate and one perturbation until the time is up, checking every
result. Prints one JSON object as its last line of output.

run.py starts a fresh worker for each set-up sample, so set-up time
includes interpreter start and imports, and ``ru_maxrss`` covers one
workload only. With ``--trace 1`` the worker alternates untraced and
traced cycles and reports per-layer figures instead of timings.

    PYTHONPATH=src python3 perfbench/worker.py --workload moons-2k-l2 --seed 0 \
        --seconds 28 --trace 0 --workdir .perfbench_work/w --spawned-at 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import bayeshield as bs
from bayeshield import cli

import checks
from inputs import cli_argv, make_inputs, write_cli_inputs
from tracer import Totals, Tracer, summarize
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_PROBES = 3
clock = time.perf_counter


def _pairs(args, result):
    return args[0].n * (args[0].n - 1)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _boundary_rows(args, result):
    constraint = args[2]
    free = checks.free_rows(result.deltas.shape[0], constraint)
    norms = checks.row_norms(result.deltas, constraint.norm_order)[free]
    return int((norms >= constraint.radius - checks.RADIUS_SLACK).sum())


# Public functions wrapped in traced cycles, with the counts taken from
# their arguments and results. Names are "module.function" in bayeshield.
LAYER_TARGETS = {
    "estimator.estimate_bayes_error": {},
    "estimator.estimate_posteriors": {"pairs": _pairs},
    "perturb.objective_and_gradient": {
        "pairs": _pairs,
        "tied_rows": lambda args, r: len(r.tied_rows),
    },
    "perturb.pga_maximize": {
        "steps": lambda args, r: len(r.trace) - 1,
        "ascents": lambda args, r: int((np.diff(r.trace) > 0).sum()),
        "boundary_rows": _boundary_rows,
        "free_rows": lambda args, r: r.deltas.shape[0] - len(args[2].frozen),
    },
    "embed.embed_points": {},
    "embed.pullback_gradients": {},
    "embed.load_embedding": {},
    "cli.main": {},
    "cli.read_dataset_csv": {"bytes": _file_bytes},
    "cli.write_dataset_csv": {"bytes": _file_bytes},
    "cli.write_deltas_csv": {"bytes": _file_bytes},
    "cli.write_trace_csv": {"bytes": _file_bytes},
    "cli.write_report": {"bytes": _file_bytes},
}
SETUP_TARGETS = {"synth.generate_moons": {}}
CLI_WRITERS = ("write_dataset_csv", "write_deltas_csv", "write_trace_csv", "write_report")
SHARED_LAYERS = ("estimator", "perturb", "embed", "cli")


class Runner:
    """Runs cycles of one workload and keeps their timings and verdicts."""

    def __init__(self, workload, inputs, files, env):
        self.workload = workload
        self.inputs = inputs
        self.files = files
        self.env = env
        self.samples = {"estimate": [], "perturb": []}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.first_digest: dict = {}
        self.verdict: dict = {}
        self.clean_value = None
        self.after = None

    # ---------------------------------------------------------- operations

    def cycle(self, tracer=None, in_process=False) -> float:
        """One estimate, then one perturbation, each checked;
        returns the seconds the operations took. CLI commands run in this
        process when ``in_process``, else as subprocesses."""
        total = 0.0
        for op in ("estimate", "perturb"):
            if self.files is None:
                seconds, failures = self._library_op(op, tracer)
            else:
                seconds, failures = self._cli_op(op, in_process, tracer)
            total += seconds
            self.attempted += 1
            self.samples[op].append(seconds)
            if failures:
                self.failed += 1
                for message in failures:
                    if message not in self.failures and len(self.failures) < 20:
                        self.failures.append(message)
        return total

    def _library_op(self, op: str, tracer):
        inputs = self.inputs
        with _operation(tracer, f"op.{op}"):
            t0 = clock()
            if op == "estimate":
                out = bs.estimate_bayes_error(inputs.data, inputs.kernel)
            else:
                kwargs = {} if inputs.embedding is None else {"embedding": inputs.embedding}
                out = bs.pga_maximize(inputs.data, inputs.kernel, inputs.constraint,
                                      inputs.config, **kwargs)
            seconds = clock() - t0
        if op == "estimate":
            return seconds, self._verdict(op, checks.digest(out.per_sample_max_posterior),
                                          lambda: self._check_estimate(out.value))
        return seconds, self._verdict(
            op, checks.digest(out.perturbed.points, out.deltas, out.trace),
            lambda: self._check_perturb(out.perturbed, out.deltas, out.trace))

    def _cli_op(self, op: str, in_process: bool, tracer):
        argv = cli_argv(self.workload, self.inputs, self.files)[op]
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with _operation(tracer, f"op.{op}"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = clock()
                    code = cli.main(argv)
                    seconds = clock() - t0
            stderr = err.getvalue()
        else:
            t0 = clock()
            proc = subprocess.run([sys.executable, "-m", "bayeshield", *argv],
                                  env=self.env, capture_output=True, text=True)
            seconds, code, stderr = clock() - t0, proc.returncode, proc.stderr
        if code != 0:
            return seconds, [f"{op}: exit code {code}: {stderr.strip()[-300:]}"]
        return seconds, self._verdict(op, checks.digest(*self.files.outputs[op]),
                                      getattr(self, f"_check_cli_{op}"))

    # -------------------------------------------------------------- checks

    def _verdict(self, op: str, digest: str, verify) -> list:
        """Checks run on the first output of each op; later outputs must
        have the same sha256 and share its verdict."""
        first = self.first_digest.setdefault(op, digest)
        if digest != first:
            return [f"{op}: output sha256 {digest[:12]} differs from the first run's {first[:12]}"]
        if op not in self.verdict:
            self.verdict[op] = verify()
        return self.verdict[op]

    def _check_estimate(self, value: float) -> list:
        self.clean_value = value
        limit = 1.0 - 1.0 / self.inputs.data.num_classes
        return [] if 0.0 <= value <= limit else [f"estimate {value!r} outside [0, {limit}]"]

    def _check_perturb(self, perturbed, deltas, trace) -> list:
        self.after = float(trace[-1])
        if self.clean_value is None:
            return ["no verified clean estimate to compare trace[0] with"]
        return checks.check_perturbation(self.inputs, self.clean_value, perturbed,
                                         np.asarray(deltas), np.asarray(trace))

    def _check_cli_estimate(self) -> list:
        table = np.loadtxt(self.files.estimate_out, delimiter=",", comments="#", skiprows=2)
        return self._check_estimate(float(1.0 - table[:, 1].mean()))

    def _check_cli_perturb(self) -> list:
        deltas_path, trace_path = self.files.outputs["perturb"][1:]
        try:
            perturbed = cli.read_dataset_csv(self.files.perturb_out)
            deltas = cli.read_deltas_csv(deltas_path)
            trace = cli.read_trace_csv(trace_path)
        except ValueError as exc:
            return [f"perturb: unreadable output: {exc}"]
        return self._check_perturb(perturbed, deltas, trace)


@contextlib.contextmanager
def _operation(tracer, name):
    """When tracing, wrap the layers and open an operation span around
    one operation only, so that checks between operations stay untraced."""
    if tracer is None:
        yield
        return
    with tracer.installed("bayeshield", LAYER_TARGETS), tracer.span(name):
        yield


def layer_metrics(tracer: Tracer, cycles: int, import_s: float,
                  generate_share: float, overhead: float) -> dict:
    """Per-layer figures per traced cycle (one estimate and one perturbation).

    Times of functions that sit idle on some workloads are given as
    ``.share``: seconds over ``trace.op_s``, so that no time metric reads
    a constant 0 on the workloads that bypass them.
    """
    totals = summarize(tracer.spans)

    def get(name: str) -> Totals:
        return totals.get(name, Totals())

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    op_s = sum(s.end - s.start for s in tracer.spans if s.parent < 0) / cycles
    # A CLI user pays interpreter start-up once per command.
    imports = import_s * get("cli.main").calls / cycles
    layer_self = dict.fromkeys(SHARED_LAYERS, 0.0)
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t.self_seconds / cycles
    layer_self["cli"] += imports

    def share(seconds):
        return ratio(seconds / cycles, op_s), "ratio"

    posteriors = get("estimator.estimate_posteriors")
    gradient = get("perturb.objective_and_gradient")
    pga = get("perturb.pga_maximize")
    reads = get("cli.read_dataset_csv")
    m = {
        "estimator.estimate_posteriors.self_s": (posteriors.self_seconds / cycles, "s"),
        "estimator.estimate_posteriors.calls": (posteriors.calls / cycles, "count"),
        "estimator.estimate_posteriors.pairs_per_s": (
            ratio(posteriors.counts.get("pairs", 0), posteriors.self_seconds), "1/s"),
        "perturb.objective_and_gradient.self_s": (gradient.self_seconds / cycles, "s"),
        "perturb.objective_and_gradient.calls": (gradient.calls / cycles, "count"),
        "perturb.objective_and_gradient.pairs_per_s": (
            ratio(gradient.counts.get("pairs", 0), gradient.self_seconds), "1/s"),
        "perturb.objective_and_gradient.s_per_call": (ratio(gradient.seconds, gradient.calls), "s"),
        "perturb.pga_maximize.self_s": (pga.self_seconds / cycles, "s"),
        "perturb.ascent_frac": (ratio(pga.counts.get("ascents", 0), pga.counts.get("steps", 0)), "ratio"),
        "perturb.boundary_rows_frac": (
            ratio(pga.counts.get("boundary_rows", 0), pga.counts.get("free_rows", 0)), "ratio"),
        "perturb.tied_rows": (gradient.counts.get("tied_rows", 0) / cycles, "count"),
        "embed.embed_points.share": share(get("embed.embed_points").seconds),
        "embed.embed_points.calls": (get("embed.embed_points").calls / cycles, "count"),
        "embed.pullback_gradients.share": share(get("embed.pullback_gradients").seconds),
        "embed.pullback_gradients.calls": (get("embed.pullback_gradients").calls / cycles, "count"),
        "embed.load_embedding.share": share(get("embed.load_embedding").seconds),
        "cli.import_s": (import_s, "s"),
        "cli.main.self_share": share(get("cli.main").self_seconds),
        "cli.read_dataset_csv.share": share(reads.seconds),
        "cli.read_dataset_csv.mb_per_s": (ratio(reads.counts.get("bytes", 0) / 1e6, reads.seconds), "MB/s"),
        **{f"cli.{w}.share": share(get(f"cli.{w}").seconds) for w in CLI_WRITERS},
        "cli.bytes_written": (
            sum(get(f"cli.{w}").counts.get("bytes", 0) for w in CLI_WRITERS) / cycles, "bytes"),
        "synth.generate_moons.setup_share": (generate_share, "ratio"),
        "trace.op_s": (op_s, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "share.pairwise": (ratio((posteriors.self_seconds + gradient.self_seconds) / cycles,
                                 op_s + imports), "ratio"),
        **{f"share.{layer}": (ratio(seconds, op_s + imports), "ratio")
           for layer, seconds in layer_self.items()},
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def import_seconds(env) -> float:
    """Median wall time of a fresh interpreter importing the CLI, which
    is what every `python -m bayeshield` command pays."""
    samples = []
    for _ in range(IMPORT_PROBES):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import bayeshield.cli"], env=env, check=True)
        samples.append(clock() - t0)
    return statistics.median(samples)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", "unknown"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the launcher's time.perf_counter() just before it started this "
                        "process; the clock is system-wide, so set-up time starts there")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(bs.__file__).resolve().is_relative_to(SRC):
        print(f"bayeshield imported from {bs.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    setup_tracer = Tracer()
    with setup_tracer.installed("bayeshield", SETUP_TARGETS if args.trace else {}):
        inputs = make_inputs(workload, args.seed)
    files = write_cli_inputs(inputs, Path(args.workdir)) if workload.cli else None
    setup_s = clock() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    env = dict(os.environ, PYTHONPATH=str(SRC))
    runner = Runner(workload, inputs, files, env)
    # Cycles run until their operations have taken --seconds, so the time
    # spent on checks between operations does not change the sample count.
    if args.trace:
        # Untraced and traced cycles alternate; CLI commands run in process
        # both ways, so the two kinds differ only by the tracer.
        tracer = Tracer()
        walls = {False: [], True: []}
        while sum(walls[False] + walls[True]) < args.seconds or not all(walls.values()):
            traced = len(walls[False]) > len(walls[True])
            walls[traced].append(runner.cycle(tracer if traced else None, in_process=True))
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        generate = summarize(setup_tracer.spans).get("synth.generate_moons", Totals())
        out["layers"] = layer_metrics(tracer, len(walls[True]), import_seconds(env),
                                      generate.seconds / setup_s, overhead)
        out["absent"] = sorted(tracer.absent | setup_tracer.absent)
    else:
        measured = 0.0
        while measured < args.seconds:
            measured += runner.cycle()
        who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.update(
        samples=runner.samples,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        bayes_error_after=runner.after,
        digests=runner.first_digest,
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
