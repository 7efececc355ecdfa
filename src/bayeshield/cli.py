"""Command-line interface and the on-disk formats.

Subcommands: ``estimate``, ``perturb``, ``gradcheck``, ``gen``,
``demo``. Every run can emit a JSON report that echoes the fully
resolved configuration, so any result can be reproduced from the
report alone. Exit codes: 0 success, 1 internal error or failed check,
2 user or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .core import (
    LabeledDataset,
    NORM_ORDERS,
    PerturbationConstraint,
    PgaConfig,
    SimilarityKernel,
)
from .embed import embed_dataset, load_embedding
from .estimator import (
    estimate_bayes_error,
    median_heuristic_bandwidth,
)
from .perturb import (
    DEFAULT_ITERATIONS,
    STEP_SCALE,
    default_step_size,
    objective_and_gradient,
    pga_maximize,
)
from .synth import (
    MOONS_BANDWIDTH,
    analytic_bayes_error,
    canonical_truncated_normal_pair,
    finite_difference_gradient,
    generate_moons,
    sample_truncated_normal_pair,
)

TABLE_FORMAT_VERSION = 1
REPORT_FORMAT_VERSION = 1

GRADCHECK_THRESHOLD = 1e-4

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2

# Bytes read at a time when a report fingerprints its input file.
_HASH_CHUNK = 1 << 16

# Flags that select the command or the report itself, and the run's start
# time; every other flag is echoed into the report config.
_NOT_ECHOED = ("command", "handler", "report", "started")

class CsvFormatError(ValueError):
    """Malformed table file; the message names the file and the line."""


# ---------------------------------------------------------------- formats
#
# Every table is text: "# key=value" comments, one comma-separated
# header row, then one row per record. Floats are written with repr,
# the shortest string that parses back to the same bits, which is what
# makes round-trips byte-identical.

def _write_table(path, meta: dict, header, rows) -> None:
    """Write a table a line at a time, so a large table is never held as
    one string. ``open`` translates newlines as ``Path.write_text`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        for fields in rows:
            fh.write(",".join(fields) + "\n")


def _read_table(path, what: str, header: bool = True) -> tuple:
    """Split a table file into ``(meta, head, rows)``.

    Blank lines are skipped and ``#`` lines are comments; a ``# key=value``
    comment goes into ``meta`` as ``key: (lineno, value)``, and a
    ``version`` must be TABLE_FORMAT_VERSION. With ``header``, comments
    may only precede the header, ``head`` is its ``(lineno, fields)``,
    every row must have as many fields as the header, and at least one
    row is required. Rows are ``(lineno, line)``, left unsplit so that a
    large table is never held as one string per field. Errors name the
    file and the line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
    meta = {}
    head = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if head is not None:
                raise CsvFormatError(f"{path}:{lineno}: comment after header")
            key, sep, value = line[1:].partition("=")
            key, value = key.strip(), value.strip()
            if sep:
                if key == "version" and value != str(TABLE_FORMAT_VERSION):
                    raise CsvFormatError(f"{path}:{lineno}: unsupported {what} version {value!r}")
                meta[key] = (lineno, value)
            continue
        if header and head is None:
            head = (lineno, line.split(","))
            continue
        if head is not None and line.count(",") != len(head[1]) - 1:
            raise CsvFormatError(
                f"{path}:{lineno}: expected {len(head[1])} fields, "
                f"got {line.count(',') + 1}"
            )
        rows.append((lineno, line))
    if header and head is None:
        raise CsvFormatError(f"{path}: no header row found")
    if header and not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return meta, head, rows


def _floats(path, lineno: int, fields, names) -> list:
    """One row's fields as finite floats; an error names the line and the
    first column that is not a number or not finite."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        values = None
    # a nan or an infinity makes the sum one too, so only a row with a bad
    # field or with finite fields whose sum overflows is scanned
    if values is not None and math.isfinite(sum(values)):
        return values
    for name, v in zip(names, fields):
        try:
            value = float(v)
        except ValueError:
            raise CsvFormatError(
                f"{path}:{lineno}: column {name}: {v!r} is not a number"
            ) from None
        if not math.isfinite(value):
            raise CsvFormatError(f"{path}:{lineno}: column {name}: {v!r} is not finite")
    return values


def _integer(path, lineno: int, text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise CsvFormatError(f"{path}:{lineno}: {what} {text!r} is not an integer") from None
    if value < 0:
        raise CsvFormatError(f"{path}:{lineno}: {what} {value} is negative")
    if value > np.iinfo(np.int64).max:
        raise CsvFormatError(f"{path}:{lineno}: {what} {value} does not fit in 64 bits")
    return value


def _columns(d: int) -> list:
    return [f"f{j}" for j in range(d)]


def write_dataset_csv(path, data: LabeledDataset) -> None:
    _write_table(
        path,
        {"version": TABLE_FORMAT_VERSION, "k": data.num_classes},
        _columns(data.d) + ["label"],
        (
            [*map(repr, row.tolist()), str(label)]
            for row, label in zip(data.points, data.labels.tolist())
        ),
    )


def read_dataset_csv(path) -> LabeledDataset:
    """Parse the dataset format; errors name the offending line."""
    meta, (header_line, header), rows = _read_table(path, "dataset")
    d = len(header) - 1
    if d < 1 or header != _columns(d) + ["label"]:
        raise CsvFormatError(
            f"{path}:{header_line}: header must be f0,..,f{max(d - 1, 0)},label, "
            f"got {','.join(header)!r}"
        )
    declared_k = None
    if "k" in meta:
        declared_k = _integer(path, meta["k"][0], meta["k"][1], "class count")
    points = np.empty((len(rows), d))
    labels = np.empty(len(rows), dtype=np.int64)
    for r, (lineno, line) in enumerate(rows):
        fields = line.split(",")
        points[r] = _floats(path, lineno, fields[:-1], header)
        labels[r] = _integer(path, lineno, fields[-1], "label")
        if declared_k is not None and labels[r] >= declared_k:
            raise CsvFormatError(
                f"{path}:{lineno}: label {labels[r]} outside declared class "
                f"count k={declared_k}"
            )
    top = int(labels.argmax())
    k, k_line = (declared_k, meta["k"][0]) if "k" in meta else (int(labels[top]) + 1, rows[top][0])
    # classes may go unused, but the estimator's (n, k) tables must stay O(n)
    if k > 2 * len(rows):
        raise CsvFormatError(f"{path}:{k_line}: class count {k} is over twice the {len(rows)} rows")
    try:
        return LabeledDataset(points, labels, k)
    except ValueError as exc:
        raise CsvFormatError(f"{path}: {exc}") from exc


def _write_series(path, header, values) -> None:
    """A two-column table: each value's index, then the value."""
    _write_table(
        path,
        {"version": TABLE_FORMAT_VERSION},
        header,
        ([str(i), repr(v)] for i, v in enumerate(np.asarray(values, dtype=np.float64).tolist())),
    )


def write_trace_csv(path, trace) -> None:
    _write_series(path, ["iter", "bayes_error"], trace)


def read_trace_csv(path) -> np.ndarray:
    _, (header_line, header), rows = _read_table(path, "trace")
    if header != ["iter", "bayes_error"]:
        raise CsvFormatError(f"{path}:{header_line}: trace header must be iter,bayes_error")
    values = []
    for expected, (lineno, line) in enumerate(rows):
        index, value = line.split(",")
        if _integer(path, lineno, index, "iteration") != expected:
            raise CsvFormatError(f"{path}:{lineno}: expected iteration {expected}")
        values.extend(_floats(path, lineno, [value], header[1:]))
    return np.asarray(values)


def write_deltas_csv(path, deltas) -> None:
    arr = np.asarray(deltas, dtype=np.float64)
    _write_table(
        path,
        {"version": TABLE_FORMAT_VERSION},
        _columns(arr.shape[1]),
        (map(repr, row.tolist()) for row in arr),
    )


def read_deltas_csv(path) -> np.ndarray:
    _, (header_line, header), rows = _read_table(path, "deltas")
    if header != _columns(len(header)):
        raise CsvFormatError(
            f"{path}:{header_line}: deltas header must be f0,..,f{len(header) - 1}"
        )
    deltas = np.empty((len(rows), len(header)))
    for r, (lineno, line) in enumerate(rows):
        deltas[r] = _floats(path, lineno, line.split(","), header)
    return deltas


def read_frozen_file(path) -> frozenset:
    """Zero-based sample indices, one per line; blanks and # comments skipped."""
    _, _, rows = _read_table(path, "frozen file", header=False)
    return frozenset(_integer(path, lineno, line, "frozen index") for lineno, line in rows)


def _fingerprint(path) -> str:
    """sha256 of a file, read in chunks of _HASH_CHUNK bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _run_report(args, fingerprint, results: dict, **resolved) -> None:
    """Write the ``--report`` JSON of a run, if one was asked for.

    The config echoes every flag, with the values the run resolved
    (bandwidth, step size, sizes) added or put in place of the flags'
    defaults; ``fingerprint`` is the input file's, from :func:`_fingerprint`.
    """
    if not args.report:
        return
    config = {key: v for key, v in vars(args).items() if key not in _NOT_ECHOED}
    config.update(resolved)
    write_report(
        args.report,
        {
            "version": REPORT_FORMAT_VERSION,
            "command": args.command,
            "input_fingerprint": fingerprint,
            "config": config,
            "results": results,
            "timing_seconds": time.perf_counter() - args.started,
        },
    )


def _derived_path(out, tag: str) -> Path:
    p = Path(out)
    suffix = p.suffix if p.suffix else ".csv"
    return p.with_name(f"{p.stem}.{tag}{suffix}")


# ------------------------------------------------------------ subcommands

def _read_inputs(args) -> tuple:
    """Read the input of ``estimate``, ``perturb`` or ``gradcheck``.

    Returns ``(data, embedding, kernel, fingerprint, echo)``. The dataset's
    fingerprint is taken before the command writes anything, so an output
    that overwrites the input leaves it as it was; it is None without
    ``--report``. Without ``--sigma`` the bandwidth is the median heuristic
    in the space where similarity is evaluated, so an embedding is applied
    first. ``echo`` holds the values every report adds to its config.
    """
    data = read_dataset_csv(args.dataset)
    fingerprint = _fingerprint(args.dataset) if args.report else None
    embedding = None if args.embedding is None else load_embedding(args.embedding)
    if args.sigma is None:
        target = data if embedding is None else embed_dataset(embedding, data)
        sigma, sigma_source = median_heuristic_bandwidth(target), "median-heuristic"
    elif args.sigma <= 0:
        raise ValueError(f"--sigma must be positive, got {args.sigma}")
    else:
        sigma, sigma_source = float(args.sigma), "flag"
    echo = dict(sigma=sigma, sigma_source=sigma_source, n=data.n, d=data.d, k=data.num_classes)
    return data, embedding, SimilarityKernel(bandwidth=sigma), fingerprint, echo


def cmd_estimate(args) -> int:
    data, embedding, kernel, fingerprint, echo = _read_inputs(args)
    target = data if embedding is None else embed_dataset(embedding, data)
    estimate = estimate_bayes_error(target, kernel)
    posteriors = estimate.per_sample_max_posterior
    if args.out:
        _write_series(args.out, ["index", "max_posterior"], posteriors)
    # the report goes first: a listing of n lines may meet a closed stdout
    _run_report(
        args,
        fingerprint,
        {"bayes_error": estimate.value, "per_sample_max_posterior": posteriors.tolist()},
        **echo,
    )
    print(f"bayes error: {estimate.value:.6f}")
    if args.out:
        print(f"per-sample max posteriors written to {args.out}")
    else:
        for value in posteriors:
            print(f"{value:.6f}")
    return EXIT_OK


def _write_pga_outputs(result, out, deltas_path, trace_path, note: str = "") -> dict:
    """Write the perturbed dataset, its deltas and its trace; print the
    estimate before and after and the lift. Returns the report results."""
    write_dataset_csv(out, result.perturbed)
    write_deltas_csv(deltas_path, result.deltas)
    write_trace_csv(trace_path, result.trace)
    before = float(result.trace[0])
    after = float(result.trace[-1])
    print(f"bayes error before: {before:.6f}")
    print(f"bayes error after:  {after:.6f}")
    print(f"lift: {after / before:.4f}{note}" if before > 0 else "lift: undefined")
    return {
        "bayes_error_before": before,
        "bayes_error_after": after,
        "trace": result.trace.tolist(),
        "halvings": list(result.halvings),
    }


def cmd_perturb(args) -> int:
    data, embedding, kernel, fingerprint, echo = _read_inputs(args)
    frozen = read_frozen_file(args.frozen) if args.frozen else frozenset()
    constraint = PerturbationConstraint(
        norm_order=args.norm, radius=args.eps, frozen=frozen
    )
    eta = args.eta if args.eta is not None else default_step_size(data.n, args.eps)
    config = PgaConfig(step_size=eta, max_iterations=args.iters)
    result = pga_maximize(data, kernel, constraint, config, embedding=embedding)
    deltas_path = _derived_path(args.out, "deltas")
    trace_path = _derived_path(args.out, "trace")
    results = _write_pga_outputs(result, args.out, deltas_path, trace_path)
    print(f"perturbed dataset written to {args.out}")
    print(f"deltas written to {deltas_path}")
    print(f"trace written to {trace_path}")
    # the step size is echoed between the bandwidth and the sizes
    shape = {key: echo.pop(key) for key in ("n", "d", "k")}
    _run_report(
        args,
        fingerprint,
        results,
        **echo,
        eta=float(eta),
        eta_source="flag" if args.eta is not None else "default",
        frozen_count=len(frozen),
        **shape,
    )
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    data, embedding, kernel, fingerprint, echo = _read_inputs(args)
    report = objective_and_gradient(data, kernel, embedding=embedding)
    fd = finite_difference_gradient(data, kernel, embedding=embedding, h=args.h)
    keep = np.ones(data.n, dtype=bool)
    for row in report.tied_rows:
        keep[row] = False
    rel = np.abs(report.gradients[keep] - fd[keep]) / (np.abs(fd[keep]) + 1e-8)
    max_rel = float(rel.max()) if keep.any() else 0.0
    passed = max_rel <= GRADCHECK_THRESHOLD
    # the report goes first: the tied rows' line grows with n
    _run_report(
        args,
        fingerprint,
        {
            "max_relative_error": max_rel,
            "threshold": GRADCHECK_THRESHOLD,
            "tied_rows": list(report.tied_rows),
            "passed": passed,
        },
        **echo,
    )
    if report.tied_rows:
        tied = ", ".join(str(r) for r in report.tied_rows)
        print(f"argmax ties at rows: {tied} (excluded from the comparison)")
    if not keep.any():
        print("all rows tied; nothing to compare")
    print(f"max relative error: {max_rel:.3e}")
    print("gradient check passed" if passed else "gradient check FAILED")
    return EXIT_OK if passed else EXIT_INTERNAL


def cmd_gen(args) -> int:
    if args.generator == "moons":
        data = generate_moons(args.n, args.noise, args.seed)
    else:
        data = sample_truncated_normal_pair(
            canonical_truncated_normal_pair(), args.n, args.seed
        )
        del args.noise  # the truncated normals take no jitter; keep it out of the echo
    write_dataset_csv(args.out, data)
    print(f"{args.generator} dataset with n={data.n} written to {args.out}")
    fingerprint = _fingerprint(args.out) if args.report else None
    _run_report(args, fingerprint, {"n": data.n, "d": data.d, "k": data.num_classes})
    return EXIT_OK


def cmd_demo(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    args.report = Path(args.report or outdir / f"{args.name}_report.json")
    if args.name == "truncnorm":
        return _demo_truncnorm(args, outdir)
    return _demo_moons(args, outdir)


def _demo_truncnorm(args, outdir: Path) -> int:
    spec = canonical_truncated_normal_pair()
    analytic = analytic_bayes_error(spec)
    n = 2000
    data = sample_truncated_normal_pair(spec, n, args.seed)
    sigma = median_heuristic_bandwidth(data)
    estimate = estimate_bayes_error(data, SimilarityKernel(bandwidth=sigma))
    diff = abs(estimate.value - analytic)
    sample_path = outdir / "truncnorm_sample.csv"
    write_dataset_csv(sample_path, data)
    print(f"analytic bayes error:      {analytic:.6f}")
    print(f"sample estimate (n={n}): {estimate.value:.6f}  (sigma={sigma:.6f}, median heuristic)")
    print(f"absolute difference:       {diff:.6f}")
    print(f"sample written to {sample_path}")
    _run_report(
        args,
        _fingerprint(sample_path),
        {
            "analytic_bayes_error": analytic,
            "sample_estimate": estimate.value,
            "absolute_difference": diff,
        },
        n=n,
        sigma=sigma,
        sigma_source="median-heuristic",
        out=str(outdir),
    )
    print(f"report written to {args.report}")
    return EXIT_OK


def _demo_moons(args, outdir: Path) -> int:
    n, noise, eps, iters = 200, 0.1, 0.25, DEFAULT_ITERATIONS
    data = generate_moons(n, noise, args.seed)
    sigma = MOONS_BANDWIDTH
    kernel = SimilarityKernel(bandwidth=sigma)
    eta = default_step_size(n, eps)
    constraint = PerturbationConstraint(norm_order="l2", radius=eps)
    config = PgaConfig(step_size=eta, max_iterations=iters)
    result = pga_maximize(data, kernel, constraint, config)
    paths = [outdir / f"moons_{tag}.csv" for tag in ("before", "after", "deltas", "trace")]
    write_dataset_csv(paths[0], data)
    results = _write_pga_outputs(result, *paths[1:], note=f"  (budget eps={eps}, l2)")
    for path in paths:
        print(f"wrote {path}")
    _run_report(
        args,
        _fingerprint(paths[0]),
        dict(results, lift=results["bayes_error_after"] / results["bayes_error_before"]),
        n=n,
        noise=noise,
        sigma=sigma,
        sigma_source="moons-calibrated",
        eps=eps,
        norm="l2",
        eta=eta,
        iters=iters,
        out=str(outdir),
    )
    print(f"report written to {args.report}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _add_kernel_flags(sub) -> None:
    sub.add_argument(
        "--sigma", type=float, default=None,
        help="kernel bandwidth (default: the median pairwise distance)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayeshield",
        description=(
            "Estimate the Bayes error of a labeled sample and construct "
            "perturbed datasets that raise it under a norm budget."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="leave-one-out Bayes error estimate")
    est.add_argument("dataset", help="dataset CSV path")
    _add_kernel_flags(est)
    est.add_argument("--embedding", default=None, help="embedding map JSON file")
    est.add_argument("--out", default=None, help="write per-sample max posteriors here")
    est.set_defaults(handler=cmd_estimate)

    per = subs.add_parser("perturb", help="projected gradient ascent on the estimate")
    per.add_argument("dataset", help="dataset CSV path")
    per.add_argument("--eps", type=float, required=True, help="perturbation radius")
    per.add_argument("--norm", choices=list(NORM_ORDERS), default="l2", help="budget norm")
    per.add_argument(
        "--eta", type=float, default=None,
        help=f"ascent step size (default: {STEP_SCALE} * n * eps)",
    )
    per.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS, help="gradient steps")
    per.add_argument("--frozen", default=None, help="file of indices pinned to zero")
    per.add_argument("--embedding", default=None, help="embedding map JSON file")
    _add_kernel_flags(per)
    per.add_argument("--out", required=True, help="perturbed dataset CSV path")
    per.set_defaults(handler=cmd_perturb)

    grad = subs.add_parser("gradcheck", help="analytic vs finite-difference gradient")
    grad.add_argument("dataset", help="dataset CSV path")
    grad.add_argument("--h", type=float, default=1e-5, help="central difference step")
    grad.add_argument("--embedding", default=None, help="embedding map JSON file")
    _add_kernel_flags(grad)
    grad.set_defaults(handler=cmd_gradcheck)

    gen = subs.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("generator", choices=["moons", "truncnorm"])
    gen.add_argument("--n", type=int, default=None, help="sample size")
    gen.add_argument("--noise", type=float, default=0.1, help="moons jitter std")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="dataset CSV path")
    gen.set_defaults(handler=cmd_gen)

    demo = subs.add_parser("demo", help="run a canonical end-to-end example")
    demo.add_argument("name", choices=["truncnorm", "moons"])
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--out", default=".", help="output directory")
    demo.set_defaults(handler=cmd_demo)

    for sub in subs.choices.values():
        sub.add_argument("--report", default=None, help="write a JSON run report here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.n is None:
        args.n = 200 if args.generator == "moons" else 2000
    args.started = time.perf_counter()
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USER
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
