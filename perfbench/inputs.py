"""Seeded input generators for the benchmark workloads.

The seed draws the sample: the same workload and seed give bit-identical
points, labels and frozen rows. The library sees only these generated
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bayeshield as bs
from bayeshield import cli

from workloads import Workload

MOONS_NOISE = 0.1
# Class means are drawn N(0, MIXTURE_SPREAD^2) per coordinate around
# unit-variance clusters; with sigma=3 in 64-d this puts the clean
# estimate near 0.33, well inside (0, 0.9).
MIXTURE_SPREAD = 0.7
# Like the two moons' arcs, each workload's class structure (mixture
# means, image prototypes, the embedding) is fixed and the run's seed
# draws only the sample. Drawn from the seed too, the structure moved the
# clean estimate by 20-30% between seeds, too much for bayes_error_after
# to be held to a useful bound.
STRUCTURE_SEED = 20251111


@dataclass(frozen=True)
class Inputs:
    data: bs.LabeledDataset
    kernel: bs.SimilarityKernel
    constraint: bs.PerturbationConstraint
    config: bs.PgaConfig
    embedding: bs.EmbeddingMap | None


def gaussian_mixture(n: int, d: int, k: int, rng) -> bs.LabeledDataset:
    """Balanced isotropic mixture: unit-variance clusters at fixed random means."""
    means = np.random.default_rng(STRUCTURE_SEED).normal(0.0, MIXTURE_SPREAD, (k, d))
    labels = rng.permutation(np.arange(n) % k)
    points = means[labels] + rng.normal(0.0, 1.0, (n, d))
    return bs.LabeledDataset(points, labels, k)


def cifar_like(n: int, d: int, k: int, rng) -> bs.LabeledDataset:
    """Images in [0, 1] on the 1/255 grid: half a fixed class prototype, half noise."""
    prototypes = np.random.default_rng(STRUCTURE_SEED).random((k, d))
    labels = rng.permutation(np.arange(n) % k)
    pixels = 0.5 * prototypes[labels] + 0.5 * rng.random((n, d))
    return bs.LabeledDataset(np.round(pixels * 255.0) / 255.0, labels, k)


def tanh_embedding(d: int, widths: tuple) -> bs.EmbeddingMap:
    """Fixed untrained tanh MLP with N(0, 1/fan_in) weights and zero biases."""
    rng = np.random.default_rng(STRUCTURE_SEED + 1)
    layers = []
    for width in widths:
        weight = rng.normal(0.0, 1.0 / np.sqrt(d), (width, d))
        layers.append(bs.EmbeddingLayer(weight, np.zeros(width), "tanh"))
        d = width
    return bs.EmbeddingMap(tuple(layers))


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    w = workload
    if w.name == "moons-2k-l2":
        data = bs.generate_moons(w.n, MOONS_NOISE, seed)
    elif w.name == "mixture-k10-d64":
        data = gaussian_mixture(w.n, w.d, w.k, rng)
    elif w.name == "images-cli-embed":
        data = cifar_like(w.n, w.d, w.k, rng)
    else:
        raise ValueError(f"no generator for workload {w.name!r}")
    frozen = rng.choice(w.n, round(w.frozen_share * w.n), replace=False)
    embedding = tanh_embedding(w.d, w.embedding) if w.embedding else None
    step = w.step if w.step is not None else bs.default_step_size(w.n, w.eps)
    return Inputs(
        data=data,
        kernel=bs.SimilarityKernel(w.sigma),
        constraint=bs.PerturbationConstraint(w.norm, w.eps, frozenset(frozen.tolist())),
        config=bs.PgaConfig(step_size=step, max_iterations=w.iterations),
        embedding=embedding,
    )


@dataclass(frozen=True)
class CliFiles:
    dataset: Path
    embedding: Path
    estimate_out: Path
    perturb_out: Path
    report: Path

    @property
    def outputs(self) -> dict:
        """Every output file the two commands write, except the report,
        whose timing field changes from run to run."""
        out = self.perturb_out
        return {
            "estimate": [self.estimate_out],
            "perturb": [out, out.with_name(f"{out.stem}.deltas{out.suffix}"),
                        out.with_name(f"{out.stem}.trace{out.suffix}")],
        }


def write_cli_inputs(inputs: Inputs, workdir: Path) -> CliFiles:
    """Write the dataset CSV and embedding JSON the CLI commands read."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = CliFiles(
        dataset=workdir / "data.csv",
        embedding=workdir / "embedding.json",
        estimate_out=workdir / "posteriors.csv",
        perturb_out=workdir / "perturbed.csv",
        report=workdir / "perturb_report.json",
    )
    cli.write_dataset_csv(files.dataset, inputs.data)
    bs.save_embedding(inputs.embedding, files.embedding)
    return files


def cli_argv(workload: Workload, inputs: Inputs, files: CliFiles) -> dict:
    """Arguments of the two CLI commands one cycle runs."""
    sigma = repr(inputs.kernel.bandwidth)
    return {
        "estimate": ["estimate", str(files.dataset), "--embedding", str(files.embedding),
                     "--sigma", sigma, "--out", str(files.estimate_out)],
        "perturb": ["perturb", str(files.dataset), "--norm", workload.norm,
                    "--eps", repr(workload.eps), "--iters", str(workload.iterations),
                    "--embedding", str(files.embedding), "--sigma", sigma,
                    "--out", str(files.perturb_out), "--report", str(files.report)],
    }
