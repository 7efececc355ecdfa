"""The benchmark's workloads: fixed sizes and settings, one line of why.

Only the seed varies between runs, and it only changes the generated
inputs (see ``inputs.py``). This module imports nothing outside the
standard library, so the launcher can list workloads without numpy.
README.md in this directory explains each choice at length.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One fixed problem. ``iterations`` is the PGA step count per job;
    ``step`` is None for the library's default step size."""

    name: str
    why: str
    n: int
    d: int
    k: int
    norm: str
    eps: float
    sigma: float
    iterations: int
    step: float | None
    frozen_share: float
    embedding: tuple  # hidden and output widths of the tanh MLP, () for none
    cli: bool  # driven through `python -m bayeshield` subprocesses

    @property
    def dense_bytes(self) -> int:
        """Bytes of one dense n x n float64 array, as computed from n."""
        return self.n * self.n * 8


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="moons-2k-l2",
            why="d=2, K=2, n=2000: time is the n x n pass over 32 MB arrays, "
            "the memory-bound and peak-RSS case; embed and cli do no work",
            n=2000,
            d=2,
            k=2,
            norm="l2",
            eps=0.25,
            sigma=0.425,  # bayeshield.MOONS_BANDWIDTH, pinned so inputs stay fixed
            iterations=2,
            step=None,
            frozen_share=0.0,
            embedding=(),
            cli=False,
        ),
        Workload(
            name="mixture-k10-d64",
            why="d=64, K=10, n=1000: compute-heavy pass over 8 MB arrays; "
            "the only library case with the Linf clamp and frozen rows",
            n=1000,
            d=64,
            k=10,
            norm="linf",
            eps=0.1,
            sigma=3.0,
            iterations=2,
            step=1000.0,  # two steps lift the estimate ~25%, most free rows clamped
            frozen_share=0.25,
            embedding=(),
            cli=False,
        ),
        Workload(
            name="images-cli-embed",
            why="CLI on n=200 CIFAR-shaped images through a 3072-128-32 "
            "embedding: interpreter start, CSV and JSON I/O dominate",
            n=200,
            d=3072,
            k=10,
            norm="linf",
            eps=8 / 255,
            sigma=0.4,
            iterations=2,
            step=None,
            frozen_share=0.0,
            embedding=(128, 32),
            cli=True,
        ),
    )
}
