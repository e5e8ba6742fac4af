"""Workload definitions and seeded synthetic datasets for the benchmark.

A workload fixes the problem shape (mode, sizes, kernel, budget); the seed
passed on the command line fixes the data, the split, the pivots, the
centers and the sketch.  Datasets are written as libsvm text so the
benchmark drives the package through the same loader a user would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FULL = "full"
RESTRICTED = "restricted"

CLOUD = "cloud"
CLUSTERED = "clustered"

MU_OVER_N = 1e-7
# A budget that holds this many kernel columns of the training set forces the
# restricted operator to stream A(I,S) row blocks instead of caching A(:,S).
STREAM_BUDGET_COLUMNS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    data: str
    n_train: int
    n_test: int
    dim: int
    bandwidth: float
    rank: int = 0
    centers: int = 0
    stream: bool = False

    @property
    def test_fraction(self) -> float:
        return self.n_test / (self.n_train + self.n_test)

    @property
    def memory_budget(self) -> int:
        if self.stream:
            return 8 * self.n_train * STREAM_BUDGET_COLUMNS
        return 1 << 30

    @property
    def epsilon(self) -> float:
        # the package's per-mode defaults, which the CLI also uses
        return 1e-3 if self.mode == FULL else 1e-4


WORKLOADS = {w.name: w for w in (
    Workload(
        "full-cloud",
        "full KRR, PCG with an RPCholesky preconditioner; every matvec "
        "regenerates the whole kernel, so the kernel operator dominates",
        FULL, CLOUD, n_train=1200, n_test=12000, dim=20, bandwidth=3.0,
        rank=240),
    Workload(
        "full-lowrank",
        "full KRR on imbalanced clusters; one PCG iteration, so the factor "
        "and preconditioner build dominate and the operator is bypassed",
        FULL, CLUSTERED, n_train=3000, n_test=6000, dim=10, bandwidth=1.0,
        rank=1000),
    Workload(
        "restricted-krill",
        "restricted KRR with KRILL and A(:,S) cached in memory; set-up, "
        "kernel columns and the sketch dominate",
        RESTRICTED, CLOUD, n_train=8000, n_test=12000, dim=20,
        bandwidth=3.0, centers=600),
    Workload(
        "restricted-stream",
        "same inputs as restricted-krill under a 100-column budget, so "
        "every operator apply regenerates A(I,S) in row blocks",
        RESTRICTED, CLOUD, n_train=8000, n_test=12000, dim=20,
        bandwidth=3.0, centers=600, stream=True),
)}


def gaussian_cloud(n: int, dim: int, seed: int):
    """Standard normal features and a smooth target with offset and noise."""
    rng = np.random.default_rng([seed, 1])
    x = rng.standard_normal((n, dim))
    return x, smooth_target(x, rng)


def clustered(n: int, dim: int, seed: int):
    """The package's imbalanced-cluster features with a smooth target."""
    from krrsolve.diagnostics import clustered_dataset

    x = clustered_dataset(n, dim, seed=seed)
    # A few clusters hold most points, so a full-amplitude target would make
    # the test error hinge on the level the largest cluster happens to draw.
    return x, smooth_target(x / x.std(), np.random.default_rng([seed, 2]), 0.3)


def smooth_target(x: np.ndarray, rng: np.random.Generator,
                  amplitude: float = 1.0) -> np.ndarray:
    """3 + amplitude sin(2 x.w) + noise along a random unit direction w.

    A unit w makes every seed an equally hard problem on isotropic features,
    and the offset keeps targets away from 0, where SMAPE is ill-conditioned.
    """
    w = rng.standard_normal(x.shape[1])
    w /= np.linalg.norm(w)
    return (3.0 + amplitude * np.sin(2.0 * (x @ w))
            + 0.1 * rng.standard_normal(x.shape[0]))


def make_dataset(workload: Workload, seed: int):
    n = workload.n_train + workload.n_test
    if workload.data == CLUSTERED:
        return clustered(n, workload.dim, seed)
    return gaussian_cloud(n, workload.dim, seed)


def write_libsvm(path: str, x: np.ndarray, y: np.ndarray) -> None:
    """Dense rows in libsvm text; repr() round-trips every float64 exactly."""
    with open(path, "w") as fh:
        for label, row in zip(y.tolist(), x.tolist()):
            feats = " ".join(f"{j}:{v!r}" for j, v in enumerate(row, start=1))
            fh.write(f"{label!r} {feats}\n")
