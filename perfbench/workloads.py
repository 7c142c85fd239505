"""The benchmark's workloads: why each exists, what it runs, how it is checked.

Every workload is a closed loop with one client: the benchmark runs one
gutgraph command at a time and starts the next when the previous one has
exited. Inputs come only from ``gutgraph synth`` at the benchmark's seed;
model seeds are fixed so that the seed varies the data, not the method.

The predicted layer shares were written down before the first measurement
(from single-command timings on 2 cores, OpenBLAS 0.3.31, one BLAS
thread). The traced run prints the measured shares next to them and flags
any that fall outside.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import checks

AUC_FLOOR = 0.9  # separation 2.0 scores AUC 1.0 even untrained; a floor only
N_FEATURES = 60
FOLDS = 5
# synth takes ~0.3 s, mostly interpreter start, and the host's speed drifts
# in phases of seconds: one set-up is not a measurement, and repeats run
# back to back share one phase. So the set-up is repeated this many times,
# spread evenly over the run's timed iterations.
SETUP_REPEATS = 15


@dataclass(frozen=True)
class Prediction:
    """``lo <= sum(metrics) <= hi`` is expected in the traced run."""

    label: str
    metrics: tuple[str, ...]
    lo: float
    hi: float


@dataclass(frozen=True)
class Workload:
    """``gutgraph evaluate`` on a synthetic cohort of ``2 * n_per_class``
    samples; the set-up is the ``gutgraph synth`` that makes the cohort."""

    name: str
    why: str
    predictions: tuple[Prediction, ...]
    n_per_class: int
    epochs: int
    eval_seeds: int

    def setup(self, data: str, seed: int) -> list[list[str]]:
        """CLI argument lists that write the inputs into ``data``."""
        return [["synth", "--n-per-class", str(self.n_per_class),
                 "--n-features", str(N_FEATURES), "--separation", "2.0",
                 "--seed", str(seed), "--out-dir", data]]

    def timed(self, data: str, out: str) -> list[list[str]]:
        """CLI argument lists of one timed iteration writing into ``out``."""
        return [["evaluate", "--table", os.path.join(data, "abundance.tsv"),
                 "--labels", os.path.join(data, "labels.tsv"), "--out-dir", out,
                 "--epochs", str(self.epochs), "--eval-seeds", str(self.eval_seeds),
                 "--folds", str(FOLDS), "--seed", "0", "--jobs", "1"]]

    def check(self, out: str) -> list[str]:
        """Problems with the artifacts of the iteration that wrote ``out``."""
        return checks.check_metrics(os.path.join(out, "metrics.json"),
                                    self.eval_seeds * FOLDS, AUC_FLOOR)


WORKLOADS = {w.name: w for w in (
    # The paper's desk-scale evaluation. Unsupervised epochs hold ~90% of the
    # time (forward ~23 ms, backward ~59 ms, clip+Adam ~11 ms per epoch);
    # graph build is ~0.19 s per seed and parsing under 0.02 s. Tape and
    # GEMM work show here; distance and parse work do not.
    Workload(
        name="cv-small",
        why="paper-scale 5-fold CV at N=120: epoch-bound, so forward, tape "
            "backward and Adam dominate and graph build and parsing are "
            "negligible",
        predictions=(
            Prediction("model+autodiff", ("share.model", "share.autodiff"),
                       0.85, 1.0),
            Prediction("graph", ("share.graph",), 0.0, 0.05),
        ),
        n_per_class=60,
        epochs=60,
        eval_seeds=2,
    ),
    # The O(N^2) case: 460k sample pairs per distance metric. Graph build is
    # ~78% of a ~16 s iteration; the three epochs are N x N GEMMs of ~1.1 s
    # each and peak RSS is ~668 MiB. Distance kernels and the N x N
    # temporaries show here; per-op tape overhead barely does.
    Workload(
        name="cohort-large",
        why="CV at N=960 with 3 epochs: graph-bound, the O(N^2) distance "
            "loop and N x N temporaries dominate time and peak memory",
        predictions=(
            Prediction("graph", ("share.graph",), 0.65, 0.85),
            Prediction("model+autodiff", ("share.model", "share.autodiff"),
                       0.12, 0.30),
        ),
        n_per_class=480,
        epochs=3,
        eval_seeds=1,
    ),
)}
