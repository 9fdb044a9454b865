"""Train the benchmark's fixed model input once and record its hash.

The hybrid workloads load the paper-shaped micro model (two LSTM layers
of 128 units) from ``perfbench/model``.  Training is slow (minutes of
CPU) and BLAS-dependent, so it never happens inside a timed run: this
script produces the committed weights, and ``perfbench/bench.py``
refuses to run when their sha256 differs from ``MODEL_SHA256``.

Run from the repository root::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/train_model.py

then copy the printed digest into ``MODEL_SHA256`` in
``perfbench/bench.py``.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core import ExperimentConfig, MicroModelConfig, train_reusable_model  # noqa: E402
from repro.topology.clos import ClosParams  # noqa: E402

from bench import MODEL_DIR, model_digest  # noqa: E402

#: The training stage of Figure 3: two clusters, load 0.25, seed 101.
TRAIN_CONFIG = ExperimentConfig(
    clos=ClosParams(clusters=2), load=0.25, duration_s=0.01, seed=101
)
MICRO_CONFIG = MicroModelConfig(train_batches=300)


def main() -> int:
    trained, _ = train_reusable_model(TRAIN_CONFIG, micro=MICRO_CONFIG)
    if MODEL_DIR.exists():
        shutil.rmtree(MODEL_DIR)
    trained.save(MODEL_DIR)
    print(model_digest(MODEL_DIR))
    return 0


if __name__ == "__main__":
    sys.exit(main())
