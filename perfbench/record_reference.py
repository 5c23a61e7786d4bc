"""Record the seed-13 loss history the train workload checks against.

    python3 perfbench/record_reference.py

Run it from the root of a source checkout only when a change is meant to
alter training results, and say so in the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    wl = workloads.Train()
    state = wl.setup(ROOT, seed=0)
    config = workloads.TRAIN_CONFIG
    model = workloads.build_model(state.bundle, state.vocabs, config)
    history = workloads.training.train(model, state.bundle.corpus, config)
    record = {
        "config": {"epochs": config.epochs, "switch_epoch": config.switch_epoch, "seed": config.seed},
        "mean_loss": [r.mean_loss for r in history],
    }
    workloads.REFERENCE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
