"""Train all four models on the 2-D PCA projection of Iris and report
training accuracy per seed."""

import argparse

import numpy as np

from etproc import harness
from etproc.distributions import SeededRng
from etproc.harness import resolve_config
from etproc.models import MODEL_KINDS, predict, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=400)
    ap.add_argument("--seeds", default="0,1,2")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    for kind in MODEL_KINDS:
        cfg = resolve_config(None, {"task": "iris2d", "model": kind,
                                    "epochs": args.epochs})
        train_ds, _, _, _ = harness.build_task_data(cfg, seed=0)
        accs = []
        for seed in seeds:
            model = harness.build_model(cfg, 2, 3, SeededRng(seed=seed, stream=2))
            train(model, train_ds, cfg, SeededRng(seed=seed, stream=4))
            probs = predict(model, train_ds.features, SeededRng(seed=seed, stream=3),
                            n_samples=8, n_samples_z=2)
            accs.append(float((probs.argmax(axis=1) == train_ds.labels).mean()))
        print(f"{kind}: train acc per seed "
              f"{', '.join(f'{a:.3f}' for a in accs)} (mean {np.mean(accs):.3f})")


if __name__ == "__main__":
    main()
