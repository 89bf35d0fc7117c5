"""Train all four models on the 2-D PCA projection of Iris and report
training accuracy per seed."""

import numpy as np

from etproc import harness
from etproc.cli import ArgumentParser, add_options, guarded
from etproc.distributions import SeededRng
from etproc.models import MODEL_KINDS, predict


def main():
    ap = ArgumentParser(description=__doc__)
    add_options(ap, "epochs", "seeds")
    ap.set_defaults(seeds="0,1,2")
    args = ap.parse_args()
    for kind in MODEL_KINDS:
        cfg = harness.resolve_config(None, {"task": "iris2d", "model": kind,
                                            "epochs": args.epochs, "seeds": args.seeds})
        train_ds = harness.build_task_data(cfg, seed=0)[0]
        accs = []
        for seed in cfg.seeds:
            model, _ = harness.train_seed(cfg, seed, train_ds)
            probs = predict(model, train_ds.features, SeededRng(seed=seed, stream=3),
                            n_samples=8, n_samples_z=2)
            accs.append(float((probs.argmax(axis=1) == train_ds.labels).mean()))
        print(f"{kind}: train acc per seed "
              f"{', '.join(f'{a:.3f}' for a in accs)} (mean {np.mean(accs):.3f})")


if __name__ == "__main__":
    raise SystemExit(guarded(main))
