"""Track singular-value dispersion of classifier Jacobians during training.

Trains the probe net on Gaussian blob classes over several seeds and
reports, per seed, the final mean cv of train-class probes against uniform
random-noise probes, plus the rank correlation of the train-class cv trend
across checkpoints. Writes one cvtrace CSV per seed.
"""

import argparse
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from attrakit.probe import (
    RANDOM_NOISE,
    TRAIN_CLASS,
    TinyNet,
    TrainConfig,
    accuracy,
    make_probe_samples,
    synth_blobs,
    train,
)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=positive_int, default=5)
    parser.add_argument("--dim", type=int, default=12)
    parser.add_argument("--per-class", type=int, default=1000)
    parser.add_argument("--separation", type=float, default=6.0)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--probes", type=int, default=48)
    parser.add_argument("--out-dir", default="stratification_out")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gaps = []
    print(f"{'seed':>4} {'acc':>6} {'cv_train':>9} {'cv_noise':>9} "
          f"{'gap':>8} {'trend_rho':>9}")
    for seed in range(args.seeds):
        data = synth_blobs(C=3, d=args.dim, per_class=args.per_class,
                           separation=args.separation, seed=1000 + seed)
        net = TinyNet.init([args.dim, 128, 64, 3], seed=seed)
        cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=seed)
        probes = make_probe_samples(data, n_per_category=args.probes,
                                    seed=2000 + seed)
        trained, trace = train(net, data, cfg, probes=probes)
        trace.to_csv(out_dir / f"cvtrace_seed{seed}.csv")
        final = trace.final_checkpoint()
        cv_train = trace.mean_cv(TRAIN_CLASS, final)
        cv_noise = trace.mean_cv(RANDOM_NOISE, final)
        checkpoints, series = trace.series(TRAIN_CLASS)
        rho = spearmanr(checkpoints, series).statistic
        gaps.append(cv_train - cv_noise)
        print(f"{seed:>4} {accuracy(trained, data):>6.3f} {cv_train:>9.4f} "
              f"{cv_noise:>9.4f} {cv_train - cv_noise:>+8.4f} {rho:>9.3f}")
    gaps = np.array(gaps)
    if gaps.shape[0] == 1:
        # one gap has no spread to estimate a standard error from
        print(f"mean gap {gaps.mean():+.4f} (one seed, no standard error)")
    else:
        se = gaps.std(ddof=1) / np.sqrt(gaps.shape[0])
        print(f"mean gap {gaps.mean():+.4f}, standard error {se:.4f}, "
              f"gap/se {gaps.mean() / se:.2f}")
    print(f"traces written to {out_dir}/")


if __name__ == "__main__":
    main()
