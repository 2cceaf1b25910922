#!/usr/bin/env python3
"""Desk-scale end-to-end experiment.

Generates a synthetic corpus whose tempo follows the cloud-diameter rule,
extracts features/targets, estimates feature-target mutual information,
runs the cross-validation table for every expressive parameter, trains a
full-feature model and computes its differential sensitivity. All outputs
land under --work-dir with their manifests.

Usage:
    python scripts/run_pipeline.py --work-dir out/demo --seed 11
    python scripts/run_pipeline.py --work-dir out/full --pieces 20 \
        --length 150 --epochs 60 --targets bpr,d_bpr,vel,d_vel
"""

import argparse
import os
import sys

from tonaltension import cli
from tonaltension.cli import read_csv


def sh(*args) -> None:
    argv = [str(a) for a in args]
    print(f"$ tonaltension {' '.join(argv)}")
    rc = cli.main(argv)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work-dir", default="out/pipeline")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pieces", type=int, default=10)
    ap.add_argument("--length", type=int, default=80, help="frames per piece")
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--targets", default="bpr",
                    help="the synthetic t_cd-slow rule couples tempo, so bpr "
                         "is the informative default")
    ap.add_argument("--radius", type=int, default=5)
    args = ap.parse_args()

    corpus = os.path.join(args.work_dir, "corpus")
    feats = os.path.join(args.work_dir, "features")
    results = os.path.join(args.work_dir, "results")
    os.makedirs(feats, exist_ok=True)

    sh("synth", "--pieces", args.pieces, "--length", args.length,
       "--seed", args.seed, "--rule", "t_cd-slow", "--out-dir", corpus)
    stems = sorted(f[:-len(".score.tsv")] for f in os.listdir(corpus)
                   if f.endswith(".score.tsv"))
    sh("extract", *(os.path.join(corpus, f"{stem}.score.tsv") for stem in stems),
       "--match", *(os.path.join(corpus, f"{stem}.match.tsv") for stem in stems),
       "--out-dir", feats)

    sh("mi", "--corpus", feats, "--fs-seed", args.seed, "--out-dir", results)
    sh("eval", "--corpus", feats, "--targets", args.targets,
       "--seed", args.seed, "--epochs", args.epochs, "--include-fs",
       "--out-dir", results)
    first_target = args.targets.split(",")[0]
    sh("train", "--corpus", feats, "--target", first_target,
       "--seed", args.seed, "--epochs", args.epochs, "--out-dir", results)
    sh("sensitivity", "--model", os.path.join(results, "model.txt"),
       "--corpus", feats, "--radius", args.radius, "--out-dir", results)

    print("\n=== normalized mutual information (column max = 1) ===")
    _, cols, rows = read_csv(os.path.join(results, "mi_normalized.csv"))
    print("  ".join(f"{c:>8}" for c in cols))
    for row in rows:
        print(f"{row[0]:>8}  " + "  ".join(f"{float(v):8.3f}" for v in row[1:]))

    print("\n=== cross-validation R2 (left: base set, right: base + T) ===")
    _, cols, rows = read_csv(os.path.join(results, "results.csv"))
    print("  ".join(cols))
    for row in rows:
        print("  ".join(row))

    print(f"\nartifacts in {args.work_dir}/")


if __name__ == "__main__":
    main()
