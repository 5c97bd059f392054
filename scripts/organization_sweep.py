#!/usr/bin/env python3
"""Sweep map disorder from intact to fully permuted and tabulate the indices.

Trains one 10x10 map on the unit square, then swaps a growing fraction of
prototype pairs and prints how each organization index responds. Useful for
eyeballing index sensitivity; writes CSV to stdout.
"""
import argparse

import numpy as np

from sommetrics import Dataset, TrainerConfig, train_som
from sommetrics.demos import _ORGANIZATION_METRICS, _score_map, _swap_units


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=5000)
    parser.add_argument("--fractions", default="0,0.1,0.2,0.4,0.6,0.8,1.0",
                        help="comma-separated swap fractions")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    data = Dataset(rng.random((args.samples, 2)))
    trained = train_som(data, TrainerConfig(10, 10, seed=args.seed))

    print(",".join(["swap_fraction", *_ORGANIZATION_METRICS]))
    for fraction in (float(f) for f in args.fractions.split(",")):
        cb = _swap_units(trained, fraction, np.random.default_rng(args.seed + 1))
        print(",".join([str(fraction), *map(repr, _score_map(cb, data, _ORGANIZATION_METRICS).values())]))


if __name__ == "__main__":
    main()
