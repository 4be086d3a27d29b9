"""Write the reference files that ``run.py`` checks its outputs against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted: the files pin today's
results, and a later change to curvjet must reproduce them, not rewrite
them.  It writes

  reference/check_records.txt  the record names of a default ``curvjet check``
  reference/polymetric_n5.npz  R, dR and d2R of the exact two-jet of
                               ``random_poly_metric(Space(5), seed)`` for the
                               seeds in ``SEEDS``
"""

from __future__ import annotations

import os

import numpy as np

from curvjet.polymetric import curvature_two_jet, random_poly_metric
from curvjet.spaces import Space
from curvjet.suites import make_config, run_suites

from checks import REFERENCE_DIR

SEEDS = (0, 1, 2)


def main() -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    names = [r.name for r in run_suites(["all"], make_config())]
    with open(os.path.join(REFERENCE_DIR, "check_records.txt"), "w") as fh:
        fh.write("\n".join(names) + "\n")

    arrays = {"seeds": np.array(SEEDS)}
    for seed in SEEDS:
        jet = curvature_two_jet(random_poly_metric(Space(5), seed))
        for part in ("R", "dR", "d2R"):
            arrays[f"{part}_{seed}"] = getattr(jet, part).data
    np.savez_compressed(os.path.join(REFERENCE_DIR, "polymetric_n5.npz"), **arrays)


if __name__ == "__main__":
    main()
