"""Reference copy of ``sampling._dedupe`` as it looped over the points.

Each point was kept when it lay more than tol from every point kept before
it.  tests/test_sampling.py checks that the vectorised clustering keeps the
same points, bit for bit.
"""

import numpy as np


def dedupe(points, tol):
    kept = []
    for p in points:
        if all(np.linalg.norm(p - q) > tol for q in kept):
            kept.append(p)
    return kept
