"""Geometric measures used only by the tests."""

import numpy as np


def hausdorff_distance(points_a, points_b):
    """Symmetric Hausdorff distance between two sample clouds, by brute
    force over all pairs (enough for the few hundred samples of a test)."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return max(d.min(axis=0).max(), d.min(axis=1).max())
