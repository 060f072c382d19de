"""The pre-SoA ``triangles_intersect``, kept verbatim as the test oracle.

This is the ``np.cross``/``einsum``/axis-reduction body
``repro.apps.jmeint.triangles_intersect`` had before it was rewritten in
structure-of-arrays form.  Tests compare the shipped kernel's decisions
against it bit for bit; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def _unpack(pairs: np.ndarray):
    """Split ``(n, 18)`` rows into two ``(n, 3, 3)`` vertex arrays."""
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    if pairs.shape[1] != 18:
        raise ConfigurationError(
            f"jmeint kernel takes 18 input columns (2 triangles), got "
            f"{pairs.shape[1]}"
        )
    tri1 = pairs[:, :9].reshape(-1, 3, 3)
    tri2 = pairs[:, 9:].reshape(-1, 3, 3)
    return tri1, tri2


def triangles_intersect(pairs: np.ndarray) -> np.ndarray:
    """Boolean intersection decision per pair via the separating-axis test.

    For each pair, 17 candidate axes are tested: the two face normals, the
    nine cross products of one edge from each triangle, and the six
    in-plane edge normals (face normal x edge).  The last group handles
    coplanar triangles, where every edge-edge cross degenerates to the
    shared normal; extra candidate axes are always safe for SAT — an axis
    can only prove separation, never fake an intersection.  An axis
    separates when the projected vertex intervals are disjoint; the
    triangles intersect iff no axis separates.  Degenerate (near-zero)
    axes never separate and are skipped implicitly.
    """
    tri1, tri2 = _unpack(pairs)
    n = tri1.shape[0]
    edges1 = np.stack(
        [tri1[:, 1] - tri1[:, 0], tri1[:, 2] - tri1[:, 1], tri1[:, 0] - tri1[:, 2]],
        axis=1,
    )
    edges2 = np.stack(
        [tri2[:, 1] - tri2[:, 0], tri2[:, 2] - tri2[:, 1], tri2[:, 0] - tri2[:, 2]],
        axis=1,
    )
    normal1 = np.cross(edges1[:, 0], edges1[:, 1])
    normal2 = np.cross(edges2[:, 0], edges2[:, 1])
    # Edge-edge axes: cross of every edge1 with every edge2 -> (n, 9, 3).
    cross_axes = np.cross(
        edges1[:, :, None, :], edges2[:, None, :, :]
    ).reshape(n, 9, 3)
    # In-plane edge normals (coplanar separation axes).
    inplane1 = np.cross(normal1[:, None, :], edges1)
    inplane2 = np.cross(normal2[:, None, :], edges2)
    axes = np.concatenate(
        [normal1[:, None, :], normal2[:, None, :], cross_axes,
         inplane1, inplane2], axis=1
    )  # (n, 17, 3)

    proj1 = np.einsum("nax,nvx->nav", axes, tri1)  # (n, 11, 3)
    proj2 = np.einsum("nax,nvx->nav", axes, tri2)
    min1, max1 = proj1.min(axis=2), proj1.max(axis=2)
    min2, max2 = proj2.min(axis=2), proj2.max(axis=2)

    # Skip degenerate axes (parallel edges); they can never separate.
    scale = np.linalg.norm(axes, axis=2)
    eps = 1e-12 * np.maximum(scale.max(axis=1, keepdims=True), 1.0)
    valid = scale > eps
    separated = valid & ((max1 < min2) | (max2 < min1))
    return ~separated.any(axis=1)
