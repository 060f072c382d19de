"""jmeint — 3D triangle-triangle intersection (3D Gaming).

The kernel decides whether two 3D triangles intersect.  We implement the
exact test with the separating-axis theorem (SAT): two triangles are
disjoint iff one of 17 candidate axes (the two face normals, the 9 pairwise
edge cross products and the 6 in-plane edge normals) separates their
projections.  The test is fully vectorized over pairs: all 17 axes are
evaluated for every pair (no early exit).

The NPU encodes the decision as two outputs (one-hot); the error metric is
the number of mismatching decisions (Table 1).

Table 1: train/test = 10K pairs of 3D triangles, Rumba NN ``18->32->2->2``,
NPU NN ``18->32->8->2``, metric = # of mismatches.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application, mismatch_errors, mismatch_fraction
from repro.errors import ConfigurationError
from repro.hardware.energy import InstructionMix
from repro.nn.mlp import Topology

__all__ = [
    "triangles_intersect",
    "intersection_kernel",
    "generate_triangle_pairs",
    "icosahedron",
    "transform_mesh",
    "mesh_collision",
    "make_application",
]


def _cross(a, b, out) -> None:
    """``out = a x b``, component-first, in ``np.cross``'s operation order."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]


def triangles_intersect(pairs: np.ndarray) -> np.ndarray:
    """Boolean intersection decision per pair via the separating-axis test.

    For each pair, 17 candidate axes are tested: the two face normals, the
    nine cross products of one edge from each triangle, and the six
    in-plane edge normals (face normal x edge).  The last group handles
    coplanar triangles, where every edge-edge cross degenerates to the
    shared normal; extra candidate axes are always safe for SAT — an axis
    can only prove separation, never fake an intersection.  An axis
    separates when the projected vertex intervals are disjoint; the
    triangles intersect iff no axis separates.  All 17 axes are evaluated
    for every pair (no early exit); degenerate (near-zero) axes never
    separate and are masked out.

    The arithmetic runs component-wise on a transposed ``(18, n)`` copy of
    the input, so every numpy call sweeps a contiguous run of ``n`` pairs.
    Each value is rounded exactly as the ``np.cross``/``einsum`` form
    rounded it (``tests/apps/reference_jmeint.py``, the oracle the tests
    pin this kernel's decisions to), so a tie falls the same way.
    """
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    if pairs.shape[1] != 18:
        raise ConfigurationError(
            f"jmeint kernel takes 18 input columns (2 triangles), got "
            f"{pairs.shape[1]}"
        )
    n = pairs.shape[0]
    # tris[t, v, x] is component x of vertex v of triangle t, an (n,) row;
    # verts is the same data component-first, the layout _cross takes.
    tris = np.ascontiguousarray(pairs.T).reshape(2, 3, 3, n)
    verts = np.moveaxis(tris, 2, 0)
    edges = np.roll(verts, -1, axis=2) - verts  # v1 - v0, v2 - v1, v0 - v2
    # axes[x, a]: the two normals, 9 edge1 x edge2, then 2 x 3 in-plane
    # edge normals (normal x edge, the coplanar separation axes).
    axes = np.empty((3, 17, n))
    _cross(edges[:, :, 0], edges[:, :, 1], axes[:, :2])
    _cross(edges[:, 0, :, None], edges[:, 1, None, :],
           axes[:, 2:11].reshape(3, 3, 3, n))
    _cross(axes[:, :2, None], edges, axes[:, 11:].reshape(3, 2, 3, n))

    # Projection of each vertex on all 17 axes, summed x, z, y — the order
    # einsum's two-lane reduction uses on x86-64 — then the per-triangle
    # interval over its three vertices.
    ax, ay, az = axes
    lo, hi = [], []
    for tri in tris:
        p0, p1, p2 = ((ax * x + az * z) + ay * y for x, y, z in tri)
        lo.append(np.minimum(np.minimum(p0, p1), p2))
        hi.append(np.maximum(np.maximum(p0, p1), p2))

    # Skip degenerate axes (parallel edges); they can never separate.
    scale = np.sqrt((ax * ax + ay * ay) + az * az)
    eps = 1e-12 * np.maximum(scale.max(axis=0), 1.0)
    separated = (scale > eps) & ((hi[0] < lo[1]) | (hi[1] < lo[0]))
    return ~separated.any(axis=0)


def intersection_kernel(pairs: np.ndarray) -> np.ndarray:
    """One-hot ``(intersects, disjoint)`` outputs, the NPU's encoding."""
    hit = triangles_intersect(pairs)
    out = np.empty((hit.shape[0], 2))
    out[:, 0] = hit
    out[:, 1] = ~hit
    return out


def generate_triangle_pairs(rng: np.random.Generator, n: int = 10000) -> np.ndarray:
    """Random triangle pairs with a balanced intersect/disjoint mix.

    The first triangle is uniform in the unit cube; with probability one
    half, the second triangle is re-centered near the first one's centroid
    (likely intersecting), otherwise it is drawn independently (mostly
    disjoint).
    """
    tri1 = rng.random((n, 3, 3))
    tri2 = rng.random((n, 3, 3))
    near = rng.random(n) < 0.5
    centroid1 = tri1.mean(axis=1, keepdims=True)
    shrunk = (tri2 - tri2.mean(axis=1, keepdims=True)) * 0.6 + centroid1
    tri2 = np.where(near[:, None, None], shrunk, tri2)
    return np.concatenate([tri1.reshape(n, 9), tri2.reshape(n, 9)], axis=1)


def icosahedron(radius: float = 1.0) -> np.ndarray:
    """A regular icosahedron's 20 triangles, shape ``(20, 3, 3)``.

    The standard stand-in for a game object's collision hull.
    """
    if radius <= 0:
        raise ConfigurationError("radius must be positive")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=float)
    verts *= radius / np.linalg.norm(verts[0])
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    return np.asarray([[verts[i] for i in face] for face in faces])


def transform_mesh(mesh: np.ndarray, offset=(0.0, 0.0, 0.0),
                   scale: float = 1.0) -> np.ndarray:
    """Scale a mesh about its centroid and translate it."""
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 3 or mesh.shape[1:] != (3, 3):
        raise ConfigurationError("mesh must have shape (n_faces, 3, 3)")
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    centroid = mesh.reshape(-1, 3).mean(axis=0)
    return (mesh - centroid) * scale + centroid + np.asarray(offset, float)


def mesh_collision(mesh_a: np.ndarray, mesh_b: np.ndarray,
                   kernel=intersection_kernel) -> bool:
    """Whole-application run: do two triangle meshes collide?

    The 3D-gaming application tests every face pair with the triangle-
    intersection kernel (the accelerated region).  Pass an approximate
    kernel to run the accelerated variant; decisions use the kernel's
    two-output argmax encoding.
    """
    mesh_a = np.asarray(mesh_a, dtype=float)
    mesh_b = np.asarray(mesh_b, dtype=float)
    for mesh in (mesh_a, mesh_b):
        if mesh.ndim != 3 or mesh.shape[1:] != (3, 3):
            raise ConfigurationError("meshes must have shape (n_faces, 3, 3)")
    na, nb = mesh_a.shape[0], mesh_b.shape[0]
    pairs = np.empty((na * nb, 18))
    pairs[:, :9] = np.repeat(mesh_a.reshape(na, 9), nb, axis=0)
    pairs[:, 9:] = np.tile(mesh_b.reshape(nb, 9), (na, 1))
    outputs = np.asarray(kernel(pairs), dtype=float)
    return bool(np.any(np.argmax(outputs, axis=1) == 0))


def make_application() -> Application:
    """Construct the jmeint benchmark (Table 1 row 4)."""
    return Application(
        name="jmeint",
        domain="3D Gaming",
        kernel=intersection_kernel,
        train_inputs=lambda rng: generate_triangle_pairs(rng, 10000),
        test_inputs=lambda rng: generate_triangle_pairs(rng, 10000),
        rumba_topology=Topology.parse("18->32->2->2"),
        npu_topology=Topology.parse("18->32->8->2"),
        metric_name="# of mismatches",
        element_error_fn=mismatch_errors,
        quality_metric_fn=mismatch_fraction,
        # Early-exit average of the tri-tri test: heavy on compares and
        # cross-product arithmetic, no transcendentals.
        instruction_mix=InstructionMix(
            int_ops=120, fp_ops=180, loads=60, stores=10, branches=50,
        ),
        offload_fraction=0.95,
        train_description="10K pairs of 3D triangles",
        test_description="10K pairs of 3D triangles",
    )
