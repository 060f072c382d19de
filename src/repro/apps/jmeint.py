"""jmeint — 3D triangle-triangle intersection (3D Gaming).

The kernel decides whether two 3D triangles intersect.  We implement the
exact test with the separating-axis theorem (SAT): two triangles are
disjoint iff one of 17 candidate axes (the two face normals, the 9 pairwise
edge cross products and the 6 in-plane edge normals) separates their
projections.  All 17 axes are evaluated for every pair (no early exit),
over blocks of pairs in a per-thread scratch.

The NPU encodes the decision as two outputs (one-hot); the error metric is
the number of mismatching decisions (Table 1).

Table 1: train/test = 10K pairs of 3D triangles, Rumba NN ``18->32->2->2``,
NPU NN ``18->32->8->2``, metric = # of mismatches.
"""

from __future__ import annotations

import threading

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


#: Pairs per block (``docs/performance.md``, "Recovery rung"): a recovery
#: of about 1,065 rows is one block; the scratch is 196 floats a pair.
_BLOCK = 2048
#: Leading shapes of the float scratch, each followed by the block axis:
#: verts [x, t, v] (component x of vertex v of triangle t, vertex 0 again
#: as v = 3), edges [x, t, e], axes [x, a] (2 normals, 9 edge crosses, 6
#: in-plane normals), bounds [lo/hi, t, a], two temporaries and eps.
_SHAPES = ((3, 2, 4), (3, 2, 3), (3, 17), (2, 2, 17), (2, 17), ())
_SIZES = [int(np.prod(shape)) for shape in _SHAPES]
_arena = threading.local()


def _scratch(m: int):
    """This thread's buffers carved for an ``m``-pair block, from an arena
    grown to the largest block the thread has run (per thread because
    shards and callers run the kernel concurrently)."""
    bufs = getattr(_arena, "bufs", None)
    if bufs is None or bufs[1].size < 34 * m:
        bufs = _arena.bufs = np.empty(sum(_SIZES) * m), np.empty(34 * m, bool)
    ends = np.cumsum(_SIZES) * m
    views = [bufs[0][end - size * m:end].reshape(*shape, m)
             for shape, size, end in zip(_SHAPES, _SIZES, ends)]
    return (*views, bufs[1][:34 * m].reshape(2, 17, m))


def _cross(a, b, out, tmp) -> None:
    """``out = a x b``, component-first, in ``np.cross``'s operation order;
    ``tmp`` is flat scratch of at least one output component's size."""
    tmp = tmp[:out[0].size].reshape(out.shape[1:])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= np.multiply(a[k], b[j], out=tmp)


def _decide(pairs: np.ndarray, hit: np.ndarray) -> None:
    """Write ``hit`` for one block of at most :data:`_BLOCK` pairs."""
    m = pairs.shape[0]
    verts, edges, axes, bounds, (proj, tmp), eps, flags = _scratch(m)
    np.copyto(verts[:, :, :3], np.moveaxis(pairs.T.reshape(2, 3, 3, m), 2, 0))
    np.copyto(verts[:, :, 3], verts[:, :, 0])
    runs = verts.reshape(6, 4 * m)  # v1 - v0, v2 - v1, v0 - v2 in one sweep
    np.subtract(runs[:, m:], runs[:, :3 * m], out=edges.reshape(6, 3 * m))
    spare = bounds.reshape(-1)  # free until the projections
    _cross(edges[:, :, 0], edges[:, :, 1], axes[:, :2], spare)
    _cross(edges[:, 0, :, None], edges[:, 1, None, :],
           axes[:, 2:11].reshape(3, 3, 3, m), spare)
    _cross(axes[:, :2, None], edges, axes[:, 11:].reshape(3, 2, 3, m), spare)

    # Each vertex projected on all 17 axes, summed x, z, y — the order
    # einsum's two-lane reduction uses on x86-64 — then the per-triangle
    # interval over its three vertices.
    ax, ay, az = axes
    lo, hi = bounds
    for t in range(2):
        for v in range(3):
            x, y, z = verts[:, t, v]
            out = lo[t] if v == 0 else proj
            np.multiply(ax, x, out=out)
            out += np.multiply(az, z, out=tmp)
            out += np.multiply(ay, y, out=tmp)
            if v == 0:
                np.copyto(hi[t], out)
            else:
                np.minimum(lo[t], proj, out=lo[t])
                np.maximum(hi[t], proj, out=hi[t])

    # Skip degenerate axes (parallel edges); they can never separate.
    scale = np.multiply(ax, ax, out=proj)
    scale += np.multiply(ay, ay, out=tmp)
    scale += np.multiply(az, az, out=tmp)
    np.sqrt(scale, out=scale)
    np.maximum(np.max(scale, axis=0, out=eps), 1.0, out=eps)
    eps *= 1e-12
    separated, valid = flags
    np.less(hi[0], lo[1], out=separated)
    separated |= np.less(hi[1], lo[0], out=valid)
    separated &= np.greater(scale, eps, out=valid)
    np.logical_not(np.logical_or.reduce(separated, axis=0, out=hit), out=hit)


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

    Pairs run in balanced blocks of at most :data:`_BLOCK`, component-wise
    in this thread's scratch, so a call allocates only its result.  Every
    value is rounded as the ``np.cross``/``einsum`` oracle rounds it
    (``tests/apps/reference_jmeint.py``), so ties fall the same way and
    no pair's decision depends on its block.
    """
    pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
    if pairs.shape[1] != 18:
        raise ConfigurationError(
            f"jmeint kernel takes 18 input columns (2 triangles), got "
            f"{pairs.shape[1]}"
        )
    n = pairs.shape[0]
    hit = np.empty(n, dtype=bool)
    blocks = -(-n // _BLOCK)
    for b in range(blocks):
        start, stop = n * b // blocks, n * (b + 1) // blocks
        _decide(pairs[start:stop], hit[start:stop])
    return hit


def intersection_kernel(pairs: np.ndarray) -> np.ndarray:
    """One-hot ``(intersects, disjoint)`` outputs, the NPU's encoding."""
    hit = triangles_intersect(pairs)
    return np.stack([hit, ~hit], axis=1).astype(float)


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
