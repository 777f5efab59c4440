"""Reference face code: the per-vertex tangent order and the face walk
that face tracing first ran, the float orientation test that OFF export
ran on every face, and the pentagon contact that looked up each edge's
far face in a dict over every directed edge.  `adjacency` lists each
vertex's neighbours, as `CageGraph.adjacency` did.

Kept as they were so the differential tests can compare the census'
faces, `across` table and counts against the walk, and its reversed
clockwise faces against the float orientation: equal faces, equal
`EulerError` text, equal OFF bytes and equal contact signatures.
"""

import math
from collections import Counter

import numpy as np

from icofold.cages import EulerError


def adjacency(cage):
    """Each vertex's neighbours, in the order of the graph's bonds."""
    neighbors = [[] for _ in range(len(cage.coords))]
    for i, j in cage.pairs.tolist():
        neighbors[i].append(j)
        neighbors[j].append(i)
    return neighbors


def tangent_order_reference(coords, v, neighbors):
    """The neighbours of v counterclockwise in its tangent plane, one
    vertex at a time, as face tracing first computed them."""
    normal = coords[v]
    length = np.linalg.norm(normal)
    if length == 0:
        raise EulerError("vertex at the origin has no tangent plane")
    normal = normal / length
    reference = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        reference = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(reference, normal)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    angles = []
    for u in neighbors:
        w = coords[u] - coords[v]
        angles.append(math.atan2(float(w @ e2), float(w @ e1)))
    return [u for _, u in sorted(zip(angles, neighbors))]


def face_census_reference(cage):
    """Face tracing as first written: per-vertex tangent orders, and each
    face started at the smallest directed edge not yet walked."""
    ordered = [tangent_order_reference(cage.coords, v, nbrs)
               for v, nbrs in enumerate(adjacency(cage))]
    successor = {}
    for v, ring in enumerate(ordered):
        for idx, u in enumerate(ring):
            successor[(u, v)] = (v, ring[(idx + 1) % len(ring)])
    faces = []
    remaining = set(successor)
    while remaining:
        start = min(remaining)
        walk = [start]
        remaining.discard(start)
        step = successor[start]
        while step != start:
            walk.append(step)
            remaining.discard(step)
            step = successor[step]
        faces.append(tuple(edge[0] for edge in walk))
    euler = cage.vertex_count - cage.edge_count + len(faces)
    if euler != 2:
        raise EulerError(
            f"V-E+F = {cage.vertex_count}-{cage.edge_count}+{len(faces)} "
            f"= {euler}, expected 2"
        )
    return tuple(faces)


def directed_edges(face):
    return list(zip(face, face[1:] + face[:1]))


def across_reference(faces):
    """The face on the other side of each edge of each face, read from a
    dict over every directed edge."""
    owner = {edge: f for f, face in enumerate(faces)
             for edge in directed_edges(face)}
    return tuple(tuple(owner[(b, a)] for a, b in directed_edges(face))
                 for face in faces)


def counts_reference(faces):
    """Faces per size, in ascending size."""
    return dict(sorted(Counter(map(len, faces)).items()))


def oriented_face(face, coords):
    """Reverse the face if its normal points toward the origin."""
    verts = [coords[i] for i in face]
    n = len(verts)
    normal = [0.0, 0.0, 0.0]
    centroid = [0.0, 0.0, 0.0]
    for i in range(n):
        ax, ay, az = verts[i]
        bx, by, bz = verts[(i + 1) % n]
        normal[0] += ay * bz - az * by
        normal[1] += az * bx - ax * bz
        normal[2] += ax * by - ay * bx
        centroid[0] += ax / n
        centroid[1] += ay / n
        centroid[2] += az / n
    outward = sum(a * b for a, b in zip(normal, centroid))
    return face if outward >= 0.0 else tuple(reversed(face))


def export_off_reference(graph, census):
    """OFF text as export wrote it, faces oriented by the float test;
    rows from the exact points where the graph has them."""
    if graph.points is not None:
        rows = [tuple(p.as_floats()) for p in graph.points]
    else:
        rows = graph.coords.tolist()
    faces = []
    for face in census.faces:
        face = oriented_face(face, rows)
        pivot = face.index(min(face))
        faces.append(face[pivot:] + face[:pivot])
    lines = ["OFF", f"{graph.vertex_count} {graph.edge_count} {len(faces)}"]
    for coords in rows:
        lines.append(" ".join(f"{c:.6f}" for c in coords))
    for face in sorted(faces):
        lines.append(" ".join(str(n) for n in (len(face), *face)))
    return "\n".join(lines) + "\n"


def contact_signature_reference(census):
    """How pentagon pairs meet across a shared hexagon, each edge's far
    face read from a dict over every directed edge."""
    owner = {}
    for f, face in enumerate(census.faces):
        size = len(face)
        for i in range(size):
            owner[(face[i], face[(i + 1) % size])] = f
    separations = set()
    for face in census.faces:
        if len(face) != 6:
            continue
        positions = []
        for i in range(6):
            a, b = face[i], face[(i + 1) % 6]
            neighbor = owner.get((b, a))
            if neighbor is not None and len(census.faces[neighbor]) == 5:
                positions.append(i)
        for x in range(len(positions)):
            for y in range(x + 1, len(positions)):
                gap = abs(positions[x] - positions[y])
                separations.add(min(gap, 6 - gap))
    if not separations:
        return None
    if separations == {2}:
        return "vertex"
    if separations == {3}:
        return "edge"
    return "mixed"
