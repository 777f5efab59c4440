"""Reference face reads: the float orientation test that OFF export ran
on every face, and the pentagon contact that looked up each edge's far
face in a dict over every directed edge.

Kept as they were so the differential tests can compare the census'
`across` table and the reversed clockwise walk against them: equal OFF
bytes and equal contact signatures.
"""


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
