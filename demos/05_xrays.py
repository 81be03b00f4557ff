"""X-rays of complexity-one torus actions: validation, membership, bases.

An x-ray lists the fixed components of a rank n-1 torus action on a
2n-manifold together with the pieces of the one-skeleton, each piece
labeled by the primitive character that kills it.  Restriction tuples are
now polynomial-valued; a tuple extends exactly when, piece by piece, the
differences of restrictions are divisible by the piece's character and
the induced circle-action checks pass.
"""

from equicoh import (
    MPoly,
    ComponentClass,
    EquivariantClass,
    check_membership_xray,
    class_to_vector,
    degree_slots,
    image_basis_xray,
    parse_xray,
    validate_xray,
)

# Four isolated points at the vertices of a unit square, joined by the six
# spheres of a rank-2 action on a 6-manifold; weights at each point are
# the momentum differences to the other three.
POINTS = {"P0": (0, 0), "P1": (1, 0), "P2": (0, 1), "P3": (1, 1)}
SPHERES = [
    ("E01", "P0", "P1", [1, 0]),
    ("E23", "P2", "P3", [1, 0]),
    ("E02", "P0", "P2", [0, 1]),
    ("E13", "P1", "P3", [0, 1]),
    ("E03", "P0", "P3", [1, 1]),
    ("E12", "P1", "P2", [-1, 1]),
]
SQUARE = {
    "kind": "xray",
    "rank": 2,
    "components": [
        {
            "id": pid,
            "y": list(y),
            "weights": [
                [o[0] - y[0], o[1] - y[1]]
                for oid, o in sorted(POINTS.items()) if oid != pid
            ],
        }
        for pid, y in sorted(POINTS.items())
    ],
    "pieces": [
        {"id": eid, "lambda": lam, "dim": 2, "members": [a, b], "ell": 1}
        for eid, a, b, lam in SPHERES
    ],
}

xray = parse_xray(SQUARE)
print("components:", [c.id for c in xray.components])
print("pieces:", {p.id: tuple(p.lam) for p in xray.pieces})
print("violations:", validate_xray(xray))
print()

print("graded basis sizes, degrees 0..8:")
print(" ", [len(image_basis_xray(xray, k)) for k in range(9)])
print()

print("degree-2 slots and basis vectors:")
slots = degree_slots(xray, 2)
print(" ", [s.label for s in slots])
for element in image_basis_xray(xray, 2):
    vector = class_to_vector(xray, 2, element)
    print(" ", [str(x) for x in vector])
print()

# A tuple that is u2 at P3 and zero elsewhere: the difference across each
# sphere through P3 must be divisible by that sphere's character.  u2 is a
# multiple of a linear form only when the form is u2 itself, so the sphere
# with character u2 passes and the u1 and u1+u2 spheres report violations.
u2 = MPoly.variable(2, 1)
skew = EquivariantClass(
    {
        "P0": ComponentClass("point", 0, {}, 2),
        "P1": ComponentClass("point", 0, {}, 2),
        "P2": ComponentClass("point", 0, {}, 2),
        "P3": ComponentClass("point", 0, {2: u2}, 2),
    },
    2,
)
decision = check_membership_xray(xray, skew)
print("u2 at P3 only:", "member" if decision.member else "not a member")
for violation in decision.violations:
    print(f"  {violation.kind}: {violation.detail}")
print()

# The first degree-2 basis element, restricted to every point, passes.
element = image_basis_xray(xray, 2)[0]
print("first degree-2 basis element:",
      "member" if check_membership_xray(xray, element).member else "not a member")
