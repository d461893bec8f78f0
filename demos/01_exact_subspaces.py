"""Tour of the exact linear algebra kernel.

Everything is computed over the rationals (or a prime field) with no
floating point anywhere, so rank decisions and subspace equality are exact.
Run as: python demos/01_exact_subspaces.py
"""

from gradedlts import PrimeField, RationalField, Subspace, complete_complement

Q = RationalField()


def show(rows):
    return tuple(tuple(str(x) for x in row) for row in rows)


print("== canonical echelon forms ==")
plane = Subspace(Q, 3, [[2, 4, 0], [1, 2, 1]])
print("rows (2,4,0),(1,2,1) reduce to:")
for row in show(plane.basis):
    print("  ", row)
print("pivot columns:", plane.pivots)

F5 = PrimeField(5)
print("over the 5-element field, (2,4) normalizes to",
      show(Subspace(F5, 2, [[2, 4]]).basis)[0], "(scale by 2^-1 = 3)")

print()
print("== the subspace lattice ==")
xy = Subspace(Q, 3, [[1, 0, 0], [0, 1, 0]])
yz = Subspace(Q, 3, [[0, 1, 0], [0, 0, 1]])
meet = xy.intersect(yz)
join = xy.sum(yz)
print("dim(xy-plane & yz-plane) =", meet.dim, " basis:", show(meet.basis))
print("dim(xy-plane + yz-plane) =", join.dim)
print("dimension identity: ", xy.dim, "+", yz.dim, "=", join.dim, "+", meet.dim)

k = Subspace(Q, 2, [[1, -1]]).kernel()
print("kernel of the row (1,-1):", show(k.basis))

print()
print("== deterministic complements ==")
sub = Subspace(Q, 2, [[1, 1]])
w = complete_complement(sub, Subspace.full(Q, 2))
print("greedy complement of span{(1,1)} in the plane:", show(w.basis))
print("(the first standard vector that enlarges the span wins)")
