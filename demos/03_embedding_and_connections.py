"""The standard embedding and the connection relation on the support.

The even part of the embedding is the tensor square modulo the joint kernel
of its two actions on the system; the quotient bracket is certified at
build time.  Its support (the "even support") feeds the connection
relation, whose classes index the ideals of the decomposition.
Run as: python demos/03_embedding_and_connections.py
"""

from gradedlts import (
    SupportData,
    build_embedding,
    builtin,
    connection_classes,
    witness_sequence,
)

for name in ("sl2_Z", "disjoint_sum", "nonlie_J"):
    system = builtin(name)
    emb = build_embedding(system)
    sup = SupportData.from_system(system, emb)
    print(f"== {name} ==")
    print("tensor square dim:", emb.tensor_dim, " null space dim:", emb.null_space.dim,
          " even part dim:", emb.dim_even)
    print("odd support: ", [x.format() for x in sup.odd])
    print("even support:", [x.format() for x in sup.even])
    print("even components:", {d.format(): len(c) for d, c in emb.components().items()})
    classes = connection_classes(sup)
    print("connection classes:", len(classes))
    for cls in classes:
        print(f"  [{cls.representative.format()}] =",
              [m.format() for m in cls.members])
        for member in cls.members:
            if member != cls.representative:
                seq = witness_sequence(sup, cls.representative, member)
                print(f"    witness {cls.representative.format()} ~ {member.format()}:",
                      [x.format() for x in seq])
    print()

print("the two blocks of disjoint_sum stay in separate classes because no")
print("even-support element mixes the two coordinate axes, so no connection")
print("sequence can cross from one block to the other.")
