"""Building graded triple systems and verifying their identities.

A right Leibniz algebra yields a Leibniz triple system through the double
bracket {x,y,z} = [[x,y],z].  The library sweeps the two defining five-term
identities, the grading condition, and a derived six-term identity over all
basis tuples, exactly.
Run as: python demos/02_systems_and_verification.py
"""

from gradedlts import GradedTripleSystem, builtin, from_leibniz_algebra, sl2_algebra

print("== the simple Lie algebra fixture ==")
algebra = sl2_algebra()
system = from_leibniz_algebra(algebra)
print("dimension:", system.dim)
print("degrees:", [d.format() for d in system.degrees])
print("nonzero structure constants:")
for (i, j, k), entry in system.nonzero_triples():
    terms = " + ".join(f"{system.field.format(c)}*b{l}" for l, c in sorted(entry.items()))
    print(f"  {{b{i}, b{j}, b{k}}} = {terms}")

print()
print("axiom violations:      ", len(system.verify_axioms()))
print("grading violations:    ", len(system.verify_grading()))
print("six-term violations:   ", len(system.verify_fundamental_identity()))
print("odd support:           ", [x.format() for x in system.support()])

print()
print("== corruption is caught ==")
products = {key: dict(entry) for key, entry in system.nonzero_triples()}
products[(0, 2, 0)][0] = products[(0, 2, 0)][0] + system.field.one
corrupt = GradedTripleSystem(system.field, system.group, system.degrees, products)
violations = corrupt.verify_axioms()
print("after bumping one constant, violations:", len(violations))
first = violations[0]
print("first witness quintuple:", first.indices, "residual:",
      [system.field.format(x) for x in first.residual])

print()
print("== ideals and the defect ideal ==")
nonlie = builtin("nonlie_J")
defect = nonlie.lie_defect_ideal()
print("non-Lie fixture defect ideal dimension:", defect.dim)
print("is it a Lie triple system?", defect.is_zero())
print("simple Lie fixture defect dimension:", system.lie_defect_ideal().dim)
print("annihilator of the zero system:", builtin("zero_3").annihilator().dim, "dimensional")
