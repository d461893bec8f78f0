"""Ideal decomposition of a graded Leibniz triple system along connection classes.

Each connection class [g] of the odd support yields a class ideal

    I_[g] = core + vertex,

where the vertex part is the sum of the homogeneous components with degree
in the class and the core part is the span of all products
{E_h, E_k, E_{(hk)^-1}} with h in the class and k in the class or the
identity.  The library certifies, exactly and on every run:

  * each class ideal passes the ideal predicate (raising
    IdealCertificateFailure with a witness otherwise),
  * a deterministic complement U of the span of all support products inside
    the identity component satisfies U + sum of ideals = the whole system,
  * all three cross-class product families vanish for distinct classes.

Each verdict is read off the certificate that decides it: the identity
component is tight exactly when U = 0, two ideals meet in zero exactly when
their sum has the sum of their dimensions, and under U = 0 and a zero
annihilator the sum is direct exactly when the ideal dimensions add up to n.

Every product family of a fixed degree pattern (the class cores, the span
of all support products, the core sources of the lemmas) comes from one
enumerator, `_degree_products`, which walks the stored constants once and
keeps the products {b_p, b_q, b_r} whose slot degrees lie in three given
sets and multiply to the identity.  These families are only spanned or
tested for zero, so they are read off the integer image of the constants,
as are the rows that the vanishing laws multiply.

A separate report evaluates the structural vanishing and degree-confinement
laws that drive those facts, instance by instance, and a last pass emits
simplicity obstructions.  The obstruction search is deliberately
incomplete: it never claims a system is simple, only that no obstruction
was found.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from typing import NamedTuple

from .connections import ConnectionClass, SupportData, are_connected, connection_classes
from .embedding import StandardEmbedding
from .errors import DecompositionFailure, IdealCertificateFailure, InputError
from .linalg import Subspace, complete_complement
from .triples import GradedTripleSystem

# seeded random lines probed by `simplicity_obstructions`, after the unit vectors
PROBES = 16


class ClassIdeal(NamedTuple):
    cls: ConnectionClass
    core: Subspace       # inside the identity component
    vertex: Subspace     # sum of the class components
    total: Subspace      # core + vertex, certified ideal


class Obstruction(NamedTuple):
    kind: str
    detail: str
    witness: dict | None = None


class LemmaCheck:
    """One structural law: its instances, the nonvacuous ones, and its failures."""

    __slots__ = ("name", "instances", "nonvacuous", "failures")

    def __init__(self, name: str, instances: int = 0, nonvacuous: int = 0, failures=None):
        self.name, self.instances, self.nonvacuous = name, instances, nonvacuous
        self.failures: list = [] if failures is None else failures

    @property
    def holds(self) -> bool:
        return not self.failures


class DecompositionReport(NamedTuple):
    """The decomposition E = U + sum of the class ideals, with its certificates."""

    supports: SupportData
    u: Subspace
    span_products: Subspace
    ideals: list[ClassIdeal]
    orthogonality: list[dict]
    all_orthogonal: bool
    tight: bool
    annihilator_dim: int
    pairwise_disjoint: bool | None
    direct_sum: bool | None
    obstructions: list[Obstruction]


def _degree_products(system: GradedTripleSystem, first, second, third):
    """Stored products {b_p, b_q, b_r} of a degree pattern, with product degree 1.

    Yields ((p, q, r), sparse integer image) in increasing (p, q, r) order
    for the stored constants whose slot degrees lie in the sets `first`,
    `second` and `third` and multiply to the identity.
    """
    degrees = system.degrees
    for (p, q, r), entry in system.integer_triples():
        dp, dq, dr = degrees[p], degrees[q], degrees[r]
        if (
            dp in first
            and dq in second
            and dr in third
            and dp.compose(dq).compose(dr).is_identity()
        ):
            yield (p, q, r), entry


def _block(blocks: dict, d):
    try:
        return blocks[d]
    except KeyError:
        raise InputError(f"{d.format()} is not in the support of the system") from None


def class_core_span(system: GradedTripleSystem, cls: ConnectionClass) -> Subspace:
    """Span of the products {E_h, E_k, E_{(hk)^-1}}, h in [g], k in [g] or 1.

    The result lies inside the identity component whenever the grading is
    valid, because the three degrees multiply to the identity.
    """
    members = set(cls.members)
    pattern = _degree_products(
        system, members, members | {system.group.identity()}, set(system.degrees)
    )
    return Subspace(system.field, system.dim, [u for _, u in pattern])


def class_ideal(system: GradedTripleSystem, cls: ConnectionClass) -> ClassIdeal:
    """Assemble and certify the ideal attached to a connection class.

    Raises IdealCertificateFailure with a witness triple if the assembled
    subspace fails the ideal predicate; class subspaces of a valid graded
    system are always ideals, so that outcome signals a corrupt input or a
    bug and is surfaced, never suppressed.  An ideal is a subsystem, since
    {I,I,I} lies in {I,E,E}, which lies in I, so no separate check is run.
    A member degree without basis vectors raises InputError naming it.
    """
    core = class_core_span(system, cls)
    blocks = system.components()
    units = [{i: 1} for d in cls.members for i in _block(blocks, d)]
    vertex = Subspace(system.field, system.dim, units)
    total = core.sum(vertex)
    # dim(core + vertex) = dim core + dim vertex - dim(core & vertex)
    if total.dim != core.dim + vertex.dim:
        raise IdealCertificateFailure(
            "core and vertex parts of a class ideal are not independent",
            witness={"class": cls.representative.format()},
        )
    witness = system.ideal_witness(total)
    if witness is not None:
        raise IdealCertificateFailure(
            "class ideal fails the ideal predicate",
            witness={
                "class": cls.representative.format(),
                "vector": [system.field.format(x) for x in witness["vector"]],
                "slot": witness["slot"],
                "pair": (witness["j"], witness["k"]),
            },
        )
    return ClassIdeal(cls=cls, core=core, vertex=vertex, total=total)


def support_product_span(system: GradedTripleSystem) -> Subspace:
    """Span of all {E_g, E_h, E_{(gh)^-1}} over the whole odd support."""
    # the second degree ranges over the support plus the identity, which is
    # every basis degree
    every = set(system.degrees)
    odd = {d for d in every if not d.is_identity()}
    pattern = _degree_products(system, odd, every, every)
    return Subspace(system.field, system.dim, [u for _, u in pattern])


def _cross_products_vanish(field, left_products, right: Subspace):
    """Exact check of the three product families between two subspaces.

    For rows va of the left one and vb of `right`, each product at b_m is a
    combination of the slot products of va, `left_products`, with vb's entries:
    {I_a, E, I_b} is sum_k vb[k] {va, b_m, b_k}, {I_a, I_b, E} is
    sum_j vb[j] {va, b_j, b_m} and {E, I_a, I_b} is sum_k vb[k] {b_m, va, b_k}.
    The sums are zero-tested on the integer images of va, vb and the constants.
    """
    checks = {"left_middle": True, "left_right": True, "middle_right": True}
    rights = right.integral_rows()
    for products in left_products:
        for vb in rights:
            sums = {}  # (family, m) -> {l: int}
            for (j, k, slot), w in products.items():
                if slot == 0:
                    terms = (("left_right", j, vb.get(k)), ("left_middle", k, vb.get(j)))
                elif slot == 1:
                    terms = (("middle_right", j, vb.get(k)),)
                else:
                    continue
                for family, m, coef in terms:
                    if coef:
                        out = sums.setdefault((family, m), {})
                        for l, x in w.items():
                            out[l] = out.get(l, 0) + coef * x
            for (family, _), out in sums.items():
                if field.clean(out):
                    checks[family] = False
    return checks


def decompose(
    system: GradedTripleSystem,
    emb: StandardEmbedding,
    seed: int = 0,
) -> DecompositionReport:
    """Full certified decomposition report for a verified system."""
    sup = SupportData.from_system(system, emb)
    ideals = [class_ideal(system, cls) for cls in connection_classes(sup)]

    span_products = support_product_span(system)
    identity_comp = system.identity_component()
    u = complete_complement(span_products, identity_comp)

    rows = [row for sub in (u, *(ideal.total for ideal in ideals)) for row in sub.integral_rows()]
    total = Subspace(system.field, system.dim, rows)
    if total.dim != system.dim:
        raise DecompositionFailure(
            "complement plus class ideals do not span the system",
            witness={"dim_reached": total.dim, "dim_expected": system.dim},
        )

    orthogonality, disjoint = [], []
    for t, a in enumerate(ideals[:-1]):
        products = [system.int_slot_products(row) for row in a.total.integral_rows()]
        for b in ideals[t + 1:]:
            checks = _cross_products_vanish(system.field, products, b.total)
            pair = (a.cls.representative.format(), b.cls.representative.format())
            orthogonality.append(dict(classes=pair, vanish=all(checks.values()), families=checks))
            # dim(a + b) = dim a + dim b - dim(a & b)
            disjoint.append(a.total.sum(b.total).dim == a.total.dim + b.total.dim)

    tight, ann = u.is_zero(), system.annihilator()
    direct_sum = None
    if tight and ann.is_zero():
        # with U = 0 the ideals span E, so their dimensions add up to n exactly
        # when their sum is direct, and a direct sum meets pairwise in zero
        direct_sum = sum(i.total.dim for i in ideals) == system.dim

    return DecompositionReport(
        supports=sup,
        u=u,
        span_products=span_products,
        ideals=ideals,
        orthogonality=orthogonality,
        all_orthogonal=all(o["vanish"] for o in orthogonality),
        tight=tight,
        annihilator_dim=ann.dim,
        pairwise_disjoint=all(disjoint) if len(ideals) >= 2 else None,
        direct_sum=direct_sum,
        obstructions=simplicity_obstructions(system, ideals, identity_comp, span_products, seed),
    )


def simplicity_obstructions(
    system: GradedTripleSystem,
    ideals: list[ClassIdeal],
    identity_comp: Subspace,
    span_products: Subspace,
    seed: int = 0,
) -> list[Obstruction]:
    """Contrapositive simplicity certificates.

    A simple system must have a nonzero product, only the zero ideal, the
    defect ideal, and the whole system as ideals, a fully connected support,
    and a tight identity component: the span of the support products,
    `span_products`, must be all of `identity_comp`.  Each failed
    requirement is emitted as an obstruction with a witness.  A random
    sample of ideal closures of single lines (seeded, deterministic) looks
    for extra proper ideals.  The search never asserts simplicity.
    """
    obstructions: list[Obstruction] = []
    defect = system.lie_defect_ideal()

    if not system.integer_triples():
        obstructions.append(
            Obstruction(kind="zero_product", detail="the triple product is identically zero")
        )

    for ideal in ideals:
        if 0 < ideal.total.dim < system.dim and ideal.total != defect:
            obstructions.append(
                Obstruction(
                    kind="ideal_outside_allowed_set",
                    detail="a class ideal is a proper nontrivial ideal",
                    witness={
                        "class": ideal.cls.representative.format(),
                        "dim": ideal.total.dim,
                    },
                )
            )

    if len(ideals) > 1:
        obstructions.append(
            Obstruction(
                kind="support_not_connected",
                detail="the odd support splits into more than one connection class",
                witness={"classes": len(ideals)},
            )
        )
    if span_products != identity_comp:
        obstructions.append(
            Obstruction(
                kind="identity_component_not_tight",
                detail="the identity component is not spanned by support products",
                witness={
                    "identity_dim": identity_comp.dim,
                    "product_span_dim": span_products.dim,
                },
            )
        )

    rng = random.Random(seed)
    n = system.dim
    probe_vectors = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    for _ in range(PROBES):
        v = _random_vector(system, rng)
        if v is not None:
            probe_vectors.append(v)
    for idx, v in enumerate(probe_vectors):
        closure = system.ideal_closure(Subspace(system.field, system.dim, [v]))
        if 0 < closure.dim < system.dim and closure != defect:
            obstructions.append(
                Obstruction(
                    kind="proper_ideal_found",
                    detail="the ideal closure of a probed line is proper and nontrivial",
                    witness={
                        "probe": idx,
                        "vector": [system.field.format(x) for x in v],
                        "closure_dim": closure.dim,
                    },
                )
            )
    return obstructions


def _random_vector(system, rng):
    if system.dim == 0:
        return None
    # int coordinates are exact scalars of either field, residues over GF(p)
    if system.field.kind == "prime":
        coords = [rng.randrange(system.field.p) for _ in range(system.dim)]
    else:
        coords = [rng.randint(-3, 3) for _ in range(system.dim)]
    if not any(coords):
        coords[rng.randrange(system.dim)] = 1
    return coords


# -- structural lemma suite ------------------------------------------------------


def verify_structure_lemmas(
    system: GradedTripleSystem,
    emb: StandardEmbedding,
    classes: list[ConnectionClass],
    sup: SupportData,
) -> list[LemmaCheck]:
    """Instance-by-instance evaluation of the structural laws.

    Three implication laws relate supports to connectivity, three vanishing
    laws kill products across disconnected degrees (brackets, the inverse
    triple and core products), and two confinement laws pin the degrees of
    nonzero products to a single class.  Every instance is evaluated
    exactly; failures carry witnesses.  The report is informational (the
    command line escalates failures to a nonzero exit).
    """
    # read once: the odd blocks as basis indices of L, the slot degrees of each
    # stored constant, and per class the degrees the confinement laws allow
    s, degrees, identity = emb.dim_even, system.degrees, system.group.identity()
    blocks = system.components()
    lifted = {g: [s + x for x in _block(blocks, g)] for g in sup.odd}
    triples = system.integer_triples()
    stored = [((p, q, r), (degrees[p], degrees[q], degrees[r])) for (p, q, r), _ in triples]
    allowed = [{*cls.members, identity} for cls in classes]
    return [
        *_support_pair_laws(emb, sup, lifted, stored, blocks),
        _lemma_products_confined_to_class(stored, classes, allowed),
        *_class_core_laws(system, emb, sup, classes, allowed, lifted, blocks),
    ]


# g, h in the odd support must be connected when g h is in the inverse-closed
# even support or 1; when g is in the even support and g h in the odd support
# or 1; when g, h and g h are in the even support (g h = 1 allowed).
_PAIR_LAWS = (
    "connected_when_pair_product_in_even_support",
    "connected_when_first_in_even_support",
    "connected_when_both_in_even_support",
)


def _support_pair_laws(emb, sup, lifted, stored, blocks) -> list[LemmaCheck]:
    # one pass over the ordered pairs (g, h) of odd degrees, g outer
    implications = [LemmaCheck(name) for name in _PAIR_LAWS]
    brackets = LemmaCheck("disconnected_brackets_vanish")
    inverse_triple = LemmaCheck("disconnected_inverse_triple_vanishes")
    table, pm_odd, pm_even = emb.table, sup.pm_odd, sup.pm_even
    counts = Counter(triple for _, triple in stored)
    for g in sup.odd:
        ginv, eg, cg, g_even = g.inverse(), lifted[g], emb.component(g), g in pm_even
        for h in sup.odd:
            gh = g.compose(h)
            one, connected = gh.is_identity(), are_connected(sup, g, h)
            holds = (
                gh in pm_even or one,
                g_even and (gh in pm_odd or one),
                g_even and h in pm_even and (gh in pm_even or one),
            )
            for check, law in zip(implications, holds):
                check.instances += 1
                if law:
                    check.nonvacuous += 1
                    if not connected:
                        check.failures.append({"pair": (g.format(), h.format())})
            if connected:
                continue
            # Disconnected support degrees bracket to zero in the embedding, at
            # all three levels: odd with odd, even with odd, even with even.  A
            # bracket of basis elements of L is nonzero exactly when the table
            # stores it.
            brackets.instances += 1
            brackets.nonvacuous += 1
            eh, ch = lifted[h], emb.component(h)
            levels = (("odd_odd", eg, eh), ("even_odd", cg, eh), ("even_even", cg, ch))
            for level, left, right in levels:
                for x, y in product(left, right):
                    if (x, y) in table:
                        pair = (g.format(), h.format())
                        brackets.failures.append({"pair": pair, "level": level})
            # {E_g, E_g^-1, E_hbar} vanishes for disconnected g, hbar: one
            # failure per nonzero product of basis vectors, that is per stored
            # constant, of that degree pattern
            inverse_triple.instances += 1
            if ginv in blocks:
                inverse_triple.nonvacuous += 1
            for _ in range(counts[g, ginv, h]):
                inverse_triple.failures.append({"pair": (g.format(), h.format())})
    return [*implications, brackets, inverse_triple]


def _lemma_products_confined_to_class(stored, classes, allowed) -> LemmaCheck:
    # A nonzero product with one slot of degree inside a class forces the
    # other degrees (and the product degree) into the class or the identity.
    check = LemmaCheck("nonzero_products_confined_to_class")
    for key, (dp, dq, dr) in stored:
        total = dp.compose(dq).compose(dr)
        for cls, allow in zip(classes, allowed):
            for slot_degree, others in ((dp, (dq, dr)), (dq, (dp, dr)), (dr, (dp, dq))):
                if slot_degree in allow and not slot_degree.is_identity():
                    check.instances += 1
                    check.nonvacuous += 1
                    check.failures.extend(
                        {"triple": key, "class": cls.representative.format(), "degree": d.format()}
                        for d in (*others, total)
                        if d not in allow
                    )
    return check


def _class_core_laws(system, emb, sup, classes, allowed, lifted, blocks) -> list[LemmaCheck]:
    # one pass per class over its core sources u = {b_p, b_q, b_r}, p and r of
    # degree in the class, q in the class or 1: each keeps its odd image in L,
    # {dim_even + l: u_l}, and counts its products {u, E_1, b_y} by deg(y)
    confined = LemmaCheck("core_products_confined_to_class")
    vanish = LemmaCheck("core_disconnected_products_vanish")
    degrees, s = system.degrees, emb.dim_even
    units = set(blocks.get(system.group.identity(), ()))
    for cls, allow in zip(classes, allowed):
        members = set(cls.members)
        # The outer degrees of each nonzero slot product of a core vector, and
        # their product, lie in the class or are 1.  The verdict depends on
        # the outer degrees alone, so `bad` keeps it per outer index pair:
        # (jq, jr) -> the formatted outer degrees outside `allow`
        bad: dict[tuple[int, int], list[str]] = {}
        sources = []
        for key, u in _degree_products(system, members, allow, members):
            products = system.int_slot_products(u)
            # each nonzero slot product of the core vector is one instance
            confined.instances += len(products)
            confined.nonvacuous += len(products)
            through = Counter()
            for jq, jr, slot in products:
                pair = (jq, jr)
                if pair not in bad:
                    dl, dm = degrees[jq], degrees[jr]
                    bad[pair] = [d.format() for d in (dl, dm, dl.compose(dm)) if d not in allow]
                for d in bad[pair]:
                    confined.failures.append(
                        {"core_triple": key, "outer_pair": pair, "slot": slot, "degree": d}
                    )
                if slot == 0 and jq in units:
                    through[degrees[jr]] += 1
            sources.append((key, {s + l: x for l, x in u.items()}, through))
        # Core products of one class annihilate everything carried by degrees
        # outside the class: their tensors fall into the null space, the
        # twisted right action of the outside even component kills them, and
        # triple products through the identity component vanish.
        for hbar in [h for h in sup.odd if h not in cls]:
            eh, ch = lifted[hbar], emb.component(hbar)
            for key, odd, through in sources:
                vanish.instances += 1
                vanish.nonvacuous += 1
                levels = (
                    ("tensor", sum(1 for y in eh if emb.int_bracket(odd, {y: 1}))),
                    ("even_action", sum(1 for t in ch if emb.int_bracket(odd, {t: 1}))),
                    ("identity_triple", through[hbar]),
                )
                for level, count in levels:
                    vanish.failures.extend(
                        {"core_triple": key, "outside": hbar.format(), "level": level}
                        for _ in range(count)
                    )
    return [confined, vanish]
