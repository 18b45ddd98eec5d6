"""Seeded job corpora for the three benchmark workloads.

``build(workload, seed, workdir)`` constructs every document through the
public weakhopf API, writes it under ``workdir`` and returns the jobs that run
on it.  Each job records the verdict known from how its document was built:
the ``whw`` exit code, the ``ok`` flag of the JSON report, the
``"<report title>: <label>"`` entries that must fail, and for the commands
that emit a document, the SHA-256 of the exact bytes expected.

The seed varies the contents of the structures, never their dimensions:
groupoid element names (and hence basis order), abelian factorisations,
λ-indicator subsets, projection choices and which provably-breaking
corruption is applied to a corrupted copy.  Every corruption doubles a piece
of data that an axiom pins to an exact value (the counit, the unit, the
antipode, the action of 1, an object's isomorphism θ_e), so the named check
fails over ℚ and over every GF(p) with p ≠ 2.

``size="tiny"`` swaps in the smallest rungs of each workload for the smoke
test; the benchmark itself always runs ``size="full"``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

from weakhopf import (
    QQ,
    ActionTensor,
    AlgebraData,
    CoalgebraData,
    FiniteAbelianGroup,
    FinVec,
    GroupoidPartialAction,
    LambdaFunctional,
    LinMap,
    PrimeField,
    Vector,
    WeakBialgebraData,
    WeakHopfData,
    abelian_group_weak_hopf,
    disjoint_union_of_cyclic,
    dual_groupoid_algebra,
    dualize,
    dualize_coalgebra_action,
    find_basis_grouplikes,
    from_kG_action,
    groupoid_algebra,
    induce_partial_action,
    lambda_action,
    standard_globalization,
    two_object_iso_groupoid,
    validate_groupoid,
)
from weakhopf.groupoid import groupoid_to_spec
from weakhopf.jsonio import (
    action_to_json,
    canonical_dumps,
    gpa_to_json,
    lambda_to_json,
    triple_to_json,
    weakhopf_to_json,
)

WORKLOADS = ("sparse-ladder", "dense-coproduct", "action-pipeline")
SIZES = ("full", "tiny")
FP = PrimeField(7)          # GF(p) twin field; 7 divides no group order used


@dataclass
class Job:
    """One ``whw`` invocation and the verdict it must produce."""

    name: str
    args: list                  # whw arguments; "*.json" entries are work-dir files
    exit: int = 0
    ok: bool | None = True      # None: the command prints no report
    fails: list = field(default_factory=list)
    output: str | None = None   # emitted document, relative to the work dir
    output_sha: str | None = None
    pair: str | None = None     # "Q" or "Fp": its side of the ℚ ÷ GF(p) time ratio

    def argv(self, workdir: Path) -> list:
        return ["--format", "json"] + [
            str(workdir / a) if a.endswith(".json") else a for a in self.args]


def _text(doc: dict) -> str:
    return canonical_dumps(doc) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Corpus:
    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.jobs: list[Job] = []

    def write(self, name: str, doc: dict) -> str:
        (self.workdir / name).write_text(_text(doc), encoding="utf-8")
        return name

    def check(self, kind: str, doc_name: str, **verdict):
        self.jobs.append(Job(f"{doc_name[:-5]}:{kind}", ["check", kind, doc_name],
                             **verdict))

    def equiv(self, doc_name: str):
        self.jobs.append(Job(f"{doc_name[:-5]}:equiv", ["equiv", doc_name]))

    def emit(self, name: str, args: list, output: str, expected: dict, ok: bool | None):
        self.jobs.append(Job(name, args + ["-o", output], 0, ok,
                             output=output, output_sha=_sha(_text(expected))))

    def corrupt_weak_hopf(self, stem: str, H: WeakHopfData):
        kind = self.rng.choice(sorted(_WEAK_HOPF_CORRUPTIONS))
        build, label = _WEAK_HOPF_CORRUPTIONS[kind]
        doc = self.write(f"{stem}-{kind}.json", weakhopf_to_json(build(H)))
        self.check("weak-hopf", doc, exit=2, ok=False, fails=[f"weak Hopf axioms: {label}"])


# -- provably-breaking corruptions ---------------------------------------------

def _double_counit(H):
    C = CoalgebraData(H.space, H.coalg.comul, H.coalg.counit.scale(2))
    return WeakHopfData(WeakBialgebraData(H.alg, C), H.antipode)


def _double_unit(H):
    A = AlgebraData(H.space, H.alg.mul, H.unit.scale(2))
    return WeakHopfData(WeakBialgebraData(A, H.coalg), H.antipode)


def _double_antipode(H):
    return WeakHopfData(H.wb, H.antipode.scale(2))


# (ε⊗id)Δ = 2·id, m(1⊗h) = 2h and m(id⊗S)Δ = 2ε_t with ε_t(1) = 1.
_WEAK_HOPF_CORRUPTIONS = {
    "double-counit": (_double_counit, "counit-left"),
    "double-unit": (_double_unit, "unit-left"),
    "double-antipode": (_double_antipode, "S-(i)"),
}


def _double_unit_slice(act: ActionTensor) -> ActionTensor:
    """Scale the slices on the support of 1_H by 2, so 1·x = 2x ≠ x."""
    unit = act.hopf.unit.coords
    slices = [s.scale(2) if unit[i] else s for i, s in enumerate(act.slices)]
    return ActionTensor.from_slices(act.hopf, act.carrier, act.side, slices)


# -- structures ------------------------------------------------------------------

def _relabel(G, rng: random.Random):
    """The same groupoid under seeded element names.

    Groupoid bases are ordered identities first, then by name, so new names
    permute the basis of every structure built on G.  Returns the groupoid and
    the old → new name map.
    """
    names = dict(zip(G.elements, (f"u{v}" for v in rng.sample(range(100, 1000),
                                                               len(G.elements)))))
    H = validate_groupoid(
        [names[g] for g in G.elements],
        {(names[g], names[h]): names[gh] for (g, h), gh in G.mul.items()},
        {names[g]: names[G.inv[g]] for g in G.elements})
    return H, names


def _cyclic_union(orders, rng):
    """Z/a ⊔ Z/b ⊔ ... under seeded names, with each component's elements
    listed by exponent (component i is ``g{i+1}.`` in the library's naming)."""
    G, names = _relabel(disjoint_union_of_cyclic(orders), rng)
    comps = []
    for i, n in enumerate(orders):
        pre = f"g{i + 1}."
        comps.append([names[pre + ("e" if k == 0 else "a" if k == 1 else f"a{k}")]
                      for k in range(n)])
    return G, comps


def _grouplike_coalgebra(field_, labels) -> CoalgebraData:
    n = len(labels)
    z, o = field_.zero(), field_.one()
    entries = [[[o if i == j == k else z for k in range(n)] for j in range(n)]
               for i in range(n)]
    return CoalgebraData.from_tensor(FinVec(field_, tuple(labels)), entries, [o] * n)


def _nilpotent_coalgebra(field_, g: str, x: str) -> CoalgebraData:
    """Δ(g) = g⊗g, Δ(x) = g⊗x + x⊗g: not spanned by grouplikes."""
    z, o = field_.zero(), field_.one()
    entries = [[[o, z], [z, z]], [[z, o], [o, z]]]
    return CoalgebraData.from_tensor(FinVec(field_, (g, x)), entries, [o, z])


def _names(rng, prefix, count):
    return [f"{prefix}{v}" for v in rng.sample(range(10, 100), count)]


def _regular_action(H: WeakHopfData) -> ActionTensor:
    slices = [H.alg.lmul(Vector.basis(H.space, i)) for i in range(H.space.dim)]
    return ActionTensor.from_slices(H, H.coalg, "left", slices)


def _coordinate_projector(space: FinVec, keep) -> LinMap:
    z, o = space.field.zero(), space.field.one()
    return LinMap.from_rows(space, space, [
        [o if i == j and i in keep else z for j in range(space.dim)]
        for i in range(space.dim)])


def _subgroup(rng, comp):
    """A seeded subgroup of the cyclic component ``comp`` (listed by exponent)."""
    m = len(comp)
    d = rng.choice([d for d in range(1, m + 1) if m % d == 0])
    return [comp[k] for k in range(0, m, m // d)]


# -- workloads -------------------------------------------------------------------

def _sparse_ladder(c: _Corpus, size: str):
    rungs = (3, 4) if size == "full" else (1, 2)
    for a in rungs:
        n = 2 * a
        G, _ = _cyclic_union([a, a], c.rng)
        H = groupoid_algebra(G, QQ)
        wh = c.write(f"kG{n}.json", weakhopf_to_json(H))
        top = a == rungs[-1]
        c.check("weak-hopf", wh, pair="Q" if top else None)
        c.check("identities", wh, pair="Q" if top else None)
        # two objects, so Δ(1) ≠ 1⊗1: a weak Hopf algebra that is not Hopf
        c.check("hopf", wh, exit=2, ok=False, fails=["Hopf detection: (i) Δ(1)=1⊗1"])
        act = c.write(f"kG{n}-regular.json", action_to_json(_regular_action(H)))
        c.check("mc", act)
        c.check("pmc", act)
        c.corrupt_weak_hopf(f"kG{n}", H)
        if top:
            wh7 = c.write(f"kG{n}-F7.json", weakhopf_to_json(groupoid_algebra(G, FP)))
            c.check("weak-hopf", wh7, pair="Fp")
            c.check("identities", wh7, pair="Fp")


_FACTORISATIONS = {2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,)]}


def _dense_coproduct(c: _Corpus, size: str):
    duals = [(2, 2), (1, 2)] if size == "full" else [(1, 2)]
    orders = (4, 5) if size == "full" else (2, 3)
    for k, shape in enumerate(duals):
        G, _ = _relabel(disjoint_union_of_cyclic(shape), c.rng)
        H = dual_groupoid_algebra(G, QQ)
        stem = "dual" + "-".join(map(str, shape))
        doc = c.write(f"{stem}.json", weakhopf_to_json(H))
        c.check("weak-hopf", doc)
        c.check("identities", doc)
        if k == len(duals) - 1:
            c.corrupt_weak_hopf(stem, H)
    for N in orders:
        A = FiniteAbelianGroup(c.rng.choice(_FACTORISATIONS[N]))
        H = abelian_group_weak_hopf(A, QQ)
        top = N == orders[-1]
        doc = c.write(f"ab{N}.json", weakhopf_to_json(H))
        c.check("weak-hopf", doc, pair="Q" if top else None)
        c.check("identities", doc, pair="Q" if top else None)
        if top:
            c.corrupt_weak_hopf(f"ab{N}", H)
            doc7 = c.write(f"ab{N}-F7.json", weakhopf_to_json(abelian_group_weak_hopf(A, FP)))
            c.check("weak-hopf", doc7, pair="Fp")
            c.check("identities", doc7, pair="Fp")


def _action_pipeline(c: _Corpus, size: str):
    rng = c.rng
    full = size == "full"

    # λ-functionals on kG: the indicator of a subgroup of one isotropy group is
    # a partial action; adding another object's identity, or dropping the
    # identity, makes λ(1) ∈ {0, 2}, which breaks condition (i).
    for orders in ([(4, 5), (3, 4), (2, 3)] if full else [(2, 3)]):
        G, comps = _cyclic_union(orders, rng)
        H = groupoid_algebra(G, QQ)
        i = rng.randrange(2)
        V = _subgroup(rng, comps[i])
        stem = f"lambda{sum(orders)}"
        doc = c.write(f"{stem}.json", lambda_to_json(
            LambdaFunctional.indicator(H, V), groupoid=G, hopf_kind="kG"))
        c.check("lambda", doc)
        bad = (V + [comps[1 - i][0]]) if rng.random() < 0.5 else V[1:]
        doc = c.write(f"{stem}-bad.json", lambda_to_json(
            LambdaFunctional.indicator(H, bad), groupoid=G, hopf_kind="kG"))
        c.check("lambda", doc, exit=2, ok=False,
                fails=["left partial λ-action conditions: (i)"])

    # λ-actions on a grouplike and a nilpotent carrier, and their duals
    orders = (4, 5) if full else (2, 3)
    G, comps = _cyclic_union(orders, rng)
    V = _subgroup(rng, comps[rng.randrange(2)])
    lam = LambdaFunctional.indicator(groupoid_algebra(G, QQ), V)
    C = _grouplike_coalgebra(QQ, _names(rng, "c", 3))
    act = lambda_action(lam, C)
    _action_jobs(c, "lam-grouplike", act, pair="Q")
    c.equiv(c.write("lam-grouplike-kG.json", action_to_json(act, G)))
    act7 = lambda_action(LambdaFunctional.indicator(groupoid_algebra(G, FP), V),
                         _grouplike_coalgebra(FP, C.space.labels))
    c.check("pmc", c.write("lam-grouplike-F7.json", action_to_json(act7)), pair="Fp")
    _action_jobs(c, "lam-nilpotent",
                 lambda_action(lam, _nilpotent_coalgebra(QQ, *_names(rng, "n", 2))))

    # the regular action of kG induced onto a seeded half of its basis, and the
    # groupoid partial action it determines
    orders = (3, 4) if full else (2, 2)
    G, _ = _cyclic_union(orders, rng)
    H = groupoid_algebra(G, QQ)
    keep = set(rng.sample(range(H.space.dim), H.space.dim // 2 + 1))
    induced = induce_partial_action(_regular_action(H),
                                    _coordinate_projector(H.space, keep)).action
    c.check("pmc", c.write("induced.json", action_to_json(induced, G)))
    c.check("pma", c.write("induced-dual.json",
                           action_to_json(dualize_coalgebra_action(induced, check=False))))
    c.equiv("induced.json")
    gpa = from_kG_action(induced, G)
    doc = c.write("gpa.json", gpa_to_json(gpa))
    c.check("groupoid-action", doc)
    c.equiv(doc)
    objects = [e for e in G.identities if any(any(r) for r in gpa.P(e).rows)]
    e = rng.choice(objects)
    isos = dict(gpa.isos)
    isos[e] = isos[e].scale(2)                  # θ_e = 2·P_e ≠ P_e
    bad = GroupoidPartialAction(G, gpa.coalgebra, gpa.projections, isos)
    c.check("groupoid-action", c.write("gpa-bad.json", gpa_to_json(bad)), exit=2, ok=False,
            fails=["groupoid partial action: (ii)-theta-objects"])

    # the two closing examples: build, dualize -o and globalize -o
    for stem, G, lam_support, carrier in _closing_examples(rng):
        c.emit(f"{stem}:build", ["build", "kG", c.write(f"{stem}-spec.json",
                                                       groupoid_to_spec(G))],
               f"{stem}-kG.out.json", weakhopf_to_json(groupoid_algebra(G, QQ)), None)
        lf = LambdaFunctional.indicator(groupoid_algebra(G, QQ), [lam_support])
        left = lambda_action(lf, carrier, "left")
        doc = c.write(f"{stem}-left.json", action_to_json(left))
        c.emit(f"{stem}:dualize", ["dualize", doc], f"{stem}-dual.out.json",
               action_to_json(dualize_coalgebra_action(left, check=False)), True)
        right = lambda_action(lf, carrier, "right")
        doc = c.write(f"{stem}-right.json", action_to_json(right))
        c.check("pmc", doc)
        e = next(g for g in find_basis_grouplikes(right) if g.label == lam_support)
        c.emit(f"{stem}:globalize", ["globalize", doc, "--grouplike", lam_support],
               f"{stem}-glob.out.json", triple_to_json(standard_globalization(right, e)),
               True)


def _action_jobs(c: _Corpus, stem: str, act: ActionTensor, pair=None):
    """PMC on the action and PMA on its dual, each also with the unit slice
    doubled (which breaks PMC1 / PMA1)."""
    dual = dualize_coalgebra_action(act, check=False)
    c.check("pmc", c.write(f"{stem}.json", action_to_json(act)), pair=pair)
    c.check("pmc", c.write(f"{stem}-bad.json", action_to_json(_double_unit_slice(act))),
            exit=2, ok=False, fails=["left partial module coalgebra: PMC1"])
    c.check("pma", c.write(f"{stem}-dual.json", action_to_json(dual)))
    c.check("pma", c.write(f"{stem}-dual-bad.json", action_to_json(_double_unit_slice(dual))),
            exit=2, ok=False, fails=["right partial module algebra: PMA1"])


def _closing_examples(rng):
    """λ = indicator of one identity: on Z/2 ⊔ Z/3 acting on a 2-dimensional
    grouplike coalgebra, and on the two-object groupoid acting on the
    nilpotent coalgebra.  Yields (stem, groupoid, λ support, carrier)."""
    G1, comps = _cyclic_union([2, 3], rng)
    yield "closing1", G1, comps[0][0], _grouplike_coalgebra(QQ, _names(rng, "c", 2))
    G2, names = _relabel(two_object_iso_groupoid(), rng)
    yield "closing2", G2, names["e"], _nilpotent_coalgebra(QQ, *_names(rng, "n", 2))


def cross_section(workdir: Path) -> list[Job]:
    """A fixed handful of tiny jobs, plus an induced action and a dual built
    on the way, that together call every library function the traced run
    wraps.  The traced run prepends it to every workload, so no per-layer
    metric is zero merely because a workload bypasses that layer."""
    workdir.mkdir(parents=True, exist_ok=True)
    c = _Corpus(workdir, random.Random("cross-section"))
    G, comps = _cyclic_union([1, 2], c.rng)
    H = groupoid_algebra(G, QQ)
    doc = c.write("kG3.json", weakhopf_to_json(H))
    c.check("weak-hopf", doc)
    c.check("identities", doc)
    c.check("hopf", doc, exit=2, ok=False, fails=["Hopf detection: (i) Δ(1)=1⊗1"])
    e = comps[1][0]
    lf = LambdaFunctional.indicator(H, [e])
    c.check("lambda", c.write("lambda.json", lambda_to_json(lf, groupoid=G, hopf_kind="kG")))
    carrier = _grouplike_coalgebra(QQ, ["c0", "c1"])
    left = lambda_action(lf, carrier)
    doc = c.write("left.json", action_to_json(left, G))
    c.check("pmc", doc)
    c.equiv(doc)
    c.emit("left:dualize", ["dualize", doc], "dual.out.json",
           action_to_json(dualize_coalgebra_action(left, check=False)), True)
    right = lambda_action(lf, carrier, "right")
    doc = c.write("right.json", action_to_json(right))
    g = next(g for g in find_basis_grouplikes(right) if g.label == e)
    c.emit("right:globalize", ["globalize", doc, "--grouplike", e], "glob.out.json",
           triple_to_json(standard_globalization(right, g)), True)
    induce_partial_action(_regular_action(H), _coordinate_projector(H.space, {0}))
    dualize(H)
    return c.jobs


_BUILDERS = {
    "sparse-ladder": _sparse_ladder,
    "dense-coproduct": _dense_coproduct,
    "action-pipeline": _action_pipeline,
}


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Job]:
    """Write the workload's documents under ``workdir`` and return its jobs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    c = _Corpus(workdir, random.Random(f"{workload}/{seed}"))
    _BUILDERS[workload](c, size)
    names = [j.name for j in c.jobs]
    if len(set(names)) != len(names):
        raise AssertionError("job names must be unique")
    (workdir / "jobs.json").write_text(
        json.dumps([asdict(j) for j in c.jobs], indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8")
    return c.jobs
