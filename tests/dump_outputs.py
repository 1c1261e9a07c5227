"""Dump seeded library outputs as text, to compare two versions of ``wstable`` byte for byte.

Run it once per source tree and compare the files::

    PYTHONPATH=old/src python tests/dump_outputs.py > old.txt
    PYTHONPATH=new/src python tests/dump_outputs.py > new.txt
    cmp old.txt new.txt

Only the public API is used, so any two versions can be compared.  The
closure part covers 1,600 cases (seeds 1 and 2; n = 1-5; half standard
graded and half with weights 1-3; 1-6 seeds; exponents <= 3): the closure,
its stability, its weighted Borel generators, and the stability answer and
``NotWStableError`` message on the closure less one generator and on the
seed ideal itself.  The principal part covers 3,000 cases of Catalan rows,
generator statistics, Hilbert numerators and terms, ``meet_w``, truncation
tree adjacency under random bounds, and ``truncate`` at lengths up to two
past the degree (drawn from a second seeded generator, so that the other
lines do not move when these are added).  The cone part covers 600 standard
closures (n = 1-5, 1-3 seeds, exponents <= 3) and the unit ideal: the
constraint system's half-spaces, candidate and ``trivially_empty``, the
extreme rays, emptiness, the principal weight vector, and the half-spaces or
the ``NotWStableError`` message of the closure less one generator.
"""

import random
import sys

from wstable import (
    Monomial,
    MonomialIdeal,
    NotWStableError,
    WeightVector,
    catalan_diagram,
    cone_rays,
    constraint_system,
    generator_stats,
    hilbert_series,
    is_w_stable,
    meet_w,
    open_region_is_empty,
    principal_weight_vector,
    tree_from_monomial,
    truncate,
    w_borel_gens,
    w_closure,
)


def _weights(rng, n, top):
    if rng.random() < 0.5:
        return WeightVector.ones(n)
    return WeightVector(tuple(sorted((rng.randint(1, top) for _ in range(n)), reverse=True)))


def _monomial(rng, n, top):
    return Monomial(tuple(rng.randint(0, top) for _ in range(n)))


def _gens(ideal):
    return [g.exponents for g in ideal.sorted_gens()]


def _stability(ideal, w):
    try:
        return sorted(b.exponents for b in w_borel_gens(ideal, w))
    except NotWStableError as err:
        return f"{is_w_stable(ideal, w)} {err.witness.exponents} {err}"


def dump_closures(out):
    for n in (1, 3):
        for w in (WeightVector.ones(n), WeightVector((3,) * n)):
            for ideal in (MonomialIdeal.zero(n), MonomialIdeal.unit(n)):
                print(w.weights, _gens(ideal), _gens(w_closure(ideal, w)),
                      _stability(ideal, w), file=out)
    for seed in (1, 2):
        rng = random.Random(seed)
        for case in range(800):
            n = rng.randint(1, 5)
            w = _weights(rng, n, 3)
            seeds = [_monomial(rng, n, 3) for _ in range(rng.randint(1, 6))]
            closed = w_closure(seeds, w)
            print(seed, case, w.weights, [s.exponents for s in seeds], file=out)
            print(" closure", _gens(closed), is_w_stable(closed, w), file=out)
            print(" bgens", _stability(closed, w), file=out)
            print(" seeds", _stability(MonomialIdeal(n, seeds), w), file=out)
            gens = closed.sorted_gens()
            del gens[rng.randrange(len(gens))]
            print(" less one", _stability(MonomialIdeal(n, gens), w), file=out)


def dump_principal(out):
    rng = random.Random(3)
    cuts = random.Random(5)
    for case in range(3000):
        n = rng.randint(1, 5)
        w = _weights(rng, n, 4)
        m = _monomial(rng, n, rng.choice((0, 2, 3)))
        diagram = catalan_diagram(m, w)
        series = hilbert_series(w_closure([m], w), w)
        meet = meet_w(m, _monomial(rng, n, 3), w)
        bound = rng.randint(0, sum(map(int.__mul__, w.weights, m.exponents)) + 3)
        print(case, w.weights, m.exponents, file=out)
        print(" catalan", diagram.rows, generator_stats(diagram), file=out)
        print(" hilbert", series.numerator, series.terms, file=out)
        print(" meet", None if meet is None else meet.exponents, file=out)
        print(" tree", bound, tree_from_monomial(m, w, bound).adjacency_lines(), file=out)
        cut = cuts.randint(0, m.degree() + 2)
        print(" truncate", cut, truncate(m, cut).exponents, file=out)


def _halfspaces(ideal):
    try:
        system = constraint_system(ideal)
    except ValueError as err:
        return f"{type(err).__name__} {err}"
    return [(hs.normal, hs.strict) for hs in system.halfspaces]


def _cone(system):
    return system.trivially_empty, cone_rays(system).rays, open_region_is_empty(system)


def dump_cones(out):
    for n in (1, 3):
        unit = MonomialIdeal.unit(n)
        print(n, _halfspaces(unit), _cone(constraint_system(unit)), file=out)
    rng = random.Random(4)
    for case in range(600):
        n = rng.randint(1, 5)
        seeds = [_monomial(rng, n, 3) for _ in range(rng.randint(1, 3))]
        closed = w_closure(seeds, WeightVector.ones(n))
        system = constraint_system(closed)
        found = principal_weight_vector(closed)
        print(case, n, [s.exponents for s in seeds], system.candidate.exponents, file=out)
        print(" system", _halfspaces(closed), file=out)
        print(" cone", _cone(system), None if found is None else found.weights, file=out)
        gens = closed.sorted_gens()
        del gens[rng.randrange(len(gens))]
        print(" less one", _halfspaces(MonomialIdeal(n, gens)), file=out)


if __name__ == "__main__":
    dump_closures(sys.stdout)
    dump_principal(sys.stdout)
    dump_cones(sys.stdout)
