"""Group arithmetic, and the oracles of ``selftest`` built on it: translation
spans, subgroup classification and the rank function."""

import random
from fractions import Fraction as F
from itertools import combinations
from math import factorial, gcd

import pytest

from crystal_rigidity import selftest
from crystal_rigidity.generate import random_element, random_generators, random_translation
from crystal_rigidity.groups import T1, T2, GroupContext, GroupElement, IDENTITY
from crystal_rigidity.selftest import (
    CYCLIC_ROTATION,
    IndexedSubset,
    MIXED,
    TRANSLATION_ONLY,
    TRIVIAL,
    cent_of,
    classify_subgroup,
    conjugate_subset,
    fuse_subset,
    g1_rank,
    in_closure,
    in_span,
    invariant_t,
    is_independent,
    is_spanning,
    is_tight,
    join_rep,
    random_indexed_subset,
    random_tight_set,
    rep_dim,
    separate_subset,
    translation_span,
)

CTX = {k: GroupContext(k) for k in (2, 3, 4, 6)}
ROT = GroupElement(0, 0, 1)  # the standard generator of order k


def rotation_center(ctx, a):
    """Unique fixed point of a rotation, in lattice coordinates: the
    rational reference for ``GroupContext.same_center``.

    Solves c = t + M^s c; the matrix I - M^s is invertible exactly when
    s != 0.
    """
    s = a[2] % ctx.k
    if s == 0:
        raise ValueError("not a rotation")
    m = ctx.powers[s]
    p, q = 1 - m[0], -m[1]
    r, t = -m[2], 1 - m[3]
    det = p * t - q * r
    return (F(t * a[0] - q * a[1], det), F(-r * a[0] + p * a[1], det))


class TestGroupArithmetic:
    def test_compose_examples(self):
        assert CTX[4].compose(GroupElement(1, 0, 1), GroupElement(1, 0, 0)) == GroupElement(1, 1, 1)
        assert CTX[2].compose(GroupElement(0, 0, 1), GroupElement(1, 0, 0)) == GroupElement(-1, 0, 1)
        for k in CTX:
            gamma = GroupElement(3, -2, k - 1)
            assert CTX[k].compose(IDENTITY, gamma) == gamma
            assert CTX[k].compose(gamma, IDENTITY) == gamma

    def test_invert_examples(self):
        assert CTX[4].invert(GroupElement(1, 0, 1)) == GroupElement(0, 1, 3)
        assert CTX[2].invert(GroupElement(2, 3, 0)) == GroupElement(-2, -3, 0)
        assert CTX[3].invert(IDENTITY) == IDENTITY

    def test_group_axioms_random(self):
        rng = random.Random(101)
        for k, ctx in CTX.items():
            for _ in range(300):
                a, b, c = (random_element(ctx, rng, 3) for _ in range(3))
                assert ctx.compose(ctx.compose(a, b), c) == ctx.compose(a, ctx.compose(b, c))
                assert ctx.compose(a, ctx.invert(a)) == IDENTITY
                assert ctx.compose(ctx.invert(a), a) == IDENTITY

    def test_action_matrix_orders(self):
        for k, ctx in CTX.items():
            assert ctx.powers[0] == (1, 0, 0, 1)
            for s in range(1, k):
                assert ctx.powers[s] != (1, 0, 0, 1)
            assert ctx.compose(GroupElement(0, 0, k - 1), GroupElement(0, 0, 1)) == IDENTITY

    def test_rotation_center_examples(self):
        assert rotation_center(CTX[2], GroupElement(1, 0, 1)) == (F(1, 2), F(0))
        assert rotation_center(CTX[4], GroupElement(1, 0, 1)) == (F(1, 2), F(1, 2))
        for k in CTX:
            assert rotation_center(CTX[k], GroupElement(0, 0, 1)) == (F(0), F(0))
        with pytest.raises(ValueError, match="not a rotation"):
            rotation_center(CTX[3], GroupElement(1, 0, 0))

    def test_rotation_center_is_fixed_point(self):
        rng = random.Random(77)
        for k, ctx in CTX.items():
            for _ in range(100):
                g = random_element(ctx, rng, 3)
                if g.s == 0:
                    continue
                cx, cy = rotation_center(ctx, g)
                m = ctx.powers[g.s]
                fx = g.t1 + m[0] * cx + m[1] * cy
                fy = g.t2 + m[2] * cx + m[3] * cy
                assert (fx, fy) == (cx, cy)

    def test_same_center_matches_rational_centers(self):
        rng = random.Random(5)
        for k, ctx in CTX.items():
            for _ in range(200):
                a, b = random_element(ctx, rng, 2), random_element(ctx, rng, 2)
                if a.s == 0 or b.s == 0:
                    continue
                assert ctx.same_center(a, b) == (
                    rotation_center(ctx, a) == rotation_center(ctx, b)
                )


PLANE = ((1, 0), (0, 1))


def _minors(vectors):
    """The rank r of integer vectors and the gcd of their r x r minors:
    the covolume of the lattice they generate for r = 2, the content of
    its generator for r = 1."""
    dets = [a[0] * b[1] - a[1] * b[0] for a, b in combinations(vectors, 2)]
    if any(dets):
        return 2, gcd(*dets)
    entries = [x for v in vectors for x in v]
    return (1, gcd(*entries)) if any(entries) else (0, 0)


def _lattice_member(vectors, v):
    """v lies in the lattice L generated by the vectors exactly when
    adding it as a generator changes neither the rank nor the gcd of the
    minors: at equal rank, the index of L in L + Zv is their quotient."""
    return _minors(list(vectors) + [v]) == _minors(vectors)


class TestLattices:
    """Translation lattices, kept as their rational spans."""

    def test_examples(self):
        assert translation_span([]) == ()
        assert translation_span([(0, 0)]) == ()
        assert translation_span([(2, 4)]) == ((1, 2),)
        assert translation_span([(0, -3), (0, 5)]) == ((0, 1),)
        assert translation_span([(-2, 1), (4, -2)]) == ((2, -1),)
        assert translation_span([(2, 0), (0, 3)]) == PLANE
        assert translation_span([(1, 0), (0, 1), (1, 1)]) == PLANE
        assert in_span(((1, 0),), (5, 0)) and not in_span(((1, 0),), (0, 1))
        assert not in_span((), (1, 0)) and in_span((), (0, 0))

    def test_canonical_form_unique(self):
        # the span of any generating set of a lattice is the same basis
        rng = random.Random(9)
        for _ in range(300):
            basis = [
                (rng.randint(-4, 4), rng.randint(-4, 4))
                for _ in range(rng.randint(1, 2))
            ]
            span = translation_span(basis)
            combos = list(basis)
            for _ in range(4):
                c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
                v = (0, 0)
                for b, c in zip(basis, (c1, c2)):
                    v = (v[0] + c * b[0], v[1] + c * b[1])
                combos.append(v)
            rng.shuffle(combos)
            assert translation_span(combos) == span
            assert len(span) == _minors(basis)[0]

    def test_membership_and_span(self):
        # the span holds the lattice's saturation, not only the lattice
        span = translation_span([(2, 1), (0, 3)])
        assert span == PLANE and in_span(span, (1, 0)) and in_span(span, (5, -7))
        line = translation_span([(2, 4)])
        assert in_span(line, (1, 2)) and not _lattice_member([(2, 4)], (1, 2))
        assert in_span(line, (-3, -6))
        assert not in_span(line, (1, 0))

    def test_generators_are_members(self):
        rng = random.Random(31)
        for _ in range(200):
            vecs = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(0, 4))]
            span = translation_span(vecs)
            for v in vecs:
                assert in_span(span, v)

    def test_join(self):
        a = translation_span([(2, 0)])
        b = translation_span([(0, 2)])
        assert translation_span(a + b) == PLANE
        assert translation_span(a + translation_span([(-3, 0)])) == ((1, 0),)

    def test_rational_span_is_saturation(self):
        # An integer vector lies in the saturation of a lattice (some
        # nonzero multiple is in the lattice) exactly when it lies in the
        # rational span: the k = 2 closure reads the span for the
        # saturation.  The index of these lattices divides 50!.
        rng = random.Random(32)
        big = factorial(50)
        for _ in range(200):
            vecs = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))]
            span = translation_span(vecs)
            for _ in range(5):
                v = (rng.randint(-6, 6), rng.randint(-6, 6))
                assert in_span(span, v) == _lattice_member(vecs, (big * v[0], big * v[1]))
                gamma = GroupElement(v[0], v[1], 0)
                d = classify_subgroup(CTX[2], [GroupElement(x, y, 0) for x, y in vecs])
                assert in_closure(CTX[2], gamma, d) == in_span(span, v)


class TestSubgroups:
    def test_classification_examples(self):
        d = classify_subgroup(CTX[2], [T1])
        assert d.kind == TRANSLATION_ONLY and d.span == ((1, 0),)
        d = classify_subgroup(CTX[2], [GroupElement(0, 0, 1), GroupElement(1, 0, 1)])
        assert d.kind == MIXED and d.span == ((1, 0),)
        d = classify_subgroup(CTX[3], [GroupElement(0, 0, 1), GroupElement(1, 0, 1)])
        assert d.kind == MIXED and d.span == PLANE
        assert classify_subgroup(CTX[6], [IDENTITY]).kind == TRIVIAL
        d = classify_subgroup(CTX[4], [GroupElement(0, 0, 1), GroupElement(0, 0, 2)])
        assert d.kind == CYCLIC_ROTATION
        assert rotation_center(CTX[4], d.rotation_witness) == (F(0), F(0))

    def test_invariant_tables(self):
        cases = {
            TRIVIAL: (2, 3),
            CYCLIC_ROTATION: (0, 1),
            TRANSLATION_ONLY: (2, 2),
            MIXED: (0, 0),
        }
        gens = {
            TRIVIAL: [],
            CYCLIC_ROTATION: [ROT],
            TRANSLATION_ONLY: [T1],
            MIXED: [ROT, T1],
        }
        for kind, (t, cent) in cases.items():
            d = classify_subgroup(CTX[3], gens[kind])
            assert d.kind == kind
            assert invariant_t(d) == t
            assert cent_of(d) == cent

    def test_rep_examples(self):
        line1, line2 = classify_subgroup(CTX[2], [T1]), classify_subgroup(CTX[2], [GroupElement(2, 2, 0)])
        assert join_rep(CTX[2], [line1]) == 2
        assert join_rep(CTX[2], [line1, line1]) == 2
        assert join_rep(CTX[2], [line1, line2]) == 4
        assert join_rep(CTX[2], []) == 0
        mixed = classify_subgroup(CTX[3], [ROT, T1])
        assert mixed.span == PLANE and join_rep(CTX[3], [mixed]) == 2
        cyclic = classify_subgroup(CTX[6], [ROT])
        assert join_rep(CTX[6], [cyclic]) == 0 and join_rep(CTX[6], [cyclic, mixed]) == 2
        assert join_rep(CTX[4], [classify_subgroup(CTX[4], [])]) == 0

    def test_in_closure_examples(self):
        d = classify_subgroup(CTX[3], [ROT])
        assert in_closure(CTX[3], GroupElement(0, 0, 2), d)
        assert not in_closure(CTX[3], GroupElement(1, 0, 1), d)
        d = classify_subgroup(CTX[2], [GroupElement(2, 0, 0)])
        assert in_closure(CTX[2], T1, d)
        d = classify_subgroup(CTX[2], [T1])
        assert not in_closure(CTX[2], T2, d)
        d = classify_subgroup(CTX[4], [T1, ROT])
        assert in_closure(CTX[4], GroupElement(5, -3, 2), d)

    def test_closure_monotone(self):
        rng = random.Random(13)
        for k, ctx in CTX.items():
            for _ in range(150):
                gens = random_generators(ctx, rng, max_gens=4)
                sub = [g for g in gens if rng.random() < 0.6]
                d_small = classify_subgroup(ctx, sub)
                d_big = classify_subgroup(ctx, gens)
                probes = gens + [random_element(ctx, rng) for _ in range(3)]
                for x in probes:
                    if in_closure(ctx, x, d_small):
                        assert in_closure(ctx, x, d_big)

    def test_closure_contains_generators(self):
        rng = random.Random(14)
        for k, ctx in CTX.items():
            for _ in range(150):
                gens = random_generators(ctx, rng, max_gens=4)
                d = classify_subgroup(ctx, gens)
                for g in gens:
                    assert in_closure(ctx, g, d)
                # products of two generators stay in the subgroup, hence in cl
                for a, b in combinations(gens, 2):
                    assert in_closure(ctx, ctx.compose(a, b), d)

    def test_closure_conjugation_invariance_for_translations(self):
        rng = random.Random(15)
        for k, ctx in CTX.items():
            for _ in range(150):
                gens = [random_translation(ctx, rng) for _ in range(rng.randint(1, 3))]
                gamma = random_element(ctx, rng)
                conj = [ctx.conjugate(gamma, t) for t in gens]
                d1 = classify_subgroup(ctx, gens)
                d2 = classify_subgroup(ctx, conj)
                for _ in range(6):
                    x = random_element(ctx, rng)
                    assert in_closure(ctx, x, d1) == in_closure(ctx, x, d2)


class TestGroupMatroid:
    def test_g1_examples(self):
        r3 = ROT
        a = IndexedSubset(2, ((r3, 1), (r3, 2)))
        assert g1_rank(CTX[3], a) == 2
        assert is_independent(CTX[3], a) and not is_tight(CTX[3], a)
        assert g1_rank(CTX[3], IndexedSubset(3, ())) == 0
        a = IndexedSubset(1, ((T1, 1), (T2, 1), (ROT, 1)))
        assert g1_rank(CTX[2], a) == 3 and is_tight(CTX[2], a)

    def test_duplicates_are_dependent(self):
        r3 = ROT
        a = IndexedSubset(2, ((r3, 1), (r3, 1)))
        assert not is_independent(CTX[3], a)

    def test_part_index_validation(self):
        with pytest.raises(ValueError):
            IndexedSubset(2, ((IDENTITY, 0),))
        with pytest.raises(ValueError):
            IndexedSubset(2, ((IDENTITY, 3),))

    def test_spanning_formula_matches_definition(self):
        # spanning <=> contains a tight subset on the same nonempty parts
        rng = random.Random(23)
        for k in (2, 3):
            ctx = CTX[k]
            for _ in range(150):
                n = rng.randint(1, 3)
                a = random_indexed_subset(ctx, rng, n, rng.randint(0, 6))
                elems = list(a.elements)
                found = False
                for size in range(len(elems) + 1):
                    for chosen in combinations(range(len(elems)), size):
                        b = IndexedSubset(n, tuple(elems[i] for i in chosen))
                        if is_tight(ctx, b) and b.c() == a.c():
                            found = True
                            break
                    if found:
                        break
                assert found == is_spanning(ctx, a), (k, a)

    def test_conjugation_preserves_independence(self):
        rng = random.Random(24)
        for k, ctx in CTX.items():
            done = 0
            while done < 40:
                n = rng.randint(2, 4)
                tight = random_tight_set(ctx, rng, n)
                assert tight is not None
                sub = IndexedSubset(n, tuple(e for e in tight.elements if rng.random() < 0.7))
                done += 1
                gammas = [random_element(ctx, rng) for _ in sub.nonempty_parts()]
                assert is_independent(ctx, conjugate_subset(ctx, sub, gammas))

    def test_separation_and_fuse(self):
        ctx = CTX[3]
        r3 = ROT
        tight = IndexedSubset(3, ((r3, 1), (GroupElement(1, 0, 1), 1), (r3, 2)))
        assert is_tight(ctx, tight)
        sep = separate_subset(tight, 1, 3, [GroupElement(1, 0, 1)])
        assert is_independent(ctx, sep) and sep.c() == 3
        assert separate_subset(tight, 1, 3, []) == tight
        fused = fuse_subset(tight, 1, 2)
        assert fused.c() == 1 and is_spanning(ctx, fused)
        with pytest.raises(ValueError, match="invalid transform"):
            fuse_subset(tight, 1, 3)
        with pytest.raises(ValueError, match="invalid transform"):
            separate_subset(tight, 1, 2, [r3])
        with pytest.raises(ValueError, match="invalid transform"):
            conjugate_subset(ctx, tight, [IDENTITY])

    def test_rep_dim_even_and_t_even(self):
        rng = random.Random(6)
        for k, ctx in CTX.items():
            for _ in range(100):
                d = classify_subgroup(ctx, random_generators(ctx, rng))
                assert rep_dim(d) % 2 == 0
                assert invariant_t(d) in (0, 2)


class TestRelationsSuite:
    @pytest.mark.parametrize(
        "wrong_rep",
        [
            # the k = 3, 4, 6 rule applied to k = 2 as well
            lambda d: 2 if d.kind == TRANSLATION_ONLY else rep_dim(d),
            lambda d: rep_dim(d) + 2 if d.kind == TRANSLATION_ONLY else rep_dim(d),
        ],
        ids=["k2-uses-other-k-rule", "off-by-two"],
    )
    def test_wrong_rep_fails_check_b(self, monkeypatch, wrong_rep):
        monkeypatch.setattr(selftest, "rep_dim", wrong_rep)
        result = selftest.suite_group_relations(200, 7)
        assert not result.passed
        assert any("(B)" in failure for failure in result.failures)
