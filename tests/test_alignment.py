"""Three-session interference alignment: categories, precoders, decoding."""

import dataclasses
import random
import re

import pytest

from netcode.alignment import (
    CharacteristicDividesBlock,
    MinCutViolation,
    NotFound,
    SingularBlock,
    UnsupportedPattern,
    align_search,
    build_instance,
    build_tv,
    check_alignment,
    check_tv,
    detect_category,
    encode_decode,
    tv_assignment_from_alignment,
)
from netcode.galois import FieldElement, FqMatrix, build_field
from netcode.netmodel import (
    Edge,
    LekAssignment,
    NetworkSpec,
    Sink,
    Source,
    WindowUnderspecified,
    random_leks,
    transfer_matrix,
)
from netcode.transform import build_circulant
from tests.conftest import CATEGORY_LENGTHS, cat_net

GF8 = build_field(2, 3)


def full_lengths(value=1):
    return {(i, j): value for i in (1, 2, 3) for j in (1, 2, 3)}


def rand_syms(spec, rng, k):
    return [FieldElement(spec, rng.randrange(spec.q)) for _ in range(k)]


# ----------------------------------------------------------------------
# category detection
# ----------------------------------------------------------------------


def test_detect_category_identity_labelings():
    assert detect_category(cat_net(full_lengths())) == ("full", (0, 1, 2))
    for name, lengths in CATEGORY_LENGTHS.items():
        assert detect_category(cat_net(lengths)) == (name, (0, 1, 2))


def test_detect_category_relabeled():
    # drop the 1 -> 2 cross path instead of 2 -> 1: still category 1,
    # recovered through the session permutation
    lengths = full_lengths()
    del lengths[(1, 2)]
    cat, perm = detect_category(cat_net(lengths))
    assert cat == "cat1"
    assert perm == (1, 0, 2)


def test_detect_category_unsupported():
    lengths = full_lengths()
    del lengths[(2, 1)]
    del lengths[(3, 2)]
    with pytest.raises(UnsupportedPattern):
        detect_category(cat_net(lengths))


def test_detect_category_min_cut_gate():
    lengths = full_lengths()
    del lengths[(2, 2)]  # dead diagonal
    with pytest.raises(MinCutViolation):
        detect_category(cat_net(lengths))
    base = cat_net(full_lengths())
    doubled = NetworkSpec(
        base.nodes,
        list(base.edges) + [Edge("S1", "D1", 1, 1)],  # second disjoint route
        base.sources,
        base.sinks,
        base.connections,
    )
    with pytest.raises(MinCutViolation):
        detect_category(doubled)


def test_three_unicast_shape_enforced():
    net = NetworkSpec(
        ["S", "T"], [Edge("S", "T")], [Source("S", 1)], [Sink("T", 1)], [(0, 0, 0)]
    )
    with pytest.raises(ValueError):
        detect_category(net)


# ----------------------------------------------------------------------
# instance construction
# ----------------------------------------------------------------------


def test_block_length_avoids_characteristic():
    gf5 = build_field(5, 1)
    net = cat_net(full_lengths())
    leks = random_leks(net, gf5, "char", nonzero=True)
    with pytest.raises(CharacteristicDividesBlock):
        build_instance(net, leks, 2)  # N = 5 over GF(5)


def test_build_rejects_bad_arguments():
    net = cat_net(full_lengths())
    leks = random_leks(net, GF8, "args", nonzero=True)
    with pytest.raises(ValueError):
        build_instance(net, leks, 0)
    tv = random_leks(net, GF8, "args", mode="time", window=(0, 5), nonzero=True)
    with pytest.raises(ValueError):
        build_instance(net, tv, 3)


def test_singular_block_on_dead_diagonal_path():
    net = cat_net(full_lengths())
    leks = random_leks(net, GF8, "dead", nonzero=True)
    killed = dict(leks.alpha)
    killed[((0, 0), ("S1", "D1", 0))] = GF8.zero()
    broken = LekAssignment(GF8, "invariant", killed, leks.beta, leks.eps)
    with pytest.raises(SingularBlock):
        build_instance(net, broken, 3)


def test_witness_instance_structure(ex2, gf64):
    net, leks = ex2
    inst = build_instance(net, leks, 3)
    assert inst.category == "full" and inst.perm == (0, 1, 2)
    assert (inst.n, inst.N) == (3, 7)
    assert inst.field == gf64
    assert inst.T is not None and inst.R is not None and inst.S is not None
    # enough distinct ratios to span the precoder columns
    assert inst.distinct_ratios() >= 4
    assert inst.V1.shape == (7, 4)
    assert inst.V1.rank() == 4
    rep = check_alignment(inst)
    assert rep["identities_ok"]
    assert [c["rank"] for c in rep["conditions"]] == [7, 7, 7]
    assert rep["ok"]


def test_witness_decoding(ex2):
    net, leks = ex2
    inst = build_instance(net, leks, 3)
    rng = random.Random("decode")
    spec = inst.field
    for _ in range(5):
        x1 = rand_syms(spec, rng, 4)
        x2 = rand_syms(spec, rng, 3)
        x3 = rand_syms(spec, rng, 3)
        res = encode_decode(inst, x1, x2, x3)
        assert res.recovered == (x1, x2, x3)
    assert [(t.numerator, t.denominator) for t in res.throughputs] == [
        (4, 7), (3, 7), (3, 7)
    ]
    assert res.channel_uses == 7 + inst.plan.d_max
    with pytest.raises(ValueError):
        encode_decode(inst, x1[:3], x2, x3)


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------


def test_align_search_replayable(gf64):
    net = cat_net(CATEGORY_LENGTHS["cat3"])
    res = align_search(net, 3, gf64, seed="fx-cat3", budget=50)
    assert res.attempts == 1 and res.seed == "fx-cat3:0"
    assert res.report["ok"] and res.instance.category == "cat3"
    # the reported seed alone rebuilds the identical instance
    leks = random_leks(net, gf64, res.seed, nonzero=True)
    assert leks == res.leks
    inst = build_instance(net, leks, 3, seed=res.seed)
    assert inst.V1 == res.instance.V1 and inst.V2 == res.instance.V2
    assert check_alignment(inst)["ok"]


def test_align_search_surfaces_structural_errors(gf64):
    lengths = full_lengths()
    del lengths[(2, 1)]
    del lengths[(3, 2)]
    with pytest.raises(UnsupportedPattern):
        align_search(cat_net(lengths), 3, gf64, budget=50)


def test_degenerate_delay_free_network_never_aligns(gf64):
    # every path has length 1, so all nine blocks are constants: the
    # eigenvalue ratios collapse and V1 loses rank at every draw
    net = cat_net(full_lengths())
    leks = random_leks(net, gf64, "flat", nonzero=True)
    inst = build_instance(net, leks, 3)
    assert inst.distinct_ratios() == 1
    assert inst.V1.rank() == 1
    assert not check_alignment(inst)["ok"]
    with pytest.raises(NotFound):
        align_search(net, 3, gf64, seed="flat", budget=5)


def test_all_four_categories_align_and_decode(gf64):
    rng = random.Random("cats")
    for k, (name, lengths) in enumerate(CATEGORY_LENGTHS.items(), start=1):
        net = cat_net(lengths)
        res = align_search(net, 3, gf64, seed=f"fx-{name}", budget=50)
        assert res.instance.category == name
        assert res.attempts == 1
        n, N = 3, 7
        x1 = rand_syms(gf64, rng, n + 1)
        x2 = rand_syms(gf64, rng, n)
        x3 = rand_syms(gf64, rng, N if name == "cat4" else n)
        out = encode_decode(res.instance, x1, x2, x3)
        assert out.recovered == (x1, x2, x3)
        if name == "cat4":
            assert out.throughputs[2] == 1


# ----------------------------------------------------------------------
# time-varying layer
# ----------------------------------------------------------------------


def test_tv_stacks_equal_realized_circulants(ex2):
    net, leks = ex2
    tv = build_tv(net, leks, 3)
    assert (tv.d_prime_min, tv.d_max) == (3, 2)
    tr = transfer_matrix(net, leks)
    for i in range(3):
        for j in range(3):
            want = build_circulant(tr.block(i, j), tv.N).realized
            assert tv.M[i][j] == want


def test_tv_band_structure(ex2):
    net, leks = ex2
    tv = build_tv(net, leks, 3)
    for i in range(3):
        for j in range(3):
            for r in range(tv.N):
                for c in range(tv.N):
                    if (c - r) % tv.N > tv.d_max:
                        assert tv.M[i][j].rows[r][c] == 0


def test_tv_reduction_from_invariant_witness(ex2):
    net, leks = ex2
    inst = build_instance(net, leks, 3)
    tv = build_tv(net, leks, 3)
    theta, A, B, C = tv_assignment_from_alignment(tv, inst)
    rep = check_tv(tv, theta, A, B, C)
    assert rep["g_zero"] and rep["g_violations"] == []
    assert rep["sink2_span"] and rep["sink3_span"]
    assert all(c["ok"] for c in rep["conditions"])
    assert rep["ok"]


def test_check_tv_names_first_singular_stack(ex2):
    net, leks = ex2
    tv = build_tv(net, leks, 3)
    theta, A, B, C = tv_assignment_from_alignment(tv, build_instance(net, leks, 3))
    zero = FqMatrix.zeros(tv.field, tv.N, tv.N)
    # (2,2), (2,1) and (3,3) are only rank-checked; the others are inverted
    for stacks, first in (
        (((1, 1), (1, 2)), "(2,2)"),
        (((2, 2),), "(3,3)"),
        (((1, 0), (0, 1)), "(1,2)"),
        (((2, 1), (1, 0)), "(2,1)"),
    ):
        M = [list(row) for row in tv.M]
        for i, j in stacks:
            M[i][j] = zero
        bad = dataclasses.replace(tv, M=tuple(tuple(row) for row in M))
        with pytest.raises(SingularBlock, match=re.escape(f"stack {first} is singular")):
            check_tv(bad, theta, A, B, C)


def test_tv_window_must_cover_run(ex2, gf64):
    net, _ = ex2
    short = random_leks(net, gf64, "win", mode="time", window=(0, 9), nonzero=True)
    with pytest.raises(WindowUnderspecified):
        build_tv(net, short, 3)  # needs labels -2 .. 9


def test_tv_single_step_mutation_breaks_alignment(ex2, gf64):
    net, leks = ex2
    inst = build_instance(net, leks, 3)
    tv_const = build_tv(net, leks, 3)
    theta, A, B, C = tv_assignment_from_alignment(tv_const, inst)
    # constant steps over the label window, then one kernel nudged at
    # label 1 (mid-run, so the change lands inside the kept outputs)
    steps = [(leks.alpha, leks.beta, leks.eps) for _ in range(-2, 10)]
    tweaked = dict(leks.beta)
    key = (("B", "C", 0), ("C", "E1", 0))
    tweaked[key] = tweaked[key] + gf64.element([0, 1])
    steps[3] = (leks.alpha, tweaked, leks.eps)
    mutated = LekAssignment(gf64, "time", t0=-2, steps=tuple(steps))
    tv_mut = build_tv(net, mutated, 3)
    assert tv_mut.M != tv_const.M
    rep = check_tv(tv_mut, theta, A, B, C)
    assert not rep["g_zero"]
    assert not rep["ok"]
