"""Three-session interference alignment: categories, precoders, decoding."""

import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from netcode import alignment, cli, netmodel, transform
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
from netcode.galois import FieldElement, FqMatrix, NetcodeError, build_field
from netcode.netmodel import (
    Edge,
    LekAssignment,
    NetworkSpec,
    Sink,
    Source,
    WindowUnderspecified,
    normalize_delays,
    random_leks,
    transfer_matrix,
)
from tests.conftest import CATEGORY_LENGTHS, cat_net
from tests.oracles import build_circulant, category_of_zeros

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


def test_detect_category_refuses_a_shared_source_sink_node():
    # sink 2 sits on source 1's node: cross pairs are only tested for a
    # path, yet the pair is refused as min_cut refuses it
    base = cat_net(full_lengths())
    sinks = (base.sinks[0], Sink("S1", 1), base.sinks[2])
    net = NetworkSpec(base.nodes, base.edges, base.sources, sinks, base.connections)
    with pytest.raises(ValueError, match="source and sink share a node"):
        detect_category(net)
    with pytest.raises(ValueError, match="source and sink share a node"):
        align_search(net, 3, GF8)


def _pairwise_category(net):
    """detect_category by one min-cut per (source, sink) pair: a cross pair
    tested for a path, a diagonal one cut in full. A refusal reads as its
    type and message."""
    try:
        alignment._check_three_unicast(net)
        cut = netmodel._cutter(net)
        cuts = [[cut(i, j, None if i == j else 1) for j in range(3)] for i in range(3)]
        for i in range(3):
            if cuts[i][i] != 1:
                raise MinCutViolation(
                    f"session {i + 1} needs min-cut exactly 1, found {cuts[i][i]}"
                )
        return category_of_zeros(
            {(i, j) for i in range(3) for j in range(3) if i != j and not cuts[i][j]}
        )
    except (ValueError, NetcodeError) as exc:
        return type(exc), str(exc)


def _detected(net):
    try:
        return detect_category(net)
    except (ValueError, NetcodeError) as exc:
        return type(exc), str(exc)


def test_detect_category_reads_the_search_for_every_zero_pattern():
    """Each of the 64 sets of zero cross pairs, on one direct path per
    other pair: detect_category gives the first (category, perm) the
    search finds, for the 18 sets some category matches, and the search's
    refusal for the other 46."""
    cross = [(i, j) for i in range(3) for j in range(3) if i != j]
    matched = 0
    for mask in range(64):
        zero = {pair for k, pair in enumerate(cross) if mask >> k & 1}
        net = cat_net({(i + 1, j + 1): 1 for i in range(3) for j in range(3) if (i, j) not in zero})
        try:
            want = category_of_zeros(zero)
            matched += 1
        except UnsupportedPattern as exc:
            want = UnsupportedPattern, str(exc)
        assert _detected(net) == want, sorted(zero)
    assert matched == len(alignment._ZERO_PATTERNS) == 18


def _random_three_unicast(rng):
    """Three single-process sources and sinks joined by a path of 1-3 hops
    per diagonal pair and about half the cross pairs, plus a few extra
    edges from lower to higher path depth, which may add routes, parallel
    ones too; now and then a sink sits on a source's node."""
    sources, sinks = ["S1", "S2", "S3"], ["D1", "D2", "D3"]
    if rng.random() < 0.05:
        sinks[rng.randrange(3)] = rng.choice(sources)
    depth = dict.fromkeys(sinks, 9)
    depth.update(dict.fromkeys(sources, 0))
    edges = []
    for i in range(3):
        for j in range(3):
            if (i == j or rng.random() < 0.5) and sources[i] != sinks[j]:
                hops = [sources[i]] + [f"P{i}{j}_{h}" for h in range(rng.randrange(3))]
                hops.append(sinks[j])
                depth.update((v, h) for h, v in enumerate(hops[1:-1], 1))
                edges += [Edge(a, b, 0, 1) for a, b in zip(hops, hops[1:])]
    nodes = list(depth)
    for k in range(rng.randrange(5)):
        a, b = rng.sample(nodes, 2)
        if depth[a] < depth[b]:
            edges.append(Edge(a, b, k + 1, 1))
    return NetworkSpec(nodes, edges, [Source(s, 1) for s in sources], [Sink(d, 1) for d in sinks])


def test_detect_category_matches_pairwise_cuts():
    # one walk per source for the cross pairs and a cut limited to 2 per
    # diagonal pair give the pairwise rule's category, perm and refusals
    rng = random.Random("detect-pairwise")
    seen = set()
    for _ in range(400):
        net = _random_three_unicast(rng)
        want = _pairwise_category(net)
        assert _detected(net) == want, net
        seen.add(want[0])
    assert {MinCutViolation, UnsupportedPattern, ValueError, *alignment._CATEGORY_PATTERNS} <= seen
    for lengths in [full_lengths(), *CATEGORY_LENGTHS.values()]:
        for perm in alignment._PERMUTATIONS:
            relabeled = {(perm[i - 1] + 1, perm[j - 1] + 1): l for (i, j), l in lengths.items()}
            net = cat_net(relabeled)
            assert _detected(net) == _pairwise_category(net)
            assert _detected(net)[0] == _detected(cat_net(lengths))[0]


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


def test_build_tv_window_too_long_to_allocate(ex2):
    # every path leaves a source, so d_max stays small and the channel
    # memory check passes; the window of ~10^15 steps cannot be allocated,
    # and one of ~2^63 steps does not even fit an index
    net, leks = ex2
    sources = {s.node for s in net.sources}
    for delay, want in [
        (10**15, "longest path delay 1000000000000004 needs a window of 1000000000000011 "),
        (2**63, "longest path delay 9223372036854775812 needs a window of "
                "9223372036854775819 "),
    ]:
        edges = [dataclasses.replace(e, delay=delay) if e.tail in sources else e
                 for e in net.edges]
        with pytest.raises(ValueError) as exc:
            build_tv(dataclasses.replace(net, edges=edges), leks, 3)
        assert str(exc.value) == want + "steps, too many to allocate"


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
    assert len(set(inst.T)) >= 4
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


def test_encode_decode_refuses_symbols_of_another_field(ex2):
    # GF(2^5) symbols were read as GF(2^6) codes and "recovered" as those
    net, leks = ex2
    inst = build_instance(net, leks, 3)
    rng = random.Random("foreign")
    xs = [rand_syms(inst.field, rng, k) for k in (4, 3, 3)]
    for k in range(3):
        edited = [x[:] for x in xs]
        edited[k][-1] = FieldElement(build_field(2, 5), 7)
        with pytest.raises(ValueError, match="^input symbol from a different field$"):
            encode_decode(inst, *edited)
    assert encode_decode(inst, *xs).recovered == tuple(xs)
    # so are codes outside [0, q): one past q once raised IndexError in the
    # precoding product, and -1 over GF(2^6) decoded to 63 with no error.
    # N = 9 runs in byte lanes, GF(3^5) at N = 11 in code lists
    for p, m, n in [(2, 6, 4), (3, 5, 5)]:
        spec = build_field(p, m)
        inst = align_search(net, n, spec).instance
        assert spec._kernel(inst.N) is spec._poly
        xs = [rand_syms(spec, rng, v.ncols) for v in (inst.V1, inst.V2, inst.V3)]
        for code in (spec.q, spec.q + 35, 10**6, -1):  # 64 and 99 in GF(2^6)
            for k in range(3):
                edited = [x[:] for x in xs]
                edited[k][0] = FieldElement(spec, code)
                message = f"session {k + 1}: input code {code} is not a code of {spec}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    encode_decode(inst, *edited)
        assert encode_decode(inst, *xs).recovered == tuple(xs)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 4), (2, 6), (2, 8), (2, 16), (3, 10), (2, 20)])
def test_rand_matrix_is_the_randrange_stream(p, m):
    # the precoders are drawn as randrange(q) would draw them, leaving the
    # generator in the same state, so every seeded instance keeps its bytes
    spec = build_field(p, m)
    for seed in ("a", "b", 7):
        rng, ref = random.Random(seed), random.Random(seed)
        for rows, cols in [(1, 1), (9, 5), (85, 43)]:
            got = alignment._rand_matrix(spec, rng, rows, cols)
            want = [[ref.randrange(spec.q) for _ in range(cols)] for _ in range(rows)]
            assert got.rows == want
            assert rng.getstate() == ref.getstate()


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


def test_align_search_detects_the_category_once(monkeypatch, ex2, gf64):
    # one detection of the searched network per search, however many
    # attempts it makes
    calls = []
    plain = alignment.detect_category

    def counted(net):
        calls.append(net)
        return plain(net)

    monkeypatch.setattr(alignment, "detect_category", counted)
    net = ex2[0]
    assert align_search(net, 4, gf64).attempts == 1
    assert len(calls) == 1 and calls[0] is net
    calls.clear()
    assert align_search(net, 4, gf64, seed="11").attempts == 3
    assert len(calls) == 1 and calls[0] is net


def test_replaced_network_keeps_its_own_memos(ex2):
    # README's slow-link copy: dataclasses.replace makes a new object, whose
    # path delays, kernel positions and transfer are its own
    net, leks = ex2
    assert net._path_extremes == (3, 5)
    before = transfer_matrix(net, leks)
    slow = dataclasses.replace(net, edges=[
        dataclasses.replace(e, delay=3) if e.tail == "C" else e for e in net.edges
    ])
    fresh = NetworkSpec(slow.nodes, slow.edges, slow.sources, slow.sinks, slow.connections)
    assert not {"_edge_order", "_path_extremes", "_admissible_positions"} & set(vars(slow))
    assert slow._path_extremes == fresh._path_extremes == (3, 7)
    assert slow._admissible_positions == fresh._admissible_positions
    assert transfer_matrix(slow, leks) == transfer_matrix(fresh, leks) != before
    assert net._path_extremes == (3, 5) and transfer_matrix(net, leks) == before


def test_exhausting_search_computes_the_network_memos_once(monkeypatch, ex2, gf64):
    # N = 63 = q - 1: every nonzero element is an eigenvalue point, and
    # every one of the 25 draws has a singular block
    calls = []
    for name in ("_path_extremes", "_admissible_positions"):
        prop = vars(NetworkSpec)[name]

        def counted(net, plain=prop.func, name=name):
            calls.append((name, net))
            return plain(net)

        monkeypatch.setattr(prop, "func", counted)
    net = dataclasses.replace(ex2[0])  # a fresh object, with no memos yet
    with pytest.raises(NotFound, match="^no passing assignment in 25 attempts"):
        align_search(net, 31, gf64, budget=25)
    assert sorted(name for name, _ in calls) == ["_admissible_positions", "_path_extremes"]
    assert all(seen is net for _, seen in calls)


def _count_validate(monkeypatch) -> list:
    """Count validate calls, wherever a netcode module holds the name."""
    calls = []
    plain = netmodel.validate

    def counted(net):
        calls.append(net)
        return plain(net)

    for mod in (netmodel, alignment, transform, cli):
        for key, val in list(vars(mod).items()):
            if val is plain:
                monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [["--n", "4"], ["--n", "4", "--seed", "11"], ["--verify-only"]],
    ids=["search", "three-attempts", "verify-only"],
)
def test_align_job_validates_once(monkeypatch, capsys, argv):
    calls = _count_validate(monkeypatch)
    assert cli.run(["align", "example2", *argv]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["decode_exact"] and rep.get("attempts", 1) == (3 if "11" in argv else 1)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_build_tv_validates_once(monkeypatch, ex2, mode):
    # a fresh object: the fixture's network has validated already
    net, leks = dataclasses.replace(ex2[0]), ex2[1]
    if mode == "time":
        leks = random_leks(net, leks.field, "tv", mode="time", window=(-4, 12), nonzero=True)
    calls = _count_validate(monkeypatch)
    build_tv(net, leks, 3)
    build_tv(net, leks, 3)
    assert len(calls) == 1 and calls[0] is net


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
    assert len(set(inst.T)) == 1
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


def test_cat1_half_rate_at_n_257_in_gf2_16():
    """The paper's rates (n+1)/(2n+1) and n/(2n+1) at n = 128, decoded
    exactly; the N = 257 rows run in packed 16-bit lanes."""
    spec = build_field(2, 16)
    res = align_search(cat_net(CATEGORY_LENGTHS["cat1"]), 128, spec, seed="half-rate", budget=3)
    assert res.report["ok"] and res.instance.N == 257
    rng = random.Random("half-rate")
    xs = [rand_syms(spec, rng, k) for k in (129, 128, 128)]
    out = encode_decode(res.instance, *xs)
    assert out.recovered == tuple(xs)
    assert out.throughputs == (Fraction(129, 257), Fraction(128, 257), Fraction(128, 257))


def test_cat1_at_n_121_in_gf3_5():
    """n = 60 in GF(3^5), decoded exactly: N = 121 divides 3^5 - 1, and the
    N-wide rows run in packed digit lanes, 16 bits a lane."""
    spec = build_field(3, 5)
    res = align_search(cat_net(CATEGORY_LENGTHS["cat1"]), 60, spec, seed="gf3-5", budget=3)
    assert res.report["ok"] and res.instance.N == 121
    rng = random.Random("gf3-5")
    xs = [rand_syms(spec, rng, k) for k in (61, 60, 60)]
    out = encode_decode(res.instance, *xs)
    assert out.recovered == tuple(xs)
    assert out.throughputs == (Fraction(61, 121), Fraction(60, 121), Fraction(60, 121))


def instance_digest(inst):
    doc = [None if M is None else M.rows for M in (inst.V1, inst.V2, inst.V3, inst.A, inst.B)]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


# sha256 of the precoders and free matrices of the first passing attempt:
# N = 17 and 9 run in byte lanes, N = 5 in the log domain
INSTANCE_DIGESTS = {
    ("cat1", 8, 8): "0e68b9e7eec3e521e36cf4109d6c60eebc019799dd5529c4d899dcfa863a9c5f",
    ("cat1", 8, 2): "0ed621e819c8fb3942f6607dc6d4499200295af4fd1dacbed0a8204fbc7dda11",
    ("cat1", 6, 4): "60386ed63d49b7611ec72eb1ad84f1a175621df06dfcf237557ef92b16e3d336",
    ("cat2", 8, 8): "55bd3c314f7efe4294ab98f2038057b1e2e18527cea8ca266544cad52a1c10cc",
    ("cat2", 8, 2): "32ed533dc63c3d5a9f0f08b9c33382d36ec5a0bf4e89d6f5d9f7c7feda57b291",
    ("cat2", 6, 4): "150f0cc0098dd66d3f255d68a03cbd22b30d7e1ce8b99b13e81c5818cd43ed17",
    ("cat3", 8, 8): "d59852236e44e273a6b1b37da0b2a586e2ed8308d6e036ffdc423c1de03f871d",
    ("cat3", 8, 2): "155080fad1ebead9a8cb6021026bb2105c9815e5f352407072aa2be54f9ecfb8",
    ("cat3", 6, 4): "d864712ee5b76a293562d9f2ab4ba84615a81f9580bf96eb7a955dea24686d29",
    ("cat4", 8, 8): "122896655532d863259889add3a2783ecd0c295c5057e00614add0cde26789fd",
    ("cat4", 8, 2): "2e6e52a33339e7b503de2b9f2054031100d1bd51a8c2e17f369563806cd3fd84",
    ("cat4", 6, 4): "9929d3e1205db37ccd076e3fad5efc99cde675810b1e4884195190e4ee2b2054",
}


@pytest.mark.parametrize("name, m, n", INSTANCE_DIGESTS)
def test_category_instance_digests(name, m, n):
    spec = build_field(2, m)
    res = align_search(cat_net(CATEGORY_LENGTHS[name]), n, spec)
    assert (res.attempts, res.instance.category) == (1, name)
    assert instance_digest(res.instance) == INSTANCE_DIGESTS[name, m, n]
    rng = random.Random(f"digest:{name}")
    xs = [rand_syms(spec, rng, V.ncols) for V in (res.instance.V1, res.instance.V2, res.instance.V3)]
    assert encode_decode(res.instance, *xs).recovered == tuple(xs)


def whole_instance_digest(inst):
    doc = [inst.mhat, inst.T, inst.R, inst.S] + [
        None if M is None else M.rows for M in (inst.V1, inst.V2, inst.V3, inst.A, inst.B)
    ]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


# sha256 of every field the precoders come from (mhat, T, R, S) and of the
# precoders and free matrices, for the first passing attempt; "full" is
# example2's network with kernels drawn in the field
WHOLE_INSTANCE_DIGESTS = {
    ("full", 8, 8): "b59ca9f636fcefd846e85e663c274f981d3382ebae81b57059910bb4d89aee62",
    ("full", 8, 2): "99d90e8236f165994157769367d2bb721f5413af9ab613483e2c51413828f8ce",
    ("full", 6, 4): "364a80879240d2d00f273140a3f6d2065bef0a0bb0cc2b677062529641828452",
    ("cat1", 8, 8): "ee8c95d1a26caf927d39a48834e0fa398b21c038894f352dfcfc06e081919e38",
    ("cat1", 8, 2): "8b5b83640366ad050075fdeaaf856f6a77f418c2b2c9cc81e63bc3de0e196a9e",
    ("cat1", 6, 4): "7eb262dc4231456cafb5b89c3f1b3c43a2644a83b91c4b8fffdb2a23ca799476",
    ("cat2", 8, 8): "176b89ea0c9bf38cf18fa3f5032c05abbd6a01414774b783347ae3f0c1813395",
    ("cat2", 8, 2): "cb1a8222de6f4e2a6b6ba18c15777f4ff0f15583f3a19c6ec0fd4f150b17f93d",
    ("cat2", 6, 4): "6cd3a65ae7064f448fe2dfdfea4fcf921f02bdcb37eb09a912e9dcd1043bd0ad",
    ("cat3", 8, 8): "d304d1a3ae287a543fb9ba3b12659a8ff8be761c87923b0b7587379ea70ab7d5",
    ("cat3", 8, 2): "e0598d0509a31468adbce049f3f745ba95d8087a6f98a9863237aff5e413eef1",
    ("cat3", 6, 4): "5940cc975541c6498b4580d65cd81204e307ea53cb3eac13fd888242188b60c1",
    ("cat4", 8, 8): "476768443b57b9dd1875f0e629725831378edff15a0309f0c143a39addea4cf6",
    ("cat4", 8, 2): "8e7540a1361cfe3fd9925efc769bf91d1e93847b9f5e37550452006b479a1aa8",
    ("cat4", 6, 4): "4842b8670a4d8fc9f45230115cdb67c9a1c822a99130377e2ad0f8c74fbebba1",
}


@pytest.mark.parametrize("name, m, n", WHOLE_INSTANCE_DIGESTS)
def test_whole_instance_digests(ex2, name, m, n):
    net = ex2[0] if name == "full" else cat_net(CATEGORY_LENGTHS[name])
    res = align_search(net, n, build_field(2, m))
    inst = res.instance
    assert (res.attempts, inst.category) == (1, name)
    assert (inst.T is None, inst.R is None, inst.S is None) == ((name != "full",) * 3)
    assert (inst.A is None, inst.B is None) == (name not in ("cat1", "cat2"), name != "cat1")
    assert whole_instance_digest(inst) == WHOLE_INSTANCE_DIGESTS[name, m, n]


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


# ----------------------------------------------------------------------
# time-varying layer on delayed links
# ----------------------------------------------------------------------


def delayed_ex2(net, k):
    """example2 with every link delay drawn from 1..4 under seed k."""
    rng = random.Random(f"delays:{k}")
    edges = [dataclasses.replace(e, delay=rng.randint(1, 4)) for e in net.edges]
    return dataclasses.replace(net, edges=edges)


@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_tv_native_delays_match_chain_expansion(ex2, gf64, mode):
    # n = 6 (N = 13) exceeds the channel memory of every variant drawn
    # here, and the window covers every label any of them reads
    window = (-15, 45) if mode == "time" else None
    for k in range(12):
        net = delayed_ex2(ex2[0], k)
        assert not net.is_unit_delay()
        leks = random_leks(net, gf64, f"tv{k}", mode=mode, window=window, nonzero=True)
        native = build_tv(net, leks, 6)
        chained = build_tv(*normalize_delays(net, leks), 6)
        assert native.M == chained.M
        assert (native.d_max, native.d_prime_min) == (chained.d_max, chained.d_prime_min)


def test_check_tv_on_solved_delayed_networks(ex2, gf64):
    solved = 0
    for k in range(12):
        net = delayed_ex2(ex2[0], k)
        try:
            res = align_search(net, 10, gf64, seed="tv", budget=20)
        except NotFound:
            continue
        solved += 1
        tv = build_tv(net, res.leks, 10)
        assert check_tv(tv, *tv_assignment_from_alignment(tv, res.instance))["ok"]
    assert solved >= 6


@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_tv_compiles_kernels_once(ex2, gf64, monkeypatch, mode):
    # every compile starts in _compiled_columns, which compiles the
    # fixture's kernels as read and hands random ones to _compiled_kernels
    net, leks = ex2
    if mode == "time":
        leks = random_leks(net, gf64, "once", mode="time", window=(-4, 12), nonzero=True)
    compiled = []
    compile_triple = netmodel._compiled_columns

    def counting(net, triple):
        compiled.append(triple)
        return compile_triple(net, triple)

    monkeypatch.setattr(netmodel, "_compiled_columns", counting)
    tv = build_tv(net, leks, 3)
    if mode == "invariant":
        assert len(compiled) == 1
    else:  # one compile per label -d_max .. 2n + d_prime_min, in order
        labels = range(-tv.d_max, 2 * tv.n + tv.d_prime_min + 1)
        assert [id(t) for t in compiled] == [id(leks.kernels_at(t)) for t in labels]


def tv_digest(tv):
    doc = [tv.N, tv.d_max, tv.d_prime_min, [[m.rows for m in row] for row in tv.M]]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def test_tv_stack_digests(ex2):
    # sha256 of the stacks; any change to their bytes fails here
    net, leks = ex2
    timed = random_leks(net, leks.field, "golden", mode="time", window=(-2, 9), nonzero=True)
    assert [tv_digest(build_tv(net, leks, 3)), tv_digest(build_tv(net, leks, 4)),
            tv_digest(build_tv(net, timed, 3))] == [
        "520a4e7a78542e6291f9dbb5034a0f6c2b4807598f58edc975963c5dce8dfc0a",
        "06fa4ea4ad62e46ef1d72c092865d180367779c43804cd8f2861cf83d3ccd782",
        "58b8593b523ecd56617890ee6a249f71226dbf42032b76c422961d5ffdce31af",
    ]
