"""The codec tables and the one-call kernel reader against the loops they skip.

FieldSpec converts JSON coefficient lists by lookup in fields with codec
tables (q <= _CODEC_CAP) and item by item everywhere else; the oracle for
the lookup is a spec of the same field with its code table taken away,
which runs the loop, and the oracle for the per-code tuples and texts is
_digits. leks_from_dict checks a kernel document column by column and
converts all its values in one codes_from_json call; its oracle is a walk
that converts each value as it reaches it, one element() call per entry,
and the oracle for what the read kernels compile to on a network is
_compiled_kernels of the walk's mappings.
"""

import gc
import json
import random
import weakref

import pytest

from netcode import cli
from netcode.cli import load_fixture
from netcode.galois import (
    _CODEC_CAP,
    _FIELDS,
    FieldElement,
    FieldSpec,
    ParseError,
    Poly,
    _digits,
    _int,
    _list,
    build_field,
    spec_from_dict,
)
from netcode.netmodel import (
    LekAssignment,
    _Kept,
    _compiled_kernels,
    _edge_key,
    _terms,
    leks_from_dict,
    leks_to_dict,
    network_from_dict,
    random_leks,
    simulate,
    transfer_from_dict,
    transfer_matrix,
)
from tests.conftest import coeff_str, format_str, random_dag_net
from tests.oracles import transfer_to_dict

TABLED = [(2, 1), (2, 4), (2, 8), (3, 5), (2, 10)]


def _loop_spec(spec):
    """A spec of the same field without its code table, which converts item by item."""
    bare = FieldSpec(spec.p, spec.m, spec.modulus)
    bare._codec_cache.append(spec._codec()._replace(code_of=None))
    return bare


def _items(spec):
    """Every code's full-length item and every shorter item that holds it."""
    full = [_digits(c, spec.p, spec.m) for c in range(spec.q)]
    short = [d[:k] for d in full for k in range(spec.m) if not any(d[k:])]
    return full + short


def _refused(spec):
    """Values FieldSpec refuses, one of each kind."""
    m, p = spec.m, spec.p
    return [
        [True],
        [0, False],
        [1.0],
        [0] * (m - 1) + [0.0],
        [0] * (m + 1),
        [1] * (m + 1),
        [p],
        [-1],
        [0] * (m - 1) + [p + 3],
        ["1"],
        "01",
        [[1]],
        [[0] * m],
        5,
        None,
        (True,),
        (p,),
        (0,) * (m + 1),
        {1, 0},
    ]


def _message(spec, items, where=None, ints_only=False):
    with pytest.raises(ParseError) as exc:
        spec.codes_from_json(items, where, ints_only)
    return str(exc.value)


@pytest.mark.parametrize("pm", TABLED)
def test_tables_match_the_loop_on_every_code(pm):
    spec = build_field(*pm)
    loop = _loop_spec(spec)
    assert spec._codec().code_of is not None and loop._codec().code_of is None
    items = _items(spec)
    codes = spec.codes_from_json(items)
    assert codes == loop.codes_from_json(items)
    assert codes[: spec.q] == list(range(spec.q))
    # tuples are items too
    assert spec.codes_from_json(list(map(tuple, items))) == codes
    every = list(range(spec.q))
    digits = [_digits(c, spec.p, spec.m) for c in every]
    assert spec.codes_to_json(every) == digits
    # each code's coefficients as json writes them in a compact report
    assert list(map(spec._codec().text_of, every)) == [
        json.dumps(c, separators=(",", ":")) for c in digits
    ]
    assert [FieldElement(spec, c).coeffs for c in every] == list(map(tuple, digits))
    assert all(type(FieldElement(spec, c).coeffs) is tuple for c in (0, spec.q - 1))


@pytest.mark.parametrize("pm", TABLED)
def test_refusals_match_the_loop(pm):
    spec = build_field(*pm)
    loop = _loop_spec(spec)
    good = [[1], [0] * spec.m, [spec.p - 1] * spec.m]
    for bad in _refused(spec):
        for at in range(len(good) + 1):
            items = good[:at] + [bad] + good[at:] + [[spec.p]]
            expected = _message(loop, items, lambda k: f"v[{k}]")
            assert expected.startswith(f"v[{at}]: ")
            assert _message(spec, items, lambda k: f"v[{k}]") == expected
            assert _message(spec, items) == _message(loop, items)
            if not _holds_bool_or_float(bad):
                # what a literal-free JSON text can hold: the lookup alone refuses it
                assert _message(spec, items, lambda k: f"v[{k}]", True) == expected
        assert _message(spec, [bad]) == _message(loop, [bad])


def _holds_bool_or_float(value):
    if isinstance(value, (list, tuple, set)):
        return any(map(_holds_bool_or_float, value))
    return isinstance(value, (bool, float))


def test_field_above_the_cap_takes_the_loop():
    spec = build_field(2, 16)
    assert spec.q > _CODEC_CAP and spec._codec().code_of is None
    rng = random.Random("cap")
    codes = [rng.randrange(spec.q) for _ in range(200)] + [0, 1, spec.q - 1]
    lists = spec.codes_to_json(codes)
    assert lists == [_digits(c, 2, 16) for c in codes]
    assert spec.codes_from_json(lists) == codes
    assert spec.codes_from_json([[1], [0, 1]]) == [1, 2]
    assert _message(spec, [[1], [True]], lambda k: f"v[{k}]") == (
        "v[1]: a field element is a list of integer coefficients, got [True]"
    )


@pytest.mark.parametrize("pm", [(2, 12), (2, 13), (3, 8), (2, 24), (257, 2), (65537, 1)])
def test_per_code_views_match_the_digits(pm):
    # every code at the cap, GF(2^12), and just above it, GF(2^13) and
    # GF(3^8), where the half tables start; sampled codes of GF(2^24), of
    # GF(257^2), whose half tables hold tuples (p > 255), and of GF(65537),
    # whose one digit is the code
    spec = build_field(*pm)
    codec = spec._codec()
    p, m = pm
    rng = random.Random(f"views:{pm}")
    if spec.q <= 1 << 13:
        codes = list(range(spec.q))
    else:
        codes = [0, 1, p - 1, spec.q - 1] + [rng.randrange(spec.q) for _ in range(3000)]
    for c in codes:
        digits = _digits(c, p, m)
        el = FieldElement(spec, c)
        assert codec.tuple_of(c) == el.coeffs == tuple(digits), c
        assert type(el.coeffs) is tuple
        assert codec.text_of(c) == json.dumps(digits, separators=(",", ":")), c
        assert codec.str_of(c) == coeff_str(digits), c
        assert repr(el) == f"<{coeff_str(digits)} in {spec!r}>", c
    assert spec.codes_to_json(codes) == [_digits(c, p, m) for c in codes]
    for _ in range(40):
        poly = Poly(spec, [rng.choice(codes[:4] + [rng.randrange(spec.q)]) for _ in range(6)])
        assert poly.format_str() == format_str(poly)
    if spec.q > _CODEC_CAP and m > 1:
        # two tables of p^(m // 2) and p^(m - m // 2) texts
        tables = [c.cell_contents for c in codec.text_of.__closure__]
        sizes = sorted(len(t) for t in tables if isinstance(t, list))
        assert sizes == [p ** (m // 2), p ** (m - m // 2)]


@pytest.mark.parametrize("pm", [(2, 8), (2, 16), (65537, 1)])
def test_codec_tables_are_made_on_first_use(pm):
    spec = build_field(*pm)
    fresh = FieldSpec(spec.p, spec.m, spec.modulus)
    assert fresh._codec_cache == []
    assert fresh.codes_to_json([5]) == [_digits(5, spec.p, spec.m)]
    (codec,) = fresh._codec_cache
    assert fresh._codec() is codec and (codec.code_of is None) == (spec.q > _CODEC_CAP)


@pytest.mark.parametrize("pm", [(2, 4), (3, 5), (2, 16)])
def test_returned_lists_are_not_the_tables(pm):
    spec = build_field(*pm)
    fresh = FieldSpec(spec.p, spec.m, spec.modulus)
    lists = spec.codes_to_json([0, 1, spec.q - 1])
    for row in lists:
        row[0] = 99
        row.append(7)
    assert spec.codes_to_json([0, 1, spec.q - 1]) == [
        _digits(c, spec.p, spec.m) for c in (0, 1, spec.q - 1)
    ]
    assert spec._codec().code_of == fresh._codec().code_of
    every = range(min(spec.q, _CODEC_CAP))
    assert list(map(spec._codec().tuple_of, every)) == list(map(fresh._codec().tuple_of, every))


def _sim_doc(spec, mode):
    """example2 as a 12-step simulation document over spec."""
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    leks = random_leks(net, spec, "codec", mode=mode, window=(0, 11))
    rng = random.Random(f"codec:{spec}:{mode}")
    inputs = [
        [[[rng.randrange(spec.p)] for _ in range(s.processes)] for s in net.sources]
        for _ in range(12)
    ]
    doc.update(kind="simulation", kernels=leks_to_dict(leks), inputs=inputs)
    return doc


def test_tables_unchanged_after_every_subcommand(tmp_path, capsys):
    sims = []
    for k, (spec, mode) in enumerate([(build_field(3, 1), "time"), (build_field(2, 6), "invariant")]):
        sims.append(tmp_path / f"sim{k}.json")
        sims[-1].write_text(json.dumps(_sim_doc(spec, mode)))
    runs = [[cmd, "example2"] for cmd in ("validate", "mincut", "transfer", "feasibility")]
    runs += [
        ["transfer", "example2", "--pretty"],
        ["simulate", str(sims[0])],
        ["simulate", str(sims[1]), "--pretty"],
        ["feasibility", "example1", "--find-plan"],
        ["transform", "example1", "--n", "7"],
        ["transform", "example1", "--n", "9"],
        ["transform", "example2", "--n", "5"],
        ["align", "example2", "--verify-only"],
        ["align", "example2", "--n", "4"],
    ]
    for argv in runs:
        assert cli.run(argv) in (0, 1), argv
        assert "error" not in capsys.readouterr().out.splitlines()[0], argv
    tabled = 0
    for spec in set(_FIELDS.values()):
        codec, fresh = spec._codec(), FieldSpec(spec.p, spec.m, spec.modulus)._codec()
        assert codec.code_of == fresh.code_of, spec
        every = range(min(spec.q, _CODEC_CAP))
        for view in ("tuple_of", "text_of", "str_of"):
            assert list(map(getattr(codec, view), every)) == list(
                map(getattr(fresh, view), every)
            ), (spec, view)
        tabled += codec.code_of is not None
    assert tabled >= 3


# ----------------------------------------------------------------------
# kernel and transfer documents
# ----------------------------------------------------------------------


def _walked_leks(d):
    """leks_from_dict's result, converting each value as the walk reaches it."""
    if not isinstance(d, dict):
        raise ParseError(f"kernels must be an object, got {d!r}")
    spec = spec_from_dict(d.get("field"), "kernels.field")

    def triple_from_json(td, path):
        if not isinstance(td, dict):
            raise ParseError(f"{path} must be an object, got {td!r}")
        triple = ({}, {}, {})
        for terms, key, size in zip(triple, ("alpha", "beta", "eps"), (4, 3, 4)):
            for k, x in enumerate(_list(td.get(key, []), "{}.{}", path, key)):
                at = ("{}.{}[{}]", path, key, k)
                if not isinstance(x, list) or len(x) != size:
                    raise ParseError(
                        f"{path}.{key}[{k}] must be a list of {size} values, got {x!r}"
                    )
                if key == "alpha":
                    pos = ((_int(x[0], *at), _int(x[1], *at)), _edge_key(x[2], *at))
                elif key == "beta":
                    pos = (_edge_key(x[0], *at), _edge_key(x[1], *at))
                else:
                    pos = (_edge_key(x[0], *at), (_int(x[1], *at), _int(x[2], *at)))
                try:
                    terms[pos] = spec.element(x[-1])
                except ParseError as e:
                    raise ParseError(f"{path}.{key}[{k}]: {e}") from None
        return triple

    mode = d.get("mode", "invariant")
    if mode == "invariant":
        return LekAssignment(spec, "invariant", *triple_from_json(d, "kernels"))
    if mode != "time":
        raise ParseError(f'kernels.mode must be "invariant" or "time", got {mode!r}')
    steps = tuple(
        triple_from_json(td, f"kernels.steps[{k}]")
        for k, td in enumerate(_list(d.get("steps"), "kernels.steps"))
    )
    return LekAssignment(spec, "time", t0=_int(d.get("t0"), "kernels.t0"), steps=steps)


def _same_leks(a, b):
    assert a == b
    for ta, tb in zip(
        [(a.alpha, a.beta, a.eps)] + list(a.steps), [(b.alpha, b.beta, b.eps)] + list(b.steps)
    ):
        for pa, pb in zip(ta, tb):
            assert list(pa.items()) == list(pb.items())  # insertion order too


def _net_docs():
    """(network, kernel document) pairs in every field regime and both modes."""
    rng = random.Random("kernel-docs")
    pairs = []
    for k, pm in enumerate([(2, 1), (2, 8), (3, 1), (3, 5), (7, 2), (2, 16)]):
        net = random_dag_net(rng)
        spec = build_field(*pm)
        pairs.append((net, leks_to_dict(random_leks(net, spec, k))))
        pairs.append((net, leks_to_dict(random_leks(net, spec, k, mode="time", window=(-2, 3)))))
    return pairs


def _kernel_docs():
    return [doc for _, doc in _net_docs()]


def test_kernels_match_the_walk(monkeypatch):
    calls = []
    codes_from_json = FieldSpec.codes_from_json

    def spy(self, items, where=None):
        calls.append(len(items))
        return codes_from_json(self, items, where)

    def element(*args, **kwargs):
        raise AssertionError("leks_from_dict calls no per-entry element()")

    for doc in _kernel_docs():
        walked = _walked_leks(doc)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(FieldSpec, "codes_from_json", spy)
            mp.setattr(FieldSpec, "element", element)
            leks = leks_from_dict(doc)
        _same_leks(leks, walked)
        assert leks_to_dict(leks) == doc
        # one conversion for every value of the document
        triples = doc["steps"] if doc["mode"] == "time" else [doc]
        assert calls == [sum(len(td[key]) for td in triples for key in ("alpha", "beta", "eps"))]


@pytest.mark.parametrize("mode", ["invariant", "time"])
def test_kernels_keep_the_last_duplicate(mode):
    net = network_from_dict(load_fixture("example2")["network"])
    doc = leks_to_dict(random_leks(net, build_field(3, 1), "dup", mode, (0, 2), nonzero=True))
    triples = doc["steps"] if mode == "time" else [doc]
    for td in triples:
        for key in ("alpha", "beta", "eps"):
            first = td[key][0]
            td[key] = [first, first[:-1] + [[0]], first[:-1] + [[2]]] + td[key][1:]
    leks = leks_from_dict(doc)
    _same_leks(leks, _walked_leks(doc))
    for td, triple in zip(triples, leks.steps or [(leks.alpha, leks.beta, leks.eps)]):
        for key, part in zip(("alpha", "beta", "eps"), triple):
            assert next(iter(part.values())).code == 2
            assert len(part) == len(td[key]) - 2


def _mutations(doc, rng, count=12):
    """Copies of a kernel document, each with one entry, edge key, index or value broken."""
    bad_values = [[True], [1.0], [5] * 9, ["1"], 3, None, [-1], [[1]]]
    bad_ints = [True, 1.0, "0", None, [0]]
    bad_edges = [["A", "B"], ["A", "B", "0"], ["A", "B", True], "A", None]
    out = []
    for _ in range(count):
        bad = json.loads(json.dumps(doc))
        triples = bad["steps"] if bad["mode"] == "time" else [bad]
        where = rng.choice(triples)
        keys = [k for k in ("alpha", "beta", "eps") if where[k]]
        if not keys:
            continue
        key = rng.choice(keys)
        entry = rng.choice(where[key])
        choice = rng.randrange(5)
        if choice == 0:
            entry[-1] = rng.choice(bad_values)
        elif choice == 1:
            entry[2 if key == "alpha" else 0] = rng.choice(bad_edges)
        elif choice == 2:
            entry[1] = rng.choice(bad_ints if key != "beta" else bad_edges)
        elif choice == 3:
            entry.pop(rng.randrange(len(entry)))
        else:
            where[key] = rng.choice([5, None, {"a": 1}, [entry, 4]])
        out.append(bad)
    return out


def _error(fn, *args):
    try:
        fn(*args)
    except ParseError as e:
        return str(e)
    return None


def test_kernels_refuse_as_the_walk():
    rng = random.Random("kernel-refusals")
    refused = 0
    for doc in _kernel_docs():
        for bad in _mutations(doc, rng):
            message = _error(leks_from_dict, bad)
            assert message == _error(_walked_leks, bad)
            refused += message is not None
    assert refused > 50
    # the first bad entry is named, as the walk names it
    doc = leks_to_dict(random_leks(network_from_dict(load_fixture("example2")["network"]),
                                   build_field(2, 6), "first"))
    doc["eps"][0][-1] = [1.0]
    doc["alpha"][3][-1] = [True, 0]
    assert _error(leks_from_dict, doc) == (
        "kernels.alpha[3]: a field element is a list of integer coefficients, got [True, 0]"
    )
    # a value refused before a malformed entry is named first, and after
    # one is not reached
    doc["eps"][0] = doc["eps"][0][:-1]
    assert _error(leks_from_dict, doc) == _error(_walked_leks, doc) == (
        "kernels.alpha[3]: a field element is a list of integer coefficients, got [True, 0]"
    )
    doc["alpha"][3][-1] = [0]
    doc["alpha"][5][2] = ["A", "B"]
    doc["beta"][0][-1] = [2]
    assert _error(leks_from_dict, doc) == _error(_walked_leks, doc) == (
        "kernels.alpha[5] must be a [tail, head, index] edge, got ['A', 'B']"
    )
    bad = {"mode": "time", "field": doc["field"], "t0": True, "steps": [doc, doc]}
    assert _error(leks_from_dict, bad) == _error(_walked_leks, bad)
    doc["alpha"][5][2] = doc["beta"][0][0]
    assert _error(leks_from_dict, bad) == _error(_walked_leks, bad) == (
        "kernels.steps[0].beta[0]: coefficient 2 out of range [0, 2)"
    )


def _misplaced(net, doc, rng, count=12):
    """Copies of a kernel document, each with one entry moved off its place
    in net, given a zero value or repeated with another value."""
    edges = [list(e.key) for e in net.edges] + [["nowhere", "T", 0]]
    out = []
    for _ in range(count):
        bad = json.loads(json.dumps(doc))
        where = rng.choice(bad["steps"] if bad["mode"] == "time" else [bad])
        key = rng.choice([k for k in ("alpha", "beta", "eps") if where[k]])
        k = rng.randrange(len(where[key]))
        entry = where[key][k]
        choice = rng.randrange(5)
        if choice == 0:  # another edge, maybe one that does not meet
            at = {"alpha": 2, "beta": rng.randrange(2), "eps": 0}[key]
            entry[at] = rng.choice(edges)
        elif choice == 1 and key != "beta":  # a source or sink, process or output out of range
            entry[rng.choice([0, 1] if key == "alpha" else [1, 2])] = rng.choice([-1, 1, 5])
        elif choice == 2:
            entry[-1] = [0]
        else:  # repeated, the later value first
            where[key][k:k] = [entry[:-1] + [rng.choice(entry[-1:] + [[0], [1]])]]
        out.append(bad)
    return out


def _compiled(leks, compile_step):
    """Each stored step's compiled kernels, or the ValueError refusing one."""
    steps = [0] if leks.mode == "invariant" else range(leks.t0, leks.t0 + len(leks.steps))
    try:
        return [list(map(list, compile_step(t))) for t in steps]
    except ValueError as e:
        return str(e)


def test_read_kernels_compile_as_the_walk():
    rng = random.Random("kernel-places")
    compiled = refused = 0
    for net, doc in _net_docs():
        for bad in [doc] + _mutations(doc, rng) + _misplaced(net, doc, rng):
            if _error(_walked_leks, bad) is not None:
                continue  # refused as it is read, as test_kernels_refuse_as_the_walk checks
            leks, walked = leks_from_dict(bad), _walked_leks(bad)
            spec = walked.field
            got = _compiled(leks, lambda t: _terms(net, leks, t))
            want = _compiled(walked, lambda t: _compiled_kernels(net, walked.kernels_at(t), spec))
            assert got == want
            if type(got) is list:  # compiled from the kept codes: no mapping was made
                triples = leks.steps or [(leks.alpha, leks.beta, leks.eps)]
                assert all(type(p) is _Kept and "data" not in vars(p) for t in triples for p in t)
            compiled += type(got) is list
            refused += type(got) is str
            _same_leks(leks, walked)
    assert compiled > 50 and refused > 20


def _copied(leks):
    """A fresh assignment of copies of leks's mappings as they are now."""
    steps = tuple(tuple(map(dict, triple)) for triple in leks.steps)
    return LekAssignment(
        leks.field, leks.mode, dict(leks.alpha), dict(leks.beta), dict(leks.eps), leks.t0, steps
    )


def test_a_mapping_changed_after_a_window_is_what_the_next_compiles():
    # every window compiles the mappings as they are when it starts, as a
    # fresh assignment of copies of them does: a change made before the
    # first window counts, and so does one made after it
    doc = load_fixture("example2")
    net = network_from_dict(doc["network"])
    read = leks_from_dict(doc["kernels"])
    spec = read.field
    for leks in (read, random_leks(net, spec, "changed", nonzero=True)):
        first = transfer_matrix(net, leks).M
        for key in list(leks.alpha)[:2]:
            leks.alpha[key] = spec.zero()
            changed = transfer_matrix(net, leks).M
            assert changed == transfer_matrix(net, _copied(leks)).M
            assert changed != first
            first = changed
    leks = random_leks(net, spec, "changed", mode="time", window=(0, 11), nonzero=True)
    rng = random.Random("changed")
    procs = [s.processes for s in net.sources]
    x = [[[rng.randrange(1, spec.q) for _ in range(k)] for k in procs] for _ in range(12)]
    first = simulate(net, leks, x, codes=True)
    alpha = leks.kernels_at(2)[0]
    alpha[next(iter(alpha))] = spec.zero()
    changed = simulate(net, leks, x, codes=True)
    assert changed == simulate(net, _copied(leks), x, codes=True)
    assert changed != first


def test_an_assignment_keeps_no_network_alive():
    doc = load_fixture("example2")
    net, leks = network_from_dict(doc["network"]), leks_from_dict(doc["kernels"])
    transfer_matrix(net, leks)
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None


def test_number_node_names_read_as_strings():
    # a node named by a JSON number is its str(), in the network and in a kernel's edge
    doc = load_fixture("example2")
    names = {v: k for k, v in enumerate(doc["network"]["nodes"])}
    net_doc = json.loads(json.dumps(doc["network"]), object_hook=lambda o: {
        k: names.get(v, v) if k in ("tail", "head", "node") else v for k, v in o.items()
    })
    net_doc["nodes"] = list(range(len(names)))
    net = network_from_dict(net_doc)
    kernels = json.loads(json.dumps(doc["kernels"]))
    for key in ("alpha", "beta", "eps"):
        for entry in kernels[key]:
            for x in entry[:-1]:
                if isinstance(x, list):
                    x[:2] = [names[x[0]], names[x[1]]]
    leks, walked = leks_from_dict(kernels), _walked_leks(kernels)
    _same_leks(leks, walked)
    assert ("0", "3", 0) in {ek for _, ek in leks.alpha}
    want = _compiled_kernels(net, walked.kernels_at(0), walked.field)
    assert list(map(list, _terms(net, leks, 0))) == list(map(list, want))


def test_transfer_refusals_name_the_entry():
    rng = random.Random("transfer-docs")
    for k, pm in enumerate([(2, 4), (3, 1), (2, 16)]):
        net = random_dag_net(rng)
        tr = transfer_matrix(net, random_leks(net, build_field(*pm), k))
        d = transfer_to_dict(tr)
        assert transfer_from_dict(d).M.rows == tr.M.rows and transfer_to_dict(tr) == d
        for bad in ([True], [1.5], [tr.field.p], 7, None, [[0]]):
            broken = json.loads(json.dumps(d))
            r = rng.randrange(len(broken["entries"]))
            c = rng.randrange(len(broken["entries"][r]))
            broken["entries"][r][c] = broken["entries"][r][c] + [bad]
            assert _error(transfer_from_dict, broken).startswith(f"transfer.entries[{r}][{c}]: ")
        # an entry or a row that is not a list is named as the walk names it
        for bad in (5, None, "ab", {"a": 1}):
            broken = json.loads(json.dumps(d))
            broken["entries"][-1][-1] = bad
            assert _error(transfer_from_dict, broken) == (
                f"transfer.entries[{len(d['entries']) - 1}][{len(d['entries'][-1]) - 1}] "
                f"must be a list, got {bad!r}"
            )
            broken["entries"][0] = bad
            assert _error(transfer_from_dict, broken) == (
                f"transfer.entries[0] must be a list, got {bad!r}"
            )
