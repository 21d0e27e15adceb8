"""Field construction: Ben-Or's irreducibility test against trial division,
the pinned identity of every field the fixtures, the benchmark workloads
and the tests build, and the form of its exp/log tables: tuples up to
_TUPLE_TABLE_CAP = 2^13 elements, 2-byte arrays above, read alike."""

import hashlib
import random
import sys
from itertools import product

import pytest

from netcode.galois import (
    FieldSpec,
    _factorint,
    _LogLists,
    _pf_is_irreducible,
    _undigits,
    build_field,
)
from tests.oracles import trial_division_irreducible

# (p, m): (code of the default modulus, code of the generator), recorded from
# the construction that chose moduli by trial division and multiplied digit
# lists. A code is sum(c_i * p**i) over the coefficients, leading 1 included.
FIELD_PINS = {
    (2, 1): (2, 1), (2, 2): (7, 2), (2, 3): (11, 2), (2, 4): (19, 2), (2, 5): (37, 2),
    (2, 6): (67, 2), (2, 7): (131, 2), (2, 8): (283, 3), (2, 9): (515, 7), (2, 10): (1033, 2),
    (2, 11): (2053, 2), (2, 12): (4105, 3), (2, 13): (8219, 2), (2, 16): (65579, 3),
    (2, 17): (131081, 2), (2, 18): (262153, 10), (2, 19): (524327, 2), (2, 20): (1048585, 2),
    (2, 21): (2097157, 2), (2, 22): (4194307, 2), (2, 23): (8388641, 2), (2, 24): (16777243, 2),
    (3, 1): (3, 2), (3, 2): (10, 4), (3, 3): (34, 3), (3, 4): (86, 3), (3, 5): (250, 3),
    (3, 6): (734, 3), (3, 7): (2198, 5), (3, 8): (6572, 38), (3, 10): (59068, 34),
    (3, 11): (177158, 5), (3, 12): (531452, 14), (3, 13): (1594330, 3), (3, 14): (4782974, 3),
    (3, 15): (14348918, 5), (5, 1): (5, 2), (5, 2): (27, 6), (5, 3): (131, 9), (5, 4): (627, 6),
    (5, 5): (3146, 10), (5, 7): (78131, 9), (5, 10): (9765658, 5), (7, 1): (7, 3),
    (7, 2): (50, 9), (7, 3): (345, 22), (7, 4): (2409, 12), (7, 8): (5764811, 7),
    (11, 1): (11, 2), (11, 2): (122, 15), (11, 3): (1346, 11), (13, 1): (13, 2),
    (13, 2): (171, 15), (13, 3): (2199, 15), (17, 1): (17, 3), (17, 2): (292, 19),
    (19, 1): (19, 2), (19, 2): (362, 22), (23, 1): (23, 5), (23, 2): (530, 25),
    (29, 1): (29, 2), (29, 2): (843, 30), (31, 1): (31, 3), (31, 2): (962, 35),
    (37, 1): (37, 2), (37, 2): (1371, 41), (41, 1): (41, 6), (41, 2): (1684, 43),
    (43, 1): (43, 3), (43, 2): (1850, 45), (47, 1): (47, 5), (47, 2): (2210, 49),
    (53, 1): (53, 2), (53, 2): (2811, 54), (59, 1): (59, 2), (59, 2): (3482, 62),
    (61, 1): (61, 2), (61, 2): (3723, 63), (257, 2): (66052, 259), (257, 3): (16974851, 265),
    (4093, 2): (16752651, 4103), (65537, 1): (65537, 3),
}

# SHA-256 of the comma-joined exp and log tables, recorded with FIELD_PINS
TABLE_DIGESTS = {
    (2, 16): (
        "5860a63f932f7cb6e61602bbccbf26be3a41faf0918df94233efd27758e12e5b",
        "f0f731c81694e71270d9584923a65a489b4a1ff7979da9e5a6441b40b2260466",
    ),
    (3, 10): (
        "9cc6265c9b4aa255d640d277c51664ec4226bc6292cfd2e949cfc9b490a8b247",
        "0feef1d5b4a27fb4223f56d97f75b294ecdadf0f1b47a80ca8e3cdbecafc2a9c",
    ),
}

# every explicit modulus the tests and fixtures pass, with whether it is
# irreducible; test_galois refuses x^2 + 1 over GF(2)
EXPLICIT_MODULI = [
    (2, (0, 1), True),
    (2, (1, 0, 1), False),
    (2, (1, 1, 1), True),
    (2, (1, 0, 0, 1, 1), True),
    (2, (1, 1, 0, 0, 0, 0, 1), True),
    (2, (1, 1, 0, 1, 1, 0, 0, 0, 1), True),
    (3, (1, 2, 0, 1), True),
]


def _monic(p, deg):
    for low in product(range(p), repeat=deg):
        yield low + (1,)


def _irreducible_count(p, d):
    """Gauss's count of monic irreducibles of degree d over GF(p)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            primes = _factorint(e)
            if all(k == 1 for k in primes.values()):  # Moebius mu(e) != 0
                total += (-1) ** len(primes) * p ** (d // e)
    return total // d


@pytest.mark.parametrize("p, max_deg", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_ben_or_matches_trial_division(p, max_deg):
    assert not _pf_is_irreducible((1,), p)
    for deg in range(1, max_deg + 1):
        found = 0
        for f in _monic(p, deg):
            want = trial_division_irreducible(f, p)
            assert _pf_is_irreducible(f, p) == want, f
            found += want
        assert found == _irreducible_count(p, deg), deg


def test_ben_or_on_explicit_moduli():
    for p, f, irreducible in EXPLICIT_MODULI:
        assert _pf_is_irreducible(f, p) == trial_division_irreducible(f, p) == irreducible, f


def test_default_fields_are_pinned():
    for (p, m), (mod, gen) in FIELD_PINS.items():
        spec = build_field(p, m)
        assert (_undigits(spec.modulus, p), spec._gen_code) == (mod, gen), (p, m)
    # the one non-default modulus the tests use
    assert build_field(2, 4, [1, 0, 0, 1, 1])._gen_code == 2


def _digest(table):
    return hashlib.sha256(",".join(map(str, table)).encode()).hexdigest()


@pytest.mark.parametrize("p, m", sorted(TABLE_DIGESTS))
def test_table_digests_are_pinned(p, m):
    spec = build_field(p, m)
    assert (_digest(spec._exp), _digest(spec._log)) == TABLE_DIGESTS[p, m]


@pytest.mark.parametrize("p, m", [(2, 14), (2, 16), (3, 10), (5, 6)])
def test_big_tables_are_two_byte_arrays(p, m):
    spec = build_field(p, m)
    assert spec._exp.itemsize == spec._log.itemsize == 2
    assert sys.getsizeof(spec._exp) + sys.getsizeof(spec._log) <= 4 * spec.q + 256


@pytest.mark.parametrize("p, m", [(2, 8), (2, 10), (2, 12), (2, 13), (3, 5)])
def test_small_tables_are_tuples(p, m):
    spec = build_field(p, m)
    assert type(spec._exp) is tuple and type(spec._log) is tuple


@pytest.mark.parametrize("p, m", [(2, 16), (3, 10)])
def test_array_tables_read_as_tuples(p, m):
    spec = build_field(p, m)
    twin = FieldSpec(p, m, spec.modulus)  # a fresh spec, read through tuple copies
    twin._exp, twin._log = tuple(spec._exp), tuple(spec._log)
    rng = random.Random(f"forms:{p}:{m}")
    codes = [0, 1, spec.q - 1] + [rng.randrange(spec.q) for _ in range(500)]
    for a in codes:
        b, e = rng.randrange(spec.q), rng.randrange(-spec.q, 2 * spec.q)
        assert spec._mul_codes(a, b) == twin._mul_codes(a, b), (a, b)
        assert spec._pow_code(a, abs(e)) == twin._pow_code(a, abs(e)), (a, e)
        if a:
            assert spec._inv_code(a) == twin._inv_code(a), a
            assert spec._pow_code(a, e) == twin._pow_code(a, e), (a, e)


def test_log_lists_over_arrays_match_tuples():
    spec = build_field(2, 16)
    arrays, tuples = spec._lists, _LogLists(tuple(spec._exp), tuple(spec._log))
    assert type(arrays) is _LogLists and type(arrays.exp2) is not tuple
    rng = random.Random("forms:lists")
    for width in (1, 7, 40):
        rows = [[rng.randrange(spec.q) if rng.random() < 0.8 else 0 for _ in range(width)]
                for _ in range(width + 2)]
        vec = [rng.randrange(spec.q) for _ in rows]
        for scale in (0, 1, rng.randrange(2, spec.q)):
            srcs = [k.prep(rows[0], scale) for k in (arrays, tuples)]
            assert srcs[0] == srcs[1]
            for f, off in ((0, 0), (1, 0), (rng.randrange(spec.q), 2)):
                dsts = [
                    k.axpy(rows[1] + [0, 0], f, src, off) for k, src in zip((arrays, tuples), srcs)
                ]
                assert dsts[0] == dsts[1]
        preps = [[k.prep(r) for r in rows] for k in (arrays, tuples)]
        assert arrays.matvec(vec, preps[0], width) == tuples.matvec(vec, preps[1], width)
        records = [], []
        got = [k.eliminate(rows, width, spec, rec) for k, rec in zip((arrays, tuples), records)]
        assert got[0] == got[1] and records[0] == records[1]
