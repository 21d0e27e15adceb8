"""Exact arithmetic over GF(p^m), with polynomials and matrices on top.

Elements live in the polynomial basis: an element is a vector of m
coefficients over the prime field, lowest power first. All deterministic
choices (auto-selected moduli, the fixed generator, roots used by subfield
embeddings) follow a single ordering, the integer encoding
code = sum_i c_i * p**i, so that independent runs and processes agree on
every artifact down to the bit.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, cycle, islice, zip_longest
from operator import xor
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "NetcodeError",
    "ParseError",
    "NotPrime",
    "ReducibleModulus",
    "NoSuchElement",
    "FieldSpec",
    "FieldElement",
    "build_field",
    "element_of_order",
    "FqMatrix",
    "FqFactors",
    "Poly",
    "PolyMatrix",
    "poly_eval_matrix",
    "Embedding",
    "embed",
    "spec_to_dict",
    "spec_from_dict",
]

# Fields at least this small get exp/log tables, built with their spec;
# larger ones multiply carry-less in GF(2^m) and, for odd p, by one integer
# multiply of spread digits, folded back by x^k mod f (FieldSpec._kron_mul).
_TABLE_CAP = 1 << 16

# Exp/log tables of fields at least this small are tuples of ints, which
# read fastest; larger ones are 2-byte arrays, 0.53 MB against 6.0 MB in
# GF(2^16), which read faster too from 2^15 elements on (README).
_TUPLE_TABLE_CAP = 1 << 13

# Fields at least this small get whole-field codec tables
# (FieldSpec._codec_tables), made on a spec's first use, so JSON coefficient
# lists convert by lookup and each code's coefficient tuple, compact JSON
# text and display string is one lookup; a GF(2^12) spec's tables take ~6 ms
# and ~1.5 MB (2-vCPU Xeon VM). Larger fields of m >= 2 get half-width
# tables, two lookups per code.
_CODEC_CAP = 1 << 12

# The largest field order accepted from an input document or flag. Past it
# trial division (p's primality, q - 1's factors for the generator) takes
# seconds to hours; every bundled and benchmarked field is at most 2^20.
_MAX_FIELD_ORDER = 1 << 24

# Matrix rows at least this wide run in byte lanes in GF(2^m), m <= 8
# (FieldSpec._kernel); narrower ones run in code lists.
_LANE_MIN_WIDTH = 8

# Matrix rows at least this wide run in packed lanes (FieldSpec._kernel) in
# GF(2^m), 8 < m <= 24, and for odd p <= _PACKED_MAX_P: in GF(p) and over
# GF(2^m) log tables from _PACKED_MIN_WIDTH, over GF(p^m) log tables from
# _PACKED_MIN_WIDTH_DIGITS, without tables from _PACKED_MIN_WIDTH_NO_TABLES.
# Sparse rows, such as a transfer window's impulse responses, run faster in
# code lists; the first keeps stream's 44- to 104-step GF(3) and GF(2^10)
# transfer windows there. Above _PACKED_MAX_P a prepared row's (p - 1) * m
# multiples cost more than 16-entry rows save.
_PACKED_MAX_P = 31
_PACKED_MIN_WIDTH = 128
_PACKED_MIN_WIDTH_DIGITS = 16
_PACKED_MIN_WIDTH_NO_TABLES = 8

# Packed lanes read and write arrays of 8- to 64-bit codes as little-endian ints.
_PACKED_ROWS = sys.byteorder == "little" and array("I").itemsize == 4 and array("Q").itemsize == 8


class NetcodeError(Exception):
    """Base class for every error raised by this package."""


class ParseError(NetcodeError):
    """An input document or value has the wrong type or shape."""


class NotPrime(NetcodeError):
    pass


class ReducibleModulus(NetcodeError):
    pass


class NoSuchElement(NetcodeError):
    pass


# ----------------------------------------------------------------------
# prime-field polynomial helpers (coefficient lists over F_p, lowest first)
# ----------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _pf_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pf_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    # remainder of a by monic-leading b over F_p
    r = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p) if p > 2 else 1
    while len(r) - 1 >= db and any(r):
        _pf_trim(r)
        if len(r) - 1 < db:
            break
        shift = len(r) - 1 - db
        factor = (r[-1] * inv_lead) % p
        for i, bc in enumerate(b):
            r[shift + i] = (r[shift + i] - factor * bc) % p
    return _pf_trim(r)


def _pf_mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b, i):
                prod[j] += ac * bc
    return _pf_mod([c % p for c in prod], f, p)


def _pf_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Ben-Or's test: the monic f = coeffs of degree m is irreducible exactly
    when gcd(x^(p^i) - x, f) = 1 for every i <= m/2."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if coeffs[0] == 0:
        # divisible by x, unless the polynomial is x itself
        return deg == 1
    xp = [0, 1]
    for _ in range(deg // 2):
        base = xp  # xp = base^p mod f, by square and multiply
        for bit in bin(p)[3:]:
            xp = _pf_mulmod(xp, xp, coeffs, p)
            if bit == "1":
                xp = _pf_mulmod(xp, base, coeffs, p)
        b = xp + [0]  # xp - x; xp != 0, as x is a unit mod f
        b[1] = (b[1] - 1) % p
        a, b = coeffs, _pf_trim(b)
        while b:
            a, b = b, _pf_mod(a, b, p)
        if len(a) > 1:
            return False
    return True


def _pf_inverse(a: list[int], mod: Sequence[int], p: int) -> list[int]:
    """s with s * a = 1 modulo the irreducible mod, a nonzero of lower degree.

    Extended Euclid: keep s * a = u and t * a = v modulo mod, and cancel the
    leading term of the higher-degree one of u, v until u is a constant.
    """
    u, v = _pf_trim(list(a)), list(mod)
    s, t = [1], []
    while len(u) > 1:
        if len(u) < len(v):
            u, v, s, t = v, u, t, s
        shift = len(u) - len(v)
        f = u[-1] * pow(v[-1], p - 2, p) % p
        for i, c in enumerate(v):
            u[shift + i] = (u[shift + i] - f * c) % p
        _pf_trim(u)
        if len(s) < len(t) + shift:
            s.extend([0] * (len(t) + shift - len(s)))
        for i, c in enumerate(t):
            s[shift + i] = (s[shift + i] - f * c) % p
    scale = pow(u[0], p - 2, p)
    return [c * scale % p for c in s]


def _digits(code: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def _spread(code: int, p: int, w: int) -> int:
    """code's base-p digits, one per w-bit field."""
    out = 0
    shift = 0
    while code:
        code, d = divmod(code, p)
        out |= d << shift
        shift += w
    return out


def _kron_form(p: int, m: int, modulus: Sequence[int]) -> tuple:
    """GF(p^m)'s spread form for odd p, digit i in bit field i of w bits, as
    w, its mask, (shift of field k, spread x^k mod f) for m <= k <= 2m - 2,
    the low fields' shifts and digit i's scale when spread and in a code."""
    w = ((2 * m - 1) * (p - 1) ** 2).bit_length()
    shifts = range(0, w * m, w)
    x_m = [-c % p for c in modulus[:m]]  # x^m mod f
    folds, red = [], x_m
    for k in range(m, 2 * m - 1):
        folds.append((w * k, sum(d << s for d, s in zip(red, shifts))))
        red = [(lo + red[-1] * t) % p for lo, t in zip([0] + red[:-1], x_m)]
    return w, (1 << w) - 1, folds, shifts, [1 << s for s in shifts], [p**i for i in range(m)]


def _digit_tables(
    p: int, start: int, stop: int, code_of: dict | None = None
) -> tuple[list[tuple[int, ...]], list[str], list[str]]:
    """Every code of the digits at positions start to stop - 1, in code
    order: its digit tuple, its digits as JSON text ("1,0,1") and its
    nonzero digits as "+"-led display terms ("+1+x^2"). code_of, if given,
    gains the code of every tuple of each length from 0 to stop - start.

    The codes of k + 1 digits in code order are those of k digits followed
    by digit 0, then by digit 1, and so on.
    """
    tuples: list[tuple[int, ...]] = [()]
    texts, terms = [""], [""]
    digits = list(map(str, range(p)))
    for i in range(start, stop):
        tuples = [t + (d,) for d in range(p) for t in tuples]
        if code_of is not None:
            code_of.update(zip(tuples, range(len(tuples))))
        sep = "," if i > start else ""
        texts = [s + sep + d for d in digits for s in texts]
        x = "" if i == 0 else "x" if i == 1 else f"x^{i}"
        digit_terms = [""] + ["+" + (x if d == "1" and x else d + x) for d in digits[1:]]
        terms = [s + t for t in digit_terms for s in terms]
    return tuples, texts, terms


def _undigits(vec: Sequence[int], p: int) -> int:
    code = 0
    for c in reversed(vec):
        code = code * p + c
    return code


# ----------------------------------------------------------------------
# field construction
# ----------------------------------------------------------------------


class _Codec(NamedTuple):
    """A field's codec tables, as FieldSpec._codec_tables makes them."""

    code_of: dict[tuple[int, ...], int] | None
    tuple_of: Callable[[int], tuple[int, ...]]
    text_of: Callable[[int], str]
    str_of: Callable[[int], str]


class FieldSpec:
    """GF(p^m) with a fixed monic irreducible modulus of degree m.

    A spec holds its generator, exp/log tables when q <= _TABLE_CAP and
    its row kernels from construction, and its codec tables from their
    first use. Instances are immutable and hashable; two specs compare
    equal exactly when (p, m, modulus) agree. Construct through
    :func:`build_field`.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "_mod_bits", "_kron", "_exp", "_log", "_lists", "_poly",
        "_wide", "_wide_min", "_gen_code", "_codec_cache",
    )

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = tuple(int(c) for c in modulus)
        # in GF(2^m), the modulus as an int with bit i for x^i
        self._mod_bits = _undigits(self.modulus, 2) if p == 2 else None
        self._kron = None if p == 2 else _kron_form(p, m, self.modulus)
        self._gen_code = self._find_generator()
        self._exp, self._log = self._build_tables() if self.q <= _TABLE_CAP else (None, None)
        # the code-list kernel of this field's regime, the only place one is picked
        self._lists = (
            _LogLists(self._exp, self._log) if p == 2 and self._exp
            else _PrimeLists(p) if m == 1
            else _MulLists(self._mul_codes, xor if p == 2 else self._add_codes)
            if p == 2 or self._exp
            else _MulLists(
                lambda a, b: self._kron_mul(a, b, True), self._add_codes,
                lambda c: _spread(c, p, self._kron[0]),
            )
        )
        lanes = _LaneKernel(self) if p == 2 and m <= 8 else None
        # the kernel of polynomial products and divisions, at any length
        self._poly = lanes or self._lists
        # the kernel of rows at least _wide_min wide
        if lanes:
            self._wide, self._wide_min = lanes, _LANE_MIN_WIDTH
        elif _PACKED_ROWS and (m <= 24 if p == 2 else p <= _PACKED_MAX_P):
            self._wide = _PackedKernel(self)
            self._wide_min = _PACKED_MIN_WIDTH_NO_TABLES if not self._exp else (
                _PACKED_MIN_WIDTH if p == 2 or m == 1 else _PACKED_MIN_WIDTH_DIGITS
            )
        else:
            self._wide, self._wide_min = self._lists, 0
        self._codec_cache: list[_Codec] = []  # filled by _codec on first use

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- element constructors ------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, coeffs: Sequence[int], path: str | None = None) -> "FieldElement":
        """The element with these coefficients; path names them in a ParseError."""
        where = None if path is None else (lambda k: path)
        return FieldElement(self, self.codes_from_json([coeffs], where)[0])

    def codes_from_json(
        self, items: Sequence[Sequence[int]], where: Callable[[int], str] | None = None,
        ints_only: bool = False,
    ) -> list[int]:
        """The codes of these coefficient lists, lowest degree first.

        An item is a list or tuple of at most m coefficients, each an int
        (not a bool or float) in [0, p). With codec tables, lists and tuples
        of ints are looked up all at once; a batch that misses, and every
        batch in a field without tables, is converted item by item, and its
        first bad item raises a ParseError, prefixed with where(k) for its
        index k when where is given. ints_only says that no coefficient is a
        bool or a float, as in JSON text without those literals, so the
        lookup alone checks the coefficients.
        """
        code_of = self._codec().code_of
        # True and 1.0 hash like 1, so the types are checked before lookup
        if (
            code_of is not None
            and set(map(type, items)) <= {list, tuple}
            and (ints_only or set(map(type, chain.from_iterable(items))) <= {int})
        ):
            try:
                return list(map(code_of.__getitem__, map(tuple, items)))
            except (KeyError, TypeError):  # a miss, or a list among the coefficients
                pass
        p, m = self.p, self.m
        out: list[int] = []
        append = out.append
        for coeffs in items:
            if not isinstance(coeffs, (list, tuple)) or len(coeffs) > m:
                break
            code = 0
            # code * p + c beats shifts for p = 2: CPython 3.11
            # specializes int multiply, add and compare, not shift or or
            for c in reversed(coeffs):
                if type(c) is not int or not 0 <= c < p:
                    break
                code = code * p + c
            else:
                append(code)
                continue
            break
        k = len(out)
        if k == len(items):
            return out
        msg = self._coeffs_problem(items[k])
        raise ParseError(msg if where is None else f"{where(k)}: {msg}")

    def _coeffs_problem(self, coeffs) -> str:
        """Why codes_from_json refused coeffs."""
        if not isinstance(coeffs, (list, tuple)) or any(type(c) is not int for c in coeffs):
            return f"a field element is a list of integer coefficients, got {coeffs!r}"
        if len(coeffs) > self.m:
            return f"at most {self.m} coefficients expected, got {len(coeffs)}"
        bad = next(c for c in coeffs if not 0 <= c < self.p)
        return f"coefficient {bad} out of range [0, {self.p})"

    def codes_to_json(self, codes: Sequence[int]) -> list[list[int]]:
        """The m coefficients of each code, lowest degree first, in new lists."""
        return list(map(list, map(self._codec().tuple_of, codes)))

    # -- code-level arithmetic -----------------------------------------

    def _add_codes(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        if self.m == 1:
            return (a + b) % p
        out = 0
        mul = 1
        while a or b:
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def _neg_code(self, a: int) -> int:
        # -a = (p - 1) * a, with the one-digit factor second: in GF(2^m)
        # _schoolbook_mul loops over the bits of its second argument
        return self._mul_codes(a, self.p - 1)

    def _schoolbook_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, m = self.p, self.m
        if p == 2:
            # carry-less: XOR in a * x^k for each set bit k of b, reducing
            # a by the modulus each time it reaches degree m
            mod, top, out = self._mod_bits, 1 << m, 0
            while b:
                if b & 1:
                    out ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return out
        w = self._kron[0]
        return self._kron_mul(_spread(a, p, w), _spread(b, p, w), True)

    def _kron_mul(self, a: int, b: int, code: bool = False) -> int:
        """a * b for odd p, both in spread form; the product spread, or as a code.

        One integer multiply sums the digit products of each power x^k in
        field k; each digit k >= m, mod p, adds its multiple of x^k mod f.
        """
        _, mask, folds, shifts, spread, codes = self._kron
        p = self.p
        prod = low = a * b
        for s, fold in folds:
            c = (prod >> s & mask) % p
            if c:
                low += c * fold
        return sum((low >> s & mask) % p * k for s, k in zip(shifts, codes if code else spread))

    def _pow_code_slow(self, a: int, e: int) -> int:
        # odd p squares and multiplies in spread form, converted at the ends
        kron = self._kron
        mul = self._schoolbook_mul if kron is None else self._kron_mul
        out, base = 1, a if kron is None else _spread(a, self.p, kron[0])
        while e:
            if e & 1:
                out = mul(out, base)
            base = mul(base, base)
            e >>= 1
        return out if kron is None else self._kron_mul(out, 1, True)

    def _find_generator(self) -> int:
        """The primitive element with the smallest code, found without tables."""
        if self.q == 2:
            return 1
        # a generates exactly when a^((q - 1) / r) != 1 for each prime r of
        # q - 1; codes below p are the prime subfield, of orders dividing p - 1
        cofactors = [(self.q - 1) // r for r in _factorint(self.q - 1)]
        for cand in range(2 if self.m == 1 else self.p, self.q):
            if all(self._pow_code_slow(cand, e) != 1 for e in cofactors):
                return cand
        # every finite field is cyclic
        raise NetcodeError("no generator found")  # pragma: no cover

    def _build_tables(self) -> tuple[Sequence[int], Sequence[int]]:
        """exp and log: exp[i] = g^i for the generator g, log[exp[i]] = i.

        In GF(p^m), m > 1, block k of exp is g^(kB) times block 0, the
        powers below B = p^ceil(m/2): one packed-lane product per block in
        place of a multiply per power. Up to _TUPLE_TABLE_CAP elements they
        are tuples of ints, which the garbage collector stops tracking; above
        it, 2-byte arrays."""
        q, g, mul = self.q, self._gen_code, self._schoolbook_mul
        block = self.p ** ((self.m + 1) // 2) if self.m > 1 and _PACKED_ROWS else q - 1
        exp = [1]
        for _ in range(min(block, q - 1) - 1):
            exp.append(exp[-1] * g % q if self.m == 1 else mul(exp[-1], g))
        if block < q - 1:
            kern, f = _PackedKernel(self), 1
            src, step = kern.prep(exp), mul(exp[-1], g)
            while len(exp) < q - 1:
                f = mul(f, step)
                exp += kern.unpack(kern.axpy(0, f, src), block)
            del exp[q - 1 :]
        log = [0] * q
        for i, c in enumerate(exp):
            log[c] = i
        if q > _TUPLE_TABLE_CAP:
            return array("H", exp), array("H", log)
        return tuple(exp), tuple(log)

    def _codec(self) -> _Codec:
        """This field's codec tables, made on the first call.

        Only reading and writing coefficients use them, so a spec built
        for its arithmetic alone, such as a lift or a plan-search
        candidate, never makes them, and set-up allocates none of them.
        """
        cache = self._codec_cache
        if not cache:
            cache.append(self._codec_tables())
        return cache[0]

    def _codec_tables(self) -> _Codec:
        """The code of every coefficient tuple of length 0 to m, so short
        items such as (1,) are found too, or None above _CODEC_CAP; and, as
        calls on one code, its m coefficients, its coefficients as compact
        JSON text, such as "[1,0,1]", and its display string, such as "1+x^2".

        At or below the cap each call is one lookup in a whole-field table.
        Above it, with m >= 2, it is two, in tables of the low m // 2 digits
        and of the high ones; in GF(p) the code is its one digit.
        """
        p, m = self.p, self.m
        if self.q <= _CODEC_CAP:
            code_of = {(): 0}
            tuples, texts, terms = _digit_tables(p, 0, m, code_of)
            texts = ["[" + s + "]" for s in texts]
            strs = [s[1:] or "0" for s in terms]
            return _Codec(code_of, tuples.__getitem__, texts.__getitem__, strs.__getitem__)
        if m == 1:
            return _Codec(None, lambda c: (c,), "[{}]".format, str)
        k = m // 2
        b = p**k
        lo_t, lo_x, lo_s = _digit_tables(p, 0, k)
        hi_t, hi_x, hi_s = _digit_tables(p, k, m)
        lo_x = ["[" + s for s in lo_x]
        hi_x = ["," + s + "]" for s in hi_x]
        return _Codec(
            None,
            lambda c: lo_t[c % b] + hi_t[c // b],
            lambda c: lo_x[c % b] + hi_x[c // b],
            lambda c: (lo_s[c % b] + hi_s[c // b])[1:] or "0",
        )

    def _mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp = self._exp
        if exp is None:
            return self._schoolbook_mul(a, b)
        log = self._log
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def _inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        exp = self._exp
        if exp is not None:
            return exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        p = self.p
        return _undigits(_pf_inverse(_digits(a, p, self.m), self.modulus, p), p)

    def _pow_code(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow_code(self._inv_code(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        exp = self._exp
        if exp is not None:
            return exp[(self._log[a] * e) % (self.q - 1)]
        return self._pow_code_slow(a, e)

    # -- row kernels ---------------------------------------------------

    def _kernel(self, width: int) -> "_CodeLists | _LaneKernel | _PackedKernel":
        """The row kernel for rows this wide: this field's code lists, or its
        byte lanes or packed lanes from their least width on."""
        return self._wide if width >= self._wide_min else self._lists


# Every row kernel offers these calls, each on a whole row or a set of
# rows, so the loops over entries stay inside them:
#   pack(codes) -> row, from a sequence of codes or an unpacked row, never
#     from raw bytes: n zero codes are unpack(pack([0]), 1) * n
#   unpack(row, width) -> its codes: a list, bytes, or an array of 8- to
#     64-bit codes
#   prep(codes, scale=1) -> scale * codes, prepared as a src for axpy,
#     which returns row + f * src (src from entry off on), and for
#     matvec, which returns the sum of factors[i] * srcs[i]
#   axpys(rows, start, columns, srcs, scale=1): for each factors column
#     (one factor per row) and src (codes as unpack gives them),
#     rows[start + i] += factors[i] * scale * src
#   scaled(f, codes) -> f * codes
#   eliminate(rows, ncols, spec, record) -> FqMatrix._eliminate of code-list
#     rows; solve(factors, cols) -> FqFactors._solve of factors that this
#     kernel's eliminate recorded. Code lists and packed lanes share one
#     loop for each, which reads pivot columns through the helper column;
#     byte lanes run their own on all the rows at once, as one int
#   zero() -> an empty row; mul_into(row, a, src) -> row + a * src, for
#     polynomials lowest power first, lengthening a code-list row as needed
#   div_exact(row, src) -> row / b as unpack's codes, for the monic b of
#     src = prep(b, -1); ArithmeticError unless b divides row
#   scaled_rows(factors, srcs, width) -> factors[r] * srcs[r] for each r,
#     srcs of width entries from prep, as eliminate takes rows
# matvec and scaled return lists, as FqMatrix compares rows as lists; axpy,
# axpys and mul_into also change a code-list row in place, and div_exact
# consumes it. No call takes a factor per entry: a time-indexed term
# (netmodel._window) multiplies its factors and series entry by entry and
# adds the product with axpy at factor 1. Poly products and PolyMatrix.det
# run in FieldSpec._poly, byte lanes whenever the field has them, whatever
# their length: a lane polynomial is packed per entry, not per row, so the
# row-width crossover does not apply. Packed lanes, in GF(2^m) and odd p,
# serve the rows alone, with no zero, mul_into, div_exact or scaled_rows:
# polynomials in those fields stay in code lists.


class _CodeLists:
    """Rows as code lists; a prepared src is a (j, value) pair per nonzero entry.

    Each subclass holds one field regime's value form and loops. matvec is
    axpy over all rows at once, for short rows, where a call per row costs more."""

    __slots__ = ()

    pack = zero = list

    @staticmethod
    def unpack(row: list[int], width: int) -> list[int]:
        return row

    @staticmethod
    def column(rows: list[list[int]], start: int, c: int) -> list[int]:
        """Entry c of each row from rows[start] on, for eliminate."""
        return [row[c] for row in rows[start:]]

    def axpys(self, rows: list, start: int, columns: Iterable, srcs: Iterable, scale=1) -> None:
        axpy, prep = self.axpy, self.prep
        for factors, codes in zip(columns, srcs):
            if any(factors):
                src = prep(codes, scale)
                for i, f in enumerate(factors, start):
                    if f:
                        rows[i] = axpy(rows[i], f, src)

    def scaled(self, factor: int, codes: Sequence[int]) -> list[int]:
        return self.axpy([0] * len(codes), factor, self.prep(codes))

    def scaled_rows(self, factors: Sequence[int], srcs: Sequence[list], width: int) -> list:
        axpy = self.axpy
        return [axpy([0] * width, f, src) for f, src in zip(factors, srcs)]

    def mul_into(self, out: list[int], a: Sequence[int], src: list) -> list[int]:
        if src and len(out) < len(a) + src[-1][0]:
            out += [0] * (len(a) + src[-1][0] - len(out))
        axpy = self.axpy
        for i, x in enumerate(a):
            if x:
                axpy(out, x, src, i)
        return out

    def eliminate(self, rows: Sequence, ncols: int, spec: FieldSpec, record: list | None) -> tuple:
        column, unpack, prep, axpys = self.column, self.unpack, self.prep, self.axpys
        neg, inv = spec._neg_code, spec._inv_code
        rows = [self.pack(row) for row in rows]
        nrows, pivots, swaps, r = len(rows), [], 0, 0
        for c in range(ncols):
            if r == nrows:
                break
            col = column(rows, r, c)
            for k, x in enumerate(col):
                if x:
                    break
            else:
                continue
            if k:
                rows[r], rows[r + k] = rows[r + k], rows[r]
                col[0], col[k] = col[k], col[0]
                swaps += 1
            # row r is zero left of column c, and adding f * scale * row r
            # to a row whose entry c is f clears that entry
            scale = neg(inv(col[0]))
            below = col[1:]
            if record is not None:
                record.append((r + k, prep(below, scale)))
            axpys(rows, r + 1, (below,), (unpack(rows[r], ncols),), scale)
            pivots.append(c)
            r += 1
        return [unpack(row, ncols) for row in rows], pivots, swaps

    def solve(self, factors: "FqFactors", cols: Iterable[Sequence[int]]) -> list[list[int]]:
        m, n, spec, upper = factors.nrows, factors.ncols, factors.spec, factors.upper
        minus_one, mul, inv = spec._neg_code(1), spec._mul_codes, spec._inv_code
        pack, unpack, axpy, prep = self.pack, self.unpack, self.axpy, self.prep
        flat = upper[0][:0] if upper else []  # U's rows end to end, a list or an array
        for row in upper:
            flat += row
        # -U[:r, r] and 1 / U[r, r] for each column r of the square upper triangle U
        above = [prep(flat[r : r * n : n], minus_one) for r in range(n)]
        inv_diag = [inv(u) for u in flat[:: n + 1]]
        xs = []
        for col in cols:
            b = pack(col)
            for k, (p, mults) in enumerate(factors.steps):
                if p != k:  # swapped in b's codes: the list itself, or an array
                    codes = unpack(b, m)
                    codes[k], codes[p] = codes[p], codes[k]
                    b = pack(codes)
                b = axpy(b, unpack(b, m)[k], mults, k + 1)
            if any(unpack(b, m)[n:]):
                raise ValueError("system is rank deficient")
            x = [0] * n
            for r in range(n - 1, -1, -1):
                x[r] = mul(unpack(b, n)[r], inv_diag[r])
                b = axpy(b, x[r], above[r])
            xs.append(x)
        return xs

    def div_exact(self, rem: list[int], src: list) -> tuple[int, ...]:
        while rem and not rem[-1]:
            rem.pop()
        db, axpy = src[-1][0], self.axpy  # db: the divisor's degree
        if not db:
            return tuple(rem)
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db]
            if c:
                quot[i] = c
                axpy(rem, c, src, i)  # adds c * -b, which clears rem[i + db]
        if any(rem):
            raise ArithmeticError("polynomial division leaves a remainder")
        return tuple(quot)


class _LogLists(_CodeLists):
    """GF(2^m) with tables: entries hold (j, log v); an update is a lookup and an XOR."""

    __slots__ = ("log", "qm1", "exp2")

    def __init__(self, exp: Sequence[int], log: Sequence[int]):
        # axpy adds two logs in [0, q - 2] and reads the sum in exp2
        self.log, self.qm1, self.exp2 = log, len(exp), exp + exp

    def prep(self, row: Sequence[int], scale: int = 1) -> list[tuple[int, int]]:
        if not scale:
            return []
        log, qm1 = self.log, self.qm1
        ls = log[scale]
        return [(j, (log[v] + ls) % qm1) for j, v in enumerate(row) if v]

    def axpy(self, dst: list, factor: int, src: list, off: int = 0) -> list[int]:
        if not factor:
            return dst
        exp2, lf = self.exp2, self.log[factor]
        if off:
            for j, lv in src:
                dst[off + j] ^= exp2[lf + lv]
        else:
            # most callers pass no offset, and the add costs about 10% per
            # entry on 85- to 257-entry GF(2^10) and GF(2^16) rows (CPython 3.11)
            for j, lv in src:
                dst[j] ^= exp2[lf + lv]
        return dst

    def matvec(self, vec: Sequence[int], rows: Sequence[list], width: int) -> list[int]:
        dst = [0] * width
        exp2, log = self.exp2, self.log
        for x, row in zip(vec, rows):
            if x:
                lx = log[x]
                for j, lv in row:
                    dst[j] ^= exp2[lx + lv]
        return dst


class _PrimeLists(_CodeLists):
    """GF(p): entries hold (j, v); an update is (d + f * v) % p, inline."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def prep(self, row: Sequence[int], scale: int = 1) -> list[tuple[int, int]]:
        if not scale:
            return []
        if scale == 1:
            return [(j, v) for j, v in enumerate(row) if v]
        p = self.p
        return [(j, scale * v % p) for j, v in enumerate(row) if v]

    def axpy(self, dst: list, factor: int, src: list, off: int = 0) -> list[int]:
        if factor:
            p = self.p
            for j, v in src:
                dst[off + j] = (dst[off + j] + factor * v) % p
        return dst

    def matvec(self, vec: Sequence[int], rows: Sequence[list], width: int) -> list[int]:
        dst = [0] * width
        p = self.p
        for x, row in zip(vec, rows):
            if x:
                for j, v in row:
                    dst[j] = (dst[j] + x * v) % p
        return dst


class _MulLists(_CodeLists):
    """Every other field: entries hold (j, v); an update calls scalar multiply and add.

    With spread (odd p above the table cap) v is held spread, as mul takes
    it, and axpy and matvec spread each factor once, not once per entry."""

    __slots__ = ("mul", "add", "spread")

    def __init__(self, mul: Callable, add: Callable, spread: Callable | None = None):
        # with spread, mul takes both arguments spread and returns a code
        self.mul, self.add, self.spread = mul, add, spread

    def prep(self, row: Sequence[int], scale: int = 1) -> list[tuple[int, int]]:
        if not scale:
            return []
        if spread := self.spread:
            row = row if scale == 1 else self.scaled(scale, row)
            return [(j, spread(v)) for j, v in enumerate(row) if v]
        if scale == 1:
            return [(j, v) for j, v in enumerate(row) if v]
        mul = self.mul
        return [(j, mul(scale, v)) for j, v in enumerate(row) if v]

    def axpy(self, dst: list, factor: int, src: list, off: int = 0) -> list[int]:
        if factor:
            mul, add = self.mul, self.add
            factor = self.spread(factor) if self.spread else factor
            for j, v in src:
                dst[off + j] = add(dst[off + j], mul(factor, v))
        return dst

    def matvec(self, vec: Sequence[int], rows: Sequence[list], width: int) -> list[int]:
        dst = [0] * width
        mul, add, spread = self.mul, self.add, self.spread
        for x, row in zip(vec, rows):
            if x:
                x = spread(x) if spread else x
                for j, v in row:
                    dst[j] = add(dst[j], mul(x, v))
        return dst


class _LaneKernel:
    """Rows of GF(2^m), m <= 8, as ints with one byte lane per entry.

    The sum of two rows is one XOR of their ints and c * row is
    row.translate(tables[c]) on its bytes, both in C; prepared rows are
    bytes. Packing costs a few calls, so short rows stay in code lists.
    """

    __slots__ = ("tables",)

    def __init__(self, spec: FieldSpec):
        # tables[c][x] = c * x: exp rotated by log c and read through log;
        # log of 0 reads index 255, one past every log, which holds a zero
        exp, log, q = spec._exp, spec._log, spec.q
        rotations = bytes([*exp, *exp])  # the values: bytes() of an array reads its buffer
        pad = bytes(257 - q)
        by_log = bytes([255, *log[1:]] + [255] * (256 - q))
        self.tables = [bytes(256)] + [
            by_log.translate(rotations[k : k + q - 1] + pad) for k in log[1:]
        ]

    @staticmethod
    def pack(codes: Sequence[int]) -> int:
        return int.from_bytes(bytes(codes), "little")

    @staticmethod
    def unpack(row: int, width: int) -> bytes:
        return row.to_bytes(width, "little")

    zero = int

    def prep(self, codes: Sequence[int], scale: int = 1) -> bytes:
        row = bytes(codes)
        return row if scale == 1 else row.translate(self.tables[scale])

    def axpy(self, row: int, factor: int, src: bytes, off: int = 0) -> int:
        if not factor:
            return row
        return row ^ int.from_bytes(src.translate(self.tables[factor]), "little") << 8 * off

    def axpys(self, rows: list, start: int, columns: Iterable, srcs: Iterable, scale=1) -> None:
        tables, unpack = self.tables, int.from_bytes
        for factors, codes in zip(columns, srcs):
            if any(factors):
                src = codes if scale == 1 else codes.translate(tables[scale])
                for i, f in enumerate(factors, start):
                    if f:
                        rows[i] ^= unpack(src.translate(tables[f]), "little")

    def matvec(self, factors: Sequence[int], srcs: Sequence[bytes], width: int) -> list[int]:
        tables, unpack = self.tables, int.from_bytes
        acc = 0
        for x, src in zip(factors, srcs):
            if x:
                acc ^= unpack(src.translate(tables[x]), "little")
        return list(acc.to_bytes(width, "little"))

    def scaled(self, factor: int, codes: Sequence[int]) -> list[int]:
        return list(bytes(codes).translate(self.tables[factor]))

    def scaled_rows(self, factors: Sequence[int], srcs: Sequence[bytes], width: int) -> list:
        return list(map(bytes.translate, srcs, map(self.tables.__getitem__, factors)))

    def eliminate(self, rows: Sequence, ncols: int, spec: FieldSpec, record: list | None) -> tuple:
        # the rows from the pivot's on are one big-endian int, acc, and its
        # bytes, data: column c is every ncols-th byte from c. A step adds
        # f * src to each of those rows, f its entry c and src the pivot row
        # over the pivot (-1 / x = 1 / x in GF(2^m)), by one XOR of their
        # join; the pivot row's own f is the pivot, so that XOR also clears
        # it off acc's top.
        tables, from_bytes, inv = self.tables, int.from_bytes, spec._inv_code
        data = b"".join(map(bytes, rows))
        acc, nrows, upper, pivots, swaps = from_bytes(data, "big"), len(rows), [], [], 0
        for c in range(ncols):
            if not data:
                break
            col = data[c::ncols]
            rest = col.lstrip(b"\0")
            if not rest:
                continue
            k = len(col) - len(rest)
            if k:
                s = k * ncols
                data = data[s : s + ncols] + data[ncols:s] + data[:ncols] + data[s + ncols :]
                acc, col = from_bytes(data, "big"), data[c::ncols]
                swaps += 1
            scale = tables[inv(rest[0])]
            if record is not None:
                record.append((len(upper) + k, col[1:].translate(scale)))
            upper.append(data[:ncols])
            if rest.count(0) == len(rest) - 1:
                # no row below the pivot has an entry in its column: the
                # pivot row leaves the block, and no other row changes
                data = data[ncols:]
                acc &= (1 << 8 * len(data)) - 1
            else:
                src = upper[-1].translate(scale)
                acc ^= from_bytes(b"".join([src.translate(tables[f]) for f in col]), "big")
                data = acc.to_bytes(len(data) - ncols, "big")
            pivots.append(c)
        # every column is done, so the rows left are zero
        return upper + [bytes(ncols)] * (nrows - len(upper)), pivots, swaps

    def solve(self, factors: "FqFactors", cols: Iterable[Sequence[int]]) -> list[list[int]]:
        # a column is one big-endian int, entry k in lane m - 1 - k, so step k's
        # multipliers for rows k + 1 on are its low lanes; back substitution
        # drops solved lanes off the low end and XORs in the upper rows' columns
        m, n, steps = factors.nrows, factors.ncols, factors.steps
        tables, from_bytes, inv = self.tables, int.from_bytes, factors.spec._inv_code
        # U[:r, r] and the table of 1 / U[r, r] for each column r of U
        flat = b"".join(factors.upper)
        above = [flat[r : r * n : n] for r in range(n)]
        divide = [tables[inv(u)] for u in flat[:: n + 1]]
        low = (1 << 8 * (m - n)) - 1  # the lanes of rows n on
        xs = []
        for col in cols:
            b = from_bytes(bytes(col), "big")
            for k, (p, mults) in enumerate(steps):
                if p != k:
                    sk, sp = 8 * (m - 1 - k), 8 * (m - 1 - p)
                    d = (b >> sk ^ b >> sp) & 255
                    b ^= d << sk | d << sp
                f = b >> 8 * (m - 1 - k) & 255
                if f:
                    b ^= from_bytes(mults.translate(tables[f]), "big")
            if b & low:
                raise ValueError("system is rank deficient")
            b >>= 8 * (m - n)
            x = [0] * n
            for r in range(n - 1, -1, -1):
                x[r] = f = divide[r][b & 255]
                b >>= 8
                if f:
                    b ^= from_bytes(above[r].translate(tables[f]), "big")
            xs.append(x)
        return xs

    def mul_into(self, row: int, a: Sequence[int], src: bytes) -> int:
        tables, unpack, shift = self.tables, int.from_bytes, 0
        for x in a:
            if x:
                row ^= unpack(src.translate(tables[x]), "little") << shift
            shift += 8
        return row

    def div_exact(self, rem: int, src: bytes) -> bytes:
        # src is monic: a step clears top lane c by c * src, the quotient's code
        top = 8 * len(src) - 8
        if not top:
            return rem.to_bytes(rem.bit_length() + 7 >> 3, "little")
        tables, unpack, quot = self.tables, int.from_bytes, 0
        while rem >> top:
            shift = rem.bit_length() - 1 & -8
            c = rem >> shift
            shift -= top
            quot |= c << shift
            rem ^= unpack(src.translate(tables[c]), "little") << shift
        if rem:
            raise ArithmeticError("polynomial division leaves a remainder")
        return quot.to_bytes(quot.bit_length() + 7 >> 3, "little")


class _PackedKernel:
    """Rows as ints with one 8-, 16-, 32- or 64-bit lane per entry, in GF(2^m)
    for 8 < m <= 24 and in every field of odd p <= _PACKED_MAX_P, packed and
    unpacked by one array conversion each.

    In GF(2^m) a lane holds a code's bits in 16 bits (32 for m > 16), and a
    sum of rows is one XOR. x * row shifts every lane up a bit and adds the
    tail x^m mod f to each lane whose top bit left; a prepared src holds
    x^k * row for k < m, and f * src XORs those that f's bits select.

    In odd characteristic digit i of a code sits in field i of its lane, of
    w = (2p - 2).bit_length() bits, which hold a sum of two reduced digits.
    An add is one integer add and one SWAR reduction (simultaneous modular
    reduction, Dumas, Fousse & Salvy 2011): t = (R + bias) >> (w - 1) & ones;
    R -= p * t, with bias = 2^(w-1) - p in each field. x * row shifts every
    field up one and folds the top digit back through x^m mod f, reduced. A
    prepared src holds its (ones, bias) masks, then the reduced d * x^k * row
    at k * p + d; f * src adds those that f's base-p digits select. pack
    spreads codes through two half-code tables; unpack merges fields pairwise.

    A row scaled by one factor f (scaled, and prep(codes, f) before it
    prepares the product) makes only the multiples that f selects.
    """

    __slots__ = (
        "p", "m", "code", "bits", "w", "tail", "lanes", "masks", "spread", "merges", "axpy",
        "_multiples",
    )

    def __init__(self, spec: FieldSpec):
        p, m = self.p, self.m = spec.p, spec.m
        if p == 2:
            self.code, self.bits = ("H", 16) if m <= 16 else ("I", 32)
            self.tail = spec._mod_bits ^ 1 << m
            # bit 0 and bits 0 to m - 2 of a lane
            self.lanes = (1, (1 << m - 1) - 1)
            self.spread, self.merges = None, ()
            self.axpy, self._multiples = self._xor_axpy, self._bit_multiples
        else:
            w = self.w = (2 * p - 2).bit_length()
            self.code, self.bits = next(cb for cb in zip("BHIQ", (8, 16, 32, 64)) if cb[1] >= m * w)
            fields = sum(1 << w * i for i in range(m))
            # lane masks: bit 0, fields 0 to m - 2, bit 0 and the bias of each field, field
            # 0; then each merge's low fields, and those whose high one is in the lane
            lanes = [1, (1 << w * m - w) - 1, fields, fields * ((1 << w - 1) - p), (1 << w) - 1]
            bits = self.bits
            self.merges = tuple((w << j, p ** (1 << j)) for j in range((m - 1).bit_length()))
            for f, _ in self.merges:
                low = sum((1 << f) - 1 << g for g in range(0, bits, 2 * f)) & (1 << bits) - 1
                lanes += [low, low & (1 << bits - f) - 1]
            self.lanes = tuple(lanes)
            # 2^b * x^m mod f, spread, for the w - 1 bits b of a digit
            xm = [-c % p for c in spec.modulus[:m]]
            self.tail = [sum((c << b) % p << w * i for i, c in enumerate(xm)) for b in range(w - 1)]
            # pack's tables: a code's low h digits spread, and its high ones
            h, lo = (m + 1) // 2, [0]
            for i in range(h):
                lo = [s + (d << w * i) for d in range(p) for s in lo]
            self.spread = None if m == 1 else (lo, [s << w * h for s in lo[: p ** (m - h)]], p**h)
            self.axpy, self._multiples = self._digit_axpy, self._digit_multiples
        # (width, the lane masks over width lanes) for the widest row so far, which mask
        # narrower rows too; one tuple, so no reader sees masks narrower than the width
        self.masks = (0,) + (0,) * len(self.lanes)

    def _masks(self, width: int) -> tuple:
        masks = self.masks
        if width > masks[0]:
            lanes = (array(self.code, [lane]) * width for lane in self.lanes)
            self.masks = masks = (width,) + tuple(int.from_bytes(a, "little") for a in lanes)
        return masks

    def pack(self, codes: Sequence[int]) -> int:
        if self.spread:
            lo, hi, b = self.spread
            codes = array(self.code, [lo[c % b] + hi[c // b] for c in codes])
        return int.from_bytes(codes if type(codes) is array else array(self.code, codes), "little")

    def unpack(self, row: int, width: int) -> array:
        if self.merges:
            lows = iter(self._masks(width)[6:])
            for (shift, scale), low, paired in zip(self.merges, lows, lows):
                row = (row & low) + (row >> shift & paired) * scale
        return array(self.code, row.to_bytes(width * self.bits >> 3, "little"))

    def column(self, rows: list[int], start: int, c: int) -> list[int]:
        """Entry c of each row from rows[start] on, for eliminate."""
        shift, mask = self.bits * c, (1 << self.bits) - 1
        col = [row >> shift & mask for row in rows[start:]]
        if not self.merges:
            return col
        return self.unpack(int.from_bytes(array(self.code, col), "little"), len(col)).tolist()

    def _bit_multiples(self, row: int, width: int, f: int | None = None) -> list[int] | int:
        """x^k * row for k < m, for a row of at most width entries; or, given
        f, f * row, with row stepped by x only up to f's top bit."""
        _, ones, low = self._masks(width)
        top, tail = self.m - 1, self.tail
        if f is not None:
            out = 0
            while True:
                if f & 1:
                    out ^= row
                f >>= 1
                if not f:
                    return out
                row = (row & low) << 1 ^ (row >> top & ones) * tail
        mults = [row]
        for _ in range(top):
            row = (row & low) << 1 ^ (row >> top & ones) * tail
            mults.append(row)
        return mults

    def _digit_multiples(self, row: int, width: int, f: int | None = None) -> list | int:
        """(fields, bias) of width lanes, then d * x^k * row at k * p + d, 0 < d < p,
        k < m; or, given f, f * row, from only the d * x^k * row that f's base-p
        digits select, each by doubling and adding, with x^k * row made only
        up to f's top digit."""
        widest, ones, low, fields, bias, digit = self._masks(width)[:6]
        cut = self.bits * (widest - width)
        fields, bias = fields >> cut, bias >> cut
        p, w, tail = self.p, self.w, self.tail
        w1, top = w - 1, w * (self.m - 1)
        mults: list = [(fields, bias)]
        out = 0
        for k in range(self.m):
            if k:
                t = row >> top & digit
                row = (row & low) << w
                fold = (t & ones) * tail[0]
                for b in range(1, len(tail)):
                    fold += (t >> b & ones) * tail[b]
                    fold -= p * ((fold + bias) >> w1 & fields)
                row += fold
                row -= p * ((row + bias) >> w1 & fields)
                mults.append(0)
            if f is None:
                mults.append(row)
                acc = row
                for _ in range(p - 2):
                    acc += row
                    acc -= p * ((acc + bias) >> w1 & fields)
                    mults.append(acc)
                continue
            f, d = divmod(f, p)
            if d:
                acc = row
                for bit in bin(d)[3:]:
                    acc += acc
                    acc -= p * ((acc + bias) >> w1 & fields)
                    if bit == "1":
                        acc += row
                        acc -= p * ((acc + bias) >> w1 & fields)
                out += acc
                out -= p * ((out + bias) >> w1 & fields)
            if not f:
                return out
        return mults

    def prep(self, codes: Sequence[int], scale: int = 1) -> list:
        width, row = len(codes), self.pack(codes)
        return self._multiples(row if scale == 1 else self._multiples(row, width, scale), width)

    def _xor_axpy(self, row: int, factor: int, src: list, off: int = 0) -> int:
        out, k = 0, 0
        while factor:
            if factor & 1:
                out ^= src[k]
            factor >>= 1
            k += 1
        return row ^ out << self.bits * off

    def _digit_axpy(self, row: int, factor: int, src: list, off: int = 0) -> int:
        (fields, bias), p, w1, shift = src[0], self.p, self.w - 1, self.bits * off
        if shift:
            fields, bias = fields << shift, bias << shift
        k = 0
        while factor:
            factor, d = divmod(factor, p)
            if d:
                row += src[k + d] << shift
                row -= p * ((row + bias) >> w1 & fields)
            k += p
        return row

    # the code lists' loops: axpy returns the updated row, which they store
    axpys, eliminate, solve = _CodeLists.axpys, _CodeLists.eliminate, _CodeLists.solve

    def matvec(self, factors: Sequence[int], srcs: Sequence[list], width: int) -> list[int]:
        acc, axpy = 0, self.axpy
        for x, src in zip(factors, srcs):
            if x:
                acc = axpy(acc, x, src)
        return self.unpack(acc, width).tolist()

    def scaled(self, factor: int, codes: Sequence[int]) -> list[int]:
        width = len(codes)
        return self.unpack(self._multiples(self.pack(codes), width, factor), width).tolist()


# One spec per field, so its tables and generator are computed once per
# process. Keys are (p, m, None) for the default modulus and
# (p, m, modulus) for an explicit one; only validated fields get in.
_FIELDS: dict[tuple, FieldSpec] = {}


def build_field(p: int, m: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """The shared GF(p^m) spec.

    When modulus is omitted the monic irreducible of degree m with the
    smallest integer encoding is selected, which makes independent runs
    agree on the representation. A supplied modulus must be monic, of
    degree exactly m, with coefficients in [0, p), lowest power first.
    Equal arguments return the same instance.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    mod = None if modulus is None else tuple(int(c) for c in modulus)
    spec = _FIELDS.get((p, m, mod))
    if spec is not None:
        return spec
    if mod is None:
        for low in range(p**m):
            cand = tuple(_digits(low, p, m) + [1])
            if _pf_is_irreducible(cand, p):
                break
        else:  # pragma: no cover - irreducibles exist in every degree
            raise NetcodeError("no irreducible modulus found")
    else:
        if len(mod) != m + 1:
            raise ValueError(f"modulus must have degree exactly {m}")
        if mod[-1] != 1:
            raise ReducibleModulus("modulus must be monic")
        if any(not 0 <= c < p for c in mod):
            raise ValueError("modulus coefficients out of range")
        if not _pf_is_irreducible(mod, p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
        cand = mod
    spec = _FIELDS.get((p, m, cand)) or FieldSpec(p, m, cand)
    _FIELDS[(p, m, cand)] = _FIELDS[(p, m, mod)] = spec
    return spec


def spec_to_dict(spec: FieldSpec) -> dict:
    return {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)}


def _int(x, path: str, *args) -> int:
    """A JSON integer, or a ParseError naming where it sits.

    With args, the path is path.format(*args), built only on failure.
    """
    if type(x) is not int:
        raise ParseError(f"{path.format(*args) if args else path} must be an integer, got {x!r}")
    return x


def _list(x, path: str, *args) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{path.format(*args) if args else path} must be a list, got {x!r}")
    return x


def _check_field_order(p: int, m: int, path: str) -> None:
    """ParseError naming path if GF(p^m) is past the limit; p**m stays small."""
    bits = _MAX_FIELD_ORDER.bit_length()  # p >= 2 and m >= bits: too large
    if p > 1 and m > 0 and (p > _MAX_FIELD_ORDER or m >= bits or p**m > _MAX_FIELD_ORDER):
        raise ParseError(f"{path}: GF({p}^{m}) is larger than the limit of 2^{bits - 1} elements")


def spec_from_dict(d: dict, path: str = "field") -> FieldSpec:
    """The field of a {p, m, modulus} object; path names it in a ParseError."""
    if not isinstance(d, dict):
        raise ParseError(f"{path} must be an object with p and m, got {d!r}")
    p, m, mod = _int(d.get("p"), f"{path}.p"), _int(d.get("m"), f"{path}.m"), d.get("modulus")
    _check_field_order(p, m, path)
    if mod is not None:
        mod = [_int(c, f"{path}.modulus") for c in _list(mod, f"{path}.modulus")]
    return build_field(p, m, mod)


# ----------------------------------------------------------------------
# elements
# ----------------------------------------------------------------------


class FieldElement:
    """One element of a FieldSpec, stored by its integer encoding."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec._codec().tuple_of(self.code)

    def _valid(self) -> int:
        """The code, refused unless it is in [0, q): the constructor takes
        any int, and arithmetic must not read tables past their end."""
        if 0 <= self.code < self.spec.q:
            return self.code
        raise ValueError(f"code {self.code!r} is not a code of {self.spec}")

    def _check(self, other: "FieldElement") -> tuple[int, int]:
        if self.spec != other.spec:
            raise ValueError(f"mixed fields: {self.spec} and {other.spec}")
        return self._valid(), other._valid()

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec, self.spec._add_codes(*self._check(other)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._neg_code(self._valid()))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.spec, self.spec._mul_codes(*self._check(other)))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        a, b = self._check(other)
        return FieldElement(self.spec, self.spec._mul_codes(a, self.spec._inv_code(b)))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._inv_code(self._valid()))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec._pow_code(self._valid(), e))

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.code == other.code
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.code))

    def __repr__(self) -> str:
        return f"<{self.spec._codec().str_of(self.code)} in {self.spec!r}>"


def element_of_order(spec: FieldSpec, n: int) -> FieldElement:
    """The deterministic element of multiplicative order n.

    Returns g**((q-1)//n) for the fixed generator g, the smallest power of
    g with that order. Raises NoSuchElement when n does not divide q-1.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if (spec.q - 1) % n != 0:
        raise NoSuchElement(f"no element of order {n} in {spec!r}")
    return FieldElement(spec, spec._pow_code(spec._gen_code, (spec.q - 1) // n))


# ----------------------------------------------------------------------
# matrices over the field
# ----------------------------------------------------------------------


class FqMatrix:
    """Dense matrix over one FieldSpec, entries stored as integer codes."""

    __slots__ = ("spec", "nrows", "ncols", "rows")

    def __init__(self, spec: FieldSpec, rows: list[list[int]]):
        self.spec = spec
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, spec: FieldSpec, nrows: int, ncols: int) -> "FqMatrix":
        return cls(spec, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FqMatrix":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
        return cls(spec, rows)

    # -- accessors -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.spec, self.rows[i][j])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "FqMatrix":
        return FqMatrix(
            self.spec, [[self.rows[i][j] for j in col_idx] for i in row_idx]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FqMatrix)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"<FqMatrix {self.nrows}x{self.ncols} over {self.spec!r}>"

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "FqMatrix") -> None:
        if self.spec != other.spec:
            raise ValueError("mixed fields")

    def __add__(self, other: "FqMatrix") -> "FqMatrix":
        self._check(other)
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        lists = self.spec._lists
        rows = [lists.axpy(list(ra), 1, lists.prep(rb)) for ra, rb in zip(self.rows, other.rows)]
        return FqMatrix(self.spec, rows)

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        return self + other.scale(-other.spec.one())

    def scale(self, s: FieldElement) -> "FqMatrix":
        if s.spec != self.spec:
            raise ValueError("mixed fields")
        code, scaled = s._valid(), self.spec._kernel(self.ncols).scaled
        return FqMatrix(self.spec, [scaled(code, row) for row in self.rows])

    def __mul__(self, other: "FqMatrix | FieldElement") -> "FqMatrix":
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        spec = self.spec
        # row i of the product is the sum over j of a_ij * B[j, :]; when A is
        # taller than B is wide, the loop runs on the transposed operands,
        # fewer matvec calls on longer rows: column k is the sum over j of
        # b_jk * A[:, j]
        a, b, width = self.rows, other.rows, other.ncols
        flip = self.nrows > width
        if flip:
            a, b, width = list(zip(*b)), list(zip(*a)), self.nrows
        kern = spec._kernel(width)
        srcs = [kern.prep(row) for row in b]
        out = [kern.matvec(arow, srcs, width) for arow in a]
        if flip:
            out = [list(row) for row in zip(*out)] if out else [[] for _ in self.rows]
        return FqMatrix(spec, out)

    __matmul__ = __mul__

    @classmethod
    def hstack(cls, blocks: Sequence["FqMatrix"]) -> "FqMatrix":
        spec = blocks[0].spec
        nrows = blocks[0].nrows
        for b in blocks:
            if b.spec != spec or b.nrows != nrows:
                raise ValueError("incompatible blocks")
        rows = [sum((b.rows[i] for b in blocks), []) for i in range(nrows)]
        return cls(spec, rows)

    # -- elimination-based queries -------------------------------------

    def _eliminate(self, record: list | None = None) -> tuple[list, list[int], int]:
        """Forward-eliminate a copy of the rows: (echelon rows, pivot columns, swaps).

        The loop is the eliminate of the row kernel of the rows' width:
        byte lanes run their own, and code lists and packed lanes share
        one. The rows come back unpacked. With record a list, each pivot
        step k appends (p, mults): row p was swapped into place k, then row
        k + 1 + i gained m times row k for each entry m at position i of
        the prepared row mults. Every kernel gives the same rows, pivots,
        swaps and steps, the steps in its own prepared form. The replay is
        FqFactors.solve.
        """
        return self.spec._kernel(self.ncols).eliminate(self.rows, self.ncols, self.spec, record)

    def factor(self) -> "FqFactors":
        """The forward elimination of self, recorded so right-hand sides can replay it."""
        steps: list = []
        rows, pivots, _ = self._eliminate(steps)
        return FqFactors(self.spec, self.nrows, self.ncols, pivots, steps, rows[: len(pivots)])

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def det(self) -> FieldElement:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        work, pivots, swaps = self._eliminate()
        spec = self.spec
        if len(pivots) < self.nrows:
            return spec.zero()
        acc = 1
        for i, c in enumerate(pivots):
            acc = spec._mul_codes(acc, work[i][c])
        if swaps % 2:
            acc = spec._neg_code(acc)
        return FieldElement(spec, acc)

    def inverse(self) -> "FqMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        return self.solve(FqMatrix.identity(self.spec, self.nrows))

    def solve(self, rhs: "FqMatrix") -> "FqMatrix":
        """Solve self @ X = rhs exactly: self.factor().solve(rhs)."""
        return self.factor().solve(rhs)


class FqFactors:
    """The recorded forward elimination of an nrows x ncols matrix A.

    steps holds each pivot step's swap and multipliers (see
    FqMatrix._eliminate) and upper the rank nonzero echelon rows, both in
    the forms of the row kernel of A's width, whose solve replays them one
    right-hand-side column at a time.
    """

    __slots__ = ("spec", "nrows", "ncols", "pivots", "steps", "upper")

    def __init__(
        self, spec: FieldSpec, nrows: int, ncols: int, pivots: list[int], steps: list, upper: list
    ):
        self.spec = spec
        self.nrows = nrows
        self.ncols = ncols
        self.pivots = pivots
        self.steps = steps
        self.upper = upper

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, rhs: FqMatrix) -> FqMatrix:
        """Solve A @ X = rhs exactly.

        Each column of rhs replays the steps and is back-substituted, in
        O(nrows * ncols). Requires full column rank and a consistent
        system; the solution is then unique even when A is tall. An
        inconsistent rhs raises "system is rank deficient", as a
        rank-deficient A does: appended to A, it would raise the rank.
        """
        if rhs.spec != self.spec:
            raise ValueError("mixed fields")
        if rhs.nrows != self.nrows:
            raise ValueError("right-hand side has wrong number of rows")
        xs = self._solve(zip(*rhs.rows))
        rows = [list(row) for row in zip(*xs)] if xs else [[] for _ in range(self.ncols)]
        return FqMatrix(self.spec, rows)

    def _solve(self, cols: Iterable[Sequence[int]]) -> list[list[int]]:
        """solve on codes: the solution of each column of nrows codes, from
        the solve of the row kernel that recorded the steps."""
        if len(self.pivots) < self.ncols:
            raise ValueError("system is rank deficient")
        return self.spec._kernel(self.ncols).solve(self, cols)


# ----------------------------------------------------------------------
# evaluation at the powers of an element: the DFT
# ----------------------------------------------------------------------


def _dft(
    spec: FieldSpec, polys: Sequence[Sequence[int]], a: int, n: int, scale: int = 1
) -> list[list[int]]:
    """scale * f(a^k) for k < n, for each code list f in polys.

    a and scale are nonzero codes of spec and a^n = 1, so degree d reads
    power (d mod n) k mod n. Every n-point evaluation in the package is a
    call here.
    """
    mul, degrees = spec._mul_codes, max(map(len, polys), default=0)
    powers = [scale]
    for _ in range(n - 1 if degrees > 1 else 0):  # constants need no power of a
        powers.append(mul(powers[-1], a))
    kern = spec._kernel(n)
    # the column of exponent e > 0, scale * a^(ek) for k < n, is every e-th
    # entry of the powers repeated, in the kernel's code sequence; each is
    # built once for all polys and dropped before the next degree
    ring = kern.unpack(kern.pack(powers), n) * min(n, degrees)
    cols = (ring[: e * n : e] if e else ring[:1] * n for e in islice(cycle(range(n)), degrees))
    zero = kern.unpack(kern.pack([0]), 1) * n  # n zero codes, unpacked
    accs = [kern.pack(zero) for _ in polys]
    kern.axpys(accs, 0, zip_longest(*polys, fillvalue=0), cols)
    return [list(kern.unpack(acc, n)) for acc in accs]


# ----------------------------------------------------------------------
# univariate polynomials over the field (indeterminate written D)
# ----------------------------------------------------------------------


def _horner(spec: FieldSpec, codes: Sequence[int], x: int) -> int:
    """The code of sum codes[d] x^d in spec, codes lowest power first."""
    mul, add = spec._mul_codes, spec._add_codes
    acc = 0
    for c in reversed(codes):
        acc = add(mul(acc, x), c)
    return acc


class Poly:
    """Polynomial with FieldElement coefficients, lowest power first."""

    __slots__ = ("spec", "codes")

    def __init__(self, spec: FieldSpec, codes: Sequence[int]):
        trimmed = list(codes)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.spec = spec
        self.codes = tuple(trimmed)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (1,))

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.codes) - 1

    def coeff(self, d: int) -> FieldElement:
        code = self.codes[d] if 0 <= d < len(self.codes) else 0
        return FieldElement(self.spec, code)

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.spec == other.spec
            and self.codes == other.codes
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.codes))

    def _valid(self) -> tuple[int, ...]:
        """The codes, refused as FieldElement refuses one outside [0, q)."""
        codes, q = self.codes, self.spec.q
        if codes and (min(codes) < 0 or max(codes) >= q):
            FieldElement(self.spec, next(c for c in codes if not 0 <= c < q))._valid()
        return codes

    def _check(self, other: "Poly") -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self.spec != other.spec:
            raise ValueError("mixed fields")
        return self._valid(), other._valid()

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self._check(other)
        if len(a) < len(b):
            a, b = b, a
        lists = self.spec._lists
        return Poly(self.spec, lists.axpy(list(a), 1, lists.prep(b)))

    def __neg__(self) -> "Poly":
        return self * -self.spec.one()

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | FieldElement") -> "Poly":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("mixed fields")
            scaled = self.spec._kernel(len(self.codes)).scaled
            return Poly(self.spec, scaled(other._valid(), self._valid()))
        a, b = sorted(self._check(other), key=len)  # lanes translate b once per code of a
        kern = self.spec._poly
        out = kern.mul_into(kern.zero(), a, kern.prep(b))
        return Poly(self.spec, kern.unpack(out, max(len(a) + len(b) - 1, 0)))

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        self._valid()
        out, base = Poly.one(self.spec), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def shift(self, k: int) -> "Poly":
        """Multiply by D**k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.codes:
            return self
        return Poly(self.spec, (0,) * k + self.codes)

    def eval(self, x: FieldElement) -> FieldElement:
        """Evaluate at x, embedding coefficients if x lives in an extension."""
        codes, at = _lift(self.spec, x.spec, self._valid()), x._valid()
        return FieldElement(x.spec, _horner(x.spec, codes, at))

    def __repr__(self) -> str:
        return f"<Poly {self.format_str()} over {self.spec!r}>"

    def format_str(self) -> str:
        if not self._valid():
            return "0"
        str_of = self.spec._codec().str_of
        terms = []
        for d, c in enumerate(self.codes):
            if c == 0:
                continue
            cs = str_of(c)
            if d == 0:
                terms.append(cs if "+" not in cs else f"({cs})")
                continue
            base = "D" if d == 1 else f"D^{d}"
            if c == 1:
                terms.append(base)
            elif "+" in cs:
                terms.append(f"({cs}){base}")
            else:
                terms.append(f"{cs}{base}")
        return " + ".join(terms)


class PolyMatrix:
    """Matrix of Poly entries over one field."""

    __slots__ = ("spec", "nrows", "ncols", "rows")

    def __init__(self, spec: FieldSpec, rows: list[list[Poly]]):
        self.spec = spec
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def zeros(cls, spec: FieldSpec, nrows: int, ncols: int) -> "PolyMatrix":
        return cls(spec, [[Poly.zero(spec) for _ in range(ncols)] for _ in range(nrows)])

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix(
            self.spec, [[self.rows[i][j] for j in col_idx] for i in row_idx]
        )

    def max_degree(self) -> int:
        return max((p.degree() for row in self.rows for p in row), default=-1)

    def coeff_matrix(self, d: int) -> FqMatrix:
        return FqMatrix(
            self.spec,
            [
                [p.codes[d] if 0 <= d < len(p.codes) else 0 for p in row]
                for row in self.rows
            ],
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def det(self) -> Poly:
        """Determinant by fraction-free (Bareiss) elimination over F_q[D].

        Step k sets a_ij = (a_kk a_ij - a_ik a_kj) / a_(k-1)(k-1) for
        i, j > k; every division is exact, so entries stay polynomials.
        Products and divisions run in byte lanes in GF(2^m), m <= 8, at any
        size, and in the field's code lists otherwise.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        spec, n = self.spec, self.nrows
        a = [[p.codes for p in row] for row in self.rows]
        Poly(spec, list(chain.from_iterable(chain.from_iterable(a))))._valid()
        kern = spec._poly
        zero, prep, mul_into, div_exact = kern.zero, kern.prep, kern.mul_into, kern.div_exact
        prev, negate = (1,), False
        for k in range(n - 1):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                return Poly.zero(spec)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                negate = not negate
            # numerators carry s = 1 / lead(prev), so the divisor is monic
            s = spec._inv_code(prev[-1])
            minus_s = spec._neg_code(s)
            monic = prep(prev, minus_s)
            row_k = a[k]
            akk_src = prep(row_k[k], s)
            rest = [(j, prep(row_k[j], minus_s)) for j in range(k + 1, n)]
            for row_i in a[k + 1 :]:
                aik = row_i[k]
                for j, minus_akj in rest:
                    out = mul_into(mul_into(zero(), row_i[j], akk_src), aik, minus_akj)
                    row_i[j] = div_exact(out, monic)
            prev = row_k[k]
        det = Poly(spec, a[-1][-1] if n else (1,))  # the last pivot
        return -det if negate else det

    def __repr__(self) -> str:
        return f"<PolyMatrix {self.nrows}x{self.ncols} over {self.spec!r}>"


def poly_eval_matrix(pm: PolyMatrix, x: FieldElement) -> FqMatrix:
    """Evaluate every entry at x; x may live in an extension field."""
    return FqMatrix(
        x.spec, [[p.eval(x).code for p in row] for row in pm.rows]
    )


# ----------------------------------------------------------------------
# subfield embeddings
# ----------------------------------------------------------------------


class Embedding:
    """Ring homomorphism GF(p^m) -> GF(p^(m*a)).

    Maps the base field's polynomial generator to the root of the base
    modulus with the smallest encoding in the big field, extended linearly.
    """

    __slots__ = ("sub", "sup", "root")

    def __init__(self, sub: FieldSpec, sup: FieldSpec, root: int):
        self.sub = sub
        self.sup = sup
        self.root = root

    def __call__(self, e: FieldElement) -> FieldElement:
        if e.spec != self.sub:
            raise ValueError("element not in the base field")
        return FieldElement(self.sup, self._map([e.code])[0])

    def _map(self, codes: Sequence[int]) -> list[int]:
        """The images of sub codes: each one's digits evaluated at the root."""
        p, m = self.sub.p, self.sub.m
        return [_horner(self.sup, _digits(c, p, m), self.root) for c in codes]


_EMBED_CACHE: dict[tuple[FieldSpec, FieldSpec], Embedding] = {}


def embed(sub: FieldSpec, sup: FieldSpec) -> Embedding:
    """The deterministic embedding of sub into sup.

    Requires the same characteristic and sub.m dividing sup.m.
    """
    key = (sub, sup)
    cached = _EMBED_CACHE.get(key)
    if cached is not None:
        return cached
    if sub.p != sup.p:
        raise ValueError("different characteristics")
    if sup.m % sub.m != 0:
        raise ValueError(f"{sub!r} does not embed in {sup!r}")
    # every root lies in the order-q_sub subfield, {0} and the powers of h;
    # the roots are the Frobenius conjugates r, r^p, ... of any one of them
    if not _horner(sup, sub.modulus, 0):
        root = 0
    else:
        h = sup._pow_code(sup._gen_code, (sup.q - 1) // (sub.q - 1))
        cand = 1
        for _ in range(sub.q - 1):
            if not _horner(sup, sub.modulus, cand):
                break
            cand = sup._mul_codes(cand, h)
        else:  # pragma: no cover - a root always exists when m | m'
            raise NetcodeError("no root of the base modulus found")
        conjugates = [cand]
        for _ in range(sub.m - 1):
            conjugates.append(sup._pow_code(conjugates[-1], sub.p))
        root = min(conjugates)
    emb = Embedding(sub, sup, root)
    _EMBED_CACHE[key] = emb
    return emb


def _lift(sub: FieldSpec, sup: FieldSpec, codes: Sequence[int]) -> Sequence[int]:
    """Codes of sub mapped into sup by embed; unchanged when the fields agree."""
    return codes if sub == sup else embed(sub, sup)._map(codes)
