"""Exact arithmetic over GF(p^m), with polynomials and matrices on top.

Elements live in the polynomial basis: an element is a vector of m
coefficients over the prime field, lowest power first. All deterministic
choices (auto-selected moduli, the fixed generator, roots used by subfield
embeddings) follow a single ordering, the integer encoding
code = sum_i c_i * p**i, so that independent runs and processes agree on
every artifact down to the bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "NetcodeError",
    "NotPrime",
    "ReducibleModulus",
    "NoSuchElement",
    "WrongOrder",
    "CharacteristicDividesN",
    "FieldSpec",
    "FieldElement",
    "build_field",
    "generator",
    "element_of_order",
    "multiplicative_order",
    "dft_matrix",
    "inverse_dft_matrix",
    "FqMatrix",
    "Poly",
    "PolyMatrix",
    "poly_eval_matrix",
    "Embedding",
    "embed",
    "spec_to_dict",
    "spec_from_dict",
]

# Fields at least this small get exp/log tables; larger ones fall back to
# schoolbook reduction per product.
_TABLE_CAP = 1 << 16


class NetcodeError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(NetcodeError):
    pass


class ReducibleModulus(NetcodeError):
    pass


class NoSuchElement(NetcodeError):
    pass


class WrongOrder(NetcodeError):
    pass


class CharacteristicDividesN(NetcodeError):
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


def _pf_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    # trial division by every monic polynomial of degree up to deg/2
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if coeffs[0] == 0:
        # divisible by x, unless the polynomial is x itself
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            div = _digits(low, p, d) + [1]
            if not _pf_mod(coeffs, div, p):
                return False
    return True


def _digits(code: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def _undigits(vec: Sequence[int], p: int) -> int:
    code = 0
    for c in reversed(vec):
        code = code * p + c
    return code


# ----------------------------------------------------------------------
# field construction
# ----------------------------------------------------------------------


class FieldSpec:
    """GF(p^m) with a fixed monic irreducible modulus of degree m.

    Instances are immutable and hashable; two specs compare equal exactly
    when (p, m, modulus) agree. Construct through :func:`build_field`.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_gen_code")

    def __init__(self, p: int, m: int, modulus: Sequence[int]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = tuple(int(c) for c in modulus)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._gen_code: int | None = None

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

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        if len(coeffs) > self.m:
            raise ValueError(f"at most {self.m} coefficients expected")
        for c in coeffs:
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} out of range [0, {self.p})")
        return FieldElement(self, _undigits(list(coeffs), self.p))

    def scalar(self, c: int) -> "FieldElement":
        """The prime-subfield constant c mod p."""
        return FieldElement(self, c % self.p)

    def elements(self) -> Iterable["FieldElement"]:
        """All q elements in ascending encoding order."""
        return (FieldElement(self, code) for code in range(self.q))

    # -- code-level arithmetic -----------------------------------------

    def _add_codes(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mul = 1
        while a or b:
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def _neg_code(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mul = 1
        while a:
            out += (-a % p) * mul
            a //= p
            mul *= p
        return out

    def _schoolbook_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, m = self.p, self.m
        av = _digits(a, p, m)
        bv = _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ac in enumerate(av):
            if ac:
                for j, bc in enumerate(bv):
                    prod[i + j] = (prod[i + j] + ac * bc) % p
        return _undigits(_pf_mod(prod, list(self.modulus), p), p)

    def _pow_code_slow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._schoolbook_mul(out, base)
            base = self._schoolbook_mul(base, base)
            e >>= 1
        return out

    def _order_of_code(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        order = self.q - 1
        for r in _factorint(self.q - 1):
            while order % r == 0 and self._pow_code_slow(a, order // r) == 1:
                order //= r
        return order

    def _find_generator(self) -> int:
        if self._gen_code is None:
            if self.q == 2:
                self._gen_code = 1
            else:
                for cand in range(2, self.q):
                    if self._order_of_code(cand) == self.q - 1:
                        self._gen_code = cand
                        break
                else:  # pragma: no cover - every finite field is cyclic
                    raise NetcodeError("no generator found")
        return self._gen_code

    def _ensure_tables(self) -> None:
        if self._exp is not None or self.q > _TABLE_CAP:
            return
        g = self._find_generator()
        exp = [1] * (self.q - 1)
        log = [0] * self.q
        acc = 1
        for i in range(1, self.q - 1):
            acc = self._schoolbook_mul(acc, g)
            exp[i] = acc
            log[acc] = i
        log[1] = 0
        self._exp = exp
        self._log = log

    def _mul_codes(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        self._ensure_tables()
        if self._exp is None:
            return self._schoolbook_mul(a, b)
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def _inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        self._ensure_tables()
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        return self._pow_code_slow(a, self.q - 2)

    def _pow_code(self, a: int, e: int) -> int:
        if e < 0:
            return self._pow_code(self._inv_code(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        self._ensure_tables()
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        return self._pow_code_slow(a, e)


def build_field(p: int, m: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct GF(p^m).

    When modulus is omitted the monic irreducible of degree m with the
    smallest integer encoding is selected, which makes independent runs
    agree on the representation. A supplied modulus must be monic, of
    degree exactly m, with coefficients in [0, p), lowest power first.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    if modulus is None:
        for low in range(p**m):
            cand = _digits(low, p, m) + [1]
            if _pf_is_irreducible(cand, p):
                return FieldSpec(p, m, cand)
        raise NetcodeError("no irreducible modulus found")  # pragma: no cover
    mod = [int(c) for c in modulus]
    if len(mod) != m + 1:
        raise ValueError(f"modulus must have degree exactly {m}")
    if mod[-1] != 1:
        raise ReducibleModulus("modulus must be monic")
    if any(not 0 <= c < p for c in mod):
        raise ValueError("modulus coefficients out of range")
    if not _pf_is_irreducible(mod, p):
        raise ReducibleModulus(f"modulus {mod} is reducible over GF({p})")
    return FieldSpec(p, m, mod)


def spec_to_dict(spec: FieldSpec) -> dict:
    return {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)}


def spec_from_dict(d: dict) -> FieldSpec:
    return build_field(int(d["p"]), int(d["m"]), d.get("modulus"))


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
        return tuple(_digits(self.code, self.spec.p, self.spec.m))

    def _check(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise ValueError(f"mixed fields: {self.spec} and {other.spec}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec, self.spec._add_codes(self.code, other.code))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(
            self.spec, self.spec._add_codes(self.code, self.spec._neg_code(other.code))
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._neg_code(self.code))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec, self.spec._mul_codes(self.code, other.code))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(
            self.spec, self.spec._mul_codes(self.code, self.spec._inv_code(other.code))
        )

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._inv_code(self.code))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec._pow_code(self.code, e))

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
        return f"<{_coeff_str(self.coeffs)} in {self.spec!r}>"


def _coeff_str(coeffs: Sequence[int]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            base = "x" if i == 1 else f"x^{i}"
            terms.append(base if c == 1 else f"{c}{base}")
    return "+".join(terms) if terms else "0"


def generator(spec: FieldSpec) -> FieldElement:
    """The fixed generator: the primitive element with the smallest encoding."""
    return FieldElement(spec, spec._find_generator())


def multiplicative_order(elem: FieldElement) -> int:
    return elem.spec._order_of_code(elem.code)


def element_of_order(spec: FieldSpec, n: int) -> FieldElement:
    """The deterministic element of multiplicative order n.

    Returns g**((q-1)//n) for the fixed generator g, the smallest power of
    g with that order. Raises NoSuchElement when n does not divide q-1.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if (spec.q - 1) % n != 0:
        raise NoSuchElement(f"no element of order {n} in {spec!r}")
    g = spec._find_generator()
    return FieldElement(spec, spec._pow_code(g, (spec.q - 1) // n))


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

    @classmethod
    def from_elements(cls, entries: Sequence[Sequence[FieldElement]]) -> "FqMatrix":
        if not entries or not entries[0]:
            raise ValueError("need at least one entry")
        spec = entries[0][0].spec
        rows = []
        for row in entries:
            for e in row:
                if e.spec != spec:
                    raise ValueError("mixed fields in matrix")
            rows.append([e.code for e in row])
        return cls(spec, rows)

    def copy(self) -> "FqMatrix":
        return FqMatrix(self.spec, [row[:] for row in self.rows])

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

    def to_coeff_lists(self) -> list[list[list[int]]]:
        p, m = self.spec.p, self.spec.m
        return [[_digits(c, p, m) for c in row] for row in self.rows]

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
        add = self.spec._add_codes
        return FqMatrix(
            self.spec,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "FqMatrix") -> "FqMatrix":
        self._check(other)
        neg = self.spec._neg_code
        return self + FqMatrix(other.spec, [[neg(c) for c in row] for row in other.rows])

    def scale(self, s: FieldElement) -> "FqMatrix":
        if s.spec != self.spec:
            raise ValueError("mixed fields")
        mul = self.spec._mul_codes
        sc = s.code
        return FqMatrix(self.spec, [[mul(sc, c) for c in row] for row in self.rows])

    def __mul__(self, other: "FqMatrix | FieldElement") -> "FqMatrix":
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        spec = self.spec
        spec._ensure_tables()
        out = [[0] * other.ncols for _ in range(self.nrows)]
        brows = other.rows
        ncols = other.ncols
        if spec._exp is not None and spec.p == 2:
            exp, log, qm1 = spec._exp, spec._log, spec.q - 1
            for i in range(self.nrows):
                arow = self.rows[i]
                crow = out[i]
                for k in range(self.ncols):
                    a = arow[k]
                    if a:
                        la = log[a]
                        brow = brows[k]
                        for j in range(ncols):
                            b = brow[j]
                            if b:
                                crow[j] ^= exp[(la + log[b]) % qm1]
        else:
            mul, add = spec._mul_codes, spec._add_codes
            for i in range(self.nrows):
                arow = self.rows[i]
                crow = out[i]
                for k in range(self.ncols):
                    a = arow[k]
                    if a:
                        brow = brows[k]
                        for j in range(ncols):
                            b = brow[j]
                            if b:
                                crow[j] = add(crow[j], mul(a, b))
        return FqMatrix(spec, out)

    __matmul__ = __mul__

    def transpose(self) -> "FqMatrix":
        return FqMatrix(self.spec, [list(col) for col in zip(*self.rows)])

    def kron(self, other: "FqMatrix") -> "FqMatrix":
        self._check(other)
        mul = self.spec._mul_codes
        out = []
        for arow in self.rows:
            for brow in other.rows:
                out.append([mul(a, b) for a in arow for b in brow])
        return FqMatrix(self.spec, out)

    @classmethod
    def hstack(cls, blocks: Sequence["FqMatrix"]) -> "FqMatrix":
        spec = blocks[0].spec
        nrows = blocks[0].nrows
        for b in blocks:
            if b.spec != spec or b.nrows != nrows:
                raise ValueError("incompatible blocks")
        rows = [sum((b.rows[i] for b in blocks), []) for i in range(nrows)]
        return cls(spec, rows)

    @classmethod
    def vstack(cls, blocks: Sequence["FqMatrix"]) -> "FqMatrix":
        spec = blocks[0].spec
        ncols = blocks[0].ncols
        rows: list[list[int]] = []
        for b in blocks:
            if b.spec != spec or b.ncols != ncols:
                raise ValueError("incompatible blocks")
            rows.extend(row[:] for row in b.rows)
        return cls(spec, rows)

    # -- elimination-based queries -------------------------------------

    def _eliminate(self, rows: list[list[int]]) -> tuple[list[int], int]:
        """Forward-eliminate in place; return (pivot columns, swap count)."""
        spec = self.spec
        mul, add, neg, inv = (
            spec._mul_codes,
            spec._add_codes,
            spec._neg_code,
            spec._inv_code,
        )
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        pivots: list[int] = []
        swaps = 0
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pivot_row = None
            for i in range(r, nrows):
                if rows[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            if pivot_row != r:
                rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
                swaps += 1
            inv_p = inv(rows[r][c])
            row_r = rows[r]
            for i in range(r + 1, nrows):
                row_i = rows[i]
                if row_i[c]:
                    factor = neg(mul(row_i[c], inv_p))
                    for j in range(c, ncols):
                        if row_r[j]:
                            row_i[j] = add(row_i[j], mul(factor, row_r[j]))
            pivots.append(c)
            r += 1
        return pivots, swaps

    def rank(self) -> int:
        work = [row[:] for row in self.rows]
        pivots, _ = self._eliminate(work)
        return len(pivots)

    def det(self) -> FieldElement:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        work = [row[:] for row in self.rows]
        pivots, swaps = self._eliminate(work)
        spec = self.spec
        if len(pivots) < self.nrows:
            return spec.zero()
        acc = 1
        for i, c in enumerate(pivots):
            acc = spec._mul_codes(acc, work[i][c])
        if swaps % 2 and spec.p != 2:
            acc = spec._neg_code(acc)
        return FieldElement(spec, acc)

    def inverse(self) -> "FqMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        eye = FqMatrix.identity(self.spec, n)
        sol = self.solve(eye)
        return sol

    def solve(self, rhs: "FqMatrix") -> "FqMatrix":
        """Solve self @ X = rhs exactly.

        Requires full column rank and a consistent system; the solution is
        then unique even when the system is overdetermined.
        """
        self._check(rhs)
        if rhs.nrows != self.nrows:
            raise ValueError("right-hand side has wrong number of rows")
        spec = self.spec
        mul, add, neg, inv = (
            spec._mul_codes,
            spec._add_codes,
            spec._neg_code,
            spec._inv_code,
        )
        n_unknown = self.ncols
        n_rhs = rhs.ncols
        work = [self.rows[i][:] + rhs.rows[i][:] for i in range(self.nrows)]
        pivots, _ = self._eliminate(work)
        if len(pivots) < n_unknown or (pivots and pivots[-1] >= n_unknown):
            raise ValueError("system is rank deficient")
        # rows below the pivot rows must be entirely zero for consistency
        for i in range(len(pivots), self.nrows):
            if any(work[i]):
                raise ValueError("system is inconsistent")
        # back substitution
        out = [[0] * n_rhs for _ in range(n_unknown)]
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            inv_p = inv(work[r][c])
            for j in range(n_rhs):
                acc = work[r][n_unknown + j]
                row_r = work[r]
                for c2 in range(c + 1, n_unknown):
                    if row_r[c2] and out[c2][j]:
                        acc = add(acc, neg(mul(row_r[c2], out[c2][j])))
                out[c][j] = mul(acc, inv_p)
        return FqMatrix(spec, out)


# ----------------------------------------------------------------------
# DFT matrices
# ----------------------------------------------------------------------


def dft_matrix(alpha: FieldElement, n: int) -> FqMatrix:
    """The n-point transform matrix [alpha^(ij)] over alpha's field."""
    spec = alpha.spec
    if n < 1:
        raise ValueError("transform length must be positive")
    if n % spec.p == 0:
        raise CharacteristicDividesN(f"characteristic {spec.p} divides {n}")
    if not alpha or multiplicative_order(alpha) != n:
        raise WrongOrder(f"alpha must have multiplicative order exactly {n}")
    pw = spec._pow_code
    a = alpha.code
    return FqMatrix(spec, [[pw(a, i * j) for j in range(n)] for i in range(n)])


def inverse_dft_matrix(alpha: FieldElement, n: int) -> FqMatrix:
    """Exact inverse of dft_matrix(alpha, n): (1/n) [alpha^(-ij)]."""
    spec = alpha.spec
    if n < 1:
        raise ValueError("transform length must be positive")
    if n % spec.p == 0:
        raise CharacteristicDividesN(f"characteristic {spec.p} divides {n}")
    if not alpha or multiplicative_order(alpha) != n:
        raise WrongOrder(f"alpha must have multiplicative order exactly {n}")
    n_inv = spec._inv_code(n % spec.p)
    pw, mul = spec._pow_code, spec._mul_codes
    a_inv = spec._inv_code(alpha.code)
    return FqMatrix(
        spec, [[mul(n_inv, pw(a_inv, i * j)) for j in range(n)] for i in range(n)]
    )


# ----------------------------------------------------------------------
# univariate polynomials over the field (indeterminate written D)
# ----------------------------------------------------------------------


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

    @classmethod
    def monomial(cls, spec: FieldSpec, coeff: FieldElement, power: int) -> "Poly":
        if coeff.spec != spec:
            raise ValueError("mixed fields")
        return cls(spec, (0,) * power + (coeff.code,))

    @classmethod
    def from_elements(cls, coeffs: Sequence[FieldElement]) -> "Poly":
        if not coeffs:
            raise ValueError("need at least one coefficient")
        spec = coeffs[0].spec
        for c in coeffs:
            if c.spec != spec:
                raise ValueError("mixed fields")
        return cls(spec, [c.code for c in coeffs])

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.codes) - 1

    def coeff(self, d: int) -> FieldElement:
        code = self.codes[d] if 0 <= d < len(self.codes) else 0
        return FieldElement(self.spec, code)

    def coeffs_elements(self) -> list[FieldElement]:
        return [FieldElement(self.spec, c) for c in self.codes]

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

    def _check(self, other: "Poly") -> None:
        if self.spec != other.spec:
            raise ValueError("mixed fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        add = self.spec._add_codes
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(self.spec, out)

    def __neg__(self) -> "Poly":
        neg = self.spec._neg_code
        return Poly(self.spec, [neg(c) for c in self.codes])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | FieldElement") -> "Poly":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ValueError("mixed fields")
            mul = self.spec._mul_codes
            return Poly(self.spec, [mul(other.code, c) for c in self.codes])
        self._check(other)
        if not self.codes or not other.codes:
            return Poly.zero(self.spec)
        mul, add = self.spec._mul_codes, self.spec._add_codes
        out = [0] * (len(self.codes) + len(other.codes) - 1)
        for i, a in enumerate(self.codes):
            if a:
                for j, b in enumerate(other.codes):
                    if b:
                        out[i + j] = add(out[i + j], mul(a, b))
        return Poly(self.spec, out)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one(self.spec)
        base = self
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
        if x.spec == self.spec:
            mul, add = self.spec._mul_codes, self.spec._add_codes
            acc = 0
            for c in reversed(self.codes):
                acc = add(mul(acc, x.code), c)
            return FieldElement(self.spec, acc)
        emb = embed(self.spec, x.spec)
        acc = x.spec.zero()
        for c in reversed(self.codes):
            acc = acc * x + emb(FieldElement(self.spec, c))
        return acc

    def __repr__(self) -> str:
        return f"<Poly {self.format_str()} over {self.spec!r}>"

    def format_str(self, var: str = "D") -> str:
        if not self.codes:
            return "0"
        terms = []
        for d, c in enumerate(self.codes):
            if c == 0:
                continue
            cs = _coeff_str(_digits(c, self.spec.p, self.spec.m))
            if d == 0:
                terms.append(cs if "+" not in cs else f"({cs})")
                continue
            base = var if d == 1 else f"{var}^{d}"
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

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        if not entries or not entries[0]:
            raise ValueError("need at least one entry")
        spec = entries[0][0].spec
        for row in entries:
            for e in row:
                if e.spec != spec:
                    raise ValueError("mixed fields")
        return cls(spec, [list(row) for row in entries])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

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

    def shift(self, k: int) -> "PolyMatrix":
        return PolyMatrix(self.spec, [[p.shift(k) for p in row] for row in self.rows])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def det(self) -> Poly:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return self._det_rec(list(range(self.nrows)), list(range(self.ncols)))

    def _det_rec(self, rows: list[int], cols: list[int]) -> Poly:
        # cofactor expansion along the first remaining column; sizes stay small
        if len(rows) == 1:
            return self.rows[rows[0]][cols[0]]
        col = cols[0]
        rest = cols[1:]
        acc = Poly.zero(self.spec)
        for k, r in enumerate(rows):
            p = self.rows[r][col]
            if not p:
                continue
            minor = self._det_rec(rows[:k] + rows[k + 1 :], rest)
            term = p * minor
            if k % 2:
                term = -term
            acc = acc + term
        return acc

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
        sup = self.sup
        mul, add = sup._mul_codes, sup._add_codes
        acc = 0
        for digit in reversed(_digits(e.code, self.sub.p, self.sub.m)):
            acc = add(mul(acc, self.root), digit)
        return FieldElement(sup, acc)


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
    mul, add = sup._mul_codes, sup._add_codes
    mod_digits = list(reversed(sub.modulus))
    root = None
    for cand in range(sup.q):
        acc = 0
        for digit in mod_digits:
            acc = add(mul(acc, cand), digit)
        if acc == 0:
            root = cand
            break
    if root is None:  # pragma: no cover - a root always exists when m | m'
        raise NetcodeError("no root of the base modulus found")
    emb = Embedding(sub, sup, root)
    _EMBED_CACHE[key] = emb
    return emb
