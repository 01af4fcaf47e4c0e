"""Operators on the truncated polynomial space, in the monomial basis.

An OpMatrix holds the (nw+1) x (nw+1) matrix of an operator T, with
``mat[m][n]`` the coefficient of x^m in T.x^n, together with two pieces of
truncation bookkeeping:

* ``raised`` — an upper bound r on the degree increase of T, guaranteed on
  the reliable columns only: mat[m][n] == 0 whenever m > n + r and
  n <= reliable.  The builders bound every column, but bar() looks at the
  reliable columns alone, so no code may rely on it beyond them (products
  keep the guarantee, because their reliable block shrinks by the raise);
* ``reliable`` — the largest column index whose entries are guaranteed
  unaffected by truncation loss.  Degree-raising factors push information
  past the matrix edge, so products shrink this: for C = A.B,
  reliable(C) = min(reliable(B), reliable(A) - raised(B), nw - raised(B)).

Comparisons and extractions only ever look at columns up to ``reliable``.

The bar transform is the unique series-side operator with
T_x e^{xy} = bar(T)_y e^{xy}; matching coefficients of x^m y^b gives the
factorial-weighted transpose bar(T)[b][a] = (a!/b!) T[a][b].  Note that on
matrices bar reverses products: bar(T1 T2) = bar(T2) bar(T1).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (
    DiagSingular,
    NotInvertible,
    NotMonic,
    NotThreeTerm,
    OrderExhausted,
    ReliabilityExhausted,
)
from .indexfn import Poly
from .series import TruncSeries, _append_over, _over_common_den, as_rat

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DiagSeq:
    """Diagonal operator v_theta, stored by its values with v_0 = 1.

    Built either from explicit values or from a consecutive-ratio rule
    v_{n+1} = v_n * ratio(offset + n); ratios are evaluated exactly and a
    zero or pole below the working order fails fast.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence):
        self.values = tuple([as_rat(v) for v in values])  # a list: see TruncSeries

    @classmethod
    def from_ratio(cls, ratio: Callable, count: int, offset=Fraction(0), strict: bool = True) -> "DiagSeq":
        offset = as_rat(offset)
        vals = [Fraction(1)]
        for n in range(count - 1):
            try:
                r = as_rat(ratio(offset + n))
            except ZeroDivisionError:
                raise DiagSingular(n, f"the ratio has a pole at {offset + n}") from None
            if strict and r == 0:
                raise DiagSingular(n, "ratio vanishes")
            vals.append(vals[-1] * r)
        return cls(vals)

    @classmethod
    def factorial(cls, count: int) -> "DiagSeq":
        return cls.from_ratio(lambda n: n + 1, count)

    @classmethod
    def rising(cls, c, count: int) -> "DiagSeq":
        """(c)_n = c (c+1) ... (c+n-1); all zero past n = 0 when c = 0."""
        return cls.from_ratio(lambda m: m, count, offset=c, strict=False)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, n):
        return self.values[n]

    def inverse_values(self) -> tuple:
        for n, v in enumerate(self.values):
            if v == 0:
                raise DiagSingular(n, "cannot invert zero diagonal value")
        return tuple(1 / v for v in self.values)


class OpMatrix:
    __slots__ = ("mat", "nw", "raised", "reliable")

    def __init__(self, mat, nw: int, raised: int, reliable: int):
        self.mat = mat
        self.nw = nw
        self.raised = raised
        self.reliable = reliable
        if reliable < 0:
            raise ReliabilityExhausted("no trustworthy columns remain")

    # -- constructors ---------------------------------------------------

    @classmethod
    def _blank(cls, nw: int):
        return [[_ZERO] * (nw + 1) for _ in range(nw + 1)]

    @classmethod
    def identity(cls, nw: int) -> "OpMatrix":
        m = cls._blank(nw)
        for i in range(nw + 1):
            m[i][i] = _ONE
        return cls(m, nw, 0, nw)

    @classmethod
    def x_op(cls, nw: int) -> "OpMatrix":
        m = cls._blank(nw)
        for n in range(nw):
            m[n + 1][n] = _ONE
        return cls(m, nw, 1, nw)

    @classmethod
    def d_op(cls, nw: int) -> "OpMatrix":
        m = cls._blank(nw)
        for n in range(1, nw + 1):
            m[n - 1][n] = Fraction(n)
        return cls(m, nw, 0, nw)

    @classmethod
    def theta_op(cls, nw: int) -> "OpMatrix":
        return cls.diag_op([Fraction(n) for n in range(nw + 1)], nw)

    @classmethod
    def l_op(cls, nw: int) -> "OpMatrix":
        """The 0-derivative: x^n -> x^(n-1), 1 -> 0."""
        m = cls._blank(nw)
        for n in range(1, nw + 1):
            m[n - 1][n] = _ONE
        return cls(m, nw, 0, nw)

    @classmethod
    def delta_op(cls, nw: int) -> "OpMatrix":
        """Evaluation at zero: 1 - x*L."""
        m = cls._blank(nw)
        m[0][0] = _ONE
        return cls(m, nw, 0, nw)

    @classmethod
    def diag_op(cls, values, nw: int) -> "OpMatrix":
        vals = values.values if isinstance(values, DiagSeq) else [as_rat(v) for v in values]
        if len(vals) < nw + 1:
            raise OrderExhausted("not enough diagonal values for working order")
        m = cls._blank(nw)
        for i in range(nw + 1):
            m[i][i] = vals[i]
        return cls(m, nw, 0, nw)

    @classmethod
    def series_of_d(cls, ell: TruncSeries, nw: int) -> "OpMatrix":
        """ell(D) for a series ell known at least to the working order."""
        if ell.order < nw:
            raise OrderExhausted("series for ell(D) must reach the working order")
        m = cls._blank(nw)
        for n in range(nw + 1):
            fall = _ONE  # n!/(n-k)!
            for k in range(n + 1):
                c = ell.coeffs[k]
                if c != 0:
                    m[n - k][n] += c * fall
                fall *= n - k
        return cls(m, nw, 0, nw)

    @classmethod
    def umbral_compose(cls, f: TruncSeries, nw: int) -> "OpMatrix":
        """The composition operator of the binomial family generated by f.

        Sends x^n to the n-th binomial polynomial; computed through the
        series side as entry [a][b] = (b!/a!) [y^b] phi(y)^a with
        phi = reverse(f).
        """
        if f.order < nw:
            raise OrderExhausted("series for the umbral operator must reach the working order")
        phi = f.truncate(nw).reverse()
        m = cls._blank(nw)
        m[0][0] = _ONE
        fact = [_ONE] * (nw + 1)
        for i in range(1, nw + 1):
            fact[i] = fact[i - 1] * i
        power = TruncSeries.one(nw)
        for a in range(1, nw + 1):
            power = power * phi
            for b in range(a, nw + 1):
                c = power.coeffs[b]
                if c != 0:
                    m[a][b] = fact[b] / fact[a] * c
        return cls(m, nw, 0, nw)

    @classmethod
    def shifted_product(cls, ells: Sequence, nw: int) -> "OpMatrix":
        """Operator sending x^n to prod_{k<n} (x + ells[k])."""
        vals = ells.values if isinstance(ells, DiagSeq) else [as_rat(v) for v in ells]
        if len(vals) < nw:
            raise OrderExhausted("need nw shift values")
        m = cls._blank(nw)
        poly = Poly.const(1)
        for n in range(nw + 1):
            for i, c in enumerate(poly.coeffs):
                m[i][n] = c
            if n < nw:
                poly = poly * Poly([vals[n], 1])
        return cls(m, nw, 0, nw)

    # -- algebra ----------------------------------------------------------

    def _check_shape(self, other: "OpMatrix"):
        if self.nw != other.nw:
            raise ValueError("operators built at different working orders")

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        self._check_shape(other)
        n = self.nw + 1
        m = [[self.mat[i][j] + other.mat[i][j] for j in range(n)] for i in range(n)]
        return OpMatrix(m, self.nw, max(self.raised, other.raised), min(self.reliable, other.reliable))

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        self._check_shape(other)
        n = self.nw + 1
        m = [[self.mat[i][j] - other.mat[i][j] for j in range(n)] for i in range(n)]
        return OpMatrix(m, self.nw, max(self.raised, other.raised), min(self.reliable, other.reliable))

    def __neg__(self) -> "OpMatrix":
        return OpMatrix([[-v for v in row] for row in self.mat], self.nw, self.raised, self.reliable)

    def scale(self, c) -> "OpMatrix":
        c = as_rat(c)
        return OpMatrix([[c * v for v in row] for row in self.mat], self.nw, self.raised, self.reliable)

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        """Operator composition self . other (self applied second).

        Fraction-free: each row of self sits over the lcm of its
        denominators and each column of other over its own, so the inner
        loop adds plain integer products and one Fraction is built per
        nonzero entry.  The sparse rows skip every zero, which is what makes
        triangular and banded factors cheap.
        """
        self._check_shape(other)
        cols = [_over_common_den(col) for col in zip(*other.mat)]
        col_den = [d for d, _ in cols]
        b_rows = [[(j, v) for j, v in enumerate(row) if v] for row in zip(*[nums for _, nums in cols])]
        out = []
        for arow in self.mat:
            row_den, nums = _over_common_den(arow)
            acc = [0] * len(col_den)
            for k, av in enumerate(nums):
                if av:
                    for j, bv in b_rows[k]:
                        acc[j] += av * bv
            out.append([Fraction(v, row_den * col_den[j]) if v else _ZERO for j, v in enumerate(acc)])
        reliable = min(other.reliable, self.reliable - other.raised, self.nw - other.raised)
        return OpMatrix(out, self.nw, self.raised + other.raised, reliable)

    def inverse(self) -> "OpMatrix":
        """Back-substitution inverse of a degree-non-raising operator.

        Only triangular inverses occur here; anything with entries above
        the degree diagonal is rejected.  Fraction-free in the style of
        Bareiss: row r is put over its common denominator d_r as integers
        a_rj, and each column is solved in integers y_r over one running
        denominator s, which grows by a_rr/gcd(num, a_rr) at row r.
        """
        n = self.nw + 1
        a = self.mat
        for col in range(n):
            for row in range(col + 1, n):
                if a[row][col] != 0:
                    raise NotInvertible(f"degree-raising entry at ({row},{col})")
            if a[col][col] == 0:
                raise NotInvertible(f"zero diagonal entry at {col}")
        rows = []
        for r, arow in enumerate(a):
            den, nums = _over_common_den(arow)
            rows.append((den, nums[r], [(j, v) for j, v in enumerate(nums) if v and j > r]))
        inv = OpMatrix._blank(self.nw)
        for colv in range(n):
            # y[i] is the integer numerator of x_(colv - i), over s
            y, s = [], 1
            for row in range(colv, -1, -1):
                den, diag, upper = rows[row]
                num = den if row == colv else 0
                for j, v in upper:
                    if j > colv:
                        break
                    num -= v * y[colv - j]
                s = _append_over(y, s, num, diag)
            for i, v in enumerate(y):
                if v:
                    inv[colv - i][colv] = Fraction(v, s)
        return OpMatrix(inv, self.nw, 0, self.reliable)

    def expand_in(self, basis: "OpMatrix") -> "OpMatrix":
        """Coordinates of self's columns in the image basis of `basis`."""
        return basis.inverse() @ self

    # -- transforms ---------------------------------------------------------

    def bar(self) -> "OpMatrix":
        """Factorial-weighted transpose; see the module docstring.  It is an
        involution, so bar() also undoes bar()."""
        n = self.nw + 1
        fact = [_ONE] * n
        for i in range(1, n):
            fact[i] = fact[i - 1] * i
        m = OpMatrix._blank(self.nw)
        for b in range(n):
            for a in range(n):
                v = self.mat[a][b]
                if v != 0:
                    m[b][a] = fact[a] / fact[b] * v
        raised = 0
        limit = min(self.reliable, self.nw - self.raised)
        for col in range(limit + 1):
            for row in range(n):
                if m[row][col] != 0 and row - col > raised:
                    raised = row - col
        return OpMatrix(m, self.nw, raised, limit)

    def apply_poly(self, p: Poly) -> Poly:
        """The image of a polynomial, as the combination of columns its
        coefficients weight; exact when its degree is within the reliable
        block."""
        if len(p.coeffs) > self.nw + 1:
            raise OrderExhausted("polynomial degree beyond working order")
        out = Poly.const(0)
        for j, c in enumerate(p.coeffs):
            if c != 0:
                out = out + c * self.column_poly(j)
        return out

    def apply_series(self, s: TruncSeries) -> TruncSeries:
        """Apply a row-finite series-side operator to a series.

        Requires every stored entry above the degree diagonal to vanish
        (rows only consume coefficients of equal or lower index), which is
        what bar() of a degree-non-raising operator produces.
        """
        order = min(self.nw, s.order)
        mat = self.mat
        for b in range(order + 1):
            for a in range(b + 1, self.nw + 1):
                if mat[b][a] != 0:
                    raise NotInvertible("operator is not row-finite; cannot act on a series")
        out = []
        for b in range(order + 1):
            acc = _ZERO
            row = mat[b]
            for a in range(b + 1):
                v = row[a]
                if v != 0:
                    acc += v * s.coeffs[a]
            out.append(acc)
        return TruncSeries(out)

    def column_poly(self, n: int) -> Poly:
        """The image of x^n."""
        return Poly([row[n] for row in self.mat])

    # -- structure probes ------------------------------------------------------

    def band_profile(self, through: Optional[int] = None) -> tuple[int, int]:
        """(max degree raise, max degree lowering) on the reliable block."""
        hi = self.reliable if through is None else min(self.reliable, through)
        up = down = 0
        for ncol in range(hi + 1):
            for row in range(self.nw + 1):
                if self.mat[row][ncol] != 0:
                    up = max(up, row - ncol)
                    down = max(down, ncol - row)
        return up, down

    def three_term(self, through: Optional[int] = None):
        """Extract canonical coefficients (a_n, b_n) of x + a_theta + D b_theta.

        Returns (a, b) with a[n] = a_n for 0 <= n <= hi and b[n-1] = b_n for
        1 <= n <= hi, where hi is the reliable column bound.
        """
        hi = self.reliable if through is None else min(self.reliable, through)
        hi = min(hi, self.nw - 1)
        for ncol in range(hi + 1):
            for row in range(self.nw + 1):
                v = self.mat[row][ncol]
                if v != 0 and not (ncol - 1 <= row <= ncol + 1):
                    raise NotThreeTerm(f"entry outside band at ({row},{ncol})")
        for ncol in range(hi + 1):
            if self.mat[ncol + 1][ncol] != 1:
                raise NotMonic(f"raising entry at column {ncol} is {self.mat[ncol + 1][ncol]}")
        a = [self.mat[ncol][ncol] for ncol in range(hi + 1)]
        b = [self.mat[ncol - 1][ncol] / ncol for ncol in range(1, hi + 1)]
        return a, b

    # -- comparison --------------------------------------------------------------

    def first_difference(self, other: "OpMatrix", through: Optional[int] = None):
        """First differing entry on the shared reliable block, or None."""
        self._check_shape(other)
        hi = min(self.reliable, other.reliable)
        if through is not None:
            hi = min(hi, through)
        for ncol in range(hi + 1):
            for row in range(self.nw + 1):
                if self.mat[row][ncol] != other.mat[row][ncol]:
                    return row, ncol, self.mat[row][ncol], other.mat[row][ncol]
        return None

    def equals(self, other: "OpMatrix", through: Optional[int] = None) -> bool:
        return self.first_difference(other, through) is None

    def __repr__(self):
        return f"OpMatrix(nw={self.nw}, raised={self.raised}, reliable={self.reliable})"


# -- helpers -------------------------------------------------------------------


def mgf_from_gop(gop: OpMatrix) -> TruncSeries:
    """Moment generating function of the family with operator `gop`:
    the bar transform of the inverse, applied to 1."""
    return gop.inverse().bar().apply_series(TruncSeries.one(gop.nw))

