"""Operators on the truncated polynomial space, in the monomial basis.

An OpMatrix holds the (nw+1) x (nw+1) matrix of an operator T, entry (m, n)
the coefficient of x^m in T.x^n.  It is stored by columns, as integers:
``cols[n] = (den, nums)`` is the image of x^n, entry (m, n) = nums[m]/den,
kept canonical (den > 0 and gcd(den, *nums) == 1, so a zero column is
(1, [0, ...])).  Equal columns therefore have equal storage, and every
kernel below reads and writes integers only and reduces each result column
at most once: ``banded`` never needs to, and a product skips it for columns
its shortcuts prove canonical (see ``__matmul__``).  Polynomials and series
(``column_poly``, ``apply_poly``, ``apply_series``) share that storage.
Fractions are made only at the boundary: the ``OpMatrix(rows, ...)``
constructor takes them, ``column``/``entry``, ``three_term``, comparison
witnesses and the ``mat`` property (a fresh row-major Fraction copy, read by
tools such as the benchmark tracer) give them back.  An OpMatrix keeps
nothing else, and no engine path inverts one: ``inverse()`` is the tests'
reference for the solvers that read only what they need.

Next to the matrix sit two pieces of truncation bookkeeping:

* ``raised`` — an upper bound r on the degree increase of T, guaranteed on
  the reliable columns only: entry (m, n) is 0 whenever m > n + r and
  n <= reliable.  The builders bound every column, but bar() looks at the
  reliable columns alone, so no code may rely on it beyond them (products
  keep the guarantee, because their reliable block shrinks by the raise);
* ``reliable`` — the largest column index whose entries are guaranteed
  unaffected by truncation loss.  Degree-raising factors push information
  past the matrix edge, so products shrink this: for C = A.B,
  reliable(C) = min(reliable(B), reliable(A) - raised(B), nw - raised(B)).

Comparisons and extractions only ever look at columns up to ``reliable``,
and ``cut`` drops the columns past a comparison's bound from a product's
right factor, so that only the compared columns are computed.
``three_term`` reads a recurrence off the three diagonals and returns with
it, for the caller to report as a failed check, the first column's fault
(``band_fault``): an entry outside the band, or a raising entry other than 1.

Binomial composition operators come from the powers of y/f by Lagrange
inversion (``umbral_compose``); where f' = psi(f) for a polynomial psi, the
same operator and the pair (psi^alpha, y/psi) are read off psi alone in
O(nw^2) (``umbral_compose_ode``, ``sheffer_pair``).

The bar transform is the unique series-side operator with
T_x e^{xy} = bar(T)_y e^{xy}; matching coefficients of x^m y^b gives the
factorial-weighted transpose bar(T)[b][a] = (a!/b!) T[a][b].  Note that on
matrices bar reverses products: bar(T1 T2) = bar(T2) bar(T1).
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from .errors import NotInvertible, OrderExhausted, ReliabilityExhausted
from .indexfn import Poly
from .series import TruncSeries, _append_over, _conv, _int_powers, _over_common_den, _reduced, _scaled, as_rat

_ZERO = Fraction(0)


class OpMatrix:
    __slots__ = ("cols", "nw", "raised", "reliable")

    def __init__(self, rows, nw: int, raised: int, reliable: int):
        """The operator whose ``rows[m][n]`` (exact rationals) is the
        coefficient of x^m in T.x^n."""
        self._set([_over_common_den([as_rat(v) for v in col]) for col in zip(*rows)], nw, raised, reliable)

    def _set(self, cols: list, nw: int, raised: int, reliable: int):
        if reliable < 0:
            raise ReliabilityExhausted("no trustworthy columns remain")
        self.cols = cols
        self.nw = nw
        self.raised = raised
        self.reliable = reliable

    @classmethod
    def _of(cls, cols: list, nw: int, raised: int, reliable: int) -> "OpMatrix":
        """The operator with canonical columns `cols`, taken as they are."""
        op = cls.__new__(cls)
        op._set(cols, nw, raised, reliable)
        return op

    # -- Fraction views ---------------------------------------------------

    def column(self, n: int) -> list:
        """The image of x^n as nw+1 Fractions."""
        den, nums = self.cols[n]
        return [Fraction(v, den) if v else _ZERO for v in nums]

    def entry(self, m: int, n: int) -> Fraction:
        den, nums = self.cols[n]
        return Fraction(nums[m], den)

    @property
    def mat(self) -> list:
        """A fresh row-major Fraction copy: ``mat[m][n]`` = entry(m, n)."""
        return [list(row) for row in zip(*[self.column(n) for n in range(self.nw + 1)])]

    # -- constructors ---------------------------------------------------

    @classmethod
    def banded(cls, diagonals: dict, nw: int) -> "OpMatrix":
        """Column n holds values[n] (int or Fraction) in row n + k for each
        diagonal k -> values, rows past 0..nw dropped; raised is max(0, k).
        Over the lcm of its denominators a column is canonical with no gcd:
        a p^e exactly dividing the lcm exactly divides some entry's q, and p
        divides neither lcm/q nor that entry's numerator."""
        cols = []
        for n in range(nw + 1):
            entries = [(n + k, vals[n].as_integer_ratio()) for k, vals in diagonals.items() if 0 <= n + k <= nw]
            den, nums = math.lcm(*[q for _, (_, q) in entries]), [0] * (nw + 1)
            for row, (p, q) in entries:
                nums[row] = p * (den // q)
            cols.append((den, nums))
        return cls._of(cols, nw, max(0, *diagonals), nw)

    @classmethod
    def identity(cls, nw: int) -> "OpMatrix":
        return cls.diag_op([1] * (nw + 1), nw)

    @classmethod
    def x_op(cls, nw: int) -> "OpMatrix":
        return cls.banded({1: [1] * (nw + 1)}, nw)

    @classmethod
    def d_op(cls, nw: int) -> "OpMatrix":
        return cls.banded({-1: range(nw + 1)}, nw)

    @classmethod
    def l_op(cls, nw: int) -> "OpMatrix":
        """The 0-derivative: x^n -> x^(n-1), 1 -> 0."""
        return cls.banded({-1: [1] * (nw + 1)}, nw)

    @classmethod
    def diag_op(cls, values, nw: int) -> "OpMatrix":
        vals = list(values)
        if len(vals) < nw + 1:
            raise OrderExhausted("not enough diagonal values for working order")
        return cls.banded({0: vals}, nw)

    @classmethod
    def series_of_d(cls, ell: TruncSeries, nw: int) -> "OpMatrix":
        """ell(D) for a series ell known at least to the working order:
        column n holds ell_k n!/(n-k)! in row n - k."""
        if ell.order < nw:
            raise OrderExhausted("series for ell(D) must reach the working order")
        den, e = ell._head(nw)
        cols = []
        for n in range(nw + 1):
            nums = [0] * (nw + 1)
            fall = 1  # n!/(n-k)!
            for k in range(n + 1):
                if e[k]:
                    nums[n - k] = e[k] * fall
                fall *= n - k
            cols.append(_reduced(den, nums))
        return cls._of(cols, nw, 0, nw)

    @classmethod
    def series_of_l(cls, ell: TruncSeries, nw: int) -> "OpMatrix":
        """ell(L) = theta! ell(D) theta!^(-1) for the 0-derivative L and a
        series ell known at least to the working order: Toeplitz, column n
        holds ell_k in row n - k."""
        if ell.order < nw:
            raise OrderExhausted("series for ell(L) must reach the working order")
        den, e = ell._head(nw)
        cols = [_reduced(den, [*e[n::-1]] + [0] * (nw - n)) for n in range(nw + 1)]
        return cls._of(cols, nw, 0, nw)

    @classmethod
    def umbral_compose(cls, f: TruncSeries, nw: int) -> "OpMatrix":
        """The composition operator of the binomial family generated by f.

        Sends x^n to the n-th binomial polynomial, whose x^a coefficient is
        (n!/a!) [y^n] phi(y)^a for phi = reverse(f).  By Lagrange inversion
        that is ((n-1)!/(a-1)!) [y^(n-a)] (y/f)^n, so column n comes from the
        n-th integer power of y/f alone.
        """
        if f.order < nw:
            raise OrderExhausted("series for the umbral operator must reach the working order")
        cols = [(1, [1] + [0] * nw)]
        for n, (den, power) in enumerate(_int_powers(f.truncate(nw)._y_over_f(), nw), start=1):
            nums = [0] * (nw + 1)
            weight = 1  # (n-1)!/(a-1)!
            for a in range(n, 0, -1):
                if power[n - a]:
                    nums[a] = weight * power[n - a]
                weight *= a - 1
            cols.append(_reduced(den, nums))
        return cls._of(cols, nw, 0, nw)

    @classmethod
    def umbral_compose_ode(cls, psi: Poly, nw: int) -> "OpMatrix":
        """umbral_compose(f, nw) for the f with f' = psi(f), f(0) = 0, from the
        polynomial psi alone: phi = reverse(f) has phi' = 1/psi, so the
        columns' generating function e^(x phi(y)) solves psi(y) dG/dy = x G,
        and column k+1 = x (column k) - sum_{j>=1} psi_j k!/(k-j)! (column
        k+1-j), O(deg(psi) nw^2) in all.  With y = c z (`_scaled`), c^k
        (column k) is an integer polynomial."""
        c, p = _scaled(psi)
        scaled = [[1] + [0] * nw]
        for k in range(nw):
            col = [0] + [c * v for v in scaled[k][:nw]]
            fall = 1  # k!/(k-j)!
            for j in range(1, min(len(p) - 1, k) + 1):
                fall *= k - j + 1
                w = p[j] * fall
                for i, v in enumerate(scaled[k + 1 - j]):
                    if v:
                        col[i] -= w * v
            scaled.append(col)
        return cls._of([_reduced(c**k, col) for k, col in enumerate(scaled)], nw, 0, nw)

    @classmethod
    def sheffer_pair(cls, psi: Poly, alpha, nw: int) -> "OpMatrix":
        """The operator whose columns have the generating function
        psi(y)^alpha e^(x y/psi(y)): entry (a, n) is (n!/a!) [y^(n-a)]
        psi^(alpha-a).  With y = c z (`_scaled`), psi~^alpha is made once over
        one denominator, and each next row psi~^(alpha-a) by exact division
        by the integer polynomial psi~, over the same one: O(deg(psi) nw^2)."""
        c, p = _scaled(psi)
        power = TruncSeries._of(1, tuple(p[: nw + 1]) + (0,) * (nw + 1 - len(p))).pow_fraction(alpha)
        rows = [list(power.nums)]
        for a in range(1, nw + 1):
            prev, row = rows[-1], []
            for k in range(nw + 1 - a):
                acc = prev[k]
                for j in range(1, min(len(p) - 1, k) + 1):
                    acc -= p[j] * row[k - j]
                row.append(acc)
            rows.append(row)
        c_pows, cols = [c**a for a in range(nw + 1)], []
        for n in range(nw + 1):  # entry (a, n) = (n!/a!) c^(a-n) rows[a][n-a] / den
            nums, weight = [0] * (nw + 1), 1  # n!/a!
            for a in range(n, -1, -1):
                nums[a] = weight * c_pows[a] * rows[a][n - a]
                weight *= a
            cols.append(_reduced(power.den * c_pows[n], nums))
        return cls._of(cols, nw, 0, nw)

    @classmethod
    def umbral_compose_inverse(cls, g: TruncSeries, nw: int) -> "OpMatrix":
        """umbral_compose(g, nw).inverse(), built directly: x^n goes to
        n! [y^n] e^(x g(y)), whose x^a coefficient is (n!/a!) [y^(n-a)] (g/y)^a.

        Row a comes from the a-th power of g/y, needed only to degree nw - a.
        Each power is dropped once its row is read; the numerators wait in
        their columns until every power's denominator is known, and each
        column is then put over the lcm of the denominators it uses.
        """
        if g.order < nw:
            raise OrderExhausted("series for the umbral operator must reach the working order")
        g._require_reversible()
        den_g, nums_g = g._head(nw)
        step = nums_g[1:]  # g/y over den_g
        dens, raw = [1], [[1]] + [[0] for _ in range(nw)]  # raw[n][a]: numerator of [y^(n-a)] (g/y)^a
        den, power = 1, [1]
        for a in range(1, nw + 1):
            den, power = _reduced(den * den_g, _conv(power, step, nw - a))
            dens.append(den)
            for k, v in enumerate(power):
                raw[a + k].append(v)
        cols, lcm = [], 1
        for n in range(nw + 1):
            lcm = math.lcm(lcm, dens[n])
            nums = [0] * (nw + 1)
            weight = 1  # n!/a!
            for a in range(n, -1, -1):
                if raw[n][a]:
                    nums[a] = weight * raw[n][a] * (lcm // dens[a])
                weight *= a
            raw[n] = None
            cols.append(_reduced(lcm, nums))
        return cls._of(cols, nw, 0, nw)

    @classmethod
    def shifted_product(cls, ells: Sequence, nw: int) -> "OpMatrix":
        """Operator sending x^n to prod_{k<n} (x + ells[k]): with
        ells = E/d over integers, the integer polynomial prod (d x + E_k)
        over d^n."""
        vals = [as_rat(v) for v in ells]
        if len(vals) < nw:
            raise OrderExhausted("need nw shift values")
        d, e = _over_common_den(vals[:nw])
        cols, poly, den = [], [1] + [0] * nw, 1
        for n in range(nw + 1):
            cols.append(_reduced(den, poly))
            if n < nw:
                poly = [e[n] * poly[0]] + [e[n] * poly[i] + d * poly[i - 1] for i in range(1, nw + 1)]
                den *= d
        return cls._of(cols, nw, 0, nw)

    # -- algebra ----------------------------------------------------------

    def _check_shape(self, other: "OpMatrix"):
        if self.nw != other.nw:
            raise ValueError("operators built at different working orders")

    def _combine(self, other: "OpMatrix", sign: int) -> "OpMatrix":
        """self + sign * other, column by column over the lcm of the two
        denominators."""
        self._check_shape(other)
        cols = []
        for (da, xs), (db, ys) in zip(self.cols, other.cols):
            den = math.lcm(da, db)
            ka, kb = den // da, sign * (den // db)
            cols.append(_reduced(den, [ka * x + kb * y for x, y in zip(xs, ys)]))
        return OpMatrix._of(cols, self.nw, max(self.raised, other.raised), min(self.reliable, other.reliable))

    def __add__(self, other: "OpMatrix") -> "OpMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "OpMatrix") -> "OpMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "OpMatrix":
        return self.scale(-1)

    def scale(self, c) -> "OpMatrix":
        p, q = as_rat(c).as_integer_ratio()
        cols = [_reduced(den * q, [p * v for v in nums]) for den, nums in self.cols]
        return OpMatrix._of(cols, self.nw, self.raised, self.reliable)

    def __matmul__(self, other: "OpMatrix") -> "OpMatrix":
        """Operator composition self . other (self applied second).

        Fraction-free: column j of the product is sum_k A_k (b_kj / d_k)
        over the columns A_k / d_k of self, so each column is summed in
        integers over the lcm of the d_k it uses, times its own
        denominator in other, and reduced once.  Zero entries are skipped,
        which is what makes triangular and banded factors cheap.  Two kinds
        of column skip that gcd over the whole column:
        * self a unit shift (x, L: each column 0 or a single 1, in distinct
          rows).  Column j is other's canonical column j with its numerators
          moved; only one that loses a nonzero to a zero column of self
          (x's last) is reduced.
        * One term, b/b_d the only entry of other's column to meet a nonzero
          column N/d of self (x, D, a diagonal on the right).  With g =
          gcd(d, b), d/g is coprime to content(N) and to b/g, so when
          gcd(b_d, b/g) = 1 (b the column's only nonzero) N (b/g)/((d/g) b_d)
          reduces by gcd(b_d, content(N)) alone, a loop from the small b_d.
        """
        self._check_shape(other)
        a_dens = [d for d, _ in self.cols]
        a_cols = [[(i, v) for i, v in enumerate(nums) if v] for _, nums in self.cols]
        size = self.nw + 1
        moves = [(k, c[0][0]) for k, c in enumerate(a_cols) if c]  # (column, row of its 1) in a unit shift
        zeros = [k for k, c in enumerate(a_cols) if not c]
        shift = all(len(c) == 1 and c[0][1] == 1 == a_dens[k] for k, c in enumerate(a_cols) if c)
        shift = shift and len({r for _, r in moves}) == len(moves)
        out = []
        for b_den, b_nums in other.cols:
            if shift:
                acc = [0] * size
                for k, r in moves:
                    acc[r] = b_nums[k]
                out.append(_reduced(b_den, acc) if any(b_nums[k] for k in zeros) else (b_den, acc))
                continue
            # b_kj / d_k in lowest terms keeps the common denominator small
            terms = []
            for k, b in enumerate(b_nums):
                if b and a_cols[k]:
                    g = math.gcd(b, a_dens[k])
                    terms.append((a_cols[k], b // g, a_dens[k] // g))
            if len(terms) == 1 and math.gcd(b_den, terms[0][1]) == 1:
                col, b, d = terms[0]
                den, part = _reduced(b_den, [v for _, v in col])  # both over gcd(b_d, content(N))
                acc = [0] * size
                for (i, _), v in zip(col, part):
                    acc[i] = v * b
                out.append((d * den, acc))
                continue
            den = math.lcm(*[d for _, _, d in terms])
            acc = [0] * size
            for col, b, d in terms:
                w = b * (den // d)
                for i, v in col:
                    acc[i] += v * w
            out.append(_reduced(den * b_den, acc))
        reliable = min(other.reliable, self.reliable - other.raised, self.nw - other.raised)
        return OpMatrix._of(out, self.nw, self.raised + other.raised, reliable)

    def _require_invertible(self):
        """Raise NotInvertible unless self is upper triangular with a nonzero
        diagonal: only triangular inverses occur here, and anything with
        entries above the degree diagonal is rejected."""
        n = self.nw + 1
        for col, (_, nums) in enumerate(self.cols):
            for row in range(col + 1, n):
                if nums[row]:
                    raise NotInvertible(f"degree-raising entry at ({row},{col})")
            if nums[col] == 0:
                raise NotInvertible(f"zero diagonal entry at {col}")

    def inverse(self) -> "OpMatrix":
        """Back-substitution inverse of a degree-non-raising operator.

        No engine path calls it; it is kept as the tests' reference, and the
        benchmark tracer wraps it by name.

        With self = N . diag(1/d) for the integer matrix N of column
        numerators, the inverse is diag(d) . N^(-1); N^(-1) is solved
        fraction-free in the style of Bareiss, each column in integers y_r
        over one running denominator s, which grows by N_rr/gcd(num, N_rr)
        at row r.
        """
        self._require_invertible()
        n = self.nw + 1
        upper = [[] for _ in range(n)]  # row r of N right of the diagonal, as (j, N_rj)
        for j, (_, nums) in enumerate(self.cols):
            for r in range(j):
                if nums[r]:
                    upper[r].append((j, nums[r]))
        diag = [nums[j] for j, (_, nums) in enumerate(self.cols)]
        cols = []
        for colv in range(n):
            # y[i] is the integer numerator of (N^(-1))[colv - i][colv], over s
            y, s = [], 1
            for row in range(colv, -1, -1):
                num = 1 if row == colv else 0
                for j, v in upper[row]:
                    if j > colv:
                        break
                    num -= v * y[colv - j]
                s = _append_over(y, s, num, diag[row])
            nums = [0] * n
            for i, v in enumerate(y):
                if v:
                    nums[colv - i] = v * self.cols[colv - i][0]
            cols.append(_reduced(s, nums))
        return OpMatrix._of(cols, self.nw, 0, self.reliable)

    # -- transforms ---------------------------------------------------------

    def bar(self) -> "OpMatrix":
        """Factorial-weighted transpose; see the module docstring.  It is an
        involution, so bar() also undoes bar().  Entry (b, a) is
        a! N_b[a] / (b! d_b) for the column N_b / d_b of self."""
        n = self.nw + 1
        fact = [1] * n
        for i in range(1, n):
            fact[i] = fact[i - 1] * i
        row_dens = [fact[b] * d for b, (d, _) in enumerate(self.cols)]
        cols = []
        for a in range(n):
            row = [(b, nums[a]) for b, (_, nums) in enumerate(self.cols) if nums[a]]
            den = math.lcm(*[row_dens[b] for b, _ in row])
            nums = [0] * n
            for b, v in row:
                nums[b] = fact[a] * v * (den // row_dens[b])
            cols.append(_reduced(den, nums))
        raised = 0
        limit = min(self.reliable, self.nw - self.raised)
        for col in range(limit + 1):
            nums = cols[col][1]
            for row in range(n - 1, col + raised, -1):
                if nums[row]:
                    raised = row - col
                    break
        return OpMatrix._of(cols, self.nw, raised, limit)

    def apply_poly(self, p: Poly) -> Poly:
        """The image of a polynomial, as the combination of columns its
        coefficients weight; exact when its degree is within the reliable
        block."""
        if len(p.nums) > self.nw + 1:
            raise OrderExhausted("polynomial degree beyond working order")
        return Poly._make(*self._combine_columns(p.den, p.nums))

    def apply_series(self, s: TruncSeries) -> TruncSeries:
        """Apply a row-finite series-side operator to a series.

        Requires every stored entry above the degree diagonal to vanish
        (rows only consume coefficients of equal or lower index), which is
        what bar() of a degree-non-raising operator produces.  The sum runs
        in integers over the series' denominator times the lcm of the
        column denominators it uses.  Kept, like inverse(), as the tests'
        reference and for the benchmark tracer, which wraps it by name.
        """
        order = min(self.nw, s.order)
        for a in range(1, self.nw + 1):
            nums = self.cols[a][1]
            for b in range(min(a, order + 1)):
                if nums[b]:
                    raise NotInvertible("operator is not row-finite; cannot act on a series")
        ds, xs = s._head(order)
        den, acc = self._combine_columns(ds, xs)
        return TruncSeries._make(den, acc[: order + 1])

    def _combine_columns(self, den: int, weights) -> tuple[int, list]:
        """sum_j (weights[j]/den) column_j, as integers over den times the
        lcm of the column denominators it uses."""
        used = [(j, w) for j, w in enumerate(weights) if w]
        lcm = math.lcm(*[self.cols[j][0] for j, _ in used])
        acc = [0] * (self.nw + 1)
        for j, w in used:
            col_den, nums = self.cols[j]
            w *= lcm // col_den
            for i, v in enumerate(nums):
                if v:
                    acc[i] += v * w
        return den * lcm, acc

    def column_poly(self, n: int) -> Poly:
        """The image of x^n."""
        return Poly._of(*self.cols[n])

    # -- structure probes ------------------------------------------------------

    def band_profile(self, through: Optional[int] = None) -> tuple[int, int]:
        """(max degree raise, max degree lowering) on the reliable block."""
        hi = self.reliable if through is None else min(self.reliable, through)
        up = down = 0
        for ncol in range(hi + 1):
            rows = [row for row, v in enumerate(self.cols[ncol][1]) if v]
            if rows:
                up = max(up, rows[-1] - ncol)
                down = max(down, ncol - rows[0])
        return up, down

    def band_fault(self, down: int, through: Optional[int] = None) -> str:
        """The first column's fault against a raising operator of band
        (1, down), "" when there is none: an entry outside the band, or a
        raising entry other than 1.  Columns run to the reliable bound and
        below nw, where the raising entry is stored."""
        hi = self.reliable if through is None else min(self.reliable, through)
        for ncol in range(min(hi, self.nw - 1) + 1):
            den, nums = self.cols[ncol]
            outside = [row for row, v in enumerate(nums) if v and not ncol - down <= row <= ncol + 1]
            if outside:
                return f"entry outside band at ({outside[0]},{ncol})"
            if nums[ncol + 1] != den:
                return f"raising entry at column {ncol} is {self.entry(ncol + 1, ncol)}"
        return ""

    def three_term(self, through: Optional[int] = None):
        """Canonical coefficients (a_n, b_n) of x + a_theta + D b_theta, and
        the fault that keeps self from that shape.

        Returns (a, b, fault) with a[n] = a_n for 0 <= n <= hi and b[n-1] =
        b_n for 1 <= n <= hi, where hi is the reliable column bound, read off
        the three diagonals; fault is `band_fault(1)`, for the caller to
        report as a failed check.
        """
        hi = self.reliable if through is None else min(self.reliable, through)
        hi = min(hi, self.nw - 1)
        a = [self.entry(ncol, ncol) for ncol in range(hi + 1)]
        b = [self.entry(ncol - 1, ncol) / ncol for ncol in range(1, hi + 1)]
        return a, b, self.band_fault(1, hi)

    # -- comparison --------------------------------------------------------------

    def first_difference(self, other: "OpMatrix", through: Optional[int] = None):
        """First differing entry on the shared reliable block, or None.

        Canonical columns are equal exactly when their entries are, so
        columns are compared whole and entries only inside a differing one.
        """
        self._check_shape(other)
        hi = min(self.reliable, other.reliable)
        if through is not None:
            hi = min(hi, through)
        for ncol in range(hi + 1):
            (da, xs), (db, ys) = self.cols[ncol], other.cols[ncol]
            if da == db and xs == ys:
                continue
            for row, (x, y) in enumerate(zip(xs, ys)):
                if x * db != y * da:
                    return row, ncol, Fraction(x, da), Fraction(y, db)
        return None

    def equals(self, other: "OpMatrix", through: Optional[int] = None) -> bool:
        return self.first_difference(other, through) is None

    def cut(self, through: Optional[int]) -> "OpMatrix":
        """Columns 0..through, the rest zero, reliable at most through: column
        j of A.B reads column j of B alone, so A.B.cut(t) computes only the
        columns a comparison through t reads, and those exactly."""
        if through is None or through >= self.nw:
            return self
        zeros = [(1, [0] * (self.nw + 1)) for _ in range(through, self.nw)]
        return OpMatrix._of(self.cols[: through + 1] + zeros, self.nw, self.raised, min(self.reliable, through))

    def __repr__(self):
        return f"OpMatrix(nw={self.nw}, raised={self.raised}, reliable={self.reliable})"


# -- helpers -------------------------------------------------------------------


def mgf_from_gop(gop: OpMatrix) -> TruncSeries:
    """Moment generating function of the family with operator `gop`: the bar
    transform of the inverse, applied to 1, sum_n (gop^(-1))[0][n] y^n/n!.
    Row 0 of gop^(-1) solves y gop = e_0: with column n of gop = N_n/d_n,
    y_n = (d_n [n == 0] - sum_{k<n} y_k N_n[k]) / N_n[n], forward in integers
    over one running denominator, O(nw^2).  Raises what inverse() raises."""
    gop._require_invertible()
    ys, s = [], 1
    for n, (d, nums) in enumerate(gop.cols):
        acc = (d * s if n == 0 else 0) - sum(map(operator.mul, ys, nums))
        s = _append_over(ys, s, acc, nums[n])
    weight = 1  # nw!/n!, then nw!
    for n in range(gop.nw, 0, -1):
        ys[n] *= weight
        weight *= n
    ys[0] *= weight
    return TruncSeries._make(s * weight, ys)


def conjugate(m: OpMatrix, t: OpMatrix) -> OpMatrix:
    """m^(-1) t m for m upper triangular with a nonzero diagonal, with the
    raised and reliable of that product and the same entries on its reliable
    block; columns past it are left zero.  Raises what inverse() raises.

    Column n solves m v = (t m)_n by back substitution, in integers over one
    running denominator as inverse() does, from the top nonzero row of
    (t m)_n down to row 0.  Only the nonzero v_k enter each row's sum, so a
    banded result costs O(nw) per column, and every row below the band,
    whose numerator must then come out 0, is the cross-multiplied check
    (t m - m v)_r == 0 of that column; a column that is not banded is
    solved in full by the same loop.
    """
    m._check_shape(t)
    m._require_invertible()
    nw = m.nw
    reliable = min(t.reliable, m.reliable - t.raised, nw - t.raised)
    reliable = min(m.reliable, reliable - m.raised, nw - m.raised)
    m_cols = [nums for _, nums in m.cols]
    tm = (t @ m).cols
    cols = []
    for n in range(reliable + 1):
        # with column k of m = N_k/d_k, N z = w gives v_k = z_k d_k / w_den;
        # z_r = ys[i]/s for the rows[i] where z is nonzero
        w_den, w = tm[n]
        rows, ys, s = [], [], 1
        for r in range(max((i for i, v in enumerate(w) if v), default=-1), -1, -1):
            acc = w[r] * s - sum(m_cols[k][r] * y for k, y in zip(rows, ys))
            if acc:
                rows.append(r)
                s = _append_over(ys, s, acc, m_cols[r][r])
        nums = [0] * (nw + 1)
        for k, y in zip(rows, ys):
            nums[k] = y * m.cols[k][0]
        cols.append(_reduced(s * w_den, nums))
    cols += [(1, [0] * (nw + 1)) for _ in range(len(cols), nw + 1)]
    return OpMatrix._of(cols, nw, t.raised + m.raised, reliable)

