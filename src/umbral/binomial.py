"""Binomial-family extensions: inversion forms, fractional-index
polynomials, the lowering relation, and numeric checks of the large-index
log expansion.

Everything except asym_compare is exact.  asym_compare evaluates logs of
exact rationals, so it runs in decimal arithmetic at an explicit precision;
precision is the only approximate ingredient and it is a parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Sequence

from .checks import first_failure, flag_check
from .errors import EvaluationDomain, NonpositiveArgument, OrderExhausted
from .indexfn import Poly, affine
from .opalg import OpMatrix
from .series import TruncSeries, as_rat, exp_series

# -- Lagrange inversion forms ---------------------------------------------------


def lagrange_forms(f: TruncSeries, n: int, order: int) -> list:
    """Both inversion forms of the n-th binomial polynomial against the
    composition operator's column:

        p_n(x) = x (D/f(D))^n x^(n-1) = f'(D)(D/f(D))^(n+1) x^n
    """
    nw = order
    if f.order < nw + 1:
        raise OrderExhausted("base series must exceed the working order")
    cf = OpMatrix.umbral_compose(f.truncate(nw), nw)
    reference = cf.column_poly(n)
    y_over_f = f.y_over_f().truncate(nw)
    ratio_n = TruncSeries.one(nw)
    for _ in range(n):
        ratio_n = (ratio_n * y_over_f).truncate(nw)
    first = OpMatrix.x_op(nw) @ OpMatrix.series_of_d(ratio_n, nw)
    form1 = first.apply_poly(Poly([0] * (n - 1) + [1])) if n >= 1 else Poly.const(1)
    ratio_n1 = (ratio_n * y_over_f).truncate(nw)
    fprime = f.derivative().truncate(nw)
    second = OpMatrix.series_of_d(fprime, nw) @ OpMatrix.series_of_d(ratio_n1, nw)
    form2 = second.apply_poly(Poly([0] * n + [1]))
    return [
        flag_check(f"inversion form 1, degree {n}", form1 == reference, "columns differ"),
        flag_check(f"inversion form 2, degree {n}", form2 == reference, "columns differ"),
    ]


# -- fractional index ----------------------------------------------------------------


def frac_index_p(f: TruncSeries, s, terms: int) -> tuple:
    """The coefficients c_0 = 1, c_1, ..., c_terms of the descending expansion
    p_s(x) = sum_k c_k x^(s-k), with c_k = [y^k](y/f)^s * (s-1)(s-2)...(s-k)."""
    s = as_rat(s)
    if terms > f.order:
        raise OrderExhausted("need the base series beyond the term count")
    y_over_f = f.y_over_f().truncate(terms)
    weight = y_over_f.pow_fraction(s).coeffs
    fall = affine(s - 1, -1).products(terms + 1)  # (s-1)...(s-k)
    return tuple(weight[k] * fall[k] for k in range(terms + 1))


def lowering_check(f: TruncSeries, s, terms: int) -> list:
    """f applied to the index-lowering argument: f(D)p_s = s p_(s-1),
    compared coefficient-wise on the descending expansions."""
    s = as_rat(s)
    p_s = frac_index_p(f, s, terms + 1)
    p_sm1 = frac_index_p(f, s - 1, terms)
    got = [Fraction(0)] * (terms + 1)
    for k, c in enumerate(p_s):
        if c == 0:
            continue
        top = min(f.order, terms + 1 - k)
        fall = affine(s - k, -1).products(top + 1)  # (s-k)(s-k-1)...(s-k-j+1)
        for j in range(1, top + 1):
            if f.coeffs[j]:
                got[k + j - 1] += c * f.coeffs[j] * fall[j]
    expected = [s * c for c in p_sm1[: terms + 1]]
    return [first_failure(f"lowering relation s={s} to {terms} terms", (
        flag_check(f"lowering relation s={s}", got[m] == expected[m], f"term {m}: {got[m]} != {expected[m]}")
        for m in range(terms + 1)
    ))]


# -- asymptotic instances ----------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticInstance:
    """Closed-form ingredients for the large-index log expansion of one
    binomial family, plus the exact integer-index polynomial evaluator.

    Fields hold decimal evaluators (callables Decimal alpha -> Decimal) for
    omega and its derivatives and for the antiderivative of ln f'(omega(t));
    they are hand-derived per instance (see the constructors below) and
    cross-checked against the series engine in the test suite.
    """

    name: str
    base_series: Callable[[int], TruncSeries]
    omega: Callable
    omega_d1: Callable
    omega_d2: Callable
    omega_d3: Callable
    log_weight_integral: Callable  # integral_0^alpha ln f'(omega(t)) dt
    alpha_over_omega_d1_d4: Callable  # 4th derivative of alpha/omega'(alpha)
    exact_poly_value: Callable  # (s: int, x: Fraction) -> Fraction
    radius: Fraction  # documented empirically safe alpha bound


def falling_factorial_instance() -> AsymptoticInstance:
    """Base series e^y - 1; the integer-index polynomials are the falling
    factorials x(x-1)...(x-s+1).

    Closed forms (obtained by elementary calculus from f/f' = 1 - e^{-y}):
      omega(t)      = -ln(1-t)
      omega'(t)     = 1/(1-t),  omega'' = 1/(1-t)^2,  omega''' = 2/(1-t)^3
      ln f'(omega)  = -ln(1-t)
      integral_0^a  = a + (1-a) ln(1-a)
      a/omega'(a)   = a(1-a), whose 4th derivative vanishes identically.
    """

    def base(order):
        return exp_series(1, order) - 1

    def exact_value(s: int, x: Fraction) -> Fraction:
        acc = Fraction(1)
        for j in range(s):
            acc *= x - j
        return acc

    one = Decimal(1)
    return AsymptoticInstance(
        name="falling-factorial",
        base_series=base,
        omega=lambda a: -(one - a).ln(),
        omega_d1=lambda a: one / (one - a),
        omega_d2=lambda a: one / (one - a) ** 2,
        omega_d3=lambda a: Decimal(2) / (one - a) ** 3,
        log_weight_integral=lambda a: a + (one - a) * (one - a).ln(),
        alpha_over_omega_d1_d4=lambda a: Decimal(0),
        exact_poly_value=exact_value,
        radius=Fraction(9, 10),
    )


def geometric_instance() -> AsymptoticInstance:
    """Base series y/(1-y); here f/f' = y - y^2 with inverse
    omega(t) = (1 - sqrt(1-4t))/2.

    Closed forms (u = sqrt(1-4a)):
      omega'(a)   = (1-4a)^(-1/2), omega'' = 2(1-4a)^(-3/2),
      omega'''    = 12(1-4a)^(-5/2)
      ln f'(omega(t)) = -2 ln((1+sqrt(1-4t))/2)
      integral_0^a = [A(u) - (u^2/2) ln 2]_{u=1}^{sqrt(1-4a)} with
        A(u) = ((u^2-1)/2) ln(1+u) - u^2/4 + u/2
        (substitute t = (1-u^2)/4 in -2 integral ln((1+u(t))/2) dt)
      a/omega'(a) = a sqrt(1-4a), with 4th derivative
        (144a - 96)(1-4a)^(-7/2).
    """

    def base(order):
        return TruncSeries.from_function(lambda i: 0 if i == 0 else 1, order)

    def exact_value(s: int, x: Fraction) -> Fraction:
        # c_k = binom(s, k)(-1)^k (s-1)_k from (y/f)^s = (1-y)^s
        if s == 0:
            return Fraction(1)
        power = x**s
        acc, fall = power, 1  # fall = (s-1)(s-2)...(s-k)
        for k in range(1, s):
            fall *= s - k
            power /= x
            acc += math.comb(s, k) * (-1) ** k * fall * power
        return acc

    one = Decimal(1)

    def u_of(a):
        return (one - 4 * a).sqrt()

    def integral(a):
        u = u_of(a)
        ln2 = Decimal(2).ln()

        def anti(v):
            return ((v * v - one) / 2) * (one + v).ln() - v * v / 4 + v / 2 - (v * v / 2) * ln2

        return anti(u) - anti(one)

    def g4(a):
        # 4th derivative of g(a) = a(1-4a)^(1/2).  Repeated differentiation
        # gives g'''' = -96(1-4a)^(-5/2) - 240 a (1-4a)^(-7/2), i.e.
        # (144a - 96)(1-4a)^(-7/2); the value -96 at a=0 matches the series
        # a - 2a^2 - 2a^3 - 4a^4 - ... term by term.
        w = one - 4 * a
        return (Decimal(144) * a - 96) / (w**3 * w.sqrt())

    return AsymptoticInstance(
        name="geometric",
        base_series=base,
        omega=lambda a: (one - u_of(a)) / 2,
        omega_d1=lambda a: one / u_of(a),
        omega_d2=lambda a: Decimal(2) / u_of(a) ** 3,
        omega_d3=lambda a: Decimal(12) / u_of(a) ** 5,
        log_weight_integral=integral,
        alpha_over_omega_d1_d4=g4,
        exact_poly_value=exact_value,
        radius=Fraction(1, 5),
    )


INSTANCES = {
    "falling-factorial": falling_factorial_instance,
    "geometric": geometric_instance,
}


def _to_decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def log_poly_expansion_terms(inst: AsymptoticInstance, alpha: Fraction, s: int):
    """The successive bracketed terms of the expansion of ln p_s(s/alpha):
    index 0 holds the two order-s terms, then s^0, s^(-1), s^(-2)."""
    a = _to_decimal(alpha)
    sd = Decimal(s)
    x = _to_decimal(Fraction(s) / alpha)
    w1 = inst.omega_d1(a)
    w2 = inst.omega_d2(a)
    w3 = inst.omega_d3(a)
    lead = sd * x.ln() - sd / a * inst.log_weight_integral(a)
    const = w1.ln() / 2
    bracket = (
        2 * (w1 - 1) / w1
        + 4 * a * a * w2 * w2 / w1**3
        - 2 * a * w2 / (w1 * w1)
        - 3 * a * a * w3 / (w1 * w1)
    ) / (24 * sd)
    tail = -(a**3 / w1) * inst.alpha_over_omega_d1_d4(a) / (48 * sd * sd)
    return [lead, const, bracket, tail]


def asym_compare(
    inst: AsymptoticInstance,
    alpha,
    s_values: Sequence[int],
    level: int,
    digits: int = 60,
) -> dict:
    """Exact log values against expansion partial sums.

    Level L sums the displayed terms through order s^(1-L); the report
    carries the residuals and the empirical exponent p with
    residual ~ s^p estimated from consecutive (s, 2s)-style pairs.
    Generically p is close to -L, the order of the first omitted term.  It
    is lower when that term vanishes for the instance: for the falling
    factorials the s^-2 term is identically zero, so level 2 gives p = -3.
    """
    alpha = as_rat(alpha)
    if not (0 < alpha <= inst.radius):
        raise EvaluationDomain(f"alpha={alpha} outside documented radius {inst.radius}")
    if level not in (0, 1, 2, 3):
        raise EvaluationDomain("level must be 0..3")
    if not s_values:
        raise EvaluationDomain("the expansion needs at least one index s")
    if any(s < 1 for s in s_values):
        raise EvaluationDomain("the expansion needs indices s >= 1")
    if len(set(s_values)) != len(s_values):
        raise EvaluationDomain("the indices s must be distinct")
    rows = []
    residuals = []
    with localcontext() as ctx:
        ctx.prec = digits
        for s in s_values:
            x = Fraction(s) / alpha
            value = inst.exact_poly_value(s, x)
            if value <= 0:
                raise NonpositiveArgument(f"p_{s}({x}) = {value}")
            exact = (Decimal(value.numerator) / Decimal(value.denominator)).ln()
            terms = log_poly_expansion_terms(inst, alpha, s)
            approx = sum(terms[: level + 1])
            residual = exact - approx
            residuals.append(residual)
            rows.append(
                {
                    "s": s,
                    "exact": str(exact),
                    "approx": str(approx),
                    "residual": str(residual),
                }
            )
        estimates = []
        for r1, r2, s1, s2 in zip(residuals, residuals[1:], s_values, s_values[1:]):
            if r1 == 0 or r2 == 0:
                continue
            est = (abs(r2) / abs(r1)).ln() / (Decimal(s2) / Decimal(s1)).ln()
            estimates.append(est)
        order_estimate = sum(estimates) / len(estimates) if estimates else None
    return {
        "instance": inst.name,
        "alpha": str(alpha),
        "level": level,
        "digits": digits,
        "rows": rows,
        "order_estimate": str(order_estimate) if order_estimate is not None else None,
    }
