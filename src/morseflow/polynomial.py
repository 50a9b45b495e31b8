"""Sparse multivariate polynomials with exact arithmetic on exponent vectors.

A polynomial is stored as an ordered tuple of monomials over a fixed, ordered
tuple of variable names.  Exponent vectors are integer tuples aligned with the
variable tuple, coefficients are double precision floats.  The term order is
descending lexicographic on the exponent vector, zero coefficients are
dropped, and no two monomials share an exponent vector; this canonical form
makes equality, printing and parsing stable (``parse(str(p)) == p``).

Differentiation is exact (coefficient times exponent, exponent decremented),
so gradients and Jacobians of polynomial data carry no truncation error.

Evaluation runs generated code.  On its first evaluation a polynomial, a
system, or a system's Jacobian is compiled from its canonical monomials into
one straight-line Python function of positional arguments ``x0 .. x{n-1}``:
each needed power is computed once as a product of lower powers, and each
output is a sum of coefficient literals times powers.  The same function
serves one point, called on the Python floats of ``x.tolist()``, and a batch,
called on the columns of an ``(N, n)`` array, where numpy broadcasts the same
arithmetic; row ``i`` of a batch therefore equals the single-point result at
row ``i`` bit for bit.  ``gradient(f)`` is built once per polynomial and
shared, so every caller reuses one compiled gradient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class Monomial:
    """One term: ``coefficient * prod(var_i ** exponents_i)``."""

    coefficient: float
    exponents: Exponents


class ParseError(ValueError):
    """Raised on malformed input; ``position`` is a 0-based character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _canonical(variables: tuple[str, ...], terms: Iterable[Monomial]) -> tuple[Monomial, ...]:
    n = len(variables)
    merged: dict[Exponents, float] = {}
    for t in terms:
        e = tuple(t.exponents)
        if len(e) != n:
            raise ValueError(f"exponent vector {e} does not match {n} variables")
        if any((not isinstance(k, (int, np.integer))) or k < 0 for k in e):
            raise ValueError(f"exponents must be nonnegative integers, got {e}")
        merged[e] = merged.get(e, 0.0) + float(t.coefficient)
    out = [Monomial(c, e) for e, c in merged.items() if c != 0.0]
    out.sort(key=lambda m: m.exponents, reverse=True)
    return tuple(out)


# -- compiled evaluation ------------------------------------------------


def _compile(n: int, rows: Sequence[Sequence[Monomial]]):
    """Straight-line function of ``x0 .. x{n-1}`` returning one value per row.

    The source is built from exponents and ``repr`` of the coefficients only,
    never from variable names.  Powers are products (``x0_3 = x0 * x0_2``),
    not ``**``: Python raises on a float ``**`` overflow, multiplication
    gives ``inf`` like numpy does.  A zero row returns ``0.0``.
    """
    powers: dict[str, str] = {}

    def power(i: int, k: int) -> str:
        if k == 1:
            return f"x{i}"
        name = f"x{i}_{k}"
        if name not in powers:
            powers[name] = f"{power(i, k // 2)} * {power(i, k - k // 2)}"
        return name

    values = [
        " + ".join("*".join([repr(t.coefficient)] + [power(i, k) for i, k in enumerate(t.exponents) if k])
                   for t in terms) or "0.0"
        for terms in rows
    ]
    lines = [f"def kernel({', '.join(f'x{i}' for i in range(n))}):"]
    lines += [f"    {name} = {expr}" for name, expr in powers.items()]
    lines.append(f"    return ({''.join(v + ', ' for v in values)})")
    namespace = {"__builtins__": {}, "inf": float("inf"), "nan": float("nan")}
    exec(compile("\n".join(lines), "<polynomial kernel>", "exec"), namespace)
    return namespace["kernel"]


def _points(point, n: int) -> np.ndarray:
    x = np.asarray(point, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"point has shape {x.shape}, expected ({n},) or (N, {n})")
    return x


def _batch(kernel, x: np.ndarray) -> np.ndarray:
    """Kernel values at each row of ``x``, shape ``(N, rows)``."""
    if x.shape[0] == 1:  # one row runs faster on Python floats, with the same bits
        return np.array([kernel(*x[0].tolist())], dtype=float)
    values = kernel(*x.T)
    out = np.empty((x.shape[0], len(values)))
    for j, v in enumerate(values):
        out[:, j] = v
    return out


@dataclass(frozen=True, init=False)
class Polynomial:
    variables: tuple[str, ...]
    terms: tuple[Monomial, ...]

    def __init__(self, variables: Sequence[str], terms: Iterable[Monomial]):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "terms", _canonical(self.variables, terms))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "Polynomial":
        return Polynomial(variables, ())

    @staticmethod
    def constant(variables: Sequence[str], value: float) -> "Polynomial":
        n = len(variables)
        return Polynomial(variables, (Monomial(float(value), (0,) * n),))

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        i = variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return Polynomial(variables, (Monomial(1.0, e),))

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other: "Polynomial | float") -> "Polynomial":
        other = self._coerce(other)
        self._check_compatible(other)
        return Polynomial(self.variables, self.terms + other.terms)

    def __sub__(self, other: "Polynomial | float") -> "Polynomial":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, tuple(Monomial(-t.coefficient, t.exponents) for t in self.terms))

    def __mul__(self, other: "Polynomial | float") -> "Polynomial":
        other = self._coerce(other)
        self._check_compatible(other)
        prods = [
            Monomial(a.coefficient * b.coefficient, tuple(i + j for i, j in zip(a.exponents, b.exponents)))
            for a in self.terms
            for b in other.terms
        ]
        return Polynomial(self.variables, prods)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {k!r}")
        out = Polynomial.constant(self.variables, 1.0)
        base = self
        k = int(k)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other: "Polynomial | float") -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(self.variables, float(other))

    # -- evaluation ---------------------------------------------------

    @cached_property
    def _kernel(self):
        return _compile(len(self.variables), [self.terms])

    @cached_property
    def _gradient(self) -> "PolynomialSystem":
        return PolynomialSystem(self.variables, tuple(self.derivative(i) for i in range(len(self.variables))))

    def evaluate(self, point: Sequence[float] | np.ndarray) -> float | np.ndarray:
        """Value at a point (shape ``(n,)``) or batch of points (shape ``(N, n)``)."""
        x = _points(point, len(self.variables))
        if x.ndim == 1:
            return self._kernel(*x.tolist())[0]
        return _batch(self._kernel, x)[:, 0]

    def derivative(self, var: str | int) -> "Polynomial":
        """Exact partial derivative with respect to one variable."""
        i = var if isinstance(var, int) else self.variables.index(var)
        terms = []
        for t in self.terms:
            e = t.exponents[i]
            if e > 0:
                new_e = t.exponents[:i] + (e - 1,) + t.exponents[i + 1 :]
                terms.append(Monomial(t.coefficient * e, new_e))
        return Polynomial(self.variables, terms)

    # -- printing -----------------------------------------------------

    @staticmethod
    def _fmt(c: float) -> str:
        if c == int(c) and abs(c) < 1e16:
            return str(int(c))
        return repr(c)

    def _term_str(self, t: Monomial) -> str:
        c = abs(t.coefficient)
        parts = []
        has_vars = any(e > 0 for e in t.exponents)
        if not has_vars:
            return self._fmt(c)
        if c != 1.0:
            parts.append(self._fmt(c))
        for name, e in zip(self.variables, t.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, t in enumerate(self.terms):
            if i == 0:
                pieces.append(("-" if t.coefficient < 0 else "") + self._term_str(t))
            else:
                pieces.append((" + " if t.coefficient >= 0 else " - ") + self._term_str(t))
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.variables!r}, {str(self)!r})"


@dataclass(frozen=True, init=False)
class PolynomialSystem:
    """A tuple of polynomials over one shared variable tuple (a map R^n -> R^m)."""

    variables: tuple[str, ...]
    components: tuple[Polynomial, ...]

    def __init__(self, variables: Sequence[str], components: Iterable[Polynomial]):
        variables = tuple(variables)
        components = tuple(components)
        for p in components:
            if p.variables != variables:
                raise ValueError(f"component variables {p.variables} differ from {variables}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "components", components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    @cached_property
    def _kernel(self):
        return _compile(len(self.variables), [p.terms for p in self.components])

    @cached_property
    def _jacobian_kernel(self):
        n = len(self.variables)
        return _compile(n, [p.derivative(i).terms for p in self.components for i in range(n)])

    def evaluate(self, point: Sequence[float] | np.ndarray) -> np.ndarray:
        """Stacked values, shape ``(m,)`` for one point or ``(N, m)`` for a batch."""
        x = _points(point, len(self.variables))
        if x.ndim == 1:
            return np.array(self._kernel(*x.tolist()))
        return _batch(self._kernel, x)

    def jacobian_at(self, point: Sequence[float] | np.ndarray) -> np.ndarray:
        """Jacobian matrix, shape ``(m, n)`` at one point or ``(N, m, n)`` for a batch."""
        x = _points(point, len(self.variables))
        shape = (len(self.components), len(self.variables))
        if x.ndim == 1:
            return np.array(self._jacobian_kernel(*x.tolist())).reshape(shape)
        return _batch(self._jacobian_kernel, x).reshape((x.shape[0],) + shape)


def gradient(poly: Polynomial) -> PolynomialSystem:
    """Exact gradient: the system of all first partial derivatives.

    Built once per polynomial and shared by every caller, so its compiled
    kernel is too.
    """
    return poly._gradient


def jacobian(system: PolynomialSystem) -> list[PolynomialSystem]:
    """Exact Jacobian as a list of gradient systems, one per component."""
    return [gradient(p) for p in system.components]


# -- parsing ----------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := '-' factor | base ('^' uint)?
# base   := number | ident | '(' expr ')'
#
# Multiplication is always explicit and '^' takes a nonnegative integer
# literal.  '^' binds tighter than a unary '-', so -x^2 is -(x^2).

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.pos = 0
        self.tok: tuple[str, str, int] | None = None
        self._advance()

    def _advance(self) -> None:
        m = _TOKEN_RE.match(self.text, self.pos)
        while m is None:
            rest = self.text[self.pos :]
            if rest.strip() == "":
                self.tok = ("end", "", len(self.text))
                return
            bad = self.pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {self.text[bad]!r}", bad)
        kind = m.lastgroup
        assert kind is not None
        self.tok = (kind, m.group(kind), m.start(kind))
        self.pos = m.end()

    def expect_op(self, op: str) -> None:
        kind, text, where = self.tok
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", where)
        self._advance()

    def expr(self) -> Polynomial:
        value = self.term()
        while self.tok[0] == "op" and self.tok[1] in "+-":
            op = self.tok[1]
            self._advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.tok[0] == "op" and self.tok[1] == "*":
            self._advance()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        if self.tok[0] == "op" and self.tok[1] == "-":
            self._advance()
            return -self.factor()
        value = self.base()
        if self.tok[0] == "op" and self.tok[1] == "^":
            self._advance()
            kind, text, where = self.tok
            if kind != "number" or not re.fullmatch(r"\d+", text):
                raise ParseError(f"exponent must be a nonnegative integer literal, found {text or 'end of input'!r}", where)
            self._advance()
            value = value ** int(text)
        return value

    def base(self) -> Polynomial:
        kind, text, where = self.tok
        if kind == "number":
            self._advance()
            return Polynomial.constant(self.variables, float(text))
        if kind == "ident":
            if text not in self.variables:
                raise ParseError(f"unknown identifier {text!r}", where)
            self._advance()
            return Polynomial.variable(self.variables, text)
        if kind == "op" and text == "(":
            self._advance()
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"expected a number, variable, '(' or '-', found {text or 'end of input'!r}", where)


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse ``text`` over the given ordered variable names.

    Raises :class:`ParseError` with a character position on syntax errors,
    unknown identifiers, and non-integer or negative exponents.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables}")
    p = _Parser(text, variables)
    value = p.expr()
    if p.tok[0] != "end":
        raise ParseError(f"trailing input {p.tok[1]!r}", p.tok[2])
    return value
