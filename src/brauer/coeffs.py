"""Exact scalar domains shared by every other module.

Four kinds of numbers appear throughout:

  * plain rationals -- stdlib ``Fraction`` (re-exported as ``Rational``);
  * ``NPoly`` -- polynomials in the formal parameter N with rational
    coefficients, used while N is kept symbolic;
  * ``SurdSum`` -- finite sums ``sum c_r * sqrt(r)`` with c_r rational and
    r squarefree, the entry type of representation matrices.  The squarefree
    normal form makes equality of values equality of the coefficient maps;
  * ``USeries`` -- formal series ``a*u + c_0 + c_1/u + ... + c_K/u^K``
    truncated at order K, with at most one positive power of u.

``Combination`` is the common base of the algebra elements built on these
scalars (diagram, affine and Hecke elements): a dict from basis key to
non-zero NPoly.  ``add_term`` is the one "add, and drop the entry if it
becomes zero" step that every sparse sum here uses.

All values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Rational = Fraction

Scalar = Union[int, Fraction, "NPoly"]


def as_fraction(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction."""
    return Fraction(text.strip())


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def add_term(terms: dict, key, value) -> None:
    """``terms[key] += value``, storing no zero.

    The one rule of every sparse sum in the package; works for any value type
    whose truthiness is "non-zero" (Fraction, NPoly, SurdSum).
    """
    if key in terms:
        value = terms[key] + value
    if value:
        terms[key] = value
    else:
        terms.pop(key, None)


# ---------------------------------------------------------------------------
# polynomials in the formal parameter N


class NPoly:
    """Polynomial in the formal symbol N over the rationals.

    Stored as a map exponent -> nonzero Fraction.  Arithmetic accepts ints and
    Fractions on either side, so code generic over "Fraction or NPoly" scalars
    can mix them freely.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = as_fraction(c)
                if c:
                    if e < 0:
                        raise ValueError("negative exponent in NPoly")
                    clean[e] = c
        self.coeffs = clean

    # -- constructors

    @staticmethod
    def zero() -> NPoly:
        return NPoly()

    @staticmethod
    def one() -> NPoly:
        return NPoly({0: Fraction(1)})

    @staticmethod
    def const(c: int | Fraction) -> NPoly:
        return NPoly({0: as_fraction(c)})

    @staticmethod
    def N() -> NPoly:
        return NPoly({1: Fraction(1)})

    @staticmethod
    def coerce(x: Scalar) -> NPoly:
        if isinstance(x, NPoly):
            return x
        return NPoly.const(as_fraction(x))

    # -- queries

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations

    def __add__(self, other) -> NPoly:
        other = NPoly.coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            add_term(out, e, c)
        return NPoly(out)

    __radd__ = __add__

    def __neg__(self) -> NPoly:
        return NPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> NPoly:
        return self + (-NPoly.coerce(other))

    def __rsub__(self, other) -> NPoly:
        return NPoly.coerce(other) + (-self)

    def __mul__(self, other) -> NPoly:
        other = NPoly.coerce(other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                add_term(out, e1 + e2, c1 * c2)
        return NPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> NPoly:
        if k < 0:
            raise ValueError("negative power of an NPoly")
        result = NPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NPoly.const(as_fraction(other))
        if not isinstance(other, NPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its Fraction value, so it must hash like it
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(sorted(self.coeffs.items())))

    # -- specialization and printing

    def eval(self, value: int | Fraction) -> Fraction:
        """Specialize N to a rational value."""
        v = as_fraction(value)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * v**e
        return total

    def sort_key(self) -> tuple:
        return tuple(sorted(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"NPoly({self.to_string()!r})"

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if e == 0:
                body = format_rational(c)
            else:
                var = "N" if e == 1 else f"N^{e}"
                body = var if c == 1 else f"{format_rational(c)}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    @staticmethod
    def from_string(text: str) -> NPoly:
        """Inverse of to_string; accepts e.g. "3/2*N^2 - N + 1"."""
        text = text.strip().replace("-", "+-")
        coeffs: dict[int, Fraction] = {}
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            neg = chunk.startswith("-")
            if neg:
                chunk = chunk[1:].strip()
            if "N" in chunk:
                head, _, tail = chunk.partition("N")
                head = head.strip().rstrip("*").strip()
                coeff = Fraction(head) if head else Fraction(1)
                tail = tail.strip()
                exp = int(tail[1:]) if tail.startswith("^") else 1
            else:
                coeff = Fraction(chunk)
                exp = 0
            if neg:
                coeff = -coeff
            add_term(coeffs, exp, coeff)
        return NPoly(coeffs)


HALF = Fraction(1, 2)


def n_minus_1_half() -> NPoly:
    """(N - 1)/2 as a symbolic polynomial; the constant term of every x_k."""
    return NPoly({1: HALF, 0: -HALF})


# ---------------------------------------------------------------------------
# sparse combinations over a basis


class Combination:
    """A finite NPoly-linear combination of basis keys of one size n.

    ``terms`` maps each basis key to its non-zero coefficient; every sum keeps
    it that way through ``add_term``.  The element classes of B(n, N),
    A(n, N) and H(n) derive from this and add only their constructors, their
    product and their printing, plus a key check (``_check_key``) where the
    default one, "the key's own ``n`` is the element's", does not apply.
    Elements are immutable after construction: ``__init__`` validates keys
    and coefficients once, and code that already holds a clean map builds
    through ``_trusted``.  Arithmetic combines only elements of the same class
    and size (``_check_compatible``).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        clean = {}
        if terms:
            for key, c in terms.items():
                self._check_key(key)
                c = NPoly.coerce(c)
                if c:
                    clean[key] = c
        self.terms = clean

    def _check_key(self, key) -> None:
        if key.n != self.n:
            raise ValueError(f"size-{key.n} basis element in a size-{self.n} {type(self).__name__}")

    @classmethod
    def _trusted(cls, n: int, terms: dict):
        """Wrap a map whose keys fit n and whose coefficients are non-zero NPolys."""
        element = cls.__new__(cls)
        element.n = n
        element.terms = terms
        return element

    @classmethod
    def zero(cls, n: int):
        return cls._trusted(n, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, int) and other == 0:  # the start value of sum()
            return self
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._trusted(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(self.n, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = NPoly.coerce(c)
        if not c:
            return self.zero(self.n)
        return self._trusted(self.n, {key: x * c for key, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


# ---------------------------------------------------------------------------
# quadratic-surd sums


@lru_cache(maxsize=4096)
def squarefree_decomposition(r: int) -> tuple[int, int]:
    """Write r = m^2 * s with s squarefree; returns (m, s).

    Trial division is plenty: radicands come from products of half-integers
    bounded at desk scale, and the few distinct ones are memoised (the
    acceptance sweep and every level-6 representation at N = 4, 7 meet 360).
    """
    if r <= 0:
        raise ValueError("radicand must be positive")
    m, s = 1, 1
    d = 2
    while d * d <= r:
        if r % d == 0:
            count = 0
            while r % d == 0:
                r //= d
                count += 1
            m *= d ** (count // 2)
            if count % 2:
                s *= d
        d += 1
    return m, s * r


class SurdSum:
    """Exact real number of the form sum c_r * sqrt(r), r squarefree.

    The map radicand -> coefficient is the unique normal form (square roots of
    distinct squarefree integers are linearly independent over Q), so value
    equality is map equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for r, c in terms.items():
                c = as_fraction(c)
                if not c:
                    continue
                m, s = squarefree_decomposition(r)
                add_term(clean, s, m * c)
        self.terms = clean

    @staticmethod
    def _trusted(terms: dict[int, Fraction]) -> SurdSum:
        """Wrap a map already in normal form, without re-reducing it."""
        result = SurdSum.__new__(SurdSum)
        result.terms = terms
        return result

    @staticmethod
    def zero() -> SurdSum:
        return SurdSum()

    @staticmethod
    def one() -> SurdSum:
        return SurdSum({1: Fraction(1)})

    @staticmethod
    def rational(q: int | Fraction) -> SurdSum:
        return SurdSum({1: as_fraction(q)})

    @staticmethod
    def coerce(x) -> SurdSum:
        if isinstance(x, SurdSum):
            return x
        return SurdSum.rational(as_fraction(x))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_rational(self) -> bool:
        return all(r == 1 for r in self.terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.terms.get(1, Fraction(0))

    def __add__(self, other) -> SurdSum:
        other = SurdSum.coerce(other)
        out = dict(self.terms)
        for r, c in other.terms.items():
            add_term(out, r, c)
        return SurdSum._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> SurdSum:
        return SurdSum._trusted({r: -c for r, c in self.terms.items()})

    def __sub__(self, other) -> SurdSum:
        return self + (-SurdSum.coerce(other))

    def __rsub__(self, other) -> SurdSum:
        return SurdSum.coerce(other) + (-self)

    def __mul__(self, other) -> SurdSum:
        if other.__class__ is not SurdSum:
            other = SurdSum.coerce(other)
        out: dict[int, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                c = c1 * c2
                if r1 == r2:
                    s = 1
                    if r1 != 1:
                        c = r1 * c
                elif r1 == 1:
                    s = r2
                elif r2 == 1:
                    s = r1
                else:
                    m, s = squarefree_decomposition(r1 * r2)
                    if m != 1:
                        c = m * c
                if s in out:
                    c += out[s]
                    if not c:
                        del out[s]
                        continue
                out[s] = c
        result = SurdSum.__new__(SurdSum)
        result.terms = out
        return result

    __rmul__ = __mul__

    def divide_rational(self, q: int | Fraction) -> SurdSum:
        q = as_fraction(q)
        if not q:
            raise ZeroDivisionError("division of a SurdSum by zero")
        return SurdSum._trusted({r: c / q for r, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SurdSum.rational(as_fraction(other))
        if not isinstance(other, SurdSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r in sorted(self.terms):
            c = self.terms[r]
            parts.append(format_rational(c) if r == 1 else f"{format_rational(c)}*sqrt({r})")
        return " + ".join(parts)


def sqrt_of_rational(q: int | Fraction) -> SurdSum:
    """The non-negative square root of q >= 0 as c*sqrt(r), r squarefree."""
    q = as_fraction(q)
    if q < 0:
        raise ValueError(f"sqrt of negative rational {q}")
    if q == 0:
        return SurdSum.zero()
    # sqrt(p/q) = sqrt(p*q)/q
    m, s = squarefree_decomposition(q.numerator * q.denominator)
    return SurdSum({s: Fraction(m, q.denominator)})


# ---------------------------------------------------------------------------
# truncated series in 1/u


class USeries:
    """Truncated formal series a*u + c_0 + c_1 u^{-1} + ... + c_K u^{-K}.

    Coefficients may be Fractions or NPoly (anything forming a commutative
    ring that absorbs ints).  At most one positive power of u is carried,
    which is all the central series Z(mu, u) needs.  Multiplication of two
    series with u-terms is rejected.
    """

    __slots__ = ("order", "coeffs", "u_coeff")

    def __init__(self, coeffs: Iterable, u_coeff=0):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a USeries needs at least the constant term")
        self.order = len(self.coeffs) - 1
        self.u_coeff = u_coeff

    @staticmethod
    def constant(value, order: int) -> USeries:
        return USeries([value] + [0] * order)

    def __add__(self, other) -> USeries:
        if not isinstance(other, USeries):
            other = USeries.constant(other, self.order)
        k = min(self.order, other.order)
        return USeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(k + 1)],
            self.u_coeff + other.u_coeff,
        )

    __radd__ = __add__

    def __neg__(self) -> USeries:
        return USeries([-c for c in self.coeffs], -self.u_coeff)

    def __sub__(self, other) -> USeries:
        if not isinstance(other, USeries):
            other = USeries.constant(other, self.order)
        return self + (-other)

    def __mul__(self, other) -> USeries:
        if not isinstance(other, USeries):
            return USeries([c * other for c in self.coeffs], self.u_coeff * other)
        a_u = not (self.u_coeff == 0 or (hasattr(self.u_coeff, "is_zero") and self.u_coeff.is_zero()))
        b_u = not (other.u_coeff == 0 or (hasattr(other.u_coeff, "is_zero") and other.u_coeff.is_zero()))
        if a_u and b_u:
            raise ValueError("product of two series with u-terms leaves the carried form")
        k = min(self.order, other.order)
        if a_u:
            k = min(k, other.order - 1)
        if b_u:
            k = min(k, self.order - 1)
        if k < 0:
            raise ValueError("series too short for a u-shifted product")
        u_out = self.u_coeff * other.coeffs[0] + other.u_coeff * self.coeffs[0]
        out = []
        for i in range(k + 1):
            acc = 0
            for s in range(i + 1):
                acc = acc + self.coeffs[s] * other.coeffs[i - s]
            if a_u:
                acc = acc + self.u_coeff * other.coeffs[i + 1]
            if b_u:
                acc = acc + other.u_coeff * self.coeffs[i + 1]
            out.append(acc)
        return USeries(out, u_out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return (
            self.order == other.order
            and self.u_coeff == other.u_coeff
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.order, self.u_coeff, self.coeffs))

    def agrees_with(self, other: USeries, order: int | None = None) -> bool:
        """Coefficientwise equality through the given (or common) order."""
        k = min(self.order, other.order) if order is None else order
        if k > min(self.order, other.order):
            raise ValueError("comparison order exceeds a truncation order")
        return self.u_coeff == other.u_coeff and all(
            self.coeffs[i] == other.coeffs[i] for i in range(k + 1)
        )

    def __repr__(self) -> str:
        return f"USeries(u_coeff={self.u_coeff}, coeffs={list(self.coeffs)})"


def linear_fraction_series(alpha, beta, order: int) -> USeries:
    """(u + alpha)/(u - beta) = 1 + (alpha+beta) * sum_{t>=1} beta^{t-1} u^{-t}."""
    top = alpha + beta
    coeffs: list = [1]
    power = 1
    for _ in range(order):
        coeffs.append(top * power)
        power = power * beta
    return USeries(coeffs)

