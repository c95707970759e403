"""Exact real scalars living in towers of quadratic extensions of Q.

A tower is a chain Q = F_0 < F_1 < ... < F_k where each level adjoins the
square root of a nonnegative element of an earlier level.  Radicands are
verified to be non-squares before a level is created, so every step is a
genuine degree-2 extension.  That gives two properties everything else
leans on:

* zero testing is structural (an element is zero iff its canonical
  representation is the rational zero), and
* the sign of a nonzero element can be decided by refining rational
  interval enclosures until zero is excluded; over one Q(sqrt r) it is
  decided from ints at once.

Scalars are immutable and canonically stored at the shallowest level that
can represent them, so a pure rational is a reduced pair of ints no
matter which tower it came from.  Rational arithmetic runs on those ints
with Henrici's cross-gcd sum and product (Knuth, TAOCP vol. 2, 4.5.1);
``Fraction`` appears only where one is taken in (``scal``) or handed out
(``as_fraction``, ``interval``).  Addition and multiplication of deeper
scalars first align both operands on one chain (``Scalar._aligned``),
then combine their (a, b) pairs over it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from ..errors import InvalidInput, OutputTooLarge, PreconditionFailed

RatLike = Union[int, str, Fraction, "Scalar"]


class Tower:
    """One level of a quadratic extension chain.

    ``parent`` is the previous level (None for Q) and ``radicand`` is the
    adjoined element, stored at its own minimal depth but always lying in
    an ancestor of ``parent``.  Instances are interned, so chains that were
    built independently from equal radicands compare by identity.
    """

    __slots__ = ("parent", "radicand", "depth")
    _intern: dict = {}

    def __init__(self, parent: Tower | None, radicand: Scalar):
        self.parent = parent
        self.radicand = radicand
        self.depth = 1 if parent is None else parent.depth + 1

    @staticmethod
    def extend(parent: Tower | None, radicand: Scalar) -> Tower:
        key = (id(parent), radicand._key())
        hit = Tower._intern.get(key)
        if hit is None:
            hit = Tower(parent, radicand)
            Tower._intern[key] = hit
        return hit

    def chain(self) -> list[Tower]:
        out: list[Tower] = []
        t: Tower | None = self
        while t is not None:
            out.append(t)
            t = t.parent
        out.reverse()
        return out

    def __repr__(self):
        return f"Tower(depth={self.depth}, sqrt({self.radicand!s}))"


def _is_ancestor(a: Tower | None, b: Tower | None) -> bool:
    """True when chain ``a`` is a prefix of chain ``b`` (None is always one)."""
    if a is None:
        return True
    while b is not None:
        if b is a:
            return True
        b = b.parent
    return False


class Scalar:
    """An exact real number in a quadratic extension tower.

    Rational scalars have ``tower is None`` and carry their numerator
    ``a`` and denominator ``b`` as ints, with gcd(a, b) == 1 and b > 0.
    Deeper scalars carry a pair (a, b) of Scalars over the parent chain
    meaning a + b*sqrt(radicand), with b nonzero; construction demotes
    b == 0 to the parent level so representations are unique per chain.
    """

    __slots__ = ("tower", "a", "b", "_sign")

    def __init__(self, tower, a, b):
        self.tower = tower
        self.a = a
        self.b = b
        self._sign = None

    @staticmethod
    def _ext(tower: Tower, a: Scalar, b: Scalar) -> Scalar:
        if b.is_zero():
            return a
        return Scalar(tower, a, b)

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return self.tower is None and self.a == 0

    def as_fraction(self) -> Fraction:
        if self.tower is not None:
            raise ValueError("scalar is not rational")
        return Fraction(self.a, self.b)

    def _key(self):
        if self.tower is None:
            return (self.a, self.b)
        return (self.a._key(), self.b._key(), self.tower.depth)

    # -- alignment across towers ----------------------------------------

    def _parts_over(self, tower: Tower) -> tuple[Scalar, Scalar]:
        """View self as (a, b) over ``tower``, which must contain self."""
        if self.tower is tower:
            return self.a, self.b
        return self, ZERO

    def _aligned(self, other: Scalar) -> tuple[Tower | None, Scalar, Scalar]:
        """(tower, x, y) with x, y the operands over one chain: the longer
        one when one chain contains the other, else the chain
        _merge_chains builds, where alignment runs again."""
        tx, ty = self.tower, other.tower
        if tx is ty or _is_ancestor(ty, tx):
            return tx, self, other
        if _is_ancestor(tx, ty):
            return ty, self, other
        embed = _merge_chains(tx, ty)
        return embed(self)._aligned(embed(other))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if self.tower is None and other.tower is None:
            na, da, nb, db = self.a, self.b, other.a, other.b
            g = gcd(da, db)
            if g == 1:
                return Scalar(None, na * db + nb * da, da * db)
            s = da // g
            t = na * (db // g) + nb * s
            g2 = gcd(t, g)
            return Scalar(None, t // g2, s * (db // g2))
        t, x, y = self._aligned(other)
        xa, xb = x._parts_over(t)
        ya, yb = y._parts_over(t)
        return Scalar._ext(t, xa + ya, xb + yb)

    __radd__ = __add__

    def __neg__(self):
        if self.tower is None:
            return Scalar(None, -self.a, self.b)
        return Scalar(self.tower, -self.a, -self.b)

    def __sub__(self, other):
        other = other if other.__class__ is Scalar else _operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _operand(other)
            if other is None:
                return NotImplemented
        if self.tower is None and other.tower is None:
            na, da, nb, db = self.a, self.b, other.a, other.b
            g1, g2 = gcd(na, db), gcd(nb, da)
            return Scalar(None, (na // g1) * (nb // g2), (da // g2) * (db // g1))
        t, x, y = self._aligned(other)
        xa, xb = x._parts_over(t)
        ya, yb = y._parts_over(t)
        if xb.is_zero():
            return Scalar._ext(t, xa * ya, xa * yb)
        if yb.is_zero():
            return Scalar._ext(t, xa * ya, xb * ya)
        r = t.radicand
        return Scalar._ext(t, xa * ya + xb * yb * r, xa * yb + xb * ya)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        if self.tower is None:
            n, d = self.a, self.b
            if not n:
                raise ZeroDivisionError("scalar inverse of zero")
            return Scalar(None, d, n) if n > 0 else Scalar(None, -d, -n)
        a, b, r = self.a, self.b, self.tower.radicand
        # (a + b*sqrt(r))^-1 = (a - b*sqrt(r)) / (a^2 - b^2 r); the norm is
        # nonzero because r is a certified non-square of the parent level
        norm = a * a - b * b * r
        ninv = norm.inverse()
        return Scalar._ext(self.tower, a * ninv, -b * ninv)

    def __truediv__(self, other):
        other = scal(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return scal(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, ONE)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            other = _rational(other)
            if other is None:
                return NotImplemented
        if self.tower is other.tower:
            return self.a == other.a and self.b == other.b
        return (self - other).is_zero()

    __hash__ = None  # equal values can differ structurally across chains

    def sign(self) -> int:
        if self.tower is None:
            return (self.a > 0) - (self.a < 0)
        if self._sign is None and self.tower.parent is None:
            self._sign = _quadratic_sign(self.a, self.b, self.tower.radicand)
        if self._sign is None:
            # b != 0 and the radicand is not a square, so self is not zero
            bits = 16
            while True:
                lo, hi = self.interval(bits)
                if lo > 0:
                    self._sign = 1
                    break
                if hi < 0:
                    self._sign = -1
                    break
                bits *= 2
        return self._sign

    def __lt__(self, other):
        return (self - scal(other)).sign() < 0

    def __le__(self, other):
        return (self - scal(other)).sign() <= 0

    def __gt__(self, other):
        return (self - scal(other)).sign() > 0

    def __ge__(self, other):
        return (self - scal(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    # -- numeric enclosures ----------------------------------------------

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure [lo, hi] with radicals resolved to ``bits``."""
        if self.tower is None:
            f = Fraction(self.a, self.b)
            return (f, f)
        alo, ahi = self.a.interval(bits)
        blo, bhi = self.b.interval(bits)
        rlo, rhi = self.tower.radicand.interval(bits)
        if rlo < 0:
            rlo = Fraction(0)
        slo, shi = _sqrt_floor(rlo, bits), _sqrt_ceil(rhi, bits)
        cands = (blo * slo, blo * shi, bhi * slo, bhi * shi)
        return (alo + min(cands), ahi + max(cands))

    # -- formatting ------------------------------------------------------

    def __str__(self):
        return scalar_to_str(self)

    def __repr__(self):
        return f"Scalar({scalar_to_str(self)})"


def _quadratic_sign(a: Scalar, b: Scalar, r: Scalar) -> int:
    """The sign of a + b sqrt(r) for rationals a, b != 0 and r > 0 not a
    square, from ints: the common sign of a and b when they agree or a
    is 0, else sign(a) sign(a^2 - b^2 r), which is never 0."""
    sa, sb = (a.a > 0) - (a.a < 0), (b.a > 0) - (b.a < 0)
    if sa == sb or not sa:
        return sb
    # a^2 - b^2 r over the positive denominator a.b^2 b.b^2 r.b
    d = a.a * a.a * b.b * b.b * r.b - b.a * b.a * r.a * a.b * a.b
    return sa if d > 0 else -sa


def power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from ``one``;
    the one loop behind the ``__pow__`` of Scalar, Poly and Series.  It
    stops before squaring past the top bit of n, the largest product."""
    if n < 0:
        raise ValueError(f"negative power {n}")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def scal(x: RatLike) -> Scalar:
    """Coerce an int, Fraction or string into a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    s = _rational(x)
    if s is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")
    return s


def _operand(x) -> Scalar | None:
    """A non-Scalar x as scal coerces it; None where scal raises, so that
    an arithmetic operator leaves the operation to the other operand."""
    return parse_scalar(x) if isinstance(x, str) else _rational(x)


def _rational(x) -> Scalar | None:
    """The rational Scalar of an int or a Fraction; None for any other type."""
    if isinstance(x, int):
        return Scalar(None, int(x), 1)      # int() turns a bool into 0 or 1
    if isinstance(x, Fraction):
        return Scalar(None, x.numerator, x.denominator)
    return None


def ratio(n: int, d: int) -> Scalar:
    """The rational scalar n/d for ints n and d > 0."""
    g = gcd(n, d)
    return Scalar(None, n // g, d // g)


def repeats(rows):
    """(i, j) for each row j of Scalars equal to an earlier row, in
    increasing j, with i the first row it equals.

    The first pair yielded has the smallest j; the least pair, min(...),
    is the one a pairwise scan meets first (the smallest i, then its
    smallest j).  All-rational rows are compared by their reduced
    (numerator, denominator) pairs in one dict.  A row with a tower entry
    is compared pairwise by value, since equal values can differ in
    structure across chains; a tower scalar is irrational, so such a row
    never equals an all-rational one.
    """
    first: dict = {}
    towered: list = []
    for j, row in enumerate(rows):
        if all(c.tower is None for c in row):
            i = first.setdefault(tuple([(c.a, c.b) for c in row]), j)
        else:
            i = next((k for k, other in towered
                      if all(x == y for x, y in zip(other, row))), j)
            if i == j:
                towered.append((j, row))
        if i != j:
            yield i, j


ZERO = Scalar(None, 0, 1)
ONE = Scalar(None, 1, 1)
_HALF = Scalar(None, 1, 2)


# -- chain merging -------------------------------------------------------

def _merge_chains(t1: Tower, t2: Tower):
    """Merge two incompatible chains into one that embeds both.

    Returns embed, re-expressing any scalar of either chain over the
    merged one: the chain whose radicand texts sort first, extended by
    the other's levels, so it does not depend on operand order.  Levels
    whose radicand becomes a square inside the partially merged chain
    are not duplicated; their generators map to the existing root.
    """
    t1, t2 = sorted((t1, t2), key=lambda t: [
        scalar_to_str(level.radicand) for level in t.chain()])
    images: dict[Tower, Scalar] = {}

    def embed(s: Scalar) -> Scalar:
        if s.tower is None:
            return s
        if s.tower in images:
            gen = images[s.tower]
            return embed(s.a) + embed(s.b) * gen
        return s

    merged = t1
    for level in t2.chain():
        rad = embed(level.radicand)
        if not _is_ancestor(rad.tower, merged):
            raise PreconditionFailed("cannot merge extension chains")
        root = try_sqrt(rad, merged)
        if root is None:
            merged = Tower.extend(merged, rad)
            root = Scalar(merged, ZERO, ONE)
        images[level] = root
    return embed


# -- square detection and adjunction -------------------------------------

def try_sqrt(s: Scalar, chain: Tower | None = None) -> Scalar | None:
    """Exact square root of ``s`` inside ``chain``, or None.

    ``chain`` defaults to the scalar's own tower.  The search is complete:
    if s = t^2 for some t in the chain's field, a root is found.  The
    returned root is nonnegative.
    """
    if chain is None:
        chain = s.tower
    if not _is_ancestor(s.tower, chain):
        raise PreconditionFailed("scalar does not live in the given chain")
    if s.sign() < 0:
        return None
    root = _try_sqrt_in(s, chain)
    if root is not None and root.sign() < 0:
        root = -root
    return root


def _try_sqrt_in(s: Scalar, chain: Tower | None) -> Scalar | None:
    if chain is None:
        n, d = s.a, s.b
        if n < 0:
            return None
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Scalar(None, rn, rd)
        return None
    a, b = s._parts_over(chain)
    parent, r = chain.parent, chain.radicand
    if b.is_zero():
        u = _try_sqrt_in(a, parent)
        if u is not None:
            return u
        v = _try_sqrt_in(a / r, parent)
        if v is not None:
            return v * Scalar(chain, ZERO, ONE)
        return None
    # t = u + v*sqrt(r) with 2uv = b forces u^2 to solve a quadratic whose
    # discriminant a^2 - b^2 r is a square exactly when s is one
    disc = a * a - b * b * r
    d_root = _try_sqrt_in(disc, parent) if disc.sign() >= 0 else None
    if d_root is None:
        return None
    for w in ((a + d_root) * _HALF, (a - d_root) * _HALF):
        if w.sign() < 0:
            continue
        u = _try_sqrt_in(w, parent)
        if u is None or u.is_zero():
            continue
        v = b / (u + u)
        cand = Scalar._ext(chain, u, v)
        if (cand * cand - s).is_zero():
            return cand
    return None


def scalar_sqrt_adjoin(s: RatLike) -> Scalar:
    """Nonnegative square root of ``s``, extending the tower only if needed.

    Raises PreconditionFailed for negative input.  When s is already a square
    in its own chain the existing root is returned and no level is added.
    """
    s = scal(s)
    if s.sign() < 0:
        raise PreconditionFailed(f"sqrt of negative scalar {s}")
    if s.is_zero():
        return ZERO
    root = try_sqrt(s)
    if root is not None:
        return root
    tower = Tower.extend(s.tower, s)
    return Scalar(tower, ZERO, ONE)


# -- rational sqrt enclosures -------------------------------------------

def _sqrt_floor(f: Fraction, bits: int) -> Fraction:
    n, d = f.numerator, f.denominator
    s = isqrt(n * d << (2 * bits))
    return Fraction(s, d << bits)


def _sqrt_ceil(f: Fraction, bits: int) -> Fraction:
    n, d = f.numerator, f.denominator
    s = isqrt(n * d << (2 * bits))
    return Fraction(s + 1, d << bits)


# -- serialization -------------------------------------------------------

def _ratio_str(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _terms(s: Scalar) -> list[tuple[int, int, list[Scalar]]]:
    """Expand into (numerator, denominator, list of radicand scalars) terms."""
    if s.tower is None:
        return [(s.a, s.b, [])] if s.a else []
    out = _terms(s.a)
    for n, d, rads in _terms(s.b):
        out.append((n, d, rads + [s.tower.radicand]))
    return out


def scalar_to_str(s: Scalar) -> str:
    """Canonical text form: rationals as "n/d", deeper scalars as sums of
    rational multiples of products of sqrt(...) factors."""
    if s.tower is None:
        return _ratio_str(s.a, s.b)
    parts = []
    for idx, (n, d, rads) in enumerate(_terms(s)):
        body = "*".join(f"sqrt({scalar_to_str(r)})" for r in rads)
        mag = _ratio_str(abs(n), d)
        if body:
            piece = body if mag == "1" else f"{mag}*{body}"
        else:
            piece = mag
        if idx == 0:
            parts.append(piece if n > 0 else f"-{piece}")
        else:
            parts.append(f" + {piece}" if n > 0 else f" - {piece}")
    return "".join(parts) if parts else "0"


def _fits(s: Scalar) -> bool:
    """Whether every number scalar_to_str writes for s has at most
    MAX_SCALAR_DIGITS digits."""
    if s.tower is None:
        return -_DIGIT_BOUND < s.a < _DIGIT_BOUND and s.b < _DIGIT_BOUND
    return _fits(s.a) and _fits(s.b) and _fits(s.tower.radicand)


def scalar_to_json(s: Scalar) -> str:
    """scalar_to_str(s) for a file.  A digit run longer than
    MAX_SCALAR_DIGITS, which parse_scalar refuses, is refused here with
    OutputTooLarge, so every file written reads back; str() is not
    bounded, as error messages use it."""
    if not _fits(s):
        raise OutputTooLarge(_TOO_LARGE)
    return scalar_to_str(s)


def ratio_to_json(n: int, d: int) -> str:
    """scalar_to_json of the rational n/d, d > 0, from its integers."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    if not (-_DIGIT_BOUND < n < _DIGIT_BOUND and d < _DIGIT_BOUND):
        raise OutputTooLarge(_TOO_LARGE)
    return _ratio_str(n, d)


# far beyond the tower depth any synthesized word reaches; bounds the
# parser's recursion on hostile text
MAX_SQRT_NESTING = 64

# far beyond the longest digit run an emitted word holds (133 digits on
# the seed-1 benchmark words) and below int()'s default 4300-digit cap, so
# the parser, not that interpreter-wide setting, refuses a longer run; the
# JSON writers refuse to write one, so every file written reads back
MAX_SCALAR_DIGITS = 4000
_DIGIT_BOUND = 10 ** MAX_SCALAR_DIGITS
_TOO_LARGE = f"a number has more than {MAX_SCALAR_DIGITS} digits, the most a file may hold"


# one token, after any whitespace: a run of digits, the word sqrt, any
# other single character, or the empty string at the end of the text
_TOKEN = re.compile(r"\s*(\d+|sqrt|\S|\Z)")


class _ScalarParser:
    """Recursive-descent parser for the scalar text form.

    Grammar:  expr := term (('+'|'-') term)*
              term := factor ('*' factor)*
              factor := rational | 'sqrt' '(' expr ')' | '-' factor
              rational := digits ('/' digits)?
    ``tok`` is the one token of lookahead, matched by _TOKEN from the end
    of the previous one, so the text is never split into a list; ``pos``
    and ``end`` are its span.  Square roots are built through
    scalar_sqrt_adjoin, so parsing a file reconstructs the same canonical
    towers the writer used.  Leading signs fold in a loop, and ``sqrt(``
    nesting deeper than MAX_SQRT_NESTING is refused with InvalidInput, so
    hostile text cannot exhaust the interpreter stack; so is a digit run
    longer than MAX_SCALAR_DIGITS, before int() sees it.
    """

    def __init__(self, text: str):
        self.text = text
        self.tok, self.end, self.depth = "", 0, 0
        self.take()

    def error(self, msg, at=None):
        shown = self.text if len(self.text) <= 40 else self.text[:40] + "..."
        at = self.pos if at is None else at
        raise InvalidInput(f"bad scalar {shown!r} at {at}: {msg}")

    def take(self) -> str:
        """Consume the lookahead token, match the next one, and return the
        consumed one."""
        tok = self.tok
        m = _TOKEN.match(self.text, self.end)
        self.tok = m[1]
        self.pos, self.end = m.span(1)
        return tok

    def parse(self) -> Scalar:
        v = self.expr()
        if self.tok:
            self.error("trailing input")
        return v

    def expr(self) -> Scalar:
        v = self.term()
        while self.tok in ("+", "-"):
            op = self.take()
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self) -> Scalar:
        v = self.factor()
        while self.tok == "*":
            self.take()
            v = v * self.factor()
        return v

    def factor(self) -> Scalar:
        negate = False
        while self.tok == "-":
            self.take()
            negate = not negate
        v = self.radical() if self.tok == "sqrt" else self.rational()
        return -v if negate else v

    def radical(self) -> Scalar:
        self.take()
        if self.tok != "(":
            self.error("expected ( after sqrt")
        self.depth += 1
        if self.depth > MAX_SQRT_NESTING:
            self.error(f"sqrt nested deeper than {MAX_SQRT_NESTING}", self.end)
        self.take()
        inner = self.expr()
        if self.tok != ")":
            self.error("expected )")
        self.take()
        self.depth -= 1
        return scalar_sqrt_adjoin(inner)

    def digits(self, msg: str) -> int:
        # _TOKEN's \d is exactly str.isdecimal, so this tests for a digit run
        if not self.tok.isdecimal():
            self.error(msg)
        if len(self.tok) > MAX_SCALAR_DIGITS:
            self.error(f"more than {MAX_SCALAR_DIGITS} digits")
        return int(self.tok)

    def rational(self) -> Scalar:
        num = self.digits("expected a number")
        self.take()
        den = 1
        if self.tok == "/":
            self.take()
            den = self.digits("expected a denominator")
            if den == 0:
                self.error("zero denominator", self.end)
            self.take()
        return ratio(num, den)


# plain rational text, "n" or "n/d" with an optional leading minus and no
# whitespace; parse_scalar reads it without the parser
_PLAIN_RATIONAL = re.compile(
    rf"(-?[0-9]{{1,{MAX_SCALAR_DIGITS}}})(?:/([0-9]{{1,{MAX_SCALAR_DIGITS}}}))?")


def parse_scalar(text: str) -> Scalar:
    """The scalar a text names.  Plain rational text with a nonzero
    denominator is read by one regular expression; any other text,
    refused or not, goes to _ScalarParser, so it is accepted or refused
    with the same message as there; anything but a string is refused."""
    if type(text) is not str:
        raise InvalidInput("a scalar must be a JSON string")
    m = _PLAIN_RATIONAL.fullmatch(text)
    if m is not None:
        num, den = m.groups()
        n, d = int(num), int(den) if den else 1
        if d:
            return ratio(n, d)
    return _ScalarParser(text).parse()
