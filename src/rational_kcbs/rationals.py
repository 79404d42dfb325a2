"""Canonical arbitrary-precision rationals and controlled decimal rendering.

The rational type is the standard library ``fractions.Fraction``, which
already guarantees every invariant this package relies on: denominators are
strictly positive, numerator and denominator are coprime after every
operation, zero is uniquely ``0/1``, the backing integers are unbounded, and
values are immutable (safe to share across threads).  Arithmetic is the
native ``+ - * /`` operators; division by zero raises ``ZeroDivisionError``.

What this module adds is the strict text format used in every JSON file this
package reads or writes, and exact decimal rendering that never touches
floating point.  Only this module reads the fraction token's groups
(``_FRACTION_RE``): ``_ratio`` from one text, and ``_triple_ratios`` from a
config's triple by one ``_ratio`` call per component.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

# Wire format: optional sign, digits, optionally "/" digits, with the
# numerator and denominator as groups.  No whitespace, no decimal points, no
# exponent forms.
_FRACTION_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _ratio(text: str) -> tuple[int, int]:
    """Parse ``[-]p`` or ``[-]p/q`` into the ints (p, q), q > 0, as written:
    not reduced.

    Raises ValueError for text outside the format and ZeroDivisionError for a
    zero denominator.
    """
    match = _FRACTION_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"malformed fraction text: {text!r}")
    num_text, den_text = match.groups()
    if den_text is not None:
        den = int(den_text)
        if den == 0:
            raise ZeroDivisionError(f"zero denominator in fraction text: {text!r}")
        return int(num_text), den
    return int(num_text), 1


def _triple_ratios(c0: str, c1: str, c2: str) -> tuple[tuple[int, int], ...]:
    """The (p, q) ints of three fraction texts as written; ``_ratio`` reads
    them in order and raises for the first one it refuses."""
    return _ratio(c0), _ratio(c1), _ratio(c2)


def parse_rational(text: str) -> Fraction:
    """Parse ``[-]p`` or ``[-]p/q`` into a canonical Fraction; raises as
    ``_ratio`` does."""
    return Fraction(*_ratio(text))


def _int_text(k: int) -> str:
    # Exact, and unlike str(k) not capped by the interpreter's int-to-str
    # digit limit (4300 digits by default).
    return str(Decimal(k))


def format_rational(r: Fraction) -> str:
    """Render a rational in the wire format: ``p`` for integers, else ``p/q``.

    Every rational is rendered in full, however many digits it has.
    """
    if r.denominator == 1:
        return _int_text(r.numerator)
    return f"{_int_text(r.numerator)}/{_int_text(r.denominator)}"


def to_decimal(r: Fraction, digits: int) -> str:
    """Render ``r`` as a decimal string with exactly ``digits`` fractional digits.

    Rounding is half-away-from-zero, computed by exact integer long division
    (no floating point anywhere), and rendered in full however many digits
    it has.  A result that rounds to zero is rendered without a sign.
    Raises TypeError for digits that is not an int (a bool included) and
    ValueError for digits < 0.
    """
    if not isinstance(digits, int) or digits.__class__ is bool:
        raise TypeError(f"digits must be an int, got {digits!r}")
    if digits < 0:
        raise ValueError(f"digits must be >= 0, got {digits}")
    quotient, remainder = divmod(abs(r.numerator) * 10**digits, r.denominator)
    if 2 * remainder >= r.denominator:
        quotient += 1
    body = _int_text(quotient).rjust(digits + 1, "0")
    if digits:
        body = f"{body[:-digits]}.{body[-digits:]}"
    sign = "-" if r < 0 and quotient else ""
    return sign + body
