import random
import re
from fractions import Fraction

import pytest

from rational_kcbs.rationals import _ratio, format_rational, parse_rational, to_decimal
from tests.conftest import int_limit_message, rand_wire_text


class TestParse:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("354/527", Fraction(354, 527)),
            ("-55/73", Fraction(-55, 73)),
            ("0", Fraction(0)),
            ("17", Fraction(17)),
            ("-3", Fraction(-3)),
            ("+7/3", Fraction(7, 3)),
            ("6/4", Fraction(3, 2)),  # canonicalized on parse
            ("-10/5", Fraction(-2)),
        ],
    )
    def test_ok(self, text, expected):
        got = parse_rational(text)
        assert got == expected
        assert got.denominator > 0

    @pytest.mark.parametrize(
        "text",
        ["", "1.5", "1/2/3", "1 /2", " 1/2", "1/2 ", "1/-2", "a", "--1", "1e3", "/3", "3/", "∞"],
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1/0", "-4/0", "0/0"])
    def test_zero_denominator(self, text):
        with pytest.raises(ZeroDivisionError):
            parse_rational(text)


class TestWireInts:
    """``_ratio``, the ints the config parser builds vectors from, against
    the standard library's own reading of the text."""

    def test_matches_fraction_of_the_text(self):
        rng = random.Random(4300)
        texts = [rand_wire_text(rng) for _ in range(3000)] + ["-0", "+0", "007/0021", "-0/5", "+12/18"]
        for text in texts:
            p, q = _ratio(text)
            assert type(p) is int and type(q) is int and q > 0, text
            assert Fraction(p, q) == Fraction(text) == parse_rational(text), text
            num_text, _, den_text = text.partition("/")
            assert (p, q) == (int(num_text), int(den_text or "1")), text  # as written

    @pytest.mark.parametrize(
        "text",
        ["", "1.5", "1/2/3", " 1/2", "1/-2", "1_000", "٣", "1/0", "0/0", "-4/000",
         "1" * 4301, "-" + "9" * 5000 + "/7", "7/" + "1" * 4301, "1" * 4301 + "/0"],
    )
    def test_raises_what_parse_rational_raises(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)) as public:
            parse_rational(text)
        with pytest.raises(type(public.value)) as private:
            _ratio(text)
        assert str(private.value) == str(public.value)

    def test_digit_limit_message(self):
        # a component beyond the interpreter's int-from-string limit keeps
        # the interpreter's own message, in this version's wording
        text = "-" + "1" * 5000
        with pytest.raises(ValueError) as refused:
            _ratio(text)
        assert str(refused.value) == int_limit_message(text)
        assert re.match(r"Exceeds the limit \(4300\b.*value has 5000 digits", str(refused.value))


class TestFormat:
    def test_integer_omits_denominator(self):
        assert format_rational(Fraction(-3)) == "-3"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(8, 4)) == "2"

    def test_proper_fraction(self):
        assert format_rational(Fraction(48, 73)) == "48/73"
        assert format_rational(Fraction(-55, 73)) == "-55/73"

    def test_beyond_the_int_to_str_digit_limit(self):
        # str() of an int above 4300 digits raises ValueError by default
        big = 10**5000 + 1
        assert format_rational(Fraction(big, 3)) == "1" + "0" * 4999 + "1/3"
        assert format_rational(Fraction(-7, big)) == "-7/1" + "0" * 4999 + "1"
        assert format_rational(Fraction(-big)) == "-1" + "0" * 4999 + "1"

    def test_round_trip(self):
        rng = random.Random(20240611)
        for _ in range(500):
            r = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            assert parse_rational(format_rational(r)) == r


class TestArithmetic:
    """Fraction arithmetic is exact and canonical; pin the contract we rely on."""

    def test_examples(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(48, 73) * Fraction(48, 73) == Fraction(2304, 5329)
        assert Fraction(1, 3) / Fraction(1, 3) == 1

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_canonical_after_ops(self):
        rng = random.Random(7)
        from math import gcd

        for _ in range(300):
            a = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            b = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            for r in (a + b, a - b, a * b):
                assert r.denominator > 0
                assert gcd(abs(r.numerator), r.denominator) == 1

    def test_order_matches_cross_multiplication(self):
        rng = random.Random(13)
        for _ in range(300):
            a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            assert (a < b) == (a.numerator * b.denominator < b.numerator * a.denominator)


class TestToDecimal:
    @pytest.mark.parametrize(
        "r,digits,expected",
        [
            (Fraction(1, 3), 3, "0.333"),
            (Fraction(2, 3), 3, "0.667"),
            (Fraction(355, 113), 4, "3.1416"),
            (Fraction(-3), 3, "-3.000"),
            (Fraction(7, 2), 0, "4"),       # half rounds away from zero
            (Fraction(-7, 2), 0, "-4"),
            (Fraction(1, 2), 0, "1"),
            (Fraction(-1, 2), 0, "-1"),
            (Fraction(25, 1000), 2, "0.03"),
            (Fraction(-25, 1000), 2, "-0.03"),
            (Fraction(5, 100), 1, "0.1"),
            (Fraction(0), 3, "0.000"),
            (Fraction(-1, 10**6), 3, "0.000"),  # rounded-to-zero output is unsigned
            (Fraction(1, 8), 5, "0.12500"),
        ],
    )
    def test_examples(self, r, digits, expected):
        assert to_decimal(r, digits) == expected

    def test_negative_digits_rejected(self):
        with pytest.raises(ValueError):
            to_decimal(Fraction(1, 3), -1)

    # True == 1, so only its type tells it apart from one digit
    @pytest.mark.parametrize("digits", [True, False, 1.0, "3", None])
    def test_non_int_digits_rejected(self, digits):
        with pytest.raises(TypeError, match="^digits must be an int, got "):
            to_decimal(Fraction(1, 3), digits)

    def test_rounding_error_bound(self):
        # |rendered - exact| <= 10^-d / 2, with equality allowed (ties away).
        rng = random.Random(991)
        for _ in range(400):
            r = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            digits = rng.randint(0, 8)
            text = to_decimal(r, digits)
            assert Fraction(abs(Fraction(text) - r)) <= Fraction(1, 2 * 10**digits)

    def test_matches_fraction_string_parse(self):
        # Rendered text must itself be a valid decimal literal.
        assert Fraction(to_decimal(Fraction(-158, 527), 6)) == Fraction(-299810, 10**6)

    def test_beyond_the_int_to_str_digit_limit(self):
        assert to_decimal(Fraction(1, 3), 5000) == "0." + "3" * 5000
        assert to_decimal(Fraction(-2, 3), 5000) == "-0." + "6" * 4999 + "7"
        assert to_decimal(Fraction(10**5000 + 1, 2), 1) == "5" + "0" * 4999 + ".5"
