"""The number kernel that every numpy reader shares, against float() and Decimal."""

import re
from decimal import Decimal

import numpy as np
import pytest

from csdcirc import _bytescan, emitters

GRAMMAR = re.compile(r"-?\d(\.\d{1,30})?([eE][+-]\d{1,3})?")


def read(tokens: list[str], table, separator: str = "  "):
    """_read_decimals on tokens, separator apart, so that each window also holds the tokens before it."""
    buf = _bytescan._padded_bytes(separator.join(tokens))
    starts, ends, _ = _bytescan._token_edges(buf)
    assert starts.size == len(tokens)
    return _bytescan._read_decimals(buf, starts.astype(np.intp), ends.astype(np.intp), table)


def digits_and_places(token: str) -> tuple[int, int]:
    """D and k of a token in the grammar: its value is D * 10**-k."""
    mantissa, _, exponent = token.lower().lstrip("-").partition("e")
    whole, _, decimals = mantissa.partition(".")
    return int(whole + decimals), len(decimals) - int(exponent or 0)


def test_reader_proves_grammar_tokens_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def token(draw):
        """A token of the grammar or a near miss: a 31st decimal, a 26th significant digit, an
        exponent without a sign, with 4 digits or with a byte next to the digits, a bare point, and
        the forms -0 and 0E+50."""
        sign = draw(st.sampled_from(["", "-"]))
        lead = draw(st.sampled_from("0123456789"))
        count = draw(st.integers(0, 31))
        zeros = draw(st.integers(0, count)) if lead == "0" else 0  # leading zeros, not significant
        decimals = "0" * zeros + draw(st.text("0123456789", min_size=count - zeros, max_size=count - zeros))
        point = draw(st.sampled_from([".", ".", ".", ""] if decimals else ["", "", "."]))
        exponent = ""
        if draw(st.booleans()):
            exponent = draw(st.sampled_from("eE")) + draw(st.sampled_from(["+", "-", "+", "-", ""]))
            exponent += draw(st.text("0123456789", min_size=1, max_size=4))
        drawn = sign + lead + point + decimals + exponent
        extra = ["-0", "0E+50", "-0E+50", ".", "0.", "-", ".5", "1e+:", "2.5E-/"]
        return draw(st.sampled_from([drawn] * 8 + extra))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(token(), min_size=1, max_size=40), st.sampled_from(["  ", " ", "\t"]))
    def check(tokens, separator):
        for table, reference in ((_bytescan._INV_POW10, float), (emitters._PI_POW10, emitters._from_turns)):
            values, shape, proven = read(tokens, table, separator)
            for tok, value, in_shape, is_proven in zip(tokens, values.tolist(), shape, proven):
                assert in_shape == bool(GRAMMAR.fullmatch(tok)), tok
                if in_shape:
                    Decimal(tok)
                if is_proven:
                    d, k = digits_and_places(tok)
                    assert d < 10**25 and (d == 0 or 0 <= k <= _bytescan._PARSE_MAX_PLACES), tok
                    assert np.float64(value).view(np.int64) == np.float64(reference(tok)).view(np.int64), tok

    check()


def test_reader_takes_the_forms_of_every_writer():
    # exact-mode text, repr and %.17g, with and without exponents, and zeros with any exponent
    tokens = ["0.0000012345678901234567890123", "-1.234567890123456789012345E-7", "0E+50", "-0E+50", "0E+5"]
    tokens += ["0.1", "-2.5e-05", "1e-300", "3.141592653589793", "0.000123", "-0.12345678901234566"]
    tokens += ["1.2345678901234567e-05", "1", "-0", "0.5", "1.0000", "0.0e+999", "7E+2"]
    values, shape, proven = read(tokens, _bytescan._INV_POW10)
    assert shape.all()
    assert proven.tolist() == [tok not in ("1e-300", "7E+2") for tok in tokens]  # 10**-300 and 10**2: k out of range
    assert values[proven].tolist() == [float(tok) for tok, p in zip(tokens, proven) if p]


@pytest.mark.parametrize("separator", [" ", "\t"])
def test_a_sign_alone_before_a_point_is_out_of_shape(separator):
    # after "-" alone the mantissa is empty, and the byte after its first is the next token's "."
    tokens = ["1.5", "-", ".5", "-", ".", "2.5", "-"]
    for last in (len(tokens), 2):  # "-" last in the pass, and before other tokens
        values, shape, proven = read(tokens[:last], _bytescan._INV_POW10, separator)
        assert shape.tolist() == [tok in ("1.5", "2.5") for tok in tokens[:last]]
        assert values[proven].tolist() == [float(tok) for tok, p in zip(tokens, proven) if p]
