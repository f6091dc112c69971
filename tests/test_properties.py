"""Property tests: word parsing and canonical report serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpois import models
from qpois.cli import canonical_json
from qpois.errors import BadSignature
from qpois.groupgeom import Factor, Site, parse_word


def _site(nfac):
    model, pairing = models.sl2()
    return Site(model, pairing, [Factor("group")] * nfac)


def _text(site, word, spaces):
    letters = [site.letter(f) if p == 1 else site.letter(f).upper() for f, p in word]
    return "".join(ch + " " * s for ch, s in zip(letters, spaces))


words = st.integers(1, 26).flatmap(lambda nfac: st.tuples(
    st.just(nfac),
    st.lists(st.tuples(st.integers(0, nfac - 1), st.sampled_from([1, -1])),
             max_size=12)))


# no example database: the tests leave no files behind
@settings(database=None)
@given(words, st.lists(st.integers(0, 2), min_size=12, max_size=12))
def test_parse_word_round_trips_through_letters(nfac_word, spaces):
    nfac, word = nfac_word
    site = _site(nfac)
    assert parse_word(site, _text(site, word, spaces)) == tuple(word)


@settings(database=None)
@given(st.integers(1, 25), st.data())
def test_parse_word_refuses_letters_outside_the_site(nfac, data):
    site = _site(nfac)
    outside = chr(ord("a") + data.draw(st.integers(nfac, 25)))
    upper = data.draw(st.booleans())
    with pytest.raises(BadSignature):
        parse_word(site, "a" + (outside.upper() if upper else outside))


# quotes, escapes, control and non-ASCII characters (a fixed alphabet keeps
# hypothesis from building its unicode tables)
chars = st.text(alphabet='az"\\/\n\t\x00\u00e9\u20ac\U0001f600', max_size=8)
scalars = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
           | st.floats(allow_nan=True, allow_infinity=True)
           | chars)
reports = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(chars, inner, max_size=4),
    max_leaves=20)


def _reordered(obj):
    """The same report with every dict's keys inserted in reverse order."""
    if isinstance(obj, dict):
        return {k: _reordered(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reordered(v) for v in obj]
    return obj


@settings(database=None)
@given(reports)
def test_canonical_json_is_stable(report):
    text = canonical_json(report)
    assert canonical_json(_reordered(report)) == text
    # re-serializing the parsed text gives the same bytes
    assert canonical_json(json.loads(text)) == text
