import pytest

from jumploci import corpus, words
from jumploci.presfile import (ParseError, format_presentation,
                               parse_presentation, parse_word)

NAMES = {"a": 0, "b": 1, "t": 2}


def test_parse_word_basics():
    assert parse_word("a b", NAMES) == ((0, 1), (1, 1))
    assert parse_word("a^-1", NAMES) == ((0, -1),)
    assert parse_word("a^3", NAMES) == ((0, 1),) * 3
    assert parse_word("1", NAMES) == ()
    assert parse_word("", NAMES) == ()
    assert parse_word("a a^-1", NAMES) == ()


def test_parse_word_commutator_sugar():
    expected = words.commutator(words.generator(0), words.generator(1))
    assert parse_word("[a,b]", NAMES) == expected
    nested = parse_word("[a,[b,t]]", NAMES)
    inner = words.commutator(words.generator(1), words.generator(2))
    assert nested == words.commutator(words.generator(0), inner)


def test_parse_word_groups_and_powers():
    w = parse_word("(a b)^-1", NAMES)
    assert w == ((1, -1), (0, -1))
    assert parse_word("(a b)^2", NAMES) == ((0, 1), (1, 1), (0, 1), (1, 1))


def test_parse_word_errors_carry_location():
    with pytest.raises(ParseError, match="unknown generator"):
        parse_word("c", NAMES, line=7)
    with pytest.raises(ParseError, match="line 7"):
        parse_word("c", NAMES, line=7)
    with pytest.raises(ParseError):
        parse_word("[a b]", NAMES)
    with pytest.raises(ParseError):
        parse_word("a^", NAMES)
    with pytest.raises(ParseError):
        parse_word("(a", NAMES)


@pytest.mark.parametrize("word", ["a^-", "a^\u00b2", "a^1\u00b2"])
def test_bad_integer_is_a_parse_error(word):
    # "-" alone and digits int() does not read (superscript two).
    with pytest.raises(ParseError, match="bad integer"):
        parse_word(word, NAMES)


def test_parse_presentation():
    text = """
    # a comment
    generators: [a, b]
    relators: ["[a,b]", "a^3"]
    aspherical: false
    """
    p = parse_presentation(text)
    assert p.generator_count == 2
    assert p.relator_count == 2
    assert not p.aspherical
    assert p.names == ("a", "b")


def test_parse_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation("relators: []")
    with pytest.raises(ParseError, match="duplicate"):
        parse_presentation("generators: [a, a]")
    with pytest.raises(ParseError, match="aspherical"):
        parse_presentation("generators: [a]\naspherical: maybe")
    with pytest.raises(ParseError, match="line 2"):
        parse_presentation("generators: [a]\nrelators: [\"b\"]")


def test_corpus_files_round_trip():
    for name in corpus.CORPUS:
        p = corpus.get(name)
        assert parse_presentation(format_presentation(p)) == p
