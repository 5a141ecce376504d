import pytest

from jumploci import corpus, words
from jumploci.errors import Refusal
from jumploci.presfile import (MAX_PRESENTATION_LETTERS, ParseError,
                               format_presentation, parse_presentation,
                               parse_word)

from conftest import REPO_ROOT, within_seconds

NAMES = {"a": 0, "b": 1, "t": 2}


def letters(text):
    return parse_word(text, NAMES)[0]


def test_parse_word_basics():
    assert parse_word("a b", NAMES) == (((0, 1), (1, 1)), 2)
    assert letters("a^-1") == ((0, -1),)
    assert letters("a^3") == ((0, 1),) * 3
    assert parse_word("1", NAMES) == ((), 0)
    assert letters("") == ()
    assert parse_word("a a^-1", NAMES) == ((), 2)


def test_parse_word_commutator_sugar():
    expected = words.commutator(words.generator(0), words.generator(1))
    assert letters("[a,b]") == expected
    nested = letters("[a,[b,t]]")
    inner = words.commutator(words.generator(1), words.generator(2))
    assert nested == words.commutator(words.generator(0), inner)


def test_parse_word_groups_and_powers():
    w = letters("(a b)^-1")
    assert w == ((1, -1), (0, -1))
    assert letters("(a b)^2") == ((0, 1), (1, 1), (0, 1), (1, 1))


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
    with pytest.raises(ParseError, match="commutator needs two entries"):
        parse_word("[a", NAMES)
    with pytest.raises(ParseError, match="unbalanced commutator bracket"):
        parse_word("[a,b", NAMES)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_word("a$", NAMES)


@pytest.mark.parametrize("word", ["a )", "a ]", "a ,", "a^2^3"])
def test_a_token_that_cannot_start_a_factor_is_unexpected(word):
    # The top-level sequence stops only when the tokens run out, so a
    # stray closer, comma or second exponent is refused as the next factor.
    with pytest.raises(ParseError, match="unexpected token"):
        parse_word(word, NAMES)


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
    # An unquoted item may hold commas inside its own brackets.
    nested = parse_presentation("generators: [a, b]\nrelators: [[a,b], a^2]")
    assert nested.relators == (letters("[a,b]"), letters("a^2"))


def test_parse_presentation_errors():
    with pytest.raises(ParseError):
        parse_presentation("relators: []")
    with pytest.raises(ParseError, match="duplicate"):
        parse_presentation("generators: [a, a]")
    with pytest.raises(ParseError, match="aspherical"):
        parse_presentation("generators: [a]\naspherical: maybe")
    with pytest.raises(ParseError, match="line 2"):
        parse_presentation("generators: [a]\nrelators: [\"b\"]")
    # A misspelt key once left F2 with no relators, and a repeated key
    # once replaced the earlier line.
    with pytest.raises(ParseError, match="unknown key 'relaters'.* at line 2"):
        parse_presentation('generators: [a, b]\nrelaters: ["[a,b]"]')
    with pytest.raises(ParseError,
                       match="repeated key 'relators'.* at line 3"):
        parse_presentation('generators: [a, b]\nrelators: ["a"]\n'
                           'relators: ["b"]')
    with pytest.raises(ParseError, match="unterminated quote at line 2"):
        parse_presentation('generators: [a]\nrelators: ["a]')
    with pytest.raises(ParseError, match="expected 'key: value' at line 2"):
        parse_presentation("generators: [a]\nrelators")


def test_generator_must_be_one_name():
    # [a b] was once one generator named "a b", which no relator can use.
    for gens in ("[a b]", "[a, b c]", '["a b"]', "[a-b]", "[1]", "[a*]"):
        with pytest.raises(ParseError, match="is not one name at line 2"):
            parse_presentation(f"# comment\ngenerators: {gens}")
    assert parse_presentation('generators: ["a", b_1]').names == ("a", "b_1")


def test_quoted_item_must_be_the_whole_item():
    # ["a" "b"] was once the one relator "a b", and ["a"b] the relator ab.
    for rels in ('["a" "b"]', '["a"b]', '[a"b"]', "['a' , \"b\"c]"):
        with pytest.raises(ParseError,
                           match="quoted item must be the whole item at "
                                 "line 2"):
            parse_presentation(f"generators: [a, b]\nrelators: {rels}")
    assert parse_presentation(
        "generators: [a, b]\nrelators: ['a', \" b \"]").relators == (
            letters("a"), letters("b"))


def test_list_items_are_not_empty():
    # [a,,b] once dropped the empty item.
    for rels in ("[a,,b]", "[a,]", "[,a]", "[ , ]", '[""]'):
        with pytest.raises(ParseError, match="empty list item at line 2"):
            parse_presentation(f"generators: [a, b]\nrelators: {rels}")
    assert parse_presentation("generators: [ ]\nrelators: []").names == ()


def test_long_words_parse_in_linear_time():
    # Repeated concatenation made these quadratic: (a b)^8000 took 22 s.
    ab = ((0, 1), (1, 1))
    assert within_seconds(5, letters, "(a b)^8000") == ab * 8000
    assert within_seconds(5, letters, "a b " * 8000) == ab * 8000
    assert within_seconds(5, letters, "(a b^2 b^-1)^-4000") == (
        ((1, -1), (0, -1)) * 4000)
    # The words are the freely reduced ones, so cancellation across
    # factors and powers still happens.
    assert letters("(a b)^3 (b^-1 a^-1)^2") == ab
    assert letters("(a t a^-1)^3") == ((0, 1),) + ((2, 1),) * 3 + (
        (0, -1),)


def test_relator_past_the_letter_limit_is_refused():
    limit = MAX_PRESENTATION_LETTERS
    assert len(letters(f"a^{limit}")) == limit
    # Each is refused from its written-out length, before any expansion:
    # cancellation does not count, and a^100000000 once ran past 30 s.
    for text in (f"a^{limit + 1}", "a^100000000", "(a a^-1)^100000000",
                 f"(a b)^{limit // 2} a", "((a b)^1000)^1000",
                 f"[a^{limit // 4}, b^{limit // 4 + 1}]"):
        with pytest.raises(Refusal, match="line 3"):
            within_seconds(5, parse_word, text, NAMES, 3)
    # The limit is on all relators together: three relators, each under
    # it, that reach it exactly pass, and one letter more is refused.
    k = limit // 3

    def three_relators(extra):
        last = limit - 2 * k + extra
        return (f'generators: [a, b, t]\n\nrelators: '
                f'["a^{k}", "(b t)^{k // 2}", "t^{last}"]')
    assert within_seconds(5, parse_presentation, three_relators(0))
    with pytest.raises(Refusal, match="line 3"):
        within_seconds(5, parse_presentation, three_relators(1))


def test_corpus_names_are_the_shipped_file_stems():
    stems = sorted(path.stem for path in (REPO_ROOT / "corpus").glob("*.pres"))
    assert len(stems) == 15
    assert corpus.names() == stems


def test_corpus_files_round_trip():
    for name in corpus.names():
        p = corpus.get(name)
        assert parse_presentation(format_presentation(p)) == p
