"""The presentation text format consumed by the CLI.

    generators: [a, b]
    relators: ["[a,b]", "a^3"]
    aspherical: true

Word syntax: juxtaposition (whitespace or * separated), ^k powers with
k a possibly negative integer, [x,y] commutator sugar expanding to
x y x^-1 y^-1, and (...) grouping.  Parse errors carry line/column info.
Each of the three keys appears at most once, and no other key is read.
A list item is quoted whole or not at all and is never empty, and a
generator is one name of the word syntax.
Relators with more than MAX_PRESENTATION_LETTERS letters written out,
all of them together, are refused.
"""

from __future__ import annotations

from . import words
from .errors import Refusal
from .presentation import FinitePresentation


class ParseError(ValueError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


# Most letters of all relators together, counted as written out, before
# any cancellation.  Cost grows faster than the total: analyze --K 2
# takes 1.0 s on a^20000, 2.6 s on (a b)^10000, 8.5 s on (a b)^10000,
# (a c)^10000 and 21 s with (a d)^10000 added, about 60 % of it in
# certify_component and 30 % in the Fox identity check (Python 3.11,
# one core of a 2-core x86-64 host).
MAX_PRESENTATION_LETTERS = 20_000


def parse_word(text, name_index, line=None, used=0):
    """Parse a word string into (reduced letters, letters written out).

    used is the number of letters earlier relators wrote out.  Each
    factor comes back with the number of letters it has written out, so
    a word that takes the total past MAX_PRESENTATION_LETTERS is refused
    before it is expanded.  Sequences and powers are built as one letter
    list with one free reduction; the reduced word is unique, so it is
    the same as reducing factor by factor."""
    tokens = _tokenize(text, line)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def bounded(length):
        if used + length > MAX_PRESENTATION_LETTERS:
            where = f" (line {line})" if line is not None else ""
            raise Refusal(f"the relators written out have more than "
                          f"{MAX_PRESENTATION_LETTERS} letters{where}")
        return length

    def parse_sequence(stop):
        letters = []
        length = 0
        while True:
            t = peek()
            if t is None or t[0] in stop:
                return words.free_reduce(letters), length
            factor, n = parse_factor()
            length = bounded(length + n)
            letters.extend(factor)

    def parse_factor():
        t = take()
        kind, value, col = t
        if kind == "name":
            if value not in name_index:
                raise ParseError(f"unknown generator {value!r}", line, col)
            base, length = words.generator(name_index[value]), 1
        elif kind == "(":
            base, length = parse_sequence({")"})
            closing = take() if peek() else None
            if not closing or closing[0] != ")":
                raise ParseError("unbalanced parenthesis", line, col)
        elif kind == "[":
            left, n_left = parse_sequence({","})
            comma = take() if peek() else None
            if not comma or comma[0] != ",":
                raise ParseError("commutator needs two entries", line, col)
            right, n_right = parse_sequence({"]"})
            closing = take() if peek() else None
            if not closing or closing[0] != "]":
                raise ParseError("unbalanced commutator bracket", line, col)
            length = bounded(2 * (n_left + n_right))
            base = words.commutator(left, right)
        else:
            raise ParseError(f"unexpected token {value!r}", line, col)
        t = peek()
        if t is not None and t[0] == "^":
            take()
            e = peek()
            if e is None or e[0] != "int":
                raise ParseError("exponent must be an integer", line, col)
            take()
            k = e[1]
            length = bounded(length * abs(k))
            if k < 0:
                base = words.inverse(base)
            return words.free_reduce(base * abs(k)), length
        return base, length

    if text.strip() in ("", "1"):
        return (), 0
    return parse_sequence(set())


def _tokenize(text, line=None):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace() or c == "*":
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if c in "([,])^":
            out.append((c, c, i))
            i += 1
            continue
        if c == "-" or c.isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if not text[i:j].lstrip("-").isdecimal():
                raise ParseError(f"bad integer near {text[i:j]!r}", line, i)
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, i)
    return out


def _parse_list(value, line):
    """Items of a [...] list, split at commas outside quotes and outside
    an item's own brackets.  A quoted item must be the whole item, and no
    item may be empty; [] is the empty list."""
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise ParseError("expected a [...] list", line)
    inner = value[1:-1]
    if not inner.strip():
        return []
    raw = [""]
    depth = 0
    quote = None
    for ch in inner:
        if quote:
            quote = None if ch == quote else quote
        elif ch in "\"'":
            quote = ch
        elif ch == "," and depth == 0:
            raw.append("")
            continue
        else:
            depth += (ch == "[") - (ch == "]")
        raw[-1] += ch
    if quote:
        raise ParseError("unterminated quote", line)
    items = []
    for item in map(str.strip, raw):
        if (item[:1] in ("'", '"') and item.count(item[0]) == 2
                and item[-1] == item[0]):
            item = item[1:-1].strip()
        if "'" in item or '"' in item:
            raise ParseError("a quoted item must be the whole item", line)
        if not item:
            raise ParseError("empty list item", line)
        items.append(item)
    return items


KEYS = ("generators", "relators", "aspherical")


def parse_presentation(text):
    """Parse the structured text format into a FinitePresentation."""
    fields = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError("expected 'key: value'", ln)
        key, _, value = stripped.partition(":")
        key = key.strip()
        if key not in KEYS:
            raise ParseError(f"unknown key {key!r}; expected one of "
                             f"{', '.join(KEYS)}", ln)
        if key in fields:
            raise ParseError(f"repeated key {key!r} (first on line "
                             f"{fields[key][1]})", ln)
        fields[key] = (value.strip(), ln)
    if "generators" not in fields:
        raise ParseError("missing 'generators' field")
    gen_value, gen_line = fields["generators"]
    names = _parse_list(gen_value, gen_line)
    for name in names:
        try:
            one_name = _tokenize(name) == [("name", name, 0)]
        except ParseError:
            one_name = False
        if not one_name:
            raise ParseError(f"generator {name!r} is not one name", gen_line)
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator names", gen_line)
    name_index = {n: i for i, n in enumerate(names)}
    relators = []
    if "relators" in fields:
        rel_value, rel_line = fields["relators"]
        used = 0
        for item in _parse_list(rel_value, rel_line):
            word, length = parse_word(item, name_index, rel_line, used)
            relators.append(word)
            used += length
    aspherical = False
    if "aspherical" in fields:
        a_value, a_line = fields["aspherical"]
        if a_value not in ("true", "false"):
            raise ParseError("aspherical must be true or false", a_line)
        aspherical = a_value == "true"
    return FinitePresentation(len(names), tuple(relators), aspherical,
                              tuple(names))


def load_presentation(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def format_presentation(p: FinitePresentation):
    gens = ", ".join(p.names)
    rels = ", ".join(f'"{words.word_to_string(r, p.names)}"' for r in p.relators)
    return (f"generators: [{gens}]\n"
            f"relators: [{rels}]\n"
            f"aspherical: {'true' if p.aspherical else 'false'}\n")
