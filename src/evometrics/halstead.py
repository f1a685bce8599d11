"""Halstead token counts and measures for C-family sources.

A lexer is enough for Halstead: tokens are classified as operators
(keywords, punctuation, operator spellings, bracket pairs) or operands
(identifiers, numeric literals, string and character literals). No grammar
parse is attempted, which keeps the extractor usable on partial or
unpreprocessed sources.

The lexer is one compiled master pattern, an alternation with one named
group per token class tried in maximal-munch order (the method of Python's
own ``tokenize`` module); a short loop dispatches on the group that matched.
Only a ``#`` directive needs state the pattern cannot see, whether the line
has had a token yet, so the loop skips directives with a second pattern.

Identifiers follow the regex word class: a word starts with any Unicode
alphanumeric that is not a decimal digit, or ``_``, and continues with
alphanumerics and ``_``. So ``é`` and ``café`` are identifiers, and so are
``²``, ``½`` and ``Ⅷ`` (none of which is valid C outside literals).

Counting conventions:
  - comments contribute nothing, and neither do preprocessor directives
    (skipped whole-line, include paths would otherwise dominate operands);
  - a string or character literal is a single operand, quotes included;
  - paired brackets ``()``, ``[]``, ``{}`` count as one operator occurrence
    per pair, under one spelling per pair kind.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .dataset import Record
from .errors import AnalysisError, InputError

OPERATOR = "operator"
OPERAND = "operand"

KEYWORDS = frozenset("""
    alignas alignof and and_eq asm auto bitand bitor bool break case catch
    char char16_t char32_t class compl const const_cast constexpr continue
    decltype default delete do double dynamic_cast else enum explicit
    export extern false float for friend goto if inline int long mutable
    namespace new noexcept not not_eq nullptr operator or or_eq private
    protected public register reinterpret_cast restrict return short
    signed sizeof static static_assert static_cast struct switch template
    this thread_local throw true try typedef typeid typename union
    unsigned using virtual void volatile wchar_t while xor xor_eq
""".split())

# longest spellings first: a regex alternation takes the first spelling that
# matches, so this order gives the maximal munch ("<<=" before "<<" before "<")
_PUNCTUATION = (
    "<<=", ">>=", "->*", "...",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".",
    "(", ")", "[", "]", "{", "}",
)

# One alternative per token class, tried in this order at each position.
# Comments precede punctuation so "/*" and "//" never lex as "/"; a "/*" or
# quote that reaches its open_ group was not closed by the alternative before.
# A pp-number starts with a decimal digit, or "." and one; DOTALL lets a
# literal's "\\." take a backslash-newline.
_TOKEN_RE = re.compile("|".join(f"(?P<{group}>{pattern})" for group, pattern in (
    ("newline", r"\n"),
    ("blank", r"[ \t\r\v\f]+"),
    ("comment", r"//[^\n]*|/\*.*?\*/"),
    ("open_comment", r"/\*"),
    ("literal", r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\''),
    ("open_literal", r"[\"']"),
    ("word", r"[^\W\d]\w*"),
    ("number", r"\.?\d(?:[eEpP][+-]|[\w.])*"),
    ("punctuation", "|".join(map(re.escape, _PUNCTUATION))),
    ("other", "."),
)), re.DOTALL)

# the rest of a directive line; a backslash before LF or CRLF continues it
_DIRECTIVE_RE = re.compile(r"(?:[^\n\\]|\\\r?\n|\\)*")

_BRACKET_PAIRS = (("(", ")", "()"), ("[", "]", "[]"), ("{", "}", "{}"))

HALSTEAD_METRICS = (
    "halstead_n1",
    "halstead_n2",
    "halstead_N1",
    "halstead_N2",
    "halstead_volume",
    "halstead_difficulty",
    "halstead_effort",
)


class Token(NamedTuple):
    kind: str  # OPERATOR or OPERAND
    text: str
    line: int


@dataclass(frozen=True)
class TokenCounts:
    """Primitive Halstead counts: distinct (n) and total (N) spellings."""

    n1: int  # distinct operators
    n2: int  # distinct operands
    N1: int  # total operators
    N2: int  # total operands


@dataclass(frozen=True)
class HalsteadMeasures:
    vocabulary: int  # n1 + n2
    length: int  # N1 + N2
    volume: float  # length * log2(vocabulary)
    difficulty: float  # (n1 / 2) * (N2 / n2)
    effort: float  # difficulty * volume, the "mental effort"


def tokenize(source: str) -> list[Token]:
    """Classified token stream for one source file.

    Whitespace, comments, and preprocessor directives (including their
    backslash continuations) are consumed silently; everything else comes
    back as an operator or operand token. Raises InputError for an
    unterminated block comment or string/character literal, naming the
    line it starts on. Unknown characters become single-character
    operators rather than errors, so partial sources still tokenize.
    """
    tokens: list[Token] = []
    line = 1
    at_line_start = True
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        group, text = m.lastgroup, m.group()
        pos = m.end()
        if group == "newline":
            line += 1
            at_line_start = True
        elif group == "comment":
            # comments act as whitespace: they do not clear at_line_start
            line += text.count("\n")
        elif group == "open_comment":
            raise InputError(f"line {line}: unterminated block comment")
        elif group == "open_literal":
            what = "string" if text == '"' else "character"
            raise InputError(f"line {line}: unterminated {what} literal")
        elif text == "#" and at_line_start:
            directive = _DIRECTIVE_RE.match(source, pos)
            pos = directive.end()
            line += directive.group().count("\n")
        elif group != "blank":
            if group == "literal" or group == "number":
                tokens.append(Token(OPERAND, text, line))
                line += text.count("\n")  # backslash-newline inside a literal
            elif group == "word":
                tokens.append(Token(OPERATOR if text in KEYWORDS else OPERAND, text, line))
            else:
                tokens.append(Token(OPERATOR, text, line))
            at_line_start = False
    return tokens


def halstead_counts(tokens: Iterable[Token]) -> TokenCounts:
    """Distinct and total operator/operand counts over a token stream.

    Each balanced bracket pair contributes one operator occurrence; an
    unbalanced surplus still counts one occurrence per leftover bracket.
    """
    operators: Counter[str] = Counter()
    operands: Counter[str] = Counter()
    for tok in tokens:
        if tok.kind == OPERAND:
            operands[tok.text] += 1
        else:
            operators[tok.text] += 1
    for open_b, close_b, spelling in _BRACKET_PAIRS:
        pairs = max(operators.pop(open_b, 0), operators.pop(close_b, 0))
        if pairs:
            operators[spelling] += pairs
    return TokenCounts(
        n1=len(operators),
        n2=len(operands),
        N1=sum(operators.values()),
        N2=sum(operands.values()),
    )


def halstead_measures(counts: TokenCounts) -> HalsteadMeasures:
    """Classical measures from the counts: V = N log2(n), D = (n1/2)(N2/n2), E = DV."""
    vocabulary = counts.n1 + counts.n2
    length = counts.N1 + counts.N2
    if counts.n2 == 0 or vocabulary == 0:
        raise AnalysisError("degenerate counts: no operands")
    volume = length * math.log2(vocabulary)
    difficulty = (counts.n1 / 2.0) * (counts.N2 / counts.n2)
    return HalsteadMeasures(
        vocabulary=vocabulary,
        length=length,
        volume=volume,
        difficulty=difficulty,
        effort=difficulty * volume,
    )


def extract_file(source_text: str, version: str, package: str, entity: str) -> list[Record]:
    """Dataset records for one source file, keyed (version, package, entity).

    Emits one record per Halstead metric; errors are annotated with the
    entity so callers can report which file failed.
    """
    try:
        counts = halstead_counts(tokenize(source_text))
        measures = halstead_measures(counts)
    except (AnalysisError, InputError) as exc:
        raise type(exc)(f"{entity}: {exc}") from exc
    values = {
        "halstead_n1": float(counts.n1),
        "halstead_n2": float(counts.n2),
        "halstead_N1": float(counts.N1),
        "halstead_N2": float(counts.N2),
        "halstead_volume": measures.volume,
        "halstead_difficulty": measures.difficulty,
        "halstead_effort": measures.effort,
    }
    return [Record(version, package, entity, metric, value) for metric, value in values.items()]
