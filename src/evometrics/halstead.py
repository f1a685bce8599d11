"""Halstead token counts and measures for C-family sources.

A lexer is enough for Halstead: tokens are classified as operators
(keywords, punctuation, operator spellings, bracket pairs) or operands
(identifiers, numeric literals, string and character literals). No grammar
parse is attempted, which keeps the extractor usable on partial or
unpreprocessed sources.

The lexer is one compiled master pattern, and each of its matches is a gap
followed by one token, one whole directive, or the end of the text. The gap
is blanks, closed comments and bare newlines; the token is an alternation
with one named group per token class, tried in maximal-munch order (the
method of Python's own ``tokenize`` module). A ``#`` starts a directive only
when its gap holds a bare newline, which a regex conditional checks, so a
directive is one match and the pattern needs no line-start state; the text
scanned is ``"\n" + source``, so line 1 starts after a newline too. A block
comment that spans lines is not a bare newline and does not start a line.

``tokenize`` is one ``finditer`` loop over the matches. ``extract_file``
does not build tokens: it counts the distinct match tuples of one
``findall`` with a ``Counter`` at C level, classifies each distinct tuple
once, and calls ``tokenize`` only to raise the error of an unterminated
comment or literal with its line number.

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

# A gap, then a directive, a token or the end (see the module docstring); scan
# "\n" + source. The gap's bare newlines are group nl, which a directive needs.
# Token classes are tried in this order: "/*" and a quote reach their open_
# group only when not closed; a pp-number starts with a decimal digit, or "."
# and one; DOTALL lets a literal's "\\." take a backslash-newline. A backslash
# before LF or CRLF continues a directive.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\v\f]+|//[^\n]*|/\*.*?\*/|(?P<nl>\n))*(?:"
    + "|".join(f"(?P<{group}>{pattern})" for group, pattern in (
        ("directive", r"(?(nl)\#[^\n\\]*(?:\\(?:\r?\n)?[^\n\\]*)*|(?!))"),
        ("open_comment", r"/\*"),
        ("literal", r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\''),
        ("open_literal", r"[\"']"),
        ("word", r"[^\W\d]\w*"),
        ("number", r"\.?\d(?:[eEpP][+-]|[\w.])*"),
        ("punctuation", "|".join(map(re.escape, _PUNCTUATION))),
        ("other", "."),
    ))
    + r"|\Z)",
    re.DOTALL,
)

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


class TokenCounts(NamedTuple):
    """Primitive Halstead counts: distinct (n) and total (N) spellings (a named tuple)."""

    n1: int  # distinct operators
    n2: int  # distinct operands
    N1: int  # total operators
    N2: int  # total operands


class HalsteadMeasures(NamedTuple):
    """The classical measures of one file's counts (a named tuple)."""

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
    line = 0  # the scanned text starts with an extra "\n"
    for m in _TOKEN_RE.finditer("\n" + source):
        group = m.lastgroup
        line += m.group().count("\n")
        if group in (None, "nl", "directive"):
            continue  # the end of the text, or a directive, skipped whole
        text = m.group(group)
        start = line - text.count("\n")  # a literal's backslash-newlines
        if group == "open_comment":
            raise InputError(f"line {start}: unterminated block comment")
        if group == "open_literal":
            what = "string" if text == '"' else "character"
            raise InputError(f"line {start}: unterminated {what} literal")
        if group == "literal" or group == "number" or (group == "word" and text not in KEYWORDS):
            tokens.append(Token(OPERAND, text, start))
        else:
            tokens.append(Token(OPERATOR, text, start))
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
    return _token_counts(operators, operands)


def _token_counts(operators: Counter[str], operands: Counter[str]) -> TokenCounts:
    """TokenCounts of spelling tallies, folding each bracket pair kind into one spelling."""
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


def _source_counts(source: str) -> TokenCounts:
    """halstead_counts(tokenize(source)), tallied from the distinct match tuples."""
    operators: Counter[str] = Counter()
    operands: Counter[str] = Counter()
    for match, times in Counter(_TOKEN_RE.findall("\n" + source)).items():
        # the groups in pattern order; nl and directive add no token
        _, _, open_comment, literal, open_literal, word, number, punctuation, other = match
        if open_comment or open_literal:
            tokenize(source)  # raises the first error, naming its line
        if word:
            (operators if word in KEYWORDS else operands)[word] += times
        elif literal or number:
            operands[literal or number] += times
        elif punctuation or other:
            operators[punctuation or other] += times
    return _token_counts(operators, operands)


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
    return _entity_records(_entity_counts(source_text, entity), version, package, entity)


def _entity_counts(source_text: str, entity: str) -> TokenCounts:
    """``_source_counts(source_text)``; an unterminated comment or literal is an InputError
    that names the entity."""
    try:
        return _source_counts(source_text)
    except InputError as exc:
        raise InputError(f"{entity}: {exc}") from exc


def _entity_records(counts: TokenCounts, version: str, package: str,
                    entity: str) -> list[Record]:
    """The seven records of one file's counts; degenerate counts are an AnalysisError that
    names the entity."""
    try:
        measures = halstead_measures(counts)
    except AnalysisError as exc:
        raise AnalysisError(f"{entity}: {exc}") from exc
    values = (counts.n1, counts.n2, counts.N1, counts.N2,
              measures.volume, measures.difficulty, measures.effort)
    return [Record(version, package, entity, metric, float(value))
            for metric, value in zip(HALSTEAD_METRICS, values)]
