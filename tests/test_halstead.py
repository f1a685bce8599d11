"""Tests for the C-family tokenizer and the Halstead measures."""

import hashlib
import random

import pytest

from evometrics import (
    AnalysisError,
    InputError,
    TokenCounts,
    extract_file,
    halstead_counts,
    halstead_measures,
    tokenize,
)

SNIPPETS = [
    "a = b + c;\n",
    "int f(int x) { return x * x; }\n",
    'const char* s = "hi";\nif (s) { g(s, 1.5e-3); }\n',
    "for (int i = 0; i < n; ++i) { total += data[i]; }\n",
]


def counts_of(source):
    return halstead_counts(tokenize(source))


OP, OPD = "operator", "operand"

# (source, expected (kind, text, line) stream), one lexing convention each
CONVENTIONS = [
    pytest.param("a;\r\nb;\r\n", [(OPD, "a", 1), (OP, ";", 1), (OPD, "b", 2), (OP, ";", 2)],
                 id="crlf-lines"),
    pytest.param("#define X 1 \\\r\n  + 2\r\nx;\r\n", [(OPD, "x", 3), (OP, ";", 3)],
                 id="directive-backslash-crlf"),
    pytest.param(" \t# pragma once\nx;\n", [(OPD, "x", 2), (OP, ";", 2)],
                 id="directive-after-blanks"),
    pytest.param("/* c */ #define A\ny;\n", [(OPD, "y", 2), (OP, ";", 2)],
                 id="directive-after-comment"),
    pytest.param(
        "#define A /* open\nb; */ c;\n",
        [(OPD, "b", 2), (OP, ";", 2), (OP, "*", 2), (OP, "/", 2), (OPD, "c", 2), (OP, ";", 2)],
        id="directive-comment-spill-is-code",
    ),
    pytest.param(
        's = "ab\\\ncd";\nt;\n',
        [(OPD, "s", 1), (OP, "=", 1), (OPD, '"ab\\\ncd"', 1), (OP, ";", 2),
         (OPD, "t", 3), (OP, ";", 3)],
        id="string-backslash-newline",
    ),
    pytest.param(
        "a..b...c",
        [(OPD, "a", 1), (OP, ".", 1), (OP, ".", 1), (OPD, "b", 1), (OP, "...", 1), (OPD, "c", 1)],
        id="two-dots-vs-ellipsis",
    ),
    pytest.param(
        "1e+10 0x1p-3 .5 1.e5",
        [(OPD, "1e+10", 1), (OPD, "0x1p-3", 1), (OPD, ".5", 1), (OPD, "1.e5", 1)],
        id="pp-numbers",
    ),
    pytest.param(
        "a@b$c\xa0d",
        [(OPD, "a", 1), (OP, "@", 1), (OPD, "b", 1), (OP, "$", 1), (OPD, "c", 1),
         (OP, "\xa0", 1), (OPD, "d", 1)],
        id="unknown-characters",
    ),
    pytest.param("é = café;", [(OPD, "é", 1), (OP, "=", 1), (OPD, "café", 1), (OP, ";", 1)],
                 id="non-ascii-identifier"),
]

UNTERMINATED = [
    pytest.param("x;\n/*/\n", "line 2: unterminated block comment", id="slash-star-slash"),
    pytest.param('x;\n"abc\\', "line 2: unterminated string literal", id="string-backslash-eof"),
    pytest.param("'\\", "line 1: unterminated character literal", id="char-backslash-eof"),
]

# the fuzz alphabet of the differential check against the earlier per-character lexer
FUZZ_ALPHABET = (
    list("+-*/%=<>!~&|^?:;,.()[]{}#@$`") + list("\r\n\t\v\f")
    + ["\\", '"', "'", "/*", "*/", "//", "#define X \\\n", "é", "٠", "\xa0", " ", " ",
       "a", "b", "_", "x", "e", "E", "p", "P", "0", "1", "9", "int", "return",
       "1e+10", "0x1p-3", ".5", "...", "\\\r\n", "\n#", "\r\n"]
)


class TestTokenizer:
    def test_simple_statement_classification(self):
        tokens = tokenize("a = b + c;")
        assert [t.text for t in tokens] == ["a", "=", "b", "+", "c", ";"]
        assert [t.kind for t in tokens] == [
            "operand", "operator", "operand", "operator", "operand", "operator",
        ]

    def test_comments_vanish(self):
        assert tokenize("/* x */") == []
        assert tokenize("// y = z\n") == []
        assert [t.text for t in tokenize("a; // trailing\nb;")] == ["a", ";", "b", ";"]
        assert [t.text for t in tokenize("a /* mid */ ;")] == ["a", ";"]

    def test_string_literal_is_one_operand(self):
        tokens = tokenize('"x+y"')
        assert len(tokens) == 1
        assert tokens[0].kind == "operand"
        assert tokens[0].text == '"x+y"'

    def test_char_literal_and_escapes(self):
        assert [t.text for t in tokenize("'c'")] == ["'c'"]
        tokens = tokenize(r'"a\"b"')
        assert [t.text for t in tokens] == [r'"a\"b"']

    def test_keywords_are_operators(self):
        tokens = tokenize("if (x) return y;")
        kinds = {t.text: t.kind for t in tokens}
        assert kinds["if"] == "operator"
        assert kinds["return"] == "operator"
        assert kinds["x"] == "operand"

    def test_numeric_literals(self):
        tokens = tokenize("v = 1.5e-3 + 0x1F + .25;")
        operands = [t.text for t in tokens if t.kind == "operand"]
        assert operands == ["v", "1.5e-3", "0x1F", ".25"]

    def test_multichar_operators_take_the_longest_match(self):
        assert [t.text for t in tokenize("a <<= b->c::d;")] == [
            "a", "<<=", "b", "->", "c", "::", "d", ";",
        ]

    def test_preprocessor_lines_are_skipped(self):
        tokens = tokenize("#include <iostream>\nint x;\n#define N 10\n")
        assert [t.text for t in tokens] == ["int", "x", ";"]

    def test_preprocessor_continuation(self):
        tokens = tokenize("#define ADD(a, b) \\\n  ((a) + (b))\nint y;\n")
        assert [t.text for t in tokens] == ["int", "y", ";"]

    def test_hash_mid_line_is_not_a_directive(self):
        assert [t.text for t in tokenize("a # b")] == ["a", "#", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(InputError, match="line 2: unterminated block comment"):
            tokenize("a;\n/* open\n")

    def test_unterminated_string(self):
        with pytest.raises(InputError, match="line 1: unterminated string"):
            tokenize('"never closed\n')
        with pytest.raises(InputError, match="line 3: unterminated character"):
            tokenize("a;\nb;\n'x\n")

    def test_line_numbers(self):
        tokens = tokenize("a;\n\nb;\n")
        assert [(t.text, t.line) for t in tokens] == [("a", 1), (";", 1), ("b", 3), (";", 3)]

    @pytest.mark.parametrize("source, expected", CONVENTIONS)
    def test_convention(self, source, expected):
        assert [tuple(t) for t in tokenize(source)] == expected

    @pytest.mark.parametrize("source, message", UNTERMINATED)
    def test_unterminated_names_the_start_line(self, source, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            tokenize(source)

    def test_non_letter_alphanumerics_start_a_word(self):
        # "²" was a pp-number start and "½", "Ⅷ" one-character operators
        # under str.isdigit/isalpha; the regex word class takes all three
        assert [tuple(t) for t in tokenize("½ Ⅷx ²e+1")] == [
            (OPD, "½", 1), (OPD, "Ⅷx", 1), (OPD, "²e", 1), (OP, "+", 1), (OPD, "1", 1),
        ]

    def test_generated_token_streams_are_pinned(self):
        # digest of the earlier per-character lexer's output on the same inputs
        rng = random.Random(1977)
        digest = hashlib.sha256()
        for _ in range(5000):
            source = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randrange(40)))
            try:
                digest.update(repr([tuple(t) for t in tokenize(source)]).encode("utf-8"))
            except InputError as exc:
                digest.update(str(exc).encode("utf-8"))
            digest.update(b"\0")
        assert digest.hexdigest() == (
            "202bf07fabd61fbc2c100bd5626eea00be5824ed89e03864f5901f76984715e5"
        )


class TestCounts:
    def test_hand_counts(self):
        assert counts_of("a = b + c;") == TokenCounts(n1=3, n2=3, N1=3, N2=3)
        assert counts_of("a = a + a;") == TokenCounts(n1=3, n2=1, N1=3, N2=3)
        assert counts_of("") == TokenCounts(n1=0, n2=0, N1=0, N2=0)

    def test_bracket_pairs_count_once(self):
        # operators: "()" twice, "[]" once, "{}" once, "," and ";" once each
        counts = counts_of("f(a, b[i]) { g(); }")
        assert counts.n1 == 5
        assert counts.N1 == 6
        assert counts.n2 == 5  # f a b i g
        assert counts.N2 == 5

    def test_totality_with_balanced_brackets(self):
        for source in SNIPPETS:
            tokens = tokenize(source)
            counts = halstead_counts(tokens)
            closers = sum(1 for t in tokens if t.text in (")", "]", "}"))
            assert counts.N1 + counts.N2 == len(tokens) - closers

    def test_count_invariants(self):
        for source in SNIPPETS:
            counts = counts_of(source)
            assert counts.N1 >= counts.n1
            assert counts.N2 >= counts.n2
            assert (counts.n1 == 0) == (counts.N1 == 0)
            assert (counts.n2 == 0) == (counts.N2 == 0)


class TestMeasures:
    def test_hand_values(self):
        m = halstead_measures(TokenCounts(3, 3, 3, 3))
        assert m.vocabulary == 6
        assert m.length == 6
        assert m.volume == pytest.approx(15.509775004326936, abs=1e-9)
        assert m.difficulty == 1.5
        assert m.effort == pytest.approx(23.264662506490403, abs=1e-9)

    def test_minimal_counts(self):
        m = halstead_measures(TokenCounts(1, 1, 1, 1))
        assert m.volume == 2.0
        assert m.difficulty == 0.5
        assert m.effort == 1.0

    def test_effort_is_difficulty_times_volume(self):
        for source in SNIPPETS:
            m = halstead_measures(counts_of(source))
            assert m.effort == m.difficulty * m.volume

    def test_degenerate_counts(self):
        with pytest.raises(AnalysisError, match="degenerate counts"):
            halstead_measures(TokenCounts(0, 0, 0, 0))
        with pytest.raises(AnalysisError, match="degenerate counts"):
            halstead_measures(TokenCounts(2, 0, 2, 0))


class TestProperties:
    def test_self_concatenation_doubles_totals(self):
        for source in SNIPPETS:
            single = counts_of(source)
            double = counts_of(source + source)
            assert double.n1 == single.n1
            assert double.n2 == single.n2
            assert double.N1 == 2 * single.N1
            assert double.N2 == 2 * single.N2
            assert halstead_measures(double).volume > halstead_measures(single).volume
            assert halstead_measures(double).effort > halstead_measures(single).effort

    def test_whitespace_and_comment_insensitivity(self):
        plain = "int f(int x) { return x * x; }\n"
        spaced = "int   f( int x )\n{\n    return x * x;\n}\n"
        commented = (
            "// squares the input\nint f(int x) { /* body */ return x * x; }\n"
        )
        assert counts_of(plain) == counts_of(spaced) == counts_of(commented)


class TestExtractFile:
    def test_seven_records_with_expected_effort(self):
        records = extract_file("a = b + c;", "v1", "p", "f.cc")
        assert len(records) == 7
        by_metric = {r.metric: r.value for r in records}
        assert set(by_metric) == {
            "halstead_n1", "halstead_n2", "halstead_N1", "halstead_N2",
            "halstead_volume", "halstead_difficulty", "halstead_effort",
        }
        assert by_metric["halstead_n1"] == 3.0
        assert by_metric["halstead_N2"] == 3.0
        assert by_metric["halstead_effort"] == pytest.approx(23.264662506490403, abs=1e-4)
        assert all((r.version, r.package, r.entity) == ("v1", "p", "f.cc") for r in records)

    def test_empty_file_error_names_the_entity(self):
        with pytest.raises(AnalysisError, match=r"empty\.cc.*degenerate counts"):
            extract_file("", "v1", "p", "empty.cc")

    def test_tokenizer_error_names_the_entity(self):
        with pytest.raises(InputError, match=r"bad\.cc.*unterminated"):
            extract_file("/* open", "v1", "p", "bad.cc")
