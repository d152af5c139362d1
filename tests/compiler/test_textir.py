"""Tests for the textual IR format: printing, parsing, round-trips."""

import pytest

from helpers import call_program, locking_program, saxpy_program, data_words

from repro.compiler import compile_program, run_single
from repro.compiler.textir import ParseError, parse_program, print_program
from repro.config import CompilerConfig


SAMPLE = """
program sample
array x 8
array y 8

func main()
entry:
    const   r1, 0
    br      loop
loop:
    load    r2, [r1 + x]
    add     r2, r2, 5
    store   r2, [r1 + y]
    add     r1, r1, 1
    lt      r3, r1, 8
    cbr     r3, loop, done
done:
    ret
"""


class TestParse:
    def test_sample_parses_and_runs(self):
        prog = parse_program(SAMPLE)
        _, mem = run_single(prog)
        y = prog.base_of("y")
        assert mem.read(y + 3) == 5

    def test_comments_and_blanks_ignored(self):
        prog = parse_program("program p\narray a 4\n# hi\n\nfunc main()\ne:\n    ret\n")
        assert "main" in prog.functions

    def test_explicit_base(self):
        prog = parse_program(
            "program p\narray a 4 @9000\nfunc main()\ne:\n    ret\n"
        )
        assert prog.base_of("a") == 9000

    def test_calls_with_return(self):
        text = """
program p
array a 4
func helper(r1)
e:
    add r2, r1, 1
    ret r2
func main()
e:
    call helper(41) -> r3
    store r3, [0 + a]
    ret
"""
        prog = parse_program(text)
        _, mem = run_single(prog)
        assert mem.read(prog.base_of("a")) == 42

    def test_atomic_and_sync(self):
        text = """
program p
array a 4
func main()
e:
    lock 1
    atomic r1, [0 + a], add, 5
    unlock 1
    fence
    ret
"""
        prog = parse_program(text)
        _, mem = run_single(prog)
        assert mem.read(prog.base_of("a")) == 5

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ParseError, match="unknown mnemonic"):
            parse_program("program p\nfunc main()\ne:\n    frobnicate r1\n")

    def test_unknown_array_rejected(self):
        with pytest.raises(ParseError, match="unknown array"):
            parse_program("program p\nfunc main()\ne:\n    load r1, [r2 + nope]\n    ret\n")

    def test_unknown_callee_rejected(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_program("program p\nfunc main()\ne:\n    call ghost()\n    ret\n")

    def test_instruction_outside_block_rejected(self):
        with pytest.raises(ParseError, match="outside"):
            parse_program("program p\nfunc main()\n    ret\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="program"):
            parse_program("func main()\ne:\n    ret\n")

    def test_bad_operand_rejected(self):
        with pytest.raises(ParseError, match="bad operand"):
            parse_program("program p\nfunc main()\ne:\n    add r1, r2, @@\n    ret\n")

    @pytest.mark.parametrize("decl", [
        "array a x", "array a 4 @x", "array a 4 5", "array a",
    ])
    def test_bad_array_declaration_rejected(self, decl):
        with pytest.raises(ParseError, match="bad array declaration") as err:
            parse_program("program p\n%s\n" % decl)
        assert err.value.lineno == 2

    @pytest.mark.parametrize("decl", ["array a 0", "array a 0 @64"])
    def test_empty_array_rejected(self, decl):
        with pytest.raises(ParseError, match="at least one word"):
            parse_program("program p\n%s\n" % decl)

    def test_duplicate_array_rejected(self):
        with pytest.raises(ParseError, match="duplicate array"):
            parse_program("program p\narray a 4\narray a 4\n")

    def test_line_numbers_reported(self):
        try:
            parse_program("program p\nfunc main()\ne:\n    wat\n")
        except ParseError as e:
            assert e.lineno == 4


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", [saxpy_program, call_program, lambda: locking_program(2, 3)]
    )
    def test_print_parse_preserves_semantics(self, factory):
        prog = factory()
        text = print_program(prog)
        clone = parse_program(text)
        ref, _ = None, None
        if "main" in prog.functions:
            a = data_words(run_single(prog)[1])
            b = data_words(run_single(clone)[1])
            assert a == b
        else:
            from repro.compiler import run_threads

            entries = [("worker", (t,)) for t in range(2)]
            _, m1 = run_threads(prog, entries)
            _, m2 = run_threads(clone, entries)
            assert data_words(m1) == data_words(m2)

    def test_compiled_program_round_trips(self):
        compiled = compile_program(saxpy_program(n=8), CompilerConfig(store_threshold=8))
        text = print_program(compiled.program)
        assert "boundary" in text
        assert "checkpoint" in text
        clone = parse_program(text)
        a = data_words(run_single(compiled.program)[1])
        b = data_words(run_single(clone)[1])
        assert a == b

    def test_double_round_trip_is_stable(self):
        prog = saxpy_program(n=8)
        once = print_program(parse_program(print_program(prog)))
        twice = print_program(parse_program(once))
        assert once == twice
