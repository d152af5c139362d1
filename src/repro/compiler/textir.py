"""A textual assembly format for the IR: parse and print.

Programs can be written, stored, and diffed as ``.lir`` text — handy for
examples, for golden-file tests of compiler passes, and for inspecting
what the region partitioner did.  The format round-trips:
``parse_program(print_program(prog))`` reproduces the program.

Grammar (line-oriented; ``#`` starts a comment)::

    program demo
    array x 64                  # name, words (base auto-assigned)
    array y 64 @4096            # explicit base word address

    func main(r1, r2)
    entry:
        const   r1, 0
        add     r2, r1, 5
        load    r3, [r1 + x]    # symbolic base resolved to the array
        store   r3, [r1 + y]
        atomic  r4, [r1 + x], add, 1
        lock    0
        unlock  0
        fence
        call    helper(r1, 7) -> r5
        cbr     r2, entry, done
    done:
        ret     r5

Compiler pseudo-instructions print as ``boundary <kind>`` and
``checkpoint rN`` and parse back, so instrumented programs round-trip
too.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .ir import BasicBlock, Function, Instr, Op, Operand, Program

__all__ = ["print_program", "parse_program", "ParseError"]


class ParseError(ValueError):
    """Raised with a line number on malformed input."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno
        self.message = message


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def _operand_str(operand: Operand) -> str:
    return str(operand)


def _addr_str(instr: Instr, symbols: Dict[int, str]) -> str:
    base = instr.offset
    if base in symbols:
        base_txt = symbols[base]
    else:
        base_txt = str(base)
    return "[%s + %s]" % (_operand_str(instr.addr), base_txt)


def _instr_str(instr: Instr, symbols: Dict[int, str]) -> str:
    op = instr.op
    if op == Op.CONST:
        return "const %s, %d" % (instr.dst, instr.imm)
    if op == Op.MOV:
        return "mov %s, %s" % (instr.dst, _operand_str(instr.srcs[0]))
    if op in Op.BINOPS:
        return "%s %s, %s, %s" % (
            op, instr.dst, _operand_str(instr.srcs[0]), _operand_str(instr.srcs[1])
        )
    if op == Op.LOAD:
        return "load %s, %s" % (instr.dst, _addr_str(instr, symbols))
    if op == Op.STORE:
        return "store %s, %s" % (_operand_str(instr.srcs[0]), _addr_str(instr, symbols))
    if op == Op.ATOMIC_RMW:
        return "atomic %s, %s, %s, %s" % (
            instr.dst or "_",
            _addr_str(instr, symbols),
            instr.rmw_op,
            _operand_str(instr.srcs[0]),
        )
    if op == Op.BR:
        return "br %s" % instr.targets[0]
    if op == Op.CBR:
        return "cbr %s, %s, %s" % (
            _operand_str(instr.srcs[0]), instr.targets[0], instr.targets[1]
        )
    if op == Op.CALL:
        args = ", ".join(_operand_str(s) for s in instr.srcs)
        ret = " -> %s" % instr.dst if instr.dst else ""
        return "call %s(%s)%s" % (instr.callee, args, ret)
    if op == Op.RET:
        if instr.srcs:
            return "ret %s" % _operand_str(instr.srcs[0])
        return "ret"
    if op == Op.FENCE:
        return "fence"
    if op == Op.IO:
        if instr.srcs:
            return "io %d, %s" % (instr.imm, _operand_str(instr.srcs[0]))
        return "io %d" % instr.imm
    if op == Op.LOCK:
        return "lock %d" % instr.imm
    if op == Op.UNLOCK:
        return "unlock %d" % instr.imm
    if op == Op.BOUNDARY:
        return "boundary %s" % (instr.note or "plain")
    if op == Op.CHECKPOINT:
        return "checkpoint %s" % instr.srcs[0]
    if op == Op.NOP:
        return "nop"
    raise ValueError("unprintable op %r" % op)


def print_program(program: Program) -> str:
    """Serialize a program to the textual format."""
    lines: List[str] = ["program %s" % program.name]
    symbols = {base: name for name, (base, _words) in program.globals.items()}
    for name, (base, words) in program.globals.items():
        lines.append("array %s %d @%d" % (name, words, base))
    for func in program.functions.values():
        lines.append("")
        params = ", ".join(func.params)
        lines.append("func %s(%s)" % (func.name, params))
        for label in func.block_order():
            lines.append("%s:" % label)
            for instr in func.blocks[label].instrs:
                lines.append("    " + _instr_str(instr, symbols))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

_ADDR_RE = re.compile(r"^\[\s*(\S+)\s*\+\s*(\S+)\s*\]$")
_ARRAY_RE = re.compile(r"^array\s+(\S+)\s+(\d+)(?:\s+@(\d+))?$")


def _parse_operand(token: str, lineno: int) -> Operand:
    token = token.strip()
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    if re.fullmatch(r"[A-Za-z_]\w*", token):
        return token
    raise ParseError(lineno, "bad operand %r" % token)


def _split_args(text: str) -> List[str]:
    """Split on commas not inside brackets."""
    parts: List[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_addr(token: str, symbols: Dict[str, int], lineno: int) -> Tuple[Operand, int]:
    match = _ADDR_RE.match(token.strip())
    if not match:
        raise ParseError(lineno, "bad address %r (want [idx + base])" % token)
    index = _parse_operand(match.group(1), lineno)
    base_txt = match.group(2)
    if base_txt in symbols:
        base = symbols[base_txt]
    elif re.fullmatch(r"-?\d+", base_txt):
        base = int(base_txt)
    else:
        raise ParseError(lineno, "unknown array %r" % base_txt)
    return index, base


def parse_program(text: str) -> Program:
    """Parse the textual format back into a Program."""
    program: Optional[Program] = None
    symbols: Dict[str, int] = {}
    func: Optional[Function] = None
    block: Optional[BasicBlock] = None
    pending_calls: List[Tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if line.startswith("program "):
            program = Program(line[len("program "):].strip())
            continue
        if program is None:
            raise ParseError(lineno, "missing 'program <name>' header")

        if line.startswith("array "):
            match = _ARRAY_RE.match(line)
            if match is None:
                raise ParseError(lineno, "bad array declaration")
            name, words, at = match.group(1), int(match.group(2)), match.group(3)
            if name in program.globals:
                raise ParseError(lineno, "duplicate array %r" % name)
            if words < 1:
                raise ParseError(lineno, "array %r must have at least one word" % name)
            if at is None:
                program.array(name, words)
            else:
                base = int(at)
                program.globals[name] = (base, words)
                program._next_addr = max(program._next_addr, base + words)
            symbols[name] = program.globals[name][0]
            continue

        match = re.match(r"^func\s+(\w+)\s*\(([^)]*)\)$", line)
        if match:
            params = [p.strip() for p in match.group(2).split(",") if p.strip()]
            func = Function(match.group(1), params)
            program.add_function(func)
            block = None
            continue

        if line.endswith(":") and re.fullmatch(r"[\w.]+:", line):
            if func is None:
                raise ParseError(lineno, "label outside a function")
            block = func.add_block(line[:-1])
            continue

        if func is None or block is None:
            raise ParseError(lineno, "instruction outside a block: %r" % line)
        block.append(_parse_instr(line, symbols, lineno, pending_calls))

    if program is None:
        raise ParseError(0, "empty input")
    for lineno, callee in pending_calls:
        if callee not in program.functions:
            raise ParseError(lineno, "call to unknown function %r" % callee)
    program.validate()
    return program


def _parse_instr(
    line: str,
    symbols: Dict[str, int],
    lineno: int,
    pending_calls: List[Tuple[int, str]],
) -> Instr:
    mnemonic, _, rest = line.partition(" ")
    rest = rest.strip()
    args = _split_args(rest) if rest else []

    def need(n: int) -> None:
        if len(args) != n:
            raise ParseError(lineno, "%s expects %d operand(s)" % (mnemonic, n))

    if mnemonic == "const":
        need(2)
        return Instr(Op.CONST, dst=args[0], imm=int(args[1]))
    if mnemonic == "mov":
        need(2)
        return Instr(Op.MOV, dst=args[0], srcs=(_parse_operand(args[1], lineno),))
    if mnemonic in Op.BINOPS:
        need(3)
        return Instr(
            mnemonic,
            dst=args[0],
            srcs=(
                _parse_operand(args[1], lineno),
                _parse_operand(args[2], lineno),
            ),
        )
    if mnemonic == "load":
        need(2)
        index, base = _parse_addr(args[1], symbols, lineno)
        return Instr(Op.LOAD, dst=args[0], addr=index, offset=base)
    if mnemonic == "store":
        need(2)
        index, base = _parse_addr(args[1], symbols, lineno)
        return Instr(
            Op.STORE, srcs=(_parse_operand(args[0], lineno),), addr=index, offset=base
        )
    if mnemonic == "atomic":
        need(4)
        index, base = _parse_addr(args[1], symbols, lineno)
        dst = None if args[0] == "_" else args[0]
        return Instr(
            Op.ATOMIC_RMW,
            dst=dst,
            srcs=(_parse_operand(args[3], lineno),),
            addr=index,
            offset=base,
            rmw_op=args[2],
        )
    if mnemonic == "br":
        need(1)
        return Instr(Op.BR, targets=(args[0],))
    if mnemonic == "cbr":
        need(3)
        return Instr(
            Op.CBR,
            srcs=(_parse_operand(args[0], lineno),),
            targets=(args[1], args[2]),
        )
    if mnemonic == "call":
        match = re.match(r"^(\w+)\s*\(([^)]*)\)\s*(?:->\s*(\w+))?$", rest)
        if not match:
            raise ParseError(lineno, "bad call syntax %r" % rest)
        callee, arg_text, ret = match.groups()
        call_args = tuple(
            _parse_operand(a, lineno)
            for a in arg_text.split(",")
            if a.strip()
        )
        pending_calls.append((lineno, callee))
        return Instr(Op.CALL, dst=ret, srcs=call_args, callee=callee)
    if mnemonic == "ret":
        if args:
            need(1)
            return Instr(Op.RET, srcs=(_parse_operand(args[0], lineno),))
        return Instr(Op.RET)
    if mnemonic == "fence":
        need(0)
        return Instr(Op.FENCE)
    if mnemonic == "io":
        if len(args) == 1:
            return Instr(Op.IO, imm=int(args[0]))
        need(2)
        return Instr(
            Op.IO, imm=int(args[0]), srcs=(_parse_operand(args[1], lineno),)
        )
    if mnemonic == "lock":
        need(1)
        return Instr(Op.LOCK, imm=int(args[0]))
    if mnemonic == "unlock":
        need(1)
        return Instr(Op.UNLOCK, imm=int(args[0]))
    if mnemonic == "boundary":
        note = args[0] if args else "plain"
        return Instr(Op.BOUNDARY, note="" if note == "plain" else note)
    if mnemonic == "checkpoint":
        need(1)
        return Instr(Op.CHECKPOINT, srcs=(args[0],), note=args[0])
    if mnemonic == "nop":
        need(0)
        return Instr(Op.NOP)
    raise ParseError(lineno, "unknown mnemonic %r" % mnemonic)
