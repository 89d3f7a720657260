"""The plain-text algebra document: one algebra and its named relations.

A document names one algebra and any number of reflexive relations:

    # comments run to end of line
    algebra NAME
    size N
    op NAME ARITY
    ... n**ARITY integers, row-major, first argument most significant ...
    rel NAME
    a b          # one ordered pair per line; the diagonal is implicit

`Document` is the in-memory form, shared by files and the bundled corpus.
print_document writes a document's notes as a leading comment line, and
parse_document reads comments as nothing, so notes do not take part in
comparing two documents.
"""

from __future__ import annotations

from .algebras import Algebra, OperationTable
from .errors import DocumentError
from .relations import BinRel, _shape_flags

__all__ = ["MAX_SIZE", "Document", "parse_document", "print_document"]

# Largest universe a document or a corpus entry may have.  A binary
# operation's kernel plan holds n**4 codes, so far smaller sizes are
# already slow; the bound stops a typo from allocating gigabytes.
MAX_SIZE = 256


class Document:
    """An algebra plus named reflexive relations, from a file or the corpus."""

    __hash__ = None  # mutable

    def __init__(self, name: str, algebra: Algebra,
                 relations: dict[str, BinRel] | None = None, notes: str = ""):
        self.name = name
        self.algebra = algebra
        self.relations = {} if relations is None else relations
        self.notes = notes
        for rname, rel in self.relations.items():
            if rel.n != algebra.n:
                raise ValueError(f"relation {rname!r} lives on {rel.n} elements, "
                                 f"algebra on {algebra.n}")
            reflexive, _ = _shape_flags(rel)
            if not reflexive:
                raise ValueError(f"relation {rname!r} is missing diagonal pairs")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.algebra, self.relations)
                == (other.name, other.algebra, other.relations))

    def __repr__(self):
        return (f"Document(name={self.name!r}, algebra={self.algebra!r}, "
                f"relations={self.relations!r}, notes={self.notes!r})")


def _ints(tokens):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        return None


_STRAY = "values outside an op or rel block"


def parse_document(text: str) -> Document:
    r"""Parse the document format; all failures carry the offending line.

    The non-blank lines fall into blocks, each a keyword line and the
    integer lines below it, and each block is checked whole, in order, so
    the first faulty line is the one reported.  Only op and rel blocks
    take integer lines: one before any keyword, under algebra or size, or
    past a full op table is an error on that line.  An op table may start
    on its keyword line, and one cut short is reported where its block
    ends.  An op line whose n ** ARITY entries cannot fit in the text is
    refused on that line.  Lines end at "\n" alone, as grep -n counts
    them (a form feed or another Unicode line break starts no line); the
    "\r" of a CRLF ending is whitespace, and a final "\n" starts no line.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    blocks: list[tuple[int, list[str], list[tuple[int, list[int]]]]] = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        values = _ints(tokens)
        if values is None:
            blocks.append((lineno, tokens, []))
        elif blocks:
            blocks[-1][2].append((lineno, values))
        else:
            raise DocumentError(lineno, _STRAY)
    name = n = None
    ops: dict[str, OperationTable] = {}
    relations: dict[str, list[int]] = {}
    # A table cut short is reported where its block ends: at the next
    # block's keyword line, or at the line after the last one.
    ends = [block[0] for block in blocks[1:]] + [len(lines) + 1]
    for (lineno, tokens, data), end in zip(blocks, ends):
        keyword = tokens[0]
        if keyword == "algebra":
            if name is not None:
                raise DocumentError(lineno, "duplicate algebra line")
            if len(tokens) != 2:
                raise DocumentError(lineno, "expected: algebra NAME")
            name = tokens[1]
        elif keyword == "size":
            if name is None:
                raise DocumentError(lineno, "size must follow the algebra line")
            if n is not None:
                raise DocumentError(lineno, "duplicate size line")
            got = _ints(tokens[1:])
            if len(tokens) != 2 or got is None or got[0] <= 0:
                raise DocumentError(lineno, "expected: size N with N positive")
            if got[0] > MAX_SIZE:
                raise DocumentError(lineno, f"size {got[0]} exceeds the largest "
                                            f"supported universe, {MAX_SIZE}")
            n = got[0]
        elif keyword == "op":
            table, data = _op_table(lineno, tokens, data, end, n, ops, len(text))
            ops[table.name] = table
        elif keyword == "rel":
            if n is None:
                raise DocumentError(lineno, "rel must follow the size line")
            if len(tokens) != 2:
                raise DocumentError(lineno, "expected: rel NAME")
            if tokens[1] in relations:
                raise DocumentError(lineno, f"duplicate relation name {tokens[1]!r}")
            rows = relations[tokens[1]] = [1 << a for a in range(n)]
            for at, pair in data:
                if len(pair) != 2:
                    raise DocumentError(at, "expected a pair of two integers")
                a, b = pair
                if not (0 <= a < n and 0 <= b < n):
                    raise DocumentError(at, f"pair ({a}, {b}) outside the universe of size {n}")
                rows[a] |= 1 << b
            continue  # every data line was a pair
        else:
            raise DocumentError(lineno, f"unknown keyword {keyword!r}")
        if data:
            raise DocumentError(data[0][0], _STRAY)
    if name is None:
        raise DocumentError(1, "missing algebra line")
    if n is None:
        raise DocumentError(1, "missing size line")
    return Document(name, Algebra(n, tuple(ops.values())),
                    {rname: BinRel(n, rows) for rname, rows in relations.items()})


def _op_table(lineno, tokens, data, end, n, ops, text_size):
    """The table of an op block, and the block's data lines past the table."""
    if n is None:
        raise DocumentError(lineno, "op must follow the size line")
    if len(tokens) < 3:
        raise DocumentError(lineno, "expected: op NAME ARITY")
    arity = _ints(tokens[2:3])
    if arity is None or arity[0] < 1:
        raise DocumentError(lineno, f"bad arity {tokens[2]!r}")
    arity = arity[0]
    # A table of n ** arity entries takes at least that many characters,
    # so an arity at or past the bit length of the text cannot fit;
    # refused before the power is taken.
    if n > 1 and arity >= text_size.bit_length():
        raise DocumentError(lineno, f"arity {arity} is too large: {n} ** {arity} table "
                                    "entries cannot fit in the document")
    if tokens[1] in ops:
        raise DocumentError(lineno, f"duplicate operation name {tokens[1]!r}")
    inline = _ints(tokens[3:])
    if inline is None:
        raise DocumentError(lineno, "table entries must be integers")
    want = n ** arity
    table: list[int] = []
    rows = [(lineno, inline), *data]
    for i, (at, row) in enumerate(rows, start=1):
        for v in row:
            if not 0 <= v < n:
                raise DocumentError(at, f"value {v} outside the universe of size {n}")
        table += row
        if len(table) > want:
            raise DocumentError(at, f"operation {tokens[1]!r} expects {want} entries, got more")
        if len(table) == want:
            return OperationTable(tokens[1], arity, tuple(table)), rows[i:]
    raise DocumentError(end, f"operation {tokens[1]!r} expects {want} entries, "
                             f"got {len(table)}")


def print_document(doc: Document) -> str:
    """Canonical text form, notes first as a comment; parse_document round-trips it."""
    n = doc.algebra.n
    lines = [f"# {doc.notes}"] if doc.notes else []
    lines += [f"algebra {doc.name}", f"size {n}"]
    for op in doc.algebra.ops:
        lines.append(f"op {op.name} {op.arity}")
        for start in range(0, len(op.table), n):
            lines.append(" ".join(str(v) for v in op.table[start:start + n]))
    lines += [_rel_block(rname, rel) for rname, rel in doc.relations.items()]
    return "\n".join(lines) + "\n"


def _rel_block(name: str, rel: BinRel) -> str:
    lines = [f"rel {name}"]
    for a, b in rel.pairs():
        if a != b:
            lines.append(f"{a} {b}")
    return "\n".join(lines)
