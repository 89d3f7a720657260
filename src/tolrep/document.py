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
from .relations import BinRel

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
            if not all(rel.rows[a] >> a & 1 for a in range(rel.n)):
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


def parse_document(text: str) -> Document:
    """Parse the document format; all failures carry the offending line."""
    name = None
    n = None
    ops: list[OperationTable] = []
    pending: dict | None = None
    relations: dict[str, list[int]] = {}
    current_rel: str | None = None

    def fail(lineno, message):
        raise DocumentError(lineno, message)

    def take(lineno, values):
        """Add table entries to the pending operation; finish it when full."""
        nonlocal pending
        for v in values:
            if not (0 <= v < n):
                fail(lineno, f"value {v} outside the universe of size {n}")
        pending["values"].extend(values)
        if len(pending["values"]) > pending["want"]:
            fail(lineno, f"operation {pending['name']!r} expects "
                         f"{pending['want']} entries, got more")
        if len(pending["values"]) == pending["want"]:
            ops.append(OperationTable(pending["name"], pending["arity"],
                                      tuple(pending["values"])))
            pending = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        values = _ints(tokens)
        if values is not None:
            if pending is not None:
                take(lineno, values)
                continue
            if current_rel is not None:
                if len(values) != 2:
                    fail(lineno, "expected a pair of two integers")
                a, b = values
                if not (0 <= a < n and 0 <= b < n):
                    fail(lineno, f"pair ({a}, {b}) outside the universe of size {n}")
                relations[current_rel][a] |= 1 << b
                continue
            fail(lineno, "values outside an op or rel block")
        keyword = tokens[0]
        if pending is not None:
            fail(lineno, f"operation {pending['name']!r} expects {pending['want']} "
                         f"entries, got {len(pending['values'])}")
        current_rel = None
        if keyword == "algebra":
            if name is not None:
                fail(lineno, "duplicate algebra line")
            if len(tokens) != 2:
                fail(lineno, "expected: algebra NAME")
            name = tokens[1]
        elif keyword == "size":
            if name is None:
                fail(lineno, "size must follow the algebra line")
            if n is not None:
                fail(lineno, "duplicate size line")
            got = _ints(tokens[1:])
            if len(tokens) != 2 or got is None or got[0] <= 0:
                fail(lineno, "expected: size N with N positive")
            if got[0] > MAX_SIZE:
                fail(lineno, f"size {got[0]} exceeds the largest supported universe, {MAX_SIZE}")
            n = got[0]
        elif keyword == "op":
            if n is None:
                fail(lineno, "op must follow the size line")
            if len(tokens) < 3:
                fail(lineno, "expected: op NAME ARITY")
            arity = _ints(tokens[2:3])
            if arity is None or arity[0] < 1:
                fail(lineno, f"bad arity {tokens[2]!r}")
            # A table of n ** arity entries takes at least that many
            # characters, so an arity at or past the bit length of the
            # text cannot fit; refused before the power is taken.
            if n > 1 and arity[0] >= len(text).bit_length():
                fail(lineno, f"arity {arity[0]} is too large: {n} ** {arity[0]} table "
                             "entries cannot fit in the document")
            if any(op.name == tokens[1] for op in ops):  # earlier tables are complete
                fail(lineno, f"duplicate operation name {tokens[1]!r}")
            pending = {"name": tokens[1], "arity": arity[0],
                       "want": n ** arity[0], "values": []}
            inline = _ints(tokens[3:])
            if inline is None:
                fail(lineno, "table entries must be integers")
            take(lineno, inline)
        elif keyword == "rel":
            if n is None:
                fail(lineno, "rel must follow the size line")
            if len(tokens) != 2:
                fail(lineno, "expected: rel NAME")
            if tokens[1] in relations:
                fail(lineno, f"duplicate relation name {tokens[1]!r}")
            relations[tokens[1]] = [1 << a for a in range(n)]
            current_rel = tokens[1]
        else:
            fail(lineno, f"unknown keyword {keyword!r}")
    if pending is not None:
        fail(len(text.splitlines()) + 1,
             f"operation {pending['name']!r} expects {pending['want']} entries, "
             f"got {len(pending['values'])}")
    if name is None:
        fail(1, "missing algebra line")
    if n is None:
        fail(1, "missing size line")
    return Document(name, Algebra(n, tuple(ops)),
                    {rname: BinRel(n, rows) for rname, rows in relations.items()})


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
