"""Shared hypothesis strategies and small oracles for the test suite."""

from hypothesis import strategies as st

from tolrep import Algebra, BinRel, OperationTable, compose, converse, subset
from tolrep.decide import WeakRepWitness, iter_admissible
from tolrep.terms import Compose, Intersect, Var


@st.composite
def binrels_on(draw, n: int, reflexive: bool = False, symmetric: bool = False):
    rows = [draw(st.integers(0, (1 << n) - 1)) for _ in range(n)]
    if reflexive:
        rows = [row | (1 << i) for i, row in enumerate(rows)]
    if symmetric:
        for a in range(n):
            for b in range(n):
                if rows[a] >> b & 1:
                    rows[b] |= 1 << a
    return BinRel(n, rows)


@st.composite
def binrels(draw, max_n: int = 5, **kwargs):
    n = draw(st.integers(1, max_n))
    return draw(binrels_on(n, **kwargs))


@st.composite
def rel_pairs(draw, max_n: int = 5, **kwargs):
    # two relations on the same universe
    n = draw(st.integers(1, max_n))
    return draw(binrels_on(n, **kwargs)), draw(binrels_on(n, **kwargs))


@st.composite
def rel_triples(draw, max_n: int = 4, **kwargs):
    n = draw(st.integers(1, max_n))
    return tuple(draw(binrels_on(n, **kwargs)) for _ in range(3))


@st.composite
def algebras(draw, max_n: int = 4, max_ops: int = 2, max_arity: int = 2):
    n = draw(st.integers(1, max_n))
    ops = []
    for i in range(draw(st.integers(0, max_ops))):
        arity = draw(st.integers(1, max_arity))
        table = tuple(draw(st.integers(0, n - 1)) for _ in range(n**arity))
        ops.append(OperationTable(f"f{i}", arity, table))
    return Algebra(n, tuple(ops))


@st.composite
def algebra_with_rel(draw, max_n: int = 4, **rel_kwargs):
    alg = draw(algebras(max_n=max_n))
    rel = draw(binrels_on(alg.n, **rel_kwargs))
    return alg, rel


var_names = st.sampled_from(["w", "x", "y", "z"])

terms = st.recursive(
    st.builds(Var, var_names),
    lambda inner: st.builds(Compose, inner, inner) | st.builds(Intersect, inner, inner),
    max_leaves=6,
)


def compose_oracle(r: BinRel, s: BinRel) -> set:
    """Composition by definition, pair by pair."""
    left = set(r.pairs())
    right = set(s.pairs())
    return {(a, b) for a, c in left for c2, b in right if c == c2}


def eval_oracle(term, env_sets: dict) -> set:
    """Term evaluation over plain pair sets."""
    if isinstance(term, Var):
        return env_sets[term.name]
    left = eval_oracle(term.left, env_sets)
    right = eval_oracle(term.right, env_sets)
    if isinstance(term, Compose):
        return {(a, b) for a, c in left for c2, b in right if c == c2}
    return left & right


def weak_representation_oracle(algebra: Algebra, theta: BinRel):
    """Weak representability by listing every admissible relation first.

    Keeps, for each ordered pair outside theta, the first admissible R in
    enumeration order whose composite R∘R⁻ contains theta but not the pair.
    Independent of the covering search; only usable on small algebras.
    """
    n = algebra.n
    usable = []
    for rel in iter_admissible(algebra):
        composite = compose(rel, converse(rel))
        if subset(theta, composite):
            usable.append((rel, composite))
    separators = {}
    for a in range(n):
        for b in range(n):
            if a == b or theta.rows[a] >> b & 1:
                continue
            for rel, composite in usable:
                if not composite.rows[a] >> b & 1:
                    separators[(a, b)] = rel
                    break
            else:
                return None
    return WeakRepWitness(separators)
