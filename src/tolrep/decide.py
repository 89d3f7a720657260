"""Decision procedures for tolerance representability.

A tolerance theta of a finite algebra is representable when some reflexive
compatible R satisfies theta = R∘R⁻, and weakly representable when theta
is an intersection of such composites.  Both questions are decided exactly
here, by one covering search, alongside the enumerations of admissible
relations, tolerances and congruences and a congruence permutability check.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .algebras import Algebra, _grow, _reflexive_symmetric, _require_tolerance, is_compatible
from .errors import BudgetExceeded
from .relations import BinRel, _shape_flags, compose, converse, intersect, subset

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_REL_BUDGET",
    "RepWitness",
    "WeakRepWitness",
    "PermutabilityReport",
    "AdmissibleEnumeration",
    "find_representation",
    "exhaustive_representation",
    "verify_representation",
    "represent_via_order",
    "iter_admissible",
    "enumerate_admissible",
    "find_weak_representation",
    "verify_weak_representation",
    "enumerate_tolerances",
    "enumerate_congruences",
    "tolerance_join",
    "check_permutability",
]

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_REL_BUDGET = 10**5


class RepWitness(NamedTuple):
    """A reflexive compatible R whose composite with its converse is theta."""

    rel: BinRel


class WeakRepWitness(NamedTuple):
    """One separator per ordered pair outside theta.

    Each separator R is reflexive and compatible with theta inside R∘R⁻
    and the keyed pair outside it, so the intersection of the composites
    over the whole family is exactly theta.
    """

    separators: dict[tuple[int, int], BinRel]


class PermutabilityReport(NamedTuple):
    permutable: bool
    congruence_count: int
    counterexample: Optional[tuple[BinRel, BinRel, tuple[int, int]]] = None


def _composite(algebra: Algebra, rel: BinRel) -> Optional[BinRel]:
    """R∘R⁻ when rel is a reflexive compatible relation on the algebra's universe, else None."""
    if rel.n != algebra.n:
        return None
    reflexive, _ = _shape_flags(rel)
    return compose(rel, converse(rel)) if reflexive and is_compatible(algebra, rel) else None


def _budget(limit: int, what: str):
    """A countdown that raises BudgetExceeded once limit relations are spent."""
    if limit < 0:
        raise ValueError(f"{what} budget must not be negative, got {limit}")
    left = limit

    def spend():
        nonlocal left
        if left <= 0:
            raise BudgetExceeded(f"{what} budget of {limit} exhausted")
        left -= 1

    return spend


def _cover_search(algebra: Algebra, cover: list, outside: list, spend) -> Optional[BinRel]:
    """A reflexive compatible R whose rows meet for every cover pair and no forbidden pair.

    cover lists a symmetric relation's pairs (a, b) with a < b, row-major,
    so a caller that runs many searches on one cover lists it once.
    outside[x] is the mask of the y with (x, y) forbidden; the forbidden
    set must be irreflexive and symmetric, as the complement of R∘R⁻ is.
    (a, b) is in R∘R⁻ exactly when rows a and b of R meet; that is the one
    R∘R⁻ test here, so R∘R⁻ holds every cover pair and no forbidden one.
    The root is the diagonal, which every operation preserves, and each
    state is kept compatibility-closed.  A cover pair is uncovered while
    its rows are apart; a branch adds (a, c) and (b, c) for one candidate
    c and grows the closure.

    Each state carries forb: forb[x] is the union of the rows R[y] over the
    y in outside[x], so the root's forb is outside itself.  A child copies
    its parent's forb and updates it only from the rows it changed: for
    each changed row y and each x in outside[y], rows x and y must not
    meet, else the child is rejected, and row y is ORed into forb[x].  A
    kept child thus has no forbidden pair in R∘R⁻, given that its parent
    has none (the root has none, as the forbidden set is irreflexive), and
    so has no forbidden pair in R itself, since S ⊆ S∘S⁻ for a reflexive S.

    The viable candidates of an uncovered (a, b) are the points outside
    forb[a] | forb[b].  They avoid outside[a] | outside[b], since forb
    only grows from the root's.  This is sound: any solution S ⊇ R covers
    (a, b) through some c with (a, c) and (b, c) in S; if c were in
    forb[a], then c ∈ R[y] ⊆ S[y] for a y in outside[a], so rows a and y
    of S would meet (likewise for b).  A state with an uncovered pair that
    has no viable candidate is dead: it has no child.
    Otherwise the search branches fail-first, on the uncovered pair with
    the fewest viable candidates; ties go by index, to the least a and then
    the least b, and the scan stops at a pair with one viable candidate.
    Any solution above a state contains one of its children, so exhausting
    the tree proves no R exists.

    A cover pair may also be forbidden; then no R exists.  spend() is
    called once per relation built.  Each frame holds its pair's viable
    candidates as a mask; the loop takes and clears its lowest bit and
    writes the rest back into the frame before descending, so candidates
    are tried in ascending index order and the result is canonical.
    """
    n = algebra.n
    full = (1 << n) - 1

    def frame(rel, forb):
        """[rel, forb, a, b, candidates] for the fail-first uncovered pair.

        candidates is the viable-candidate mask.  None when rel covers
        every cover pair; a dead state gets a frame with no candidates.
        """
        rows = rel.rows
        best = None
        least = n + 1
        for a, b in cover:
            if not rows[a] & rows[b]:
                viable = full & ~(forb[a] | forb[b])
                count = viable.bit_count()
                if count < least:
                    best, least = [rel, forb, a, b, viable], count
                    if count <= 1:
                        break
        return best

    def checked(old, rows, forb):
        """forb updated from the rows that changed, or None when one meets a row it may not."""
        forb = forb.copy()
        for y, (row, was) in enumerate(zip(rows, old)):
            if row != was:
                m = outside[y]
                while m:
                    low = m & -m
                    x = low.bit_length() - 1
                    if rows[x] & row:
                        return None
                    forb[x] |= row
                    m ^= low
        return forb

    # Depth-first, with one frame per level: the depth is bounded only by
    # the number of cover pairs.
    root = BinRel.diagonal(n)
    top = frame(root, outside)
    if top is None:
        return root
    stack = [top]
    while stack:
        top = stack[-1]
        rel, forb, a, b, rest = top
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            spend()
            child = _grow(algebra, rel, ((a, c), (b, c)))
            child_forb = checked(rel.rows, child.rows, forb)
            if child_forb is not None:
                top[4] = rest
                below = frame(child, child_forb)
                if below is None:
                    return child
                stack.append(below)
                break
        else:
            stack.pop()
    return None


def _upper_pairs(rows) -> list[tuple[int, int]]:
    """The pairs (a, b), a < b, set in rows, row-major: the bits of each row a above a."""
    pairs = []
    for a, row in enumerate(rows):
        row &= -2 << a
        while row:
            low = row & -row
            pairs.append((a, low.bit_length() - 1))
            row ^= low
    return pairs


def _certified(algebra: Algebra, theta: BinRel, search):
    """search()'s result, raising as _require_tolerance does unless theta is a tolerance.

    The searches assume theta has the algebra's size and is reflexive and
    symmetric, so _reflexive_symmetric tests those first.  A witness proves
    the rest, so the compatibility check is left to _require_tolerance,
    which runs only when search() finds no witness or raises
    BudgetExceeded (checked before re-raising).  A non-tolerance thus
    always gets the same error.
    """
    if not _reflexive_symmetric(algebra, theta):
        _require_tolerance(algebra, theta)  # always raises here
    try:
        found = search()
    except BudgetExceeded:
        _require_tolerance(algebra, theta)
        raise
    if found is None:
        _require_tolerance(algebra, theta)
    return found


def find_representation(
    algebra: Algebra, theta: BinRel, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[RepWitness]:
    """Search for a reflexive compatible R with R∘R⁻ equal to theta.

    This is the covering search with theta as the cover and everything
    outside theta forbidden: every theta pair must land in R∘R⁻ and
    nothing else may.  Any such R sits inside theta, since reflexivity
    puts R inside R∘R⁻.  Exceeding node_budget (relations built) raises
    BudgetExceeded rather than guessing.  The returned witness is
    canonical.

    A witness proves theta is a tolerance, so the full check runs only
    when none is found (see _certified): every R the search returns is a
    _grow closure of the diagonal, so reflexive and compatible; R∘R⁻ of
    such an R is reflexive, symmetric and compatible; and R is returned
    only when R∘R⁻ = theta.  A negative node_budget is reported before
    anything about theta.
    """
    spend = _budget(node_budget, "node")
    cover = _upper_pairs(theta.rows)
    full = (1 << theta.n) - 1
    outside = [full ^ row for row in theta.rows]
    found = _certified(algebra, theta, lambda: _cover_search(algebra, cover, outside, spend))
    return RepWitness(found) if found is not None else None


def exhaustive_representation(algebra: Algebra, theta: BinRel) -> Optional[RepWitness]:
    """Brute-force cross-check: try every reflexive subset of theta.

    Independent of find_representation on purpose; no closure, no pruning,
    just direct compatibility and composite tests over all 2**k subsets of
    the k off-diagonal theta pairs.  Only usable for small k.
    """
    _require_tolerance(algebra, theta)
    n = algebra.n
    offdiag = [(a, b) for a, b in theta.pairs() if a != b]
    k = len(offdiag)
    if k > 24:
        raise BudgetExceeded(f"{k} off-diagonal pairs is past the brute-force range")
    diag_rows = [1 << a for a in range(n)]
    for mask in range(1 << k):
        rows = diag_rows.copy()
        m = mask
        while m:
            low = m & -m
            a, b = offdiag[low.bit_length() - 1]
            rows[a] |= 1 << b
            m ^= low
        rel = BinRel(n, rows)
        if _composite(algebra, rel) == theta:
            return RepWitness(rel)
    return None


def verify_representation(algebra: Algebra, theta: BinRel, rel: BinRel) -> bool:
    """Re-check a claimed witness from scratch."""
    return _composite(algebra, rel) == theta


def represent_via_order(algebra: Algebra, join: str, meet: str, theta: BinRel) -> RepWitness:
    """Witness theta = R∘R⁻ with R = theta ∩ ≤ for a compatible semilattice order.

    Requires join to be a semilattice operation (idempotent, commutative,
    associative), the two absorption identities meet(a, join(a, b)) = a and
    meet(join(a, b), b) = b, a compatible induced order x ≤ y iff
    join(x, y) = y, and theta to be a tolerance.  Every precondition is
    checked exhaustively and the composite identity of the returned witness
    is verified rather than assumed.
    """
    n = algebra.n
    jt = algebra.op(join)
    mt = algebra.op(meet)
    if jt.arity != 2 or mt.arity != 2:
        raise ValueError("join and meet must be binary operations")

    def j(x, y):
        return jt.table[x * n + y]

    def mee(x, y):
        return mt.table[x * n + y]

    for a in range(n):
        if j(a, a) != a:
            raise ValueError(f"join not idempotent: join({a}, {a}) = {j(a, a)}")
    for a in range(n):
        for b in range(n):
            if j(a, b) != j(b, a):
                raise ValueError(f"join not commutative: join({a}, {b}) = {j(a, b)} "
                                 f"but join({b}, {a}) = {j(b, a)}")
            if mee(a, j(a, b)) != a:
                raise ValueError(f"absorption meet(a, join(a, b)) = a fails at ({a}, {b})")
            if mee(j(a, b), b) != b:
                raise ValueError(f"absorption meet(join(a, b), b) = b fails at ({a}, {b})")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if j(j(a, b), c) != j(a, j(b, c)):
                    raise ValueError(f"join not associative at ({a}, {b}, {c})")
    leq = BinRel(n, tuple(
        sum(1 << b for b in range(n) if j(a, b) == b) for a in range(n)
    ))
    if not is_compatible(algebra, leq):
        raise ValueError("the semilattice order induced by join is not compatible")
    _require_tolerance(algebra, theta)
    rel = intersect(theta, leq)
    if _composite(algebra, rel) != theta:
        # unreachable when the preconditions above hold
        raise ValueError("theta ∩ ≤ failed to reproduce theta; preconditions violated")
    return RepWitness(rel)


def iter_admissible(algebra: Algebra) -> Iterator[BinRel]:
    """All reflexive compatible relations, breadth-first from the diagonal.

    _join_closure over every off-diagonal pair, each join re-closing the
    relation plus that pair.  Each relation is joined only with the
    principals after the one that first produced it; the joins skipped
    would only rebuild listed relations, so the order is still that of a
    breadth-first search over one-pair extensions which tries the pairs in
    order of decreasing principal size, ties row-major.  Deterministic
    order, no duplicates.
    """
    n = algebra.n
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return _join_closure(BinRel.diagonal(n), pairs, lambda r, pair: _grow(algebra, r, (pair,)))


class AdmissibleEnumeration(NamedTuple):
    relations: tuple[BinRel, ...]
    truncated: bool


def enumerate_admissible(algebra: Algebra, limit: int = DEFAULT_REL_BUDGET) -> AdmissibleEnumeration:
    """First `limit` admissible relations plus a flag saying whether more exist.

    The relations come in iter_admissible's order: the diagonal, then the
    principal relations from largest to smallest, then their joins
    breadth-first.
    """
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    it = iter_admissible(algebra)
    rels = tuple(islice(it, limit))
    truncated = next(it, None) is not None
    return AdmissibleEnumeration(rels, truncated)


def find_weak_representation(
    algebra: Algebra, theta: BinRel, rel_budget: int = DEFAULT_REL_BUDGET
) -> Optional[WeakRepWitness]:
    """Express theta as an intersection of composites R∘R⁻, if possible.

    Every factor of such an intersection contains theta, so a family keyed
    by excluded pairs suffices: for each ordered (a, b) outside theta, one
    admissible R with theta inside R∘R⁻ and (a, b) outside it.  R∘R⁻ is
    symmetric, so one covering search per unordered pair {a, b} finds it,
    with theta as the cover and only (a, b) and (b, a) forbidden; its R is
    stored under both orders.  A separator already found serves {a, b}
    without a search when its rows a and b do not meet, as then (a, b) is
    outside its R∘R⁻, which holds theta (see _separators).
    theta is weakly representable exactly when every pair gets a
    separator: a search fails only when no admissible R separates its
    pair.  One rel_budget is shared by all the searches and counts every
    relation they build; exceeding it raises BudgetExceeded.

    A family proves theta is a tolerance, so the full check runs only when
    none is found (see _certified): each separator R is a _grow closure of
    the diagonal, so reflexive and compatible, and R∘R⁻ is then a
    tolerance; each composite contains theta and misses its keyed pair,
    so together they meet in exactly theta, and an intersection of
    tolerances is a tolerance (the empty family meets in the full
    relation).  A negative rel_budget is reported before anything about
    theta.
    """
    spend = _budget(rel_budget, "relation")
    return _certified(algebra, theta, lambda: _separators(algebra, theta, spend))


def _separators(algebra: Algebra, theta: BinRel, spend) -> Optional[WeakRepWitness]:
    """find_weak_representation's search, on a reflexive symmetric theta.

    The excluded pairs {a, b}, a < b, are listed row-major from theta's
    complement rows, and each gets a separator in that order.  Before
    searching for {a, b}, the separators already found are tried in the
    order found, and the first whose rows a and b do not meet serves
    {a, b} too: its R has theta inside R∘R⁻, and (a, b) is in R∘R⁻
    exactly when rows a and b of R meet.  Only when none serves does a
    search run, forbidding (a, b) and (b, a) alone, and its R joins the
    list.  The family's keys are the ordered pairs, row-major.
    """
    n = algebra.n
    full = (1 << n) - 1
    cover = _upper_pairs(theta.rows)
    family = {}
    built = []
    for a, b in _upper_pairs([full ^ row for row in theta.rows]):
        for sep in built:
            if not sep.rows[a] & sep.rows[b]:
                break
        else:
            outside = [0] * n
            outside[a], outside[b] = 1 << b, 1 << a
            sep = _cover_search(algebra, cover, outside, spend)
            if sep is None:
                return None
            built.append(sep)
        family[a, b] = family[b, a] = sep
    return WeakRepWitness(dict(sorted(family.items())))


def verify_weak_representation(algebra: Algebra, theta: BinRel, witness: WeakRepWitness) -> bool:
    """Re-check a claimed separator family from scratch."""
    n = algebra.n
    if theta.n != n:
        return False
    excluded = {(a, b) for a in range(n) for b in range(n)
                if a != b and not theta.rows[a] >> b & 1}
    if set(witness.separators) != excluded:
        return False
    meet_rows = [(1 << n) - 1] * n
    for (a, b), rel in witness.separators.items():
        composite = _composite(algebra, rel)
        if composite is None or not subset(theta, composite) or composite.rows[a] >> b & 1:
            return False
        meet_rows = [x & y for x, y in zip(meet_rows, composite.rows)]
    return BinRel(n, meet_rows) == theta


def _join_closure(bottom, pairs, join) -> Iterator[BinRel]:
    """The lattice generated by the principal members, breadth-first from bottom.

    join(rel, pair) returns the least member holding rel and pair, so the
    principal member of a pair is its join with bottom.  The distinct
    principals p_0, p_1, ... are listed largest first, by pair count, with
    ties in the order of their first pairs.  Yields bottom, then each
    principal in that list order, then each new join of an earlier item
    with a principal's first pair, as soon as it is found.  Members are
    told apart by their row tuples.  Every member is the join of the
    principals inside it, so joining each item with the principals whose
    pair it lacks reaches the whole lattice.  A pair whose principal
    repeats an earlier one is absent from an item exactly when the earlier
    pair is, so skipping it changes nothing.

    Each item also keeps the index i of the principal whose join first
    produced it (p_i itself gets i), and is joined only with the p_j with
    j > i.  A skipped join would find nothing new: when X is processed,
    join(X, p_j) is already in seen for every j < i, so skipping it changes
    neither what is yielded nor seen.  By induction along the list, let X
    be first found as join(Y, p_i), Y being bottom for a principal, and
    take j < i with p_j not in X, so not in Y either.  Then
    Z = join(Y, p_j) comes before X: it is p_j when Y is bottom; it was
    found no later than step (Y, j), which comes before (Y, i), when j is
    past Y's index; and it was in seen before Y was processed, by this
    claim for Y, when j is below it.  So Z was processed before X, and
    processing Z with p_i did one of three things.  It computed
    join(Z, p_i), which equals join(X, p_j); or it skipped that join by
    this same rule, so by the claim for Z the result was already in seen;
    or it found p_i in Z, and then join(X, p_j) = Z.  This needs only that
    join is the lattice join, commutative and associative, which holds for
    admissible relations, tolerances and congruences alike, and it uses
    only the list order of the principals (largest first, ties in pair
    order).  That order wastes few joins: each of the 17 423 joins behind
    chain(6)'s 17 424 admissible relations finds a new one, against
    36 424 joins in pair order.

    An item's kernel codes serve only its joins, so they are dropped once
    it has been joined with its later principals; _pair_codes reads them
    back off the rows if asked.
    """
    principals = {}  # rows -> (relation, first pair)
    for pair in pairs:
        rel = join(bottom, pair)
        principals.setdefault(rel.rows, (rel, pair))
    ordered = sorted(principals.values(), key=lambda p: -p[0].pair_count())
    firsts = [pair for _, pair in ordered]
    items = deque((rel, i) for i, (rel, _) in enumerate(ordered))
    seen = {bottom.rows, *principals}
    yield bottom
    yield from (rel for rel, _ in items)
    while items:  # also visits the items added below
        item, i = items.popleft()
        rows = item.rows
        for j in range(i + 1, len(firsts)):
            pair = firsts[j]
            if not rows[pair[0]] >> pair[1] & 1:
                rel = join(item, pair)
                if rel.rows not in seen:
                    seen.add(rel.rows)
                    items.append((rel, j))
                    yield rel
        item._codes = None


def _lattice(members: Iterator[BinRel], limit: int, what: str) -> list[BinRel]:
    """All members sorted by pair count then rows; BudgetExceeded past limit."""
    if limit < 0:
        raise ValueError(f"{what} limit must not be negative, got {limit}")
    items = list(islice(members, limit + 1))
    if len(items) > limit:
        raise BudgetExceeded(f"{what} count passed the budget of {limit}")
    return sorted(items, key=lambda r: (r.pair_count(), r.rows))


def enumerate_tolerances(algebra: Algebra, limit: int = DEFAULT_REL_BUDGET) -> list[BinRel]:
    """All tolerances: _join_closure over the pairs a < b, each joined with its converse."""
    n = algebra.n
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    members = _join_closure(BinRel.diagonal(n), pairs,
                            lambda r, pair: _grow(algebra, r, (pair, pair[::-1])))
    return _lattice(members, limit, "tolerance")


def _congruence_close(rel: BinRel, extra: BinRel) -> BinRel:
    """The least congruence holding rel and extra, by merging rel's classes.

    rel must be an equivalence, so each of its rows is its point's class,
    and extra must be reflexive and symmetric.  rows starts as rel's rows.
    For each point a whose row extra[a] is not inside rows[a], the classes
    that extra[a] meets are ORed into one mask, which becomes the row of
    every point in it.  No compatibility closure runs.

    (a) rows is always a partition into classes, each point's row its
    class: a merge replaces whole classes by their union.  Processing a
    puts extra[a] inside a's class, and classes only grow, so it stays
    there, as does every pair of rel.  The result is thus an equivalence
    holding rel ∪ extra.
    (b) Every merge is forced: let E be any equivalence holding rel and
    extra.  Each class of rel lies in one class of E.  If every class in
    rows does before a merge, each class that extra[a] meets holds an x
    with (a, x) in extra, so lies in E's class of x, which is E's class of
    a; so the merged class lies in it too.  This holds also when a class
    met is itself the result of an earlier merge, since the claim covers
    every class at every step.  So each class of the result lies in a
    class of E, and the result is the least equivalence holding rel ∪
    extra, which is the transitive closure of that reflexive symmetric
    relation.
    (c) That transitive closure is compatible in the two cases used here,
    so the result is the least congruence holding both.  For the diagonal
    and a closed tolerance T, it is the union of the chain
    T ⊆ T² ⊆ ..., and each T^k is compatible, as a composite of compatible
    relations is.  For two congruences α and β, it is the union of the
    chain (α∘β)^k.
    """
    n = rel.n
    rows = list(rel.rows)
    for a, row in enumerate(extra.rows):
        merged = rows[a]
        row &= ~merged
        if row:
            while row:
                merged |= rows[(row & -row).bit_length() - 1]
                row &= ~merged
            m = merged
            while m:
                low = m & -m
                rows[low.bit_length() - 1] = merged
                m ^= low
    return BinRel._trusted(n, tuple(rows))


def enumerate_congruences(algebra: Algebra, limit: int = DEFAULT_REL_BUDGET) -> list[BinRel]:
    """All congruences: _join_closure over the pairs a < b with principals Cg(a, b).

    Cg(a, b) closes the diagonal's classes over the principal tolerance of
    (a, b), and the join of two congruences merges the classes of one
    over the other (see _congruence_close).
    """
    n = algebra.n
    diag = BinRel.diagonal(n)
    cg = {(a, b): _congruence_close(diag, _grow(algebra, diag, ((a, b), (b, a))))
          for a in range(n) for b in range(a + 1, n)}
    members = _join_closure(diag, cg, lambda r, pair: _congruence_close(r, cg[pair]))
    return _lattice(members, limit, "congruence")


def tolerance_join(algebra: Algebra, alpha: BinRel, beta: BinRel) -> BinRel:
    """Smallest tolerance containing both (their union re-closed)."""
    _require_tolerance(algebra, alpha)
    _require_tolerance(algebra, beta)
    return _grow(algebra, alpha, beta.pairs())


def check_permutability(algebra: Algebra, limit: int = DEFAULT_REL_BUDGET) -> PermutabilityReport:
    """Do all congruence pairs satisfy α∘β = β∘α?

    Scans ordered pairs in enumeration order and reports the first
    violation as (α, β, pair) with the pair in α∘β but not β∘α, along
    with the number of congruences.  A pair (α, β) with β listed first
    was already scanned as (β, α) and found to permute, so each row scans
    only the congruences after α and every composite is built once.
    """
    congruences = enumerate_congruences(algebra, limit)
    for i, alpha in enumerate(congruences):
        for beta in congruences[i + 1:]:
            ab = compose(alpha, beta)
            ba = compose(beta, alpha)
            if ab == ba:
                continue
            # β∘α = (α∘β)⁻ has as many pairs as α∘β, so it misses one of them
            for a in range(algebra.n):
                extra = ab.rows[a] & ~ba.rows[a]
                if extra:
                    b = (extra & -extra).bit_length() - 1
                    return PermutabilityReport(False, len(congruences), (alpha, beta, (a, b)))
    return PermutabilityReport(True, len(congruences))
