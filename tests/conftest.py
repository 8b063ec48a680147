"""Shared fixtures and brute-force oracles.

The oracles share no arithmetic with the library they judge.  oracle_mul is
the group law by digit sums in pure Python (abelian groups) or by one lookup
in the Cayley table, never Group.mul or mul_array; oracle_character_value is
the pairing from those digits.  On them: norms by direct double loops over
character values, the pattern search over all ordered row triples (each
with its first matching column triple), and translates, stabilizers,
subgroup tests, canonical forms, the witness search, the progression and
closure checks and annihilators by loops over bits.  oracle_analyze_cosets keeps the coset analysis's first two-coset
rule, normality of the stabilizer in the whole span <T, a^-1 b>, and
oracle_cb_norm the first cb norm, one dense SVD of the whole multiplier
matrix.  oracle_gamma2 keeps the first form of gamma2's fixed-point step,
on separate row and column weights; it alone calls library helpers (the
proofs built at the closing step), because it judges the rewritten step's
iterates bit for bit, not the norm.  oracle_csv_lines keeps the first CSV
row writer, csv.writer over subset_elements and repr, which the one
f-string of sweep.csv_lines must match byte for byte; ELEMENT_TEXT_MASKS
are the masks on which the element texts are checked.  assert_same_text
compares whole reports without pytest's diff of the two texts.
"""

import csv
import functools
import io
import itertools
import math
import random
from collections import deque

import numpy as np
import pytest

from idemnorm import (
    builtin_group,
    load_cayley_group,
    make_abelian_group,
    subset_elements,
)
from idemnorm import schur


@pytest.fixture(scope="session")
def z4():
    return make_abelian_group([4])


@pytest.fixture(scope="session")
def z5():
    return make_abelian_group([5])


@pytest.fixture(scope="session")
def z6():
    return make_abelian_group([6])


@pytest.fixture(scope="session")
def z8():
    return make_abelian_group([8])


@pytest.fixture(scope="session")
def z2z4():
    return make_abelian_group([2, 4])


@pytest.fixture(scope="session")
def s3():
    return builtin_group("S3")


@pytest.fixture(scope="session")
def d4():
    return builtin_group("D4")


@pytest.fixture(scope="session")
def q8():
    return builtin_group("Q8")


def dihedral_group(m):
    """The dihedral group D_m of order 2m: r^i s^j has index i + m j, and
    s r = r^-1 s."""
    j, i = np.divmod(np.arange(2 * m), m)
    sign = np.where(j == 0, 1, -1)
    table = (i[:, None] + sign[:, None] * i) % m + m * (j[:, None] ^ j)
    return load_cayley_group(table, 0, name=f"D{m}")


def dicyclic_group(m):
    """The dicyclic group Dic_m of order 4m (Dic_2 = Q8): a^i x^j has index
    i + 2m j, with a^(2m) = e, x^2 = a^m and x a = a^-1 x."""
    j, i = np.divmod(np.arange(4 * m), 2 * m)
    sign = np.where(j == 0, 1, -1)
    turns = j[:, None] + j  # 2 when both factors hold an x: x^2 = a^m
    table = ((i[:, None] + sign[:, None] * i + m * (turns == 2)) % (2 * m)
             + 2 * m * (turns % 2))
    return load_cayley_group(table, 0, name=f"Dic{m}")


def cayley_table_group(spec):
    """The abelian group of a spec, loaded from its Cayley table, which
    oracle_mul fills: the table path, with cyclic layouts of k = 1 (Z12)
    or k = 3 (Z3xZ3) blocks."""
    group = make_abelian_group([int(f) for f in spec[1:].split("xZ")])
    n = group.order
    return load_cayley_group([[oracle_mul(group, a, b) for b in range(n)] for a in range(n)], 0,
                             name=f"cayley-{spec}")


def oracle_coords(group, a):
    """Mixed-radix coordinates of an abelian element, last coordinate fastest."""
    digits = []
    for f in reversed(group.factors):
        a, digit = divmod(a, f)
        digits.append(digit)
    return tuple(reversed(digits))


def oracle_mul(group, a, b):
    """a*b by coordinate sums (abelian groups) or a table lookup (otherwise)."""
    if not group.is_abelian:
        return _cayley_rows(group)[a][b]
    coords = _coord_rows(group)
    out = 0
    for f, x, y in zip(group.factors, coords[a], coords[b]):
        out = out * f + (x + y) % f
    return out


@functools.lru_cache(maxsize=None)
def _cayley_rows(group):
    return group.table.tolist()


@functools.lru_cache(maxsize=None)
def _coord_rows(group):
    return [oracle_coords(group, a) for a in range(group.order)]


@functools.lru_cache(maxsize=1 << 16)
def _pairing_numerator(group, x, s):
    n = group.order
    return sum(xj * sj * (n // fj) for xj, sj, fj in
               zip(oracle_coords(group, x), oracle_coords(group, s), group.factors)) % n


def oracle_character_value(group, x, s):
    """(x, s) = exp(2 pi i sum_j x_j s_j / f_j), one element pair at a time."""
    return complex(np.exp(2j * np.pi * _pairing_numerator(group, x, s) / group.order))


def oracle_annihilator(group, sub_mask):
    """Bitmask of the x with (x, s) = 1 for every s in the subgroup."""
    members = _oracle_elements(group, sub_mask)
    return sum(1 << x for x in range(group.order)
               if all(_pairing_numerator(group, x, s) == 0 for s in members))


def oracle_element_order(group, t):
    """Smallest k >= 1 with t^k = e."""
    return relative_order(group, t, {group.identity})


def oracle_mu(group, mask):
    """mu by direct summation of conjugated character values."""
    n = group.order
    members = subset_elements(mask)
    return np.array([sum(np.conj(oracle_character_value(group, x, s)) for s in members) / n
                     for x in range(n)], dtype=complex)


def oracle_bs_norm(group, mask, mu=None):
    """sum |mu|, with mu from oracle_mu unless it is given."""
    if mask == 0:
        return 0.0
    return float(np.abs(oracle_mu(group, mask) if mu is None else mu).sum())


FORBIDDEN = ((1, 1, 1), (1, 1, 0), (1, 0, 1))


def oracle_multiplier_matrix(group, mask):
    """M(s, t) = chi_S(s^-1 t), one scalar product per entry."""
    quotients = _quotient_rows(group)
    return np.array([[(mask >> x) & 1 for x in row] for row in quotients], dtype=float)


@functools.lru_cache(maxsize=None)
def _quotient_rows(group):
    """[s][t] = s^-1 t, with s^-1 found by search."""
    n = group.order
    inverse = [next(y for y in range(n) if oracle_mul(group, x, y) == group.identity)
               for x in range(n)]
    return tuple(tuple(oracle_mul(group, inverse[s], t) for t in range(n)) for s in range(n))


def oracle_cb_norm(group, mask):
    """||M||_S1 / |G| from one dense SVD of the whole n-by-n multiplier
    matrix: the cb multiplier norm of chi_S on a finite group."""
    matrix = oracle_multiplier_matrix(group, mask)
    return float(np.linalg.svd(matrix, compute_uv=False).sum()) / group.order


def oracle_pattern_search(group, mask):
    """First forbidden-pattern submatrix in (rows, cols) lexicographic order,
    by enumeration of all ordered row triples in order, on the oracle
    multiplier matrix.  For one row triple, the columns whose three entries
    equal column j of the pattern form a set C_j; the pattern's columns
    differ, so the C_j are disjoint, and the first column triple is
    (min C_1, min C_2, min C_3) when all three are nonempty.  Row triples
    are taken a few thousand at a time, as numpy arrays."""
    matrix = oracle_multiplier_matrix(group, mask).astype(bool)
    columns = np.array(FORBIDDEN, dtype=bool).T  # [j, k]: entry k of column j
    triples = itertools.permutations(range(group.order), 3)
    while chunk := list(itertools.islice(triples, 4096)):
        rows = matrix[np.array(chunk)]  # [p, k, c]: row k of triple p at column c
        match = (rows[:, None, :, :] == columns[None, :, :, None]).all(axis=2)  # [p, j, c]
        hit = match.any(axis=2).all(axis=1)
        if hit.any():
            p = int(np.argmax(hit))
            return chunk[p], tuple(int(np.argmax(match[p, j])) for j in range(3))
    return None


def all_subgroups(group):
    """Bitmasks of every subgroup, by filtering all subsets (small orders only)."""
    from idemnorm import is_subgroup

    return [m for m in range(1 << group.order) if is_subgroup(group, m)]


def _oracle_elements(group, mask):
    return [s for s in range(group.order) if (mask >> s) & 1]


def oracle_translate_left(group, t, mask):
    """Bitmask of t*S, one scalar product per element."""
    out = 0
    for s in _oracle_elements(group, mask):
        out |= 1 << oracle_mul(group, t, s)
    return out


def oracle_translate_right(group, mask, t):
    """Bitmask of S*t, one scalar product per element."""
    out = 0
    for s in _oracle_elements(group, mask):
        out |= 1 << oracle_mul(group, s, t)
    return out


def oracle_is_subgroup(group, mask):
    """Contains the identity and every product of two members."""
    if not (mask >> group.identity) & 1:
        return False
    members = _oracle_elements(group, mask)
    return all((mask >> oracle_mul(group, a, b)) & 1 for a in members for b in members)


@functools.lru_cache(maxsize=None)
def oracle_stabilizer(group, mask):
    """{t : S t = S and t S = S} by testing every t against every s, once a
    session for each group and mask: oracle_analyze_cosets asks again for
    the stabilizers that the layer tests have checked."""
    members = _oracle_elements(group, mask)
    out = 0
    for t in range(group.order):
        if (all((mask >> oracle_mul(group, s, t)) & 1 for s in members)
                and all((mask >> oracle_mul(group, t, s)) & 1 for s in members)):
            out |= 1 << t
    return out


def oracle_stabilizer_sides(group, mask):
    """(R, L) = ({u : S u = S}, {t : t S = S}) by testing every element
    against every member, each test stopping at its first miss."""
    members = _oracle_elements(group, mask)
    right = sum(1 << u for u in range(group.order)
                if all((mask >> oracle_mul(group, s, u)) & 1 for s in members))
    left = sum(1 << t for t in range(group.order)
               if all((mask >> oracle_mul(group, t, s)) & 1 for s in members))
    return right, left


def oracle_right_stabilizer(group, mask):
    """{u : S u = S}, one translate at a time."""
    return sum(1 << u for u in range(group.order) if oracle_translate_right(group, mask, u) == mask)


def oracle_orbit(group, mask):
    """Left translates (abelian) or two-sided translates t S u (otherwise),
    the right translates taken of each distinct left translate once."""
    lefts = {oracle_translate_left(group, t, mask) for t in range(group.order)}
    if group.is_abelian:
        return lefts
    return {oracle_translate_right(group, left, u) for left in lefts for u in range(group.order)}


def oracle_canonical_form(group, mask):
    return min(oracle_orbit(group, mask))


def oracle_class_count(group):
    """Translation classes of subsets by Burnside's lemma: the mean of
    2^(cycles) over the maps x -> t x (abelian) or x -> t x u (otherwise)."""
    n = group.order
    if group.is_abelian:
        maps = [[oracle_mul(group, t, x) for x in range(n)] for t in range(n)]
    else:
        maps = [[oracle_mul(group, oracle_mul(group, t, x), u) for x in range(n)]
                for t in range(n) for u in range(n)]
    total = 0
    for image in maps:
        seen = [False] * n
        cycles = 0
        for x in range(n):
            if not seen[x]:
                cycles += 1
                while not seen[x]:
                    seen[x] = True
                    x = image[x]
        total += 2 ** cycles
    assert total % len(maps) == 0
    return total // len(maps)


def _closure(group, gens):
    """Elements of the subgroup generated by gens, by scalar products."""
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = oracle_mul(group, x, g)
                if y not in members:
                    members.add(y)
                    fresh.append(y)
        frontier = fresh
    return members


def oracle_analyze_cosets(group, mask):
    """(kind, subgroup, rep_a, rep_b, q) as analyze_cosets reports them, by
    the rule as first written: S is two cosets of its stabilizer T when
    |S| = 2|T|, S minus a T has |T| elements, T is normal in the whole span
    <T, a^-1 b> (built by _closure and conjugated element by element) and
    the relative order q is at least 3."""
    def inv(x):
        return next(y for y in range(group.order) if oracle_mul(group, x, y) == group.identity)

    if mask == 0:
        return ("empty", None, None, None, None)
    a = _oracle_elements(group, mask)[0]
    if not group.is_abelian:
        h = oracle_translate_left(group, inv(a), mask)
        if oracle_is_subgroup(group, h):
            return ("coset", h, a, None, None)
    stab = oracle_stabilizer(group, mask)
    subs = _oracle_elements(group, stab)
    size = len(_oracle_elements(group, mask))
    if size == len(subs):
        return ("coset", stab, a, None, None)
    if size == 2 * len(subs):
        rest = _oracle_elements(group, mask & ~oracle_translate_left(group, a, stab))
        if len(rest) == len(subs):
            b = rest[0]
            c = oracle_mul(group, inv(a), b)
            span = _closure(group, subs + [c])
            if all((stab >> oracle_mul(group, oracle_mul(group, x, t), inv(x))) & 1
                   for x in span for t in subs):
                q = relative_order(group, c, set(subs))
                if q >= 3:
                    return ("two_cosets", stab, a, b, q)
    return ("other", stab, None, None, None)


def random_subgroup(group, rng, size):
    """A subgroup with `size` elements (a power of two), spanned by random
    elements: at least two, and up to log(size) / log(largest factor), the
    number that Z2^k and Z4^k need."""
    gens_needed = 2
    if group.factors:
        per_gen = max(group.factors).bit_length() - 1
        gens_needed = max(2, -(-(size.bit_length() - 1) // per_gen))
    while True:
        gens = [rng.randrange(group.order) for _ in range(rng.randint(1, gens_needed))]
        sub = _closure(group, gens)
        if len(sub) == size:
            return sub


def relative_order(group, c, sub):
    """Smallest q >= 1 with c^q in the subgroup."""
    q, x = 1, c
    while x not in sub:
        x = oracle_mul(group, x, c)
        q += 1
    return q


def planted_subsets(group, seed, coset_size, union_size, random_size):
    """Seeded (kind, q, mask) inputs: a coset of a subgroup of order
    coset_size, unions of two cosets of a subgroup of order union_size with
    relative order q in {4, 8} (each q that is at most the largest cyclic
    factor), and a random set of random_size elements.  Raises ValueError
    when no element has relative order q over the drawn subgroup."""
    rng = random.Random(seed)
    out = []
    sub = random_subgroup(group, rng, coset_size)
    a = rng.randrange(group.order)
    out.append(("coset", None, sum(1 << oracle_mul(group, a, h) for h in sub)))
    for q in (4, 8):
        if q <= max(group.factors):
            sub = random_subgroup(group, rng, union_size)
            if not any(relative_order(group, c, sub) == q for c in range(group.order)):
                raise ValueError(f"no element of {group.name} has relative order {q} "
                                 f"over the drawn subgroup of order {union_size}")
            while True:
                c = rng.randrange(group.order)
                if relative_order(group, c, sub) == q:
                    break
            a = rng.randrange(group.order)
            b = oracle_mul(group, a, c)
            out.append(("two_cosets", q, sum(1 << oracle_mul(group, r, h)
                                               for r in (a, b) for h in sub)))
    members = rng.sample(range(group.order), random_size)
    out.append(("other", None, sum(1 << x for x in members)))
    return out


def burnside_abelian(group):
    """(1/n) sum_g 2^(n / ord g) for an abelian group."""
    n = group.order
    total = sum(2 ** (n // oracle_element_order(group, g)) for g in range(n))
    assert total % n == 0
    return total // n


def oracle_find_witness(group, mask):
    """First (u, v, w) in lexicographic order with u, v, u+w in S and v+w,
    v-w outside S, by a triple loop over scalar products."""
    members = _oracle_elements(group, mask)
    for u in members:
        for v in members:
            for w in range(group.order):
                if ((mask >> oracle_mul(group, u, w)) & 1
                        and not (mask >> oracle_mul(group, v, w)) & 1
                        and not (mask >> oracle_mul(group, v, group.inv(w))) & 1):
                    return u, v, w
    return None


def oracle_progression_check(group, mask):
    """Violations of the progression property by walking each progression
    s t^n (and t^n s) one scalar product at a time, as (side, s, t, n)
    tuples with n the smallest failing power, sorted."""
    violations = []
    members = _oracle_elements(group, mask)
    sides = ("right",) if group.is_abelian else ("right", "left")
    for side in sides:
        for s in members:
            for t in range(group.order):
                first = oracle_mul(group, s, t) if side == "right" else oracle_mul(group, t, s)
                if not (mask >> first) & 1:
                    continue
                power = group.identity
                for n in range(2, oracle_element_order(group, t)):
                    power = oracle_mul(group, power, t)  # power = t^(n-1)
                    point = (oracle_mul(group, s, oracle_mul(group, power, t)) if side == "right"
                             else oracle_mul(group, oracle_mul(group, t, power), s))
                    if not (mask >> point) & 1:
                        violations.append((side, s, t, n))
                        break
    return sorted(violations)


def oracle_closure_claim_check(group, mask):
    """Pairs u <= v in S with uv and vu outside S, by a double loop."""
    members = _oracle_elements(group, mask)
    return [(u, v) for i, u in enumerate(members) for v in members[i:]
            if not (mask >> oracle_mul(group, u, v)) & 1
            and not (mask >> oracle_mul(group, v, u)) & 1]


def _oracle_floored(log_weights, delta):
    """The point of the simplex with these log-weights, up to a constant,
    mixed with the floor as in the plain update."""
    weights = np.exp(log_weights - np.max(log_weights))
    return (1.0 - delta) * weights / np.sum(weights) + delta / weights.size


def oracle_gamma2(a, tol=1e-3):
    """schur.gamma2's fixed point as first written, one step on separate
    weight arrays p and q with an Anderson history deque of column pairs:
    the same eigh per step, mix, safeguard, stop rule and proofs, which
    the rewritten step must match bit for bit."""
    a = schur.as_matrix(a)
    tol = schur.validate_tol(tol)
    witness = schur._entry_witness(a)
    lower = schur.witness_lower_bound(a, witness)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        m, n = a.shape
        zero = schur.Certificate(p=np.zeros((m, m)), q=np.zeros((n, n)), c=0.0)
        return schur.Gamma2Bounds(lower=0.0, upper=0.0, certificate=zero, witness=witness)
    b = a / scale
    m, n = b.shape
    p, q = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    dilation = np.zeros((m + n, m + n), dtype=b.dtype)
    upper, certificate = math.inf, None
    accepted = None  # (value, residual, image, plain update) of the last accepted point
    history = deque(maxlen=schur.ANDERSON_DEPTH)  # differences of residuals and images
    for step in range(schur.STEP_CAP):
        half = np.sqrt(p)[:, None] * b * np.sqrt(q)
        dilation[:m, m:] = half
        dilation[m:, :m] = half.conj().T
        w, vectors = np.linalg.eigh(dilation)
        keep = w > schur._RANK_RTOL * w[-1]
        root = np.sqrt(w[keep])
        u, v = np.sqrt(2.0) * vectors[:m, keep], np.sqrt(2.0) * vectors[m:, keep]
        rows, cols = schur._row_norms(u * root), schur._row_norms(v * root)
        value = float(np.sum(w[keep]))
        best = max(lower, scale * value)
        gap = schur._gap(tol, best)
        promise = scale * math.sqrt(np.max(rows / p) * np.max(cols / q)) - best
        if promise <= gap or step == schur.STEP_CAP - 1:
            y = v * root / np.sqrt(q)[:, None]
            x = np.linalg.lstsq(y.conj(), b.T, rcond=None)[0].T
            x, y = schur._balanced(x, y)
            gram_x = schur._hermitian(scale * (x @ x.conj().T))
            gram_y = schur._hermitian(scale * (y @ y.conj().T))
            slack = float(schur._completion_slack(gram_x, a, gram_y))
            level = float(max(gram_x.diagonal().real.max(), gram_y.diagonal().real.max())) + slack
            cert = schur.Certificate(p=gram_x + slack * np.eye(len(gram_x)),
                                     q=gram_y + slack * np.eye(len(gram_y)), c=level)
            pair = schur.WitnessPair((u @ v.conj().T).conj(), np.sqrt(q))
            witnessed = schur.witness_lower_bound(a, pair)
            if level < upper:
                upper, certificate = level, cert
            if witnessed > lower:
                lower, witness = witnessed, pair
            if upper - lower <= schur._gap(tol, upper):
                break
        if history and value < accepted[0]:
            history.clear()
            p, q = accepted[3]
            accepted = None
            continue
        delta = max(gap / (4.0 * best), np.finfo(float).eps)
        plain = ((1.0 - delta) * rows / np.sum(rows) + delta / m,
                 (1.0 - delta) * cols / np.sum(cols) + delta / n)
        point = np.concatenate((p, q))
        image = np.log(np.concatenate(plain))
        residual = image - np.log(point)
        if accepted is not None:
            history.append((residual - accepted[1], image - accepted[2]))
        accepted = (value, residual, image, plain)
        if history:
            d_residual, d_image = (np.column_stack(d) for d in zip(*history))
            metric = np.sqrt(point)
            mixed = image - d_image @ np.linalg.lstsq(d_residual * metric[:, None],
                                                      residual * metric, rcond=None)[0]
            p, q = _oracle_floored(mixed[:m], delta), _oracle_floored(mixed[m:], delta)
        else:
            p, q = plain
    else:
        raise schur.Gamma2ConvergenceError(lower, upper)
    if lower > upper:
        if lower - upper > 1e-9 * max(1.0, upper):
            raise schur.Gamma2ConvergenceError(lower, upper,
                                               "witness crossed the certified upper bound")
        upper = lower
    return schur.Gamma2Bounds(lower=lower, upper=upper, certificate=certificate, witness=witness)


def oracle_csv_lines(records, header=False):
    """sweep.csv_lines as first written: a csv.writer row for each record,
    after the header row when asked, the subset as its elements joined by
    blanks and the floats by repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(["subset", "kind", "q", "norm_lower", "norm_upper",
                         "predicted", "orbit_size", "below_coset_bound",
                         "in_open_interval", "extremal_other"])
    writer.writerows([
        " ".join(str(i) for i in subset_elements(r.subset)),
        r.analysis.kind,
        "" if r.analysis.q is None else r.analysis.q,
        repr(r.norm_lower),
        repr(r.norm_upper),
        "" if r.predicted is None else repr(r.predicted),
        r.orbit_size,
        int(r.below_coset_bound),
        int(r.in_open_interval),
        int(r.extremal_other),
    ] for r in records)
    return buf.getvalue()


def _element_text_masks():
    """Masks of 1 to 9 bytes, each with its top byte set, beside single
    bits (bit 63 among them), all of 64 bits, 2^64 and wider random masks:
    masks below, at and above 64 bits, with a table of subset_text read
    at every byte position up to the ninth."""
    rng = random.Random(5)
    return ([0, 1, 255, 256, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 200) | 3]
            + [1 << k for k in range(0, 80, 7)]
            + [rng.getrandbits(96) for _ in range(50)]
            + [rng.getrandbits(8 * k - 1) | 1 << (8 * k - 1) for k in range(1, 10)])


ELEMENT_TEXT_MASKS = _element_text_masks()


def assert_same_text(actual, expected):
    """Fail unless two texts (str or bytes) are equal, naming both lengths
    and the first offset at which they differ, with 60 characters of
    context on each side.  It holds no assert, so pytest's assertion
    rewriting never diffs the texts: on two multi-megabyte reports that
    diff runs for minutes."""
    if actual == expected:
        return
    # the longest common prefix, by halving: each step compares two slices
    lo, hi = 0, min(len(actual), len(expected))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if actual[:mid] == expected[:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = max(lo - 60, 0)
    pytest.fail(f"texts differ: lengths {len(actual)} and {len(expected)}, first at offset "
                f"{lo}: {actual[start:lo + 60]!r} against {expected[start:lo + 60]!r}")
