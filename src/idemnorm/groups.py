"""Finite group arithmetic and coset structure detection.

Groups come in two kinds: abelian groups given as direct products of cyclic
groups (elements are mixed-radix encoded coordinate tuples), and general
finite groups given by a Cayley table (validated on load).  Elements are
always dense indices 0..n-1 and subsets are bitmasks.

The group law has one implementation, Group.mul_array: the products of two
broadcast index arrays, read from the Cayley table or summed in coordinates
over the n x k array Group._coords (abelian groups store no n x n table).
The scalar Group.mul wraps it, and every set operation is built on it.  The
character pairing of an abelian group has one exact integer form,
_pairing_numerators, under character_values.  Bitmasks cross into index
arrays and back through the helper pair _bits/_mask (np.unpackbits and
np.packbits).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# largest group order any constructor accepts
GROUP_ORDER_CAP = 4096

# entries per block of products, counting every coordinate of an abelian
# product: bounds the temporaries of mul_array
PRODUCT_BLOCK = 1 << 15

# translation tables store each translate as one uint64 bitmask
TRANSLATION_TABLE_MAX_ORDER = 64

ABELIAN = "abelian"
CAYLEY = "cayley"


class GroupAxiomError(ValueError):
    """A Cayley table fails a group axiom; `triple` names the offending elements."""

    def __init__(self, message: str, triple: tuple = ()):  # noqa: D107
        super().__init__(message)
        self.triple = triple


class Group:
    """A finite group with elements 0..order-1.

    Abelian groups store their cyclic factors and do coordinate arithmetic;
    Cayley groups store the full multiplication table.  Either way the
    product is mul_array, and mul is its scalar wrapper.  Coordinate arrays,
    abelian inverses and translation tables are built on first use.
    Instances are immutable after construction (apart from those caches,
    whose builds are deterministic) and safe to share between threads.
    """

    def __init__(self, kind: str, *, factors: Sequence[int] = (),
                 table: Optional[np.ndarray] = None, identity: int = 0,
                 name: Optional[str] = None):
        self.kind = kind
        if kind == ABELIAN:
            factors = tuple(int(f) for f in factors)
            if not factors:
                raise ValueError("abelian group needs at least one factor")
            for f in factors:
                if f < 2:
                    raise ValueError(f"cyclic factor must be >= 2, got {f}")
            order = 1
            for f in factors:
                order *= f
                if order > GROUP_ORDER_CAP:
                    raise ValueError(f"group order {order}+ exceeds cap {GROUP_ORDER_CAP}")
            self.factors = factors
            self.order = order
            # mixed-radix strides, last coordinate fastest
            strides = [1] * len(factors)
            for j in range(len(factors) - 2, -1, -1):
                strides[j] = strides[j + 1] * factors[j + 1]
            self._factor_array = np.array(factors, dtype=np.int64)
            self._stride_array = np.array(strides, dtype=np.int64)
            self.identity = 0
            self.table = None
            self.name = name or "x".join(f"Z{f}" for f in factors)
        elif kind == CAYLEY:
            tab = np.asarray(table, dtype=np.int64)
            self.factors = ()
            n = _validate_cayley(tab, identity)
            self.order = n
            self.identity = int(identity)
            self.table = tab
            self.name = name or f"cayley{n}"
            # a table without two-sided inverses is rejected on load
            self._inverse = self._build_inverse()
        else:
            raise ValueError(f"unknown group kind {kind!r}")

    # -- core arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_array(a, b))

    def mul_array(self, a, b) -> np.ndarray:
        """Products a*b of two index arrays (or an index and an array),
        broadcast against each other: a gather from the table for Cayley
        groups, coordinate sums for abelian groups."""
        if self.kind == CAYLEY:
            return self.table[a, b]
        coords = self._coords
        return ((coords[a] + coords[b]) % self._factor_array).dot(self._stride_array)

    def inv(self, a: int) -> int:
        return int(self._inverse[a])

    @property
    def is_abelian(self) -> bool:
        return self.kind == ABELIAN

    def elements(self) -> range:
        return range(self.order)

    def index_of(self, coords: Sequence[int]) -> int:
        """Element index for abelian coordinates (reduced mod the factors)."""
        self._require_abelian()
        if len(coords) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates, got {len(coords)}")
        return int(np.dot([int(c) % f for c, f in zip(coords, self.factors)],
                          self._stride_array))

    def _require_abelian(self) -> None:
        if self.kind != ABELIAN:
            raise ValueError("operation requires an abelian (invariant-factor) group")

    @functools.cached_property
    def _coords(self) -> np.ndarray:
        """n-by-k array of the mixed-radix coordinates of every element."""
        return (np.arange(self.order)[:, None] // self._stride_array) % self._factor_array

    @functools.cached_property
    def _inverse(self) -> np.ndarray:
        return self._build_inverse()

    def _build_inverse(self) -> np.ndarray:
        if self.kind == ABELIAN:
            return ((-self._coords) % self._factor_array).dot(self._stride_array)
        # the first right inverse of each row, then the check that it is
        # also a left inverse
        inv = np.argmax(self.table == self.identity, axis=1)
        everything = np.arange(self.order)
        ok = ((self.table[everything, inv] == self.identity)
              & (self.table[inv, everything] == self.identity))
        if not ok.all():
            a = int(np.argmin(ok))
            raise GroupAxiomError(f"element {a} has no two-sided inverse", (a,))
        return inv

    @functools.cached_property
    def translation_table(self) -> np.ndarray:
        """Byte table of the translation action on subsets, for orders up to 64.

        Entry [b, v, k] is the uint64 bitmask of the k-th translate of the
        elements 8b..8b+7 that the byte v selects, so the k-th translate of
        a subset is the OR over its bytes.  The translates are x -> t x
        (k = t) for abelian groups and x -> t x u (k = t n + u) otherwise.
        """
        n = self.order
        if n > TRANSLATION_TABLE_MAX_ORDER:
            raise ValueError(f"translation tables stop at order "
                             f"{TRANSLATION_TABLE_MAX_ORDER}, group has {n}")
        everything = np.arange(n)
        if self.is_abelian:
            image = self.mul_array(everything[None, :], everything[:, None])
        else:
            left = self.mul_array(everything[:, None], everything[None, :])  # [t, x]
            image = self.mul_array(left[:, :, None], everything)             # [t, x, u]
            image = image.transpose(1, 0, 2).reshape(n, n * n)
        single = np.left_shift(np.uint64(1), image.astype(np.uint64))    # [x, k]
        nbytes = (n + 7) // 8
        table = np.zeros((nbytes, 256, single.shape[1]), dtype=np.uint64)
        for x in range(n):
            b, j = divmod(x, 8)
            table[b, 1 << j:2 << j] = table[b, :1 << j] | single[x]
        return table

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.order})"


def _validate_cayley(table: np.ndarray, identity: int) -> int:
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupAxiomError(f"Cayley table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n < 1:
        raise GroupAxiomError("Cayley table must be nonempty")
    if n > GROUP_ORDER_CAP:
        raise ValueError(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise GroupAxiomError(
            f"table entry at {tuple(bad)} out of range 0..{n - 1}", tuple(int(x) for x in bad))
    if not (0 <= identity < n):
        raise GroupAxiomError(f"identity index {identity} out of range")
    e = identity
    if not (np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n))):
        bad = int(np.nonzero(table[e] != np.arange(n))[0][0]) if not np.array_equal(
            table[e], np.arange(n)) else int(np.nonzero(table[:, e] != np.arange(n))[0][0])
        raise GroupAxiomError(f"{e} is not a two-sided identity (fails at {bad})", (e, bad))
    # associativity: (a b) c == a (b c), checked row by row to bound memory
    for a in range(n):
        left = table[table[a], :]          # (a b) c
        right = table[a][table]            # a (b c)
        if not np.array_equal(left, right):
            b, c = (int(x) for x in np.argwhere(left != right)[0])
            raise GroupAxiomError(
                f"associativity fails: ({a}*{b})*{c} != {a}*({b}*{c})", (a, b, c))
    return n


# -- constructors -------------------------------------------------------------

def make_abelian_group(factors: Sequence[int]) -> Group:
    """Direct product of cyclic groups Z_f1 x ... x Z_fk."""
    return Group(ABELIAN, factors=factors)


def load_cayley_group(table: Sequence[Sequence[int]], identity: int = 0,
                      name: Optional[str] = None) -> Group:
    """Build a group from an explicit multiplication table, checking all axioms."""
    return Group(CAYLEY, table=np.asarray(table), identity=identity, name=name)


def load_cayley_file(path: str) -> Group:
    """Read a Cayley table from JSON: {"n": int, "identity": int, "table": [[...]]}.

    A file of any other shape raises GroupAxiomError (a ValueError)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise GroupAxiomError(f"{path}: expected a JSON object, got {type(data).__name__}")
    table = data.get("table")
    if not (isinstance(table, list)
            and all(isinstance(row, list) and all(map(_is_int, row)) for row in table)):
        raise GroupAxiomError(f"{path}: \"table\" must be a list of lists of integers")
    n = data.get("n", len(table))
    identity = data.get("identity", 0)
    if not (_is_int(n) and _is_int(identity)):
        raise GroupAxiomError(f"{path}: \"n\" and \"identity\" must be integers")
    if n != len(table):
        raise GroupAxiomError(f"declared order {n} does not match table size {len(table)}")
    return load_cayley_group(table, identity, name=os.path.splitext(os.path.basename(path))[0])


def _is_int(value) -> bool:
    """A JSON integer (bool is an int subclass in Python, but not one here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _symmetric_group_3() -> Group:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms]
    return load_cayley_group(table, index[(0, 1, 2)], name="S3")


def _dihedral_group_4() -> Group:
    # elements r^i s^j with index i + 4j; s r = r^-1 s
    def mul(a: int, b: int) -> int:
        i, j = a % 4, a // 4
        k, l = b % 4, b // 4
        return (i + (k if j == 0 else -k)) % 4 + 4 * (j ^ l)

    return load_cayley_group([[mul(a, b) for b in range(8)] for a in range(8)], 0, name="D4")


def _quaternion_group_8() -> Group:
    # index = axis*2 + sign with axes (1, i, j, k) and sign 0:+ / 1:-
    axis_prod = {(0, 0): (0, 0)}
    for a in (1, 2, 3):
        axis_prod[(0, a)] = (0, a)
        axis_prod[(a, 0)] = (0, a)
        axis_prod[(a, a)] = (1, 0)
    axis_prod[(1, 2)] = (0, 3)
    axis_prod[(2, 3)] = (0, 1)
    axis_prod[(3, 1)] = (0, 2)
    axis_prod[(2, 1)] = (1, 3)
    axis_prod[(3, 2)] = (1, 1)
    axis_prod[(1, 3)] = (1, 2)

    def mul(x: int, y: int) -> int:
        extra, axis = axis_prod[(x // 2, y // 2)]
        return axis * 2 + ((x + y + extra) % 2)

    return load_cayley_group([[mul(a, b) for b in range(8)] for a in range(8)], 0, name="Q8")


_BUILTINS = {"S3": _symmetric_group_3, "D4": _dihedral_group_4, "Q8": _quaternion_group_8}


def builtin_group(name: str) -> Group:
    """One of the bundled nonabelian groups: S3, D4, Q8."""
    key = name.upper()
    if key not in _BUILTINS:
        raise ValueError(f"unknown builtin group {name!r}; choose from {sorted(_BUILTINS)}")
    return _BUILTINS[key]()


_ABELIAN_SPEC = re.compile(r"^z\d+(xz\d+)*$")


def parse_group(spec: str) -> Group:
    """Parse a group spec: "Z6", "Z2xZ4" (case-insensitive), a builtin name,
    or a path to a Cayley-table JSON file."""
    text = spec.strip()
    key = text.upper()
    if key in _BUILTINS:
        return _BUILTINS[key]()
    lowered = text.replace(" ", "").lower()
    if _ABELIAN_SPEC.match(lowered):
        return make_abelian_group([int(part[1:]) for part in lowered.split("x")])
    if os.path.isfile(text):
        return load_cayley_file(text)
    raise ValueError(f"cannot parse group spec {spec!r} "
                     "(expected e.g. Z6, Z2xZ4, S3, D4, Q8, or a JSON file path)")


# -- subsets as bitmasks ------------------------------------------------------

def validate_mask(group: Group, mask: int) -> int:
    mask = int(mask)
    if mask < 0 or mask >> group.order:
        raise ValueError(f"subset mask {mask:#x} out of range for order {group.order}")
    return mask


def subset_mask(group: Group, indices: Sequence[int]) -> int:
    """Bitmask for a collection of element indices."""
    mask = 0
    for i in indices:
        i = int(i)
        if not 0 <= i < group.order:
            raise ValueError(f"element index {i} out of range for order {group.order}")
        mask |= 1 << i
    return mask


def subset_elements(mask: int) -> list[int]:
    return _members(mask).tolist()


def subset_size(mask: int) -> int:
    return bin(mask).count("1")


def _bits(mask: int, n: int) -> np.ndarray:
    """Membership flags of the elements 0..n-1 in a bitmask (np.unpackbits)."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _mask(flags: np.ndarray) -> int:
    """Bitmask of a vector of membership flags (np.packbits); inverse of _bits."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _members(mask: int) -> np.ndarray:
    """Elements of a bitmask as an ascending index array."""
    return np.flatnonzero(_bits(mask, mask.bit_length()))


def _index_mask(group: Group, elements: np.ndarray) -> int:
    """Bitmask of an index array."""
    flags = np.zeros(group.order, dtype=bool)
    flags[elements] = True
    return _mask(flags)


def _block_rows(group: Group, columns: int) -> int:
    """Rows of a block of products with the given number of columns."""
    return max(1, PRODUCT_BLOCK // (max(columns, 1) * max(len(group.factors), 1)))


def _products_in(group: Group, flags: np.ndarray, left: np.ndarray,
                 right: np.ndarray) -> np.ndarray:
    """flags[left[i] * right[j]] as a len(left)-by-len(right) bool matrix:
    which products of the two index arrays lie in the set with these
    membership flags, computed a block of rows at a time."""
    out = np.empty((len(left), len(right)), dtype=bool)
    step = _block_rows(group, len(right))
    for lo in range(0, len(left), step):
        out[lo:lo + step] = flags[group.mul_array(left[lo:lo + step, None], right)]
    return out


def translate_left(group: Group, t: int, mask: int) -> int:
    """Bitmask of t*S."""
    return _index_mask(group, group.mul_array(t, _members(mask)))


def translate_right(group: Group, mask: int, t: int) -> int:
    """Bitmask of S*t."""
    return _index_mask(group, group.mul_array(_members(mask), t))


def is_subgroup(group: Group, mask: int) -> bool:
    """Contains the identity and is closed under the product: e in H and
    hH within H for every h in H, checked a block of h at a time."""
    mask = validate_mask(group, mask)
    if not (mask >> group.identity) & 1:
        return False
    members = _members(mask)
    flags = _bits(mask, group.order)
    step = _block_rows(group, len(members))
    return all(flags[group.mul_array(members[lo:lo + step, None], members)].all()
               for lo in range(0, len(members), step))


def subgroup_generated(group: Group, generators: Sequence[int]) -> int:
    """Bitmask of the subgroup generated by the given elements: the closure
    of {e} under right multiplication by them (in a finite group inverses
    are positive powers)."""
    gens = np.array([int(x) for x in generators], dtype=np.int64)
    flags = np.zeros(group.order, dtype=bool)
    flags[group.identity] = True
    frontier = np.array([group.identity])
    step = _block_rows(group, len(gens))
    while len(frontier):
        fresh = []
        for lo in range(0, len(frontier), step):
            products = group.mul_array(frontier[lo:lo + step, None], gens).ravel()
            new = np.unique(products[~flags[products]])
            flags[new] = True
            fresh.append(new)
        frontier = np.concatenate(fresh)
    return _mask(flags)


def stabilizer(group: Group, mask: int) -> int:
    """Two-sided stabilizer {t : S t = S and t S = S}; always a subgroup.

    For the empty set this is the whole group.  For abelian groups the two
    one-sided conditions coincide.  S t = S puts s0 t in S, so the candidates
    are s0^-1 S.  Each is checked exactly, s t and t s against the flags of S
    for a block of s in S at a time, until S is exhausted or only the
    identity (which always stabilizes) is left.
    """
    mask = validate_mask(group, mask)
    if mask == 0:
        return (1 << group.order) - 1
    members = _members(mask)
    flags = _bits(mask, group.order)
    candidates = group.mul_array(group._inverse[members[0]], members)
    lo = 0
    while lo < len(members) and len(candidates) > 1:
        block = members[lo:lo + _block_rows(group, len(candidates)), None]
        keep = flags[group.mul_array(block, candidates)].all(axis=0)
        if not group.is_abelian:
            keep &= flags[group.mul_array(candidates, block)].all(axis=0)
        candidates = candidates[keep]
        lo += len(block)
    return _index_mask(group, candidates)


def _pairing_numerators(group: Group, s) -> np.ndarray:
    """Exact phases of the self-dual pairing of an abelian group: the integer
    sum_j x_j s_j (n / f_j) mod n, so that (x, s) = exp(2 pi i num / n), for
    every x as the last axis and an element or an index array s."""
    group._require_abelian()
    n = group.order
    coords = group._coords
    return ((coords[s] * (n // group._factor_array)).dot(coords.T)) % n


def character_values(group: Group, s) -> np.ndarray:
    """(x, s) = exp(2 pi i sum_j x_j s_j / f_j) for every x, as the last
    axis, for an element or an index array s.  Bilinear in both arguments;
    the phase is reduced exactly in integer arithmetic before the single
    complex exponential."""
    return np.exp(2j * np.pi * _pairing_numerators(group, s) / group.order)


# -- coset structure ----------------------------------------------------------

@dataclass(frozen=True)
class CosetAnalysis:
    """Structure of a subset: empty, a single coset, a union of two cosets of
    its stabilizer (with the relative order q >= 3 of the connecting element
    in the quotient), or anything else."""

    kind: str  # "empty" | "coset" | "two_cosets" | "other"
    subgroup: Optional[int] = None  # bitmask: coset subgroup, or stabilizer
    rep_a: Optional[int] = None
    rep_b: Optional[int] = None
    q: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "subgroup": None if self.subgroup is None else subset_elements(self.subgroup),
            "rep_a": self.rep_a,
            "rep_b": self.rep_b,
            "q": self.q,
        }


def analyze_cosets(group: Group, mask: int) -> CosetAnalysis:
    """Classify S as empty / coset / two-coset union / other.

    A coset is recognised by the a^-1 S subgroup test, so cosets of arbitrary
    subgroups are found (not just cosets of the stabilizer).  The two-coset
    kind requires S to be exactly two left cosets of its two-sided stabilizer
    T with T normal in the span <T, a^-1 b>, which makes the relative order q
    independent of the representatives; q >= 3 always (q <= 2 would make S a
    single coset of a larger subgroup, caught by the coset test first).
    """
    mask = validate_mask(group, mask)
    if mask == 0:
        return CosetAnalysis(kind="empty")
    a = (mask & -mask).bit_length() - 1
    h = translate_left(group, group.inv(a), mask)
    if is_subgroup(group, h):
        return CosetAnalysis(kind="coset", subgroup=h, rep_a=a)
    stab = stabilizer(group, mask)
    stab_size = subset_size(stab)
    if subset_size(mask) == 2 * stab_size:
        rest = mask & ~translate_left(group, a, stab)
        if subset_size(rest) == stab_size:
            b = (rest & -rest).bit_length() - 1
            c = group.mul(group.inv(a), b)
            if group.is_abelian or _is_normal_in(
                    group, stab, subgroup_generated(group, subset_elements(stab) + [c])):
                q = 1
                p = c
                while not (stab >> p) & 1:
                    p = group.mul(p, c)
                    q += 1
                if q >= 3:
                    return CosetAnalysis(kind="two_cosets", subgroup=stab,
                                         rep_a=a, rep_b=b, q=q)
    return CosetAnalysis(kind="other", subgroup=stab)


def _is_normal_in(group: Group, sub_mask: int, span_mask: int) -> bool:
    """x T x^-1 within T for every x in the span, a block of x at a time."""
    subs = _members(sub_mask)
    flags = _bits(sub_mask, group.order)
    span = _members(span_mask)
    step = _block_rows(group, len(subs))
    for lo in range(0, len(span), step):
        x = span[lo:lo + step, None]
        if not flags[group.mul_array(group.mul_array(x, subs), group._inverse[x])].all():
            return False
    return True
