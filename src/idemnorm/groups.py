"""Finite group arithmetic and coset structure detection.

A group is its data, with no tag: the cyclic factors of an abelian group
(elements are mixed-radix encoded coordinate tuples), or the Cayley table of
any finite group, whose validation on load also yields the inverses.  A
group is abelian exactly when it holds no table, so a table of an abelian
group takes the table path.  The builtins S3, D4 and Q8 are tabulated from
their elements by _tabulated.  Elements are always dense indices 0..n-1 and
subsets are bitmasks.

The group law has one implementation, Group.mul_array: the products of two
broadcast index arrays, read from the Cayley table or summed in coordinates
over the n x k array Group._coords (abelian groups store no n x n table).
The scalar Group.mul wraps it, and every set operation is built on it; up
to order 64 some read the translation byte table that it fills, which gives
every translate of a subset as one uint64 bitmask (_translates).  Products
that test membership, a block of rows at a time, are _products_in, which
is_subgroup runs over H x H.
The group transform of an abelian group is _spectrum_of, the fftn over the
coordinate tensor computed one axis at a time, with a butterfly on each
length-2 axis; it gives mu (bs.mu_values, and _spectra for a stack of
subsets) and, at every order, the abelian stabilizer, read off the integer
autocorrelation |S & (S - t)| from two transforms, so a one-shot norm
builds no translation table.  On Cayley groups the right stabilizer
R = {u : S u = S} and the left one L = {t : t S = S} are read off the
table rows of S and of its inverse set S^-1, whose right stabilizer is L
(or of their complements when these are smaller), and the stabilizer is
R & L.
analyze_cosets names a set from R and its stabilizer T through
_name_by_stabilizer, which sweep._records shares on every group, with both
read from the translates of its stack of classes: S is the left coset a R
exactly when |R| = |S|, and otherwise the union of two left cosets a T,
b T when T is normal in <T, a^-1 b>, which is one conjugation.  The
character pairing of an abelian group has one exact integer form,
_pairing_numerators, under character_values; up to order 64
Group.character_table caches it for every element.
Group.cyclic_layout lists the elements as g^d h_i over the right cosets of
one cyclic subgroup <g>, the order in which multiplier matrices are block
circulant (multiplier._cb_brackets, behind cb_norm).  Bitmasks cross into
index arrays and back through the helper pair _bits/_mask (np.unpackbits
and np.packbits); rows of flags become uint64 masks (order up to 64)
through _row_masks, and _lowest_bits reads the least element of each.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
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

class GroupAxiomError(ValueError):
    """A Cayley table fails a group axiom; `triple` names the offending elements."""

    def __init__(self, message: str, triple: tuple = ()):  # noqa: D107
        super().__init__(message)
        self.triple = triple


@dataclass(frozen=True)
class CyclicLayout:
    """The elements of a group as g^d h_i, with g the least element of the
    largest order m, and h_1 < ... < h_k the least elements of the right
    cosets <g> h.  A matrix M(x, y) = f(x^-1 y) is then block circulant:
    the block of (g^a h_i, g^b h_j) depends on b - a alone."""

    gather: np.ndarray  # [d, i, j] = h_i^-1 g^d h_j, shape (m, k, k)
    flat: np.ndarray    # [x, y] = the flat index of x^-1 y in gather, shape (n, n)


class Group:
    """A finite group with elements 0..order-1.

    Built from factors= (an abelian group with coordinate arithmetic,
    identity 0 and table None) or table= (the full multiplication table, validated, with
    the inverses that validation finds), by keyword.  Either way the
    product is mul_array, and mul is its scalar wrapper.  Coordinate arrays,
    abelian inverses, translation tables, the character table and the cyclic
    layout are built on first use; the two tables stop at order 64.
    Instances are immutable after construction (apart from those caches,
    whose builds are deterministic) and safe to share between threads.
    """

    def __init__(self, *, factors: Sequence[int] = (), table: Optional[np.ndarray] = None,
                 identity: int = 0, name: Optional[str] = None):
        if table is None:
            if identity != 0:
                raise ValueError("an abelian group from factors has identity 0, "
                                 f"got identity={identity!r}")
            factors = tuple(_as_index(f, "cyclic factor") for f in factors)
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
        else:
            if factors:
                raise ValueError("a group takes cyclic factors or a Cayley table, not both")
            tab = np.asarray(table)
            self.factors = ()
            identity = _as_index(identity, "identity index")
            # shadows the abelian cached property below
            self._inverse = _validate_cayley(tab, identity)
            self.order = len(self._inverse)
            self.identity = identity
            self.table = tab.astype(np.int64, copy=False)
            self.name = name or f"cayley{self.order}"

    # -- core arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_array(a, b))

    def mul_array(self, a, b) -> np.ndarray:
        """Products a*b of two index arrays (or an index and an array),
        broadcast against each other: a gather from the table for Cayley
        groups, coordinate sums for abelian groups."""
        if self.table is not None:
            return self.table[a, b]
        coords = self._coords
        return ((coords[a] + coords[b]) % self._factor_array).dot(self._stride_array)

    def inv(self, a: int) -> int:
        return int(self._inverse[a])

    @property
    def is_abelian(self) -> bool:
        return self.table is None

    def index_of(self, coords: Sequence[int]) -> int:
        """Element index for abelian coordinates: integers (floats are
        refused with ValueError), reduced mod the factors."""
        self._require_abelian()
        if len(coords) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates, got {len(coords)}")
        return sum(_as_index(c, "coordinate") % f * stride
                   for c, f, stride in zip(coords, self.factors, self._stride_array.tolist()))

    def _require_abelian(self) -> None:
        if not self.is_abelian:
            raise ValueError("operation requires an abelian (invariant-factor) group")

    @functools.cached_property
    def _coords(self) -> np.ndarray:
        """n-by-k array of the mixed-radix coordinates of every element."""
        return (np.arange(self.order)[:, None] // self._stride_array) % self._factor_array

    @functools.cached_property
    def _inverse(self) -> np.ndarray:
        return ((-self._coords) % self._factor_array).dot(self._stride_array)

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

    @functools.cached_property
    def character_table(self) -> np.ndarray:
        """The pairing of an abelian group of order up to 64 as an n x n
        complex table, [s, x] = (x, s): character_values of every element."""
        if self.order > TRANSLATION_TABLE_MAX_ORDER:
            raise ValueError(f"character tables stop at order "
                             f"{TRANSLATION_TABLE_MAX_ORDER}, group has {self.order}")
        return character_values(self, np.arange(self.order))

    @functools.cached_property
    def cyclic_layout(self) -> "CyclicLayout":
        """The elements laid out as g^d h_i over the right cosets <g> h_i
        of a cyclic subgroup; see CyclicLayout."""
        n = self.order
        everything = np.arange(n)
        orders = np.zeros(n, dtype=np.int64)
        power, d = everything, 1
        while not orders.all():  # power = x^d
            orders[(power == self.identity) & (orders == 0)] = d
            power, d = self.mul_array(power, everything), d + 1
        generator = int(np.argmax(orders))  # the least element of maximal order
        m = int(orders[generator])
        cycle = [self.identity]
        for _ in range(m - 1):
            cycle.append(self.mul(cycle[-1], generator))
        right = self.mul_array(np.array(cycle)[:, None], everything)  # [d, x] = g^d x
        # h_1 < ... < h_k: the elements that are the least of their coset <g> x
        cosets = np.flatnonzero(right.min(axis=0) == everything)
        k = len(cosets)
        spread = right[:, cosets]  # [d, i] = g^d h_i
        shift = np.empty(n, dtype=np.int64)
        coset = np.empty(n, dtype=np.int64)
        shift[spread] = np.arange(m)[:, None]
        coset[spread] = np.arange(k)
        gather = self.mul_array(self._inverse[cosets][None, :, None], spread[:, None, :])
        # x = g^a h_i and y = g^b h_j give x^-1 y = h_i^-1 g^(b-a) h_j
        flat = (((shift[None, :] - shift[:, None]) % m) * k * k
                + coset[:, None] * k + coset[None, :])
        return CyclicLayout(gather=gather, flat=flat)

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.order})"


def _validate_cayley(table: np.ndarray, identity: int) -> np.ndarray:
    """Check the group axioms of a Cayley table; returns the inverse of
    every element."""
    # before the shape: the empty JSON list [] reaches here as shape (0,)
    if table.size == 0:
        raise GroupAxiomError("Cayley table must be nonempty")
    if table.dtype.kind not in "iu":
        raise GroupAxiomError(f"Cayley table entries must be integers, got dtype {table.dtype}")
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupAxiomError(f"Cayley table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n > GROUP_ORDER_CAP:
        raise ValueError(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise GroupAxiomError(
            f"table entry at {tuple(bad)} out of range 0..{n - 1}", tuple(int(x) for x in bad))
    if not (0 <= identity < n):
        raise GroupAxiomError(f"identity index {identity} out of range")
    e = identity
    everything = np.arange(n)
    for line in (table[e], table[:, e]):  # e x = x, then x e = x
        if not np.array_equal(line, everything):
            bad = int(np.argmax(line != everything))
            raise GroupAxiomError(f"{e} is not a two-sided identity (fails at {bad})", (e, bad))
    # associativity: (a b) c == a (b c), checked row by row to bound memory
    for a in range(n):
        left = table[table[a], :]          # (a b) c
        right = table[a][table]            # a (b c)
        if not np.array_equal(left, right):
            b, c = (int(x) for x in np.argwhere(left != right)[0])
            raise GroupAxiomError(
                f"associativity fails: ({a}*{b})*{c} != {a}*({b}*{c})", (a, b, c))
    # the first right inverse of each row, then the check that it is also a
    # left inverse
    inverse = np.argmax(table == e, axis=1)
    ok = (table[everything, inverse] == e) & (table[inverse, everything] == e)
    if not ok.all():
        a = int(np.argmin(ok))
        raise GroupAxiomError(f"element {a} has no two-sided inverse", (a,))
    return inverse


# -- constructors -------------------------------------------------------------

def make_abelian_group(factors: Sequence[int]) -> Group:
    """Direct product of cyclic groups Z_f1 x ... x Z_fk."""
    return Group(factors=factors)


def load_cayley_group(table: Sequence[Sequence[int]], identity: int = 0,
                      name: Optional[str] = None) -> Group:
    """Build a group from an integer multiplication table, checking all axioms."""
    return Group(table=table, identity=identity, name=name)


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


def _as_index(value, what: str) -> int:
    """operator.index(value), which refuses floats, with a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _is_int(value) -> bool:
    """A JSON integer (bool is an int subclass in Python, but not one here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _tabulated(elements: Sequence, mul, name: str) -> Group:
    """The group of the elements under mul, element i at index i: element
    0 must be the identity."""
    index = {x: i for i, x in enumerate(elements)}
    return load_cayley_group([[index[mul(a, b)] for b in elements] for a in elements],
                             0, name=name)


def _symmetric_group_3() -> Group:
    # the permutations of (0, 1, 2) in sorted order, composed
    return _tabulated(sorted(itertools.permutations(range(3))),
                      lambda a, b: tuple(a[b[x]] for x in range(3)), "S3")


def _dihedral_group_4() -> Group:
    # r^i s^j at index i + 4j; s r = r^-1 s
    return _tabulated([(i, j) for j in (0, 1) for i in range(4)],
                      lambda a, b: ((a[0] + (-1) ** a[1] * b[0]) % 4, a[1] ^ b[1]), "D4")


def _quaternion_group_8() -> Group:
    # +-1, +-i, +-j, +-k as (a, b, c, d) = a + b i + c j + d k, the axis
    # (1, i, j, k) and sign (+, -) at index 2 axis + sign, under the
    # Hamilton product
    def mul(x, y):
        a, b, c, d = x
        p, q, r, s = y
        return (a * p - b * q - c * r - d * s, a * q + b * p + c * s - d * r,
                a * r - b * s + c * p + d * q, a * s + b * r - c * q + d * p)

    return _tabulated([tuple(sign * (k == axis) for k in range(4))
                       for axis in range(4) for sign in (1, -1)], mul, "Q8")


_BUILTINS = {"S3": _symmetric_group_3, "D4": _dihedral_group_4, "Q8": _quaternion_group_8}


def builtin_group(name: str) -> Group:
    """One of the bundled nonabelian groups: S3, D4, Q8."""
    key = name.upper()
    if key not in _BUILTINS:
        raise ValueError(f"unknown builtin group {name!r}; choose from {sorted(_BUILTINS)}")
    return _BUILTINS[key]()


# [0-9], not \d: \d matches every Unicode digit, so "Z\u0663" would read as Z3
_ABELIAN_SPEC = re.compile(r"^z[0-9]+(xz[0-9]+)*$")


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
    """The mask as an int, refusing floats and masks beyond the group's order."""
    mask = _as_index(mask, "subset mask")
    if mask < 0 or mask >> group.order:
        raise ValueError(f"subset mask {mask:#x} out of range for order {group.order}")
    return mask


def subset_mask(group: Group, indices: Sequence[int]) -> int:
    """Bitmask for a collection of element indices (integers, not floats).
    Indices that make a flat integer array in range take one range check
    and one scatter; any other collection is checked index by index, so
    that the first bad index is the one refused."""
    n = group.order
    try:
        elements = np.asarray(indices)
    except ValueError:  # ragged nesting, refused index by index below
        pass
    else:
        if (elements.dtype.kind in "iu" and elements.ndim == 1
                and (not elements.size or (elements.min() >= 0 and elements.max() < n))):
            return _index_mask(group, elements)
    checked = []
    for i in indices:
        i = _as_index(i, "element index")
        if not 0 <= i < n:
            raise ValueError(f"element index {i} out of range for order {n}")
        checked.append(i)
    return _index_mask(group, np.array(checked, dtype=np.int64))


# _BYTE_BITS[v]: the positions of the set bits of the byte v, ascending,
# which _byte_texts reads
_BYTE_BITS = tuple(tuple(j for j in range(8) if v >> j & 1) for v in range(256))


def subset_elements(mask: int) -> list[int]:
    """Elements of a bitmask, ascending, as a list of ints (_members).  A
    negative mask raises ValueError."""
    if mask < 0:
        raise ValueError(f"subset mask {mask} is negative")
    return _members(mask).tolist()


@functools.cache
def _byte_texts(separator: str, position: int) -> tuple[str, ...]:
    """For each byte value v at the byte position, the elements
    8 position + j of its set bits j as decimal text joined by the
    separator: the table that subset_text reads."""
    return tuple(separator.join(str(8 * position + j) for j in _BYTE_BITS[v])
                 for v in range(256))


def subset_text(mask: int, separator: str) -> str:
    """The elements of a bitmask, ascending, as decimal text joined by the
    separator: separator.join(map(str, subset_elements(mask))), pieced
    together from the _byte_texts of each nonzero byte.  The text of the
    CSV subset field and, inside its brackets, of a JSON element list.  The
    empty mask is "", and a negative one raises ValueError."""
    if mask < 0:
        raise ValueError(f"subset mask {mask} is negative")
    texts = []
    position = 0
    while mask:
        if mask & 255:
            texts.append(_byte_texts(separator, position)[mask & 255])
        mask >>= 8
        position += 1
    return separator.join(texts)


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


def _lowest(mask: int) -> int:
    """Least element of a nonempty bitmask."""
    return (mask & -mask).bit_length() - 1


# the bit positions of a uint64 mask
_BIT_INDEX = np.arange(TRANSLATION_TABLE_MAX_ORDER, dtype=np.uint64)


def _row_masks(flags: np.ndarray) -> np.ndarray:
    """The uint64 mask of each row of membership flags (at most 64
    columns); _mask for a stack of rows."""
    return flags.astype(np.uint64) @ (np.uint64(1) << _BIT_INDEX[:flags.shape[-1]])


def _lowest_bits(masks: np.ndarray) -> np.ndarray:
    """Least element of each uint64 mask (-1 for 0), exact on bits 0..63:
    the lowest set bit m & -m is a power of two, which converts to a float
    exactly, and np.frexp reads its exponent (2^k = 0.5 * 2^(k+1))."""
    low = masks & (~masks + np.uint64(1))
    return np.frexp(low.astype(np.float64))[1].astype(np.int64) - 1


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


def _translates(group: Group, mask) -> np.ndarray:
    """Every translate of S (uint64 bitmasks, one per translation), as an OR
    of the rows of the group's translation table that the bytes of S select:
    entry t is t + S on abelian groups, entry t n + u is t S u otherwise.
    S is an int, giving one row (T,), or a uint64 stack of masks (B,),
    giving a row each (B, T).  For an int, table[0, mask & 255] is a view
    of the cached table, so the OR makes a new array and never writes in
    place."""
    table = group.translation_table
    out = table[0, mask & 255]
    for b in range(1, len(table)):
        out = out | table[b, (mask >> 8 * b) & 255]
    return out


def is_subgroup(group: Group, mask: int) -> bool:
    """Contains the identity and is closed under the product: e in H and
    every product h h' of members in H, one _products_in over H x H."""
    mask = validate_mask(group, mask)
    if not (mask >> group.identity) & 1:
        return False
    members = _members(mask)
    return bool(_products_in(group, _bits(mask, group.order), members, members).all())


def _spectrum(group: Group, mask: int) -> np.ndarray:
    """np.fft.fftn of the indicator of S over the coordinate tensor of an
    abelian group, flattened in element order; see _spectrum_of."""
    return _spectrum_of(group, _bits(mask, group.order).astype(float))


def _spectra(group: Group, masks: np.ndarray) -> np.ndarray:
    """_spectrum of each of a stack of uint64 masks (order up to 64), one
    row per mask: _spectrum_of on the flat stack of their indicators, whose
    line views never cross from one mask's block of n to the next."""
    n = group.order
    flags = (masks[:, None] >> _BIT_INDEX[:n]) & np.uint64(1)
    return _spectrum_of(group, flags.astype(float).reshape(-1)).reshape(len(masks), n)


def _spectrum_of(group: Group, values: np.ndarray) -> np.ndarray:
    """np.fft.fftn of a value per element over the coordinate tensor,
    flattened, bit for bit: one 1-D transform per axis, last axis first as
    fftn takes them, each over a (-1, f, inner) view.  A length-2 axis is the
    butterfly (a + b, a - b), which is what pocketfft computes for length 2,
    without numpy's per-line cost on n/2 lines of two."""
    out, inner = values, 1
    for f in reversed(group.factors):
        lines = out.reshape(-1, f, inner)
        if f == 2:
            a, b = lines[:, 0], lines[:, 1]
            out = np.stack((a + b, a - b), axis=1)
        else:
            out = np.fft.fft(lines, axis=1)
        inner *= f
    return out.reshape(-1).astype(complex, copy=False)


def _autocorrelation(group: Group, mask: int) -> np.ndarray:
    """|S & (S - t)| for every t of an abelian group, rounded to integers.

    The transform of |fft(1_S)|^2 is n times the autocorrelation at -t,
    which equals the one at t, so no inverse transform is needed.  Every
    value must lie within 0.25 of an integer, or ArithmeticError is raised."""
    spectrum = _spectrum(group, mask)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    counts = _spectrum_of(group, power).real / group.order
    rounded = np.rint(counts)
    error = np.abs(counts - rounded).max()
    if error > 0.25:
        raise ArithmeticError(f"autocorrelation on {group.name} is {error:.3g} "
                              "away from an integer")
    return rounded


def _cayley_stabilizers(group: Group, mask: int) -> tuple[int, int]:
    """(R, L) for S in a Cayley group: the right stabilizer R = {u : S u = S}
    and the left one L = {t : t S = S}.  A translation maps S onto S exactly
    when it maps the complement onto itself, so both are taken of the
    smaller of the two.  L is the right stabilizer of the inverse set:
    t S = S exactly when S^-1 t^-1 = S^-1, and a stabilizer is a subgroup,
    which holds t^-1 exactly when it holds t.  For the empty set and the
    whole group both are the whole group."""
    flags = _bits(mask, group.order)
    if 2 * mask.bit_count() > group.order:
        flags = ~flags
    return (_mask(_holding_columns(group, flags)),
            _mask(_holding_columns(group, flags[group._inverse])))


def _holding_columns(group: Group, flags: np.ndarray) -> np.ndarray:
    """Flags of the u with X u = X, for the set X with these flags: X u has
    |X| elements, so these are the columns of the table rows of X that lie
    in X throughout, gathered a block of _block_rows rows at a time."""
    members = np.flatnonzero(flags)
    out = np.ones(group.order, dtype=bool)
    step = _block_rows(group, group.order)
    for lo in range(0, len(members), step):
        out &= flags[group.table[members[lo:lo + step]]].all(axis=0)
    return out


def stabilizer(group: Group, mask: int) -> int:
    """Two-sided stabilizer {t : S t = S and t S = S}; always a subgroup.

    For the empty set this is the whole group.  For abelian groups the two
    one-sided conditions coincide, and the stabilizer is {t : t + S = S},
    the t with |S & (S - t)| = |S|, read off the integer autocorrelation
    (_autocorrelation, two transforms) at every order.  On Cayley groups it
    is R & L, the two one-sided stabilizers of _cayley_stabilizers.
    sweep._classify takes both from its own kernel instead, on every group:
    the translates equal to S over a stack of classes.
    """
    mask = validate_mask(group, mask)
    if group.is_abelian:
        return _mask(_autocorrelation(group, mask) == mask.bit_count())
    right, left = _cayley_stabilizers(group, mask)
    return right & left


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

    S is named by _name_by_stabilizer from its right stabilizer R and its
    two-sided stabilizer T, as sweep._records names a class: on abelian
    groups both are the autocorrelation stabilizer, and on Cayley groups
    T = R & L from _cayley_stabilizers.
    """
    mask = validate_mask(group, mask)
    if group.is_abelian:
        right = stab = stabilizer(group, mask)
    else:
        right, left = _cayley_stabilizers(group, mask)
        stab = right & left
    return _name_by_stabilizer(group, mask, right, stab)


def _name_by_stabilizer(group: Group, mask: int, right: int, stab: int) -> CosetAnalysis:
    """The coset analysis of S read from its right stabilizer R = {u : S u
    = S} and its two-sided stabilizer T (analyze_cosets, and sweep._records
    with both from its stack of classes); on abelian groups R = T.

    S is a union of left cosets s R, so it is the coset a R (a the least
    element of S) exactly when |R| = |S|; then a^-1 S = R is a subgroup,
    normal or not.  Otherwise |T| <= |R| < |S|, and when |S| = 2|T|, S is
    the two left cosets a T and b T (b the least element outside a T).
    The two-coset kind requires T normal in the span <T, c> with c =
    a^-1 b, which makes the relative order q (least q >= 1 with c^q in T)
    independent of the representatives.  Elements of T normalize T, and
    c^-1 is a positive power of c in a finite group, so T is normal in
    <T, c> exactly when c T c^-1 = T: one conjugation.  Then q >= 3: q = 1
    would put b in a T, and q = 2 would make K = T u c T a subgroup with
    S = a K, whose right stabilizer K the coset test catches first.

    Any other nonempty S is "other", and the "other" sets of one T share
    one frozen analysis (_other).
    """
    if mask == 0:
        return CosetAnalysis(kind="empty")
    size = mask.bit_count()
    if size == right.bit_count():
        return CosetAnalysis(kind="coset", subgroup=right, rep_a=_lowest(mask))
    if size == 2 * stab.bit_count():
        a = _lowest(mask)
        b = _lowest(mask & ~translate_left(group, a, stab))
        c = group.mul(group.inv(a), b)
        conjugates = group.mul_array(group.mul_array(c, _members(stab)), group.inv(c))
        if _index_mask(group, conjugates) == stab:
            q = 1
            p = c
            while not (stab >> p) & 1:
                p = group.mul(p, c)
                q += 1
            return CosetAnalysis(kind="two_cosets", subgroup=stab, rep_a=a, rep_b=b, q=q)
    return _other(stab)


@functools.lru_cache(maxsize=256)
def _other(stab: int) -> CosetAnalysis:
    """The analysis of every "other" set whose stabilizer is T."""
    return CosetAnalysis(kind="other", subgroup=stab)
