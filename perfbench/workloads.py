"""The benchmark's workloads: seeded inputs, the timed call for each input,
and the untimed check of its result.

A workload yields its inputs in rounds.  Every round has the same make-up
(the same groups, kinds and numbers of calls); sizes and densities, where a
round holds several, are taken in turn from a fixed cycle, and the seed draws
the members; the solver workloads draw their matrices from a fixed corpus
instead, which the seed permutes (see CORPUS_SEED).  So a run of a given
number of rounds does comparable work whatever its seed.  Nothing here imports
idemnorm or numpy at module level (nor oracles.py, which imports numpy):
setup() imports idemnorm, so that the import is part of the measured set-up
time.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

OK = "ok"
NONCONVERGENCE = "nonconvergence"
PATTERN_NORM = 9 / 7  # Schur norm of the forbidden 3x3 pattern (--f0)


@dataclass
class Item:
    """One call.  `run` is timed; `check` runs afterwards on what `run`
    returned and gives OK, NONCONVERGENCE (the solver's known defect), or
    the names of the checks that failed."""

    label: str
    work: int
    run: Callable[[], object]
    check: Callable[[object], str]


class Workload:
    name = ""
    unit = "call"
    round_s = 1.0       # busy seconds of one round at the reference speed, about
    deadline_s = 30.0   # per call at the reference speed; a safety net only

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._count = itertools.count()

    def setup(self) -> None:
        """Import idemnorm, build the workload's groups, make one warm-up call."""
        raise NotImplementedError

    def rounds(self, seed: int) -> Iterator[list[Item]]:
        raise NotImplementedError

    def _out_path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}-{next(self._count)}.json")

    def _cli_item(self, label: str, work: int, argv: list[str],
                  judge: Callable[[dict], list[str]]) -> Item:
        path = self._out_path()
        argv = argv + ["--format", "json", "--out", path]

        def check(code) -> str:
            if code == 3:
                return NONCONVERGENCE
            if code != 0:
                return f"exit_code: {code}"
            with open(path) as fh:
                failed = judge(json.load(fh))
            return "; ".join(failed) or OK

        # self._cli.main is looked up at call time so that a tracer's
        # rebinding of cli.main is seen
        return Item(label, work, lambda: self._cli.main(argv), check)

    def _import_cli(self) -> None:
        from idemnorm import cli

        self._cli = cli


# -- sweep-abelian --------------------------------------------------------------

# Each group appears in two presentations where it has two (Z12 = Z3xZ4,
# Z2xZ6 = Z2xZ2xZ3, Z14 = Z2xZ7), so a gain in one arithmetic path can be
# compared with the other.
SWEEP_POOL = ("Z12", "Z3xZ4", "Z2xZ6", "Z2xZ2xZ3", "Z13", "Z14", "Z2xZ7")


def parse_factors(spec: str) -> tuple[int, ...]:
    return tuple(int(part[1:]) for part in spec.lower().split("x"))


class SweepAbelian(Workload):
    name = "sweep-abelian"
    unit = "subset"
    round_s = 11.0

    def __init__(self, workdir: str, pool: tuple[str, ...] = SWEEP_POOL):
        super().__init__(workdir)
        self.pool = pool

    def setup(self) -> None:
        self._import_cli()
        self._cli.main(["sweep", "-g", "Z6", "--format", "json", "--out", self._out_path()])

    def rounds(self, seed: int) -> Iterator[list[Item]]:
        rng = random.Random(seed)
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            yield [self._item(spec) for spec in order]

    def _item(self, spec: str) -> Item:
        from oracles import check_sweep

        factors = parse_factors(spec)
        return self._cli_item(spec, 2 ** math.prod(factors), ["sweep", "-g", spec],
                              lambda report: check_sweep(report, factors))


# -- norm-large ------------------------------------------------------------------

NORM_GROUPS = ("Z1024", "Z32xZ32", "x".join(["Z2"] * 10))
COSET_SIZE = 256
TWO_COSET_SUBGROUP_SIZE = 32
RANDOM_SIZE = 341  # about a third of 1024, and not a power of two, so never a
                   # coset or a union of two cosets in these 2-groups


def _index(factors, coords) -> int:
    """Mixed-radix index, last coordinate fastest (idemnorm's element order)."""
    out = 0
    for c, f in zip(coords, factors):
        out = out * f + c % f
    return out


def _add(factors, a, b) -> tuple[int, ...]:
    return tuple((x + y) % f for x, y, f in zip(a, b, factors))


def _closure(identity, gens, mul) -> set:
    """The subgroup generated by `gens`: all products of generators."""
    members = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in members:
                    members.add(y)
                    fresh.append(y)
        frontier = fresh
    return members


def _span(factors, gens) -> set:
    return _closure(tuple(0 for _ in factors), gens, lambda x, g: _add(factors, x, g))


def _random_element(rng, factors) -> tuple[int, ...]:
    return tuple(rng.randrange(f) for f in factors)


def _random_subgroup(rng, factors, size: int) -> set:
    while True:
        # in Z2^k a subgroup of size 2^d needs d generators
        count = size.bit_length() - 1 if max(factors) == 2 else rng.randint(1, 2)
        sub = _span(factors, [_random_element(rng, factors) for _ in range(count)])
        if len(sub) == size:
            return sub


def _relative_order(factors, c, sub: set) -> int:
    k, x = 1, c
    while x not in sub:
        x = _add(factors, x, c)
        k += 1
    return k


class NormLarge(Workload):
    name = "norm-large"
    round_s = 4.0

    def setup(self) -> None:
        self._import_cli()
        self._cli.main(["norm", "-g", "Z32xZ32", "-s", "0,1", "--format", "json",
                        "--out", self._out_path()])

    def rounds(self, seed: int) -> Iterator[list[Item]]:
        rng = random.Random(seed)
        while True:
            items = []
            for spec in NORM_GROUPS:
                factors = parse_factors(spec)
                # two cosets per group put the median call inside the cluster
                # of Z2^10 cosets, away from the gaps between call costs
                items += [self._coset(rng, spec, factors) for _ in range(2)]
                if max(factors) > 2:  # Z2^10 has no element of order >= 3
                    items.append(self._two_cosets(rng, spec, factors))
                items.append(self._item(spec, rng.sample(range(1024), RANDOM_SIZE),
                                        "other", None))
            yield items

    def _coset(self, rng, spec, factors) -> Item:
        sub = _random_subgroup(rng, factors, COSET_SIZE)
        a = _random_element(rng, factors)
        subset = [_index(factors, _add(factors, a, h)) for h in sub]
        return self._item(spec, subset, "coset", None)

    def _two_cosets(self, rng, spec, factors) -> Item:
        q = rng.choice((4, 8))  # the relative orders >= 3 a 2-group allows, up to 8
        sub = _random_subgroup(rng, factors, TWO_COSET_SUBGROUP_SIZE)
        while True:
            c = _random_element(rng, factors)
            if _relative_order(factors, c, sub) == q:
                break
        a = _random_element(rng, factors)
        b = _add(factors, a, c)
        subset = [_index(factors, _add(factors, rep, h)) for rep in (a, b) for h in sub]
        return self._item(spec, subset, "two_cosets", q)

    def _item(self, spec, subset, kind, q) -> Item:
        from oracles import check_norm

        subset = sorted(subset)
        return self._cli_item(f"{spec} {kind}", 1,
                              ["norm", "-g", spec, "-s", ",".join(map(str, subset))],
                              lambda payload: check_norm(payload, subset, kind, q))


# -- cb-nonabelian ----------------------------------------------------------------

# The matrices of cb-nonabelian and gamma2-literal are drawn once, from
# CORPUS_SEED; a run's seed then maps each to a copy whose matrix has its rows
# and columns permuted (and, in gamma2-literal, may be transposed), and
# gamma2-literal shuffles the calls of a round.  gamma2 and every step of its
# solver commute with these maps, so the solver takes the same number of
# steps on each copy: runs with different seeds do the same work, and the
# inputs that need the most steps are in every run.  With fresh draws per seed
# the median call moved by 15-20% from seed to seed, because the steps a
# matrix needs vary fivefold between draws.
CORPUS_SEED = 0
DENSITIES = (0.25, 0.5, 0.75)


def dihedral_table(m: int) -> list[list[int]]:
    """Cayley table of the dihedral group of order 2m: r^i s^j at index
    i + m j, with s r = r^-1 s."""
    def mul(a: int, b: int) -> int:
        i, j = a % m, a // m
        k, l = b % m, b // m
        return (i + (k if j == 0 else -k)) % m + m * (j ^ l)

    return [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]


def _random_mask(rng, n: int, density: float) -> int:
    while True:
        mask = sum(1 << i for i in range(n) if rng.random() < density)
        if mask:
            return mask


def _planted_coset(rng, table, identity: int) -> int:
    n = len(table)
    gens = [rng.randrange(n) for _ in range(rng.randint(1, 2))]
    members = _closure(identity, gens, lambda x, g: table[x][g])
    a = rng.randrange(n)
    return sum(1 << table[a][h] for h in members)


class CbNonabelian(Workload):
    name = "cb-nonabelian"
    round_s = 4.6

    def setup(self) -> None:
        from idemnorm import builtin_group, load_cayley_group, multiplier

        self._multiplier = multiplier
        self.groups = [builtin_group(name) for name in ("S3", "D4", "Q8")]
        self.groups += [load_cayley_group(dihedral_table(m), 0, name=f"D{m}")
                        for m in (8, 16, 32)]
        self.tables = [group.table.tolist() for group in self.groups]
        # {e, r, r^2} in D4 holds the forbidden pattern, so this fills the
        # pattern_witness cache
        multiplier.cb_norm(self.groups[1], 0b111)

    # random masks per round for each group order; densities rotate through
    # DENSITIES from call to call
    RANDOM_PER_ROUND = {6: 1, 8: 1, 16: 9, 32: 5, 64: 2}

    def rounds(self, seed: int) -> Iterator[list[Item]]:
        # Every round draws the same random masks from CORPUS_SEED, and the
        # seed translates each on the right, S -> Sg, which permutes the
        # columns of its multiplier matrix.  So each mask comes once a round:
        # the slowest calls, which set call_tail_s, are then a few masks met
        # several times each, and not the fastest few of many distinct masks.
        rng = random.Random(seed)
        while True:
            corpus = random.Random(CORPUS_SEED)
            densities = itertools.cycle(DENSITIES)
            items = []
            for group, table in zip(self.groups, self.tables):
                for _ in range(self.RANDOM_PER_ROUND[group.order]):
                    mask = _random_mask(corpus, group.order, next(densities))
                    g = rng.randrange(group.order)
                    mask = sum(1 << table[s][g] for s in range(group.order) if mask >> s & 1)
                    items.append(self._item(group, table, mask, None))
                items.append(self._item(group, table,
                                        _planted_coset(rng, table, group.identity), 1.0))
            yield items

    def _item(self, group, table, mask: int, expected) -> Item:
        from idemnorm.schur import Gamma2ConvergenceError

        from oracles import check_bracket, multiplier_from_table

        def run():
            try:
                return self._multiplier.cb_norm(group, mask)
            except Gamma2ConvergenceError as exc:
                return exc

        def check(bounds) -> str:
            if isinstance(bounds, Gamma2ConvergenceError):
                return NONCONVERGENCE
            matrix = multiplier_from_table(table, group.identity, mask)
            return "; ".join(check_bracket(matrix, bounds, expected)) or OK

        kind = "random" if expected is None else "coset"
        return Item(f"{group.name} {kind}", 1, run, check)


# -- gamma2-literal ---------------------------------------------------------------

def _disguise(rng, rows: list[list[float]]) -> list[list[float]]:
    """A copy of `rows` with rows and columns permuted, transposed or not."""
    perm_rows = rng.sample(range(len(rows)), len(rows))
    perm_cols = rng.sample(range(len(rows[0])), len(rows[0]))
    out = [[rows[i][j] for j in perm_cols] for i in perm_rows]
    if rng.random() < 0.5:
        out = [list(column) for column in zip(*out)]
    return out


class Gamma2Literal(Workload):
    name = "gamma2-literal"
    round_s = 2.5

    def setup(self) -> None:
        self._import_cli()
        self._cli.main(["schur", "--f0", "--format", "json", "--out", self._out_path()])

    def rounds(self, seed: int) -> Iterator[list[Item]]:
        corpus = random.Random(CORPUS_SEED)
        rng = random.Random(seed)
        zero_one_sizes = itertools.cycle(range(8, 13))
        gaussian_sizes = itertools.cycle(range(4, 13))
        while True:
            items = [self._item("f0", None, PATTERN_NORM)]
            for _ in range(4):
                n = next(zero_one_sizes)
                rows = [[float(corpus.random() < 0.5) for _ in range(n)] for _ in range(n)]
                items.append(self._item(f"zero-one {n}x{n}", _disguise(rng, rows), None))
            for _ in range(2):
                rows = [[corpus.choice((-1.0, 1.0)) for _ in range(8)] for _ in range(8)]
                items.append(self._item("sign 8x8", _disguise(rng, rows), None))
            for _ in range(2):
                n = next(gaussian_sizes)
                rows = [[corpus.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
                items.append(self._item(f"gaussian {n}x{n}", _disguise(rng, rows), None))
            rng.shuffle(items)
            yield items

    def _item(self, label: str, rows, expected) -> Item:
        import numpy as np
        from idemnorm.schur import Gamma2Bounds, forbidden_pattern

        from oracles import check_bracket

        matrix = forbidden_pattern() if rows is None else np.array(rows)
        argv = ["schur", "--f0"] if rows is None else ["schur", json.dumps(rows)]
        return self._cli_item(label, 1, argv, lambda payload: check_bracket(
            matrix, Gamma2Bounds.from_dict(payload), expected))


WORKLOADS = {w.name: w for w in (SweepAbelian, CbNonabelian, NormLarge, Gamma2Literal)}
