"""Cross-validation harness: every independent route to the same number is
run against the others at desk-scale bounds.

Each check is a generator registered in a fixed order.  It yields one
``(what, case, got, want)`` tuple per input it tries; the runner compares
the two values, counts the cases and prints one PASS/FAIL row per check,
naming the first input where the routes disagree.  The runner keeps going
after a failure so a broken build still prints the whole table.  Module
references are looked up late so a monkeypatched function is genuinely
exercised.
"""

from __future__ import annotations

import io
import random
import sys
from collections.abc import Callable, Iterator

from . import bigint, chains, fib_core, incidence, konvalina, paths_fences, poset
from .bigint import decimal
from .record import Record

CROSSCHECK_MAX_N = 100  # boxes-dp-vs-brute runs 50 * max_n weight vectors
SHOW_MAX = 60  # a value printed in a FAIL row is cut to its head and tail beyond this


class CrosscheckConfig(Record):
    """Bounds of the crosscheck table, checked when it is made."""

    __slots__ = ("max_n", "oracle_max_n")

    def __init__(self, max_n: int = 10, oracle_max_n: int = 7) -> None:
        if max_n < 1 or oracle_max_n < 1:
            raise ValueError("bounds must be >= 1")
        if max_n > CROSSCHECK_MAX_N:
            raise ValueError(f"max_n is bounded by {CROSSCHECK_MAX_N}, got {max_n}")
        if oracle_max_n > max_n:
            raise ValueError(f"oracle_max_n ({oracle_max_n}) must not exceed max_n ({max_n})")
        if oracle_max_n > chains.ORACLE_MAX_N:  # a usage error, not two DFS FAIL rows
            bound = chains.ORACLE_MAX_N
            raise ValueError(f"oracle_max_n ({oracle_max_n}) exceeds the DFS oracle bound ({bound})")
        self._fill(max_n, oracle_max_n)


Case = tuple[str, object, object, object]  # (what, case, got, want)
Check = Callable[[CrosscheckConfig], Iterator[Case]]
CHECKS: list[tuple[str, Check]] = []


def _check(name: str):
    def register(fn):
        CHECKS.append((name, fn))
        return fn

    return register


# --- fibonomial calculus ------------------------------------------------------


@_check("fibonomial-symmetry")
def _fibonomial_symmetry(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(21):
        for k in range(n + 1):
            want = fib_core.fibonomial_def(n, k)
            yield "symmetry", (n, k), fib_core.fibonomial_def(n, n - k), want


@_check("fibonomial-recurrences")
def _fibonomial_recurrences(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(21):
        for k in range(n + 1):
            want = fib_core.fibonomial_def(n, k)
            for form in ("A", "B"):
                yield f"form {form}", (n, k), fib_core.fibonomial_rec(n, k, form), want


@_check("fibonomial-cross-identity")
def _fibonomial_cross_identity(cfg: CrosscheckConfig) -> Iterator[Case]:
    # F_k (n, k) = F_{n-k+1} (n, k-1): the identity that makes the two forms agree
    for n in range(1, 21):
        for k in range(1, n + 1):
            lhs = fib_core.fib(k) * fib_core.fibonomial_def(n, k)
            rhs = fib_core.fib(n - k + 1) * fib_core.fibonomial_def(n, k - 1)
            yield "cross identity", (n, k), lhs, rhs


@_check("fibonomial-integrality")
def _fibonomial_integrality(cfg: CrosscheckConfig) -> Iterator[Case]:
    fact = [fib_core.psi_factorial(fib_core.FIBONACCI, m) for m in range(61)]
    for n in range(61):
        for k in range(n + 1):
            # def raises ArithmeticError on a remainder; its quotient must also multiply back
            got = fib_core.fibonomial_def(n, k) * fact[k] * fact[n - k]
            yield "def times F_k! F_(n-k)!", (n, k), got, fact[n]
    # decimal() read back by a route that shares nothing with libmpdec, at and around its split widths
    values = [fib_core.psi_falling(fib_core.FIBONACCI, 241, 121)]
    rng = random.Random(20240302)
    values += [rng.getrandbits(16400) for _ in range(2)]
    values += [(1 << (1024 << i)) + d for i in range(4) for d in (-1, 1)]
    for i, v in enumerate(values):
        text, got = bigint.decimal(v), 0
        for j in range(0, len(text), 600):  # Horner's rule over 600-digit chunks, each read by int()
            got = got * 10 ** len(text[j : j + 600]) + int(text[j : j + 600])
        canonical = text.isascii() and text.isdigit() and text[0] != "0"
        yield "decimal does not read back", f"{v.bit_length()}-bit value {i}", got if canonical else None, v


@_check("natural-binomial")
def _natural_binomial(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(21):
        for k in range(n + 1):
            got = fib_core.psi_binomial(fib_core.NATURAL, n, k)
            yield "natural binomial", (n, k), got, konvalina.pascal_binomial(n, k)


# --- poset structure ----------------------------------------------------------


@_check("linear-index-roundtrip")
def _linear_roundtrip(cfg: CrosscheckConfig) -> Iterator[Case]:
    last_level = 0
    for i in range(fib_core.fib(14)):
        v = poset.from_linear(i)
        yield "to_linear(from_linear(i))", i, poset.to_linear(v), i
        yield "levels monotone", i, v.level >= last_level, True
        last_level = v.level


@_check("order-axioms")
def _order_axioms(cfg: CrosscheckConfig) -> Iterator[Case]:
    verts = poset.truncate(7).vertices
    for u in verts:
        yield "reflexive", u, poset.leq(u, u), True
    for u in verts:
        for v in verts:
            if poset.leq(u, v) and poset.leq(v, u):
                yield "antisymmetric", (u, v), u == v, True
    for u in verts:
        for v in verts:
            if not poset.leq(u, v):
                continue
            for w in verts:
                if poset.leq(v, w):
                    yield "transitive", (u, v, w), poset.leq(u, w), True
    z = incidence.zeta_from_order(7)  # it closes the cover edges and never calls leq
    for u in verts:
        for v in verts:
            want = z.entry(poset.to_linear(u), poset.to_linear(v))
            yield "leq vs zeta_from_order", (u, v), int(poset.leq(u, v)), want


@_check("edge-counts")
def _edge_counts(cfg: CrosscheckConfig) -> Iterator[Case]:
    for L in range(min(cfg.max_n, 12) + 1):
        t = poset.truncate(L)
        want = sum(poset.level_size(s) * poset.level_size(s + 1) for s in range(L))
        yield "edge count", f"L={L}", len(t.edges), want
        yield "cover heads", f"L={L}", [(i, j) for i, hs in enumerate(poset._cover_heads(t)) for j in hs], [*t.edges]
        yield "vertex count", f"L={L}", t.vertex_count, fib_core.fib(L + 2)


@_check("copy-enumeration")
def _copy_enumeration(cfg: CrosscheckConfig) -> Iterator[Case]:
    for k in range(7):
        for m in range(7 - k):
            for j in range(1, poset.level_size(k) + 1):
                root = poset.Vertex(k, j)
                want = sum(1 for _ in poset.enumerate_copies_rooted(root, m))
                yield "copy count", f"root {root}, m={m}", poset.count_copies_rooted(root, m), want


# --- incidence algebra ---------------------------------------------------------


@_check("zeta-two-routes")
def _zeta_two_routes(cfg: CrosscheckConfig) -> Iterator[Case]:
    for L in range(min(cfg.max_n, 12) + 1):
        z = incidence.zeta_from_order(L)
        yield "closure has a level form", f"L={L}", z.level_form() is not None, True
        yield "explicit zeta", f"L={L}", incidence.zeta_explicit(fib_core.fib(L + 2)).rows, z.rows


@_check("zeta-row-zeros")
def _zeta_row_zeros(cfg: CrosscheckConfig) -> Iterator[Case]:
    L = min(cfg.max_n, 12)
    z = incidence.zeta_from_order(L)
    for x in range(z.size):
        v = poset.from_linear(x)
        zeros = sum(1 for j in range(x + 1, z.size) if z.entry(x, j) == 0)
        yield "zeros right of the diagonal", f"row {x}", zeros, poset.level_size(v.level) - v.pos


@_check("mobius-inverse")
def _mobius_inverse(cfg: CrosscheckConfig) -> Iterator[Case]:
    for L in range(min(cfg.max_n, 10) + 1):
        z = incidence.zeta_from_order(L)
        m = incidence.mobius(z)
        product = m * z
        forms = [x.level_form() is not None for x in (z, m, product)]
        yield "zeta, mu, mu * zeta have level forms", f"L={L}", forms, [True] * 3
        want = incidence._back_substitute(z).rows
        yield "level and dense mu disagree", f"L={L}", m.rows, want
        ident = incidence.TriangularMatrix.identity(z.size).rows
        dense = incidence.TriangularMatrix(m.rows) * z  # a matrix built from rows has no level form
        yield "level vs Kronecker product", f"L={L}", product.rows, dense.rows
        yield "mu * zeta = delta", f"L={L}", product.rows, ident
        yield "zeta * mu = delta", f"L={L}", (z * m).rows, ident
        levels = [poset.from_linear(i).level for i in range(z.size)] if L <= 6 else []
        for x, y in ((x, y) for y in range(len(levels)) for x in range(y)):  # Hall: mu sums chains by sign
            hall = sum((-1) ** t * incidence.chain_count(z, x, y, t) for t in range(1, levels[y] - levels[x] + 1))
            yield "Hall's alternating chain sum", f"L={L}, {x} < {y}", hall, m.entry(x, y)


@_check("eta-nilpotent")
def _eta_nilpotent(cfg: CrosscheckConfig) -> Iterator[Case]:
    for L in range(min(cfg.max_n, 7) + 1):
        e = incidence.eta(incidence.zeta_from_order(L))
        yield "eta^(L+1), so eta, has a level form", f"L={L}", (top := e.power(L + 1)).level_form() is not None, True
        yield "eta^(L+1) is zero", f"L={L}", top.is_zero(), True
        if L >= 1:
            yield "eta^L is nonzero", f"L={L}", not e.power(L).is_zero(), True


@_check("strict-chains-dfs")
def _strict_chains_dfs(cfg: CrosscheckConfig) -> Iterator[Case]:
    L = min(cfg.oracle_max_n, 6)
    z = incidence.zeta_from_order(L)
    n = z.size
    yield "closure has a level form", f"L={L}", z.level_form() is not None, True

    def dfs_count(x: int, y: int) -> int:  # strict chains of any length
        total = 0
        for t in range(x + 1, y + 1):
            if z.entry(x, t):
                total += 1 if t == y else dfs_count(t, y)
        return total

    lengths = range(1, max(L, 1) + 1)
    powers = [incidence.eta(z).power(t) for t in lengths]
    for x in range(n):
        for y in range(x + 1, n):
            want = dfs_count(x, y)
            yield "eta power sum", (x, y), sum(p.entry(x, y) for p in powers), want
            counts = [incidence.chain_count(z, x, y, t) for t in lengths]
            yield "chain_count totals", (x, y), sum(counts), want
            dense = [incidence._vec_mat_chains(z.rows, x, y, t) for t in lengths]
            yield "level vs dense chain_count", (x, y), counts, dense


@_check("export-level-vs-rows")
def _export_level_vs_rows(cfg: CrosscheckConfig) -> Iterator[Case]:
    # each export of a level form against that of rows no level form built: zeta's from the closure's
    # bitsets, mu's as mobius-inverse checks them against back-substitution
    exports = ("to_dense_text", "to_csv", "to_json_text", "to_json_dict")
    for L in range(min(cfg.max_n, 10) + 1):
        z = incidence.zeta_from_order(L)
        m = incidence.mobius(z)
        zetas = {"explicit zeta": incidence.zeta_explicit(z.size), "closure": z}
        for rows, named in (z.rows, zetas), (m.rows, {"mu": m}):
            plain = incidence.TriangularMatrix(rows)
            wants = [getattr(plain, e)() for e in exports]
            for name, level in named.items():
                yield "has a level form", f"{name}, L={L}", level.level_form() is not None, True
                yield from ((e, f"{name}, L={L}", getattr(level, e)(), want) for e, want in zip(exports, wants))


# --- chain interpretation -------------------------------------------------------


@_check("copy-count-examples")
def _copy_count_examples(cfg: CrosscheckConfig) -> Iterator[Case]:
    # the five worked level-factor values, then the two flagged k=1 cases
    cases = {(3, 4): 6, (2, 4): 6, (3, 5): 30, (2, 5): 15, (4, 5): 15}
    for (k, n), want in cases.items():
        got = poset.level_size(k) * chains.fibonomial_via_chains(n, k)
        yield "level factor * fibonomial", f"k={k}, n={n}", got, want
    for n, value in ((4, 3), (5, 5)):
        rep = chains.check_k1_degeneracy(n)
        yield "k=1 report (flagged, value)", f"n={n}", (rep.flagged, rep.value), (True, value)


@_check("root-chains-dfs")
def _root_chains_dfs(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(cfg.oracle_max_n + 1):
        got = chains.brute_force_max_chains(0, n, poset.ROOT)
        yield "DFS root chains", f"n={n}", got, chains.max_chains_from_root(n)


@_check("fixed-chains-dfs")
def _fixed_chains_dfs(cfg: CrosscheckConfig) -> Iterator[Case]:
    dfs = {}
    for n in range(cfg.oracle_max_n + 1):
        for k in range(n + 1):
            want = chains.max_chains_from_fixed(k, n)
            for j in range(1, poset.level_size(k) + 1):
                dfs[k, n, j] = chains.brute_force_max_chains(k, n, poset.Vertex(k, j))
                yield "DFS fixed chains", f"k={k}, n={n}, pos {j}", dfs[k, n, j], want
    # the same DFS counts against the saturated-chain matrix of every truncation holding level n
    for (k, n, j), want in dfs.items():
        for L in range(n, cfg.oracle_max_n + 1):
            row = incidence.maximal_chain_matrix(L, k, n)[j - 1]
            case = f"L={L}, k={k}, n={n}, pos {j}"
            yield "chain matrix row sum vs DFS", case, sum(row), want
            if k < n:
                yield "chain matrix row entries equal", case, len(set(row)), 1
            else:
                unit = [int(i == j) for i in range(1, len(row) + 1)]
                yield "chain matrix identity row", case, row, unit


@_check("chain-division-identity")
def _chain_division_identity(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(1, min(cfg.max_n, 12) + 1):
        for k in range(1, n + 1):
            lhs = (
                poset.level_size(k)
                * chains.fibonomial_via_chains(n, k)
                * fib_core.psi_factorial(fib_core.FIBONACCI, n - k)
            )
            yield "division identity", f"k={k}, n={n}", lhs, chains.max_chains_level_to_level(k, n)


@_check("recurrence-split")
def _recurrence_split(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(1, 21):
        for k in range(1, n + 1):
            first, second = chains.recurrence_class_split(n, k)
            yield "split sum", (n, k), first + second, fib_core.fibonomial_def(n + 1, k)


@_check("fibonomial-five-way")
def _fibonomial_five_way(cfg: CrosscheckConfig) -> Iterator[Case]:
    top = min(cfg.max_n, 12)
    for n in range(top + 1):
        for k in range(n + 1):
            want = fib_core.fibonomial_def(n, k)
            yield "recA", (n, k), fib_core.fibonomial_rec(n, k, "A"), want
            yield "recB", (n, k), fib_core.fibonomial_rec(n, k, "B"), want
            yield "chains", (n, k), chains.fibonomial_via_chains(n, k), want
            yield "gv", (n, k), paths_fences.fibonomial_via_gv(n, k), want


# --- weighted boxes -------------------------------------------------------------


@_check("boxes-dp-vs-brute")
def _boxes_dp_vs_brute(cfg: CrosscheckConfig) -> Iterator[Case]:
    rng = random.Random(20240301)
    for _ in range(50 * cfg.max_n):
        n = rng.randint(1, 8)
        w = konvalina.WeightVector(tuple(sorted(rng.randint(1, 5) for _ in range(n))))
        for k in range(n + 1):
            want = konvalina.brute_sum(w, k, "first")
            yield "first kind DP", f"w={w.weights}, k={k}", konvalina.c_first_kind(w, k), want
        for k in range(9):
            want = konvalina.brute_sum(w, k, "second")
            yield "second kind DP", f"w={w.weights}, k={k}", konvalina.s_second_kind(w, k), want


@_check("boxes-specializations")
def _boxes_specializations(cfg: CrosscheckConfig) -> Iterator[Case]:
    first, second = konvalina.c_first_kind, konvalina.s_second_kind
    binom = konvalina.pascal_binomial
    for n in range(1, 11):
        w = konvalina.specialize("uniform", n)
        for k in range(n + 1):
            yield "uniform first kind", (n, k), first(w, k), binom(n, k)
        for k in range(11):
            yield "uniform second kind", (n, k), second(w, k), binom(n + k - 1, k)
    for q in (2, 3):
        for n in range(1, 7):
            w = konvalina.specialize("geometric", n, q)
            for k in range(n + 1):
                want = q ** (k * (k - 1) // 2) * konvalina.gaussian_binomial(n, k, q)
                yield "geometric first kind", f"({n}, {k}), q={q}", first(w, k), want
            for k in range(7):
                want = konvalina.gaussian_binomial(n + k - 1, k, q)
                yield "geometric second kind", f"({n}, {k}), q={q}", second(w, k), want
    for n in range(1, 8):
        w = konvalina.specialize("arithmetic", n)
        for k in range(8):
            yield "arithmetic second kind", (n, k), second(w, k), konvalina.stirling2(n + k, n)
        for k in range(n + 1):
            want = konvalina.stirling1_unsigned(n + 1, n + 1 - k)
            yield "arithmetic first kind", (n, k), first(w, k), want


# --- fences ----------------------------------------------------------------------


@_check("fence-brute-vs-transfer")
def _fence_brute_vs_transfer(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(1, 19):
        want = paths_fences.fence_ideals_brute(n)
        yield "sweep vs brute", f"n={n}", paths_fences.fence_ideals(n), want
    for n in range(1, 13):
        got = paths_fences.fence_ideals_brute(n, up_first=False)
        yield "mirrored brute vs sweep", f"n={n}", got, paths_fences.fence_ideals(n)


@_check("fence-fibonacci")
def _fence_fibonacci(cfg: CrosscheckConfig) -> Iterator[Case]:
    cap = fib_core._FIB_CAP  # a table up to here, doubling above it; F_(3 cap+3) takes the odd last bit from an odd m
    for n in [*range(1, 21), cap - 3, cap - 2, cap - 1, 3 * cap, 3 * cap + 1]:
        yield "fence ideals vs F_(n+2)", f"n={n}", paths_fences.fence_ideals(n), fib_core.fib(n + 2)


@_check("beck-identities")
def _beck_identities(cfg: CrosscheckConfig) -> Iterator[Case]:
    for n in range(1, 31):
        for k in range(1, n + 1):
            for form in (1, 2):
                got = paths_fences.beck_identity(n, k, form)
                yield f"form {form} identity", f"k={k}, n={n}", got, True


# --- runner ----------------------------------------------------------------------


def _show(value) -> str:
    """``value`` as one line of text, a newline as ``\\n``; past SHOW_MAX characters, its head, tail and length."""
    text = decimal(value) if isinstance(value, int) else str(value).replace("\n", "\\n")
    if len(text) <= SHOW_MAX:
        return text
    return f"{text[:24]}...{text[-24:]} ({len(text)} chars)"


def _verdict(check: Check, cfg: CrosscheckConfig) -> str | None:
    """None if every case of ``check`` agrees; otherwise the reason for a FAIL row."""
    count = 0
    try:
        for what, case, got, want in check(cfg):
            if got != want:
                return f"{what} at {_show(case)}: got {_show(got)}, want {_show(want)}"
            count += 1
    except Exception as exc:  # a crash is a failure, not an abort
        return f"{type(exc).__name__}: {exc}"
    return None if count else "no cases ran"


def run_crosschecks(cfg: CrosscheckConfig, stream: io.TextIOBase | None = None) -> int:
    """Run every registered check in order; print one PASS/FAIL row each.

    Returns 0 if all pass, 1 otherwise.
    """
    if stream is None:
        stream = sys.stdout
    failures = 0
    for name, check in CHECKS:
        err = _verdict(check, cfg)
        if err is None:
            print(f"PASS  {name}", file=stream)
        else:
            failures += 1
            print(f"FAIL  {name}: {err}", file=stream)
    print(f"{len(CHECKS)} checks: {len(CHECKS) - failures} passed, {failures} failed", file=stream)
    return 0 if failures == 0 else 1
