"""Cross-validation harness: every independent route to the same number is
run against the others at desk-scale bounds.

Checks are registered in a fixed order and report PASS/FAIL one line each;
the runner keeps going after a failure so a broken build still prints the
whole table.  Module references are looked up late so a monkeypatched
function is genuinely exercised.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable, TextIO

from . import chains, fib_core, incidence, konvalina, paths_fences, poset


@dataclass
class CrosscheckConfig:
    max_n: int = 10
    oracle_max_n: int = 7

    def __post_init__(self) -> None:
        if self.max_n < 1 or self.oracle_max_n < 1:
            raise ValueError("bounds must be >= 1")
        if self.oracle_max_n > self.max_n:
            raise ValueError(
                f"oracle_max_n ({self.oracle_max_n}) must not exceed max_n ({self.max_n})"
            )
        bound = chains.oracle_max()  # a bad COBWEB_ORACLE_MAX is a usage error, not a FAIL row
        if self.oracle_max_n > bound:
            raise ValueError(
                f"oracle_max_n ({self.oracle_max_n}) exceeds the DFS oracle bound ({bound}); "
                f"lower it or raise {chains.ORACLE_MAX_ENV}"
            )


class CheckFailure(Exception):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


CHECKS: list[tuple[str, Callable[[CrosscheckConfig], None]]] = []


def _check(name: str):
    def register(fn):
        CHECKS.append((name, fn))
        return fn

    return register


# --- fibonomial calculus ------------------------------------------------------


@_check("fibonomial-symmetry")
def _fibonomial_symmetry(cfg: CrosscheckConfig) -> None:
    for n in range(21):
        for k in range(n + 1):
            _expect(
                fib_core.fibonomial_def(n, k) == fib_core.fibonomial_def(n, n - k),
                f"symmetry broke at ({n}, {k})",
            )


@_check("fibonomial-recurrences")
def _fibonomial_recurrences(cfg: CrosscheckConfig) -> None:
    for n in range(21):
        for k in range(n + 1):
            want = fib_core.fibonomial_def(n, k)
            for form in ("A", "B"):
                got = fib_core.fibonomial_rec(n, k, form)
                _expect(got == want, f"form {form} gave {got} != {want} at ({n}, {k})")


@_check("fibonomial-cross-identity")
def _fibonomial_cross_identity(cfg: CrosscheckConfig) -> None:
    # F_k (n, k) = F_{n-k+1} (n, k-1): the identity that makes the two forms agree
    for n in range(1, 21):
        for k in range(1, n + 1):
            lhs = fib_core.fib(k) * fib_core.fibonomial_def(n, k)
            rhs = fib_core.fib(n - k + 1) * fib_core.fibonomial_def(n, k - 1)
            _expect(lhs == rhs, f"cross identity broke at ({n}, {k})")


@_check("fibonomial-integrality")
def _fibonomial_integrality(cfg: CrosscheckConfig) -> None:
    for n in range(61):
        for k in range(n + 1):
            fib_core.fibonomial_def(n, k)  # raises ArithmeticError on remainder
    # the divisors above stay below the recursive division's limit; this pair,
    # 15 065 over 4 985 bits, takes the recursive path through an odd split
    a = fib_core.psi_falling(fib_core.FIBONACCI, 241, 121)
    b = fib_core.psi_factorial(fib_core.FIBONACCI, 121)
    got, want = fib_core._divmod(a, b), divmod(a, b)
    _expect(got == want, "_divmod disagrees with divmod on falling/factorial at (241, 121)")


@_check("natural-binomial")
def _natural_binomial(cfg: CrosscheckConfig) -> None:
    for n in range(21):
        for k in range(n + 1):
            got = fib_core.psi_binomial(fib_core.NATURAL, n, k)
            want = konvalina.pascal_binomial(n, k)
            _expect(got == want, f"natural binomial gave {got} != {want} at ({n}, {k})")


# --- poset structure ----------------------------------------------------------


@_check("linear-index-roundtrip")
def _linear_roundtrip(cfg: CrosscheckConfig) -> None:
    last_level = 0
    for i in range(fib_core.fib(14)):
        v = poset.from_linear(i)
        _expect(poset.to_linear(v) == i, f"roundtrip broke at {i}")
        _expect(v.level >= last_level, f"levels not monotone at {i}")
        last_level = v.level


@_check("order-axioms")
def _order_axioms(cfg: CrosscheckConfig) -> None:
    verts = poset.truncate(7).vertices
    for u in verts:
        _expect(poset.leq(u, u), f"not reflexive at {u}")
    for u in verts:
        for v in verts:
            if poset.leq(u, v) and poset.leq(v, u):
                _expect(u == v, f"not antisymmetric at {u}, {v}")
    for u in verts:
        for v in verts:
            if not poset.leq(u, v):
                continue
            for w in verts:
                if poset.leq(v, w):
                    _expect(poset.leq(u, w), f"not transitive at {u}, {v}, {w}")


@_check("edge-counts")
def _edge_counts(cfg: CrosscheckConfig) -> None:
    for L in range(min(cfg.max_n, 12) + 1):
        t = poset.truncate(L)
        want = sum(poset.level_size(s) * poset.level_size(s + 1) for s in range(L))
        _expect(len(t.edges) == want, f"edge count {len(t.edges)} != {want} at L={L}")
        _expect(t.vertex_count == fib_core.fib(L + 2), f"vertex count off at L={L}")


@_check("copy-enumeration")
def _copy_enumeration(cfg: CrosscheckConfig) -> None:
    for k in range(7):
        for m in range(7 - k):
            for j in range(1, poset.level_size(k) + 1):
                root = poset.Vertex(k, j)
                want = sum(1 for _ in poset.enumerate_copies_rooted(root, m))
                got = poset.count_copies_rooted(root, m)
                _expect(got == want, f"copy count {got} != {want} at root {root}, m={m}")


# --- incidence algebra ---------------------------------------------------------


@_check("zeta-two-routes")
def _zeta_two_routes(cfg: CrosscheckConfig) -> None:
    for L in range(min(cfg.max_n, 12) + 1):
        a = incidence.zeta_from_order(L)
        b = incidence.zeta_explicit(fib_core.fib(L + 2))
        _expect(a == b, f"zeta routes disagree at L={L}")


@_check("zeta-row-zeros")
def _zeta_row_zeros(cfg: CrosscheckConfig) -> None:
    L = min(cfg.max_n, 12)
    z = incidence.zeta_from_order(L)
    for x in range(z.size):
        v = poset.from_linear(x)
        zeros = sum(1 for j in range(x + 1, z.size) if z.entry(x, j) == 0)
        want = poset.level_size(v.level) - v.pos
        _expect(zeros == want, f"row {x} has {zeros} zeros, expected {want}")


@_check("mobius-inverse")
def _mobius_inverse(cfg: CrosscheckConfig) -> None:
    for L in range(min(cfg.max_n, 10) + 1):
        z = incidence.zeta_from_order(L)
        m = incidence.mobius(z)
        _expect(m == incidence._back_substitute(z), f"level and dense mu disagree at L={L}")
        ident = incidence.TriangularMatrix.identity(z.size)
        _expect(m * z == ident, f"mu * zeta != delta at L={L}")
        _expect(z * m == ident, f"zeta * mu != delta at L={L}")


@_check("eta-nilpotent")
def _eta_nilpotent(cfg: CrosscheckConfig) -> None:
    for L in range(min(cfg.max_n, 7) + 1):
        e = incidence.eta(incidence.zeta_from_order(L))
        _expect(e.power(L + 1).is_zero(), f"eta^{L + 1} != 0 at L={L}")
        if L >= 1:
            _expect(not e.power(L).is_zero(), f"eta^{L} vanished early at L={L}")


@_check("strict-chains-dfs")
def _strict_chains_dfs(cfg: CrosscheckConfig) -> None:
    L = min(cfg.oracle_max_n, 6)
    z = incidence.zeta_from_order(L)
    n = z.size

    def dfs_count(x: int, y: int) -> int:  # strict chains of any length
        total = 0
        for t in range(x + 1, y + 1):
            if z.entry(x, t):
                total += 1 if t == y else dfs_count(t, y)
        return total

    e = incidence.eta(z)
    acc = e - e
    p = e
    for _ in range(max(L, 1)):
        acc = acc + p
        p = p * e
    for x in range(n):
        for y in range(x + 1, n):
            want = dfs_count(x, y)
            _expect(acc.entry(x, y) == want, f"chain totals disagree at ({x}, {y})")
            got = sum(incidence.chain_count(z, x, y, t) for t in range(1, max(L, 1) + 1))
            _expect(got == want, f"chain_count totals {got} != {want} at ({x}, {y})")


# --- chain interpretation -------------------------------------------------------


@_check("copy-count-examples")
def _copy_count_examples(cfg: CrosscheckConfig) -> None:
    # the five worked level-factor values, then the two flagged k=1 cases
    cases = {(3, 4): 6, (2, 4): 6, (3, 5): 30, (2, 5): 15, (4, 5): 15}
    for (k, n), want in cases.items():
        got = poset.level_size(k) * chains.fibonomial_via_chains(n, k)
        _expect(got == want, f"level factor * fibonomial gave {got} != {want} at k={k}, n={n}")
    for n, value in ((4, 3), (5, 5)):
        rep = chains.check_k1_degeneracy(n)
        _expect(rep.flagged and rep.value == value, f"k=1 report wrong at n={n}: {rep}")


@_check("root-chains-dfs")
def _root_chains_dfs(cfg: CrosscheckConfig) -> None:
    for n in range(cfg.oracle_max_n + 1):
        got = chains.brute_force_max_chains(0, n, poset.ROOT)
        want = chains.max_chains_from_root(n)
        _expect(got == want, f"root chains {got} != {want} at n={n}")


@_check("fixed-chains-dfs")
def _fixed_chains_dfs(cfg: CrosscheckConfig) -> None:
    for n in range(cfg.oracle_max_n + 1):
        for k in range(n + 1):
            want = chains.max_chains_from_fixed(k, n)
            for j in range(1, poset.level_size(k) + 1):
                got = chains.brute_force_max_chains(k, n, poset.Vertex(k, j))
                _expect(got == want, f"fixed chains {got} != {want} at k={k}, n={n}, pos {j}")


@_check("chain-division-identity")
def _chain_division_identity(cfg: CrosscheckConfig) -> None:
    for n in range(1, min(cfg.max_n, 12) + 1):
        for k in range(1, n + 1):
            lhs = (
                poset.level_size(k)
                * chains.fibonomial_via_chains(n, k)
                * fib_core.psi_factorial(fib_core.FIBONACCI, n - k)
            )
            _expect(
                lhs == chains.max_chains_level_to_level(k, n),
                f"division identity broke at k={k}, n={n}",
            )


@_check("recurrence-split")
def _recurrence_split(cfg: CrosscheckConfig) -> None:
    for n in range(1, 21):
        for k in range(1, n + 1):
            first, second = chains.recurrence_class_split(n, k)
            want = fib_core.fibonomial_def(n + 1, k)
            _expect(first + second == want, f"split {first}+{second} != {want} at ({n}, {k})")


@_check("fibonomial-five-way")
def _fibonomial_five_way(cfg: CrosscheckConfig) -> None:
    top = min(cfg.max_n, 12)
    for n in range(top + 1):
        for k in range(n + 1):
            want = fib_core.fibonomial_def(n, k)
            results = {
                "recA": fib_core.fibonomial_rec(n, k, "A"),
                "recB": fib_core.fibonomial_rec(n, k, "B"),
                "chains": chains.fibonomial_via_chains(n, k),
                "gv": paths_fences.fibonomial_via_gv(n, k),
            }
            for name, got in results.items():
                _expect(got == want, f"{name} gave {got} != {want} at ({n}, {k})")


# --- weighted boxes -------------------------------------------------------------


@_check("boxes-dp-vs-brute")
def _boxes_dp_vs_brute(cfg: CrosscheckConfig) -> None:
    rng = random.Random(20240301)
    for _ in range(50 * cfg.max_n):
        n = rng.randint(1, 8)
        w = konvalina.WeightVector(tuple(sorted(rng.randint(1, 5) for _ in range(n))))
        for k in range(n + 1):
            _expect(
                konvalina.c_first_kind(w, k) == konvalina.brute_sum(w, k, "first"),
                f"first kind DP != brute at w={w.weights}, k={k}",
            )
        for k in range(9):
            _expect(
                konvalina.s_second_kind(w, k) == konvalina.brute_sum(w, k, "second"),
                f"second kind DP != brute at w={w.weights}, k={k}",
            )


@_check("boxes-specializations")
def _boxes_specializations(cfg: CrosscheckConfig) -> None:
    for n in range(1, 11):
        w = konvalina.specialize("uniform", n)
        for k in range(n + 1):
            _expect(
                konvalina.c_first_kind(w, k) == konvalina.pascal_binomial(n, k),
                f"uniform first kind off at ({n}, {k})",
            )
        for k in range(11):
            _expect(
                konvalina.s_second_kind(w, k) == konvalina.pascal_binomial(n + k - 1, k),
                f"uniform second kind off at ({n}, {k})",
            )
    for q in (2, 3):
        for n in range(1, 7):
            w = konvalina.specialize("geometric", n, q)
            for k in range(n + 1):
                want = q ** (k * (k - 1) // 2) * konvalina.gaussian_binomial(n, k, q)
                _expect(
                    konvalina.c_first_kind(w, k) == want,
                    f"geometric first kind off at ({n}, {k}, q={q})",
                )
            for k in range(7):
                want = konvalina.gaussian_binomial(n + k - 1, k, q)
                _expect(
                    konvalina.s_second_kind(w, k) == want,
                    f"geometric second kind off at ({n}, {k}, q={q})",
                )
    for n in range(1, 8):
        w = konvalina.specialize("arithmetic", n)
        for k in range(8):
            _expect(
                konvalina.s_second_kind(w, k) == konvalina.stirling2(n + k, n),
                f"arithmetic second kind off at ({n}, {k})",
            )
        for k in range(n + 1):
            _expect(
                konvalina.c_first_kind(w, k) == konvalina.stirling1_unsigned(n + 1, n + 1 - k),
                f"arithmetic first kind off at ({n}, {k})",
            )


# --- fences ----------------------------------------------------------------------


@_check("fence-brute-vs-transfer")
def _fence_brute_vs_transfer(cfg: CrosscheckConfig) -> None:
    for n in range(1, 19):
        want = paths_fences.fence_ideals_brute(n)
        _expect(paths_fences.fence_ideals(n) == want, f"fence sweep != brute at n={n}")
    for n in range(1, 13):
        _expect(
            paths_fences.fence_ideals_brute(n, up_first=False) == paths_fences.fence_ideals(n),
            f"mirrored fence count off at n={n}",
        )


@_check("fence-fibonacci")
def _fence_fibonacci(cfg: CrosscheckConfig) -> None:
    cap = fib_core._FIB_CAP  # fib reads a table up to here and doubles above it
    for n in [*range(1, 21), cap - 3, cap - 2, cap - 1, 3 * cap]:
        got = paths_fences.fence_ideals(n)
        want = fib_core.fib(n + 2)
        _expect(got == want, f"fence ideals {got} != F_{n + 2} = {want}")


@_check("beck-identities")
def _beck_identities(cfg: CrosscheckConfig) -> None:
    for n in range(1, 31):
        for k in range(1, n + 1):
            for form in (1, 2):
                _expect(
                    paths_fences.beck_identity(n, k, form),
                    f"form {form} identity failed at k={k}, n={n}",
                )


# --- runner ----------------------------------------------------------------------


def run_crosschecks(cfg: CrosscheckConfig, stream: TextIO | None = None) -> int:
    """Run every registered check in order; print one PASS/FAIL row each.

    Returns 0 if all pass, 1 otherwise.
    """
    if stream is None:
        stream = sys.stdout
    failures = 0
    for name, fn in CHECKS:
        try:
            fn(cfg)
            err = None
        except CheckFailure as exc:
            err = str(exc)
        except Exception as exc:  # a crash is a failure, not an abort
            err = f"{type(exc).__name__}: {exc}"
        if err is None:
            print(f"PASS  {name}", file=stream)
        else:
            failures += 1
            print(f"FAIL  {name}: {err}", file=stream)
    print(f"{len(CHECKS)} checks: {len(CHECKS) - failures} passed, {failures} failed", file=stream)
    return 0 if failures == 0 else 1
