"""Seeded workloads: input generators, jobs and their independent checks.

A workload is an endless sequence of rounds; a round is a fixed list of job
cells (operation, lambda kind, order) and the seed draws the input values
of every job.  The benchmark runs whole rounds, so every run measures the
same mix of cells.  Each job carries a check that recomputes its result by
another route; checks run outside the timed span.

The library is reached only through the `ps` package object handed to the
builders, so a traced run sees every call, and the library only ever gets
the generated inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence

WORKLOADS = ("lambda-uv", "lambda-z", "oracle", "cli")

UV = ("u", "v")
# Series-to-integers specialization that each Z[u,v] lambda kind maps onto
EULER_KIND = {"poly-product": "kapranov", "opposite": "binomial"}


class Job:
    """One unit of work: `run()` is timed, `check(result)` is not."""

    __slots__ = ("kind", "size", "run", "check")

    def __init__(self, kind: str, size: dict, run: Callable, check: Callable):
        self.kind = kind
        self.size = size
        self.run = run
        self.check = check


class Workload:
    def __init__(self, rounds: Callable[[int], List[Job]], warmups: List[Job], draws: "Draws"):
        self._round = rounds
        self.warmups = warmups
        self.draws = draws

    def rounds(self) -> Iterator[List[Job]]:
        for index in itertools.count():
            yield self._round(index)


class Draws:
    """Seeded value draws that do not hand out the same input twice.

    Should a very fast run use up an input space, the space is opened
    again and `reuse_epochs` counts how often that happened.
    """

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.reuse_epochs = 0
        self._seen = set()

    def fresh(self, draw: Callable[[random.Random], object]):
        for _ in range(200):
            value = draw(self.rng)
            key = hash(value)  # keeps the set small; a collision only costs a redraw
            if key not in self._seen:
                self._seen.add(key)
                return value
        self.reuse_epochs += 1
        self._seen.clear()
        return self.fresh(draw)


# -- helpers shared by generators and checks ---------------------------------------


def euler_value(c) -> int:
    """Value of an integer-polynomial at all variables = 1, from its terms."""
    if isinstance(c, int):
        return c
    return sum(coeff for _, coeff in c.sorted_terms())


def euler_series(ps, series):
    return ps.TruncatedSeries(ps.INTEGERS, [euler_value(c) for c in series.coefficients])


def partition_counts(order: int) -> List[int]:
    """p(0..order) by the coin-change recurrence."""
    counts = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            counts[n] += counts[n - part]
    return counts


def partitions(k: int):
    """Partitions of k as {part: multiplicity}, for counting raw tuples."""
    def rec(remaining, largest):
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                out = dict(rest)
                out[part] = out.get(part, 0) + 1
                yield out
    return rec(k, k)


def raw_tuples(m_size: int, coeff_sizes: Sequence[int], k: int) -> int:
    """Tuples the brute-force enumeration of one coefficient visits, by profile."""
    total = 0
    for profile in partitions(k):
        if any(i > len(coeff_sizes) for i in profile):
            continue
        raw = m_size ** sum(profile.values())
        for i, k_i in profile.items():
            raw *= coeff_sizes[i - 1] ** k_i
        total += raw
    return total


def signed(rng) -> int:
    return rng.choice((1, -1))


def swap_uv(exps: tuple, swap: bool) -> tuple:
    return exps[::-1] if swap else exps


# -- fixed shapes ---------------------------------------------------------------------

# Every lambda-uv input has one fixed shape; the seed draws only the signs and
# whether x is u or v.  Series: 1 +- x t +- t^2 +- t^3 +- t^4.  Exponent:
# +-1 +- y, with y = x ("same") or y the other variable ("other"), so powers
# over one and over two variables are both measured.  Cost depends mostly on
# the shape, so every seed measures the same mix and the figures stay steady.
X = (1, 0)
SERIES_SHAPE = (X, (0, 0), (0, 0), (0, 0))
EXPONENT_SHAPE = {"same": ((0, 0), X), "other": ((0, 0), X[::-1])}
# Hodge-type exponent a + b*uv, a, b in +-{1,2,3}, for zeta and hilb
HODGE_SHAPE = ((0, 0), (1, 1))

UV_ORDERS = (6, 8, 10, 12)
UV_MOTIVIC_ORDERS = (8, 12, 16)
# (op, lambda kind, order, series shape, exponent shape), one job each per round.
# The costliest cell, power over two variables at order 10, has two jobs per
# kind, so that well over ten of its jobs lie beyond the tail percentile.
UV_CELLS = [
    (op, lam, order, SERIES_SHAPE, EXPONENT_SHAPE["same"])
    for op in ("log", "exp", "power")
    for lam in ("poly-product", "opposite")
    for order in UV_ORDERS
] + [
    ("power", lam, order, SERIES_SHAPE, EXPONENT_SHAPE["other"])
    for lam in ("poly-product", "opposite")
    for order in (6, 8, 10, 10)
] + [
    (op, None, order, None, HODGE_SHAPE)
    for op in ("zeta", "hilb", "hilb_local", "specialize")
    for order in UV_MOTIVIC_ORDERS
]


# -- lambda-uv ---------------------------------------------------------------------


def _uv_input(ps, draws: Draws, cell):
    """The cell's series and exponent shapes with seeded signs and naming;
    the Hodge exponents also get seeded sizes 1..3."""
    op, lam, order, support, pair = cell
    sizes = (1,) if support else (1, 2, 3)

    def draw(rng):
        swap = rng.random() < 0.5
        series = tuple((swap_uv(e, swap), signed(rng)) for e in support or ())
        exponent = ()
        if op not in ("log", "exp"):
            exponent = tuple((swap_uv(e, swap), rng.choice(sizes) * signed(rng)) for e in pair)
        return (op, lam, order, support, series, exponent)

    *_, series, exponent = draws.fresh(draw)
    R = ps.motivic.HODGE_RING
    coeffs = [ps.SparsePolynomial(UV, {e: s}) for e, s in series]
    A = ps.TruncatedSeries(R, [R.one] + coeffs + [R.zero] * (order - len(coeffs)))
    m = ps.SparsePolynomial(UV, dict(exponent)) if exponent else None
    return A, coeffs, m


def _uv_lambda_job(ps, draws, cell) -> Job:
    op, lam_kind, order, _, _ = cell
    A, coeffs, m = _uv_input(ps, draws, cell)
    R = A.ring
    lam = ps.LambdaStructure(lam_kind, R)
    z_lam = ps.LambdaStructure(EULER_KIND[lam_kind], ps.INTEGERS)
    size = {"ring": R.name, "lambda": lam_kind, "order": order, "terms": 4 + (op == "power") * 2,
            "input": f"{A}; m={m}"}
    if op == "log":
        # Euler specialization commutes with Log: compare with the Z-level Log
        def check(bs):
            return [euler_value(b) for b in bs] == ps.log_map(euler_series(ps, A), z_lam)
        return Job("log", size, lambda: ps.log_map(A, lam), check)
    if op == "exp":
        # round trip: Log of the result gives back the exponents
        def check(E):
            return ps.log_map(E, lam) == coeffs + [R.zero] * (order - len(coeffs))
        return Job("exp", size, lambda: ps.exp_map(coeffs, lam, order), check)

    def check(P):
        expected = ps.power(euler_series(ps, A), euler_value(m), z_lam)
        return euler_series(ps, P) == expected

    return Job("power", size, lambda: ps.power(A, m, lam), check)


def goettsche(ps, e, order: int):
    """Goettsche's product prod_k prod_{p u^a v^b in e} (1 - u^{a+k-1} v^{b+k-1} t^k)^{-p}."""
    R = ps.motivic.HODGE_RING
    result = ps.TruncatedSeries.one(R, order)
    for k in range(1, order + 1):
        for (a, b), p in e.sorted_terms():
            coeffs = [R.one] + [R.zero] * order
            coeffs[k] = ps.SparsePolynomial(UV, {(a + k - 1, b + k - 1): -1})
            result = result * ps.TruncatedSeries(R, coeffs).int_pow(-p)
    return result


def _uv_motivic_job(ps, draws, cell) -> Job:
    op, _, order, _, _ = cell
    _, _, e = _uv_input(ps, draws, cell)
    Z = ps.INTEGERS
    size = {"ring": "Z[u,v]", "lambda": "poly-product", "order": order, "terms": 2, "input": str(e)}
    if op == "zeta":
        # Euler specialization of the zeta series is (1 - t)^(-e(1,1))
        def check(S):
            return euler_series(ps, S) == ps.TruncatedSeries.geometric(Z, order).int_pow(euler_value(e))
        return Job("zeta", size, lambda: ps.hodge_zeta(e, order), check)
    if op == "hilb":
        return Job("hilb", size, lambda: ps.hilb_surface(e, order), lambda S: S == goettsche(ps, e, order))
    if op == "hilb_local":
        size = {"ring": "Z[L]", "lambda": None, "order": order, "terms": 0}
        # at L = 1 the punctual Hilbert series counts partitions
        return Job(
            "hilb_local",
            size,
            lambda: ps.hilb_local_surface(order),
            lambda S: [euler_value(c) for c in S.coefficients] == partition_counts(order),
        )
    # specialize: a seeded Z[u,v] series to Z, or a Z[L] series to Z[u,v]
    rng = draws.rng
    if rng.random() < 0.5:
        R = ps.motivic.HODGE_RING
        coeffs = [
            ps.SparsePolynomial(UV, {(rng.randint(0, j), rng.randint(0, j)): rng.randint(-5, 5) for _ in range(3)})
            for j in range(order + 1)
        ]
        S = ps.TruncatedSeries(R, coeffs)
        size = {"ring": R.name, "lambda": None, "order": order, "terms": 3 * (order + 1), "input": str(S)}
        return Job(
            "specialize",
            size,
            lambda: ps.specialize_series(S, "euler"),
            lambda out: list(out.coefficients) == [euler_value(c) for c in coeffs],
        )
    L = ps.motivic.MOTIVIC_RING
    terms = [{(rng.randint(0, j),): rng.randint(-5, 5) for _ in range(3)} for j in range(order + 1)]
    S = ps.TruncatedSeries(L, [ps.SparsePolynomial(("L",), t) for t in terms])
    expected = [ps.SparsePolynomial(UV, {(k[0], k[0]): c for k, c in t.items()}) for t in terms]
    size = {"ring": L.name, "lambda": None, "order": order, "terms": 3 * (order + 1), "input": str(S)}
    return Job(
        "specialize",
        size,
        lambda: ps.specialize_series(S, "hodge_from_L"),
        lambda out: list(out.coefficients) == expected,
    )


def lambda_uv(ps, seed: int) -> Workload:
    draws = Draws(seed, "lambda-uv")

    def job(cell):
        if cell[1] is None:
            return _uv_motivic_job(ps, draws, cell)
        return _uv_lambda_job(ps, draws, cell)

    def round_(index):
        return [job(cell) for cell in UV_CELLS]

    warm = Draws(seed, "lambda-uv-warmup")
    warmups = [
        _uv_lambda_job(ps, warm, (op, lam, 4, SERIES_SHAPE, EXPONENT_SHAPE["other"]))
        for op in ("log", "exp", "power")
        for lam in ("poly-product", "opposite")
    ] + [_uv_motivic_job(ps, warm, (op, None, 4, None, HODGE_SHAPE)) for op in ("zeta", "hilb", "hilb_local", "specialize")]
    return Workload(round_, warmups, draws)


# -- lambda-z ------------------------------------------------------------------------

Z_ORDERS = (16, 32, 48, 64)
Z_FORMULA_ORDERS = (12, 16, 20, 24)
Z_EXPONENTS_PER_BASE = 3


def lambda_product(bs: Sequence[int], kind: str, order: int) -> List[int]:
    """Coefficients of prod_k lambda_{b_k}(t^k) over Z, without the lambdas module.

    kapranov: lambda_b = (1-t)^(-b); binomial: lambda_b = (1+t)^b.  Their logs
    are b * sum_j e_j t^j / j with e_j = 1, resp. (-1)^(j+1), so
    t A'/A = sum_n c_n t^n with c_n = sum_{kj=n} k b_k e_j, and Newton's
    recurrence n a_n = sum_{i<=n} c_i a_{n-i} gives A exactly.
    """
    c = [0] * (order + 1)
    for k, b in enumerate(bs[:order], start=1):
        for j in range(1, order // k + 1):
            c[k * j] += k * b * (1 if kind == "kapranov" or j % 2 else -1)
    a = [1] + [0] * order
    for n in range(1, order + 1):
        a[n], rest = divmod(sum(c[i] * a[n - i] for i in range(1, n + 1)), n)
        if rest:
            raise ArithmeticError(f"Newton recurrence left a remainder at t^{n}")
    return a


def _z_base(ps, draws: Draws, kind: str, order: int):
    """A = prod_k lambda_{b_k}(t^k) for seeded b_k in +-{1,2}, and distinct exponents.

    Every b_k is nonzero, so Log and Exp do their full O(N^3) work, and the
    b_k stay small, so the cost depends on the order and not on the draw.
    """

    def draw(rng):
        bs = tuple(rng.choice((1, 2)) * signed(rng) for _ in range(order))
        exps = tuple(rng.sample([m for m in range(-7, 8) if abs(m) >= 2], Z_EXPONENTS_PER_BASE))
        return (kind, bs, exps)

    _, bs, exps = draws.fresh(draw)
    A = ps.TruncatedSeries(ps.INTEGERS, lambda_product(bs, kind, order))
    return A, list(bs), exps


def lambda_z(ps, seed: int) -> Workload:
    draws = Draws(seed, "lambda-z")
    Z = ps.INTEGERS

    def cell_jobs(kind, order, A, bs, exps) -> List[Job]:
        lam = ps.LambdaStructure(kind, Z)
        size = {"ring": "Z", "lambda": kind, "order": order, "terms": order + 1, "input": str(bs)}
        jobs = [
            Job("log", size, lambda: ps.log_map(A, lam), lambda out: out == bs),
            Job("exp", size, lambda: ps.exp_map(bs, lam, order), lambda E: E == A),
        ]
        for m in exps:
            jobs.append(
                Job("power", dict(size, input=f"{bs}; m={m}"), (lambda m=m: ps.power(A, m, lam)),
                    (lambda P, m=m: P == A.int_pow(m)))
            )
        return jobs

    def formula_jobs(order, A, bs, exps) -> List[Job]:
        size = {"ring": "Z", "lambda": None, "order": order, "terms": order + 1}
        return [
            Job(
                "formula",
                dict(size, input=f"{A}; m={m}"),
                (lambda m=m: ps.integer_power_formula(A, m)),
                (lambda P, m=m: P == A.int_pow(m)),
            )
            for m in exps[:2]
        ]

    def round_(index):
        jobs: List[Job] = []
        for kind in ("kapranov", "binomial"):
            for order in Z_ORDERS:
                jobs += cell_jobs(kind, order, *_z_base(ps, draws, kind, order))
        for order in Z_FORMULA_ORDERS:
            jobs += formula_jobs(order, *_z_base(ps, draws, "kapranov", order))
        return jobs

    warm = Draws(seed, "lambda-z-warmup")
    warmups = cell_jobs("kapranov", 8, *_z_base(ps, warm, "kapranov", 8))[:3]
    warmups += cell_jobs("binomial", 8, *_z_base(ps, warm, "binomial", 8))[:3]
    warmups += formula_jobs(8, *_z_base(ps, warm, "kapranov", 8))[:1]
    return Workload(round_, warmups, draws)


# -- oracle -------------------------------------------------------------------------

# The three cases of benchmarks/bench_orbit_kernel.py, as public calls:
# (m, exponent map values, target size, [(|X_i|, X_i values, |Y_i|)], k).
# They open every run (round 0) with exactly these maps.
BENCH_CASES = (
    (6, [x % 2 for x in range(6)], 2, [(4, [0, 1, 0, 1], 2)], 3),
    (7, [x % 3 for x in range(7)], 3, [(4, [0, 1, 2, 0], 3)], 4),
    (8, [x % 2 for x in range(8)], 2, [(3, [0, 0, 1], 2), (3, [1, 0, 1], 2)], 4),
)
# Seeded shapes per round: (m, target size, [(|X_i|, |Y_i|)], k, jobs per round),
# all within DEFAULT_BUDGET.  The enumeration cost depends on the sizes only.
# Half the jobs are the m=7 shape, with as many cheaper jobs below it as
# costlier m=8 jobs above it, so the median falls in the middle of one block
# of equal-cost jobs and the tail well inside the m=8 block.
ORACLE_SHAPES = (
    (7, 2, [(2, 2), (2, 2)], 4, 8),
    (8, 2, [(2, 2), (2, 2)], 4, 4),
    (6, 3, [(2, 2), (2, 1), (1, 1)], 4, 1),
    (5, 2, [(2, 2), (1, 1), (1, 1), (1, 1)], 5, 1),
)
# (source size, target size, zeta|binomial, order)
FINITE_SERIES_SHAPES = ((8, 3, "zeta", 8), (12, 4, "binomial", 8))


def _onto(rng, n: int, q: int) -> tuple:
    """A map {0..n-1} -> {0..q-1} that is non-constant whenever q > 1."""
    while True:
        values = tuple(rng.randrange(q) for _ in range(n))
        if q == 1 or len(set(values)) > 1:
            return values


def oracle(ps, seed: int) -> Workload:
    draws = Draws(seed, "oracle")
    FiniteMap = ps.FiniteMap
    Z = ps.INTEGERS

    def geometric_job(m, f_values, q, coeff_maps, k) -> Job:
        exponent = FiniteMap(m, q, f_values)
        coeffs = [FiniteMap(n, y, values) for n, values, y in coeff_maps]
        sizes = [n for n, _, _ in coeff_maps]
        series = ps.TruncatedSeries(Z, [1] + sizes + [0] * max(0, k - len(sizes))).truncate(k)
        size = {"ring": "Z", "lambda": None, "order": k, "terms": len(sizes), "m": m,
                "raw_tuples": raw_tuples(m, sizes, k), "input": f"{exponent} {coeffs}"}
        return Job(
            "geometric",
            size,
            lambda: ps.geometric_power_coefficient(exponent, coeffs, k),
            lambda value: value == ps.integer_power_formula(series, m).coefficients[k],
        )

    def seeded_geometric(m, q, coeff_shapes, k) -> Job:
        def draw(rng):
            return (m, q, k, _onto(rng, m, q), tuple((n, _onto(rng, n, y), y) for n, y in coeff_shapes))

        _, _, _, f_values, coeff_maps = draws.fresh(draw)
        return geometric_job(m, list(f_values), q, [(n, list(v), y) for n, v, y in coeff_maps], k)

    def finite_series_job(n, q, which, order) -> Job:
        f = FiniteMap(n, q, draws.fresh(lambda rng: (which, _onto(rng, n, q)))[1])
        base = ps.TruncatedSeries.geometric(Z, order) if which == "zeta" else ps.TruncatedSeries.one_plus_t(Z, order)
        size = {"ring": "Z", "lambda": None, "order": order, "terms": n, "input": f"{f} {which}"}
        return Job(
            "finite_series",
            size,
            lambda: ps.finite_series(f, which, order),
            lambda S: S == ps.integer_power_formula(base, n),
        )

    def round_(index):
        jobs = [geometric_job(*case) for case in BENCH_CASES] if index == 0 else []
        for m, q, coeff_shapes, k, count in ORACLE_SHAPES:
            jobs += [seeded_geometric(m, q, coeff_shapes, k) for _ in range(count)]
        return jobs + [finite_series_job(*shape) for shape in FINITE_SERIES_SHAPES]

    warmups = [seeded_geometric(4, 2, [(2, 2)], 2), finite_series_job(3, 2, "zeta", 3)]
    return Workload(round_, warmups, draws)


# -- cli ----------------------------------------------------------------------------

CHILD = Path(__file__).resolve().parent / "cli_child.py"


def _text_poly(rng, variables, count: int) -> str:
    """A random integer polynomial as CLI text, e.g. '2 - u*v + v'."""
    pieces = []
    for _ in range(count):
        c = rng.choice((1, 2, 3)) * signed(rng)
        mono = "*".join(v for v in variables if rng.random() < 0.5)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
        pieces.append(("-" if c < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {s} {b}" for s, b in pieces[1:])


def _text_series(rng, variables, order: int) -> str:
    terms = ["1"]
    for j in range(1, order + 1):
        if rng.random() < 0.7:
            terms.append(f"({_text_poly(rng, variables, rng.randint(1, 2))})*t^{j}")
    return " + ".join(terms)


def _format_series(ring, series, fmt: str) -> str:
    coeffs = [ring.format_element(c) for c in series.coefficients]
    if fmt == "json":
        return json.dumps({"ring": ring.name, "order": series.order, "coefficients": coeffs}) + "\n"
    return "".join(f"t^{j}: {c}\n" for j, c in enumerate(coeffs))


def _format_log(ring, bs, fmt: str) -> str:
    coeffs = [ring.format_element(b) for b in bs]
    if fmt == "json":
        return json.dumps({"ring": ring.name, "order": len(bs), "coefficients": coeffs}) + "\n"
    return "".join(f"t^{k}: {c}\n" for k, c in enumerate(coeffs, start=1))


def _format_oracle(order: int, values: List[int], fmt: str) -> str:
    if fmt == "json":
        strs = [str(v) for v in values]
        payload = {"ring": "Z", "order": order, "coefficients": strs, "formula": strs, "verdict": "agree"}
        return json.dumps(payload) + "\n"
    lines = [f"t^{k}: oracle={v} formula={v}\n" for k, v in enumerate(values, start=1)]
    return "".join(lines) + "verdict: agree\n"


def spawn(root: Path, argv: List[str], env: Optional[dict] = None):
    """Run the CLI in a child process and wait for it: (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *argv], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout


class CliRunner:
    """Starts one child at a time; `hook` replaces the start-up in a traced run or a test."""

    def __init__(self, root: Path):
        self.root = root
        self.hook: Optional[Callable] = None

    def __call__(self, argv: List[str]):
        if self.hook is not None:
            return self.hook(argv)
        return spawn(self.root, argv)


def cli(ps, seed: int, runner: CliRunner) -> Workload:
    draws = Draws(seed, "cli")

    def job(kind: str, argv: List[str], code: int, expected: Optional[Callable[[], str]], order: int, ring: str) -> Job:
        size = {"ring": ring, "lambda": None, "order": order, "terms": 0, "argv": argv}

        def check(result):
            rc, out = result
            return rc == code and out == (expected() if code == 0 else "")

        return Job(kind, size, lambda: runner(argv), check)

    def power_job(fmt, order):
        lam = draws.rng.choice(("poly-product", "opposite"))
        text, exponent = draws.fresh(lambda rng: (_text_series(rng, UV, order), _text_poly(rng, UV, 2)))
        argv = ["power", "--ring=Z[u,v]", f"--lambda={lam}", f"--order={order}",
                f"--series={text}", f"--exponent={exponent}", f"--format={fmt}"]

        def expected():
            R = ps.parse_ring("Z[u,v]")
            P = ps.power(ps.parse_series(text, R, order), ps.parse_polynomial(exponent, R), ps.LambdaStructure(lam, R))
            return _format_series(R, P, fmt)

        return job("power", argv, 0, expected, order, "Z[u,v]")

    def exp_job(fmt, order):
        lam = draws.rng.choice(("kapranov", "binomial"))
        bs = draws.fresh(lambda rng: tuple(rng.randint(-4, 4) for _ in range(4)))
        argv = ["exp", "--ring=Z", f"--lambda={lam}", f"--order={order}",
                "--coeffs=" + ",".join(map(str, bs)), f"--format={fmt}"]

        def expected():
            return _format_series(ps.INTEGERS, ps.exp_map(list(bs), ps.LambdaStructure(lam, ps.INTEGERS), order), fmt)

        return job("exp", argv, 0, expected, order, "Z")

    def log_job(fmt, order):
        lam = draws.rng.choice(("poly-product", "opposite"))
        text = draws.fresh(lambda rng: _text_series(rng, UV, min(order, 4)))
        argv = ["log", "--ring=Z[u,v]", f"--lambda={lam}", f"--order={order}", f"--series={text}", f"--format={fmt}"]

        def expected():
            R = ps.parse_ring("Z[u,v]")
            return _format_log(R, ps.log_map(ps.parse_series(text, R, order), ps.LambdaStructure(lam, R)), fmt)

        return job("log", argv, 0, expected, order, "Z[u,v]")

    def zeta_job(fmt, order):
        hodge = draws.fresh(lambda rng: _text_poly(rng, UV, 2))
        euler = draws.rng.random() < 0.5
        argv = ["zeta", f"--order={order}", f"--hodge={hodge}", f"--format={fmt}"] + ["--euler"] * euler

        def expected():
            S = ps.hodge_zeta(ps.parse_polynomial(hodge, ps.motivic.HODGE_RING), order)
            S = ps.specialize_series(S, "euler") if euler else S
            return _format_series(S.ring, S, fmt)

        return job("zeta", argv, 0, expected, order, "Z[u,v]")

    def hilb_job(fmt, order):
        hodge = draws.fresh(lambda rng: _text_poly(rng, UV, 2))
        local = draws.rng.random() < 0.3
        euler = draws.rng.random() < 0.5
        argv = ["hilb", f"--order={order}", f"--format={fmt}"]
        argv += ["--local"] if local else [f"--hodge={hodge}"]
        argv += ["--euler"] * euler

        def expected():
            if local:
                S = ps.hilb_local_surface(order)
            else:
                S = ps.hilb_surface(ps.parse_polynomial(hodge, ps.motivic.HODGE_RING), order)
            S = ps.specialize_series(S, "euler") if euler else S
            return _format_series(S.ring, S, fmt)

        return job("hilb", argv, 0, expected, order, "Z[u,v]")

    def oracle_job(fmt, order):
        m, q, sizes = draws.fresh(
            lambda rng: (rng.randint(3, 4), rng.randint(1, 2), tuple(rng.randint(1, 3) for _ in range(2)))
        )
        argv = ["oracle", f"--m-size={m}", f"--target-size={q}",
                "--coeff-sizes=" + ",".join(map(str, sizes)), f"--order={order}", f"--format={fmt}"]

        def expected():
            series = ps.TruncatedSeries(ps.INTEGERS, [1, *sizes] + [0] * max(0, order - 2)).truncate(order)
            formula = ps.integer_power_formula(series, m)
            return _format_oracle(order, list(formula.coefficients[1:]), fmt)

        return job("oracle", argv, 0, expected, order, "Z")

    def failures():
        rng = draws.rng
        garbage = draws.fresh(lambda r: f"1 + {r.randint(2, 9)}*t + * t^2 {r.randint(0, 10**6)}")
        nonunit = draws.fresh(lambda r: f"{r.randint(2, 9)} + ({_text_poly(r, UV, 2)})*t")
        return [
            job("parse_error", ["log", "--ring=Z", "--lambda=kapranov", "--order=3", f"--series={garbage}"], 1, None, 3, "Z"),
            job("non_unit", ["power", "--ring=Z[u,v]", "--lambda=poly-product", "--order=3",
                             f"--series={nonunit}", "--exponent=u"], 2, None, 3, "Z[u,v]"),
            job("budget", ["oracle", f"--m-size={rng.randint(5, 6)}", "--target-size=2",
                           "--coeff-sizes=3,2", "--order=4", f"--budget={rng.randint(10, 99)}"], 2, None, 4, "Z"),
        ]

    # (job maker, order) for the six subcommands
    makers = ((power_job, 5), (exp_job, 8), (log_job, 5), (zeta_job, 5), (hilb_job, 5), (oracle_job, 3))

    def round_(index):
        jobs = [make(fmt, order) for make, order in makers for fmt in ("text", "json")]
        return jobs + failures()

    warmups = [make("text", 2) for make, _ in makers]
    return Workload(round_, warmups, draws)


def build(name: str, ps, seed: int, root: Path, runner: Optional[CliRunner] = None) -> Workload:
    if name == "lambda-uv":
        return lambda_uv(ps, seed)
    if name == "lambda-z":
        return lambda_z(ps, seed)
    if name == "oracle":
        return oracle(ps, seed)
    if name == "cli":
        return cli(ps, seed, runner or CliRunner(root))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
