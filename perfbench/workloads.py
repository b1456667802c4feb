"""The benchmark's four workloads.

Each workload is a closed loop with one client: every library call is
issued after the previous one returns, in one process.  ``inputs`` turns
the seed into the workload's fixed inputs (the realised N values and the
Monte-Carlo seed).  ``run_pass`` makes every call on those inputs once,
checks each result against an exact or independent reference with the
tolerance the repository's tests use, and records the outcome in a
``Ledger``.  Every scheme is built inside the pass, so a pass never
reuses the caches of another (``mop_scheme``'s row cache and the
``MultiIndexPath`` prefix); a command-line user pays for them on every
invocation too.

Calls go through ``Tracer.call`` under the name of the layer they enter,
``<module>.<function>[.<case>]``; the per-layer metrics are those names.
"""

import contextlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from bandedzeros import bandop, freeprob, measures, mop, paths, recurrence, sampler, zeros
from bandedzeros.errors import ConfigError, NumericalFailure, OracleScaleError, SchemeError
from bandedzeros.paths import Constraint
from spans import Tracer

LIBRARY_ERRORS = (NumericalFailure, SchemeError, OracleScaleError, ConfigError)


class Ledger:
    """Operations attempted and failed, and the time each one took.

    An operation is a generator of (ok, description) checks.  It fails when
    any check is not ok or when the library raises one of its errors.
    ``seconds`` maps each operation's label to its time in the current pass.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.seconds = {}

    def run(self, label, operation):
        self.attempted += 1
        start = time.perf_counter()
        try:
            bad = [what for ok, what in operation() if not ok]
        except LIBRARY_ERRORS as exc:
            bad = [f"{type(exc).__name__}: {exc}"]
        self.seconds[label] = time.perf_counter() - start
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: {bad[0]}")


@contextlib.contextmanager
def counting_truncations(tr):
    """Count the bytes of every dense truncation built while the block runs,
    including those the library builds inside its own calls."""
    original = bandop.build_truncation

    def counted(*args, **kwargs):
        op = original(*args, **kwargs)
        tr.count("bandop.truncation_bytes_computed", op.matrix.nbytes)
        return op

    bandop.build_truncation = counted
    try:
        yield
    finally:
        bandop.build_truncation = original


def rel_dev(got, ref):
    """|got - ref| / max(1, |ref|), the tests' relative deviation."""
    return abs(got - ref) / max(1.0, abs(ref))


def near(rng, nominal, step=1):
    """A size near ``nominal``: offset by a multiple of ``step`` of at most
    0.5% of nominal, and at least 2.

    The offset is small so that the seed moves the cost of a pass by less
    than the machine's own noise: a cost growing like N^3 moves 1.5%.
    Sizes up to 100 stay at the nominal, and so do sizes on steps of 6
    below 1100."""
    spread = round(0.005 * nominal) // step
    return max(2, nominal + step * rng.randint(-spread, spread))


# ---------------------------------------------------------------------------
# schemes (README / acceptance parameters)


@dataclass(frozen=True)
class MopCase:
    kind: str
    a: tuple
    q: tuple
    alpha: object = None

    @property
    def label(self):
        return f"{self.kind} r={len(self.a)}"

    def scheme(self, tr):
        return tr.call(
            "mop.mop_scheme", mop.mop_scheme, self.kind, self.a, self.q, alpha=self.alpha
        )

    def atoms(self):
        """Limit atoms: the locations (Hermite) or their reciprocals
        (Laguerre) with the ratios as weights, exactly."""
        locs = self.a if self.kind == "multiple-hermite" else [Fraction(1) / x for x in self.a]
        return measures.AtomicMeasure(list(zip(locs, self.q)))

    def curve(self):
        if self.kind == "multiple-hermite":
            return freeprob.curve_hermite(self.q, self.a)
        return freeprob.curve_laguerre(self.q, self.a, self.alpha)

    def zero_limit(self, order):
        """Limit law of the zeros; the Laguerre ensemble's aspect ratio is
        1 + alpha (acceptance test 7)."""
        if self.kind == "multiple-hermite":
            return freeprob.free_add(measures.SemicircleLaw(), self.atoms(), order)
        law = measures.MarchenkoPasturLaw(1 + self.alpha)
        return freeprob.free_mul(law, self.atoms(), order)

    def curve_limit(self, order):
        """Law of the spectral curve (rate-1 normalisation for Laguerre)."""
        if self.kind == "multiple-hermite":
            return self.zero_limit(order)
        return freeprob.free_mul(measures.MarchenkoPasturLaw(1), self.atoms(), order)


HALF = (Fraction(1, 2), Fraction(1, 2))
THIRD = (Fraction(1, 3),) * 3
MH2 = MopCase("multiple-hermite", (1, -1), HALF)
ML2 = MopCase("multiple-laguerre", (1, 2), HALF, Fraction(1))
MH3 = MopCase("multiple-hermite", (1, 0, -1), THIRD)

CLASSICAL = {
    "gue": {},
    "wishart": {"alpha": 1.0},
    "jacobi": {"alpha": 1.0, "beta": 1.0},
    "charlier": {"alpha": 1.0},
    "meixner": {"alpha": 0.5, "beta": 1.0},
}


def classical(name, tr):
    return tr.call(
        "recurrence.classical_scheme", recurrence.classical_scheme, name, **CLASSICAL[name]
    )


# the covariance model's operator: Laguerre weights at the reciprocals of
# the covariance diagonal, exponent 0
ML0 = MopCase("multiple-laguerre", (1, 2), HALF, 0)
MOP = {"mh2": MH2, "ml2": ML2, "mh3": MH3, "ml0": ML0}


def build(name, tr):
    """A scheme by the name the workloads use for it."""
    if name in CLASSICAL:
        return classical(name, tr)
    return MOP[name].scheme(tr)


# ---------------------------------------------------------------------------
# trace-sweep: trace_table on a small-N grid and at large N, variance decay

TRACE_SCHEMES = ("gue", "wishart", "jacobi", "meixner", "mh2", "ml2")
GUE_TOL = 1e-12  # acceptance test 2


def _table_checks(name, rows):
    for N, ell, mean, zero, gap, gap_b, var, var_b in rows:
        yield gap <= gap_b, f"N={N} ell={ell}: gap {gap:.3e} > bound {gap_b:.3e}"
        yield var <= var_b, f"N={N} ell={ell}: variance {var:.3e} > bound {var_b:.3e}"
        if name != "gue":
            continue
        if ell == 2:
            yield abs(mean - 1.0) <= GUE_TOL, f"N={N}: mean m2 {mean!r} != 1"
            yield abs(zero - (1 - 1 / N)) <= GUE_TOL, f"N={N}: zero m2 {zero!r} != 1 - 1/N"
            yield abs(mean - zero - 1 / N) <= GUE_TOL, f"N={N}: gap m2 != 1/N"
        if ell == 1:
            yield abs(var - 1 / N**2) <= GUE_TOL, f"N={N}: var1 {var!r} != 1/N^2"


def _trace_table(name, scheme, N, span, tr):
    rows = tr.call(span, bandop.trace_table, scheme, N, 6)
    yield len(rows) == 6, f"N={N}: {len(rows)} rows"
    yield from _table_checks(name, rows)


def _variance_decay(scheme, ranks, ell, tr):
    """Variance falls like N^-2 (acceptance test 4) under its bound."""
    var = [tr.call("bandop.variance_moment", bandop.variance_moment, scheme, n, ell) for n in ranks]
    for n, v in zip(ranks, var):
        bound = tr.call("bandop.bounds", bandop.variance_bound, scheme, n, ell)
        yield v <= bound, f"N={n} ell={ell}: variance {v:.3e} > bound {bound:.3e}"
    slope = np.polyfit(np.log(ranks), np.log(var), 1)[0]
    yield -2.1 <= slope <= -1.9, f"ell={ell}: log-log slope {slope:.3f} outside [-2.1, -1.9]"


def trace_sweep_inputs(rng, smoke):
    grid = range(2, 21, 6) if smoke else [*range(2, 200, 10), 200]
    large = (40, 80) if smoke else (500, 1000)
    return {
        "grid_n": sorted({near(rng, n) for n in grid}),
        "large_n": [near(rng, n) for n in large],
        "decay_n": [near(rng, n) for n in (25, 50, 100, 200, 400)],
    }


def trace_sweep_pass(inp, tr, led):
    for name in TRACE_SCHEMES:
        scheme = build(name, tr)
        for N in inp["grid_n"]:
            led.run(
                f"trace_table {name} N={N}",
                lambda: _trace_table(name, scheme, N, "bandop.trace_table.small_n", tr),
            )
    for name in ("gue", "mh2"):
        scheme = build(name, tr)
        for N in inp["large_n"]:
            led.run(
                f"trace_table {name} N={N}",
                lambda: _trace_table(name, scheme, N, "bandop.trace_table.large_n", tr),
            )
    for name in ("gue", "wishart"):
        scheme = build(name, tr)
        for ell in (1, 2):
            led.run(
                f"variance decay {name} ell={ell}",
                lambda: _variance_decay(scheme, inp["decay_n"], ell, tr),
            )


def trace_sweep_warm_up():
    bandop.trace_table(recurrence.classical_scheme("gue"), 256, 6)


# ---------------------------------------------------------------------------
# mop-zeros: spectra against free-probability and arcsine-mixture limits

MOP_ZERO_CASES = (MH2, ML2, MH3)
MOP_TOL = 2e-2  # acceptance tests 6 and 7
CLASSICAL_TOL = 1e-2  # acceptance test 5
CURVE_TOL = 1e-8  # acceptance tests 6 and 7
IM_TOL = 1e-8  # acceptance test 8
DENSITY_FLOOR = -1e-8  # test_density_nonnegative_on_grid


def _mop_zeros(case, N, tr):
    scheme = case.scheme(tr)
    op = tr.call("bandop.build_truncation", bandop.build_truncation, scheme, N, 0)
    measure = tr.call("zeros.spectrum.multi_index", zeros.spectrum, op)
    tr.count("zeros.points", len(measure))
    moments, _ = tr.call("zeros.zero_moments", zeros.zero_moments, measure, 6)
    _, worst_im = tr.call("zeros.reality_check", zeros.reality_check, measure, IM_TOL)
    limit = tr.call("freeprob.free_conv", case.zero_limit, 6)
    yield len(measure) == N, f"{len(measure)} zeros, expected {N}"
    yield worst_im <= IM_TOL, f"max |Im| {worst_im:.2e} > {IM_TOL}"
    for ell, (got, ref) in enumerate(zip(moments, limit)):
        dev = rel_dev(got, float(ref))
        yield dev <= MOP_TOL, f"ell={ell}: zero moment rel dev {dev:.2e} > {MOP_TOL}"


def _classical_zeros(name, N, tr):
    scheme = classical(name, tr)
    op = tr.call("bandop.build_truncation", bandop.build_truncation, scheme, N, 0)
    measure = tr.call("zeros.spectrum.tridiagonal", zeros.spectrum, op)
    tr.count("zeros.points", len(measure))
    moments, _ = tr.call("zeros.zero_moments", zeros.zero_moments, measure, 6)

    def limits():
        mixture = measures.ArcsineMixture(*recurrence.kva_functions(name, **CLASSICAL[name]))
        return [measures.kva_moment(mixture, ell) for ell in range(7)]

    refs = tr.call("measures.kva_moment", limits)
    for ell, (got, ref) in enumerate(zip(moments, refs)):
        dev = rel_dev(got, ref)
        yield dev <= CLASSICAL_TOL, f"ell={ell}: zero moment rel dev {dev:.2e} > {CLASSICAL_TOL}"
    if name == "gue":
        yield np.allclose(refs, [1, 0, 1, 0, 2, 0, 5], atol=1e-12), f"limits {refs}"


def _curve(case, points, tr):
    """Curve moments against the free-convolution series, and the Stieltjes
    density on a grid across the support."""
    curve = tr.call("freeprob.curve_moments", case.curve)
    series = tr.call("freeprob.curve_moments", freeprob.curve_moments, curve, 6)
    limit = tr.call("freeprob.free_conv", case.curve_limit, 6)
    for ell, (got, ref) in enumerate(zip(series, limit)):
        dev = abs(got - float(ref))
        yield dev <= CURVE_TOL, f"ell={ell}: curve moment off series by {dev:.2e}"
    for x in np.linspace(-curve.radius_hint, curve.radius_hint, points):
        density = tr.call(
            "freeprob.stieltjes_density",
            freeprob.stieltjes_density,
            curve,
            float(x),
            eps=1e-6,
            richardson=True,
        )
        yield density >= DENSITY_FLOOR, f"x={x:.3f}: density {density:.2e} < 0"


def mop_zeros_inputs(rng, smoke):
    # Multiples of 6 fill every component of the r = 2 and r = 3 paths
    # equally.  At other N the zeros track unequal weights: the fifth moment
    # of multiple Hermite r = 2 sits about 21/N off the equal-weight limit,
    # 5.2e-2 at N = 401, which the 2e-2 gate was not set for.
    return {
        "mop_n": near(rng, 300 if smoke else 420, step=6),
        "classical_n": near(rng, 1000 if smoke else 2000),
        "density_points": 11 if smoke else 41,
    }


def mop_zeros_pass(inp, tr, led):
    for case in MOP_ZERO_CASES:
        N = inp["mop_n"]
        led.run(f"spectrum {case.label} N={N}", lambda: _mop_zeros(case, N, tr))
    for name in CLASSICAL:
        led.run(
            f"spectrum {name} N={inp['classical_n']}",
            lambda: _classical_zeros(name, inp["classical_n"], tr),
        )
    for case in MOP_ZERO_CASES:
        led.run(f"curve {case.label}", lambda: _curve(case, inp["density_points"], tr))


def mop_zeros_warm_up():
    zeros.spectrum(bandop.build_truncation(MH2.scheme(Tracer(False)), 60, 0))
    zeros.spectrum(bandop.build_truncation(recurrence.classical_scheme("gue"), 60, 0))


# ---------------------------------------------------------------------------
# monte-carlo: sampled moments against exact finite-N and limit values

SE_PULL = 4.0  # test_every_model_tracks_its_operator
LIMIT_PULL, LIMIT_FLOOR = 3.0, 0.05  # test_source_models_reach_free_convolution_limits
GUE_VAR_RATIO = (0.8, 1.2)  # acceptance test 9


@dataclass(frozen=True)
class MonteCarloCase:
    kind: str
    size: str  # "small" N, exact targets; "large" N, limit targets
    samples: int
    operator: str  # scheme whose mean moments (small N) or limit (large N) the means match
    source: tuple = None  # (q, a) of the diagonal for the source models
    alpha: float = 0.0

    def spec(self, N):
        src = None if self.source is None else sampler.realize_diagonal(*self.source, N)
        return sampler.MatrixModelSpec(kind=self.kind, N=N, alpha=self.alpha, source=src)


MC_SOURCE = {"gue_source": (HALF, (1, -1)), "wishart_cov": (HALF, (1, Fraction(1, 2)))}
MC_CASES = (
    MonteCarloCase("gue", "small", 2000, "gue"),
    MonteCarloCase("wishart", "small", 600, "wishart", alpha=1.0),
    MonteCarloCase("gue_source", "small", 1000, "mh2", MC_SOURCE["gue_source"]),
    MonteCarloCase("wishart_cov", "small", 600, "ml0", MC_SOURCE["wishart_cov"]),
    MonteCarloCase("gue_source", "large", 150, "mh2", MC_SOURCE["gue_source"]),
    MonteCarloCase("wishart_cov", "large", 150, "ml0", MC_SOURCE["wishart_cov"]),
)


def _mc_exact(case, N, seed, tr):
    span = f"sampler.mc_moments.{case.kind}"
    spec = tr.call(span, case.spec, N)
    mean, var, se = tr.call(span, sampler.mc_moments, spec, 2, case.samples, seed)
    tr.count("sampler.samples", case.samples)
    scheme = build(case.operator, tr)
    for ell in (1, 2):
        target = tr.call("bandop.mean_moment", bandop.mean_moment, scheme, N, ell)
        pull = abs(mean[ell] - target) / se[ell]
        yield pull <= SE_PULL, f"ell={ell}: mean {mean[ell]:.6f} is {pull:.1f} SE from {target:.6f}"
    if case.kind == "gue":
        ratio = var[1] * N**2
        lo, hi = GUE_VAR_RATIO
        yield lo <= ratio <= hi, f"var1 * N^2 = {ratio:.3f} outside {GUE_VAR_RATIO}"


def _mc_limit(case, N, seed, tr):
    span = f"sampler.mc_moments.{case.kind}"
    spec = tr.call(span, case.spec, N)
    mean, _, se = tr.call(span, sampler.mc_moments, spec, 4, case.samples, seed)
    tr.count("sampler.samples", case.samples)
    target = tr.call("freeprob.free_conv", MOP[case.operator].zero_limit, 4)
    for ell in range(1, 5):
        dev = abs(mean[ell] - float(target[ell]))
        tol = max(LIMIT_PULL * se[ell], LIMIT_FLOOR)
        yield dev <= tol, f"ell={ell}: mean off the limit by {dev:.3e} > {tol:.3e}"


def monte_carlo_inputs(rng, smoke):
    # even N keeps the two-atom source diagonals balanced
    small, large = (10, 20) if smoke else (50, 200)
    return {
        "small_n": near(rng, small, step=2),
        "large_n": near(rng, large, step=2),
        "mc_seed": rng.randrange(2**32),
    }


def monte_carlo_pass(inp, tr, led):
    for case in MC_CASES:
        N = inp[case.size + "_n"]
        check = _mc_exact if case.size == "small" else _mc_limit
        led.run(
            f"mc_moments {case.kind} N={N} samples={case.samples}",
            lambda: check(case, N, inp["mc_seed"], tr),
        )


def shared_rows_frac(inp):
    """Share of per-sample moment rows that seeds s and s + 1 have in common,
    for the workload's gue case."""
    case = MC_CASES[0]
    spec = case.spec(inp["small_n"])
    s = inp["mc_seed"]
    rows = [
        {row.tobytes() for row in sampler.empirical_batch(spec, 2, case.samples, seed).table}
        for seed in (s, s + 1)
    ]
    return len(rows[0] & rows[1]) / case.samples


def monte_carlo_warm_up():
    sampler.mc_moments(sampler.MatrixModelSpec(kind="gue", N=20), 2, 2, 0)


# ---------------------------------------------------------------------------
# path-oracle: lattice_sum under every constraint against bandop

ORACLE_TOL = 1e-10  # acceptance test 1
ORACLE = (
    (Constraint.NONE, "none", bandop.mean_moment),
    (Constraint.STAY_BELOW, "stay_below", bandop.zero_moment_trace),
    (Constraint.MIDPOINT_AT_OR_ABOVE, "midpoint", bandop.variance_moment),
)
PATH_SCHEMES = ("gue", "wishart", "mh2", "ml2")


def _oracle(scheme, N, ell, tr):
    for constraint, key, reference in ORACLE:
        got = tr.call(f"paths.lattice_sum.{key}", paths.lattice_sum, scheme, N, ell, constraint)
        tr.count("paths.calls")
        ref = tr.call("bandop.reference", reference, scheme, N, ell)
        dev = rel_dev(got, ref)
        yield dev <= ORACLE_TOL, f"{key}: rel dev {dev:.2e} > {ORACLE_TOL}"


def _kernel_parity(scheme, N, ell, tr):
    constraint = Constraint.MIDPOINT_AT_OR_ABOVE
    fast = tr.call("paths.lattice_sum.midpoint", paths.lattice_sum, scheme, N, ell, constraint)
    slow = tr.call(
        "paths.lattice_sum.midpoint",
        paths.lattice_sum,
        scheme,
        N,
        ell,
        constraint,
        force_python=True,
    )
    tr.count("paths.calls", 2)
    yield fast == slow, f"compiled {fast!r} != python {slow!r}"


def path_oracle_inputs(rng, smoke):
    return {
        "path_n": [near(rng, n) for n in ((4, 6) if smoke else (8, 12, 16))],
        "ell_max": 3 if smoke else 6,
        "kernel": paths.kernel_name(),
    }


def path_oracle_pass(inp, tr, led):
    for name in PATH_SCHEMES:
        scheme = build(name, tr)
        for N in inp["path_n"]:
            for ell in range(1, inp["ell_max"] + 1):
                led.run(f"lattice_sum {name} N={N} ell={ell}", lambda: _oracle(scheme, N, ell, tr))
    if inp["kernel"] == "compiled":
        scheme = build("mh2", tr)
        N, ell = inp["path_n"][1], inp["ell_max"]
        led.run(f"kernel parity N={N} ell={ell}", lambda: _kernel_parity(scheme, N, ell, tr))


def path_oracle_warm_up():
    gue = recurrence.classical_scheme("gue")
    paths.lattice_sum(gue, 4, 2)
    bandop.mean_moment(gue, 4, 2)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (random.Random, smoke) -> dict
    run_pass: Callable  # (inputs, Tracer, Ledger) -> None
    warm_up: Callable
    dominant: str  # prefix of the per-layer time expected to dominate
    diagnostics: Callable = None  # inputs -> {per-layer name: value}, traced runs only

    def make_inputs(self, seed, smoke):
        return self.inputs(random.Random(f"{self.name}/{seed}"), smoke)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trace-sweep",
            trace_sweep_inputs,
            trace_sweep_pass,
            trace_sweep_warm_up,
            "bandop.trace_table.",
        ),
        Workload(
            "mop-zeros",
            mop_zeros_inputs,
            mop_zeros_pass,
            mop_zeros_warm_up,
            "zeros.spectrum.multi_index",
        ),
        Workload(
            "monte-carlo",
            monte_carlo_inputs,
            monte_carlo_pass,
            monte_carlo_warm_up,
            "sampler.mc_moments.",
            lambda inp: {"sampler.shared_rows_frac": shared_rows_frac(inp)},
        ),
        Workload(
            "path-oracle",
            path_oracle_inputs,
            path_oracle_pass,
            path_oracle_warm_up,
            "paths.lattice_sum.midpoint",
        ),
    )
}
