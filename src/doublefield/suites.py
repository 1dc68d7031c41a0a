"""Named acceptance suites.

Each suite builds a deterministic desk-scale corpus, checks one family
of properties of the library (symmetry, bilinearity, principality,
route agreement, calibration, ...), and returns a plain dictionary with
the number of instances checked and any failures.  The suites back both
``doublefield verify`` and the acceptance test module.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import mpmath

from .arakelov import (
    ArakelovDivisorKp,
    arakelov_from_divisor,
    bracket,
    deg_Kp,
    explore_self_products,
    fs_kappa_closed_form,
    fs_kappa_quadrature,
    fs_point_integral,
    fs_point_integral_quadrature,
    intersect,
    principal_arakelov,
    principal_move,
    residue_scalar_product,
    second_move,
)
from .charts import fiber_divisor, fiber_resultant, find_shift, reverse_y, shift_is_valid
from .divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    degree_K,
    divisor_of_upoly,
    principal_divisor,
)
from .errors import MoveFailure, NonGeneric, NotCoprime
from .exact import (
    DEFAULT_PREC,
    BPoly,
    UPoly,
    clear_caches,
    complex_roots,
    resultant_x,
    squarefree_decomposition,
)
from .pairing import SIDE_K, SIDE_KPRIME, pair, self_pair_degree_one
from .residues import (
    RationalIsom,
    correspondence,
    different_divisor,
    residue_iso,
    residue_mod_Kp_degree_one,
    residue_mod_degree_one,
)

X = BPoly.gen("x")
Y = BPoly.gen("y")
INF_X = UnaryPlace.infinity("x")
INF_Y = UnaryPlace.infinity("y")


def _c(n) -> BPoly:
    return BPoly.const(n)


def _ypoly(*coeffs) -> UPoly:
    return UPoly.make("y", coeffs)


def _yplace(*coeffs) -> UnaryPlace:
    return UnaryPlace.finite(_ypoly(*coeffs))


def _xplace(*coeffs) -> UnaryPlace:
    return UnaryPlace.finite(UPoly.make("x", coeffs))


def binary_pool() -> list[BinaryPlace]:
    """Deterministic pool of binary primes, degrees at most 3 in each
    variable."""
    polys = [
        X - Y,
        X + Y,
        X - Y - _c(1),
        X + Y - _c(2),
        2 * X - Y - _c(3),
        X - Y**2,
        X + Y**2 - _c(3),
        X - Y**2 - _c(1),
        X**2 - Y,
        X**2 - Y - _c(1),
        X * Y - _c(1),
        X * Y - _c(2),
        X * Y + X - _c(1),
        X**2 + Y**2 - _c(2),
        X**2 - Y**2 - _c(1),
        X**3 - Y - _c(1),
        X - Y**3,
        X**2 - Y**3,
    ]
    return [BinaryPlace.make(f) for f in polys]


def unary_pool() -> list[UnaryPlace]:
    return [
        _xplace(0, 1),
        _xplace(-1, 1),
        _xplace(2, 1),
        _xplace(-2, 0, 1),
        _yplace(0, 1),
        _yplace(-1, 1),
        _yplace(2, 1),
        _yplace(-2, 0, 1),
        INF_X,
        INF_Y,
    ]


def isom_pool() -> list[RationalIsom]:
    """Rational functions of y used both as residue isomorphisms and,
    through b(y)x - a(y), as degree-one binary primes."""
    raw = [
        ((0, 1), (1,)),
        ((0, 0, 1), (1,)),
        ((-1, 1), (1,)),
        ((2, 1), (1,)),
        ((1, 2), (1,)),
        ((-2, 0, 1), (1,)),
        ((1,), (0, 1)),
        ((1, 1), (0, 1)),
        ((0, 1), (-1, 1)),
        ((1, 0, 1), (0, 1)),
        ((-1, 1), (1, 1)),
        ((1, 1, 1), (1,)),
    ]
    return [RationalIsom.make(_ypoly(*num), _ypoly(*den)) for num, den in raw]


def extended_isom_pool() -> list[RationalIsom]:
    extra = [
        ((0, 0, 0, 1), (1,)),
        ((-2, 0, 0, 1), (1,)),
        ((3, 1), (1,)),
        ((-3, 1), (1,)),
        ((0, 2, 1), (1,)),
        ((1,), (1, 1)),
        ((2,), (0, 1)),
        ((0, 1), (2, 1)),
        ((1, 0, 0, 1), (1,)),
        ((5, 1), (-2, 1)),
    ]
    return isom_pool() + [RationalIsom.make(_ypoly(*num), _ypoly(*den)) for num, den in extra]


def degree_one_prime(mu: RationalIsom) -> BinaryPlace:
    f = BPoly.from_upoly(mu.den) * X - BPoly.from_upoly(mu.num)
    return BinaryPlace.make(f)


def element_pool() -> list[DeltaElement]:
    """Principal-divisor generators: fractions of pool curves."""
    b = [m.poly for m in binary_pool()]
    out = []
    for i in range(len(b)):
        num, den = b[i], b[(i + 5) % len(b)]
        out.append(DeltaElement.from_fraction(num, den))
    out.append(DeltaElement.from_fraction(b[0] * b[5], b[10]))
    out.append(DeltaElement.from_fraction(b[3], b[8] * b[13]))
    return out


def _result(name: str, checked: int, failures: list[str], **extra) -> dict:
    out = {
        "suite": name,
        "checked": checked,
        "failures": failures[:10],
        "failure_count": len(failures),
        "ok": not failures,
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# 1. symmetry of the norm pairing on both sides


def run_symmetry() -> dict:
    primes = binary_pool() + unary_pool()
    failures: list[str] = []
    checked = 0
    t0 = time.monotonic()
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            A, B = Divisor.of(primes[i]), Divisor.of(primes[j])
            checked += 1
            for side in (SIDE_K, SIDE_KPRIME):
                left = pair(A, B, side)
                right = pair(B, A, side)
                if left != right:
                    failures.append(f"pair({primes[i]}, {primes[j]}, {side}) asymmetric")
    return _result("symmetry", checked, failures, seconds=round(time.monotonic() - t0, 3))


# ---------------------------------------------------------------------------
# 2. bilinearity of pairing, residues and correspondences


def run_bilinearity() -> dict:
    import random

    rng = random.Random(2)
    primes = binary_pool() + unary_pool()
    deg_one = [degree_one_prime(mu) for mu in isom_pool()]
    points = [_yplace(-c, 1) for c in (-3, -1, 0, 1, 2, 5)]
    failures: list[str] = []
    pair_n = residue_n = corr_n = rounds = 0
    while min(pair_n, residue_n, corr_n) < 50 and rounds < 2000:
        rounds += 1
        m1, m2, n = rng.sample(primes, 3)
        A1, A2, B = Divisor.of(m1), Divisor.of(m2), Divisor.of(n)
        if not (A1.disjoint_from(B) and A2.disjoint_from(B)):
            continue
        pair_n += 1
        # additivity in the first argument, then in the second
        if pair(A1 + A2, B) != pair(A1, B) + pair(A2, B):
            failures.append(f"pair not additive on ({m1}, {m2}; {n})")
        if pair(B, A1 + A2) != pair(B, A1) + pair(B, A2):
            failures.append(f"pair not additive in the 2nd argument on ({n}; {m1}, {m2})")
        nprime = deg_one[rounds % len(deg_one)]
        if m1 != nprime and m2 != nprime:
            residue_n += 1
            if residue_mod_degree_one(A1 + A2, nprime) != residue_mod_degree_one(
                A1, nprime
            ) + residue_mod_degree_one(A2, nprime):
                failures.append(f"residue not additive on ({m1}, {m2}; {nprime})")
        p = points[rounds % len(points)]
        if A1.coeff(p) or A2.coeff(p):
            continue
        try:
            total = correspondence(A1 + A2, p)
            parts = correspondence(A1, p) + correspondence(A2, p)
        except (NonGeneric, NotCoprime):
            continue
        corr_n += 1
        if total != parts:
            failures.append(f"correspondence not additive on ({m1}, {m2}; {p})")
    if min(pair_n, residue_n, corr_n) < 50:
        failures.append(
            f"corpus too small: pair {pair_n}, residue {residue_n}, correspondence {corr_n}"
        )
    return _result(
        "bilinearity",
        pair_n,
        failures,
        residue_instances=residue_n,
        correspondence_instances=corr_n,
    )


# ---------------------------------------------------------------------------
# 3. principality: outputs of principal divisors have degree zero


def run_principality() -> dict:
    failures: list[str] = []
    checked = 0
    moduli = [degree_one_prime(mu) for mu in isom_pool()]
    points = [_yplace(-c, 1) for c in (5, -7, 3)]
    others = [Divisor.of(BinaryPlace.make(2 * X - Y - _c(3))), Divisor.of(_yplace(-5, 1))]
    for k, elem in enumerate(element_pool()):
        A = principal_divisor(elem)
        checked += 1
        n = next(m for m in moduli if Divisor.of(m).disjoint_from(A))
        d = residue_mod_degree_one(A, n)
        if degree_K(d) != 0:
            failures.append(f"residue of principal #{k} has degree {degree_K(d)}")
        B = next(b for b in others if b.disjoint_from(A))
        for side in (SIDE_K, SIDE_KPRIME):
            dd = pair(A, B, side)
            if degree_K(dd) != 0:
                failures.append(f"pairing of principal #{k} has degree {degree_K(dd)} on {side}")
        for p in points:
            if A.coeff(p) == 0:
                try:
                    c = correspondence(A, p)
                except NonGeneric:
                    continue
                if degree_K(c) != 0:
                    failures.append(f"correspondence of principal #{k} has degree {degree_K(c)}")
                break
    return _result("principality", checked, failures)


# ---------------------------------------------------------------------------
# 4. agreement of the two residue/correspondence code paths


def run_agreement() -> dict:
    failures: list[str] = []
    checked = 0
    points = [_yplace(-c, 1) for c in (-3, -2, -1, 0, 1, 2, 3, 5)]
    for m in binary_pool():
        A = Divisor.of(m)
        for q in points:
            try:
                via_factorization = correspondence(A, q)
            except NonGeneric:
                continue
            checked += 1
            via_chart = residue_mod_Kp_degree_one(A, q)
            if via_factorization != via_chart:
                failures.append(f"paths disagree for ({m}, {q})")
    return _result("agreement", checked, failures)


# ---------------------------------------------------------------------------
# 5. pairing of degree-one primes equals the different divisor


def run_different() -> dict:
    failures: list[str] = []
    isoms = isom_pool()
    primes = [degree_one_prime(mu) for mu in isoms]
    checked = 0
    for i in range(len(isoms)):
        for j in range(i + 1, len(isoms)):
            checked += 1
            lhs = pair(Divisor.of(primes[i]), Divisor.of(primes[j]))
            rhs = different_divisor(isoms[i], isoms[j])
            if lhs != rhs:
                failures.append(f"pair != different for ({primes[i]}, {primes[j]})")
    worked = pair(Divisor.of(BinaryPlace.make(X - Y**2)), Divisor.of(BinaryPlace.make(X - Y)))
    expected = Divisor.make({_yplace(0, 1): 1, _yplace(-1, 1): 1, INF_Y: 1})
    if worked != expected:
        failures.append("worked instance (x - y^2, x - y) did not reproduce")
    return _result("different", checked, failures)


# ---------------------------------------------------------------------------
# 6. support criterion for degree-one residues


def _in_support_at(divisor: Divisor, var: str, value: Fraction) -> bool:
    for m, _ in divisor.coeffs:
        if isinstance(m, UnaryPlace) and m.var == var and not m.is_infinity():
            if m.poly.eval(value) == 0:
                return True
    return False


def run_support() -> dict:
    failures: list[str] = []
    isoms = isom_pool()
    primes = [degree_one_prime(mu) for mu in isoms]
    checked = 0
    for i in range(len(isoms)):
        for j in range(len(isoms)):
            if i == j:
                continue
            m, n = primes[i], primes[j]
            nu = residue_iso(n)
            d = residue_mod_degree_one(Divisor.of(m), n)
            candidates = {Fraction(c) for c in (-2, -1, 0, 1, 2, 3)}
            for place, _ in d.coeffs:
                if (
                    isinstance(place, UnaryPlace)
                    and place.var == "y"
                    and not place.is_infinity()
                    and place.degree() == 1
                ):
                    candidates.add(Fraction(-place.poly.coeffs[0], place.poly.coeffs[1]))
            for c in sorted(candidates):
                den_val = nu.den.eval(c)
                if den_val == 0:
                    continue
                x_val = nu.num.eval(c) / den_val
                below = UPoly.make("y", [-c.numerator, c.denominator])
                try:
                    corr = correspondence(Divisor.of(m), UnaryPlace.finite(below))
                except NonGeneric:
                    continue
                checked += 1
                lhs = _in_support_at(d, "y", c)
                rhs = _in_support_at(corr, "x", x_val)
                if lhs != rhs:
                    failures.append(f"support criterion fails for ({m}, {n}) at y = {c}")
    return _result("support", checked, failures)


# ---------------------------------------------------------------------------
# 7. self-pairing plus the moved differential is principal


def run_selfpair() -> dict:
    failures: list[str] = []
    checked = 0
    for mu in extended_isom_pool():
        m = degree_one_prime(mu)
        checked += 1
        sp = self_pair_degree_one(m)
        # the image of dx under x -> mu is -2 times the pole divisor of mu
        total = degree_K(sp.value - residue_iso(m).pole_divisor().scale(2))
        if total != 0:
            failures.append(f"self pairing of {m} leaves degree {total}")
    return _result("selfpair", checked, failures)


# ---------------------------------------------------------------------------
# 8. chart robustness and the numeric intersection oracle


def _to_mpc(c):
    if isinstance(c, Fraction):
        return mpmath.mpc(mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator))
    return mpmath.mpc(c)


def _numeric_common_root(f: BPoly, g: BPoly, y0) -> bool:
    def x_poly(h: BPoly):
        coeffs = [mpmath.mpc(0)] * (h.deg_x() + 1)
        for (i, j), c in h.terms:
            coeffs[i] += _to_mpc(c) * y0**j
        while len(coeffs) > 1 and abs(coeffs[-1]) < mpmath.mpf(2) ** (-DEFAULT_PREC // 2):
            coeffs.pop()
        return list(reversed(coeffs))

    with mpmath.workprec(DEFAULT_PREC):
        cf, cg = x_poly(f), x_poly(g)
        if len(cf) <= 1 or len(cg) <= 1:
            return True  # fiber degenerates; escapes handled at infinity
        rf = mpmath.polyroots(cf, maxsteps=200, extraprec=DEFAULT_PREC)
        rg = mpmath.polyroots(cg, maxsteps=200, extraprec=DEFAULT_PREC)
        return min(abs(a - b) for a in rf for b in rg) < mpmath.mpf(10) ** (-6)


def _two_chart_fiber_divisor(f: BPoly, g: BPoly, c: int) -> Divisor:
    """fiber_divisor by two charts: the finite places from the resultant
    in the chart x = c + 1/t, for a shift c that misses every common
    point, and y = infinity from the order at u = 0 of the resultant in
    the 1/y chart, with its own shift.  The route ``fiber_divisor``
    replaces by one resultant and the Bezout number, kept as its
    oracle."""
    if not shift_is_valid(f, g, c):
        raise ValueError(f"shift {c} is not valid for ({f}, {g})")
    r = fiber_resultant(f, g, c)
    if r.is_zero():
        raise NotCoprime(f"vanishing fiber resultant for ({f}, {g})")
    fu, gu = reverse_y(f), reverse_y(g)
    ru = fiber_resultant(fu, gu, find_shift(fu, gu))
    if ru.is_zero():
        raise NotCoprime(f"vanishing fiber resultant in the 1/y chart for ({f}, {g})")
    w_inf = next(k for k, v in enumerate(ru.coeffs) if v != 0)
    return divisor_of_upoly(r, r.degree() + w_inf)


def run_charts() -> dict:
    failures: list[str] = []
    pool = binary_pool()
    pairs = [
        (pool[i].poly, pool[j].poly) for i in range(len(pool)) for j in range(i + 1, len(pool))
    ]
    shift_checked = 0
    for f, g in pairs:
        c1 = find_shift(f, g)
        c2 = find_shift(f, g, exclude=(c1,))
        shift_checked += 1
        d = fiber_divisor(f, g)
        if not _two_chart_fiber_divisor(f, g, c1) == _two_chart_fiber_divisor(f, g, c2) == d:
            failures.append(f"fiber divisor depends on the route or the shift for ({f}, {g})")
    # a shared component in y alone leaves Res_x nonzero; one of positive
    # x-degree makes it vanish
    common_checked = 0
    for f, g in pairs[:12]:
        for h, k in (((Y - _c(1)) * f, (Y - _c(1)) * g), (f * g, f)):
            common_checked += 1
            try:
                fiber_divisor(h, k)
            except NotCoprime:
                continue
            failures.append(f"common component of ({h}, {k}) not refused")
    oracle_checked = 0
    for f, g in pairs:
        if oracle_checked >= 24:
            break
        r = resultant_x(f, g)
        if r.degree() < 1 or any(e > 1 for _, e in squarefree_decomposition(r)):
            continue  # keep only certified-simple instances
        oracle_checked += 1
        roots = complex_roots(r, eps=1e-10)
        bad = [z for z in roots if not _numeric_common_root(f, g, z)]
        if bad:
            failures.append(f"resultant root of ({f}, {g}) is not a numeric intersection")
        # on the two-chart route the total over all charts is no
        # identity, so it must reach the bidegree bound there
        d = _two_chart_fiber_divisor(f, g, find_shift(f, g))
        bezout = f.deg_x() * g.deg_y() + f.deg_y() * g.deg_x()
        finite_deg = degree_K(d) - d.coeff(INF_Y)
        if finite_deg != len(roots):
            failures.append(f"finite intersection count mismatch for ({f}, {g})")
        if degree_K(d) != bezout:
            failures.append(f"Bezout total {degree_K(d)} != {bezout} for ({f}, {g})")
    return _result(
        "charts", shift_checked, failures, common_instances=common_checked, oracle_instances=oracle_checked
    )


# ---------------------------------------------------------------------------
# 9. archimedean calibration of the intersection pairing


def _canonical_route(D: ArakelovDivisorKp, c: int):
    """intersect(D, K_c) for the canonical representative
    K_c = arakelov_from_divisor(-2*inf_y) - 2*principal_arakelov(y - c):
    the numeric route that deg_Kp replaces by its closed form."""
    K_c = arakelov_from_divisor(Divisor.of(INF_Y, -2)) - principal_arakelov(_ypoly(-c, 1)).scale(2)
    return intersect(D, K_c)


def run_calibration() -> dict:
    failures: list[str] = []
    t0 = time.monotonic()
    fs = [
        _ypoly(-1, 1),
        _ypoly(2),
        _ypoly(-6, 1, 1),
        _ypoly(1, 0, 2),
        _ypoly(0, 1),
        _ypoly(3, 1),
        _ypoly(-2, 0, 1),
        _ypoly(1, 1, 1),
        _ypoly(4, 1),
        _ypoly(-1, 0, 0, 1),
    ]
    targets = [
        arakelov_from_divisor(Divisor.of(_yplace(-3, 1))),
        arakelov_from_divisor(Divisor.of(INF_Y)),
        arakelov_from_divisor(Divisor.make({_yplace(5, 1): 2, _yplace(1, 0, 1): 1})),
        arakelov_from_divisor(Divisor.make({_yplace(7, 1): 1, INF_Y: -1})),
        arakelov_from_divisor(Divisor.of(_yplace(-5, 0, 1))),
    ]
    checked = 0
    for f in fs:
        pa = principal_arakelov(f)
        for d in targets:
            if not pa.horizontal.disjoint_from(d.horizontal):
                continue
            checked += 1
            v = intersect(pa, d)
            if abs(v) > 1e-6:
                failures.append(f"product formula off by {float(v)} for f = {f}")
        for c in (4, 5):  # y - 4 and y - 5 lie off every support here
            checked += 1
            v = _canonical_route(pa, c)
            if abs(v) > 1e-6:
                failures.append(f"canonical route gives {float(v)} on div({f}) at c = {c}")
    for d in targets:
        for c in (4, 5):
            checked += 1
            v = _canonical_route(d, c)
            if abs(v - deg_Kp(d.horizontal)) > 1e-9:
                failures.append(
                    f"canonical route gives {float(v)} at c = {c}, deg_Kp {deg_Kp(d.horizontal)} "
                    f"for {d.horizontal}"
                )
    if abs(fs_kappa_quadrature() - fs_kappa_closed_form()) > 1e-9:
        failures.append("curvature integral disagrees with quadrature")
    for c in (0, 1, -2, 1.5, 3):
        if abs(fs_point_integral_quadrature(c) - fs_point_integral(c)) > 1e-9:
            failures.append(f"point integral disagrees with quadrature at {c}")
    if abs(principal_arakelov(_ypoly(0, 1)).arch) > 1e-9:
        failures.append("archimedean coefficient of div(y) is not zero")
    return _result(
        "calibration", checked, failures, seconds=round(time.monotonic() - t0, 3)
    )


# ---------------------------------------------------------------------------
# 10. residue scalar product: exact vanishing, symmetry, class invariance


def run_rsp() -> dict:
    """The residue scalar product is exactly 0 on every pair, and the
    bracket equals -2 times the Bezout number deg_K pair(A, B, Kprime),
    so the degree of pair is checked against the bidegree formula the
    bracket is built from; nonzero_bezout counts the pairs where that
    check can fail."""
    import random

    rng = random.Random(10)
    primes = binary_pool() + unary_pool()
    elements = element_pool()
    failures: list[str] = []
    sym_n = van_n = inv_n = bez_n = rounds = 0
    while min(sym_n, van_n, inv_n) < 20 and rounds < 500:
        rounds += 1
        m1, m2, n1, n2 = rng.sample(primes, 4)
        A = Divisor.make({m1: rng.choice([-2, -1, 1, 2]), m2: 1})
        B = Divisor.make({n1: 1, n2: rng.choice([-1, 1])})
        if not A.disjoint_from(B) or A.is_zero() or B.is_zero():
            continue
        sym_n += 1
        v_ab = residue_scalar_product(A, B)
        v_ba = residue_scalar_product(B, A)
        if v_ab != 0 or v_ba != 0:
            failures.append(f"nonzero ({v_ab}, {v_ba}) on ({A}; {B})")
        bezout = degree_K(pair(A, B, SIDE_KPRIME))
        bez_n += bezout != 0
        if bracket(A, B) != -2 * bezout:
            failures.append(f"bracket {bracket(A, B)} != -2 * Bezout {bezout} on ({A}; {B})")
        P = principal_divisor(elements[rounds % len(elements)])
        if P.disjoint_from(B):
            van_n += 1
            v = residue_scalar_product(P, B)
            if v != 0:
                failures.append(f"nonzero ({v}) on a principal divisor against {B}")
        try:
            A1 = principal_move(A, fresh=50 + rounds)
            A2 = second_move(A, principal_move(A, fresh=90 + rounds), 120 + rounds)
        except MoveFailure:
            continue
        if A1.disjoint_from(B) and A2.disjoint_from(B):
            inv_n += 1
            w1 = residue_scalar_product(A1, B)
            w2 = residue_scalar_product(A2, B)
            if w1 != 0 or w2 != 0:
                failures.append(f"nonzero ({w1}, {w2}) on moves of ({A}; {B})")
    if min(sym_n, van_n, inv_n) < 20:
        failures.append(
            f"corpus too small: symmetry {sym_n}, vanishing {van_n}, invariance {inv_n}"
        )
    return _result(
        "rsp",
        sym_n,
        failures,
        vanishing_instances=van_n,
        invariance_instances=inv_n,
        nonzero_bezout=bez_n,
    )


# ---------------------------------------------------------------------------
# 11. conjecture explorer: determinism and reporting


def run_explorer(trials: int = 100, max_deg: int = 2, seed: int = 7) -> dict:
    # each run starts from empty memos, so the second one recomputes
    # everything instead of reading back the first one's values
    failures: list[str] = []
    clear_caches()
    t0 = time.monotonic()
    first = explore_self_products(trials=trials, max_deg=max_deg, seed=seed)
    elapsed = time.monotonic() - t0
    clear_caches()
    second = explore_self_products(trials=trials, max_deg=max_deg, seed=seed)
    if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
        failures.append("explorer output is not reproducible by seed")
    if elapsed > 300:
        failures.append(f"explorer took {elapsed:.1f} s (limit 300 s)")
    if first["minimum"] is None or len(first["records"]) != trials:
        failures.append("explorer report is incomplete")
    return _result(
        "explorer",
        trials,
        failures,
        seconds=round(elapsed, 3),
        minimum=first["minimum"],
        negative_trials=first["negative_trials"],
    )


SUITES = {
    "symmetry": run_symmetry,
    "bilinearity": run_bilinearity,
    "principality": run_principality,
    "agreement": run_agreement,
    "different": run_different,
    "support": run_support,
    "selfpair": run_selfpair,
    "charts": run_charts,
    "calibration": run_calibration,
    "rsp": run_rsp,
    "explorer": run_explorer,
}


def run_suite(name: str) -> dict:
    if name == "all":
        results = [run_suite(n) for n in SUITES]
        return {
            "suite": "all",
            "results": results,
            "ok": all(r["ok"] for r in results),
        }
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
