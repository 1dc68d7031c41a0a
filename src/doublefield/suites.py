"""Named acceptance suites.

Each suite builds a deterministic desk-scale corpus, checks one family
of properties of the library (symmetry, bilinearity, principality,
route agreement, calibration, ...), and returns a plain dictionary with
the number of instances checked and any failures; ``run_suite`` adds
the wall-clock seconds each suite took.  The suites back both
``doublefield verify`` and the acceptance test module.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .arakelov import (
    bracket,
    deg_Kp,
    explore_self_products,
    principal_move,
    residue_scalar_product,
    second_move,
)
from .divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    degree_K,
    degree_one_coeffs,
    divisor_of_upoly,
    principal_divisor,
)
from .errors import DoubleFieldError, InputError, NotCoprime, PrecisionFailure
from .exact import BPoly, UPoly, clear_caches, factor_q, qdiv, resultant_x
from .oracles import (
    arakelov_from_divisor,
    canonical_route,
    complex_roots,
    different_divisor,
    fs_kappa_closed_form,
    fs_kappa_quadrature,
    fs_point_integral,
    fs_point_integral_quadrature,
    intersect,
    numeric_common_root,
    pole_divisor,
    principal_arakelov,
)
from .pairing import SIDE_K, SIDE_KPRIME, fiber_divisor, pair, self_pair_degree_one
from .residues import correspondence, residue_mod_Kp_degree_one, residue_mod_degree_one

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


def degree_one_pool() -> list[BinaryPlace]:
    """Degree-one binary primes a(y)x - b(y), whose residue embeddings
    x -> b/a are rational functions of y."""
    polys = [
        X - Y,
        X - Y**2,
        X - Y + _c(1),
        X - Y - _c(2),
        X - 2 * Y - _c(1),
        X - Y**2 + _c(2),
        Y * X - _c(1),
        Y * X - Y - _c(1),
        (Y - _c(1)) * X - Y,
        Y * X - Y**2 - _c(1),
        (Y + _c(1)) * X - Y + _c(1),
        X - Y**2 - Y - _c(1),
    ]
    return [BinaryPlace.make(f) for f in polys]


def extended_degree_one_pool() -> list[BinaryPlace]:
    polys = [
        X - Y**3,
        X - Y**3 + _c(2),
        X - Y - _c(3),
        X - Y + _c(3),
        X - Y**2 - 2 * Y,
        (Y + _c(1)) * X - _c(1),
        Y * X - _c(2),
        (Y + _c(2)) * X - Y,
        X - Y**3 - _c(1),
        (Y - _c(2)) * X - Y - _c(5),
    ]
    return degree_one_pool() + [BinaryPlace.make(f) for f in polys]


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
    # factor_q's memo is keyed up to a unit, so pair(A, B) and pair(B, A)
    # would share each fiber resultant's factorization: every pair(A, B)
    # is computed from empty memos, then every pair(B, A) from empty memos
    primes = binary_pool() + unary_pool()
    cases = [
        (primes[i], primes[j], side)
        for i in range(len(primes))
        for j in range(i + 1, len(primes))
        for side in (SIDE_K, SIDE_KPRIME)
    ]
    clear_caches()
    left = [pair(Divisor.of(m), Divisor.of(n), side) for m, n, side in cases]
    clear_caches()
    right = [pair(Divisor.of(n), Divisor.of(m), side) for m, n, side in cases]
    failures = [
        f"pair({m}, {n}, {side}) asymmetric"
        for (m, n, side), a, b in zip(cases, left, right)
        if a != b
    ]
    return _result("symmetry", len(cases) // 2, failures)


# ---------------------------------------------------------------------------
# 2. bilinearity of pairing, residues and correspondences


def run_bilinearity() -> dict:
    import random

    rng = random.Random(2)
    primes = binary_pool() + unary_pool()
    deg_one = degree_one_pool()
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
        corr_n += 1
        if correspondence(A1 + A2, p) != correspondence(A1, p) + correspondence(A2, p):
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
    moduli = degree_one_pool()
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
                c = correspondence(A, p)
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
            checked += 1
            if correspondence(A, q) != residue_mod_Kp_degree_one(A, q):
                failures.append(f"paths disagree for ({m}, {q})")
    return _result("agreement", checked, failures)


# ---------------------------------------------------------------------------
# 5. pairing of degree-one primes equals the different divisor


def run_different() -> dict:
    failures: list[str] = []
    primes = degree_one_pool()
    checked = 0
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            checked += 1
            lhs = pair(Divisor.of(primes[i]), Divisor.of(primes[j]))
            rhs = different_divisor(primes[i], primes[j])
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
    primes = degree_one_pool()
    checked = 0
    for i in range(len(primes)):
        for j in range(len(primes)):
            if i == j:
                continue
            m, n = primes[i], primes[j]
            a, b = degree_one_coeffs(n)
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
                den_val = a.eval(c)
                if den_val == 0:
                    continue
                x_val = qdiv(b.eval(c), den_val)
                below = UPoly.make("y", [-c.numerator, c.denominator])
                corr = correspondence(Divisor.of(m), UnaryPlace.finite(below))
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
    for m in extended_degree_one_pool():
        checked += 1
        sp = self_pair_degree_one(m)
        # the image of dx under x -> b/a is -2 times the pole divisor of b/a
        total = degree_K(sp.value - pole_divisor(m).scale(2))
        if total != 0:
            failures.append(f"self pairing of {m} leaves degree {total}")
    return _result("selfpair", checked, failures)


# ---------------------------------------------------------------------------
# 8. Moebius equivariance of the fiber rule and the numeric intersection oracle


# y -> 1/y, y -> y + 1 and y -> (2y + 1)/(y + 1), as (a, b, c, d) for (ay + b)/(cy + d)
_MOEBIUS = ((0, 1, 1, 0), (1, 1, 0, 1), (2, 1, 1, 1))


def _pull_curve(f: BPoly, s) -> BPoly:
    """(cy + d)^(deg_y f) * f(x, (ay + b)/(cy + d)) for s = (a, b, c, d):
    the form of f with Y0 and Y1 sent to dY0 + cY1 and bY0 + aY1."""
    a, b, c, d = s
    num, den, n = a * Y + _c(b), c * Y + _c(d), f.deg_y()
    return sum((X**i * num**j * den ** (n - j) * v for (i, j), v in f.terms), BPoly.zero())


def _pull_divisor(D: Divisor, s) -> Divisor:
    """sigma^* D over the places of Q(y): a finite place q of degree k
    goes to the zeros of the form (cy + d)^k * q(sigma(y)) of degree k,
    and inf_y (the form Y0) to those of cy + d, so a place that sigma
    sends to infinity needs no case of its own."""
    _, _, c, d = s
    out = []
    for m, w in D.coeffs:
        if m.is_infinity():
            pulled = divisor_of_upoly(_ypoly(d, c), 1)
        else:
            form = _pull_curve(BPoly.from_upoly(m.poly), s).coeff_of_x(0)
            pulled = divisor_of_upoly(form, m.poly.degree())
        out += pulled.scale(w).coeffs
    return Divisor.make(out)


def run_charts() -> dict:
    """Criterion 8: the fiber rule commutes with Moebius maps of y, and
    its roots are numeric intersections.

    Proof of the equivariance.  Let sigma(y) = (ay + b)/(cy + d) with
    ad != bc.  Then phi = (id, sigma) is an automorphism of P1 x P1 that
    sends the fiber over y0 onto the fiber over sigma(y0).  It pulls a
    form F(X; Y0, Y1) back to F(X; dY0 + cY1, bY0 + aY1), of the same
    bidegree, whose chart y = Y1/Y0 is ``_pull_curve``.  An isomorphism
    keeps intersection multiplicities (Fulton, Algebraic Curves, 3.3 and
    5.1), so the intersections of phi^*f and phi^*g above y0 are those of
    f and g above sigma(y0), and
    fiber_divisor(phi^*f, phi^*g) = sigma^* fiber_divisor(f, g),
    with sigma^* as in ``_pull_divisor``.  Under y -> 1/y the place
    y = infinity becomes the root y = 0 of an actual resultant instead of
    the Bezout number minus a degree, and under all three maps the two
    sides factor different polynomials.  Where they factor one
    polynomial up to a unit, ``factor_q``'s memo would serve the second
    side from the first, so each side runs from empty memos.
    """
    curves = [m.poly for m in binary_pool()]
    index = [(i, j) for i in range(len(curves)) for j in range(i + 1, len(curves))]
    pairs = [(curves[i], curves[j]) for i, j in index]
    cases = [(i, j, s) for i, j in index for s in _MOEBIUS]
    clear_caches()
    direct = [fiber_divisor(f, g) for f, g in pairs]
    expected = [_pull_divisor(d, s) for d in direct for s in _MOEBIUS]
    clear_caches()
    pulled = {s: [_pull_curve(f, s) for f in curves] for s in _MOEBIUS}
    failures = [
        f"fiber divisor of ({curves[i]}, {curves[j]}) is not equivariant under (a, b, c, d) = {s}"
        for (i, j, s), rhs in zip(cases, expected)
        if fiber_divisor(pulled[s][i], pulled[s][j]) != rhs
    ]
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
    for (f, g), d in zip(pairs, direct):
        if oracle_checked >= 24:
            break
        r = resultant_x(f, g)
        if r.degree() < 1 or any(e > 1 for _, e in factor_q(r)[1]):
            continue  # keep only certified-simple instances
        oracle_checked += 1
        roots = complex_roots(r, eps=1e-10)
        bad = [z for z in roots if not numeric_common_root(f, g, z)]
        if bad:
            failures.append(f"resultant root of ({f}, {g}) is not a numeric intersection")
        # the y = infinity term tops the total up to the Bezout number
        bezout = f.deg_x() * g.deg_y() + f.deg_y() * g.deg_x()
        finite_deg = degree_K(d) - d.coeff(INF_Y)
        if finite_deg != len(roots):
            failures.append(f"finite intersection count mismatch for ({f}, {g})")
        if degree_K(d) != bezout:
            failures.append(f"Bezout total {degree_K(d)} != {bezout} for ({f}, {g})")
    return _result(
        "charts",
        len(pairs),
        failures,
        equivariance_instances=len(cases),
        common_instances=common_checked,
        oracle_instances=oracle_checked,
    )


# ---------------------------------------------------------------------------
# 9. archimedean calibration of the intersection pairing


def run_calibration() -> dict:
    failures: list[str] = []
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
            v = canonical_route(pa, c)
            if abs(v) > 1e-6:
                failures.append(f"canonical route gives {float(v)} on div({f}) at c = {c}")
    for d in targets:
        for c in (4, 5):
            checked += 1
            v = canonical_route(d, c)
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
    return _result("calibration", checked, failures)


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
        A1 = principal_move(A, fresh=50 + rounds)
        A2 = second_move(A, principal_move(A, fresh=90 + rounds), 120 + rounds)
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


EXPLORER_TRIALS = 100
EXPLORER_MAX_DEG = 2
EXPLORER_SEED = 7


def run_explorer() -> dict:
    # each run starts from empty memos, so the second one recomputes
    # everything instead of reading back the first one's values
    failures: list[str] = []
    clear_caches()
    t0 = time.monotonic()
    first = explore_self_products(
        trials=EXPLORER_TRIALS, max_deg=EXPLORER_MAX_DEG, seed=EXPLORER_SEED
    )
    elapsed = time.monotonic() - t0
    clear_caches()
    second = explore_self_products(
        trials=EXPLORER_TRIALS, max_deg=EXPLORER_MAX_DEG, seed=EXPLORER_SEED
    )
    if json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True):
        failures.append("explorer output is not reproducible by seed")
    if elapsed > 300:
        failures.append(f"explorer took {elapsed:.1f} s (limit 300 s)")
    if first["minimum"] is None or len(first["records"]) != EXPLORER_TRIALS:
        failures.append("explorer report is incomplete")
    return _result(
        "explorer",
        EXPLORER_TRIALS,
        failures,
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
    """Run one suite, or every suite for "all", and time each.  A library
    error raised inside a suite is that suite's one failure, with 0
    instances checked, so ``verify`` reports it as a FAIL line.  Only
    PrecisionFailure, a limit of the numeric oracle rather than a failed
    check, passes through (``verify`` exit 4).  An unknown name is an
    InputError that lists the suites."""
    if name == "all":
        results = [run_suite(n) for n in SUITES]
        return {
            "suite": "all",
            "results": results,
            "ok": all(r["ok"] for r in results),
        }
    if name not in SUITES:
        names = ", ".join(sorted(SUITES))
        raise InputError(f"unknown suite {name!r}; the suites are {names} and all")
    t0 = time.monotonic()
    try:
        result = SUITES[name]()
    except PrecisionFailure:
        raise
    except DoubleFieldError as exc:
        # the library refused what the suite built from its own corpus
        result = _result(name, 0, [f"{type(exc).__name__}: {exc}"])
    result["seconds"] = round(time.monotonic() - t0, 3)
    return result
