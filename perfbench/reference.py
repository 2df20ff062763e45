"""Independent references for every case kind.

Each reference is either a closed form from the paper (Kneser's bound
holds, q = 2^L for the single-bit ladder, |X0 mod 4^m| = 2^m,
|(X0+X0) mod 4^m| = 3^m, exact counts of digit sets) or a brute force
over plain Python ``set``s and integers.  Nothing here imports buckdens
or reads a result saved from it.  ``check`` returns None when a case's
payload is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm
from operator import sub
from typing import Optional

from workloads import Case

#: the largest prefix+period range a periodic-algebra check will scan
MAX_SCAN = 10**7


# ---------------------------------------------------------------------------
# subsets of Z/mZ as plain sets
# ---------------------------------------------------------------------------


def members_of(bits: int) -> set[int]:
    return {i for i in range(bits.bit_length()) if bits >> i & 1}


def shifted(s: set[int], t: int, m: int) -> set[int]:
    return {(x + t) % m for x in s}


def is_periodic(s: set[int], m: int) -> bool:
    """Some proper divisor d of m has S + d = S."""
    return any(m % d == 0 and shifted(s, d, m) == s for d in range(1, m))


def is_ap(s: set[int], m: int) -> bool:
    """S = {a, a+d, ..., a+(l-1)d} with l = |S| distinct terms."""
    if len(s) == 1:
        return True
    return any(
        {(a + i * d) % m for i in range(len(s))} == s for d in range(1, m) for a in s
    )


def qp_witness_ok(s: set[int], m: int, d: int, shift: int, trace: set[int],
                  periodic_part: set[int], nonempty: bool) -> bool:
    """S minus its part on the coset shift + K is K-periodic, K = <d>,
    with the trace (S - shift) & K a proper subset of K."""
    if not (1 < d < m and m % d == 0 and shift in s):
        return False
    k = set(range(0, m, d))
    if trace != shifted(s, -shift, m) & k or trace == k:
        return False
    if periodic_part != s - shifted(trace, shift, m):
        return False
    if nonempty and not periodic_part:
        return False
    return shifted(periodic_part, d, m) == periodic_part


def is_quasi_periodic(s: set[int], m: int, nonempty: bool) -> bool:
    if is_periodic(s, m):
        return False
    for d in range(2, m):
        if m % d:
            continue
        k = set(range(0, m, d))
        for shift in s:
            trace = shifted(s, -shift, m) & k
            rest = s - shifted(trace, shift, m)
            if qp_witness_ok(s, m, d, shift, trace, rest, nonempty):
                return True
    return False


def structure_tag(s: set[int], m: int, nonempty: bool = False) -> str:
    ap = is_ap(s, m)
    if m > 1 and is_periodic(s, m):
        return "periodic"
    qp = is_quasi_periodic(s, m, nonempty)
    if qp and ap:
        return "ap-and-quasi-periodic"
    if qp:
        return "quasi-periodic"
    return "arithmetic-progression" if ap else "none"


@lru_cache(maxsize=None)
def first_kemperman_counterexample(m: int, nonempty: bool) -> Optional[int]:
    """First S (ascending encoding) with |S+S| = 2|S| - 1, S+S neither
    periodic nor quasi-periodic, and S not an arithmetic progression."""
    for enc in range(1, 1 << m):
        s = members_of(enc)
        doubled = {(x + y) % m for x in s for y in s}
        if len(doubled) != 2 * len(s) - 1 or is_periodic(doubled, m):
            continue
        if not is_quasi_periodic(doubled, m, nonempty) and not is_ap(s, m):
            return enc
    return None


# ---------------------------------------------------------------------------
# unions of progressions a + kN and the minimal-modulus search
# ---------------------------------------------------------------------------


def class_union_density(classes) -> Fraction:
    """Density of a finite union of residue classes c + gZ."""
    period = lcm(*(g for _, g in classes))
    hit = sum(1 for r in range(period) if any((r - c) % g == 0 for c, g in classes))
    return Fraction(hit, period)


@lru_cache(maxsize=None)
def analyze_reference(progressions: tuple, q_max: int) -> dict:
    """Minimal q for A + A, A the union of the progressions a + kN.

    (a + kN) + (b + lN) is eventually a + b + gcd(k, l)Z, so the density
    D of A + A is that of a union of classes.  Mod q, a + kN covers the
    coset a + gcd(k, q)Z, and a sum of two cosets is a coset.  The
    identity D = (2|P| - 1) / q makes D q an integer, so only multiples
    of D's denominator can qualify.
    """
    pairs = [(a + b, gcd(k, l)) for a, k in progressions for b, l in progressions]
    doubled = class_union_density(pairs)
    sigma = 2 * class_union_density(progressions)
    for q in range(doubled.denominator, q_max + 1, doubled.denominator):
        if q < 2:
            continue
        p = set()
        for a, k in progressions:
            g = gcd(k, q)
            p |= {(a + g * t) % q for t in range(q // g)}
        critical = 2 * len(p) - 1
        if doubled * q != critical:
            continue
        sums = set()
        for c, g in pairs:
            h = gcd(g, q)
            sums |= {(c + h * t) % q for t in range(q // h)}
        if len(sums) == q or len(sums) != critical or is_periodic(sums, q):
            continue
        return {"minimal": True, "q": q, "multiplicities": [len(p), len(p)],
                "sum_size": critical, "tag": structure_tag(sums, q), "sigma": sigma}
    return {"minimal": False, "q": None, "sigma": sigma}


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def check_analyze(params: dict, report: dict) -> Optional[str]:
    ref = analyze_reference(tuple(map(tuple, params["progressions"])), params["q_max"])
    got = {"minimal": report["minimal"], "q": report["q"], "sigma": _frac(report["sigma"])}
    want = {k: ref[k] for k in got}
    if ref["minimal"]:
        got.update(multiplicities=report["multiplicities"], sum_size=report["sum_size"],
                   tag=report["classification"]["tag"],
                   identity=report["density_identity_holds"])
        want.update(multiplicities=ref["multiplicities"], sum_size=ref["sum_size"],
                    tag=ref["tag"], identity=True)
    return None if got == want else f"analyze gave {got}, reference {want}"


# ---------------------------------------------------------------------------
# eventually periodic algebra, by membership up to 2T + 2q and one period
# ---------------------------------------------------------------------------


def eps_member(e: dict):
    q, t, prefix, tail = e["q"], e["T"], set(e["prefix"]), set(e["tail"])
    return lambda n: n in prefix if n < t else n % q in tail


def check_eps_op(params: dict, result: dict) -> Optional[str]:
    """Agreement on [0, threshold + period) proves two eventually
    periodic sets equal; the reference is built from raw membership."""
    op, a, b = params["op"], params["a"], params.get("b")
    ma = eps_member(a)
    period = lcm(a["q"], result["q"], b["q"] if b else 1)
    top = max(a["T"], b["T"] if b else 0, result["T"])
    if op == "add":
        # beyond 2T + 2q membership of A + B depends on the residue only
        top = max(top, 2 * max(a["T"], b["T"]) + 2 * lcm(a["q"], b["q"]))
    elif op == "shift":
        top += params["c"]
    bound = top + period
    if bound > MAX_SCAN:
        return f"{op} result has period {result['q']}, threshold {result['T']}: out of range"
    if op == "add":
        mb = eps_member(b)
        xs = [n for n in range(bound) if ma(n)]
        ys = [n for n in range(bound) if mb(n)]
        sums = set()
        for x in xs:
            for y in ys:
                if x + y >= bound:
                    break
                sums.add(x + y)
        expect = sums.__contains__
    elif op == "union":
        mb = eps_member(b)
        expect = lambda n: ma(n) or mb(n)
    elif op == "intersect":
        mb = eps_member(b)
        expect = lambda n: ma(n) and mb(n)
    elif op == "complement":
        expect = lambda n: not ma(n)
    else:
        c = params["c"]
        expect = lambda n: n >= c and ma(n - c)
    mr = eps_member(result)
    for n in range(bound):
        if mr(n) != expect(n):
            return f"{op}: membership of {n} is {mr(n)}, reference {expect(n)}"
    return None


# ---------------------------------------------------------------------------
# member lists of the sampled families
# ---------------------------------------------------------------------------

_ROOTS = {"sqrt2": 2, "sqrt3": 3, "sqrt5": 5}


@lru_cache(maxsize=None)
def weyl_members(theta: str, alpha: str, horizon: int) -> tuple[int, ...]:
    """{n <= horizon : frac(n theta) < alpha}, decided in integers.

    For theta = sqrt(D) and k = isqrt(D n^2): frac < a/b iff
    D (b n)^2 < (b k + a)^2.  For the golden ratio (1 + sqrt 5) / 2 with
    k = floor(n theta): frac < a/b iff 5 (b n)^2 < (b (2k - n) + 2a)^2.
    """
    frac = Fraction(alpha)
    a, b = frac.numerator, frac.denominator
    out = [0]
    if theta == "golden":
        for n in range(1, horizon + 1):
            k = (n + isqrt(5 * n * n)) // 2
            rhs = b * (2 * k - n) + 2 * a
            if 5 * (b * n) ** 2 < rhs * rhs:
                out.append(n)
        return tuple(out)
    d = _ROOTS[theta]
    for n in range(1, horizon + 1):
        rhs = b * isqrt(d * n * n) + a
        if d * (b * n) ** 2 < rhs * rhs:
            out.append(n)
    return tuple(out)


def digit_set(base: int, digits: tuple[int, ...], horizon: int) -> list[int]:
    """Ascending n <= horizon whose base-`base` digits all lie in `digits`."""
    out = [0]
    place = 1
    while place <= horizon:
        out += [x + d * place for d in digits[1:] for x in out if x + d * place <= horizon]
        place *= base
    return sorted(out)


def hook_members(horizon: int) -> list[int]:
    out, product, r = [], 1, 1
    while True:
        product *= r
        if r + product > horizon:
            return out
        out.append(r + product)
        r += 1


@lru_cache(maxsize=None)
def omega_table(horizon: int) -> list[int]:
    """Distinct prime factor counts by a sieve."""
    omega = [0] * (horizon + 1)
    for p in range(2, horizon + 1):
        if omega[p] == 0:
            for multiple in range(p, horizon + 1, p):
                omega[multiple] += 1
    return omega


def _omega(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def phi_t_reference(k: int, t: int) -> int:
    """#{1 <= a <= k : omega(gcd(a, k)) <= t}."""
    small = {g: _omega(g) <= t for g in range(1, k + 1) if k % g == 0}
    return sum(1 for a in range(1, k + 1) if small[gcd(a, k)])


def three_density_members(params: dict, horizon: int) -> list[int]:
    """Blocks [N^k, N^k / (1 - gamma)] filtered by frac(n theta) < beta and
    by the lexicographically smallest nested chain R_k of residues mod
    2^k with |R_k| >= floor(alpha 2^k)."""
    alpha, gamma = Fraction(params["alpha"]), Fraction(params["gamma"])
    base = params.get("n_base", 10)
    weyl = set(weyl_members(params.get("theta", "sqrt2"), params["beta"], horizon))
    chain = [set()]
    out = []
    k = 1
    while base**k <= horizon:
        while len(chain) <= k:
            j = len(chain)
            nested = chain[-1] | {r + (1 << (j - 1)) for r in chain[-1]}
            fill = 0
            while len(nested) < int(alpha * (1 << j)):
                nested.add(fill)
                fill += 1
            chain.append(nested)
        low = base**k
        high = low * (1 - gamma).denominator // (1 - gamma).numerator
        out += [n for n in range(low, min(high, horizon) + 1)
                if n % (1 << k) in chain[k] and n in weyl]
        k += 1
    return sorted(set(out))


def family_members(desc: dict, horizon: int) -> list[int]:
    family = desc["family"]
    if family == "weyl":
        return list(weyl_members(desc["theta"], desc["alpha"], horizon))
    if family == "x0":
        return digit_set(4, (0, 1), horizon)
    if family == "hook":
        return hook_members(horizon)
    if family == "p_t":
        omega = omega_table(horizon)
        return [n for n in range(2, horizon + 1) if omega[n] <= desc["t"]]
    if family == "three_density":
        return three_density_members(desc, horizon)
    raise ValueError(f"no member reference for {family!r}")


def sumset_members(descs: list[dict], horizon: int) -> list[int]:
    if all(d["family"] == "x0" for d in descs) and len(descs) == 2:
        return digit_set(4, (0, 1, 2), horizon)  # digit sums without carry
    xs, ys = (family_members(d, horizon) for d in descs)
    return sorted({x + y for x in xs for y in ys if x + y <= horizon})


def dk_positions(desc: dict, below: int) -> list[int]:
    """K for the digit set D_K: the prefix, then its rule, below a bound."""
    ks = list(desc["k_prefix"])
    rule, step = desc.get("rule"), desc.get("step", 1)
    while rule and ks[-1] < below:
        last = ks[-1]
        ks.append(2 * last + 1 if rule == "double_gap" else 2 * last if rule == "powers_of_two"
                  else last + step)
    return [k for k in ks if k < below]


def window_reference(members: list[int], horizon: int) -> dict:
    present = bytearray(horizon + 1)
    for n in members:
        if 1 <= n <= horizon:
            present[n] = 1
    counts = list(accumulate(present))  # counts[n] = |X cap [1, n]|
    ratios = [Fraction(counts[n], n) for n in (max(1, horizon * j // 16) for j in range(8, 17))]
    width = isqrt(horizon)
    windows = list(map(sub, counts[width:], counts[: horizon + 1 - width]))
    return {"d_lower": min(ratios), "d_upper": max(ratios),
            "banach_lower": Fraction(min(windows), width),
            "banach_upper": Fraction(max(windows), width), "window_length": width}


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------


def _cli_json(payload: dict):
    if payload["code"] != 0:
        raise _Mismatch(f"exit code {payload['code']}")
    return json.loads(payload["stdout"])


class _Mismatch(Exception):
    pass


def _suite_ok(payload: dict, rows: int) -> Optional[str]:
    if not payload["passed"] or len(payload["rows"]) != rows:
        return f"suite passed={payload['passed']} with {len(payload['rows'])} rows"
    failing = [r["check"] for r in payload["rows"] if not r["passed"]]
    return f"failing rows {failing}" if failing else None


def _check_members(p: dict, payload: dict) -> Optional[str]:
    if p["format"] == "json":
        got = _cli_json(payload)["members"]
    else:
        if payload["code"] != 0:
            return f"exit code {payload['code']}"
        got = [int(x) for x in payload["stdout"].split()]
    want = family_members(p["set"], p["horizon"])
    return None if got == want else f"{len(got)} members, reference has {len(want)}"


def _check_windows(p: dict, payload: dict) -> Optional[str]:
    report = _cli_json(payload)
    ref = window_reference(family_members(p["set"], p["horizon"]), p["horizon"])
    got = {k: _frac(report[k]["value"]) for k in ("d_lower", "d_upper", "banach_lower", "banach_upper")}
    got["window_length"] = report["window_length"]
    return None if got == ref else f"windows {got}, reference {ref}"


def _check_chain(p: dict, payload: dict) -> Optional[str]:
    report = _cli_json(payload)
    desc, base = p["set"], p["base"]
    seq = []
    for j in range(1, p["depth"] + 1):
        e = j * (base.bit_length() - 1)  # modulus 2^e
        free = j if desc["family"] == "x0" else e - len(dk_positions(desc, e))
        seq.append([1 << e, Fraction(1 << free, 1 << e)])  # |X0 mod 4^j| = 2^j
    got = [[m, _frac(r)] for m, r in report["sequence"]]
    if report["kind"] != "upper_bound_sequence" or got != seq:
        return f"chain {report['kind']} {got[:3]}..., reference {seq[:3]}..."
    if _frac(report["value"]) != min(r for _, r in seq):
        return "chain value is not the minimum ratio"
    return None


def _check_sumset(p: dict, payload: dict) -> Optional[str]:
    report = _cli_json(payload)
    members = sumset_members(p["sets"], p["horizon"])
    if report["members"] != members:
        return f"{len(report['members'])} sumset members, reference has {len(members)}"
    exact = all(d["family"] == "x0" for d in p["sets"])
    for row, m in zip(report["profiles"], p["mods"], strict=True):
        if exact:
            want = digit_set(4, (0, 1, 2), m - 1)  # |(X0+X0) mod 4^j| = 3^j
            kind = "exact-profile"
        else:
            want = sorted({n % m for n in members})
            kind = "sampled"
        if row["m"] != m or row["residues"] != want or row["count"] != len(want) or row["kind"] != kind:
            return f"profile mod {m}: {row['count']} {row['kind']}, reference {len(want)} {kind}"
    return None


def _check_buck_upper_sampled(p: dict, payload: dict) -> Optional[str]:
    report = _cli_json(payload)
    members = family_members(p["set"], p["horizon"])
    seq = [[1 << e, Fraction(len({n % (1 << e) for n in members}), 1 << e)] for e in range(1, 11)]
    got = [[m, _frac(r)] for m, r in report["sequence"]]
    value = report["value"]
    ok = (report["kind"] == "sampled" and got == seq and _frac(value["lo"]) == max(r for _, r in seq)
          and _frac(value["hi"]) == 1)
    return None if ok else f"sampled upper density {value}, sequence {got[:3]}..."


def _check(case: Case, payload) -> Optional[str]:
    kind, p = case.kind, case.params
    if kind == "kneser_sweep":
        return None if payload is None else f"Kneser counterexample {payload}"
    if kind == "kemperman_sweep":
        want = first_kemperman_counterexample(p["m"], p["nonempty"])
        return None if payload == want else f"first counterexample {payload}, reference {want}"
    if kind in ("detect_qp", "brute_qp"):
        m, s = p["m"], members_of(p["bits"])
        want = is_quasi_periodic(s, m, p["nonempty"])
        if kind == "brute_qp":
            return None if payload == want else f"quasi-periodic {payload}, reference {want}"
        if payload is None:
            return None if not want else "no witness, reference finds one"
        ok = qp_witness_ok(s, m, payload["d"], payload["shift"], set(payload["trace"]),
                           set(payload["periodic_part"]), p["nonempty"])
        return None if ok else f"invalid witness {payload}"
    if kind == "ruzsa":
        q, r, s = p["q"], p["r"], p["s"]
        lhs = len(r) * len({(x + y) % q for x in s for y in s})
        rhs = len({(x + y) % q for x in r for y in s}) ** 2
        return None if payload == [lhs, rhs, lhs <= rhs] else f"{payload}, reference {[lhs, rhs]}"
    if kind == "ruzsa_suite":
        if payload["rows"] and payload["rows"][0]["detail"] != "0 violations":
            return payload["rows"][0]["detail"]
        return _suite_ok(payload, 4)
    if kind == "thin_basis_suite":
        return _suite_ok(payload, 2)
    if kind == "thin_basis":
        m, a = p["m"], payload
        sums = {x + y for x in a for y in a}
        ok = a == sorted(set(a)) and 0 <= a[0] and a[-1] < m and len(a) ** 2 < 4 * m
        return None if ok and sums >= set(range(m)) else f"thin basis of {m} fails: size {len(a)}"
    if kind == "analyze":
        return check_analyze(p, _cli_json(payload) if "argv" in p else payload)
    if kind == "exit_code":
        got = (payload["code"], payload["stdout"])
        return None if got == (p["code"], "") else f"exit {got[0]}, expected {p['code']}"
    if kind == "eps_op":
        return check_eps_op(p, payload)
    if kind == "members":
        return _check_members(p, payload)
    if kind == "windows":
        return _check_windows(p, payload)
    if kind == "chain":
        return _check_chain(p, payload)
    if kind == "sumset":
        return _check_sumset(p, payload)
    if kind == "buck_upper_sampled":
        return _check_buck_upper_sampled(p, payload)
    if kind == "weyl_suite":
        return _suite_ok(payload, 6)
    if kind == "prop67_suite":
        return _suite_ok(payload, 6)
    if kind == "phi_t":
        want = phi_t_reference(p["k"], p["t"])
        return None if payload == want else f"phi_t {payload}, reference {want}"
    raise ValueError(f"unknown case kind {kind!r}")


def check(case: Case, status: str, payload) -> Optional[str]:
    """None if the case is right or timed out; otherwise the reason."""
    if status == "timeout":
        return None
    if status == "error":
        return f"raised {payload}"
    try:
        return _check(case, payload)
    except _Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
