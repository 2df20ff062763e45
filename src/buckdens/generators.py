"""Explicit set families: lazily built subsets of N.

Each family is wrapped in a :class:`SetDescription` carrying a members
bitmask built from the construction, an optional exact modular-profile
oracle, and (for families that are honestly eventually periodic) an
exact periodic form.  Infinite parameter sequences are presented
finitely: a prefix plus a closed-form rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import count, takewhile
from math import isqrt, prod
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

from . import periodic as zper
from .periodic import EventuallyPeriodicSet, ModularProfile
from .zmod import (
    MAX_MODULUS, CertificateError, ResidueSet, add_bits, bit_positions, check_horizon,
    check_width, digits_mask, divisors, fold_bits, linear_sum_bits, members_mask,
    prime_factors, sumset as residue_sumset, sumset_bits, tile_bits,
)


@dataclass(frozen=True, eq=False)
class SetDescription:
    """A lazily evaluated subset of N.

    ``builder(horizon)`` constructs the members n <= horizon for every
    horizon >= 0, by construction of the family: as a bitmask (bit n set
    iff n is a member), or, for a family too sparse for a mask as wide as
    its horizons (``hook``), as an ascending list.  That is the only member
    form: every reader answers from it, kept for the last horizon asked.
    ``profile_fn(m)`` gives the modular profile mod m under the contract
    stated on :class:`ModularProfile` (attained residues exact, cofinitely
    attained ones a certified subset), or None where the family has no
    exact profile (every modulus by default).  ``periodic_form`` is set when
    X is exactly eventually periodic, in which case :func:`from_periodic`
    gives a profile at every modulus.
    """

    family: str
    builder: Callable[[int], Union[int, list[int]]]
    profile_fn: Callable[[int], Optional[ModularProfile]] = lambda m: None
    periodic_form: Optional[EventuallyPeriodicSet] = None
    _built: dict = field(default_factory=dict, init=False, repr=False)

    def profile(self, m: int) -> Optional[ModularProfile]:
        return self.profile_fn(m)

    def built_members(self, horizon: int) -> Union[int, list[int]]:
        """The members n <= horizon in the form the builder made them: a
        mask, or an ascending list (``hook``, or a union past the cap).  A
        list is shared by every call at its horizon: callers must not
        mutate it."""
        if horizon not in self._built:
            self._built.clear()
            self._built[horizon] = self._build(horizon)
        return self._built[horizon]

    def members(self, horizon: int) -> list[int]:
        """All members n <= horizon, ascending."""
        built = self.built_members(horizon)
        return bit_positions(built) if isinstance(built, int) else built

    def members_mask(self, horizon: int) -> int:
        """The bitmask of ``members(horizon)``; a list's mask is checked
        against the width cap before it is built."""
        built = self.built_members(horizon)
        if isinstance(built, int):
            return built
        width = built[-1] + 1 if built else 0
        check_width(width, f"{self.family} mask")
        return members_mask(built, width)

    def positive_count(self, horizon: int) -> int:
        """|X cap [1, horizon]|, the numerator of the counting ratio."""
        built = self.built_members(horizon)
        if isinstance(built, int):
            return (built >> 1).bit_count()
        return len(built) - (built[:1] == [0])

    def residues(self, m: int, horizon: int) -> int:
        """The residues mod m of the members n <= horizon, as an m-bit mask:
        a mask folded mod m, or a list reduced mod m member by member.  The
        caller checks m against the cap."""
        built = self.built_members(horizon)
        if isinstance(built, int):
            return fold_bits(built, m)
        return members_mask({n % m for n in built}, m)

    def _build(self, horizon: int) -> Union[int, list[int]]:
        return self.builder(horizon) if horizon >= 0 else 0

    def __repr__(self) -> str:
        return f"SetDescription({self.family!r})"


def from_periodic(eps: EventuallyPeriodicSet, family: str = "periodic") -> SetDescription:
    """An eventually periodic set as a description, exact at every modulus."""
    return SetDescription(
        family=family,
        builder=eps.members_mask,
        profile_fn=eps.modular_profile,
        periodic_form=eps,
    )


# ---------------------------------------------------------------------------
# dyadic unions  B = union over bits a_j = 1 of (2^(j-1) + 2^j N)
# ---------------------------------------------------------------------------


def gen_b_alpha(bits: str) -> SetDescription:
    """Union of dyadic progressions selected by a binary expansion.

    ``bits`` lists a_1 a_2 ... a_L; position j contributes the class
    2^(j-1) + 2^j N.  The classes are disjoint (n > 0 lies in the class
    of its 2-adic valuation + 1), so the union is exactly periodic with
    period 2^L and its periodic form decides membership; its density is
    the dyadic rational 0.a_1...a_L.
    """
    if not bits or any(c not in "01" for c in bits):
        raise ValueError("bits must be a nonempty binary string")
    if "1" not in bits:
        raise ValueError("at least one bit must be set")
    check_width(1 << (bits.rindex("1") + 1), "period")  # before any progression is built
    progressions = [
        (1 << (j - 1), 1 << j) for j, c in enumerate(bits, start=1) if c == "1"
    ]
    return from_periodic(zper.from_progressions(progressions), family="b_alpha")


def b_alpha_value(bits: str) -> Fraction:
    """The dyadic rational 0.a_1 a_2 ... a_L encoded by the bit string."""
    return Fraction(int(bits, 2), 1 << len(bits))


# ---------------------------------------------------------------------------
# binary-digit sets  D_K = { n : all binary digits at positions in K vanish }
# ---------------------------------------------------------------------------

_DK_RULES = ("double_gap", "powers_of_two", "arithmetic")


@dataclass(frozen=True, eq=False, repr=False)
class DKDescription(SetDescription):
    """D_K plus exact accessors for the complement structure of D_K + D_K.

    With k_(-1) = -1, block t of the complement of D_K + D_K starts at
    M_t = 2^(k_t + 1) - 2^(k_(t-1) + 1) and repeats with period
    2^(k_t + 1); Z_T collects the complement's residues below
    2^(k_T + 1) and has exact size xi_T * 2^(k_T + 1).
    """

    k_prefix: tuple[int, ...] = ()
    rule: Optional[str] = None
    step: int = 1

    def k(self, t: int) -> int:
        """The t-th forbidden position (0-indexed), in closed form past the prefix."""
        if t < len(self.k_prefix):
            return self.k_prefix[t]
        if self.rule is None:
            raise IndexError(f"finite position sequence has no index {t}")
        j = t - len(self.k_prefix) + 1  # rule steps past the last prefix entry
        last = self.k_prefix[-1]
        if self.rule == "double_gap":
            return ((last + 1) << j) - 1
        if self.rule == "powers_of_two":
            return last << j
        return last + j * self.step  # arithmetic

    def positions_below(self, bound: int) -> list[int]:
        steps = range(len(self.k_prefix)) if self.rule is None else count()
        return list(takewhile(bound.__gt__, map(self.k, steps)))

    # -- complement structure of D_K + D_K -------------------------------

    def m_t(self, t: int) -> int:
        prev = -1 if t == 0 else self.k(t - 1)
        return (1 << (self.k(t) + 1)) - (1 << (prev + 1))

    def xi(self, t_max: int) -> Fraction:
        prod = Fraction(1)
        prev = -1
        for t in range(t_max + 1):
            kt = self.k(t)
            prod *= 1 - Fraction(1 << (prev + 1), 1 << (kt + 1))
            prev = kt
        return 1 - prod

    def delta_partial(self, t_max: int) -> Fraction:
        return 1 - self.xi(t_max)

    def z_t(self, t_max: int) -> int:
        """Complement residues below 2^(k_T + 1), as a mask, by the block
        recurrence: Z_t is Z_(t-1) tiled below M_t, and all of [M_t, 2^(k_t + 1))."""
        block = 1 << (self.k(0) + 1)
        z = (1 << block) - (1 << self.m_t(0))
        for t in range(1, t_max + 1):
            prev_block, block, m_t = block, 1 << (self.k(t) + 1), self.m_t(t)
            z = tile_bits(z, prev_block, m_t) | ((1 << block) - (1 << m_t))
        return z

    def delta_lower_bound(self, t_max: int) -> Optional[Fraction]:
        """Certified lower bound for the infinite product delta_K.

        Valid for rules whose gaps k_t - k_(t-1) never decrease and grow
        past t_max, so the tail sum of 2^(k_(t-1) - k_t) is dominated by
        a geometric series; returns None when no certificate applies.
        """
        if self.rule not in ("double_gap", "powers_of_two"):
            return None
        first_tail_gap = self.k(t_max + 1) - self.k(t_max)  # >= 1: K strictly increases
        tail_sum_bound = Fraction(2, 1 << first_tail_gap)
        if tail_sum_bound >= 1:
            return None
        return self.delta_partial(t_max) * (1 - tail_sum_bound)


def gen_d_k(
    k_prefix: Iterable[int], rule: Optional[str] = None, step: int = 1
) -> DKDescription:
    """The set of n whose binary digits vanish at every position of K.

    K is a strictly increasing sequence given by a finite prefix plus an
    optional extension rule (``double_gap``: k -> 2k + 1,
    ``powers_of_two``: k -> 2k, or ``arithmetic`` with ``step``).
    Exact profiles exist for power-of-two moduli; a finite K (no rule)
    makes the set exactly periodic.
    """
    prefix = tuple(k_prefix)
    if not prefix:
        raise ValueError("position sequence must be nonempty")
    if any(b < 0 for b in prefix):
        raise ValueError("positions must be nonnegative")
    if any(b >= c for b, c in zip(prefix, prefix[1:])):
        raise ValueError("positions must be strictly increasing")
    if rule is not None:
        if rule not in _DK_RULES:
            raise ValueError(f"unknown rule {rule!r}")
        if rule == "powers_of_two" and prefix[-1] < 1:
            raise ValueError("powers_of_two rule needs a positive last position")
        if rule == "arithmetic" and step < 1:
            raise ValueError("arithmetic rule needs step >= 1")
    return _dk_description("d_k", prefix, rule, step)


def _dk_description(
    family: str, prefix: tuple[int, ...], rule: Optional[str], step: int
) -> DKDescription:
    eps = _dk_periodic_form(prefix) if rule is None else None
    desc = DKDescription(
        family=family,
        profile_fn=eps.modular_profile if eps else lambda m: _dk_profile(desc, m),
        builder=eps.members_mask if eps else lambda horizon: _dk_mask(desc, horizon),
        periodic_form=eps,
        k_prefix=prefix,
        rule=rule,
        step=step,
    )
    return desc


def _dk_mask(desc: DKDescription, horizon: int) -> int:
    """The members n <= horizon: the residues mod 2^e, 2^e > horizon, whose
    digits vanish at the positions below e, truncated."""
    check_horizon(horizon, f"{desc.family} horizon")  # before the 2^e-bit mask is built
    e = horizon.bit_length()
    return _digit_residues(desc.positions_below(e), e) & ((1 << (horizon + 1)) - 1)


def _digit_residues(forbidden: Iterable[int], e: int) -> int:
    """The residues mod 2^e whose binary digits vanish at every forbidden position."""
    bits = 1
    for p in sorted(set(range(e)).difference(forbidden)):
        bits |= bits << (1 << p)  # digit p may be 0 or 1
    return bits


def _dk_periodic_form(prefix: tuple[int, ...]) -> Optional[EventuallyPeriodicSet]:
    if prefix[-1] >= MAX_MODULUS.bit_length() - 1:
        return None  # the period 2^(k + 1) would exceed the cap: refused before the shift
    period = 1 << (prefix[-1] + 1)
    # already canonical: the top digit is forbidden, so no smaller period fits
    tail = ResidueSet(period, _digit_residues(prefix, prefix[-1] + 1))
    return EventuallyPeriodicSet(period, 0, 0, tail)


def _dk_profile(desc: DKDescription, m: int) -> Optional[ModularProfile]:
    """Exact mod a power of two m = 2^e, None elsewhere.  No class is held
    cofinitely: with no periodic form, K is ruled or has a position at
    log2(MAX_MODULUS) = 20 or above, and the width cap keeps e <= 20, so a
    position at or past e excludes arbitrarily large n from every class."""
    if m & (m - 1):
        return None
    check_width(m, "modulus")  # before the 2^e-bit digit mask is built
    e = m.bit_length() - 1
    attained = ResidueSet(m, _digit_residues(desc.positions_below(e), e))
    return ModularProfile(attained, ResidueSet(m, 0))


def gen_x0() -> DKDescription:
    """Numbers whose base-4 digits are all 0 or 1.

    Equivalently the binary digits at odd positions vanish, so this is
    the K = (1, 3, 5, ...) instance of the digit construction; profiles
    mod 4^m have exactly 2^m attained residues.
    """
    return _dk_description("x0", (1,), "arithmetic", 2)


# ---------------------------------------------------------------------------
# fractional-part (three-distance) sets  A = { n : {theta n} < alpha }
# ---------------------------------------------------------------------------

#: the named thetas (r + s sqrt(d)) / t, as (r, s, d, t)
_QUADRATIC_THETAS = {
    "sqrt2": (0, 1, 2, 1),
    "sqrt3": (0, 1, 3, 1),
    "sqrt5": (0, 1, 5, 1),
    "golden": (1, 1, 5, 2),
}


def _rational(value: Union[int, float, str, Fraction], name: str) -> Fraction:
    """``Fraction(value)``, or a ValueError naming the field: a malformed
    string, a zero denominator and an infinite or NaN float all land here."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"field {name!r} must be a finite rational, got {value!r:.40}") from exc


def _weyl_kernel(
    theta: str, alpha: Fraction, name: str = "alpha"
) -> Callable[[int], tuple[int, int, int]]:
    """Exact integer test for {theta n} < alpha = a/b, one per bit length.
    At a bit length that horizons under the cap have, the block that
    :func:`_weyl_mask` builds is checked against the cap before S is
    formed (S takes a square root of 2P bits); a refusal names theta and
    ``name``, the field that gave alpha.

    Write theta = (r + s sqrt d)/t, with s = 0 for a rational theta = r/t.
    For a bit length L the kernel returns (S, 2^P - 1, ceil(a 2^P / b)) with
    S = floor(theta 2^P) + 1, so that for every 0 <= n < 2^L

        {theta n} < a/b  iff  (S n mod 2^P) < ceil(a 2^P / b).

    Proof.  S n / 2^P = n theta + delta with 0 < delta <= n / 2^P, so the
    test is exact unless an integer or a point k + a/b lies in
    (n theta, n theta + delta].  Put X = b n s sqrt d and
    Y = t (b k + a) - b n r, so that n theta - k - a/b = (X - Y) / (b t);
    an integer is the case a = 0, b = 1, whose Q below is no larger.  For
    s = 0, X - Y is an integer.  For s > 0, X^2 - Y^2 is a nonzero integer
    (sqrt d is irrational), so |X - Y| >= 1, or |Y| < X + 1 and
    |X - Y| >= 1/(X + |Y|) > 1/(2X + 1) (Liouville's bound for a quadratic
    irrational).  As X < b n s (isqrt(d) + 1), each such point other than
    n theta itself is at least 1/Q(n) away, with
    Q(n) = t b (2 b n s (isqrt(d) + 1) + 1), and P, the bit length of
    2^L Q(2^L), makes delta <= n / 2^P < 1/Q(n).
    """
    if theta in _QUADRATIC_THETAS:
        r, s, d, t = _QUADRATIC_THETAS[theta]
    else:
        frac = _rational(theta, "theta")
        if frac <= 0:
            raise ValueError("theta must be positive")
        r, s, d, t = frac.numerator, 0, 0, frac.denominator
    a, b = alpha.numerator, alpha.denominator

    @lru_cache(maxsize=None)
    def kernel(bits: int) -> tuple[int, int, int]:
        n_max = 1 << bits
        p = (n_max * t * b * (2 * b * n_max * s * (isqrt(d) + 1) + 1)).bit_length()
        if n_max <= MAX_MODULUS:  # _weyl_mask's lanes have p // 8 + 1 bytes each
            what = f"weyl block of theta {theta!r:.40} against {name}, width"
            check_width(8 * (p // 8 + 1) * min(n_max, WEYL_LANES), what)
        return ((r << p) + isqrt(s * s * d << 2 * p)) // t + 1, (1 << p) - 1, -(-(a << p) // b)

    return kernel


#: values of n the Weyl builder tests per big-int step
WEYL_LANES = 1 << 12
#: _BELOW[k][c] is the ASCII digit "1" iff byte c is below 2^k, i.e. iff its
#: bits k..7 are clear, else "0"
_BELOW = [bytes(49 if c < 1 << k else 48 for c in range(256)) for k in range(8)]


def _weyl_mask(s: int, mask: int, bound: int, horizon: int) -> int:
    """The n <= horizon with (s n & mask) < bound, as a bitmask: the test of
    :func:`_weyl_kernel`, on up to WEYL_LANES values of n per big-int step.

    With 2^P = mask + 1, lane j of a block is a field of w bytes, 8w > P,
    holding s (n0 + j) mod 2^P.  The lanes of the first block are built by
    doubling, and adding (s B mod 2^P) to every lane steps a block of B lanes
    to the next.  A lane stays below 2^(P+1) before it is reduced mod 2^P,
    so nothing carries into the next lane.  Adding 2^P - bound then sets bit
    P of a lane iff its value is at least bound, i.e. iff n is not a member;
    one strided slice reads the byte holding bit P of every lane, and the
    bits above P in that byte are 0.  Each such byte becomes the ASCII digit
    of n, and the digits are parsed as one binary numeral.
    """
    p = mask.bit_length()
    w = p // 8 + 1
    lanes, ones, size = 0, 1, 1  # lanes for n in [0, size), one set bit per lane in ones
    while size <= min(horizon, WEYL_LANES - 1):
        lanes |= ((lanes + (s * size & mask) * ones) & mask * ones) << 8 * w * size
        ones |= ones << 8 * w * size
        size *= 2
    lane_mask, advance, offset = mask * ones, (s * size & mask) * ones, (mask + 1 - bound) * ones
    digits, below = bytearray(), _BELOW[p % 8]
    for _ in range(0, horizon + 1, size):
        digits += (lanes + offset).to_bytes(w * size, "little")[p // 8 :: w].translate(below)
        lanes = (lanes + advance) & lane_mask
    del digits[horizon + 1 :]
    return digits_mask(digits)


def gen_weyl(theta: str, alpha) -> SetDescription:
    """Integers whose fractional part {theta n} falls below alpha.

    theta is a named quadratic irrational ("sqrt2", "sqrt3", "sqrt5",
    "golden") or a positive decimal/rational string; alpha is a rational
    in (0, 1).  The members mask is exact at every horizon (see
    :func:`_weyl_kernel`).
    """
    alpha = _rational(alpha, "alpha")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    kernel = _weyl_kernel(theta, alpha)

    def build(horizon: int) -> int:
        check_horizon(horizon, "weyl horizon")
        return _weyl_mask(*kernel(horizon.bit_length()), horizon)

    return SetDescription(family="weyl", builder=build)


# ---------------------------------------------------------------------------
# few-prime-factor sets  P_t = { n >= 2 : omega(n) <= t }
# ---------------------------------------------------------------------------


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(prime_factors(n))


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi is defined for positive integers")
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def phi_t(k: int, t: int) -> int:
    """Count of 1 <= a <= k whose gcd with k has at most t prime factors.

    Computed by the exact divisor sum of euler_phi(k/d) over divisors d
    of k with omega(d) <= t; t = 0 recovers the totient.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return sum(euler_phi(k // d) for d in divisors(k) if omega(d) <= t)


#: byte c -> c + 1; a count of distinct prime factors below 2^20 is at most 7
_INCREMENT = bytes(range(1, 256)) + b"\xff"


def gen_p_t(t: int) -> SetDescription:
    """Integers at least 2 with at most t distinct prime factors."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    at_most_t = bytes(49 if c <= t else 48 for c in range(256))  # the ASCII digit of n

    def build(horizon: int) -> int:
        check_horizon(horizon, "p_t horizon")
        counts = bytearray(horizon + 1)  # counts[n] = omega(n), sieved
        p = counts.find(0, 2)
        while p > 0:  # the least n >= 2 no smaller prime divides is the next prime
            counts[p::p] = counts[p::p].translate(_INCREMENT)
            p = counts.find(0, p + 1)
        digits = counts.translate(at_most_t)
        digits[:2] = b"00"[: horizon + 1]  # 0 and 1 are not members
        return digits_mask(digits)

    return SetDescription(
        family="p_t",
        builder=build,
    )


# ---------------------------------------------------------------------------
# thin additive bases of {0..m-1} and their chained products
# ---------------------------------------------------------------------------


def thin_basis_shape(m: int) -> tuple[int, int]:
    """The shape (q, s) of the thin basis of {0..m-1}: q = floor(sqrt(m)), and
    s = q - 1 for q^2 <= m < q(q + 1), else s = q.  The set depends on m
    only through its shape, so consecutive m share it."""
    if m < 2:
        raise ValueError("m must be at least 2")
    check_width(m, "thin_basis m")  # before the set or its doubled sum is built
    q = isqrt(m)
    return q, q - 1 if q * q <= m < q * (q + 1) else q


def thin_basis_set(q: int, s: int) -> tuple[tuple[int, ...], int]:
    """The set {0..s} plus the q - 1 anchors j*s + (j-1), and its reach: the
    least n missing from A + A, read off one doubled sum.  A + A covers
    {0..m-1} exactly when the reach is at least m."""
    # the anchors j*s + (j-1) = j(s+1) - 1 step by s + 1 from 2s + 1
    members = tuple(range(s + 1)) + tuple(range(2 * s + 1, q * (s + 1), s + 1))
    doubled = add_bits(add_bits(1, members), members)  # A's mask, then A + A
    return members, (doubled ^ (doubled + 1)).bit_length() - 1


def certify_thin_basis(m: int, members: tuple[int, ...], reach: int) -> None:
    """Raise CertificateError unless A lies in {0..m-1}, A + A reaches m and
    |A| < 2 sqrt(m)."""
    if members[-1] >= m:
        raise CertificateError(f"basis element {members[-1]} outside {{0..{m - 1}}}")
    if reach < m:
        raise CertificateError(f"basis fails to cover {{0..{m - 1}}}")
    if len(members) ** 2 >= 4 * m:
        raise CertificateError("basis size bound violated")


def thin_basis(m: int) -> tuple[int, ...]:
    """A set A of size below 2*sqrt(m) with A + A covering {0..m-1}.

    With q = floor(sqrt(m)), the set is {0..s} plus the q - 1 anchors
    j*s + (j-1); the anchor blocks tile [2s+1, (q+1)s + q - 1] which
    reaches m - 1 in both branches of s.
    """
    members, reach = thin_basis_set(*thin_basis_shape(m))
    certify_thin_basis(m, members, reach)
    return members


def thin_basis_refined_bound(m: int) -> int:
    """The stricter floor bound 2*floor(sqrt(m + 1/4) - 1/2), exactly."""
    return 2 * ((isqrt(4 * m + 1) - 1) // 2)


def basis_chain(moduli: list[int], sparsify: bool = False) -> tuple[int, ...]:
    """Chained thin basis B = A(m1) + m1 A(m2) + m1 m2 A(m3) + ...

    B + B covers every residue mod the product of the moduli and has at
    most prod |A(m_i)| < 2^k sqrt(prod m_i) elements.  With ``sparsify``
    each nonzero element a of the i-th component is displaced by
    2^a * (product of the later moduli) * m_i, which spreads the set out
    while leaving every element's residue mod the full product intact.
    """
    if not moduli:
        raise ValueError("at least one modulus is required")
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be at least 2")
    total = prod(moduli)
    check_width(total, "basis_chain modulus product")  # before any component is built
    components = []
    scale = 1
    for i, m in enumerate(moduli):
        base = thin_basis(m)
        if sparsify:
            cofactor = total // (scale * m)
            base = tuple(a + (1 << a) * cofactor * m if a else 0 for a in base)
        components.append([scale * a for a in base])
        scale *= m
    members = {0}
    expected = 1
    for comp in components:
        expected *= len(comp)
        members = {x + c for x in members for c in comp}
    result = tuple(sorted(members))
    if len(result) > expected or len(result) ** 2 >= (4 ** len(moduli)) * total:
        raise CertificateError("size bound violated")
    residues = ResidueSet.of(total, {x % total for x in result})
    if not residue_sumset([residues, residues]).is_full():
        raise CertificateError("doubled chain does not cover the ring")
    return result


# ---------------------------------------------------------------------------
# hook sets  X = { r + k_1 k_2 ... k_r : r >= 1 }
# ---------------------------------------------------------------------------


def gen_hook(rule: str = "factorial") -> SetDescription:
    """The sparse set {r + K_r} with K_r the running product of a rule.

    The factorial rule (k_r = r) makes every modulus divide some K_r,
    which forces every residue class to be hit: m consecutive indices
    past the point where m | K_r land in m distinct classes.
    """
    if rule != "factorial":
        raise ValueError(f"unknown hook rule {rule!r}")

    def generate(horizon: int) -> list[int]:
        out = []
        product = 1
        r = 1
        while True:
            product *= r
            value = r + product
            if value > horizon:
                break
            out.append(value)
            r += 1
        return out

    # listed, not masked: its horizons are uncapped and it has 17 members below 10^15
    return SetDescription(family="hook", builder=generate)


# ---------------------------------------------------------------------------
# three-density windows construction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _nested_residues(alpha: Fraction, k: int) -> int:
    """R_k mod 2^k as a 2^k-bit mask: R_(k-1) lifted to both halves, topped
    up with the smallest missing residues to floor(alpha 2^k) members."""
    if k == 0:
        return 0
    prev = _nested_residues(alpha, k - 1)
    lifted = prev | prev << (1 << (k - 1))
    want = int(alpha * (1 << k))
    while lifted.bit_count() < want:
        lifted |= (lifted + 1) & ~lifted  # the lowest clear bit
    return lifted


def _density_blocks(n_base: int, gamma: Fraction, horizon: int) -> Iterator[tuple[int, int, int]]:
    """(k, N_k, N_k / (1 - gamma)) for each k >= 1 with N_k = n_base^k <= horizon."""
    k, low = 1, n_base
    while low <= horizon:
        yield k, low, low * gamma.denominator // (gamma.denominator - gamma.numerator)
        k, low = k + 1, low * n_base


def gen_three_density(
    alpha, beta, gamma, theta: str = "sqrt2", n_base: int = 10
) -> SetDescription:
    """Blocks [N_k, N_k/(1-gamma)] filtered by {theta n} < beta and a
    nested residue chain of relative size ~alpha mod 2^k.

    The block anchors N_k = n_base^k need n_base >= 10 to satisfy the
    growth requirements N_{k+1} >= 10 N_k >= 10 * 4^k.  The three window
    densities of the result separate: asymptotic ~ alpha*beta*gamma,
    uniform ~ alpha*beta, modular ~ alpha.
    """
    alpha, beta = _rational(alpha, "alpha"), _rational(beta, "beta")
    gamma = _rational(gamma, "gamma")
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not 0 < value < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {value}")
    if n_base < 10:
        raise ValueError("block base must be at least 10")
    kernel = _weyl_kernel(theta, beta, "beta")

    def build(horizon: int) -> int:
        check_horizon(horizon, "three_density horizon")  # before any block is tiled
        blocks = 0  # the n <= horizon that pass some block's residue test
        for k, low, high in _density_blocks(n_base, gamma, horizon):
            residues = _nested_residues(alpha, k)
            blocks |= tile_bits(residues, 1 << k, min(high, horizon) + 1) >> low << low
        return _weyl_mask(*kernel(horizon.bit_length()), horizon) & blocks

    return SetDescription(family="three_density", builder=build)


# ---------------------------------------------------------------------------
# unions and sumsets of descriptions
# ---------------------------------------------------------------------------


T = TypeVar("T")


def map_distinct(fn: Callable[[SetDescription], T], descs: list[SetDescription]) -> list[T]:
    """[fn(d) for d in descs], calling fn once per distinct description (a
    doubled summand is read once)."""
    done = {d: fn(d) for d in dict.fromkeys(descs)}
    return [done[d] for d in descs]


def union_description(parts: list[SetDescription]) -> SetDescription:
    """Pointwise union, formed exactly when every part is periodic.

    Each profile field is the OR of the parts' fields: exact for attained
    residues, and for cofinite ones a certified subset that misses a class
    the parts cover only jointly.
    """
    if not parts:
        raise ValueError("union of no descriptions")
    if len(parts) == 1:
        return parts[0]
    if all(p.periodic_form is not None for p in parts):
        eps = parts[0].periodic_form
        for p in parts[1:]:
            eps = zper.union(eps, p.periodic_form)
        return from_periodic(eps, family="union")

    def profile(m: int) -> Optional[ModularProfile]:
        profs = [p.profile(m) for p in parts]
        if None in profs:  # no exact profile without one for every part
            return None
        fields = zip(*((pr.attained, pr.cofinitely_attained) for pr in profs))
        return ModularProfile(*(reduce(ResidueSet.union, f) for f in fields))

    def build(horizon: int) -> Union[int, list[int]]:
        if horizon < MAX_MODULUS:
            return reduce(or_, (p.members_mask(horizon) for p in parts))
        # past the cap only listed parts (hook) and finite sets build, so listing is cheap
        return sorted(set().union(*(p.members(horizon) for p in parts)))

    return SetDescription(
        family="union",
        profile_fn=profile,
        builder=build,
    )


def sumset_description(parts: list[SetDescription]) -> SetDescription:
    """The k-fold sumset X_1 + ... + X_k as a description.

    Formed exactly when every part is eventually periodic.  Otherwise, with
    att_i, cof_i the profile fields of X_i, att = att_1 + ... + att_k
    exactly, and cof = union over i of (cof_i + sum of att_j, j != i), a
    certified subset: fix a member x_j of each other part in its class;
    X_i holds every large n in its class, so the sum holds every large
    n + sum x_j.
    """
    if not parts:
        raise ValueError("sumset of no descriptions")
    if len(parts) == 1:
        return parts[0]
    if all(p.periodic_form is not None for p in parts):
        eps = zper.sumset([p.periodic_form for p in parts])
        return from_periodic(eps, family="sumset")

    def build(horizon: int) -> int:
        check_horizon(horizon, "sumset horizon")
        acc = parts[0].members_mask(horizon)
        for other in parts[1:]:
            acc = linear_sum_bits(acc, other.members_mask(horizon)) & ((1 << (horizon + 1)) - 1)
        return acc

    def profile(m: int) -> Optional[ModularProfile]:
        profs = map_distinct(lambda p: p.profile(m), parts)
        if None in profs:
            return None
        att = [pr.attained.bits for pr in profs]
        cof = 0
        for i, pr in enumerate(profs):
            others = att[:i] + att[i + 1 :]  # one attained class of every other part
            if pr.cofinitely_attained.bits:
                cof |= sumset_bits([pr.cofinitely_attained.bits] + others, m)
        return ModularProfile(ResidueSet(m, sumset_bits(att, m)), ResidueSet(m, cof))

    return SetDescription(
        family="sumset",
        profile_fn=profile,
        builder=build,
    )


# ---------------------------------------------------------------------------
# JSON family schema
# ---------------------------------------------------------------------------


def parse_description(obj: dict) -> SetDescription:
    """Build a description from the JSON family schema.

    Accepts {"family": ...} records, the raw eventually-periodic form
    {"q", "T", "prefix", "tail"}, and the {"progressions": [[a, k], ...]}
    shorthand.
    """
    if not isinstance(obj, dict):
        raise ValueError("set description must be a JSON object")
    if "family" not in obj:
        return from_periodic(zper.from_json_dict(obj))
    family = obj["family"]
    field = partial(zper.json_field, obj)
    if family == "b_alpha":
        return gen_b_alpha(field("bits"))
    if family == "d_k":
        return gen_d_k(field("k_prefix"), field("rule", None), field("step", 1))
    if family == "x0":
        return gen_x0()
    if family == "weyl":
        return gen_weyl(field("theta", "sqrt2"), field("alpha"))
    if family == "p_t":
        return gen_p_t(field("t"))
    if family == "thin_basis":
        return from_periodic(zper.from_finite(thin_basis(field("m"))), family="thin_basis")
    if family == "basis_chain":
        members = basis_chain(field("moduli"), field("sparsify", False))
        return from_periodic(zper.from_finite(members), family="basis_chain")
    if family == "hook":
        return gen_hook(field("rule", "factorial"))
    if family == "three_density":
        return gen_three_density(
            field("alpha"), field("beta"), field("gamma"), field("theta", "sqrt2"), field("n_base", 10)
        )
    if family == "union":
        return union_description([parse_description(part) for part in field("of")])
    if family == "periodic":
        return from_periodic(zper.from_json_dict(obj))
    raise ValueError(f"unknown family {family!r}")
