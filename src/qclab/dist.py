"""Finite probability distributions with exact entropy accounting.

Atoms are bit-string labels: a flat tuple of 0/1 ints, or a tuple of such
tuples for structured records. Probabilities are floats by default; Fractions
are accepted and survive untouched through the operations that stay rational
(push-forwards, conditionals, products and their spectra), which is the
exact-rational mode.

index_of and bits_of are the package's one bit packing, big endian: bit 0
of a string is the most significant bit of its integer.

All entropies are base 2. Max-entropy here is the largest sample entropy of
the support, not the log of the support size.

MASS_TOL is how far a float probability mass may be from the value it is
compared with: a total from 1, an atom's mass or a statistical distance
from its bound, or a smoothing budget from the masses it deletes.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np

MASS_TOL = 1e-12
PRODUCT_ATOM_LIMIT = 2 ** 24
MATERIALIZE_ATOM_LIMIT = 2 ** 18
SPECTRUM_VALUE_LIMIT = 64
# most compositions product_spectrum walks, C(t + k - 1, k - 1) for k values at power t
SPECTRUM_WALK_LIMIT = 2 ** 16


def _is_bits(x):
    return isinstance(x, tuple) and all(isinstance(b, int) and b in (0, 1) for b in x)


def index_of(bits):
    """The integer of a bit string, bit 0 most significant; on an (..., n)
    array, the int64 integer of each row."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def bits_of(index, n):
    """Inverse of index_of: the n bits of an integer as a uint8 array, or an
    (..., n) array of them for an index array."""
    return ((np.asarray(index)[..., None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def _normalize_atom(atom):
    """Canonical field view: a flat bit tuple is one field, else a tuple of fields."""
    if _is_bits(atom):
        return atom
    if isinstance(atom, tuple) and all(_is_bits(f) for f in atom):
        return atom
    raise TypeError(f"atom is not a bit-string label: {atom!r}")


def flat_bits(atom):
    """The bits of an atom in order, with nested tuples flattened to any depth.

    Raises:
        ValueError: when a leaf is not 0 or 1.
    """
    if isinstance(atom, (tuple, list)):
        return tuple(b for part in atom for b in flat_bits(part))
    if atom not in (0, 1):
        raise ValueError(f"atom leaf {atom!r} is not a bit")
    return (int(atom),)


def _atom_key(atom):
    # total order across the label shapes we allow, ints first
    if isinstance(atom, int):
        return (0, (atom,))
    if isinstance(atom, tuple):
        return (1, tuple(_atom_key(a) for a in atom))
    if isinstance(atom, str):
        return (2, atom)
    raise TypeError(f"unorderable atom: {atom!r}")


class Pmf:
    """A finite probability mass function.

    Args:
        atoms: mapping from hashable atom labels to probabilities. Zero-mass
            atoms are dropped on construction.
        subnormal: when True the total mass may be anything in [0, 1]; the
            entropy operations refuse such objects.

    Raises:
        ValueError: on negative or NaN probabilities, or total mass outside
            1 +- 1e-12 without the subnormal flag.
    """

    __slots__ = ("_p", "subnormal")

    def __init__(self, atoms, subnormal=False):
        cleaned = {}
        for atom, p in atoms.items():
            if not p >= 0:
                raise ValueError(f"negative or NaN probability {p!r} for atom {atom!r}")
            if p == 0:
                continue
            cleaned[atom] = p
        total = sum(cleaned.values())
        if subnormal:
            if not total <= 1 + MASS_TOL:
                raise ValueError(f"subnormal mass exceeds 1: {total!r}")
        elif not abs(total - 1) <= MASS_TOL:
            raise ValueError(f"total mass {total!r} not within {MASS_TOL} of 1")
        self._p = cleaned
        self.subnormal = bool(subnormal)

    def prob(self, atom):
        return self._p.get(atom, 0)

    def probs(self):
        """Probabilities in atom-sorted order."""
        return tuple(p for _, p in self.items_sorted())

    def support(self):
        return tuple(sorted(self._p, key=_atom_key))

    def items_sorted(self):
        return sorted(self._p.items(), key=lambda kv: _atom_key(kv[0]))

    def as_dict(self):
        return dict(self._p)

    def total(self):
        return sum(self._p.values())

    def __len__(self):
        return len(self._p)

    def __contains__(self, atom):
        return atom in self._p

    def __repr__(self):
        body = ", ".join(f"{a!r}: {p!r}" for a, p in self.items_sorted())
        return f"Pmf({{{body}}})"


class JointPmf:
    """Joint distribution over (key, puzzle) pairs."""

    __slots__ = ("_pmf",)

    def __init__(self, atoms):
        for atom in atoms:
            if not (isinstance(atom, tuple) and len(atom) == 2):
                raise ValueError(f"joint atom must be a (key, puzzle) pair: {atom!r}")
        self._pmf = Pmf(atoms)

    def as_pmf(self):
        return self._pmf

    def prob(self, key, puzzle):
        return self._pmf.prob((key, puzzle))

    def support(self):
        return self._pmf.support()

    def marginal_keys(self):
        return push_forward(self._pmf, lambda kv: kv[0])

    def marginal_puzzles(self):
        return push_forward(self._pmf, lambda kv: kv[1])

    def condition_on_puzzle(self, puzzle):
        mass = {}
        for (k, s), p in self._pmf.as_dict().items():
            if s == puzzle:
                mass[k] = mass.get(k, 0) + p
        total = sum(mass.values())
        if total == 0:
            raise ValueError(f"puzzle {puzzle!r} has zero mass")
        return Pmf({k: p / total for k, p in mass.items()})


def _require_normalized(p):
    if p.subnormal:
        raise ValueError("entropy of a subnormalized distribution is undefined here")


def shannon_entropy(p):
    _require_normalized(p)
    return -sum(q * math.log2(q) for q in p.as_dict().values())


def min_entropy(p):
    _require_normalized(p)
    return -math.log2(max(p.as_dict().values()))


def max_entropy(p):
    _require_normalized(p)
    return -math.log2(min(p.as_dict().values()))


def _check_eps(eps):
    if not 0 <= eps < 1:
        raise ValueError(f"smoothing parameter must lie in [0, 1): {eps!r}")


def smooth_min_entropy(p, eps):
    """Smoothed min-entropy via the water-filling cap.

    Caps the distribution at the level lambda solving
    sum((p_i - lambda)+) = eps; the trimmed mass can always be relocated onto
    fresh atoms of mass <= lambda, so -log2(lambda) is the best min-entropy
    within statistical distance eps.  An eps that reaches the total mass
    leaves no positive level and raises ValueError.  Computed from the
    probability spectrum, so it equals smooth_min_entropy_spectrum there
    even where eps nearly cancels the mass.
    """
    _require_normalized(p)
    return smooth_min_entropy_spectrum(Counter(p.as_dict().values()).items(), eps)


def smooth_max_entropy(p, eps):
    """Smoothed max-entropy: greedily delete the lightest atoms, mass <= eps,
    and take the max sample entropy of the rest, without renormalizing."""
    _require_normalized(p)
    return smooth_max_entropy_spectrum(Counter(p.as_dict().values()).items(), eps)


def push_forward(p, f):
    """Image distribution under f, masses merged."""
    out = {}
    for atom, q in p.as_dict().items():
        image = f(atom)
        out[image] = out.get(image, 0) + q
    return Pmf(out, subnormal=p.subnormal)


def product_power(p, t):
    """t-fold independent product; atoms become t-tuples of component atoms."""
    if t < 1:
        raise ValueError("power must be >= 1")
    if len(p) ** t > PRODUCT_ATOM_LIMIT:
        raise ValueError(f"product would exceed {PRODUCT_ATOM_LIMIT} atoms")
    atoms = [((a,), q) for a, q in p.as_dict().items()]
    for _ in range(t - 1):
        atoms = [(prefix + (a,), w * q) for prefix, w in atoms for a, q in p.as_dict().items()]
    return Pmf(dict(atoms))


def product_spectrum(p, t):
    """Probability spectrum of the t-fold product as (value, count) pairs.

    Smoothing and entropies depend only on the probability multiset, so this
    stays exact far past the point where materializing atoms is feasible.
    """
    if t < 1:
        raise ValueError("power must be >= 1")
    groups = Counter(p.as_dict().values())
    values = sorted(groups, reverse=True)
    mults = [groups[v] for v in values]
    if (len(values) > SPECTRUM_VALUE_LIMIT or t > 4096
            or math.comb(t + len(values) - 1, len(values) - 1) > SPECTRUM_WALK_LIMIT):
        raise ValueError("spectrum enumeration out of range")

    spectrum = {}
    one = Fraction(1) if all(isinstance(v, Fraction) for v in values) else 1.0

    def walk(idx, left, value, ways):
        # ways telescopes the multinomial coefficient times the label choices
        if idx == len(values) - 1:
            v = value * values[idx] ** left
            w = ways * mults[idx] ** left
            spectrum[v] = spectrum.get(v, 0) + w
            return
        for c in range(left + 1):
            walk(idx + 1, left - c, value * values[idx] ** c, ways * math.comb(left, c) * mults[idx] ** c)

    walk(0, t, one, 1)
    return sorted(spectrum.items(), key=lambda vc: -vc[0])


def entropy_spectrum(spectrum):
    return -sum(c * v * math.log2(v) for v, c in spectrum if v > 0)


def smooth_min_entropy_spectrum(spectrum, eps):
    """Water-filling smoothing straight off a (value, count) spectrum."""
    _check_eps(eps)
    ordered = sorted(spectrum, key=lambda vc: -vc[0])
    if eps == 0:
        return -math.log2(ordered[0][0])
    mass = 0.0
    count = 0
    for idx, (v, c) in enumerate(ordered):
        mass += v * c
        count += c
        lam = (mass - eps) / count
        below = ordered[idx + 1][0] if idx + 1 < len(ordered) else 0
        if lam >= below and lam > 0:
            return -math.log2(lam)
    raise ValueError(f"smoothing parameter {eps!r} leaves no positive "
                     f"water-filling level under total mass {mass!r}")


def smooth_max_entropy_spectrum(spectrum, eps):
    """Greedy lightest-first deletion straight off a (value, count) spectrum."""
    return -math.log2(_lightest_survivor(spectrum, eps)[0])


def _lightest_survivor(spectrum, eps):
    """The greedy deletion behind both smooth max-entropies: the lightest
    surviving value, and how many atoms of that value are deleted.

    Deletes whole counts of one value at a time, so float masses are never
    added atom by atom; MASS_TOL of slack lets a float eps such as 0.3
    delete atoms whose masses sum to it exactly.
    """
    _check_eps(eps)
    cum = 0
    for v, c in sorted(spectrum, key=lambda vc: vc[0]):
        can_remove = min(c, int((eps - cum) / v + MASS_TOL)) if v > 0 else c
        cum += can_remove * v
        if can_remove < c:
            return v, can_remove
    raise ValueError("smoothing removed the entire support")


def encode_atom(atom):
    """Hex encoding: per field, 4 hex digits of bit length then its bits
    packed into bytes, bit 0 the most significant bit of the first byte."""
    norm = _normalize_atom(atom)
    fields = (norm,) if _is_bits(norm) else norm
    parts = []
    for field in fields:
        if len(field) > 0xFFFF:
            raise ValueError("field too long to encode")
        parts.append(f"{len(field):04x}")
        parts.append(np.packbits(np.array(field, dtype=np.uint8)).tobytes().hex())
    return "".join(parts)
