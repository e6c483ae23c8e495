"""Finite probability distributions with exact entropy accounting.

Atoms are bit-string labels: a flat tuple of 0/1 ints, or a tuple of such
tuples for structured records. Probabilities are floats by default; Fractions
are accepted and survive untouched through the operations that stay rational
(push-forwards, conditionals, products and their spectra), which is the
exact-rational mode. A Pmf is always normalized: its masses sum to 1
within MASS_TOL, so a Pmf has nonempty support and every entropy and
smoothing here takes any Pmf.

index_of and bits_of are the package's one bit packing, big endian: bit 0
of a string is the most significant bit of its integer.

All entropies are base 2. Max-entropy here is the largest sample entropy of
the support, not the log of the support size.

MASS_TOL is how far a float probability mass may be from the value it is
compared with: a total from 1, an atom's mass or a statistical distance
from its bound, or a smoothing budget from the masses it deletes.  It is
also the mass treated as zero: qsim.project conditions on no outcome
lighter than MASS_TOL, nor commit.binding_states on an opening.  ENTROPY_TOL is how far apart two entropies or
surprisals (in bits) computed in floats may be and still count as equal:
for bucket edges, for matching conditional entropies, for the bound checks
and for placing a truncation at an integer.
"""

import functools
import math
import operator
from collections import Counter
from fractions import Fraction

import numpy as np

MASS_TOL = 1e-12
ENTROPY_TOL = 1e-9
PRODUCT_ATOM_LIMIT = 2 ** 24
MATERIALIZE_ATOM_LIMIT = 2 ** 18
SPECTRUM_VALUE_LIMIT = 64
# most compositions product_spectra enumerates, C(t + k - 1, k - 1) for k values at power t
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

    Raises:
        ValueError: on negative or NaN probabilities, or total mass outside
            1 +- MASS_TOL.
    """

    __slots__ = ("_p",)

    def __init__(self, atoms):
        cleaned = {}
        for atom, p in atoms.items():
            if not p >= 0:
                raise ValueError(f"negative or NaN probability {p!r} for atom {atom!r}")
            if p == 0:
                continue
            cleaned[atom] = p
        total = sum(cleaned.values())
        if not abs(total - 1) <= MASS_TOL:
            raise ValueError(f"total mass {total!r} not within {MASS_TOL} of 1")
        self._p = cleaned

    def prob(self, atom):
        return self._p.get(atom, 0)

    def support(self):
        return tuple(sorted(self._p, key=_atom_key))

    def items_sorted(self):
        return sorted(self._p.items(), key=lambda kv: _atom_key(kv[0]))

    def as_dict(self):
        return dict(self._p)

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


def shannon_entropy(p):
    return -sum(q * math.log2(q) for q in p.as_dict().values())


def min_entropy(p):
    return -math.log2(max(p.as_dict().values()))


def max_entropy(p):
    return -math.log2(min(p.as_dict().values()))


def check_eps(eps):
    """Raise ValueError unless the smoothing parameter eps lies in [0, 1)."""
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
    return smooth_min_entropy_spectrum(Counter(p.as_dict().values()).items(), eps)


def smooth_max_entropy(p, eps):
    """Smoothed max-entropy: greedily delete the lightest atoms, mass <= eps,
    and take the max sample entropy of the rest, without renormalizing."""
    return smooth_max_entropy_spectrum(Counter(p.as_dict().values()).items(), eps)


def push_forward(p, f):
    """Image distribution under f, masses merged."""
    out = {}
    for atom, q in p.as_dict().items():
        image = f(atom)
        out[image] = out.get(image, 0) + q
    return Pmf(out)


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
    """Probability spectrum of the t-fold product as (value, count) pairs,
    largest value first: product_spectra on one row, read at its run ends.

    Smoothing and entropies depend only on the probability multiset, so this
    stays exact far past the point where materializing atoms is feasible.
    Equal masses merge first, so a Fraction and its equal float are one
    value.
    """
    groups = Counter(p.as_dict().values())
    values = sorted(groups, reverse=True)
    _check_shape(t, len(values))  # before the powers, which grow with t
    products, totals = product_spectra(_powers([values], t), [groups[v] for v in values], t)
    ends = totals[0] != 0
    return list(zip(products[0, ends].tolist(), totals[0, ends].tolist()))


def _powers(rows, t):
    """The (k, T, t + 1) table of v ** e, e = 0..t, of the j-th of the k
    masses v of each of T rows: Python powers, exact in an object array
    when every mass is a Fraction, else each rounded once to float."""
    exact = all(isinstance(v, Fraction) for row in rows for v in row)
    return np.array([[[v ** e if exact else float(v ** e) for e in range(t + 1)]
                      for v in column] for column in zip(*rows)],
                    object if exact else np.float64)


def product_spectra(powers, mults, t):
    """Probability spectra of the t-fold products of T distributions at
    once, all with k distinct masses held by mults[j] atoms each: the j-th
    largest mass of row r is the one whose powers _powers put in
    powers[j, r], a (k, T, > t) table.

    A composition c_0 + ... + c_(k-1) = t stands for
    multinomial(t; c) * prod m_j^c_j atoms of value
    1.0 * v_0**c_0 * v_1**c_1 * ..., multiplied left to right (by
    Fraction(1) in an exact table).  Counts are exact: int64 while
    sum(mults)**t < 2**63, Python ints past that.

    The compositions of t into k parts and their multinomials depend on
    (t, k) alone, so the last 32 tables asked for are kept, read-only so
    that trial threads can share them.  A table is a (k, n) uint8 array
    (uint16 past t = 255) and n int64 multinomials, with
    n = C(t + k - 1, k - 1) <= SPECTRUM_WALK_LIMIT.  The largest, k = 64 at
    t = 3, holds 3.1 MiB, and the 32 largest together 52.6 MiB
    (55,115,409 bytes), the most the cache can hold.  Shapes whose
    multinomials could pass int64 (k**t >= 2**63) are built on each call
    and never kept.

    Returns:
        (products, totals), two (T, n) arrays: each row's products sorted
        largest first, and each run of equal products' total
        count on the run's last entry, 0 on its others.
    """
    k = len(mults)
    _check_shape(t, k)
    parts, ways = (_compositions if k ** t >= 2 ** 63 else _composition_table)(t, k)

    # 1.0 (or Fraction(1)) times the first factor is that factor
    products = powers[0].take(parts[0], axis=1)
    for j in range(1, k):
        products *= powers[j].take(parts[j], axis=1)
    counts = ways.astype(np.int64 if sum(mults) ** t < 2 ** 63 else object)
    for m, c in zip(mults, parts):
        if m > 1:
            counts *= np.array([m ** e for e in range(t + 1)], counts.dtype)[c]

    # largest first; equal products merge, so how ties are ordered moves nothing
    order = np.argsort(products, axis=1, kind="stable")[:, ::-1]
    products, counts = products[np.arange(len(order))[:, None], order], counts[order]
    starts = np.ones(products.shape, dtype=bool)
    starts[:, 1:] = products[:, 1:] != products[:, :-1]
    # a row's first entry starts a run, so no run crosses rows
    first = np.flatnonzero(starts)
    totals = np.zeros_like(counts)
    totals.ravel()[np.append(first[1:], totals.size) - 1] = np.add.reduceat(counts.ravel(), first)
    return products, totals


def _check_shape(t, k):
    # a shape within range at t is within range at every smaller power
    if t < 1:
        raise ValueError("power must be >= 1")
    if (k > SPECTRUM_VALUE_LIMIT or t > 4096
            or math.comb(t + k - 1, k - 1) > SPECTRUM_WALK_LIMIT):
        raise ValueError("spectrum enumeration out of range")


def _compositions(t, k):
    """Every composition of t into k parts, as the columns of a read-only
    (k, n) array in lexicographic order, and their multinomial
    coefficients t! / prod(c_i!): read-only int64 while k**t < 2**63,
    Python ints past that.

    Built part by part: each composition of the parts so far spawns one
    child per value 0..left of the next part, and its multinomial gains the
    factor C(left, c).  The last part takes what is left.
    """
    left = np.array([t])
    ways = np.ones(1, dtype=object)
    steps = []
    for _ in range(k - 1):
        size = left + 1
        parent = np.repeat(np.arange(len(left)), size)
        part = np.arange(len(parent)) - (np.cumsum(size) - size)[parent]
        ways = ways[parent] * _binomials(left[parent], part)
        left = left[parent] - part
        steps.append((parent, part))
    parts = np.empty((k, len(left)), np.uint8 if t < 256 else np.uint16)
    parts[-1] = left
    row = np.arange(len(left))
    for j, (parent, part) in reversed(list(enumerate(steps))):
        parts[j] = part[row]
        row = parent[row]
    if k ** t < 2 ** 63:
        ways = ways.astype(np.int64)
        ways.flags.writeable = False
    parts.flags.writeable = False
    return parts, ways


def _binomials(ls, cs):
    """C(l, c) for each pair of the int arrays ls and cs, 0 <= c <= l, as an
    object array of Python ints.  The row of each distinct l is built once,
    by C(l, c + 1) = C(l, c) * (l - c) / (c + 1) in exact ints."""
    distinct = sorted(set(ls.tolist()))
    first = np.zeros(distinct[-1] + 1, dtype=np.int64)
    rows = []
    for l in distinct:
        first[l] = len(rows)
        rows.append(1)
        for c in range(l):
            rows.append(rows[-1] * (l - c) // (c + 1))
    return np.array(rows, dtype=object)[first[ls] + cs]


_composition_table = functools.lru_cache(maxsize=32)(_compositions)


def entropy_spectrum(spectrum):
    return -sum(c * v * math.log2(v) for v, c in spectrum if v > 0)


def smooth_min_entropy_spectrum(spectrum, eps):
    """Water-filling smoothing straight off a (value, count) spectrum:
    _water_levels on one row, each entry one step."""
    check_eps(eps)
    ordered = sorted(spectrum, key=operator.itemgetter(0), reverse=True)
    if eps == 0:
        return -math.log2(ordered[0][0])
    values, counts = zip(*ordered)
    totals = np.array([counts], np.int64 if sum(counts) < 2 ** 63 else object)
    (level,), (mass,) = _water_levels(np.array([values]), totals, eps)
    if not level:
        raise _no_level(eps, mass)
    return -math.log2(level)


def product_smooth_min_entropies(pmfs, t_max, eps):
    """smooth_min_entropy_spectrum(product_spectrum(p, t), eps) for each Pmf
    p of pmfs and each t = 1..t_max, with the same arithmetic, as one list
    of t_max floats per Pmf.

    The Pmfs are grouped by the numbers of atoms that hold their distinct
    masses, largest first, so no two masses need differ.  Each group's
    powers are taken once, and each power t is one product_spectra call
    and one _water_levels pass over the group's rows.  A shape out of range
    raises before any spectrum; otherwise the first (Pmf, t), Pmf by Pmf,
    that leaves no positive level raises.
    """
    check_eps(eps)
    groups = {}
    for r, p in enumerate(pmfs):
        counts = Counter(p.as_dict().values())
        values = sorted(counts, reverse=True)
        key = (tuple(counts[v] for v in values),
               all(isinstance(v, Fraction) for v in values))
        groups.setdefault(key, []).append((r, values))
    for mults, _ in groups:
        _check_shape(t_max, len(mults))
    tables = [(mults, [r for r, _ in rows], _powers([v for _, v in rows], t_max))
              for (mults, _), rows in groups.items()]
    levels, masses = np.zeros((2, len(pmfs), t_max))
    for mults, rows, powers in tables:
        for t in range(1, t_max + 1):
            products, totals = product_spectra(powers, mults, t)
            if eps == 0:
                levels[rows, t - 1] = products[:, 0]
            else:
                levels[rows, t - 1], masses[rows, t - 1] = _water_levels(products, totals, eps)
    if eps != 0 and not levels.all():
        r, t = np.argwhere(levels == 0)[0]
        raise _no_level(eps, masses[r, t])
    return [[-math.log2(level) for level in row] for row in levels.tolist()]


def _water_levels(values, totals, eps):
    """The water-filling levels of T spectra at once, for eps > 0: values
    is (T, n), each row largest first, and totals its counts, where an
    entry of count 0 adds nothing and is no step.

    smooth_min_entropy_spectrum's loop in array passes: the running mass
    adds float(v * c) left to right from 0.0 (np.cumsum is sequential), the
    running count adds c, and a row's level is (mass - eps) / count at its
    first step whose level is positive and at least the next entry's value
    (0 past the last).

    Returns:
        (levels, masses): each row's level, 0.0 where no step gives one,
        and its total float mass.
    """
    mass = np.cumsum(np.asarray(values * totals, dtype=float), axis=1)
    # a count is 0 only before a row's first step, which is no step
    lam = (mass - eps) / np.maximum(np.cumsum(totals, axis=1), 1)
    below = np.zeros_like(values)
    below[:, :-1] = values[:, 1:]
    step = (totals != 0) & (lam >= below) & (lam > 0)
    rows, first = np.arange(len(values)), step.argmax(axis=1)
    return np.where(step[rows, first], lam[rows, first], 0.0), mass[:, -1]


def _no_level(eps, mass):
    return ValueError(f"smoothing parameter {eps!r} leaves no positive "
                      f"water-filling level under total mass {float(mass)!r}")


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
    check_eps(eps)
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
