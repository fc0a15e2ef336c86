"""Array response vectors for the spherical-wave and plane-wave channel models.

Two line-of-sight models produce the length-M complex channel vector of a
user, flattened in m_z-outer / m_y-inner element order:

* "pnusw" (projected-aperture non-uniform spherical wave): per-element
  power gain follows the exact element-user distance and the element
  aperture projected toward the user,

      g = area * (q - w) . x_hat / (4 pi |q - w|^3)
        = xi * e^2 * u_x / (4 pi * [1 - 2 m_y e u_y - 2 m_z e u_z
                                      + (m_y^2 + m_z^2) e^2]^(3/2)),

  with q the user position, w the element center, xi the occupation ratio
  and e = spacing / r; the phase is the exact spherical wavefront,
  -2 pi * distance / wavelength.

* "upw" (uniform plane wave): far-field approximation with one common
  amplitude sqrt(beta0) / r and a linear phase ramp
  +2 pi/wavelength * spacing * (m_y u_y + m_z u_z) across elements.

Every correlation coefficient is read from the 2 x 2 Gram matrix G of two
users' vectors as rho = |G_12|^2 / (G_11 G_22) (correlation).  Under the
plane-wave model the Gram matrix of any users has a closed form in signed
Dirichlet kernels of the direction-cosine differences (_upw_gram), with the
removable singularities filled in by their limits, so no plane-wave
response is built for it.  _pair_gram gives the stack of one fixed user's
Grams with many others, handed over as one (4, n) coordinate array; under
the spherical-wave model it builds the fixed user once, streams the others
box by box (none is ever held whole) and assembles their Grams a box at a
time.  Others that are mirror images in the fixed user's symmetric axes
(its u_y or u_z exactly 0.0), or repeats, share one walk.  One with u_y ==
0.0 or u_z == 0.0 is walked only on the half of that axis that its mirror
symmetry does not repeat, and one with both (on the array's axis) only at
the distinct radii m_y^2 + m_z^2 of the kept quadrant.  _nested_grams walks
an M-sweep's largest array once and sums its Grams ring by ring from the boxes.

One box walker (_pnusw_walk) builds every spherical-wave entry, box by box
in order on the calling thread, each box of at most 2^15 entries: a run of
whole users (cells of one fold kind), else a band of one user's rows, else a
slice of one row (both of all K users, for _nested_grams).  It computes a
whole box in one broadcast and gives each entry's phase in cycles, distance
/ wavelength, to the one phasor kernel (_phasors), which drops the whole
cycles exactly and takes one tangent of the half angle that is left, and
writes into any two float arrays: the .real and .imag views of a complex
buffer, or, for _nested_grams, two contiguous planes, each ring strip of
which is one real product of the box's planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, DegenerateGeometryError
from .geometry import ArrayGeometry, UserLocation, _warn_if_near
from .numerics import _hermitian, _products  # the Gram kernel's two halves
from .numerics import cdot  # noqa: F401  (importable from here as before)

PNUSW = "pnusw"
UPW = "upw"
VALID_MODELS = (PNUSW, UPW)

# Most entries per box of a spherical-wave build (_boxes).
_BAND_ENTRIES = 2**15
_ON_ELEMENT = "a user is numerically coincident with an array element"


@dataclass(frozen=True)
class UpwConfig:
    """Plane-wave model constants.

    beta0 is the channel power gain at the 1 m reference distance.  The
    matched default, element_area / (4 pi), is the gain one element sees at
    1 m under the aperture model, so both channel models agree at the array
    center for a boresight user.
    """

    beta0: float

    def __post_init__(self):
        if not (
            isinstance(self.beta0, (int, float))
            and math.isfinite(self.beta0)
            and self.beta0 > 0
        ):
            raise ValueError(f"beta0 must be a positive finite gain, got {self.beta0!r}")

    @classmethod
    def matched_to(cls, geom: ArrayGeometry) -> "UpwConfig":
        return cls(beta0=geom.element_area / (4.0 * math.pi))


def _coordinates(users) -> np.ndarray:
    """The (4, K) array of users' (r, u_x, u_y, u_z)."""
    params = np.array([(loc.r, loc.u_x, loc.u_y, loc.u_z) for loc in users], dtype=float)
    return params.reshape(-1, 4).T


def _cut(start: int, stop: int, most: int) -> list:
    """The slices, in order, that cut start..stop-1 into equal parts of at most most items."""
    parts = -(-(stop - start) // most)
    step = -(-(stop - start) // parts)
    return [slice(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


def _boxes(first: int, stop: int, num_rows: int, row_len: int, joint: bool = False) -> list:
    """The boxes (users, rows, entries), three slices in sweep order, that cut
    users first..stop-1, of num_rows rows of row_len entries each, into equal
    parts of at most _BAND_ENTRIES entries; joint boxes hold all users."""
    count = stop - first if joint else 1  # users per box
    rows, entries = [slice(0, num_rows)], [slice(0, row_len)]
    if not joint and num_rows * row_len <= _BAND_ENTRIES:  # runs of whole users
        count = _BAND_ENTRIES // (num_rows * row_len)
    elif count * row_len <= _BAND_ENTRIES:  # bands of rows
        rows = _cut(0, num_rows, _BAND_ENTRIES // (count * row_len))
    else:  # slices of one row
        rows, entries = _cut(0, num_rows, 1), _cut(0, row_len, max(_BAND_ENTRIES // count, 1))
    return [(k, z, m) for k in _cut(first, stop, count) for z in rows for m in entries]


def _pnusw_walk(geom: ArrayGeometry, coordinates, indices, take, joint: bool = False):
    """Build spherical-wave users box by box, in order, yielding (box, result) lazily.

    User j, coordinates[:, j] = (r, u_x, u_y, u_z), is walked at the index
    vectors indices[j] = (m_y, m_z).  A run of users that share one pair (the
    same object) is cut into _boxes (joint: every box holds the whole run); a
    box is (users, rows, entries, m_y, m_z), computed whole in one broadcast
    into one buffer of cycles, amp and phasors (joint: one float buffer of
    cycles, amp and the phasors' real and imaginary planes).  With e =
    spacing / r and f(m) = m^2 e^2 - 2 e u m per axis, an entry's radicand
    t = (1 + f_z) + f_y is its squared distance over r^2 (u_y == 0.0 makes
    m_y and -m_y bitwise equal), its amplitude sqrt(scale) / (s sqrt(s)) and
    its phase in cycles r s / wavelength (the phase is -2 pi times it), with
    s = sqrt(t).  A box's result is take(users, rows, entries, phasors, amp,
    on_element), the entries amp e^{-2 pi j cycles} (_phasors) and amp of
    shape (users, rows, entries), and on_element[i] meaning a radicand t <= 0
    for the box's user i (a user on an element); take may overwrite both.  A
    joint walk hands take the phasors as their (2, users, rows, entries) real
    and imaginary planes.
    """
    boxes, first = [], 0
    for stop in range(1, len(indices) + 1):
        if stop == len(indices) or indices[stop] is not indices[first]:
            m_y, m_z = indices[first]
            boxes += [(*b, m_y, m_z) for b in _boxes(first, stop, len(m_z), len(m_y), joint)]
            first = stop
    r, u_x, u_y, u_z = coordinates
    # overflow here leaves a non-finite entry, which the callers report
    with np.errstate(all="ignore"):
        e = geom.spacing / r
        scale = geom.occupation_ratio * e * e * u_x / (4.0 * math.pi)
        wave = r / geom.wavelength
        terms = np.array([e * e, 2.0 * e * u_y, 2.0 * e * u_z, np.sqrt(scale), wave])

    def walk(users, rows, entries, m_y, m_z):
        m_y, m_z = m_y[entries], m_z[rows, None]
        e2, e_y, e_z, root_scale, wave = terms[:, users, None, None]
        with np.errstate(all="ignore"):
            f_y, f_z = m_y * m_y * e2 - e_y * m_y, 1.0 + (m_z * m_z * e2 - e_z * m_z)
            # one buffer, after f_y's temporaries: two freed per box can refault the heap
            shape = (users.stop - users.start, len(m_z), len(m_y))
            if joint:
                buffer = np.empty((4, *shape))
                cycles, amp, re, im = buffer
                phasors = buffer[2:]
            else:
                phasors, buffer = np.empty((2, *shape), dtype=complex)
                cycles, amp = buffer.view(float).reshape(2, *shape)
                re, im = phasors.real, phasors.imag
            np.add(f_y, f_z, out=cycles)
            on_element = cycles.min(axis=(1, 2)) <= 0.0
            np.sqrt(cycles, out=cycles)
            np.sqrt(cycles, out=amp)
            amp *= cycles
            np.divide(root_scale, amp, out=amp)
            cycles *= wave
            _phasors(cycles, amp, re, im)
            return take(users, rows, entries, phasors, amp, on_element)

    return ((box, walk(*box)) for box in boxes)


def _phasors(cycles, amp, re, im):
    """re + j im = amp e^{-2 pi j cycles}, into two float arrays; overwrites cycles, leaves amp.

    frac = c - rint(c), exact for |c| < 2^52 (a larger float is whole), drops
    the whole cycles; t = tan(-pi frac) is finite even at frac = +-1/2, and
    out = amp ((1 - t^2) + 2 j t) / (1 + t^2), within about 2 eps of amp.
    amp / (1 + t^2) leaves the normal range only for amp below about 6e-276,
    whose square is 0 anyway.  numpy's float64 tan is a SIMD loop, several
    times faster than its cos and sin, and bitwise the same for any stride,
    length or offset.  re and im are the temporaries, so contiguous planes
    and the .real and .imag views of a complex array get the same entries.
    """
    np.rint(cycles, out=re)
    cycles -= re
    cycles *= -math.pi
    t = np.tan(cycles, out=cycles)
    np.multiply(t, t, out=re)
    np.add(re, 1.0, out=im)
    np.subtract(1.0, re, out=re)
    np.divide(amp, im, out=im)  # amp / (1 + t^2)
    re *= im
    t += t
    im *= t


def _response_block(
    geom: ArrayGeometry, users, model: str, cfg: UpwConfig | None = None
) -> np.ndarray:
    """Responses of K users as one (K, N_z, N_y) array.

    pnusw: an entry is _pnusw_walk's, copied into the block box by box; a
    build holds a buffer of at most a band besides.  upw: an entry is one broadcast of
    (common * e^{j c u_z m_z}) * e^{j c u_y m_y}, c = 2 pi spacing / wavelength.
    Entries depend only on the user and their own (m_y, m_z), so the centered
    sub-grid of a larger same-parity array is bitwise a direct build.  A
    radicand t <= 0 (a user on an element) raises DegenerateGeometryError.  A
    non-finite entry raises DegenerateChannelError.
    """
    if model not in VALID_MODELS:
        raise ValueError(f"unknown channel model {model!r}")
    coordinates = _coordinates(users)
    m_y, m_z = geom.indices_y(), geom.indices_z()
    out = np.empty((coordinates.shape[1], geom.num_z, geom.num_y), dtype=complex)
    if model == UPW:
        r, _, u_y, u_z = coordinates[:, :, None]  # K x 1 columns
        beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
        c = 2.0 * math.pi * geom.spacing / geom.wavelength
        common = (math.sqrt(beta0) / r) * np.exp(-2j * math.pi * r / geom.wavelength)
        along_z = common * np.exp(1j * ((c * u_z) * m_z))
        np.multiply(along_z[:, :, None], np.exp(1j * ((c * u_y) * m_y))[:, None, :], out=out)
    else:
        _warn_if_near(geom, coordinates[0])

        def check(users, rows, entries, phasors, amp, on_element):
            if on_element.any():
                raise DegenerateGeometryError(_ON_ELEMENT)
            out[users, rows, entries] = phasors

        for _ in _pnusw_walk(geom, coordinates, [(m_y, m_z)] * len(out), check):
            pass
    if not np.isfinite(out).all():
        raise DegenerateChannelError("channel entries must be finite")
    return out


def _dirichlet(count, x):
    """Signed Dirichlet kernel sin(pi*count*x) / sin(pi*x), elementwise, singularities filled in.

    count is an element count, or an integer array of them that broadcasts
    against x.  The kernel is the sum of e^{j 2 pi x m} over the count
    centered indices m.  With x = n + f for the nearest integer n, and
    count*f = n' + f' likewise, it equals
    (-1)^(n (count - 1) + n') sin(pi f') / sin(pi f).  Both reductions are
    exact float subtractions, which keeps the ratio accurate arbitrarily
    close to the singular points (grating lobes, where it is +-count)
    instead of losing the tiny residual to rounding.
    """
    n = np.round(x)
    frac = x - n
    numerator_arg = count * frac
    n_num = np.round(numerator_arg)
    numerator_arg -= n_num
    sign = 1.0 - 2.0 * ((n * (count - 1) + n_num) % 2.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.sin(np.pi * numerator_arg) / np.sin(np.pi * frac)
    return sign * np.where(np.abs(frac) < 1e-12, count, ratio)


def _upw_gram(geoms, users, cfg: UpwConfig | None = None) -> np.ndarray:
    """Plane-wave Gram matrix A^H A of K users in closed form, without building A.

    G_ki = beta0 / (r_k r_i) e^{-j 2 pi (r_i - r_k) / lambda} D_{N_y}(x_y) D_{N_z}(x_z),
    with x = (d / lambda)(u_i - u_k) per axis and D the signed Dirichlet kernel;
    the diagonal is the power M beta0 / r^2, and a power that is 0 or not
    finite (r^2 beyond the float range either way) raises
    DegenerateChannelError, and so does an entry that is not finite (d /
    lambda beyond the float range).  The phase reads each range modulo
    lambda (fmod is exact), so it stays accurate however many wavelengths
    away the users are.  The result is exactly Hermitian.

    geoms is one ArrayGeometry, giving the K x K matrix, or a sequence of
    geometries that share spacing, element area and wavelength, giving the
    (n, K, K) stack of their Grams in one broadcast; each matrix of the
    stack is bitwise the one its geometry gives alone.
    """
    stack = [geoms] if isinstance(geoms, ArrayGeometry) else list(geoms)
    if len({(g.spacing, g.element_area, g.wavelength) for g in stack}) > 1:
        raise ValueError("stacked geometries must share spacing, element area and wavelength")
    beta0 = (cfg or UpwConfig.matched_to(stack[0])).beta0
    coordinates = _coordinates(users)
    powers = _upw_powers(stack, coordinates[0], beta0)
    g = _upw_entries(stack, coordinates, coordinates, beta0)
    if not np.isfinite(g).all():
        raise DegenerateChannelError("channel entries must be finite")
    np.einsum("...ii->...i", g)[...] = powers
    return g[0] if isinstance(geoms, ArrayGeometry) else g


def _upw_sizes(stack):
    """(num_y, num_z, num_elements), each an (n, 1, 1) array over the geometries of stack."""
    return np.array([(g.num_y, g.num_z, g.num_elements) for g in stack]).T[:, :, None, None]


def _upw_powers(stack, r, beta0: float) -> np.ndarray:
    """(n, K) plane-wave powers M beta0 / r^2 of ranges r; one that is 0 or not finite raises."""
    with np.errstate(over="ignore"):
        powers = _upw_sizes(stack)[2][:, 0] * beta0 / r / r
    if not np.all((powers > 0.0) & (powers < math.inf)):
        raise DegenerateChannelError("a user has a zero or non-finite channel")
    return powers


def _upw_entries(stack, rows, cols, beta0: float) -> np.ndarray:
    """(n, K_k, K_i) plane-wave Gram entries G_ki, k of the (4, K_k) coordinates rows, i of cols.

    The off-diagonal formula of _upw_gram; each entry depends only on its own
    pair of users and geometry.
    """
    num_y, num_z, _ = _upw_sizes(stack)
    (r_k, _, u_yk, u_zk), (r_i, _, u_yi, u_zi) = rows, cols
    geom = stack[0]
    d_norm = geom.spacing / geom.wavelength
    root_beta0 = math.sqrt(beta0)
    cycles_k, cycles_i = (np.fmod(r, geom.wavelength) / geom.wavelength for r in (r_k, r_i))
    with np.errstate(invalid="ignore", over="ignore"):  # callers reject a non-finite entry
        return ((root_beta0 / r_k)[:, None] * (root_beta0 / r_i)[None, :]) * (
            _dirichlet(num_y, d_norm * (u_yi[None, :] - u_yk[:, None]))
            * _dirichlet(num_z, d_norm * (u_zi[None, :] - u_zk[:, None]))
        ) * np.exp(-2j * math.pi * (cycles_i[None, :] - cycles_k[:, None]))


def _mirror(a, m, fold: bool):
    """(a, m, w) for a's last axis of indices m; fold keeps only m >= 0, each
    entry summed with its mirror image at -m, and w counts the images (1 or 2)."""
    if not fold:
        return a, m, np.ones(len(m))
    n = len(m)
    kept = a[..., n // 2 :].copy(order="K")  # in a's memory order: a.T's fold stays rows
    kept[..., n % 2 :] += np.flip(a[..., : n // 2], -1)
    return kept, m[n // 2 :], np.where(m[n // 2 :] > 0.0, 2.0, 1.0)


def _radial(f, m_y, m_z, w_y, w_z):
    """The double-mirror fold (f, m_y, m_z, w_y, w_z) summed over each distinct
    rho^2 = m_y^2 + m_z^2, as one row at m_y = sqrt(rho^2), m_z = 0.

    It serves a user 2 with u_y == u_z == 0.0, whose entries depend on rho^2
    alone.  rho^2 is exact for integer and half-integer indices; each group sums
    its f and its weights w_y w_z in the quadrant's row order.
    """
    radii, group = np.unique(np.add.outer(m_z * m_z, m_y * m_y).ravel(), return_inverse=True)
    f = f.ravel()
    folded = np.empty((1, len(radii)), dtype=complex)
    folded.real = np.bincount(group, f.real, len(radii))
    folded.imag = np.bincount(group, f.imag, len(radii))
    weights = np.bincount(group, np.outer(w_z, w_y).ravel(), len(radii))
    return folded, np.sqrt(radii), np.zeros(1), weights, np.ones(1)


def _distinct(keys):
    """(first, inverse) for the columns of the (n, K) float array keys, compared
    bitwise: keys[:, first] are its distinct columns in order of first
    occurrence, and column j is keys[:, first[inverse[j]]]."""
    columns = np.ascontiguousarray(keys.T).view(np.dtype((np.void, 8 * len(keys))))
    _, first, inverse = np.unique(columns[:, 0], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _pair_gram(
    geom: ArrayGeometry, loc1: UserLocation, coordinates, model: str, cfg: UpwConfig | None = None
) -> np.ndarray:
    """The (n, 2, 2) stack of the Gram matrices of user 1 and each user 2 on geom.

    User 2 j is coordinates[:, j] = (r, u_x, u_y, u_z) of a (4, n) float
    array (_coordinates), which is left as it is.  upw builds nothing: the
    stack is one broadcast of _upw_gram's formula, each matrix bitwise the
    G_11, G_12 and G_22 of _upw_gram on that pair alone.  pnusw builds user
    1's response once (_response_block), sums its power row by row over
    band-sized boxes, and walks user 2s (_pnusw_walk), never whole, against
    user 1's conjugate.  Where user 1's u_y (u_z) is 0.0, its response is the
    same at m and -m on that axis, so user 2 and its mirror image at -u_y
    (-u_z) have the same Gram: each user 2 is keyed by its coordinates with
    that one replaced by its absolute value, each distinct key (compared
    bitwise, in order of first occurrence) is walked once, and its Gram is
    every cell's that shares it.  A key with u_y == 0.0 or u_z == 0.0 is
    walked only at m >= 0 on that axis, against user 1's conjugate folded
    onto it (_mirror, once per fold kind), and one with both as one row at
    the kept quadrant's distinct radii, against that fold summed per radius
    (_radial).  A box gives its keys' row sums of G_12 and |a_2|^2 as arrays
    (a key cut into bands or slices joins its boxes' first), and each key
    sums its row sums in order, so every matrix is the same for any band
    size that cuts no row.  The first failing cell in sweep order raises (a
    cell that shares its key fails alike): a user on an element
    DegenerateGeometryError, a non-finite row sum (user 2's: user 1's
    entries are finite) DegenerateChannelError, as does a zero or non-finite
    power of user 1 (upw: of any user).
    """
    if model == UPW:
        grams = np.empty((coordinates.shape[1], 2, 2), dtype=complex)
        beta0 = (cfg or UpwConfig.matched_to(geom)).beta0
        one = _coordinates([loc1])
        powers = _upw_powers([geom], np.append(one[0], coordinates[0]), beta0)[0]
        inner = _upw_entries([geom], one, coordinates, beta0)[0, 0]
        grams[:, 0, 0], grams[:, 1, 1] = powers[0], powers[1:]
        grams[:, 0, 1], grams[:, 1, 0] = inner, inner.conjugate()
        return grams
    a1 = _response_block(geom, (loc1,), model)[0]
    bands = (a1[rows, entries] for _, rows, entries in _boxes(0, 1, geom.num_z, geom.num_y))
    power1 = np.concatenate([(b.real * b.real + b.imag * b.imag).sum(1) for b in bands]).sum()
    if not 0.0 < power1 < math.inf:
        raise DegenerateChannelError("a user has a zero or non-finite channel")
    np.conjugate(a1, out=a1)
    _warn_if_near(geom, coordinates[0])
    mirrored = [[False], [False], [loc1.u_y == 0.0], [loc1.u_z == 0.0]]  # user 1's symmetric axes
    coordinates = np.where(mirrored, np.abs(coordinates), coordinates)
    first, keys = _distinct(coordinates)  # keys[j]: the index of cell j's key
    coordinates = coordinates[:, first]
    kinds = list(zip(*(coordinates[2:] == 0.0).tolist()))  # each key's (u_y, u_z) == 0.0

    def fold(fold_y: bool, fold_z: bool):
        f, m_y, w_y = _mirror(a1, geom.indices_y(), fold_y)
        f, m_z, w_z = _mirror(f.T, geom.indices_z(), fold_z)
        if fold_y and fold_z:
            return _radial(f.T, m_y, m_z, w_y, w_z)
        return f.T, m_y, m_z, w_y, w_z

    folds = {kind: fold(*kind) for kind in dict.fromkeys(kinds)}
    del a1  # held on only by the unfolded kind's fold, if a cell needs it
    indices = {kind: (m_y, m_z) for kind, (_, m_y, m_z, _, _) in folds.items()}

    def reduce(users, rows, entries, built, amp, on_element):
        f, _, _, w_y, w_z = folds[kinds[users.start]]
        built *= f[rows, entries]
        amp *= amp
        amp *= w_y[entries]
        return on_element[:, None], built.sum(axis=2), amp.sum(axis=2) * w_z[rows]

    walk = _pnusw_walk(geom, coordinates, [indices[kind] for kind in kinds], reduce)
    grams = np.full((len(first), 2, 2), power1, dtype=complex)  # the rest is set box by box
    pieces = []  # (on_element, G_12 row sums, |a_2|^2 row sums) of each box of the key in progress
    for (users, rows, entries, m_y, m_z), piece in walk:
        pieces.append(piece)
        if rows.stop < len(m_z) or entries.stop < len(m_y):
            continue  # the box's one key goes on in the next box
        on_element, inner, power = (np.concatenate(p, axis=1) for p in zip(*pieces))
        pieces.clear()
        on_element = on_element.any(axis=1)
        failed = on_element | ~(np.isfinite(inner).all(axis=1) & np.isfinite(power).all(axis=1))
        if failed.any():  # the box's first failing key
            if on_element[failed.argmax()]:
                raise DegenerateGeometryError(_ON_ELEMENT)
            raise DegenerateChannelError("channel entries must be finite")
        g12 = inner.sum(axis=1)
        grams[users, 0, 1], grams[users, 1, 0] = g12, g12.conjugate()
        grams[users, 1, 1] = power.sum(axis=1)
    return grams[keys]


def _nested_grams(geoms, users, model: str, cfg: UpwConfig | None = None) -> np.ndarray:
    """The (n, K, K) stack of the Gram matrices A^H A of K users on each of geoms, in order.

    upw is one broadcast of the closed form _upw_gram.  pnusw walks the
    largest geometry once, all users in each box.  A geometry of its parity
    on both axes and no larger on either is a centered window of it, with
    bitwise the entries of a direct build; its ring is the at most four
    strips around the previous such window if that is inside it (its Gram
    then adds that window's), else the whole window.  Each ring strip a box
    meets adds its real products (numerics._products, one real product of
    the strip's stacked planes) to its ring's sum, in box order; each
    ring's Gram is formed from its sum once, after the walk.  A geometry
    that does not nest takes a walk of its own, whole.  All share spacing,
    element area and wavelength.  A user on an element raises
    DegenerateGeometryError, a Gram that is not finite DegenerateChannelError.
    """
    if model == UPW:
        return _upw_gram(geoms, users, cfg)
    big = max(geoms, key=lambda g: g.num_elements)
    coordinates = _coordinates(users)
    k = coordinates.shape[1]
    sums = np.zeros((len(geoms), 2 * k, 2 * k))  # each ring's real products
    alone = {}  # the Grams of the geometries that do not nest, by index
    strips, links, last = [], [], None  # strips (i, z0, z1, y0, y1) of geometry i's ring
    for i, g in enumerate(geoms):
        dz, dy = big.num_z - g.num_z, big.num_y - g.num_y
        if min(dz, dy) < 0 or dz % 2 or dy % 2:  # does not nest: a walk of its own
            alone[i] = _nested_grams([g], users, model)[0]
            continue
        z0, y0 = dz // 2, dy // 2
        z1, y1 = z0 + g.num_z, y0 + g.num_y
        pz0, pz1, py0, py1 = z0, z0, y0, y0  # an empty window: the ring is the whole window
        if last is not None and last[1] >= z0 and last[3] >= y0:  # the last window is inside
            links.append((i, last[0]))
            _, pz0, pz1, py0, py1 = last
        # rows above and below the inner window, then columns left and right of it
        parts = [(z0, pz0, y0, y1), (pz1, z1, y0, y1), (pz0, pz1, y0, py0), (pz0, pz1, py1, y1)]
        strips += [(i, *p) for p in parts if p[0] < p[1] and p[2] < p[3]]
        last = (i, z0, z1, y0, y1)

    def reduce(users, rows, entries, planes, amp, on_element):
        if on_element.any():
            raise DegenerateGeometryError(_ON_ELEMENT)
        r, e = rows.start, entries.start
        for i, z0, z1, y0, y1 in strips:  # each strip's part in the box
            z0, z1, y0, y1 = max(z0, r), min(z1, rows.stop), max(y0, e), min(y1, entries.stop)
            if z0 < z1 and y0 < y1:
                part = planes[:, :, z0 - r : z1 - r, y0 - e : y1 - e]
                sums[i] += _products(part.reshape(2 * k, -1))

    _warn_if_near(big, coordinates[0])
    indices = [(big.indices_y(), big.indices_z())] * k
    for _ in _pnusw_walk(big, coordinates, indices, reduce, joint=True):
        pass
    grams = _hermitian(sums)  # a non-finite sum is rejected below
    for i, g in alone.items():
        grams[i] = g
    for i, prev in links:
        grams[i] += grams[prev]
    if not np.isfinite(grams).all():
        raise DegenerateChannelError("channel entries must be finite")
    return grams


def correlation(g) -> float:
    """Correlation rho = |G_12|^2 / (G_11 G_22) of two users from their 2 x 2 Gram matrix G.

    Evaluated scale-free as |G_12 / sqrt(G_11) / sqrt(G_22)|^2, so it is
    defined for any finite positive powers, however far their product
    leaves the float range; rho does not depend on a common gain such as
    beta0.  The result is capped at 1 against rounding.  Raises
    DegenerateChannelError when a power is 0 or not finite, or G_12 is not
    finite.
    """
    (g11, g12), (_, g22) = np.asarray(g, dtype=complex).tolist()
    power1, power2 = g11.real, g22.real
    finite = all(map(math.isfinite, (power1, power2, g12.real, g12.imag)))
    if not (finite and power1 > 0.0 and power2 > 0.0):
        raise DegenerateChannelError(
            "correlation undefined: a channel power is zero or not finite, or G_12 is not finite"
        )
    scaled = g12 / math.sqrt(power1) / math.sqrt(power2)
    return min(scaled.real * scaled.real + scaled.imag * scaled.imag, 1.0)
