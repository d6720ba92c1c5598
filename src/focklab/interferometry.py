"""Two-mode constructions: 50:50 beam splitter, entanglement potential, phase estimation.

The beam splitter is realized by its exact combinatorial action on Fock
amplitudes (no matrix exponentiation), so the split is unitary on the
truncated space by construction. Entanglement potential is the linear
entropy of one output mode; its closed form, a two-copy sum of the amplitude
ladder against the split's own weights, sits alongside the numeric partial
trace that validates it.
Mach-Zehnder phase estimation with the input |s> x |0> needs only the
photon statistics of |s> (Yurke, McCall & Klauder, PRA 33, 4033 (1986)).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import DEFAULT_POLICY, StateVector, log_factorials
from .exceptions import ConvergenceError, FockLabError, StationaryPointError
from .states import StateSpec, ladder_log_amplitudes

# Longest s = n + r < 2 cut - 1 the closed-form entropy sums over (|alpha| ~ 38,
# M = 2047). Its cut x (2 cut - 1) weight and term grids take 48 cut^2 bytes,
# about 200 MB at the limit; a longer series is refused, not allocated.
_ENTROPY_MAX_TERMS = 4096


def _hankel(head: np.ndarray) -> np.ndarray:
    """The (d, d) read-only view H[j, m] = head[j + m], zero where j + m >= d = len(head)."""
    d = len(head)
    padded = np.zeros(2 * d - 1, dtype=head.dtype)
    padded[:d] = head
    step = padded.itemsize
    # The ndarray constructor, not as_strided: under half the cost at small d.
    view = np.ndarray((d, d), padded.dtype, padded, strides=(step, step))
    view.flags.writeable = False
    return view


# Past this dim the complex split alone passes 1 GiB; it is refused unallocated.
_SPLIT_MAX_DIM = 8192

_split_weight_table = np.empty((0, 0))  # grown by ``_split_weights``


def _split_weights(d: int) -> np.ndarray:
    """Read-only (d, d) beam-splitter weights W[j, m] = sqrt(C(j+m, j)/2^{j+m}) for j + m < d.

    The log-weight log (j+m)! - log j! - log m! - (j+m) log 2 is read
    through Hankel views and exponentiated once per cell, so no cell
    overflows at any d; cells with j + m >= d hold values in (0, 1] that
    only ever multiply zero amplitudes. A cell with j + m < d has the same
    value in a table of any size at least d, so one table serves every d
    up to its size from its corner. A larger d at least doubles the table,
    up to DEFAULT_POLICY.max_dim (at most 2 MiB), so a process rebuilds it
    only a few times; a d past that gets weights computed for that call
    alone, and a d past ``_SPLIT_MAX_DIM`` raises ConvergenceError before
    anything is allocated.
    """
    global _split_weight_table
    if d > _SPLIT_MAX_DIM:
        raise ConvergenceError(f"a split of dim {d} exceeds the {_SPLIT_MAX_DIM}-state limit of the partial trace")
    table = _split_weight_table
    if d > len(table):
        size = max(d, min(2 * len(table), DEFAULT_POLICY.max_dim))
        log_fact = log_factorials(size)
        log_w = _hankel(log_fact) - log_fact[:, None]
        log_w -= log_fact
        log_w *= 0.5
        log_w -= _hankel(0.5 * np.arange(size) * math.log(2.0))
        table = np.exp(log_w, out=log_w)
        table.setflags(write=False)
        if d > DEFAULT_POLICY.max_dim:
            return table
        _split_weight_table = table
    return table[:d, :d]


def beam_splitter_split(s: StateVector) -> np.ndarray:
    """Exact 50:50 split of |s> against vacuum, as the (dim, dim) two-mode amplitude matrix.

    M[j, m] = c_{j+m} sqrt(C(j+m, j)) / 2^{(j+m)/2} over the product basis
    |j> x |m>, zero where j + m >= dim. The amplitude depends on j + m
    only and is read as a Hankel view of the zero-padded vector; the
    weights sqrt(C(j+m, j)/2^{j+m}) <= 1 do not depend on the state and
    are read from one cached table (``_split_weights``). A state past
    ``_SPLIT_MAX_DIM`` raises ConvergenceError before anything is allocated.
    """
    weights = _split_weights(s.dim)
    return _hankel(s.amplitudes) * weights


# A split of at most _ONE_PRODUCT_MAX rows is one product M M^H, the same BLAS
# call at every such dim, so the small-dim entropies (every shipped entropy
# cell has dim <= 37) keep their last bit. Past it the triangular Gram runs in
# _GRAM_BAND-row bands over the split's mass window (``linear_entropy``). Each
# band computes its whole diagonal block, so the bands do about band * e^2/2
# multiply-adds beyond the e^3/6 ideal of an e-row window: 1.3x the ideal at
# e = 351 with 32-row bands, 1.6x with 64. 16- and 24-row bands read 0-7%
# below 32, and not at every dim. Median ms per call, split included, complex
# vs real Gram over the mass window (one BLAS thread, 2-core x86-64 host, 41
# interleaved runs): coherent at |alpha| = 15 (dim 339) 1.58/0.87, DFS at
# |alpha| = 15, n = 3 (dim 365) 2.06/1.06, one-parity ECS at |alpha| = 15
# (dim 339) 0.88/0.65. The Kerr group keeps the complex Gram and pays the
# turn's one-entry test: Kerr at |alpha| = 8, 11, 15 (dim 129, 207, 339)
# 0.31/0.33, 0.67/0.71 and 1.57/1.61. At one-parity ECS at |alpha| = 5
# (dim 69) one product over the whole split takes 0.119, the complex window
# 0.123 and the real one 0.133: the marginal and the turn cost more than
# the window [0, 58) and the real blocks save.
_ONE_PRODUCT_MAX = 64
_GRAM_BAND = 32

# Past _ONE_PRODUCT_MAX the Gram leaves out the split's rows and columns beyond
# the mass window: on each side they carry a mode-A marginal mass of at most
# this (``_mass_window``), which moves the purity by less than 1e-19.
_WINDOW_MASS = 1e-20


def _split_purity(split: np.ndarray, reach: int) -> float:
    """||M M^H||_F^2 of an M whose row a vanishes from column reach - a on.

    A band of rows starting at a needs only the first reach - a columns.
    M M^H is Hermitian, so each band is multiplied only against the rows
    above it and itself: the block above the band counts twice and the
    diagonal block once, about len(M)^3/6 multiply-adds, real or complex
    as M is.
    """
    rows = len(split)
    # A parity block of a one-row window has no rows: its purity is 0.
    band = max(rows, 1) if rows <= _ONE_PRODUCT_MAX else _GRAM_BAND
    purity = 0.0
    for a in range(0, rows, band):
        live = split[: a + band, : reach - a]
        gram = live @ live[a:].conj().T
        above, block = gram[:a], gram[a:]
        purity += float(np.vdot(block, block).real)
        if a:  # the first band has no rows above it
            purity += 2.0 * float(np.vdot(above, above).real)
    return purity


def _mass_window(probabilities: np.ndarray, weights: np.ndarray) -> tuple[int, int]:
    """[lo, hi): the mode-A photon numbers outside which each side holds at most ``_WINDOW_MASS``.

    The mode-A marginal p_A(j) = sum_m |M[j, m]|^2 = sum_m p_{j+m} W[j, m]^2
    is summed in one pass over the Hankel view of p = |c|^2. lo is the
    largest index with sum_{j<lo} p_A <= _WINDOW_MASS and hi the smallest
    with sum_{j>=hi} p_A <= _WINDOW_MASS. |M| is symmetric in (j, m), so
    the mode-B marginal is the same and the window bounds the columns too.
    """
    marginal = np.einsum("ij,ij,ij->i", _hankel(probabilities), weights, weights)
    lo = np.cumsum(marginal).searchsorted(_WINDOW_MASS, "right")
    tail = np.cumsum(marginal[::-1]).searchsorted(_WINDOW_MASS, "right")
    return int(lo), len(marginal) - int(tail)


def _split_block(c: np.ndarray, weights: np.ndarray, j0: int, m0: int, step: int, stop: int) -> tuple[np.ndarray, int]:
    """Rows j0, j0 + step, ... and columns m0, m0 + step, ... below stop of the split, and its reach.

    Cell [a, b] is M[j0 + step a, m0 + step b], whose amplitude
    c_{j0+m0+step(a+b)} is read as the Hankel view of c[j0 + m0 :: step]
    and whose weight as W[j0 :: step, m0 :: step][a, b]; it vanishes once
    a + b reaches len(c[j0 + m0 :: step]), the reach, so rows and columns
    past the reach are left out.
    """
    head = c[j0 + m0 :: step]
    reach = len(head)
    w = weights[j0:stop:step, m0:stop:step][:reach, :reach]
    return _hankel(head)[: w.shape[0], : w.shape[1]] * w, reach


def _real_turn(c: np.ndarray, p: np.ndarray) -> np.ndarray | None:
    """The real part of c_n e^{-i(phi n + theta)}, or None where its imaginary part holds more than ``_WINDOW_MASS``.

    It is real wherever c_n = g r_n e^{i n phi} with every r_n real.
    phi = arg(c_j / c_k) / (j - k) is read from the largest amplitude c_k
    and its nearest neighbour c_j of nonzero mass, one or two places away
    (the larger on a tie), and theta = arg c_k - phi k, so c_k turns to
    |c_k|. A sign of r_j / r_k shifts phi by pi / (j - k), which for
    j - k = +-1, or +-2 on a one-parity state, only multiplies the turned
    vector by a sign per entry. With no such neighbour phi = 0. The entry
    across c_k from c_j is turned first: where it alone holds more than
    ``_WINDOW_MASS`` of imaginary part, as in the Kerr group, so does the
    whole. The d factors are the outer product of two tables of about
    sqrt(d) exponentials, e^{-i(phi w a + theta)} e^{-i phi b} for n = w a + b.
    """
    d, k = len(c), int(p.argmax())
    j = k
    for near in ((k - 1, k + 1), (k - 2, k + 2)):
        near = [i for i in near if 0 <= i < d and p[i]]
        if near:
            j = max(near, key=p.__getitem__)
            break
    phi = cmath.phase(c[j] / c[k]) / (j - k) if j != k else 0.0
    theta = cmath.phase(c[k]) - phi * k
    x = 2 * k - j
    if 0 <= x < d and (c[x] * cmath.exp(-1j * (phi * x + theta))).imag ** 2 > _WINDOW_MASS:
        return None
    width = math.isqrt(d) + 1
    steps = np.arange(width)
    factors = np.multiply.outer(np.exp(-1j * (phi * width * steps + theta)), np.exp(-1j * phi * steps))
    turned = c * factors.ravel()[:d]
    return turned.real if float(turned.imag @ turned.imag) <= _WINDOW_MASS else None


def linear_entropy(s: StateVector) -> float:
    """Entanglement potential: 1 - Tr(rho_A^2) after splitting s against vacuum.

    rho_A = M M^H is the partial trace of the split M over the second mode,
    and Tr(rho_A^2) = ||rho_A||_F^2 (``_split_purity``). M is read as a
    strided Hankel view of the amplitudes times the cached split weights,
    no SVD. Up to dim ``_ONE_PRODUCT_MAX`` that is one product over the
    whole split. Past it the Gram is triangular, in ``_GRAM_BAND``-row
    bands (``_split_purity``), and two cuts apply, each of which can only
    lower the purity P.

    The mass window. The split is formed, and its Gram taken, only over the
    mode-A photon numbers [lo, hi) of ``_mass_window``, rows and columns
    alike. Dropping columns of mass delta_c lowers P by at most
    2 delta_c + delta_c^2, and dropping rows of mass delta_r by at most
    2 delta_r, since |rho_jk|^2 <= rho_jj rho_kk. Each side of the window
    drops at most ``_WINDOW_MASS`` = 1e-20, so delta_r, delta_c <= 2e-20
    and 0 <= Delta P <= 8e-20.

    The real turn. The amplitudes are turned by one global phase and by
    e^{-i phi N} (``_real_turn``). The turn is exact: the splitter conserves
    N_a + N_b and port b holds vacuum, so U (e^{-i phi N} x 1)|s, 0> =
    (e^{-i phi N_a} x e^{-i phi N_b}) U |s, 0>, the original output up to
    local unitaries, and rho_A keeps its spectrum. Where the turned
    imaginary part holds at most ``_WINDOW_MASS`` of the mass (every
    c_n = g r_n e^{i n phi} with r_n real: the displaced-Fock, ECS and
    binomial groups), only the real part is split, and the Gram is a real
    product, a quarter of the complex flops. M is symmetric, so with
    M = A + iB, rho_A = A^2 + B^2 + i[B, A] and
    P - ||A^2||_F^2 = 2 ||AB||_F^2 + ||B^2||_F^2 + ||[B, A]||_F^2 >= 0.
    ||M||_F = 1 bounds ||A||_2 <= 1, and ||B||_F^2 <= delta, the imaginary
    mass (the weights of each antidiagonal j + m = n sum to 1 in square),
    so dropping B lowers P by at most 2 delta + delta^2 + 4 delta =
    6 delta + delta^2 <= 6e-20 + 1e-40.
    Any other state (the Kerr group, whose phase chi n(n-1) is not linear
    in n) keeps its complex amplitudes. With the window, 0 <= Delta P <
    1.5e-19, about three orders below half an ulp of P near 1.

    One parity. A state of one parity p (c_n = 0 unless n = p mod 2, as for
    the even and odd cat states) has M[j, m] = 0 unless j + m = p mod 2, so
    rho_A is block-diagonal between even and odd j, exactly; each block is
    taken from the same window, and the two together cost a quarter of the
    whole. A state past ``_SPLIT_MAX_DIM`` raises ConvergenceError.
    """
    d = s.dim
    if d <= _ONE_PRODUCT_MAX:
        # Clip the roundoff of exactly-product outputs.
        return max(1.0 - _split_purity(beam_splitter_split(s), d), 0.0)
    weights = _split_weights(d)
    p = s.probabilities()
    lo, hi = _mass_window(p, weights)
    real = _real_turn(s.amplitudes, p)
    c = s.amplitudes if real is None else real
    odd = int(c[1::2].any())
    if odd and c[::2].any():
        blocks = [(lo, lo, 1)]
    else:  # rows of parity r meet columns of parity (odd - r) mod 2
        blocks = [(lo + (r - lo) % 2, lo + (odd - r - lo) % 2, 2) for r in (0, 1)]
    purity = sum(_split_purity(*_split_block(c, weights, j0, m0, step, hi)) for j0, m0, step in blocks)
    return max(1.0 - purity, 0.0)


def linear_entropy_closed_form(spec: StateSpec) -> float:
    """Closed-form entanglement potential of any family.

    With w_n = c_n / sqrt(n!) from ``states.ladder_log_amplitudes``, the
    purity of either output mode of any pure state is
    Tr rho_A^2 = sum_s s!/2^s |A_s|^2 with A_s = sum_{n+r=s} w_n w_r, the
    self-convolution of w. It is summed as sum_s |B_s|^2 over the bounded
    amplitudes c_n (``_entropy_sum``). Agrees with
    ``linear_entropy(build_state(spec))`` within 1e-8; raises what the
    ladder raises, and ConvergenceError for a series of more than
    ``_ENTROPY_MAX_TERMS`` terms. It reads the held ladder of
    ``ladder_log_amplitudes`` (see there).
    """
    return _entropy_sum(ladder_log_amplitudes(spec))


def _two_copy_weights(d: int) -> np.ndarray:
    """The (d, 2d - 1) grid V[n, s] = W[n, s - n] = sqrt(C(s, n)/2^s) wherever n <= s < n + d.

    Up to DEFAULT_POLICY.max_dim terms it is a sheared read-only view of the cached
    ``_split_weights(2d - 1)`` table W, row n read from column -n on; a
    cell with s < n reads the tail of row n - 1, finite and at most 1.
    Past the cache it is formed alone, each cell by the table's own
    arithmetic (so the two agree bitwise), and 0 where s < n: 2d^2 cells
    rather than the 4d^2 of an uncached table. Cells outside
    n <= s < n + d meet only zero partner terms in ``_entropy_sum``.
    """
    terms = 2 * d - 1
    if terms <= DEFAULT_POLICY.max_dim:
        table = _split_weights(terms)
        row, col = table.strides
        return as_strided(table, (d, terms), (row - col, col), writeable=False)
    log_fact = log_factorials(terms)
    back = np.concatenate((np.full(d - 1, np.inf), log_fact))[d - 1 :]
    log_v = log_fact - log_fact[:d, None]
    log_v -= as_strided(back, (d, terms), (-back.itemsize, back.itemsize))  # log (s - n)!, inf where s < n
    log_v *= 0.5
    log_v -= 0.5 * np.arange(terms) * math.log(2.0)
    return np.exp(log_v, out=log_v)


def _entropy_sum(ladder: tuple[np.ndarray, np.ndarray] | FockLabError) -> float:
    """``linear_entropy_closed_form`` over one ``states.ladders`` entry; an error entry is raised.

    Tr rho_A^2 = sum_s |B_s|^2 with B_s = sum_{n+r=s} c_n c_r sqrt(C(s, n)/2^s)
    = sqrt(s!/2^s) A_s. Every |c_n| <= 1 and every weight is at most 1, so
    the ladder is exponentiated once (d exps) and no term can overflow.
    The partner c_{s-n}, padded by d - 1 zeros a side, is read as the
    strided view whose row n holds term s - n at column s, and
    B = c @ (partner * V) over the weights V of ``_two_copy_weights``.
    """
    if isinstance(ladder, FockLabError):
        raise ladder
    log_c, phase = ladder
    d = len(log_c)
    terms = 2 * d - 1
    if terms > _ENTROPY_MAX_TERMS:
        raise ConvergenceError(f"entropy series of {terms} terms exceeds the {_ENTROPY_MAX_TERMS}-term limit")
    c = np.exp(log_c) * phase
    pad = np.zeros(d - 1, dtype=c.dtype)
    forward = np.concatenate((pad, c, pad))[d - 1 :]
    partner = as_strided(forward, (d, terms), (-forward.itemsize, forward.itemsize))
    b = c @ (partner * _two_copy_weights(d))
    return 1.0 - float(np.vdot(b, b).real)


def phase_estimation_uncertainty(s: StateVector, phi: float) -> float:
    """Mach-Zehnder phase uncertainty dphi = std(Jz_out) / |d<Jz_out>/dphi| at phase phi.

    For the input |s> x |0> the Schwinger statistics reduce to the photon
    statistics of |s>: <Jz> = <N>/2, Var Jz = Var N/4, Var Jx = <N>/4 and
    <Jx> = Cov(Jx, Jz) = 0. With Jz_out = cos(phi) Jz - sin(phi) Jx this gives
    dphi = sqrt(cos^2 phi Var N + sin^2 phi <N>) / (|sin phi| <N>). Raises
    StationaryPointError where the signal derivative -sin(phi) <N>/2 vanishes.
    """
    p = s.probabilities()
    n = np.arange(s.dim)
    mean_n = float(p @ n)
    var_n = float(p @ (n - mean_n) ** 2)
    c, si = math.cos(phi), math.sin(phi)
    derivative = -0.5 * si * mean_n
    if abs(derivative) <= 1e-14:
        raise StationaryPointError(f"signal derivative vanishes at phi={phi}")
    var_out = 0.25 * (c * c * var_n + si * si * mean_n)
    return math.sqrt(max(var_out, 0.0)) / abs(derivative)
