"""Numerical search for 2-circulant equiangular tight frames.

The frame [C_x | C_y] built from two circulant d x d blocks is an ETF
exactly when the correlation sequences

    u_j = sum_m x_m conj(x_{m+j})        (x against itself)
    v_j = sum_m y_m conj(y_{m+j})        (y against itself)
    c_j = sum_m y_m conj(x_{m+j})        (y against x)

satisfy unit norms (u_0 = v_0 = 1), tightness (u_j + v_j = 0 for j != 0)
and equal moduli (|u_j| = |c_j| = |c_0| for j != 0).  The residual below
lists one real equation per independent constraint; a Levenberg-Marquardt
loop with the exact Jacobian drives it to zero.

The row layout of that residual is written once, in row_spec.  residual,
analytic_jacobian and the interval and polynomial forms in certify all
take their rows from it (gather_rows picks them out of per-lag arrays).

The d = 4 experiment (d4_uniqueness_experiment) runs alternating
projections from many random starts.  alternating_projections_grams
keeps the starts as one (k, n, n) stack, so each pass is one eigh over
the stack rather than one per start; a start whose Gram has settled
(moved by less than 1e-14 in every entry) leaves the stack at that pass,
which is where a run from that start alone stops.  Every Gram is bit for
bit the one-start result, alternating_projections_gram.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .frames import CirculantPair, welch_gamma
from .linalg import gaussian_signature_defect


def correlations(x, y):
    """(u, v, c) as defined in the module docstring, via FFTs."""
    fx = np.fft.fft(x)
    fy = np.fft.fft(y)
    u = np.conj(np.fft.ifft(np.abs(fx) ** 2))
    v = np.conj(np.fft.ifft(np.abs(fy) ** 2))
    c = np.conj(np.fft.ifft(fx * np.conj(fy)))
    return u, v, c


def residual_count(d):
    return 2 * d + d // 2 + 1


QUANTITIES = ("u_re", "v_re", "s_re", "s_im", "mod_u", "mod_c")


def row_spec(d):
    """The residual row layout as (quantity, lag) pairs.  u_re, v_re, s_re
    and s_im are real and imaginary parts of u_j, v_j and s_j = u_j + v_j;
    mod_u and mod_c stand for |u_j|^2 - |c_0|^2 and |c_j|^2 - |c_0|^2.
    Rows 0, 1 and 2 also carry the constants -1, -1 and -4w, which callers
    add themselves."""
    spec = [("u_re", 0), ("v_re", 0), ("s_re", 0)]
    for j in range(1, (d + 1) // 2):
        spec += [("s_re", j), ("s_im", j)]
    if d % 2 == 0:
        spec.append(("s_re", d // 2))
    spec += [("mod_u", j) for j in range(1, d // 2 + 1)]
    spec += [("mod_c", j) for j in range(1, d)]
    return spec


@lru_cache(maxsize=32)
def _row_index(d):
    """(quantity, rows, lags) for each quantity of row_spec(d); cached, so read only."""
    names, lags = map(np.array, zip(*row_spec(d)))
    return tuple((q, np.flatnonzero(names == q), lags[names == q]) for q in QUANTITIES)


def gather_rows(d, quantities):
    """The residual rows of row_spec(d), picked out of quantities, a dict
    from each name in QUANTITIES to a real array with the lag on axis 0
    and any trailing axes (the same for all six).  u_re, v_re, s_re,
    s_im and mod_u are only read at lags 0..d/2."""
    out = np.empty((residual_count(d),) + np.shape(quantities["u_re"])[1:])
    for name, rows, lags in _row_index(d):
        out[rows] = quantities[name][lags]
    return out


def residual(pair, w):
    """Real residual vector of length 2d + floor(d/2) + 1, in the layout
    of row_spec."""
    d = pair.d
    u, v, c = correlations(pair.x, pair.y)
    s = u + v
    # hypot then pow matches scalar abs(z) ** 2 bit for bit, so a seed's solve path is stable
    abs2_u = np.float_power(np.hypot(u.real, u.imag), 2.0)
    abs2_c = np.float_power(np.hypot(c.real, c.imag), 2.0)
    rows = gather_rows(d, {
        "u_re": u.real,
        "v_re": v.real,
        "s_re": s.real,
        "s_im": s.imag,
        "mod_u": abs2_u - abs2_c[0],
        "mod_c": abs2_c - abs2_c[0],
    })
    rows[:3] -= (1.0, 1.0, 4.0 * w)
    return rows


def analytic_jacobian(pair, w):
    """Exact Jacobian of `residual` in the variables
    (Re x, Im x, Re y, Im y, w), shape (2d + floor(d/2) + 1, 4d + 1).

    The derivative of each quantity is a (lag x variable) table, gathered
    into rows like the residual; u, v and s are read at lags 0..d/2 only,
    so their tables stop there.
    """
    d = pair.d
    x, y = pair.x, pair.y
    u, v, c = correlations(x, y)
    half = d // 2 + 1
    lag = np.arange(d)[:, None]
    back = np.arange(d, 2 * d) - lag  # [j, l] -> l - j, into z written out twice
    ahead = np.arange(d) + lag  # l + j, likewise
    x2, y2 = np.concatenate([x, x]), np.concatenate([y, y])
    xb, yb = x2[back[:half]], y2[back[:half]]  # z_(l-j)
    xa, ya = np.conj(x2)[ahead[:half]], np.conj(y2)[ahead[:half]]  # conj(z_(l+j))
    # du_j / d(Re x_l, Im x_l) beside dv_j / d(Re y_l, Im y_l); dw = 0
    ds = np.concatenate(
        [xb + xa, 1j * (xa - xb), yb + ya, 1j * (ya - yb), np.zeros((half, 1))], axis=1
    )
    # d|z|^2 = 2 Re(conj(z) dz).  dc_j / d(Re x_l, Im x_l, Re y_l, Im y_l)
    # is (y_(l-j), -i y_(l-j), conj(x_(l+j)), i conj(x_(l+j))), and as
    # multiplying by -+i is exact, Re(conj(c_j) (-+i z)) = +-Im(conj(c_j) z)
    cy = np.conj(c)[:, None] * y2[back]
    cx = np.conj(c)[:, None] * np.conj(x2)[ahead]
    abs2_c = 2.0 * np.concatenate([cy.real, cy.imag, cx.real, -cx.imag, np.zeros((d, 1))], axis=1)
    abs2_u = 2.0 * (np.conj(u[:half])[:, None] * ds[:, :2 * d]).real
    # the pivot |c_0|^2 enters every modulus row; u_j does not move with y
    pivot = abs2_c[0]
    x_vars = np.arange(4 * d + 1) < 2 * d
    norm = 2.0 * pack(pair, 0.0)[None, :]  # d|x|^2 beside d|y|^2
    jac = gather_rows(d, {
        "u_re": np.where(x_vars, norm, 0.0),
        "v_re": np.where(x_vars, 0.0, norm),
        "s_re": ds.real,
        "s_im": ds.imag,
        "mod_u": np.concatenate([abs2_u, np.zeros((half, 2 * d + 1))], axis=1) - pivot,
        "mod_c": abs2_c - pivot,
    })
    jac[2, 4 * d] = -4.0  # the -4w of the lag-0 tightness row
    return jac


@dataclass(frozen=True)
class SolveResult:
    pair: CirculantPair
    w: float
    residual_inf: float
    iterations: int
    converged: bool
    seed: int

    def to_obj(self):
        obj = self.pair.to_obj()
        obj["w"] = self.w
        obj["residual_inf"] = self.residual_inf
        obj["iterations"] = self.iterations
        obj["converged"] = self.converged
        obj["seed"] = self.seed
        return obj


def pack(pair, w):
    """The point (Re x, Im x, Re y, Im y, w) as one real vector."""
    return np.concatenate(
        [pair.x.real, pair.x.imag, pair.y.real, pair.y.imag, [w]]
    )


def unpack(vec, d):
    """Inverse of pack: (CirculantPair, w)."""
    x = vec[0:d] + 1j * vec[d : 2 * d]
    y = vec[2 * d : 3 * d] + 1j * vec[3 * d : 4 * d]
    return CirculantPair(d=d, x=x, y=y), float(vec[4 * d])


def solve(d, seed=0, tol=1e-12, max_iter=500):
    """Levenberg-Marquardt search from a seeded random start.

    w stays fixed at 1/2; only the generator coordinates move.
    Deterministic for a given (d, seed).  Convergence means the residual
    infinity norm drops to tol or below.
    """
    d = int(d)
    if d < 2:
        raise InvalidArgumentError("solver needs d >= 2")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    y = rng.normal(size=d) + 1j * rng.normal(size=d)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    w = 0.5
    vec = pack(CirculantPair(d=d, x=x, y=y), w)
    pair, _ = unpack(vec, d)
    r = residual(pair, w)
    cost = float(r @ r)
    lam = 1e-3
    n_var = 4 * d
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if float(np.max(np.abs(r))) <= tol:
            iterations -= 1
            break
        jac = analytic_jacobian(pair, w)[:, :n_var]
        jtj = jac.T @ jac
        jtr = jac.T @ r
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.eye(n_var), -jtr)
            except np.linalg.LinAlgError:
                lam *= 2.0
                continue
            trial_vec = vec.copy()
            trial_vec[:n_var] += step
            trial_pair, _ = unpack(trial_vec, d)
            trial_r = residual(trial_pair, w)
            trial_cost = float(trial_r @ trial_r)
            if trial_cost < cost:
                vec, pair, r, cost = trial_vec, trial_pair, trial_r, trial_cost
                lam = max(lam / 2.0, 1e-14)
                accepted = True
                break
            lam *= 2.0
        if not accepted:
            break
    res_inf = float(np.max(np.abs(r)))
    return SolveResult(
        pair=pair,
        w=w,
        residual_inf=res_inf,
        iterations=iterations,
        converged=res_inf <= tol,
        seed=int(seed),
    )


def _structural(g, gamma):
    """Unit diagonal, off-diagonal phases kept but moduli set to gamma
    (gamma itself where an entry is zero), on a stack of Grams."""
    off = ~np.eye(g.shape[-1], dtype=bool)
    mods = np.abs(g)
    safe = np.where(mods > 0, mods, 1.0)
    h = np.where(off, g / safe * gamma, 1.0)
    return np.where(off & (mods < 1e-300), gamma, h)


def alternating_projections_grams(d, n, seeds, iterations=2000):
    """alternating_projections_gram for every seed in seeds at once: a
    (len(seeds), n, n) stack whose k-th Gram is bit for bit the one-start
    result for seeds[k].

    Each pass runs the structural step, one eigh over the whole stack and
    the spectral product on every trial still running.  A trial stops at
    the pass where its Gram moves by less than 1e-14 in every entry; it
    then leaves the stack, so a long run costs only the trials that have
    not settled.
    """
    d, n = int(d), int(n)
    if not 1 <= d < n:
        raise InvalidArgumentError("need 1 <= d < n")
    gamma = welch_gamma(d, n)
    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        starts.append(a.conj().T @ a)
    if not starts:
        return np.empty((0, n, n), dtype=complex)
    out = np.stack(starts)
    g, live, prev = out, np.arange(len(starts)), None
    for _ in range(iterations):
        if not live.size:
            break
        h = _structural(g, gamma)
        _, vecs = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
        top = vecs[..., -d:]
        g = (n / d) * (top @ top.conj().swapaxes(-1, -2))
        if prev is not None:
            done = np.max(np.abs(g - prev), axis=(1, 2)) < 1e-14
            out[live[done]] = g[done]
            g, live = g[~done], live[~done]
        prev = g
    out[live] = g
    return _structural(out, gamma)


def alternating_projections_gram(d, n, seed=0, iterations=2000):
    """Alternate the spectral projection (top d eigenvalues set to n/d,
    the rest to zero) with the structural one (unit diagonal, off-diagonal
    phases kept but moduli forced to the equiangular value), from a random
    start drawn with default_rng(seed).  Stops early once a pass moves the
    Gram by less than 1e-14 in every entry.  Ends on the structural step,
    so the output has exact diagonal and moduli.

    This is the one-start case of alternating_projections_grams, which
    runs many starts as one stack with a stop per trial.
    """
    return alternating_projections_grams(d, n, [seed], iterations)[0]


@dataclass(frozen=True)
class D4Record:
    trial: int
    max_abs_re: float
    rounding_ok: bool


@dataclass(frozen=True)
class D4Report:
    trials: int
    worst_re: float
    all_rounded: bool
    records: tuple


def d4_uniqueness_experiment(trials=1000, iterations=2000, seed=0, csv_path=None):
    """Alternating projections at d=4, n=8 from random starts.

    Every run's signature is switched so the first row and column become
    +1; the residual 7 x 7 core is then measured for real parts (they
    vanish when the limit is the conference-matrix frame) and rounded to
    the exact Gaussian-integer signature, which must pass
    gaussian_signature_defect (so S^2 = 7 I over Z[i]).
    """
    seeds = [[int(seed), trial] for trial in range(int(trials))]
    grams = alternating_projections_grams(4, 8, seeds, iterations=iterations)
    gamma = welch_gamma(4, 8)
    re_r = np.zeros((8, 8), dtype=np.int64)
    re_r[0, 1:] = re_r[1:, 0] = 1
    records = []
    for trial, g in enumerate(grams):
        s = (g - np.eye(8)) / gamma
        np.fill_diagonal(s, 0.0)
        dvec = np.conj(s[0]).copy()
        dvec[0] = 1.0
        switched = np.conj(dvec)[:, None] * s * dvec[None, :]
        core = switched[1:, 1:]
        off7 = ~np.eye(7, dtype=bool)
        max_abs_re = float(np.max(np.abs(core[off7].real)))
        im_r = np.zeros((8, 8), dtype=np.int64)
        im_r[1:, 1:] = np.sign(core.imag)
        np.fill_diagonal(im_r, 0)
        ok = gaussian_signature_defect(re_r, im_r) is None
        records.append(D4Record(trial=trial, max_abs_re=max_abs_re, rounding_ok=ok))
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "max_abs_re", "rounding_ok"])
            for rec in records:
                writer.writerow([rec.trial, "%.17g" % rec.max_abs_re, rec.rounding_ok])
    worst = max((rec.max_abs_re for rec in records), default=0.0)
    all_ok = all(rec.rounding_ok for rec in records)
    return D4Report(
        trials=int(trials), worst_re=worst, all_rounded=all_ok, records=tuple(records)
    )
