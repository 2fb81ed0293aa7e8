"""Sparse preamble detection (OMP, its least squares on an inverse Cholesky
factor), energy detection, LS channel estimation, and `subtract`, a copying
windowed subtraction that no receiver calls: they cancel in place.
"""
from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import energy
from .sequences import Dictionary

# A selected column whose squared distance from the span of the columns
# already selected is at most this fraction of its energy is taken as
# linearly dependent on them: OMP stops instead of selecting it.
LS_PIVOT_TOL = 1e-12

# A pass over the dictionary that fetches the Gram row a waiting signal
# needs also fetches the rows of that signal's FETCH_AHEAD largest
# correlations without one, its likeliest next picks.  A row costs far
# less inside a wide pass than a pass does (on a 2-vCPU Xeon with
# OpenBLAS 0.3 on one thread and the pass split over both CPUs, a
# (64, 1778) x (1778, 8192) complex64 product takes 0.78-0.93 ms per row,
# a one-row product 6.6-7.3 ms), so fetching ahead saves passes.  It
# changes how many passes a call makes, never its results.  Rows fetched
# ahead go into the Gram store as every fetched row does, and a receive's
# later SIC rounds find most of their picks' rows there.  Over 12 seeds of
# a sbidma_tuned estimate at Ka 30 and 10 dB, 14 took 3.1 passes (beta0's
# included) and 154 rows with 5 signals, 3.2 and 489 with 16; 8 took 5.5
# and 156, 5.9 and 477; 16 took 3.0 and 174, 3.0 and 550.
FETCH_AHEAD = 14

# A dictionary whose whole Gram matrix, in the correlation dtype, takes at
# most this many bytes keeps its Gram store (`gram_store`) for its
# lifetime, so later receives fetch only the rows no receive has fetched
# before.  twostep_rayleigh_1024's takes 8 MiB; sbidma_tuned's would take
# 512 MiB, so each of its receives fills a fresh store.
GRAM_BYTES = 1 << 24

# A pass over a dictionary of at least this many bytes is split into one
# contiguous column block per CPU, the blocks multiplied concurrently in
# threads (numpy releases the GIL in matmul), since umacsim runs BLAS on
# one thread.  Below it a pass is made whole: splitting a dictionary that
# small (twostep_rayleigh_1024's is 2.3 MB) costs more than it saves.
SPLIT_BYTES = 1 << 24


class DetectionError(ValueError):
    pass


@dataclass
class DetectionResult:
    indices: list[int]                 # in selection order, no repeats
    coefficients: np.ndarray           # LS amplitude per selected index
    residual_energy: float


@dataclass
class SicHistory:
    """One signal's cancellations across `omp_detect_many` calls on one
    dictionary: beta0 = conj(y_1)^T A and |y_1| of its first frame y_1, set
    by the call that makes its beta0 pass, and the atoms cancelled from it
    since, each with its coefficient c (an atom cancelled twice is listed
    twice).  Ideal SIC makes the frame y_1 - sum_u c_u a_u, rounded in
    complex128, so a later call takes its beta0 from the cancelled atoms'
    Gram rows, beta0 - sum_u conj(c_u) g_u, and makes no pass for it."""

    beta0: np.ndarray | None = None
    y_norm: float = 0.0
    atoms: list[int] = field(default_factory=list)
    coefs: list[complex] = field(default_factory=list)

    def cancel(self, atom: int, coef: complex) -> None:
        """Record that `coef` times column `atom` left the signal."""
        self.atoms.append(atom)
        self.coefs.append(coef)


def gram_store(dictionary) -> tuple[np.ndarray, np.ndarray, threading.Lock]:
    """The Gram store a receive passes to each of its `omp_detect_many`
    calls: (rows, slot, lock), with atom j's row conj(a_j)^T A at
    rows[slot[j]] once slot[j] >= 0, and the lock a call holds while it
    reads or fills the store, so calls in several threads take turns.
    `rows` is uninitialised, (size, size) in the correlation dtype
    (complex64 or complex128, chosen here alone), and filled from row 0 in
    fetch order: under Linux's heuristic overcommit only the rows written
    are resident, where rows at their atom index would each commit a huge
    page, which numpy advises for large arrays.  If `rows` fits in
    `GRAM_BYTES`, the store is the dictionary's own, kept in its instance
    dict for its lifetime; else it is a fresh one."""
    d = _dictionary(dictionary)
    size = d.columns.shape[1]
    work = np.result_type(d.columns.dtype, np.complex64)

    def fresh():
        return np.empty((size, size), work), np.full(size, -1), threading.Lock()

    if size * size * work.itemsize > GRAM_BYTES:
        return fresh()
    # setdefault is atomic, so threads racing on a new dictionary keep one store.
    return vars(d).get("gram") or vars(d).setdefault("gram", fresh())


def _dictionary(dictionary) -> Dictionary:
    if isinstance(dictionary, Dictionary):
        return dictionary
    # A view, so the read-only flag Dictionary sets leaves the caller's array alone.
    return Dictionary(columns=np.asarray(dictionary).view())


def omp_detect(
    y: np.ndarray,
    dictionary,
    max_iters: int,
    residual_threshold: float = 0.0,
) -> DetectionResult:
    """Orthogonal matching pursuit on `y` against the dictionary columns.

    Greedy loop: pick the unselected column with the largest |<a_j, r>|,
    re-solve least squares on the selected set, update the residual.  Stops
    at `max_iters` selections, when the residual energy drops to
    `residual_threshold * energy(y)`, or when the picked column is linearly
    dependent on the selected ones (see `LS_PIVOT_TOL`; it is not selected).

    The least squares is OMP-Cholesky: the inverse of the Cholesky factor of
    the selected columns' Gram matrix grows by one row per selection, so each
    iteration costs O((length + size) * k) for the k selected columns, plus
    its share of the few passes over the dictionary `omp_detect_many` makes.
    `coefficients` are in the units of the dictionary passed in;
    the selected indices do not change when every column is scaled exactly
    by the same positive constant.  This is `omp_detect_many` on one signal.
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise DetectionError("signal must be 1-D")
    return omp_detect_many(y[:, None], dictionary, max_iters, residual_threshold)[0]


def omp_detect_many(
    ys: np.ndarray,
    dictionary,
    max_iters,
    residual_threshold=0.0,
    store: tuple[np.ndarray, np.ndarray, threading.Lock] | None = None,
    histories: list[SicHistory] | None = None,
) -> list[DetectionResult]:
    """`omp_detect` on every column of `ys` (shape (length, B)), in lockstep.

    `max_iters` and `residual_threshold` are scalars or one value per column.
    Each column keeps its own selections, inverse Cholesky factor and
    stopping rule; only the passes over the dictionary are shared.

    Correlations are updated from Gram rows, not recomputed from the
    residual (Batch-OMP, Rubinstein, Zibulevsky & Elad 2008).  One pass
    computes beta0 = conj(Y)^T A for every signal.  With S a signal's
    selected atoms and coef their least-squares coefficients, its residual
    is r = y - A_S coef, so conj(r)^T A = beta0 - conj(coef) G_S, where G_S
    stacks the Gram rows g_s = conj(a_s)^T A.  After a pick, a signal waits
    until the Gram row of the atom it picked is known.  When every running
    signal waits, one pass computes the missing rows and, for each waiting
    signal, the rows of its `FETCH_AHEAD` largest correlations that have
    none yet, its likeliest next picks.  A pass costs little more per row
    when it is wide, so a call makes a few wide passes instead of one
    narrow pass per iteration.  The rows go into `store`, one `gram_store`
    gave for the dictionary (by default, one it gives now), in the order
    they are fetched, and a signal reads its G_S from it.  A call holds the
    store's lock until it returns.  Over a dictionary of at least
    `SPLIT_BYTES` (`sbidma_tuned`'s, not `twostep_rayleigh_1024`'s), both
    kinds of pass are split into one column block per CPU, the blocks
    multiplied concurrently (`_pass`), because umacsim runs BLAS on one
    thread.

    `histories`, one `SicHistory` per signal (a fresh one each by default),
    carries ideal SIC across calls.  A signal whose history has no beta0
    yet joins the beta0 pass, and the history keeps its beta0 and norm.  A
    signal whose history has one is that first frame with the history's
    atoms cancelled, and makes no pass: its beta0 is the history's less
    sum_u conj(c_u) g_u, from the store's rows of the cancelled atoms.
    Those rows are mostly there from the pick that detected the atom; a
    missing one (the last pick of a signal that stopped right after it) is
    fetched in the call's first pass, for which the signal waits.

    The correlations run in the dictionary's own precision: complex64 for
    the preamble dictionaries, whose contiguous columns make the passes
    fast.  Only the pick reads them, and the pick is exact: every column
    whose correlation lies within a rigorous rounding bound of the largest
    (`_rounding_bound`, which covers the cancelled atoms' terms and the
    cancelled frame's rounding) is re-scored in complex128 against the
    stored residual, and the largest re-scored value wins, ties to the
    lowest index as `np.argmax` breaks them.  So the selections are those
    of a complex128 correlation of the same column values, whatever the
    dictionary's dtype, the batch, the rows fetched ahead or where beta0
    came from (mixed precision in the sense of Higham & Mary, Acta
    Numerica 2022).  Least squares and residuals are complex128
    throughout, from the signal as passed.

    A call in which no signal runs (each has a zero `max_iters`, or a
    threshold its own energy meets) makes no pass and takes no lock.

    Raises DetectionError for a signal or dictionary with a non-finite
    entry, a non-finite threshold, a list of `max_iters`, thresholds or
    histories whose length is not the number of signals, a signal whose
    energy overflows float64, or one whose correlations could overflow the
    dictionary's precision (`_rounding_bound`), before any value overflows.
    """
    d = _dictionary(dictionary)
    a = d.columns
    if a.ndim != 2:
        raise DetectionError("dictionary must be a 2-D column matrix")
    ys = np.asarray(ys)
    if ys.ndim != 2:
        raise DetectionError("signals must be a 2-D array with one signal per column")
    if ys.shape[0] != a.shape[0]:
        raise DetectionError(f"signal length {ys.shape[0]} != column length {a.shape[0]}")
    n, count = ys.shape
    if not np.isfinite(ys).all():
        raise DetectionError("signals must be finite")
    if not np.isfinite(d.max_column_norm):
        raise DetectionError("dictionary must be finite")
    iters = _per_signal("max_iters", max_iters, count)
    thresholds = _per_signal("residual_threshold", residual_threshold, count)
    if not np.isfinite(thresholds).all():
        raise DetectionError(f"residual_threshold must be finite, got {residual_threshold}")
    if histories is None:
        histories = [SicHistory() for _ in range(count)]
    elif len(histories) != count:
        raise DetectionError(f"histories needs {count} entries, got {len(histories)}")
    states = [
        _CholeskyOmp(ys[:, b], a, int(iters[b]), float(thresholds[b]), histories[b])
        for b in range(count)
    ]
    running = [s for s in states if s.running]
    if not running:
        return [s.result() for s in states]
    gram, slot, lock = gram_store(d) if store is None else store
    work = gram.dtype                                # complex64 or complex128
    bound = _rounding_bound(n, work, d.max_column_norm)
    for state in running:
        state.delta(bound)                           # an overflow raises before any pass
    fresh = [s for s in running if s.history.beta0 is None]
    if fresh:
        conj_ys = np.empty((len(fresh), n), dtype=work)
        for row, state in zip(conj_ys, fresh):
            np.conjugate(state.y, out=row)
        # |conj(r)^T a_j| == |a_j^H r| without a conjugated dictionary copy.
        betas = _pass(conj_ys, a, np.empty((len(fresh), a.shape[1]), work))
        for state, beta0 in zip(fresh, betas):
            state.start(beta0)
    with lock:
        while running:
            waiting = []
            for state in running:
                while state.running:
                    if state.needs(slot):
                        waiting.append(state)
                        break
                    state.step(state.correlations(gram, slot), state.delta(bound))
            if waiting:
                # One pass for the rows every waiting signal wants, without
                # repeats, written into the store's next free rows.
                want = list(dict.fromkeys(j for s in waiting for j in s.wanted(slot)))
                first = int(slot.max()) + 1
                _pass(a[:, want].conj().T, a, gram[first : first + len(want)])
                slot[want] = np.arange(first, first + len(want))
            running = waiting
    return [s.result() for s in states]


def _per_signal(name: str, value, count: int) -> np.ndarray:
    """`value`, a scalar or one value per signal, as `count` values."""
    values = np.asarray(value)
    if values.ndim > 1 or (values.ndim == 1 and len(values) != count):
        raise DetectionError(f"{name} needs one value or {count}, got shape {values.shape}")
    return np.broadcast_to(values, (count,))


def _pass(rows: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows @ a written into `out`, over a dictionary of at least `SPLIT_BYTES` split into
    one contiguous column block of `a` per CPU this process may run on.  The
    blocks are multiplied at once, the first in the calling thread and each
    other one in a thread of its own, straight into their columns of `out`,
    a row-major array (BLAS writes them with its row stride), so no block is
    copied.  The pool lives for the call, so no thread outlives it into a
    forked worker.  A split pass need not round as a whole one does; its
    results only feed `_CholeskyOmp._pick`, which is exact for any
    summation order."""
    workers = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    )
    if a.nbytes < SPLIT_BYTES or workers < 2:
        return np.matmul(rows, a, out=out)
    size = a.shape[1]
    edges = [size * i // workers for i in range(workers + 1)]
    blocks = [slice(c0, c1) for c0, c1 in zip(edges, edges[1:])]
    # One thread, and one BLAS work buffer, fewer than a block per thread.
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(np.matmul, rows, a[:, b], out=out[:, b]) for b in blocks[1:]]
        np.matmul(rows, a[:, blocks[0]], out=out[:, blocks[0]])
        for done in rest:
            done.result()
    return out


def _rounding_bound(n: int, dtype, max_norm: float) -> Callable[[int, float, float], float]:
    """The function (k, y_norm, coef_sum) -> delta that `omp_detect_many`
    calls before its beta0 pass and before each correlation update.  It
    raises DetectionError if a value computed in `dtype` could overflow,
    so an overflow is rejected before numpy meets it.  Else it returns
    delta with |c_j - s_j| <= delta for every column j, where c_j = |beta_j|
    is a correlation computed in `dtype`, beta = beta0 - conj(coef) G_S
    with k atoms selected, and s_j its complex128 re-score against the
    stored residual in `_CholeskyOmp._pick`.

    A signal is its `SicHistory`'s first frame y_1 with m atoms C
    cancelled (m may be 0), y_1 - sum_u c_u a_u as ideal SIC computes it,
    and its beta0 is beta0_1 - conj(c) G_C, so its beta is a combination
    of k + m Gram rows.  `omp_detect_many` passes k + m for k, |y_1| for
    y_norm and coef_sum + sum_u |c_u| for coef_sum (before any beta0 is
    taken, sum_u |c_u| alone).  Below, y is y_1, k counts the selected and
    the cancelled atoms, and the c_u count among the coefficients.

    n is the column length, M = `max_norm` bounds every column norm, and
    with y_norm = |y| and coef_sum = sum_s |coef_s|, W = |y| + M coef_sum
    gives, by Cauchy-Schwarz, |y|^T |a_j| + sum_s |coef_s| |a_s|^T |a_j|
    <= M W.  Both rules rest on this bound.

    Overflow: with M1 = max(1, M), every value computed in `dtype` is at
    most M1 (M1 + y_norm + M1 coef_sum) in magnitude: an entry of y at most
    y_norm, a coefficient c_u or coef_s at most coef_sum, a Gram entry at
    most M^2, and every partial sum of beta0_j = conj(y_1)^T a_j, of
    beta0_j - sum_u conj(c_u) g_uj and of that less conj(coef) G_S at most
    M W.  The function raises above a quarter of `dtype`'s largest value,
    which leaves room for their rounding (below 3x for n below 10^7, as
    below).

    Rounding: with unit roundoff u of `dtype`, v = 2^-53 and
    gamma_m(u) = m u / (1 - m u):

    - rounding y to `dtype` adds u, and the n-term complex dot product
      behind beta0_j, in any summation order, gamma_(n+2): together
      gamma_(n+3) |y|^T |a_j|;
    - a Gram entry g_sj, the same product of two stored columns, is within
      gamma_(n+2) |a_s|^T |a_j|; rounding coef_s to `dtype` adds u, so the
      term conj(coef_s) g_sj is within gamma_(n+3) |coef_s| |a_s|^T |a_j|,
      and so is conj(c_u) g_uj, c_u computed in complex128;
    - the (k+1)-term combination beta0_j - sum_s conj(coef_s) g_sj, in any
      grouping (for a cancelled signal, the c_u terms into beta0 first),
      adds gamma_(k+3) of the terms' magnitudes, and `abs` 2u of its
      result, so c_j is within gamma_(n+k+8)(u) M W of
      |a_j^H (y - sum_s coef_s a_s)|;
    - ideal SIC subtracts from y, in place in complex128, gain times the
      column times the amplitude, with c_u = gain amplitude: each term is
      within gamma_5(v) |c_u| |a_u| of -c_u a_u elementwise (v for the
      real product, sqrt(2) gamma_2(v) for the complex one, v for
      rounding c_u) and m additions add gamma_m(v) of the partial sums, so
      the cancelled frame x is within gamma_(m+5)(v) (|y| + sum_u |c_u|
      |a_u|) of y - sum_u c_u a_u; with nothing cancelled x is y;
    - the stored residual r, x - A_S coef over the k - m selected atoms
      computed in complex128, is within gamma_(k-m+3)(v) (|x| + sum_s
      |coef_s| |a_s|) of it elementwise, so within gamma_(k+8)(v)
      (|y| + sum_s |coef_s| |a_s|) of y - sum_s coef_s a_s over all k
      atoms, which moves |a_j^H r| by at most gamma_(k+8)(v) M W, and the
      re-score, an n-term dot product and `abs` in complex128, is within
      gamma_(n+4)(v) M |r| with |r| <= (1 + gamma_(k+8)(v)) W: together
      gamma_(n+k+12)(v) M W.

    Four more units in each term cover computing M, |y|, coef_sum and the
    bound itself in double precision (for n below 10^7), hence
    gamma_(n+k+16).  The floor covers underflow: fewer than
    8 (n + k + 16)^2 products can underflow, each by at most `dtype`'s
    smallest subnormal, and none is scaled by more than
    (1 + M)^2 (1 + coef_sum) on its way into c_j or s_j.  SIC's column
    times amplitude can underflow by 2^-1075 and is then scaled by the
    gain, |c_u| / amplitude: the floor covers that for a complex64
    dictionary and any gain below 10^270, and otherwise for a gain of at
    most 1 + coef_sum.
    """
    finfo = np.finfo(dtype)
    u = float(finfo.eps) / 2.0
    tiny = float(finfo.smallest_subnormal)
    ceiling = float(finfo.max) / 4.0
    m1 = max(1.0, max_norm)

    def gamma(m: int, unit: float) -> float:
        return m * unit / (1.0 - m * unit)

    def bound(k: int, y_norm: float, coef_sum: float) -> float:
        if m1 * (m1 + y_norm + m1 * coef_sum) > ceiling:
            raise DetectionError(f"correlations overflow the dictionary's {np.dtype(dtype)}")
        m = n + k + 16
        spread = (gamma(m, u) + gamma(m, 2.0**-53)) * max_norm
        floor = 8.0 * m * m * (1.0 + max_norm) ** 2 * (1.0 + coef_sum) * tiny
        return spread * (y_norm + max_norm * coef_sum) + floor

    return bound


class _CholeskyOmp:
    """One signal's OMP-Cholesky state inside `omp_detect_many`: R = L^-1
    for the lower Cholesky factor L of A_s^H A_s, and z = R A_s^H y, so the
    least-squares coefficients are R^H z.  A selection appends a row to R and
    an entry to z, with no triangular solve.  R's rounding error grows with
    the condition number of A_s, which `LS_PIVOT_TOL` bounds."""

    def __init__(
        self,
        y: np.ndarray,
        a: np.ndarray,
        max_iters: int,
        residual_threshold: float,
        history: SicHistory,
    ):
        self.a = a
        self.y = np.array(y, dtype=complex)        # contiguous copy of the column
        e_y = energy(self.y)
        if not np.isfinite(e_y):
            raise DetectionError("signal energy overflows float64")
        self.stop_energy = residual_threshold * e_y
        self.max_iters = max(0, min(max_iters, a.shape[1]))
        self.selected: list[int] = []
        # R = L^-1 for L L^H = A_s^H A_s, and z = R A_s^H y.
        self.inv_chol = np.zeros((self.max_iters, self.max_iters), dtype=complex)
        self.z = np.empty(self.max_iters, dtype=complex)
        self.coef = np.zeros(0, dtype=complex)
        self.residual = self.y
        self.res_energy = e_y
        self.running = self.max_iters > 0 and e_y > self.stop_energy
        self.beta0: np.ndarray | None = None        # conj(y)^T A, set by omp_detect_many
        self.corr: np.ndarray | None = None         # the latest correlations, for `wanted`
        # y is the history's first frame y_1 less its cancelled atoms, whose
        # Gram rows give y's beta0 (`correlations`) once the history has y_1's.
        # Until then y starts the history afresh and joins the beta0 pass.
        self.history = history
        if history.beta0 is None:
            history.y_norm, history.atoms, history.coefs = np.sqrt(e_y), [], []
        self.cancelled_sum = float(np.abs(np.asarray(history.coefs, dtype=complex)).sum())

    def delta(self, bound: Callable[[int, float, float], float]) -> float:
        """`bound` (`_rounding_bound`) for this signal's next step, with its
        selected and cancelled atoms: it raises if a value could overflow."""
        coef_sum = self.cancelled_sum + float(np.abs(self.coef).sum())
        return bound(len(self.selected) + len(self.history.atoms), self.history.y_norm, coef_sum)

    def start(self, beta0: np.ndarray) -> None:
        """Take beta0 from the call's beta0 pass; the history keeps it."""
        self.beta0 = self.history.beta0 = beta0

    def needs(self, slot: np.ndarray) -> list[int]:
        """The atoms without a Gram row in the store (`slot` < 0) that this
        signal needs before its next step: its cancelled atoms while its
        beta0 is unknown, then its latest pick."""
        if self.beta0 is None:
            return [j for j in self.history.atoms if slot[j] < 0]
        if self.selected and slot[self.selected[-1]] < 0:
            return [self.selected[-1]]
        return []

    def correlations(self, gram: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """|conj(r)^T A| = |beta0 - conj(coef) G_S| in the dictionary's
        precision, with G_S = gram[slot[selected]] read from the Gram store.
        Called before each step; the first call of a signal with no beta0
        takes it as the history's beta0 - conj(c) G_C over its cancelled
        atoms C, whose rows `needs` saw in the store."""
        if self.beta0 is None:
            h = self.history
            coefs = np.asarray(h.coefs, dtype=complex).conj().astype(h.beta0.dtype)
            self.beta0 = h.beta0 - coefs @ gram[slot[h.atoms]]
        beta = self.beta0
        if self.selected:
            beta = beta - self.coef.conj().astype(beta.dtype) @ gram[slot[self.selected]]
        self.corr = np.abs(beta)
        return self.corr

    def wanted(self, slot: np.ndarray) -> list[int]:
        """The atoms `needs`, then, once beta0 is known, the atoms of the
        `FETCH_AHEAD` largest latest correlations that are neither selected
        nor in the store (`slot` >= 0)."""
        need = self.needs(slot)
        if self.beta0 is None:
            return need
        corr = self.corr
        corr[self.selected] = -np.inf
        corr[slot >= 0] = -np.inf
        width = min(FETCH_AHEAD, len(corr))
        ahead = np.argpartition(corr, len(corr) - width)[len(corr) - width :]
        return [*need, *ahead[corr[ahead] > -np.inf].tolist()]

    def _pick(self, corr: np.ndarray, bound: float) -> int:
        """The unselected column with the largest complex128 correlation,
        from this signal's correlations in the dictionary's precision
        (overwritten), each within `bound` of its complex128 value."""
        corr[self.selected] = -np.inf
        top = float(corr.max())
        # Any column below this cannot have the largest complex128 value.
        # np.float64 keeps the comparison in double precision.
        band = np.flatnonzero(corr >= np.float64(top - 2.0 * bound))
        if len(band) == 1:
            return int(band[0])
        # Re-scored the same way whatever the dictionary's dtype.
        scores = [abs(np.vdot(self.a[:, j].astype(complex), self.residual)) for j in band]
        return int(band[int(np.argmax(scores))])

    def step(self, corr: np.ndarray, bound: float) -> None:
        """One selection from this signal's correlations |a_j^H r|."""
        k = len(self.selected)
        j = self._pick(corr, bound)
        # The selected columns and a_j as rows, gathered afresh each step:
        # holding them for every signal of a batch would cost more memory
        # than the gather costs time.
        rows = self.a.T[self.selected + [j]].astype(complex, copy=False)
        col = rows[k]
        col_energy = energy(col)
        # L gains the row [w^H, d] with w = R A_s^H a_j, d^2 = |a_j|^2 - |w|^2,
        # so R = L^-1 gains the row [-(w^H R) / d, 1 / d].
        r = self.inv_chol
        w = r[:k, :k] @ (rows[:k] @ col.conj()).conj()
        pivot = col_energy - energy(w)
        if pivot <= LS_PIVOT_TOL * col_energy:
            self.running = False
            return
        d = np.sqrt(pivot)
        r[k, :k] = -(w.conj() @ r[:k, :k]) / d
        r[k, k] = 1.0 / d
        self.z[k] = (np.vdot(col, self.y) - np.vdot(w, self.z[:k])) / d
        self.selected.append(j)
        self.coef = (self.z[: k + 1].conj() @ r[: k + 1, : k + 1]).conj()
        self.residual = self.y - rows.T @ self.coef
        # LS projection cannot increase the residual; clamp float jitter.
        self.res_energy = min(self.res_energy, energy(self.residual))
        self.running = k + 1 < self.max_iters and self.res_energy > self.stop_energy

    def result(self) -> DetectionResult:
        return DetectionResult(self.selected, self.coef, self.res_energy)


def energy_detect(y_segment: np.ndarray, threshold: float) -> bool:
    """True iff the per-sample energy exceeds `threshold` (the noise power)."""
    if len(y_segment) == 0:
        raise DetectionError("cannot energy-detect an empty segment")
    return energy(y_segment) / len(y_segment) > threshold


def ls_channel_estimate(y_segment: np.ndarray, pilot: np.ndarray) -> complex:
    """Scalar least-squares gain estimate h_hat = <p, y> / ||p||^2."""
    if len(y_segment) != len(pilot):
        raise DetectionError(
            f"segment length {len(y_segment)} != pilot length {len(pilot)}"
        )
    e_p = energy(pilot)
    if e_p == 0.0:
        raise DetectionError("pilot has zero energy")
    return complex(np.vdot(pilot, y_segment) / e_p)


def subtract(y: np.ndarray, contribution: np.ndarray, offset: int = 0) -> np.ndarray:
    """Return y with `contribution` subtracted on [offset, offset + len)."""
    if offset < 0 or offset + len(contribution) > len(y):
        raise DetectionError(
            f"contribution of length {len(contribution)} at offset {offset} "
            f"does not fit in signal of length {len(y)}"
        )
    out = y.copy()
    out[offset : offset + len(contribution)] -= contribution
    return out
