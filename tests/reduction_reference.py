"""The reduction's elimination loop as first written, kept as a test oracle.

Each step takes ``np.abs`` of the whole pivot window and rescans both full
matrices for the pivot growth.  The library keeps the magnitudes in shared
arrays refreshed only on the rows a step updates; the tests swap this class
in for ``qdoubling.reduction._Reducer`` and compare the two, so the step
schedule of each idea is the library's own.
"""

import numpy as np
from scipy.linalg import solve_triangular

from qdoubling.linalg import Permutation
from qdoubling.reduction import PIVOT_TOL
from qdoubling.sfq import BreakdownError, SfqPencil


class OuterReducer:
    """Complete-pivoting elimination with ``np.outer`` updates and rescans."""

    def __init__(self, a, b, m, n, stage, helper=None):
        self.m, self.n, self.size = m, n, m + n
        self.aw = np.array(a, dtype=np.complex128)
        self.bw = np.array(b, dtype=np.complex128)
        self.col_a = np.arange(self.size)
        self.col_b = np.arange(self.size)
        self.a_done = 0
        self.b_done = 0
        self.tol_a = PIVOT_TOL * max(float(np.abs(self.aw).max()), 1e-300)
        self.tol_b = PIVOT_TOL * max(float(np.abs(self.bw).max()), 1e-300)
        self.scale0 = max(float(np.abs(self.aw).max()), float(np.abs(self.bw).max()))
        self.growth = 1.0
        self.stage = stage

    def _track_growth(self):
        peak = max(float(np.abs(self.aw).max()), float(np.abs(self.bw).max()))
        self.growth = max(self.growth, peak / self.scale0)

    def _swap_rows(self, i, j):
        if i != j:
            self.aw[[i, j], :] = self.aw[[j, i], :]
            self.bw[[i, j], :] = self.bw[[j, i], :]

    def _swap_cols_a(self, i, j):
        if i != j:
            self.aw[:, [i, j]] = self.aw[:, [j, i]]
            self.col_a[[i, j]] = self.col_a[[j, i]]

    def _swap_cols_b(self, i, j):
        if i != j:
            self.bw[:, [i, j]] = self.bw[:, [j, i]]
            self.col_b[[i, j]] = self.col_b[[j, i]]

    @staticmethod
    def _pivot(window, from_end):
        mags = np.abs(window)
        view = mags[::-1, ::-1] if from_end else mags
        r, c = np.unravel_index(int(np.argmax(view)), view.shape)
        if from_end:
            r = view.shape[0] - 1 - r
            c = view.shape[1] - 1 - c
        return int(r), int(c), float(mags[r, c])

    def a_step(self, band_limited):
        t = self.size - 1 - self.a_done
        r0 = max(self.b_done, self.m) if band_limited else self.b_done
        r, c, mag = self._pivot(self.aw[r0:t + 1, :t + 1], from_end=True)
        if mag <= self.tol_a:
            raise BreakdownError(self.stage, f"A-side pivot {mag:.3e} at step {self.a_done + 1}")
        self._swap_rows(r0 + r, t)
        self._swap_cols_a(c, t)
        mult = self.aw[:t, t] / self.aw[t, t]
        self.aw[:t, :] -= np.outer(mult, self.aw[t, :])
        self.bw[:t, :] -= np.outer(mult, self.bw[t, :])
        self.aw[:t, t] = 0.0
        self.a_done += 1
        self._track_growth()

    def b_step(self, band_limited):
        t = self.b_done
        r1 = self.size - 1 - self.a_done
        if band_limited:
            r1 = min(r1, self.m - 1)
        r, c, mag = self._pivot(self.bw[t:r1 + 1, t:], from_end=False)
        if mag <= self.tol_b:
            raise BreakdownError(self.stage, f"B-side pivot {mag:.3e} at step {self.b_done + 1}")
        self._swap_rows(t + r, t)
        self._swap_cols_b(t + c, t)
        mult = self.bw[t + 1:, t] / self.bw[t, t]
        self.bw[t + 1:, :] -= np.outer(mult, self.bw[t, :])
        self.aw[t + 1:, :] -= np.outer(mult, self.aw[t, :])
        self.bw[t + 1:, t] = 0.0
        self.b_done += 1
        self._track_growth()

    def finish(self):
        m = self.m
        lower = self.aw[m:, m:]
        upper = self.bw[:m, :m]
        e0 = solve_triangular(upper, self.aw[:m, :m], check_finite=False)
        y0 = -solve_triangular(upper, self.bw[:m, m:], check_finite=False)
        x0 = -solve_triangular(lower, self.aw[m:, :m], lower=True, check_finite=False)
        f0 = solve_triangular(lower, self.bw[m:, m:], lower=True, check_finite=False)
        pencil = SfqPencil(m=m, n=self.n, E=e0, F=f0, X=x0, Y=y0,
                           Q1=Permutation(self.col_a), Q2=Permutation(self.col_b))
        return pencil, self.growth

