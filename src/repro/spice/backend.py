"""Pluggable linear-solver backends for the MNA engine.

Every analysis in :mod:`repro.spice` reduces to solving linear systems
with the *same sparsity structure*: the Newton system ``J dx = -r``
(DC and transient) and the small-signal sweep ``(G + j omega C) X = B``
(AC). A backend compiles one circuit once, when it is built, and then
assembles and solves those systems:

* Compilation asks every element for its stamp functions
  (:meth:`~repro.spice.elements.Element.compile` and friends), which
  close over flat integer *slots*: ``row * n + col`` in the dense
  backend, the CSC data position in the sparse one, and a dump slot
  for ground. Assembly runs those functions in circuit order over flat
  Python-float workspaces and converts the result to arrays once.
* :class:`DenseBackend` — dense matrices solved by LAPACK ``dgesv``;
  fastest for small netlists (a few dozen unknowns). The AC sweep is
  chunked so a long frequency grid never materializes the full
  ``(n_f, n, n)`` tensor at once.
* :class:`SparseBackend` — the slots the elements request form the
  CSC pattern, frozen at build time. Systems are factorized with
  SuperLU (``scipy.sparse.linalg.splu``); the numeric factorization is
  cached and reused whenever the assembled values are unchanged — which
  makes linear circuits factor once per transient run instead of once
  per Newton iteration.

A backend captures the element parameters of its circuit when it is
built; edit an element and the backends already built for its circuit
keep the old values. Every analysis builds its own backend unless one
is passed in.

``resolve_backend(circuit, "auto")`` switches to the sparse backend at
:data:`SPARSE_AUTO_THRESHOLD` unknowns, the empirical dense/sparse
crossover (see ``benchmarks/test_substrate_sparse.py``).

Backends raise :class:`numpy.linalg.LinAlgError` on singular systems
regardless of the underlying solver, so the analyses translate failures
uniformly.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sparse
from scipy.linalg.lapack import dgesv as _dgesv
from scipy.sparse.linalg import splu as _splu

from .elements import StampContext, _floats

__all__ = [
    "DenseBackend",
    "SparseBackend",
    "resolve_backend",
    "SPARSE_AUTO_THRESHOLD",
]

#: Unknown count at which ``backend="auto"`` switches dense -> sparse.
SPARSE_AUTO_THRESHOLD = 128

#: Peak bytes one dense AC frequency chunk may allocate for its
#: ``(chunk, n, n)`` complex system (the chunk size is derived from it).
AC_CHUNK_BYTES = 32 * 1024 * 1024


class _CompiledBackend:
    """Compile step and workspace stamping shared by both backends.

    A workspace is one flat list: ``n`` residual rows, then the matrix
    slots, then the dump slot (index ``-1``) that ground rows and columns
    write to. Subclasses define ``_slot(row, col)``, which returns ``-1``
    when either index is ground, and set ``_size``, the number of matrix
    slots. Element parameters are captured when the backend is built.
    """

    def __init__(self, circuit):
        circuit._elaborate_if_needed()
        self.circuit = circuit
        self.n = circuit.size
        elements = circuit.elements
        self._stamps = [element.compile(self._slot) for element in elements]
        self._ac_stamps = [element.compile_ac(self._slot) for element in elements]
        self._accepts = [
            accept
            for accept in (element.compile_accept() for element in elements)
            if accept is not None
        ]

    def _slot(self, row: int, col: int) -> int:
        raise NotImplementedError

    def _stamp_newton(self, x: np.ndarray, ctx: StampContext) -> np.ndarray:
        """Run every Newton stamp at ``x``; returns the filled workspace."""
        xs = _floats(x)
        size = self.n + self._size + 1
        work = [0.0] * size
        for stamp in self._stamps:
            stamp(xs, work, work, ctx)
        return np.fromiter(work, float, size)

    def _stamp_ac(self, x_op: np.ndarray, gmin: float):
        """Run every AC stamp at ``x_op``; returns ``(cond, susc, rhs)``.

        ``cond`` and ``susc`` are workspaces whose residual rows stay
        zero; ``rhs`` is the excitation vector.
        """
        xs = _floats(x_op)
        cond = [0.0] * (self.n + self._size + 1)
        susc = [0.0] * (self.n + self._size + 1)
        rhs = [0j] * (self.n + 1)
        for stamp in self._ac_stamps:
            stamp(xs, cond, susc, rhs, gmin)
        return np.array(cond), np.array(susc), np.array(rhs, dtype=complex)[:-1]

    def accept(self, x: np.ndarray, ctx: StampContext) -> None:
        """Commit companion states once a transient step at ``x`` is accepted."""
        if self._accepts:
            xs = _floats(x)
            for accept in self._accepts:
                accept(xs, ctx)


def _solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve via LAPACK ``dgesv``, overwriting ``rhs``.

    The same LAPACK routine ``numpy.linalg.solve`` calls, without its
    per-call wrapping; a singular matrix raises ``LinAlgError`` too.
    """
    _, _, x, info = _dgesv(matrix, rhs, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


class DenseBackend(_CompiledBackend):
    """Dense MNA assembly + LAPACK solves.

    Entry ``(row, col)`` lives at slot ``n + row * n + col``, right after
    the residual rows, so the matrix is a row-major view of the
    workspace.
    """

    name = "dense"

    def __init__(self, circuit):
        super().__init__(circuit)
        self._size = self.n * self.n

    def _slot(self, row: int, col: int) -> int:
        n = self.n
        return n + row * n + col if row >= 0 and col >= 0 else -1

    def _matrix(self, work: np.ndarray) -> np.ndarray:
        return work[self.n : -1].reshape(self.n, self.n)

    # ------------------------------------------------------------------
    def assemble(
        self, x: np.ndarray, ctx: StampContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stamp the Newton system; returns ``(jacobian, residual)``."""
        work = self._stamp_newton(x, ctx)
        return self._matrix(work), work[: self.n]

    def solve_newton(self, x: np.ndarray, ctx: StampContext) -> np.ndarray:
        """Assemble at ``x`` and return the Newton update ``-J^-1 r``."""
        jacobian, residual = self.assemble(x, ctx)
        return _solve_dense(jacobian, -residual)

    # ------------------------------------------------------------------
    def assemble_ac(
        self, x_op: np.ndarray, gmin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stamp the small-signal system; returns dense ``(G, C, B)``."""
        cond, susc, rhs = self._stamp_ac(x_op, gmin)
        return self._matrix(cond), self._matrix(susc), rhs

    def solve_ac_sweep(
        self, omega: np.ndarray, x_op: np.ndarray, gmin: float
    ) -> np.ndarray:
        """Solve ``(G + j w C) X = B`` for every angular frequency.

        Frequencies are batched through LAPACK in chunks sized so the
        ``(chunk, n, n)`` complex tensor stays below
        :data:`AC_CHUNK_BYTES` — a 10k-point sweep of a large circuit no
        longer allocates the full frequency batch at once. Each matrix
        in a batch is factorized independently, so chunking does not
        change the numerics.
        """
        conductance, susceptance, rhs = self.assemble_ac(x_op, gmin)
        n = self.n
        chunk = max(1, int(AC_CHUNK_BYTES // max(1, 16 * n * n)))
        x = np.empty((omega.size, n), dtype=complex)
        for start in range(0, omega.size, chunk):
            w = omega[start : start + chunk]
            system = (
                conductance[None, :, :]
                + 1j * w[:, None, None] * susceptance[None, :, :]
            )
            stacked_rhs = np.broadcast_to(rhs, (w.size, n))[:, :, None]
            x[start : start + chunk] = np.linalg.solve(system, stacked_rhs)[:, :, 0]
        return x


class SparseBackend(_CompiledBackend):
    """CSC assembly + SuperLU solves with a frozen symbolic structure.

    Every matrix entry an element requests at compile time gets a
    workspace slot; those entries, sorted by column, are the CSC
    structure, and assembly permutes the workspace into CSC order. The
    most recent Newton factorization is kept and reused verbatim when
    the assembled values are unchanged, so linear circuits pay for one
    factorization per (dt, method) rather than one per timepoint.
    """

    name = "sparse"

    def __init__(self, circuit):
        self._slot_of: dict[tuple[int, int], int] = {}
        super().__init__(circuit)
        self._size = self.nnz = len(self._slot_of)
        coords = sorted(self._slot_of, key=lambda rc: (rc[1], rc[0]))
        self._order = np.array([self._slot_of[rc] for rc in coords], dtype=np.intp)
        self._indices = np.array([row for row, _ in coords], dtype=np.int32)
        counts = np.zeros(self.n, dtype=np.int32)
        for _, col in coords:
            counts[col] += 1
        self._indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum(counts, out=self._indptr[1:])
        self._lu = None
        self._lu_data: np.ndarray | None = None

    def _slot(self, row: int, col: int) -> int:
        if row < 0 or col < 0:
            return -1
        return self._slot_of.setdefault((row, col), self.n + len(self._slot_of))

    # ------------------------------------------------------------------
    def _matrix(self, data: np.ndarray) -> "_sparse.csc_matrix":
        return _sparse.csc_matrix(
            (data, self._indices, self._indptr), shape=(self.n, self.n)
        )

    @staticmethod
    def _factorize(matrix):
        """SuperLU factorization, singularity mapped to ``LinAlgError``."""
        try:
            return _splu(matrix)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc

    # ------------------------------------------------------------------
    def assemble(
        self, x: np.ndarray, ctx: StampContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stamp the Newton system; returns ``(csc_data, residual)``."""
        work = self._stamp_newton(x, ctx)
        return work[self._order], work[: self.n]

    def solve_newton(self, x: np.ndarray, ctx: StampContext) -> np.ndarray:
        """Assemble at ``x`` and return the Newton update ``-J^-1 r``."""
        data, residual = self.assemble(x, ctx)
        if self._lu is None or not np.array_equal(data, self._lu_data):
            self._lu = self._factorize(self._matrix(data))
            self._lu_data = data
        return self._lu.solve(-residual)

    # ------------------------------------------------------------------
    def assemble_ac(
        self, x_op: np.ndarray, gmin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stamp the small-signal system; returns ``(g_data, c_data, B)``.

        ``g_data``/``c_data`` are value arrays over the *shared* CSC
        structure, so the frequency-dependent system is the cheap axpy
        ``g_data + j w c_data`` — no restamping across the sweep.
        """
        cond, susc, rhs = self._stamp_ac(x_op, gmin)
        return cond[self._order], susc[self._order], rhs

    def solve_ac_sweep(
        self, omega: np.ndarray, x_op: np.ndarray, gmin: float
    ) -> np.ndarray:
        """Solve ``(G + j w C) X = B`` for every angular frequency.

        One sparse factorization per frequency over the fixed structure;
        memory stays O(nnz) regardless of the sweep length.
        """
        g_data, c_data, rhs = self.assemble_ac(x_op, gmin)
        x = np.empty((omega.size, self.n), dtype=complex)
        for k, w in enumerate(omega):
            lu = self._factorize(self._matrix(g_data + (1j * w) * c_data))
            x[k] = lu.solve(rhs)
        return x


def resolve_backend(circuit, backend="auto"):
    """Return the solver backend to use for ``circuit``.

    ``backend`` may be ``"dense"``, ``"sparse"``, ``"auto"`` (sparse at
    :data:`SPARSE_AUTO_THRESHOLD` unknowns and beyond), or an already
    constructed backend instance for ``circuit`` — passing an instance
    amortizes the compile step across repeated solves of the same
    netlist.
    """
    if not isinstance(backend, str):
        if getattr(backend, "circuit", None) is not circuit:
            raise ValueError("backend instance was built for a different circuit")
        return backend
    if backend == "auto":
        backend = "sparse" if circuit.size >= SPARSE_AUTO_THRESHOLD else "dense"
    if backend == "dense":
        return DenseBackend(circuit)
    if backend == "sparse":
        return SparseBackend(circuit)
    raise ValueError(
        f"unknown backend {backend!r}; expected 'dense', 'sparse', 'auto' "
        "or a backend instance"
    )
