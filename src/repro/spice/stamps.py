"""Modified-nodal-analysis stamping helpers.

:class:`MnaAssembler` wraps the system matrix ``A`` and right-hand side ``z``
and exposes the classic stamps.  Node index ``-1`` denotes ground; stamps
touching ground silently drop the corresponding rows/columns, which keeps the
per-element stamping code free of special cases.

The same assembler serves DC and transient (real dtype) and AC (complex);
:class:`repro.spice.mna.Tape` overrides ``add_A``/``add_z`` to record the same
stamps once per analysis.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MnaAssembler"]


class MnaAssembler:
    """Dense MNA system ``A x = z`` under construction.

    Parameters
    ----------
    n_unknowns:
        Node-voltage count plus branch-current count.
    dtype:
        ``float`` for DC/transient, ``complex`` for AC.
    """

    def __init__(self, n_unknowns: int, dtype=float):
        self.n = int(n_unknowns)
        self.A = np.zeros((self.n, self.n), dtype=dtype)
        self.z = np.zeros(self.n, dtype=dtype)

    # -------------------------------------------------------------- primitives
    def add_A(self, i: int, j: int, value) -> None:
        """Add ``value`` at A[i, j], ignoring ground (-1) indices."""
        if i >= 0 and j >= 0:
            self.A[i, j] += value

    def add_z(self, i: int, value) -> None:
        """Add ``value`` at z[i], ignoring ground."""
        if i >= 0:
            self.z[i] += value

    # ------------------------------------------------------------------ stamps
    def conductance(self, n1: int, n2: int, g) -> None:
        """Two-terminal conductance ``g`` between nodes n1 and n2."""
        self.add_A(n1, n1, g)
        self.add_A(n2, n2, g)
        self.add_A(n1, n2, -g)
        self.add_A(n2, n1, -g)

    def current_source(self, n_plus: int, n_minus: int, value) -> None:
        """Independent current ``value`` flowing n_plus -> n_minus internally.

        KCL convention: the source removes ``value`` from n_plus and injects
        it into n_minus.
        """
        self.add_z(n_plus, -value)
        self.add_z(n_minus, +value)

    def vccs(self, n_plus: int, n_minus: int, c_plus: int, c_minus: int, gm) -> None:
        """Current ``gm * (v_cplus - v_cminus)`` flowing n_plus -> n_minus."""
        self.add_A(n_plus, c_plus, gm)
        self.add_A(n_plus, c_minus, -gm)
        self.add_A(n_minus, c_plus, -gm)
        self.add_A(n_minus, c_minus, gm)

    def voltage_source(self, n_plus: int, n_minus: int, branch: int, value) -> None:
        """Independent voltage source with branch-current variable ``branch``."""
        self.add_A(n_plus, branch, 1.0)
        self.add_A(n_minus, branch, -1.0)
        self.add_A(branch, n_plus, 1.0)
        self.add_A(branch, n_minus, -1.0)
        self.add_z(branch, value)

    def vcvs(
        self, n_plus: int, n_minus: int, c_plus: int, c_minus: int, branch: int, gain
    ) -> None:
        """Voltage source ``gain * (v_cplus - v_cminus)`` with branch var."""
        self.add_A(n_plus, branch, 1.0)
        self.add_A(n_minus, branch, -1.0)
        self.add_A(branch, n_plus, 1.0)
        self.add_A(branch, n_minus, -1.0)
        self.add_A(branch, c_plus, -gain)
        self.add_A(branch, c_minus, gain)

    def branch_impedance(self, n_plus: int, n_minus: int, branch: int, zval) -> None:
        """Group-2 branch with equation ``v(n+) - v(n-) - z * i = 0``.

        ``zval = 0`` gives an ideal short (DC inductor); ``zval = jwL`` gives
        the AC inductor.
        """
        self.add_A(n_plus, branch, 1.0)
        self.add_A(n_minus, branch, -1.0)
        self.add_A(branch, n_plus, 1.0)
        self.add_A(branch, n_minus, -1.0)
        self.add_A(branch, branch, -zval)

    def gmin_to_ground(self, node_count: int, gmin: float) -> None:
        """Add ``gmin`` from every node to ground (convergence aid)."""
        for i in range(node_count):
            self.add_A(i, i, gmin)
