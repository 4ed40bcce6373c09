"""The compiled MNA tape against element-by-element stamping.

Each check builds a seeded random circuit that uses every element kind of the
stamp table (R, C, L, DC and waveform V and I sources, VCVS, VCCS, NMOS and
PMOS), puts it in a random state, and compares the tape's assembled systems with a reference
that stamps the same circuit element by element through ``MnaAssembler`` in
netlist order, the way the analyses stamped before the tape.  The comparison
is bitwise: the tape must keep every sum's order, not just its value.
"""

import numpy as np
import pytest

from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    DcWave,
    Inductor,
    Mosfet,
    OperatingPoint,
    PulseWave,
    Resistor,
    SinWave,
    Vccs,
    Vcvs,
    VoltageSource,
    nmos_180,
    pmos_180,
)
from repro.spice.mna import KINDS, DcTape, ac_system
from repro.spice.stamps import MnaAssembler
from repro.spice.transient import _collect_capacitances, _TransientTape

NODES = ["a", "b", "c", "d", "e", "0", "gnd"]


def random_circuit(seed: int) -> Circuit:
    """Every element kind, two or three of each, on random nodes."""
    rng = np.random.default_rng(seed)
    c = Circuit(f"random {seed}")

    def nodes(k):
        return [str(n) for n in rng.choice(NODES, size=k)]

    def wave():
        kind = rng.integers(0, 4)
        if kind == 0:
            return None
        if kind == 1:
            return DcWave(float(rng.uniform(-1, 1)))
        if kind == 2:
            return SinWave(float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 1)),
                           float(rng.uniform(1e6, 1e8)), float(rng.uniform(0, 1e-8)))
        period = float(rng.uniform(1e-8, 1e-6))
        return PulseWave(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                         delay=float(rng.uniform(0, period)), rise=period * 0.1,
                         fall=period * 0.2, width=period * 0.3, period=period)

    builders = [
        lambda i: c.R(f"r{i}", *nodes(2), float(rng.uniform(10, 1e5))),
        lambda i: c.C(f"c{i}", *nodes(2), float(rng.uniform(1e-14, 1e-10))),
        lambda i: c.L(f"l{i}", *nodes(2), float(rng.uniform(1e-9, 1e-5))),
        lambda i: c.V(f"v{i}", *nodes(2), dc=float(rng.uniform(-2, 2)),
                      ac=float(rng.uniform(-1, 1)), waveform=wave()),
        lambda i: c.I(f"i{i}", *nodes(2), dc=float(rng.uniform(-1e-3, 1e-3)),
                      ac=float(rng.uniform(-1, 1)), waveform=wave()),
        lambda i: c.E(f"e{i}", *nodes(4), float(rng.uniform(-10, 10))),
        lambda i: c.G(f"g{i}", *nodes(4), float(rng.uniform(-1e-2, 1e-2))),
        lambda i: c.M(f"mn{i}", *nodes(4), nmos_180(), w=float(rng.uniform(1e-6, 5e-5)),
                      l=float(rng.uniform(1.8e-7, 2e-6))),
        lambda i: c.M(f"mp{i}", *nodes(4), pmos_180(), w=float(rng.uniform(1e-6, 5e-5)),
                      l=float(rng.uniform(1.8e-7, 2e-6))),
    ]
    order = np.repeat(np.arange(len(builders)), rng.integers(2, 4, size=len(builders)))
    for i, kind in enumerate(rng.permutation(order)):
        builders[kind](i)
    return c


# ----------------------------------------------------------- the reference
def _index(circuit):
    node = circuit.node_index()

    def idx(name):
        return -1 if Circuit.is_ground(name) else node[name]

    return idx, circuit.branch_index()


def _volt(x):
    return lambda i: 0.0 if i < 0 else float(x[i])


def reference_dc(circuit, x, gmin, source_scale, *, transient=False):
    """The DC system, stamped element by element in netlist order."""
    idx, branch = _index(circuit)
    volt = _volt(x)
    asm = MnaAssembler(circuit.n_unknowns)
    for e in circuit.elements:
        if isinstance(e, Resistor):
            asm.conductance(idx(e.n_plus), idx(e.n_minus), e.conductance)
        elif isinstance(e, Capacitor):
            continue
        elif isinstance(e, Inductor):
            if not transient:
                asm.branch_impedance(idx(e.n_plus), idx(e.n_minus), branch[e.name], 0.0)
        elif isinstance(e, VoltageSource):
            asm.voltage_source(idx(e.n_plus), idx(e.n_minus), branch[e.name],
                               source_scale * e.dc_value)
        elif isinstance(e, CurrentSource):
            asm.current_source(idx(e.n_plus), idx(e.n_minus), source_scale * e.dc_value)
        elif isinstance(e, Vcvs):
            asm.vcvs(idx(e.n_plus), idx(e.n_minus), idx(e.ctrl_plus), idx(e.ctrl_minus),
                     branch[e.name], e.gain)
        elif isinstance(e, Vccs):
            asm.vccs(idx(e.n_plus), idx(e.n_minus), idx(e.ctrl_plus), idx(e.ctrl_minus), e.gm)
        elif isinstance(e, Mosfet):
            d, g, s, b = (idx(n) for n in e.nodes)
            op = e.evaluate(volt(d), volt(g), volt(s), volt(b))
            asm.vccs(d, s, g, s, op.gm)
            asm.conductance(d, s, op.gds)
            asm.vccs(d, s, b, s, op.gmb)
            asm.current_source(d, s, op.ieq)
    asm.gmin_to_ground(len(circuit.nodes), gmin)
    return asm


def reference_transient(circuit, x, x_old, cap_current, t, dt, method, gmin):
    """The transient system at Newton iterate ``x`` of a step from ``x_old``."""
    idx, branch = _index(circuit)
    asm = reference_dc(circuit, x, gmin, 1.0, transient=True)
    for e in circuit.elements_of(VoltageSource):
        if e.waveform is not None:
            asm.add_z(branch[e.name], e.value_at(t) - e.dc_value)
    for e in circuit.elements_of(CurrentSource):
        if e.waveform is not None:
            asm.current_source(idx(e.n_plus), idx(e.n_minus), e.value_at(t) - e.dc_value)
    scale = 2.0 if method == "trap" else 1.0
    old = _volt(x_old)
    for cap, i_cap in zip(_collect_capacitances(circuit), cap_current):
        p, m = idx(cap.n_plus), idx(cap.n_minus)
        geq = scale * cap.capacitance / dt
        v_old = old(p) - old(m)
        ieq = -(geq * v_old + i_cap) if method == "trap" else -geq * v_old
        asm.conductance(p, m, geq)
        asm.current_source(p, m, ieq)
    for ind in circuit.elements_of(Inductor):
        p, m, br = idx(ind.n_plus), idx(ind.n_minus), branch[ind.name]
        zeq = scale * ind.inductance / dt
        v_old, i_old = old(p) - old(m), float(x_old[br])
        asm.branch_impedance(p, m, br, zeq)
        asm.add_z(br, -v_old - zeq * i_old if method == "trap" else -zeq * i_old)
    return asm


def reference_ac(circuit, op, freq, gmin):
    """The AC system at one frequency."""
    idx, branch = _index(circuit)
    omega = 2.0 * np.pi * freq
    asm = MnaAssembler(circuit.n_unknowns, dtype=complex)
    for e in circuit.elements:
        if isinstance(e, Resistor):
            asm.conductance(idx(e.n_plus), idx(e.n_minus), e.conductance)
        elif isinstance(e, Capacitor):
            asm.conductance(idx(e.n_plus), idx(e.n_minus), 1j * omega * e.capacitance)
        elif isinstance(e, Inductor):
            asm.branch_impedance(idx(e.n_plus), idx(e.n_minus), branch[e.name],
                                 1j * omega * e.inductance)
        elif isinstance(e, VoltageSource):
            asm.voltage_source(idx(e.n_plus), idx(e.n_minus), branch[e.name], e.ac)
        elif isinstance(e, CurrentSource):
            asm.current_source(idx(e.n_plus), idx(e.n_minus), e.ac)
        elif isinstance(e, Vcvs):
            asm.vcvs(idx(e.n_plus), idx(e.n_minus), idx(e.ctrl_plus), idx(e.ctrl_minus),
                     branch[e.name], e.gain)
        elif isinstance(e, Vccs):
            asm.vccs(idx(e.n_plus), idx(e.n_minus), idx(e.ctrl_plus), idx(e.ctrl_minus), e.gm)
        elif isinstance(e, Mosfet):
            device = op.mosfet_ops[e.name]
            d, g, s, b = (idx(n) for n in e.nodes)
            asm.vccs(d, s, g, s, device.gm)
            asm.conductance(d, s, device.gds)
            asm.vccs(d, s, b, s, device.gmb)
            caps = e.capacitances(device)
            for label, (na, nb) in (("cgs", (g, s)), ("cgd", (g, d)), ("cgb", (g, b)),
                                    ("cdb", (d, b)), ("csb", (s, b))):
                asm.conductance(na, nb, 1j * omega * caps[label])
    asm.gmin_to_ground(len(circuit.nodes), gmin)
    return asm


# ---------------------------------------------------------------- the check
def assert_same_bits(actual, expected):
    assert np.array_equal(actual, expected)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


def random_state(rng, circuit):
    return rng.uniform(-2.0, 2.0, circuit.n_unknowns)


def operating_point(circuit, x):
    """An :class:`OperatingPoint` at an arbitrary (unsolved) state ``x``."""
    idx, branch = _index(circuit)
    volt = _volt(x)
    return OperatingPoint(
        {n: float(x[i]) for n, i in circuit.node_index().items()},
        {n: float(x[i]) for n, i in branch.items()},
        {m.name: m.evaluate(*(volt(idx(n)) for n in m.nodes)) for m in circuit.mosfets()},
        0,
    )


def check_seed(seed: int) -> None:
    rng = np.random.default_rng([seed, 1])
    circuit = random_circuit(seed)

    # DC, at two iterates of one Newton solve.
    gmin = float(10 ** rng.uniform(-12, -2))
    scale = float(rng.choice([0.1, 0.5, 1.0]))
    tape = DcTape(circuit).compile()
    tape.bias(gmin=gmin, source_scale=scale)
    for _ in range(2):
        x = random_state(rng, circuit)
        tape.linearize(x)
        A, z = tape.assemble()
        expected = reference_dc(circuit, x, gmin, scale)
        assert_same_bits(A, expected.A)
        assert_same_bits(z, expected.z)

    # Transient, both methods, at a Newton iterate of each step of a halving:
    # dt, dt/2 twice, then dt again, advancing the tape between steps, so the
    # dt-only companions are rewritten on the way down and back up.  The
    # later steps draw from their own generator, so the first step and the AC
    # check below see the same states as before the halving was added.
    steps_rng = np.random.default_rng([seed, 2])
    for method in ("trap", "be"):
        x0 = random_state(rng, circuit)
        tape = _TransientTape(circuit, x0, method, gmin)
        tape.cap_current = rng.uniform(-1e-3, 1e-3, len(tape.cap_current))
        t, dt = float(rng.uniform(0, 1e-6)), float(rng.uniform(1e-11, 1e-8))
        for k, step in enumerate((dt, dt / 2.0, dt / 2.0, dt)):
            if k:
                t += step
            x_old, cap_current = tape.state[:-1].copy(), tape.cap_current.copy()
            tape.prepare(t, step)
            x = random_state(rng if k == 0 else steps_rng, circuit)
            tape.linearize(x)
            A, z = tape.assemble()
            expected = reference_transient(circuit, x, x_old, cap_current, t, step, method, gmin)
            assert_same_bits(A, expected.A)
            assert_same_bits(z, expected.z)
            tape.advance(random_state(steps_rng, circuit))

    # AC, the whole stack at once.
    op = operating_point(circuit, random_state(rng, circuit))
    freqs = np.sort(10 ** rng.uniform(0, 10, 4))
    A, z = ac_system(circuit, op, freqs, gmin)
    for k, freq in enumerate(freqs):
        expected = reference_ac(circuit, op, freq, gmin)
        assert_same_bits(A[k], expected.A)
        assert_same_bits(z[k], expected.z)


@pytest.mark.parametrize("seed", range(5))
def test_tape_matches_element_stamping(seed):
    check_seed(seed)


@pytest.mark.property
def test_tape_matches_element_stamping_sweep():
    for seed in range(5, 205):
        check_seed(seed)


def test_random_circuits_use_every_kind():
    kinds = {type(e) for seed in range(5) for e in random_circuit(seed).elements}
    assert kinds == set(KINDS)
    polarities = {m.params.polarity for m in random_circuit(0).mosfets()}
    assert polarities == {1, -1}
