"""Frozen closed-form coefficients used as independent cross-checks.

The package builds every multi-pass map by composing the single-pass
primitive; the tests check those compositions against the closed-form
coefficient polynomials below, which were derived by hand once and are
never computed from the package's own composition machinery.  The
straightforward label-scan composition the package once used is kept
here too, as the reference its indexed composition must reproduce.
"""

import numpy as np

from holomem.algebra import LinearInOutMap, ModeLabel, light, spin_p, spin_x

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)
SQRT15 = np.sqrt(15.0)


def single_pass_rows(k: float) -> dict[ModeLabel, dict[ModeLabel, complex]]:
    """Nonzero rows of one pass: light and the two lowest x modes."""
    return {
        light(): {light(): 1.0, spin_p(0): k},
        spin_x(0): {
            spin_x(0): 1.0,
            light(): -1j * k,
            spin_p(0): -1j * k**2 / 2,
            spin_p(1): 1j * k**2 / (2 * SQRT3),
        },
        spin_x(1): {
            spin_x(1): 1.0,
            spin_p(0): -1j * k**2 / (2 * SQRT3),
            spin_p(2): 1j * k**2 / (2 * SQRT15),
        },
    }


def write_stage_rows(k: float) -> dict[ModeLabel, dict[ModeLabel, complex]]:
    """The four displayed rows of one double-pass stage (write or read)."""
    return {
        light(): {
            light(): 1j * (1 - k**2),
            spin_p(0): 1j * k * (1 - k**2 / 2),
            spin_x(0): k,
            spin_p(1): 1j * k**3 / (2 * SQRT3),
        },
        spin_x(0): {
            light(): k * (1 - k**2 / 2),
            spin_p(0): -(1 - k**2 + k**4 / 6),
            spin_x(0): -1j * k**2 / 2,
            spin_x(1): 1j * k**2 / (2 * SQRT3),
            spin_p(1): k**4 / (4 * SQRT3),
            spin_p(2): -(k**4) / (12 * SQRT5),
        },
        spin_p(0): {
            spin_x(0): 1.0,
            light(): -1j * k,
            spin_p(0): -1j * k**2 / 2,
            spin_p(1): 1j * k**2 / (2 * SQRT3),
        },
        spin_p(1): {
            spin_x(1): 1.0,
            spin_p(0): -1j * k**2 / (2 * SQRT3),
            spin_p(2): 1j * k**2 / (2 * SQRT15),
        },
    }


def cycle_retrieved_light_row(k: float) -> dict[ModeLabel, complex]:
    """Retrieved-light row of the full write-read cycle."""
    return {
        light("W"): k**2 * (2 - k**2),
        light("R"): 1j * (1 - k**2),
        spin_p(0): -k * (1 - 1.5 * k**2 + k**4 / 3),
        spin_x(0): 1j * k * (1 - k**2),
        spin_x(1): 1j * k**3 / SQRT3,
        spin_p(1): -(k**3) / (2 * SQRT3) * (1 - k**2),
        spin_p(2): -(k**5) / (6 * SQRT5),
    }


def classical_retrieved_light_row(k: float) -> dict[ModeLabel, complex]:
    """Retrieved-light row of the single-pass (classical hologram) cycle."""
    return {
        light("W"): -1j * k**2,
        light("R"): 1.0,
        spin_x(0): k,
        spin_p(0): -1j * k**3 / 2,
        spin_p(1): 1j * k**3 / (2 * SQRT3),
    }


def noise_coefficients() -> dict[ModeLabel, complex]:
    """Added-noise coefficients of the optimally coupled cycle."""
    return {
        spin_x(1): 1j / SQRT3,
        spin_p(0): 1.0 / 6.0,
        spin_p(2): -1.0 / (6 * SQRT5),
    }


def squeezed_average_fidelity(r: float) -> float:
    """Closed-form per-pixel fidelity with the three noise modes squeezed."""
    return 1.0 / (1.0 + (11.0 / 60.0) * np.exp(-2.0 * r))


def row_as_vector(row: dict[ModeLabel, complex], register) -> np.ndarray:
    """Dense coefficient vector of a sparse row over the given register."""
    vec = np.zeros(len(register), dtype=complex)
    for lab, coeff in row.items():
        vec[register.index(lab)] = coeff
    return vec


def tuple_scan_compose(first: LinearInOutMap, second: LinearInOutMap) -> LinearInOutMap:
    """`first`, then `second`, with every label looked up by scanning the registers.

    Outputs of `first` that `second` does not consume pass through
    unchanged, appended in their order in `first`'s output register.
    """
    produced = first.output_register
    consumed = second.input_register
    missing = [lab for lab in consumed if lab not in produced]
    if missing:
        raise ValueError(f"register mismatch: {missing[0]} not produced by first map")
    cols = [produced.index(lab) for lab in consumed]
    aligned = np.zeros((len(second.output_register), len(produced)), dtype=complex)
    aligned[:, cols] = second.coefficients
    passthrough = [lab for lab in produced if lab not in consumed]
    rows = np.zeros((len(passthrough), len(produced)), dtype=complex)
    for i, lab in enumerate(passthrough):
        rows[i, produced.index(lab)] = 1.0
    full = np.vstack([aligned, rows]) if passthrough else aligned
    out_register = second.output_register + tuple(passthrough)
    return LinearInOutMap(first.input_register, out_register, full @ first.coefficients)
