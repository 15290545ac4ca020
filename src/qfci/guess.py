"""Initial-state construction: HF determinant, open-shell CSFs,
truncated amplitude files, random sector states."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    ElectronCountExceedsOrbitals,
    EmptyAfterThreshold,
    MalformedLine,
    OverlapWithCore,
)
from .hamiltonian import enumerate_sector, sector_of
from .statevector import StateVector, new_register

_SQRT_HALF = 1.0 / np.sqrt(2.0)


@dataclass
class GuessState:
    """Sparse register state: (determinant bitmask, amplitude) entries.

    Entries are normalized, exact zeros dropped; sectors is the set of
    (n_alpha, n_beta) sectors they populate (amplitude files may mix
    sectors).
    """

    n_qubits: int
    entries: tuple[tuple[int, complex], ...]
    label: str = ""

    def __post_init__(self):
        self.entries = tuple((m, a) for m, a in self.entries if a != 0)
        norm2 = sum(abs(a) ** 2 for _, a in self.entries)
        if not abs(norm2 - 1.0) <= 1e-12:  # a NaN norm fails too
            raise ValueError(f"guess {self.label!r} has norm^2 {norm2}")
        self.sectors = {sector_of(m, self.n_qubits // 2) for m, _ in self.entries}

    def to_statevector(self) -> StateVector:
        sv = new_register(self.n_qubits)
        sv.amplitudes[0] = 0.0
        for mask, amp in self.entries:
            sv.amplitudes[mask] = amp
        return sv


def hf_determinant(n_orb: int, n_alpha: int, n_beta: int) -> GuessState:
    """Aufbau determinant: lowest n_alpha / n_beta spatial orbitals filled."""
    if n_alpha > n_orb or n_beta > n_orb:
        raise ElectronCountExceedsOrbitals(
            f"({n_alpha},{n_beta}) electrons into {n_orb} spatial orbitals"
        )
    if n_alpha < 0 or n_beta < 0:
        raise ValueError("negative electron count")
    mask = ((1 << n_alpha) - 1) | (((1 << n_beta) - 1) << n_orb)
    return GuessState(2 * n_orb, ((mask, 1.0 + 0.0j),), label="hf")


def open_shell_csf(
    n_orb: int,
    core: tuple[int, ...],
    open_pair: tuple[int, int],
    coupling: str,
) -> GuessState:
    """Two-determinant spin eigenstate over a closed-shell core.

    The two open-shell electrons sit in spatial orbitals (a, b) with
    M_S = 0.  Under the blocked ordering with ascending creation
    operators, (|a_alpha b_beta> + |a_beta b_alpha>)/sqrt(2) is the
    singlet and the minus combination the M_S = 0 triplet.
    """
    a, b = open_pair
    if coupling not in ("singlet", "triplet"):
        raise ValueError(f"coupling must be singlet or triplet, got {coupling!r}")
    if a == b:
        raise ValueError("open-shell orbitals must differ")
    for orb in (a, b):
        if orb in core:
            raise OverlapWithCore(f"open orbital {orb} is doubly occupied in core")
        if not 0 <= orb < n_orb:
            raise DimensionMismatch(f"orbital {orb} outside 0..{n_orb - 1}")
    core_mask = 0
    for orb in core:
        if not 0 <= orb < n_orb:
            raise DimensionMismatch(f"core orbital {orb} outside 0..{n_orb - 1}")
        core_mask |= (1 << orb) | (1 << (n_orb + orb))

    d1 = core_mask | (1 << a) | (1 << (n_orb + b))  # a_alpha b_beta
    d2 = core_mask | (1 << b) | (1 << (n_orb + a))  # b_alpha a_beta
    sign = 1.0 if coupling == "singlet" else -1.0
    return GuessState(
        2 * n_orb,
        ((d1, _SQRT_HALF + 0.0j), (d2, sign * _SQRT_HALF + 0.0j)),
        label=f"csf_{coupling}",
    )


def load_amplitude_guess(path: str | Path, threshold: float = 0.0) -> GuessState:
    """Read `amplitude occupation-bitstring` lines, cut, renormalize.

    The bitstring's leftmost character is qubit 0.  '#' starts a comment.
    Only entries with |amplitude| > threshold are kept; the survivors are
    renormalized.  The file may mix sectors.
    """
    path = Path(path)
    entries: list[tuple[int, complex]] = []
    n_qubits = None
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"expected 'amplitude bitstring', got {raw!r}", line_no)
        try:
            amp = complex(parts[0])
        except ValueError:
            raise MalformedLine(f"unreadable amplitude {parts[0]!r}", line_no)
        if not np.isfinite(amp):
            raise MalformedLine("non-finite amplitude", line_no)
        bits = parts[1]
        if set(bits) - {"0", "1"}:
            raise MalformedLine(f"bitstring {bits!r} has non-binary characters", line_no)
        if n_qubits is None:
            n_qubits = len(bits)
        elif len(bits) != n_qubits:
            raise MalformedLine(
                f"bitstring length {len(bits)} != {n_qubits} from earlier lines",
                line_no,
            )
        mask = 0
        for pos, ch in enumerate(bits):  # leftmost char is qubit 0
            if ch == "1":
                mask |= 1 << pos
        if abs(amp) > threshold:
            entries.append((mask, amp))
    if n_qubits is None or not entries:
        raise EmptyAfterThreshold(
            f"{path}: no amplitudes above threshold {threshold}"
        )
    norm = np.sqrt(sum(abs(a) ** 2 for _, a in entries))
    entries = [(m, a / norm) for m, a in entries]
    return GuessState(n_qubits, tuple(entries), label=path.stem)


def write_amplitude_guess(path: str | Path, guess: GuessState) -> None:
    """Emit the text format load_amplitude_guess reads.

    One line per entry, `amplitude bitstring`, leftmost bit = qubit 0.
    Useful for dumping truncated eigenvectors as reusable guess files.
    """
    path = Path(path)
    lines = []
    for mask, amp in guess.entries:
        bits = "".join("1" if mask >> q & 1 else "0" for q in range(guess.n_qubits))
        value = repr(float(amp.real)) if amp.imag == 0.0 else repr(complex(amp)).strip("()")
        lines.append(f"{value} {bits}")
    path.write_text("\n".join(lines) + "\n")


def random_sector_state(
    n_orb: int,
    sector: tuple[int, int],
    rng: np.random.Generator,
) -> GuessState:
    """Haar-ish random state confined to one particle-number sector."""
    dets = enumerate_sector(n_orb, *sector)
    amps = rng.standard_normal(len(dets)) + 1j * rng.standard_normal(len(dets))
    amps /= np.linalg.norm(amps)
    return GuessState(
        2 * n_orb,
        tuple((d, complex(a)) for d, a in zip(dets, amps)),
        label=f"random_{sector[0]}_{sector[1]}",
    )
