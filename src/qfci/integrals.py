"""FCIDUMP ingestion and spin-orbital expansion.

Spatial-orbital integrals are stored in chemists' notation (pq|rs);
spin-orbital tensors use physicists' notation <pq|rs>.  Spin orbitals
are blocked: alpha spins occupy indices 0..n_orb-1, beta spins occupy
n_orb..2*n_orb-1.  All energies in hartree.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapExceeded, ConsistencyError, ParseError

# duplicate FCIDUMP entries may disagree by at most this much
DUPLICATE_TOL = 1e-10
# Most bytes the spin-orbital two-body tensor, (2 n_orb)^4 float64, may
# take; the spatial tensors and term arrays built beside it are smaller
TENSOR_BYTE_BUDGET = 2 << 30


@dataclass
class MolecularIntegrals:
    """Spatial-orbital integrals as read from an FCIDUMP file."""

    n_orb: int
    n_elec: int
    ms2: int
    core_energy: float
    one_body: np.ndarray  # (n_orb, n_orb), symmetric
    two_body: np.ndarray  # (n_orb,)*4, chemists' (pq|rs), 8-fold symmetric


@dataclass
class SpinOrbitalIntegrals:
    """Spin-orbital integrals, physicists' ordering for the two-body part."""

    n_so: int
    core_energy: float
    h: np.ndarray  # (n_so, n_so)
    g: np.ndarray  # (n_so,)*4, <pq|rs>

    @property
    def n_orb(self) -> int:
        return self.n_so // 2


def _over_budget(n_orb: int) -> str | None:
    """Why n_orb spatial orbitals exceed TENSOR_BYTE_BUDGET, else None."""
    need = (2 * n_orb) ** 4 * 8
    if need <= TENSOR_BYTE_BUDGET:
        return None
    return (
        f"{n_orb} orbitals need about {need / 2**30:.3g} GiB for the spin-orbital "
        f"two-body tensor, above the {TENSOR_BYTE_BUDGET / 2**30:.3g} GiB budget"
    )


def _canonical_two_body(i: int, j: int, k: int, l: int) -> tuple:
    ij = (i, j) if i >= j else (j, i)
    kl = (k, l) if k >= l else (l, k)
    return (ij, kl) if ij >= kl else (kl, ij)


# case-insensitive search, not str.upper(), which can lengthen the text
_HEADER_END = re.compile("&END", re.IGNORECASE)
_HEADER_KV = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=]*?)(?=(?:,\s*[A-Za-z0-9_]+\s*=)|$)")


def _parse_header(text: str, line_no: int) -> dict:
    body = text.strip()
    if body.upper().startswith("&FCI"):
        body = body[4:]
    fields = {}
    for key, raw in _HEADER_KV.findall(body):
        fields[key.upper()] = raw.strip().rstrip(",").strip()
    out = {}
    for key in ("NORB", "NELEC", "MS2"):
        if key in fields:
            try:
                out[key] = int(fields[key])
            except ValueError:
                raise ParseError(f"bad integer for {key}: {fields[key]!r}", line_no)
    if "NORB" not in out:
        raise ParseError("header is missing NORB", line_no)
    if "NELEC" not in out:
        raise ParseError("header is missing NELEC", line_no)
    out.setdefault("MS2", 0)
    return out


def parse_fcidump(path: str | Path) -> MolecularIntegrals:
    """Read an FCIDUMP file into spatial-orbital tensors.

    Body lines hold ``value i j k l`` with 1-based indices.  An all-zero
    index line carries the core (nuclear repulsion / frozen-core) energy,
    ``k = l = 0`` marks one-body elements, and four nonzero indices mark
    chemists' two-body elements whose 7 symmetry images are replicated.
    Orbital-energy lines (``value i 0 0 0``) are accepted and ignored;
    ORBSYM/ISYM are parsed but unused.  Unspecified entries default to 0.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not UTF-8 text", raw.count(b"\n", 0, exc.start) + 1) from exc
    lines = text.splitlines()

    header_chunks: list[str] = []
    header_end = None
    for idx, line in enumerate(lines):
        stripped = line.strip()
        done = False
        if end := _HEADER_END.search(stripped):
            stripped = stripped[: end.start()]
            done = True
        elif stripped == "/" or stripped.endswith("/"):
            stripped = stripped.rstrip("/")
            done = True
        header_chunks.append(stripped)
        if done:
            header_end = idx
            break
    if header_end is None:
        raise ParseError("header never terminated with &END or /", len(lines))
    meta = _parse_header(" ".join(header_chunks), header_end + 1)

    n_orb = meta["NORB"]
    if n_orb < 1:
        raise ParseError(f"NORB must be positive, got {n_orb}", header_end + 1)
    if why := _over_budget(n_orb):
        raise ParseError(why, header_end + 1)

    core_energy = 0.0
    seen_core = False
    one: dict[tuple, float] = {}
    two: dict[tuple, float] = {}

    def record(store: dict, key, value: float, line_no: int) -> None:
        if key in store:
            if abs(store[key] - value) > DUPLICATE_TOL:
                raise ConsistencyError(
                    f"line {line_no}: duplicate entry {key} differs: "
                    f"{store[key]!r} vs {value!r}"
                )
        else:
            store[key] = value

    for idx in range(header_end + 1, len(lines)):
        line_no = idx + 1
        tokens = lines[idx].split()
        if not tokens:
            continue
        if len(tokens) != 5:
            raise ParseError(f"expected 'value i j k l', got {len(tokens)} fields", line_no)
        try:
            value = float(tokens[0].replace("D", "E").replace("d", "e"))
        except ValueError:
            raise ParseError(f"unreadable value {tokens[0]!r}", line_no)
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {tokens[0]!r}", line_no)
        try:
            i, j, k, l = (int(t) for t in tokens[1:])
        except ValueError:
            raise ParseError(f"unreadable orbital indices {tokens[1:]!r}", line_no)
        for idx_val in (i, j, k, l):
            if idx_val < 0 or idx_val > n_orb:
                raise ParseError(f"orbital index {idx_val} outside [0, {n_orb}]", line_no)

        if i == j == k == l == 0:
            if seen_core and abs(core_energy - value) > DUPLICATE_TOL:
                raise ConsistencyError(
                    f"line {line_no}: core energy restated as {value!r}, "
                    f"had {core_energy!r}"
                )
            core_energy = value
            seen_core = True
        elif i > 0 and k == 0 and l == 0:
            if j == 0:
                continue  # orbital-energy convenience line, not used
            record(one, (max(i, j), min(i, j)), value, line_no)
        elif i > 0 and j > 0 and k > 0 and l > 0:
            record(two, _canonical_two_body(i, j, k, l), value, line_no)
        else:
            raise ParseError(f"unclassifiable index pattern {(i, j, k, l)}", line_no)

    one_body = np.zeros((n_orb, n_orb))
    for (i, j), v in one.items():
        one_body[i - 1, j - 1] = v
        one_body[j - 1, i - 1] = v

    two_body = np.zeros((n_orb,) * 4)
    for ((i, j), (k, l)), v in two.items():
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for p, q in ((a, b), (b, a)):
            for r, s in ((c, d), (d, c)):
                two_body[p, q, r, s] = v
                two_body[r, s, p, q] = v

    return MolecularIntegrals(
        n_orb=n_orb,
        n_elec=meta["NELEC"],
        ms2=meta["MS2"],
        core_energy=core_energy,
        one_body=one_body,
        two_body=two_body,
    )


def to_spin_orbitals(mol: MolecularIntegrals) -> SpinOrbitalIntegrals:
    """Expand spatial tensors to blocked spin orbitals.

    The one-body matrix is copied verbatim into each same-spin block.
    The antisymmetrizing convention is NOT applied here: g stores plain
    physicists' elements <pq|rs> = (pr|qs) with the spin selection rule
    spin(p) == spin(r), spin(q) == spin(s); opposite blocks are zero.
    Above TENSOR_BYTE_BUDGET it raises CapExceeded before allocating.
    """
    if why := _over_budget(mol.n_orb):
        raise CapExceeded(why)
    n = mol.n_orb
    n_so = 2 * n

    h = np.zeros((n_so, n_so))
    h[:n, :n] = mol.one_body
    h[n:, n:] = mol.one_body

    # <PQ|RS> over spatial indices
    phys = np.ascontiguousarray(mol.two_body.transpose(0, 2, 1, 3))

    g = np.zeros((n_so,) * 4)
    for sa in (0, 1):
        for sb in (0, 1):
            pa = slice(sa * n, sa * n + n)
            pb = slice(sb * n, sb * n + n)
            g[pa, pb, pa, pb] = phys

    return SpinOrbitalIntegrals(n_so=n_so, core_energy=mol.core_energy, h=h, g=g)


def random_molecular_integrals(
    n_orb: int,
    rng: np.random.Generator,
) -> MolecularIntegrals:
    """Dense random integrals obeying the FCIDUMP symmetries (test/scaling aid).

    The symmetries hold bit for bit: each image is summed in pairs of
    commuting additions.  Above TENSOR_BYTE_BUDGET it raises CapExceeded
    before drawing.
    """
    if why := _over_budget(n_orb):
        raise CapExceeded(why)
    one = rng.standard_normal((n_orb, n_orb))
    one = 0.5 * (one + one.T)

    t = rng.standard_normal((n_orb,) * 4)
    t = t + t.transpose(1, 0, 2, 3)
    t = t + t.transpose(0, 1, 3, 2)
    two = (t + t.transpose(2, 3, 0, 1)) / 8.0

    return MolecularIntegrals(
        n_orb=n_orb,
        n_elec=n_orb,  # half filling
        ms2=0,
        core_energy=float(rng.standard_normal()),
        one_body=one,
        two_body=two,
    )
