"""Linear hydrogen-chain FCIDUMP generator (STO-3G, restricted Hartree-Fock).

The atomic-orbital integrals come from the s-Gaussian primitive formulas
of ``tests/fixtures/gen_h2_sto3g.py``, which already handle collinear
centres.  A small numpy RHF loop (core guess, DIIS) gives the molecular
orbitals; the integrals are transformed and written as canonical 8-fold
FCIDUMP records in the fixture's number format.

Usage from the repository root:

    python3 perfbench/hchain.py 4 1.8 > h4.fcidump
"""
from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_GENERATOR = ROOT / "tests" / "fixtures" / "gen_h2_sto3g.py"
EMIT_TOL = 1e-12


def _load_primitives():
    spec = importlib.util.spec_from_file_location("gen_h2_sto3g", FIXTURE_GENERATOR)
    if spec is None or not FIXTURE_GENERATOR.is_file():
        raise FileNotFoundError(f"s-Gaussian formulas not found at {FIXTURE_GENERATOR}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Chain:
    n_atoms: int
    spacing: float
    e_rhf: float
    fcidump: str  # file text


def _ao_integrals(centers):
    g = _load_primitives()
    n = len(centers)

    def pair(fn, i, j, *extra):
        return g.contracted(fn, (centers[i], centers[j]), *extra)

    s = np.empty((n, n))
    h = np.empty((n, n))
    for i, j in itertools.product(range(n), repeat=2):
        s[i, j] = pair(lambda a, b, ra, rb: g.overlap_prim(a, b, (ra - rb) ** 2), i, j)
        h[i, j] = pair(lambda a, b, ra, rb: g.kinetic_prim(a, b, (ra - rb) ** 2), i, j)
        h[i, j] += sum(pair(g.nuclear_prim, i, j, rc) for rc in centers)

    eri = np.empty((n,) * 4)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if i >= j and k >= l and i * n + j >= k * n + l:
            v = g.contracted(g.eri_prim, (centers[i], centers[j], centers[k], centers[l]))
            for p, q in ((i, j), (j, i)):
                for r, t in ((k, l), (l, k)):
                    eri[p, q, r, t] = v
                    eri[r, t, p, q] = v
    e_nuc = sum(1.0 / abs(a - b) for a, b in itertools.combinations(centers, 2))
    return s, h, eri, e_nuc


def rhf(s, h, eri, n_occ, tol=1e-11, max_iter=200):
    """Closed-shell RHF with DIIS; returns (orbital coefficients, electronic energy)."""
    evals, evecs = np.linalg.eigh(s)
    x = evecs @ np.diag(evals ** -0.5) @ evecs.T

    def solve(fock):
        _, c = np.linalg.eigh(x.T @ fock @ x)
        return x @ c

    c = solve(h)
    focks, errors = [], []
    e_old = 0.0
    for _ in range(max_iter):
        d = c[:, :n_occ] @ c[:, :n_occ].T
        fock = h + 2.0 * np.einsum("pqrs,rs->pq", eri, d) - np.einsum("prqs,rs->pq", eri, d)
        e_elec = float(np.sum(d * (h + fock)))
        err = x.T @ (fock @ d @ s - s @ d @ fock) @ x
        focks, errors = (focks + [fock])[-8:], (errors + [err])[-8:]
        if abs(e_elec - e_old) < tol and np.max(np.abs(err)) < 1e-8:
            return c, e_elec
        e_old = e_elec
        k = len(focks)
        b = -np.ones((k + 1, k + 1))
        b[k, k] = 0.0
        b[:k, :k] = [[np.sum(ei * ej) for ej in errors] for ei in errors]
        rhs = np.zeros(k + 1)
        rhs[k] = -1.0
        coef = np.linalg.lstsq(b, rhs, rcond=None)[0][:k]
        c = solve(sum(w * f for w, f in zip(coef, focks)))
    raise RuntimeError(f"RHF did not converge in {max_iter} iterations")


def hydrogen_chain(n_atoms: int, spacing: float) -> Chain:
    """FCIDUMP text and RHF energy of an evenly spaced linear H_n, n even."""
    if n_atoms < 2 or n_atoms % 2:
        raise ValueError(f"need an even number of atoms, got {n_atoms}")
    centers = [i * spacing for i in range(n_atoms)]
    s, h, eri, e_nuc = _ao_integrals(centers)
    c, e_elec = rhf(s, h, eri, n_atoms // 2)
    h_mo = c.T @ h @ c
    eri_mo = np.einsum("pi,qj,rk,sl,pqrs->ijkl", c, c, c, c, eri, optimize=True)

    n = n_atoms
    lines = [f"&FCI NORB={n},NELEC={n},MS2=0,", " ORBSYM=" + "1," * n, " ISYM=1,", "&END"]

    def emit(value, i, j, k, l):
        if abs(value) > EMIT_TOL:
            lines.append(f" {value: .16E} {i:3d} {j:3d} {k:3d} {l:3d}")

    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            emit(eri_mo[i - 1, j - 1, k - 1, l - 1], i, j, k, l)
    for i, j in pairs:
        emit(h_mo[i - 1, j - 1], i, j, 0, 0)
    emit(e_nuc, 0, 0, 0, 0)
    return Chain(n_atoms, spacing, e_elec + e_nuc, "\n".join(lines) + "\n")


def fcidump_records(text: str) -> dict[tuple[int, int, int, int], float]:
    """Body records of an FCIDUMP as {(i, j, k, l): value}."""
    body = text.split("&END", 1)[1]
    out = {}
    for line in body.splitlines():
        tok = line.split()
        if tok:
            out[tuple(int(t) for t in tok[1:])] = float(tok[0].replace("D", "E"))
    return out


H2_FIXTURE = ROOT / "tests" / "fixtures" / "h2_sto3g_r1.4011.fcidump"
H2_FIXTURE_SPACING = 1.4011
H2_RHF_ENERGY = -1.11668
H2_FIXTURE_TOL = 1e-7


def check_against_fixture() -> float:
    """Regenerate the bundled H2 fixture; returns the largest entry difference.

    Raises ValueError if a record is missing or extra, an entry differs by
    more than H2_FIXTURE_TOL, or the RHF energy is not -1.11668 Eh to 5
    decimals.
    """
    chain = hydrogen_chain(2, H2_FIXTURE_SPACING)
    ours = fcidump_records(chain.fcidump)
    ref = fcidump_records(H2_FIXTURE.read_text())
    if set(ours) != set(ref):
        raise ValueError(f"record sets differ: {sorted(set(ours) ^ set(ref))}")
    worst = max(abs(ours[k] - ref[k]) for k in ref)
    if worst > H2_FIXTURE_TOL:
        raise ValueError(f"H2 fixture reproduced only to {worst:.2e}")
    if abs(chain.e_rhf - H2_RHF_ENERGY) > 5e-6:
        raise ValueError(f"H2 RHF energy {chain.e_rhf:.8f}, expected {H2_RHF_ENERGY}")
    return worst


if __name__ == "__main__":
    sys.stdout.write(hydrogen_chain(int(sys.argv[1]), float(sys.argv[2])).fcidump)
