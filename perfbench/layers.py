"""The traced qfci layers and the per-layer metrics derived from a trace.

Span names are ``<module>.<function>``.  These counts are computed from
argument and result sizes, not measured:
``det_term_pairs`` = sum of sector dimension x term count,
``bytes_computed`` = sum over blocks of 2 * dim^2 * 16 per propagator call,
``g_bytes`` = n_so^4 * 8 and ``register_bytes`` = 2^(n+1) * 16 for the
joint readout+system register of n+1 qubits.
"""
from __future__ import annotations

from tracer import Target, Tracer


def _b_detail(tracer: Tracer, original):
    """Ask the B recursion for its detail, record it, return what the caller asked for."""

    def call(*args, return_detail=False, **kwargs):
        prob, detail = original(*args, return_detail=True, **kwargs)
        tracer.peak("phase_estimation.b_histories_peak", detail.n_histories)
        tracer.peak("phase_estimation.b_pruned_mass", detail.pruned_mass)
        return (prob, detail) if return_detail else prob

    return call


def _eigensolve(tracer, args, result):
    terms = args[0]
    tracer.peak("hamiltonian.sector_dim", result.dimension)
    tracer.add("hamiltonian.det_term_pairs", result.dimension * len(terms))


def _propagator(tracer, args, result):
    spectra = args[1]
    tracer.add("propagator.bytes_computed", sum(2 * b.dimension ** 2 * 16 for b in spectra))


TARGETS = (
    Target("cli.load_scan_config", "qfci.cli", "load_scan_config"),
    Target("cli.run_scan", "qfci.cli", "run_scan"),
    Target("cli.emit_scaling_report", "qfci.cli", "emit_scaling_report"),
    Target("integrals.parse_fcidump", "qfci.integrals", "parse_fcidump"),
    Target("integrals.to_spin_orbitals", "qfci.integrals", "to_spin_orbitals",
           observe=lambda t, a, r: t.peak("integrals.g_bytes", r.n_so ** 4 * 8)),
    Target("integrals.random_molecular_integrals", "qfci.integrals",
           "random_molecular_integrals"),
    Target("hamiltonian.build_second_quantized", "qfci.hamiltonian", "build_second_quantized",
           observe=lambda t, a, r: t.add("hamiltonian.terms", len(r))),
    Target("hamiltonian.jordan_wigner", "qfci.hamiltonian", "jordan_wigner",
           observe=lambda t, a, r: t.add("hamiltonian.pauli_strings", len(r.terms))),
    Target("hamiltonian.exact_eigensolve", "qfci.hamiltonian", "exact_eigensolve",
           observe=_eigensolve),
    Target("hamiltonian.eigh", "numpy.linalg", "eigh"),
    Target("guess.hf_determinant", "qfci.guess", "hf_determinant"),
    Target("guess.random_sector_state", "qfci.guess", "random_sector_state"),
    Target("guess.to_statevector", "qfci.guess:GuessState", "to_statevector"),
    Target("phase_estimation.ipea_a_success_probability", "qfci.phase_estimation",
           "ipea_a_success_probability"),
    Target("phase_estimation.ipea_b_success_probability", "qfci.phase_estimation",
           "ipea_b_success_probability", adapt=_b_detail),
    Target("phase_estimation.ipea_a_run", "qfci.phase_estimation", "ipea_a_run"),
    Target("phase_estimation.ipea_b_run", "qfci.phase_estimation", "ipea_b_run"),
    Target("propagator.controlled_u_power_exact", "qfci.propagator",
           "controlled_u_power_exact", observe=_propagator),
    Target("statevector.apply_gate", "qfci.statevector", "apply_gate",
           observe=lambda t, a, r: t.peak("statevector.register_bytes",
                                          2 ** a[0].n_qubits * 16)),
    Target("statevector.measure_qubit", "qfci.statevector", "measure_qubit"),
    Target("resources.count_controlled_u", "qfci.resources", "count_controlled_u",
           observe=lambda t, a, r: t.add("resources.gate_total", r.total)),
)
SPAWNERS = frozenset({"cli.run_scan"})

# (metric name, unit, better).  ``<span>.busy_s`` / ``.self_busy_s`` is self
# thread CPU time, ``.wait_s`` self wall minus self busy, ``.calls`` the call
# count; other names are tracer counters or derived ratios.
PER_LAYER = (
    ("phase_estimation.ipea_b_success_probability.busy_s", "s", "lower"),
    ("phase_estimation.ipea_b_success_probability.calls", "count", "lower"),
    ("phase_estimation.b_histories_peak", "count", "lower"),
    ("phase_estimation.b_pruned_mass", "prob", "lower"),
    ("hamiltonian.exact_eigensolve.busy_s", "s", "lower"),
    ("hamiltonian.exact_eigensolve.wait_s", "s", "lower"),
    ("hamiltonian.eigh.busy_s", "s", "lower"),
    ("hamiltonian.sector_dim", "count", "lower"),
    ("hamiltonian.det_term_pairs", "count", "lower"),
    ("hamiltonian.jordan_wigner.busy_s", "s", "lower"),
    ("hamiltonian.pauli_strings", "count", "lower"),
    ("hamiltonian.build_second_quantized.busy_s", "s", "lower"),
    ("hamiltonian.terms", "count", "lower"),
    ("propagator.controlled_u_power_exact.busy_s", "s", "lower"),
    ("propagator.controlled_u_power_exact.calls", "count", "lower"),
    ("propagator.bytes_computed", "bytes", "lower"),
    ("statevector.apply_gate.busy_s", "s", "lower"),
    ("statevector.apply_gate.calls", "count", "lower"),
    ("statevector.measure_qubit.busy_s", "s", "lower"),
    ("statevector.measure_qubit.calls", "count", "lower"),
    ("statevector.register_bytes", "bytes", "lower"),
    ("phase_estimation.ipea_a_run.busy_s", "s", "lower"),
    ("phase_estimation.ipea_b_run.busy_s", "s", "lower"),
    ("integrals.parse_fcidump.busy_s", "s", "lower"),
    ("integrals.to_spin_orbitals.busy_s", "s", "lower"),
    ("integrals.random_molecular_integrals.busy_s", "s", "lower"),
    ("integrals.g_bytes", "bytes", "lower"),
    ("guess.hf_determinant.busy_s", "s", "lower"),
    ("guess.random_sector_state.busy_s", "s", "lower"),
    ("guess.to_statevector.busy_s", "s", "lower"),
    ("resources.count_controlled_u.busy_s", "s", "lower"),
    ("resources.gate_total", "count", "lower"),
    ("cli.load_scan_config.busy_s", "s", "lower"),
    ("cli.run_scan.self_busy_s", "s", "lower"),
    ("cli.emit_scaling_report.self_busy_s", "s", "lower"),
    ("cli.pool_concurrency", "ratio", "higher"),
    ("cli.trace_overhead", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced invocation, except cli.trace_overhead.

    A layer the workload does not call reads 0.
    """
    summary = tracer.summary()
    values = dict(tracer.counters) | dict(tracer.peaks)
    run_scan = summary.get("cli.run_scan", {}).get("wall", 0.0)
    values["cli.pool_concurrency"] = (
        tracer.caused_wall("cli.run_scan") / run_scan if run_scan else 0.0)
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "cli.trace_overhead":
            continue
        span, _, quantity = name.rpartition(".")
        row = summary.get(span)
        if quantity in ("busy_s", "self_busy_s"):
            out[name] = row["self_busy"] if row else 0.0
        elif quantity == "wait_s":
            out[name] = row["self_wait"] if row else 0.0
        elif quantity == "calls":
            out[name] = int(row["calls"]) if row else 0
        else:
            out[name] = values.get(name, 0)
    return out
