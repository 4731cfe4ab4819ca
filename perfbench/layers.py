"""Which tdchan functions the traced run wraps, and the per-layer metrics.

Spans are named after the module-qualified function (``spectrum.secular_roots``).
Each metric is normalized to one pass of the workload, so counts are exact
and comparable between runs of different length.  Units are declared with
the metric names in BENCHMARK.json.
"""

from __future__ import annotations

import inspect

from spans import Tracer

DRAWS = "sampling.philox.draws"
POLYTOPE_KINDS = ("main", "k0", "second_term")
CELL_KINDS = ("main", "k0", "second_term", "sympol", "schur")

# Plain spans; per-layer metrics below read their calls and self time.
WRAPPED = (
    "spectrum.secular_roots",
    "majorization.elem_sym",
    "majorization.phi_k",
    "majorization.schur_defect",
    "majorization.lambda_to_nu",
    "entropy.additivity_gap",
    "entropy.simplex_output_entropy",
    "entropy.minimize_simplex_entropy",
    "entropy.entropy_of",
    "channel.apply_two_copies",
    "cli.main",
)


class LayerTrace:
    """A Tracer installed on tdchan plus the observers the metrics need."""

    def __init__(self):
        self.tracer = Tracer("tdchan")
        self.scan_ms = {kind: 0.0 for kind in CELL_KINDS}
        self.scan_cells = {kind: 0 for kind in CELL_KINDS}
        self.polytope_draws = 0.0
        self.polytope_rows = 0
        self.bytes_out = 0

    def install(self) -> None:
        tr = self.tracer
        for name in WRAPPED:
            tr.wrap(name)
        tr.wrap_generator_factory("verification.philox_stream", "sampling.philox.draw", DRAWS)
        scan = tr.lookup("verification.run_scan")
        signature = inspect.signature(scan) if scan is not None else None
        tr.wrap("verification.run_scan", lambda a, k: self._on_scan(signature, a, k))
        tr.wrap("serialize.to_json", self._on_to_json)

    def restore(self) -> None:
        self.tracer.restore()

    def _on_scan(self, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        kind, samples = bound.arguments["kind"], bound.arguments["samples"]
        draws_before = self.tracer.counts.get(DRAWS, 0)

        def done(reports, elapsed):
            if kind in self.scan_ms:
                self.scan_ms[kind] += elapsed * 1e3
                self.scan_cells[kind] += len(reports)
            if kind in POLYTOPE_KINDS:
                self.polytope_draws += self.tracer.counts.get(DRAWS, 0) - draws_before
                self.polytope_rows += samples * sum(len(r.k_values) for r in reports)

        return done

    def _on_to_json(self, args, kwargs):
        if self.tracer.current_name() == "serialize.to_json":
            return None  # nested call; only the outermost text leaves the layer

        def done(text, elapsed):
            self.bytes_out += len(text.encode())

        return done

    def metrics(self, passes: int, overhead_share: float, scale: float) -> dict[str, float]:
        """Per-layer metrics for one pass.

        Times are multiplied by scale, which calibrates them to the
        reference machine the way run_s is.
        """
        stats = self.tracer.summary()

        def stat(name):
            s = stats.get(name)
            return (s.calls, s.total_s * scale, s.self_s * scale) if s else (0, 0.0, 0.0)

        def per_call(total, calls, factor=1.0):
            return total / calls * factor if calls else 0.0

        out = {}
        calls, _, self_s = stat("spectrum.secular_roots")
        out["spectrum.secular_roots.calls"] = calls / passes
        out["spectrum.secular_roots.self_s"] = self_s / passes
        out["spectrum.secular_roots.us_per_call"] = per_call(self_s, calls, 1e6)
        calls, _, self_s = stat("majorization.elem_sym")
        out["majorization.elem_sym.calls"] = calls / passes
        out["majorization.elem_sym.self_s"] = self_s / passes
        for name in ("phi_k", "schur_defect", "lambda_to_nu"):
            out[f"majorization.{name}.self_s"] = stat(f"majorization.{name}")[2] / passes
        out["verification.run_scan.self_s"] = stat("verification.run_scan")[2] / passes
        for kind in CELL_KINDS:
            out[f"verification.{kind}.cell_ms"] = per_call(self.scan_ms[kind] * scale, self.scan_cells[kind])
        out["verification.polytope.draws_per_row"] = per_call(self.polytope_draws, self.polytope_rows)
        out["sampling.philox.draws"] = self.tracer.counts.get(DRAWS, 0) / passes
        out["sampling.philox.draw_s"] = stat("sampling.philox.draw")[1] / passes
        calls, total, _ = stat("entropy.additivity_gap")
        out["entropy.additivity_gap.cell_s"] = per_call(total, calls)
        out["entropy.objective.calls"] = stat("entropy.simplex_output_entropy")[0] / passes
        for name in ("entropy.minimize_simplex_entropy", "entropy.entropy_of",
                     "cli.main", "serialize.to_json"):
            out[f"{name}.self_s"] = stat(name)[2] / passes
        calls, _, self_s = stat("channel.apply_two_copies")
        out["channel.apply_two_copies.calls"] = calls / passes
        out["channel.apply_two_copies.self_s"] = self_s / passes
        out["serialize.bytes_out"] = self.bytes_out / passes
        out["trace.overhead_share"] = overhead_share
        return out
