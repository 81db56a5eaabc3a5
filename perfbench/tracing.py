"""In-memory span tracer for the traced benchmark pass.

Public functions are wrapped at their module (or class) attributes, so the
program's own calls through those attributes are seen; nothing inside the
package is edited. Each span records name, start, end, parent and run id.
A span opened on a thread with no open span of its own (the flux-sweep
pool) is attached to the enclosing operation. Counts of work are taken from
public arguments, return values and attributes.

Only the standard library is imported here, so loading the tracer costs
the worker nothing before its set-up is timed.
"""

import contextlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []               # (id, name, start, end, parent)
        self.counts = defaultdict(float)
        self.absent = []
        self.op_span = None
        self.built = []               # simulators of the open operation
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self.op_span
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, name, parent, start):
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append((span_id, name, start, end, parent))

    def add(self, key: str, amount: float):
        with self._lock:
            self.counts[key] += amount

    @contextlib.contextmanager
    def operation(self, name: str):
        """One benchmark operation: the root span that every span of the
        operation, on any thread, descends from. On exit, the cell-steps of
        every simulator built during the operation are credited:
        geom.n_cells times how far its t_index advanced from zero."""
        span_id, parent = self._open()
        self.op_span = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, f"op.{name}", parent, start)
            self.op_span = None
            for sim in self.built:
                self.add("line.cell_steps", sim.geom.n_cells * sim.t_index)
            self.built.clear()

    def wrap(self, owner, attr: str, name: str | None, count=None):
        """Replace owner.attr by a wrapper that records a span called
        `name` (none when name is None) and then calls
        count(tracer, bound_arguments, result). A missing attribute is
        recorded as absent."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        sig = inspect.signature(orig) if count else None
        tracer = self

        def wrapper(*args, **kwargs):
            if name is not None:
                span_id, parent = tracer._open()
                start = time.perf_counter()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer._close(span_id, name, parent, start)
            else:
                result = orig(*args, **kwargs)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer, bound.arguments, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)

    def self_times(self) -> dict:
        """Per span name: number of calls and summed self time, where self
        time is a span's duration minus the part of it that its child
        spans cover."""
        children = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span_id, name, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - covered
        return dict(out)

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id}) + "\n")


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 1


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are taken at."""
    from fluxcomb import budget, cli, io, line, nonmarkov, transmon

    tracer.wrap(line, "build_line", None,
                lambda t, a, sim: t.built.append(sim))
    tracer.wrap(line, "isolation_report", "line.isolation_report")
    tracer.wrap(line.Simulator, "run_until", "line.run_until")
    tracer.wrap(line.Simulator, "record_probe", "line.record_probe")

    def map_points(t, a, result):
        t.add("transmon.map_points", _size(a["phi_dc_grid"])
              * _size(a["phi_rf_grid"]) * len(a["array"].harmonic_indices))

    tracer.wrap(transmon, "flux_curve", "transmon.flux_curve")
    tracer.wrap(transmon, "default_comb_qubits",
                "transmon.default_comb_qubits")
    tracer.wrap(transmon, "diagonalize", "transmon.diagonalize")
    tracer.wrap(transmon, "addressing_map", "transmon.addressing_map",
                map_points)
    tracer.wrap(transmon, "eigvals_tridiag", None,
                lambda t, a, r: t.add("tridiag.eigvals_tridiag.calls", 1))

    tracer.wrap(budget, "full_budget", "budget.full_budget")
    tracer.wrap(budget, "scalability_sweep", "budget.scalability_sweep")

    def phase_terms(factor):
        def count(t, a, result):
            t.add("nonmarkov.phase_terms",
                  factor * a["n_realizations"] * _size(a["tau_grid"])
                  * a["model"].n_components)
        return count

    def noise_terms(t, a, result):
        t.add("nonmarkov.noise_terms",
              _size(result) * a["model"].n_components)

    tracer.wrap(nonmarkov, "ramsey", "nonmarkov.ramsey", phase_terms(1))
    tracer.wrap(nonmarkov, "hahn_echo", "nonmarkov.hahn_echo",
                phase_terms(2))
    tracer.wrap(nonmarkov, "synthesize_noise", "nonmarkov.synthesize_noise",
                noise_terms)
    tracer.wrap(nonmarkov, "evolve_kernel", "nonmarkov.evolve_kernel")
    tracer.wrap(nonmarkov, "gamma_eff", "nonmarkov.gamma_eff")

    tracer.wrap(io, "write_csv", "io.write_csv",
                lambda t, a, path: t.add("io.csv_bytes",
                                         os.path.getsize(path)))
    tracer.wrap(io, "write_manifest", "io.write_manifest")
    tracer.wrap(cli, "main", "cli.main")

