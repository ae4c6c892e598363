"""In-memory trace spans around the public functions of each fluxring layer.

Tracer.install() wraps every public function and every public method,
__init__ and __call__ of the public classes of the layer modules, and
rebinds each wrapper wherever a fluxring module holds the original
(the defining module, the package namespace and every module that did
`from .x import name`).  Calls between layers therefore nest: a span
opened by oracle.superposition_block_scan is the parent of the
superposition.gen_eig_2x2 spans it causes.  Tracer.uninstall() puts
every original back, so untraced passes run the unmodified program.

Nothing here edits the package source; the wrappers live only in the
process that installs them.
"""

from __future__ import annotations

import enum
import functools
import gzip
import importlib
import inspect
import json
import time

LAYERS = ("params", "darkstate", "ring", "harmonic", "superposition", "oracle", "cli")

_CLASS_DUNDERS = ("__init__", "__call__")


class Tracer:
    """Records spans as (name id, start ns, end ns, parent index, op id, raised)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.op_id, raised)

        return traced

    def absorb(self, names: list[str], spans: list[list]) -> None:
        """Append spans recorded by another process, re-indexing names and parents."""
        name_ids = []
        for name in names:
            if name not in self.names:
                self.names.append(name)
            name_ids.append(self.names.index(name))
        offset = len(self.spans)
        for name_id, start, end, parent, op_id, raised in spans:
            self.spans.append((name_ids[name_id], start, end,
                               parent + offset if parent >= 0 else -1, op_id, raised))

    def dump(self, path) -> None:
        """Write gzipped JSON lines: the span names, then one
        [name id, start ns, end ns, parent index, op id, raised] per span."""
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "fields": ["name", "start_ns", "end_ns", "parent",
                                                "op", "error"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import fluxring

        modules = {layer: importlib.import_module(f"fluxring.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
                elif (inspect.isclass(value)
                      and not issubclass(value, (enum.Enum, BaseException))):
                    self._wrap_class(f"{layer}.{attr}", value)
        for module in [fluxring, *modules.values()]:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _CLASS_DUNDERS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{prefix}.{attr}", raw)
            else:
                continue  # properties and plain class attributes
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(names: list[str], spans: list[tuple]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    A layer's calls are its entry spans (parent absent or in another
    layer); busy time sums the entry spans, children included; self time
    sums every span of the layer minus the time of its direct children.
    """
    layer_of = [name.split(".", 1)[0] for name in names]
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    calls = dict.fromkeys(LAYERS, 0)
    busy_ns = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    per_name: dict[str, list[int]] = {}   # span name -> [count, total ns]
    parse_ns = 0
    cli_cmd_self_ns = 0
    for index, (name_id, start, end, parent, _, raised) in enumerate(spans):
        layer = layer_of[name_id]
        duration = end - start
        self_ns[layer] += duration - child_ns[index]
        is_entry = parent < 0 or layer_of[spans[parent][0]] != layer
        if is_entry:
            calls[layer] += 1
            busy_ns[layer] += duration
            errors[layer] += raised
        key = names[name_id]
        # quadrature_norm calls quadrature_overlap: count that time once
        if not (key == "oracle.quadrature_overlap" and parent >= 0
                and names[spans[parent][0]] == "oracle.quadrature_norm"):
            count_total = per_name.setdefault(key, [0, 0])
            count_total[0] += 1
            count_total[1] += duration
        if key == "cli.main":
            parse_ns += duration
        elif key.startswith("cli.cmd_"):
            cli_cmd_self_ns += duration - child_ns[index]
            if parent >= 0 and names[spans[parent][0]] == "cli.main":
                parse_ns -= duration

    def count(key: str) -> int:
        return per_name.get(key, [0, 0])[0]

    def total_ms(*keys: str) -> float:
        return sum(per_name.get(k, [0, 0])[1] for k in keys) / 1e6

    def mean(unit_ns: float, *keys: str) -> float:
        n = sum(count(k) for k in keys)
        return total_ms(*keys) * 1e6 / unit_ns / n if n else 0.0

    scans = count("oracle.superposition_block_scan")
    scan_errors = sum(1 for name_id, *_, raised in spans
                      if raised and names[name_id] == "oracle.superposition_block_scan")
    out: dict[str, float] = {
        "cli.calls": count("cli.main"),
        "cli.parse_ms": parse_ns / 1e6,
        "cli.self_ms": cli_cmd_self_ns / 1e6,
    }
    for layer in ("ring", "harmonic", "params", "darkstate"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_ms"] = busy_ns[layer] / 1e6
    out.update({
        "superposition.calls": calls["superposition"],
        "superposition.busy_ms": busy_ns["superposition"] / 1e6,
        "superposition.self_ms": self_ns["superposition"] / 1e6,
        "superposition.gen_eig_2x2.us_per_call": mean(1e3, "superposition.gen_eig_2x2"),
        "superposition.superpose.us_per_call": mean(
            1e3, "superposition.superpose_ring", "superposition.superpose_harmonic"),
        "superposition.feasibility_sweep.ms_per_call": mean(
            1e6, "superposition.feasibility_sweep"),
        "superposition.feasibility_boundary.ms_per_call": mean(
            1e6, "superposition.feasibility_boundary"),
        "superposition.errors": errors["superposition"],
        "oracle.block_scan.us_per_call": mean(1e3, "oracle.superposition_block_scan"),
        "oracle.block_scan.attempts": scans,
        "oracle.block_scan.certified_ratio": (scans - scan_errors) / scans if scans else 0.0,
        "oracle.hermitian_eigs.ms": total_ms("oracle.hermitian_eigs"),
        "oracle.radial_fd_spectrum.ms": total_ms("oracle.radial_fd_spectrum"),
        "oracle.ring_fd_spectrum.ms": total_ms("oracle.ring_fd_spectrum"),
        "oracle.quadrature.ms": total_ms("oracle.quadrature_norm",
                                         "oracle.quadrature_overlap"),
        "oracle.run_verification.ms": total_ms("oracle.run_verification"),
        "oracle.self_ms": self_ns["oracle"] / 1e6,
    })
    return out
