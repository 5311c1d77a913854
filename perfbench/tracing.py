"""Timing wrappers around the package's layer entry points, and their spans.

A traced operation installs a wrapper on every attribute that callers look
up (``spatialqkd.protocol.attack_batch``, ``HexAlphabet.nearest_cell``,
``spatialqkd.cli.run_session``, ...).  A wrapper records a span (name,
start, end, parent) and, where the layer has one, a work counter.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are sequential, so
children never overlap.

The package itself is not modified: wrappers are removed after each traced
operation, which leaves the untraced operations of the same run untouched.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from spatialqkd import adversary, alphabet, cli, config, infotheory, model
from spatialqkd import optics, protocol

#: Per-layer metric name -> span whose self time it reports.  ``op`` is the
#: benchmark's own span around one operation; its self time is the part of
#: the operation that no layer span covers.
TIME_METRICS = {
    "alphabet.nearest_cell_s": "alphabet.nearest_cell",
    "model.probability_table_s": "model.probability_table",
    "config.validate_s": "config.validate",
    "alphabet.build_s": "alphabet.build",
    "adversary.attack_batch_s": "adversary.attack_batch",
    "adversary.evidence_scores_s": "adversary.evidence_scores",
    "protocol.measure_batch_s": "protocol.measure_batch",
    "protocol.session_self_s": "protocol.run_session",
    "protocol.log_csv_s": "protocol.log_csv",
    "adversary.eve_csv_s": "adversary.eve_csv",
    "optics.map_csv_s": "optics.map_csv",
    "optics.map_pgm_s": "optics.map_pgm",
    "alphabet.table_csv_s": "alphabet.table_csv",
    "model.intensity_grid_s": "model.intensity_grid",
    "optics.propagate_chain_s": "optics.propagate_chain",
    "optics.analytic_amplitude_s": "optics.analytic_amplitude",
    "alphabet.bin_probabilities_s": "alphabet.bin_probabilities",
    "infotheory.security_report_s": "infotheory.security_report",
    "infotheory.security_crossover_s": "infotheory.security_crossover",
    "cli.simulate_s": "cli.simulate",
    "cli.maps_s": "cli.maps",
    "cli.security_s": "cli.security",
    "trace.unattributed_s": "op",
}

#: Per-layer metric name -> (counter, unit), reported as a per-op median.
COUNT_METRICS = {
    "alphabet.nearest_cell_points": ("nearest_cell_points", "count"),
    "model.polygon_integrals": ("polygon_integrals", "count"),
    "adversary.attacked": ("attacked", "count"),
    "protocol.rounds": ("rounds", "count"),
    "adversary.eve_csv_rows": ("eve_csv_rows", "count"),
    "cli.out_bytes": ("out_bytes", "B"),
    "optics.lens_steps": ("lens_steps", "count"),
    "optics.fft_bytes_computed": ("fft_bytes", "B"),
    "infotheory.info_ab_calls": ("info_ab_calls", "count"),
}

#: Per-layer metric name -> (numerator, denominator, unit), both summed over
#: the traced operations.  A name ending in ``_s`` is a span self time.
RATIO_METRICS = {
    "alphabet.nearest_cell_points_per_s":
        ("nearest_cell_points", "alphabet.nearest_cell_s", "1/s"),
    "adversary.resent_ratio": ("resent", "attacked", "ratio"),
    "protocol.sift_ratio": ("sifted", "rounds", "ratio"),
    "protocol.key_ratio": ("key_symbols", "sifted", "ratio"),
    "protocol.log_csv_rows_per_s":
        ("log_csv_rows", "protocol.log_csv_s", "1/s"),
}

UNITS = {name: "s" for name in TIME_METRICS}
UNITS.update({name: unit for name, (_, unit) in COUNT_METRICS.items()})
UNITS.update({name: unit for name, (_, _, unit) in RATIO_METRICS.items()})
UNITS["trace.overhead_ratio"] = "ratio"
PER_LAYER = tuple(UNITS)

#: Bytes one complex128 FFT reads and writes on an n x n grid, from the
#: array size alone (cache traffic is not measured).
_COMPLEX_BYTES = 16


def _count_nearest(counts, args, kwargs, result):
    counts["nearest_cell_points"] += len(result[0])


def _count_polygons(counts, args, kwargs, result):
    counts["polygon_integrals"] += result.shape[0]


def _count_attack(counts, args, kwargs, result):
    counts["attacked"] += int(result.attacked.sum())
    counts["resent"] += int((result.attacked & ~result.dropped).sum())


def _count_session(counts, args, kwargs, result):
    stats = result.stats
    counts["rounds"] += stats.rounds
    counts["sifted"] += stats.sifted
    counts["key_symbols"] += stats.key_alice_length


def _count_log(counts, args, kwargs, result):
    counts["log_csv_rows"] += len(args[0])


def _count_eve_csv(counts, args, kwargs, result):
    counts["eve_csv_rows"] += args[1].shape[0]


def _count_lens(counts, args, kwargs, result):
    counts["lens_steps"] += 1
    counts["fft_bytes"] += 2 * _COMPLEX_BYTES * result.samples.size


def _count_calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


#: (owner, attribute, span name or None for a counter only, counter or None)
TARGETS = (
    (config.ExperimentConfig, "validate", "config.validate", None),
    (config, "build_hex_alphabet", "alphabet.build", None),
    (alphabet.HexAlphabet, "nearest_cell", "alphabet.nearest_cell",
     _count_nearest),
    (alphabet, "bin_probabilities", "alphabet.bin_probabilities", None),
    (alphabet.ProbabilityMap, "to_csv", "alphabet.table_csv", None),
    (model.GaussianModel, "probability_table", "model.probability_table",
     None),
    (model, "gaussian_polygon_integral", None, _count_polygons),
    (model.GaussianModel, "intensity_grid", "model.intensity_grid", None),
    (protocol, "attack_batch", "adversary.attack_batch", _count_attack),
    (adversary, "evidence_scores", "adversary.evidence_scores", None),
    (protocol, "_measure_batch", "protocol.measure_batch", None),
    (protocol, "run_session", "protocol.run_session", _count_session),
    (cli, "run_session", "protocol.run_session", _count_session),
    (protocol.SessionLog, "to_csv", "protocol.log_csv", _count_log),
    (cli, "eve_log_to_csv", "adversary.eve_csv", _count_eve_csv),
    (optics.IntensityMap, "to_csv", "optics.map_csv", None),
    (optics.IntensityMap, "to_pgm", "optics.map_pgm", None),
    (optics, "propagate_chain", "optics.propagate_chain", None),
    (optics, "_lens_step", None, _count_lens),
    (optics, "analytic_amplitude", "optics.analytic_amplitude", None),
    (cli, "security_report", "infotheory.security_report", None),
    (cli, "security_crossover", "infotheory.security_crossover", None),
    (infotheory, "info_ab", None, _count_calls("info_ab_calls")),
    (cli._COMMANDS, "simulate", "cli.simulate", None),
    (cli._COMMANDS, "maps", "cli.maps", None),
    (cli._COMMANDS, "security", "cli.security", None),
)


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Spans and counters of the traced operations of one run."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op_counts: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def _wrap(self, original, name, counter):
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                span_id = len(self.spans)
                parent = self._stack[-1]
                self.spans.append(None)
                self._stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[span_id] = (self._op, span_id, parent, name,
                                           start, end)
            if counter is not None:
                counter(self._counts, args, kwargs, result)
            return result
        return wrapper

    def run(self, op, extra_counts=None):
        """Run one operation with every wrapper installed; return its result."""
        self._op += 1
        self._counts = defaultdict(float)
        for owner, attr, name, counter in TARGETS:
            original = _get(owner, attr)
            self._saved.append((owner, attr, original))
            _set(owner, attr, self._wrap(original, name, counter))
        root = len(self.spans)
        self.spans.append(None)
        self._stack = [root]
        start = time.perf_counter()
        try:
            result = op()
        finally:
            end = time.perf_counter()
            self.spans[root] = (self._op, root, -1, "op", start, end)
            while self._saved:
                owner, attr, original = self._saved.pop()
                _set(owner, attr, original)
        if extra_counts:
            for key, value in extra_counts(result).items():
                self._counts[key] += value
        self.op_counts.append(dict(self._counts))
        return result, end - start

    def self_times(self) -> list[dict[str, float]]:
        """Per traced operation: span name -> summed self time."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child[parent] += end - start
        out = [defaultdict(float) for _ in self.op_counts]
        for op, span_id, _, name, start, end in self.spans:
            out[op][name] += end - start - child[span_id]
        return out

    def metrics(self, traced_s: list[float],
                untraced_s: list[float]) -> dict[str, float]:
        """Every per-layer metric; layers this workload never calls read 0."""
        selves = self.self_times()
        values: dict[str, float] = {}
        for metric, span in TIME_METRICS.items():
            values[metric] = statistics.median(s.get(span, 0.0) for s in selves)
        for metric, (key, _) in COUNT_METRICS.items():
            values[metric] = statistics.median(
                c.get(key, 0.0) for c in self.op_counts)
        totals: dict[str, float] = defaultdict(float)
        for counts in self.op_counts:
            for key, value in counts.items():
                totals[key] += value
        for metric, span in TIME_METRICS.items():
            totals[metric] = sum(s.get(span, 0.0) for s in selves)
        for metric, (num, den, _) in RATIO_METRICS.items():
            values[metric] = totals[num] / totals[den] if totals[den] else 0.0
        values["trace.overhead_ratio"] = (statistics.median(traced_s)
                                          / statistics.median(untraced_s))
        return values

    def write(self, path: str) -> None:
        """Write every span as one JSON line: op, id, parent, name, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
