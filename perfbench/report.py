"""What one phase of a run measured, and how it is printed.

The end-to-end metrics are the same five on every workload; what an
"operation" is differs per workload (see README.md):

* ``setup_s``      median set-up time over the set-ups made in the run
* ``p50_ms``       median latency of one operation
* ``p90_ms``       90th percentile of the same
* ``ops_per_s``    operations completed correctly per second of the timed phase
* ``peak_rss_mb``  peak resident memory of the process that runs the program
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

from perfbench.stats import percentile

E2E = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The run could not produce a result (not a wrong answer: a broken run)."""


@dataclass
class Outcome:
    """One phase of a run: its end-to-end figures and its correctness gate."""

    workload: str
    setups_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)  # of operations completed correctly
    completed: int = 0
    duration_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)     # correctness-gate failures
    lines: list = field(default_factory=list)        # extra human-readable lines
    layer: dict = field(default_factory=dict)        # inputs for per-layer metrics

    @property
    def correct(self) -> bool:
        return not self.problems

    def e2e(self) -> dict:
        """name -> (value, unit, samples); raises BenchError if a figure lacks samples."""
        out = {"setup_s": (median(self.setups_s), "s", len(self.setups_s))}
        for name, q in (("p50_ms", 0.5), ("p90_ms", 0.9)):
            value, n = percentile(self.latencies_s, q)
            if value is None:
                raise BenchError(f"{name}: only {n} samples, too few beyond the percentile")
            out[name] = (value * 1e3, "ms", n)
        if self.duration_s <= 0 or self.completed == 0:
            raise BenchError("no operation completed in the timed phase")
        out["ops_per_s"] = (self.completed / self.duration_s, "1/s", self.completed)
        out["peak_rss_mb"] = (self.peak_rss_mb, "MB", 1)
        return out

    def print_human(self, label: str) -> None:
        print(f"[{self.workload}{label}] correctness gate: "
              f"{'PASS' if self.correct else 'FAIL'}; attempted {self.attempted}, "
              f"failed {self.failed} (failed_ratio {self.failed / max(1, self.attempted):.4f})")
        for problem in self.problems[:20]:
            print(f"  gate: {problem}")
        for name, (value, unit, n) in self.e2e().items():
            print(f"  {name:<12} {value:12.4f} {unit:<4} (n={n})")
        for line in self.lines:
            print(f"  {line}")


def latency_line(label: str, samples_s: list) -> str:
    """p50/p90/p99 of *samples_s* in ms, each only where the sample rule allows."""
    parts = []
    for tag, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        value, n = percentile(samples_s, q)
        parts.append(f"{tag}={'n/a' if value is None else f'{value * 1e3:.3f}ms'}")
    return f"{label}: {' '.join(parts)} (n={len(samples_s)})"
