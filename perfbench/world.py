"""Pinning the world every workload runs in, and shared result types.

The benchmark imports the program from ``src/`` of the checkout it
sits in and nowhere else, refuses to run under any ``REPRO_*``
variable (several of them silently change the workload), and keeps
every file it or the program writes under ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: This run's temporary files (the program's too, through TMPDIR);
#: removed when the run ends.
TMP = OUT / "tmp" / str(os.getpid())


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


def refuse_repro_env(environ=os.environ) -> None:
    knobs = sorted(k for k in environ if k.startswith("REPRO_"))
    if knobs:
        raise BenchError(
            f"refusing to run with {', '.join(knobs)} set: REPRO_* "
            "variables change the workload; unset them"
        )


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and keep every
    temporary file inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = str(TMP)
    import repro  # noqa: F401 - fail here, not mid-workload

    if Path(repro.__file__).resolve().parents[1] != SRC:
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _src_digest() -> str:
    """sha256 over the program's Python sources (identifies the code
    when the checkout has no git metadata)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def world_info(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def same_as_oracle(final_values, captures, oracle) -> bool:
    """Committed final values and DFF captures equal the sequential
    oracle's (captures may arrive as JSON lists instead of tuples)."""
    if list(final_values) != list(oracle.final_values):
        return False
    if captures is None or oracle.committed_captures is None:
        return captures is None and oracle.committed_captures is None
    return [tuple(c) for c in captures] == [
        tuple(c) for c in oracle.committed_captures
    ]


@dataclass
class Metric:
    value: float
    unit: str
    #: Samples behind the value (jobs, passes, setups; 1 for a total).
    n: int
    note: str = ""
    #: Already at reference speed (set-ups, see hostspeed.at_reference).
    scaled: bool = False


@dataclass
class Report:
    """What one workload run measured."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Wrong results, non-repeating deterministic counts, refused jobs.
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: Reference samples taken between jobs (see hostspeed.py).
    host: HostSpeed = field(default_factory=HostSpeed)

    def put(self, name: str, value: float, unit: str, n: int, note: str = "",
            scaled: bool = False) -> None:
        self.metrics[name] = Metric(value, unit, n, note, scaled)

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def scale_to_reference(self, factor: float) -> None:
        """Turn every host time (``s``, ``us``) and rate (``1/s``) into
        its value at the reference host speed."""
        for metric in self.metrics.values():
            if metric.scaled:
                continue
            if metric.unit in ("s", "us"):
                metric.value *= factor
            elif metric.unit == "1/s":
                metric.value /= factor
