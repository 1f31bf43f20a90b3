"""Shared pieces of the benchmark: hermetic environment, statistics,
cold-start timing and the in-memory span recorder.

Nothing here imports numpy or the program at module level, because
``run.py`` must set the environment (thread caps, kernel backend, cost
profile location) before either is imported.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space the benchmark owns (each run removes its own
#: subdirectory); ignored by git.
WORK = ROOT / ".perfbench_work"
#: Default location of the per-run result files read by ``compare.py``.
RESULTS = ROOT / ".perfbench_results"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def threads_per_process() -> int:
    """BLAS threads for each process the benchmark runs.

    At most two processes compute at once (the benchmark and the
    server, or the benchmark alone), so half the cores each keeps the
    total at or below ``nproc``.
    """
    return max(1, (os.cpu_count() or 1) // 2)


def hermetic_env() -> Dict[str, str]:
    """Environment every benchmark process runs under.

    The cost profile points at a benchmark-owned path that never holds
    a profile, so an earlier ``repro calibrate`` on the host cannot
    change the kernel tile or the planner's choices.
    """
    threads = str(threads_per_process())
    env = {
        "REPRO_COST_PROFILE": str(WORK / "no-profile" / "cost_profile.json"),
        "XDG_CACHE_HOME": str(WORK / "xdg-cache"),
        "REPRO_KERNEL_BACKEND": "numpy",
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "NUMEXPR_NUM_THREADS": threads,
        "VECLIB_MAXIMUM_THREADS": threads,
        "PYTHONHASHSEED": "0",
    }
    path = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def apply_hermetic_env() -> None:
    os.environ.update(hermetic_env())
    profile = Path(os.environ["REPRO_COST_PROFILE"])
    if profile.exists():
        profile.unlink()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_workdir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float], beyond: int = 10) -> Dict[str, float]:
    """Highest nearest-rank percentile with ``beyond`` samples above it.

    Returns the value, the percentile it sits at and the sample count.
    With ``beyond`` or fewer samples no such percentile exists; the
    maximum is returned and marked with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": math.nan, "percentile": math.nan, "samples": 0}
    rank = max(1, n - beyond)  # 1-based rank with `beyond` samples after it
    if n <= beyond:
        rank = n
    return {
        "value": float(ordered[rank - 1]),
        "percentile": 100.0 * rank / n,
        "samples": n,
    }


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    import statistics

    if len(values) < 2:
        v = float(values[0]) if values else math.nan
        return [v, v, v]
    return [float(x) for x in statistics.quantiles(values, n=4)]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# cold starts
# ----------------------------------------------------------------------
_IMPORT_PROBE = (
    "import repro\n"
    "from repro.planner import active_profile\n"
    "print('ready', active_profile().source, flush=True)\n"
)


def time_cold_import(env: Dict[str, str]) -> Dict[str, object]:
    """Wall seconds from spawning a fresh interpreter until ``repro`` is
    imported and its cost profile loaded, seen from the parent."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or not proc.stdout.startswith("ready"):
        raise RuntimeError(f"cold import failed: {proc.stderr.strip()}")
    return {"seconds": elapsed, "profile_source": proc.stdout.split()[1]}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
#: ``prctl`` option making a process the reaper of orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's descendants (Linux).

    A grandchild whose parent exits first — the resource tracker a
    server process starts for shared memory, say — is then reparented
    here instead of to init, so :func:`stop_children` can wait for it.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def stop_children(grace: float = 5.0) -> None:
    """Stop and reap every child process before the benchmark exits.

    ``multiprocessing``'s resource tracker, started by the parallel
    join's shared memory, would otherwise outlive this process; it is
    stopped the way ``multiprocessing`` itself does. Any other child
    (an adopted orphan, a server left by an error) gets ``grace``
    seconds to exit, is then killed, and is waited for.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except (ChildProcessError, OSError):
            pass
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for pid in _child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            while True:
                os.waitpid(-1, 0)
        except ChildProcessError:
            return


# ----------------------------------------------------------------------
# span recorder
# ----------------------------------------------------------------------
class Recorder:
    """In-memory spans recorded from the benchmark's own files.

    A span is a name, start, end, parent id, a trace id shared by the
    spans of one operation, and attributes.  Spans stay in memory until
    :meth:`write`.  ``program_reported`` spans carry a duration the
    program measured itself (``JoinStats.kernel_seconds``), placed
    inside their parent's interval.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._next_id = 1

    def _new(self, name: str, parent: Optional[int], trace_id, attrs) -> dict:
        span = {
            "id": self._next_id,
            "parent": parent,
            "trace": trace_id,
            "name": name,
            "start": None,
            "end": None,
            "attrs": attrs,
        }
        self._next_id += 1
        return span

    @contextmanager
    def span(self, name: str, trace_id=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = parent["trace"]
        span = self._new(name, parent["id"] if parent else None, trace_id, attrs)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, parent=None, trace_id=None,
            **attrs) -> dict:
        """Record a span whose interval was measured elsewhere."""
        if parent is not None and trace_id is None:
            trace_id = parent["trace"]
        span = self._new(name, parent["id"] if parent else None, trace_id, attrs)
        span["start"], span["end"] = start, end
        self.spans.append(span)
        return span

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus what children cover."""
        children: Dict[int, List[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            covered = _union_length(
                (c["start"], c["end"]) for c in children.get(span["id"], [])
            )
            duration = span["end"] - span["start"]
            out.setdefault(span["name"], []).append(max(0.0, duration - covered))
        return out

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, default=float) + "\n")


def _union_length(intervals: Iterable) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
