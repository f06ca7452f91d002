"""Helpers shared by the benchmark driver, its roles and its self-tests.

Stdlib only, so every role process (driver, daemon host, load
generator, set-up probe) can import it before it imports the program.
All stamps use ``time.monotonic()``, which reads the system-wide
``CLOCK_MONOTONIC`` on Linux, so stamps from different processes
compare directly.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import time
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile before it may be named.
BEYOND = 10


class Result:
    """What one run reports: metric values and the operation tally."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []


# -- statistics ---------------------------------------------------------

def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-quantile of ``n`` samples."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    return max(1, math.ceil(q * n - 1e-9))


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie beyond the ``q``-quantile of ``values``."""
    return len(values) - _rank(len(values), q)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q < 1``), or
    ``None`` when fewer than :data:`BEYOND` samples lie beyond it."""
    xs = sorted(values)
    if not xs or beyond(xs, q) < BEYOND:
        return None
    return xs[_rank(len(xs), q) - 1]


def named_percentile(values: Sequence[float], q: float, what: str) -> float:
    """:func:`percentile`, raising when the samples cannot name it."""
    value = percentile(values, q)
    if value is None:
        raise RuntimeError(
            f"{what}: {len(values)} samples cannot name p{q * 100:g} "
            f"(need {min_samples(q)})")
    return value


def min_samples(q: float) -> int:
    """The fewest samples for which :func:`percentile` names ``q``."""
    n = 1
    while percentile(range(n), q) is None:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


# -- machine speed ------------------------------------------------------
#
# Other tenants of the machine change how fast it runs Python, in spells
# from a second to minutes and by up to 1.7x (a fixed loop timed every
# second of three minutes took 13.5 to 24 ms).  Within a run the fastest
# pass sees through the short spells; a spell covering a whole run moves
# every time in it.  So a replay run also times a fixed calibration
# kernel after every measurement, which is benchmark code no program
# change can move, and reports its times scaled to the speed at which
# the kernel takes CAL_REF_S seconds.  The raw times are printed beside
# them.  On ten runs in a drifting spell this cut the spread of the
# replay timings from 20-28% to 10-13%.

#: Seconds the calibration kernel takes at the reference speed.
CAL_REF_S = 0.015

_CAL_LINES = [
    f"{1.6e9 + i * 0.37:.6f} c{i % 97:03d}n{i % 13} kernel: event "
    f"{i * 7919 % 1000} state {'up' if i % 3 else 'down'}"
    for i in range(20_000)
]


def _kernel() -> int:
    """Split, parse and count log-like lines: the kind of work the
    program does, in the benchmark's own code."""
    counts: Dict[tuple, int] = {}
    rows = []
    for line in _CAL_LINES:
        stamp, node, rest = line.split(" ", 2)
        key = (node, rest[-4:])
        counts[key] = counts.get(key, 0) + 1
        rows.append((float(stamp), node, rest))
    return len(rows) + len(counts)


def calibrate(reps: int = 3) -> float:
    """CPU seconds the calibration kernel takes now, fastest of
    ``reps``; the collector stays off so the caller's heap cannot
    slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(reps):
            start = time.process_time()
            _kernel()
            best = min(best, time.process_time() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


def speed_scale(cals: Sequence[float]) -> float:
    """Factor taking a time measured in a run to the reference speed:
    the run's fastest calibration against :data:`CAL_REF_S`."""
    return CAL_REF_S / min(cals)


# -- open-loop pacing ---------------------------------------------------

def due_time(t0: float, index: int, rate: float) -> float:
    """When line ``index`` falls due on a fixed-rate schedule from ``t0``."""
    return t0 + index / rate


def lines_due(t0: float, now: float, rate: float, total: int) -> int:
    """How many lines of a ``total``-line schedule are due at ``now``
    (line 0 falls due at ``t0`` itself)."""
    if now < t0:
        return 0
    return min(total, int((now - t0) * rate) + 1)


# -- output oracle ------------------------------------------------------

def count_mismatches(reference: Counter, observed: Counter) -> int:
    """Predictions missing from, or differing in, ``observed``.  A
    prediction with a wrong field is one missing plus one extra entry,
    so it counts once."""
    missing = sum((reference - observed).values())
    extra = sum((observed - reference).values())
    return max(missing, extra)


def completing_lines(
    nodes: Sequence[str],
    times: Sequence[float],
    predictions: Iterable[Tuple[str, float]],
) -> List[int]:
    """Index of the chain-completing line of each prediction.

    ``predictions`` yields ``(node, flagged_at)`` in stream order; a
    prediction's flag time is the event time of the line that completed
    its chain, on the same node.  Repeated ``(node, time)`` pairs (a
    duplicated record) are claimed in stream order, each at most once.
    Raises ``KeyError`` for a prediction no unclaimed line can complete.
    """
    where: Dict[tuple, List[int]] = {}
    for i, key in enumerate(zip(nodes, times)):
        where.setdefault(key, []).append(i)
    claimed: Dict[tuple, int] = {}
    out: List[int] = []
    for node, flagged_at in predictions:
        key = (node, flagged_at)
        slots = where[key]
        k = claimed.get(key, 0)
        if k >= len(slots):
            raise KeyError(key)
        claimed[key] = k + 1
        out.append(slots[k])
    return out


def visible_times(
    stamps: Sequence[Sequence[float]],
    per_shard_counts: Sequence[int],
) -> List[List[Optional[float]]]:
    """When each shard's j-th prediction became visible.

    ``stamps`` are ``(time, shard, cumulative predictions)`` taken as
    acked chunks fold into the daemon's registry.  A shard processes its
    lines in arrival order, so its j-th prediction (1-based) is visible
    at the first stamp whose cumulative count reaches j.  Entries stay
    ``None`` for predictions that never became visible.
    """
    out: List[List[Optional[float]]] = [
        [None] * n for n in per_shard_counts]
    filled = [0] * len(per_shard_counts)
    for t, shard, cumulative in sorted(tuple(s) for s in stamps):
        shard = int(shard)
        row = out[shard]
        upto = min(int(cumulative), len(row))
        while filled[shard] < upto:
            row[filled[shard]] = t
            filled[shard] += 1
    return out


# -- tracing ------------------------------------------------------------

class Spans:
    """In-memory span recorder.

    A span is ``[id, trace, parent, name, start, end]``; spans of one
    pass, or of one chain-completing line, share the ``trace`` id (a
    root span's trace is its own id).  Nothing is written until
    :meth:`write` runs at the end of the run.
    """

    def __init__(self):
        self.records: List[list] = []

    def add(self, name: str, start: float, end: Optional[float] = None,
            parent: Optional[int] = None) -> int:
        """Record a span; one still open gets its end from :meth:`end`."""
        sid = len(self.records)
        trace = self.records[parent][1] if parent is not None else sid
        self.records.append([sid, trace, parent, name, start, end])
        return sid

    def end(self, sid: int, when: float) -> None:
        self.records[sid][5] = when

    def self_times(self, root: Optional[int] = None) -> Dict[str, float]:
        """Seconds per span name, each span minus its direct children;
        restricted to ``root``'s subtree when given."""
        keep = None
        if root is not None:
            keep = {root}
            for rec in self.records:  # children follow their parents
                if rec[2] in keep:
                    keep.add(rec[0])
        child_time: Dict[int, float] = {}
        for rec in self.records:
            if rec[2] is not None and (keep is None or rec[0] in keep):
                child_time[rec[2]] = (
                    child_time.get(rec[2], 0.0) + rec[5] - rec[4])
        out: Dict[str, float] = {}
        for rec in self.records:
            if keep is not None and rec[0] not in keep:
                continue
            own = rec[5] - rec[4] - child_time.get(rec[0], 0.0)
            out[rec[3]] = out.get(rec[3], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, trace, parent, name, start, end in self.records:
                fh.write(json.dumps({
                    "id": sid, "trace": trace, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# -- process accounting -------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[bytes]:
    with open(f"/proc/{pid}/stat", "rb") as fh:
        return fh.read().rsplit(b")", 1)[1].split()


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of ``pid`` so far."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        return _stat_fields(pid)[0] != b"Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def group_members(pgid: int) -> List[int]:
    """Live processes in process group ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid and fields[0] != b"Z":
            out.append(int(entry))
    return out


def end_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait for every process of a group to end, killing stragglers."""
    deadline = time.monotonic() + timeout
    while group_members(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def wait_child(proc, timeout: float) -> Tuple[int, float]:
    """Reap a ``subprocess.Popen`` child; returns ``(returncode, peak
    RSS in MiB)`` from the child's own resource usage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0
