"""What a run leaves behind: descendant processes, shm segments, rusage.

The benchmark must return only after every process it started has ended
(pool workers, the signature shard pool and the ``multiprocessing``
resource tracker that shared memory starts) and must leave no named
segment in ``/dev/shm``.  These helpers find such leftovers so a run can
count them as failures, then reap them so the run still ends clean.
"""

from __future__ import annotations

import os
import resource
import signal
import time


def descendants(root: int | None = None) -> list[tuple[int, str]]:
    """``(pid, state)`` of every live or zombie descendant of *root*."""
    root = os.getpid() if root is None else root
    children: dict[int, list[tuple[int, str]]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stat:
                text = stat.read()
        except OSError:  # the process ended while we looked
            continue
        fields = text[text.rfind(")") + 2:].split()
        children.setdefault(int(fields[1]), []).append((int(entry), fields[0]))
    found: list[tuple[int, str]] = []
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child[0])
    return sorted(found)


def resource_tracker_pid() -> int | None:
    """The pid of this process's ``multiprocessing`` resource tracker."""
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """Stop the resource tracker (if running) and wait for it to exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def stray_processes() -> list[tuple[int, str]]:
    """Descendants other than the resource tracker (checked after each op)."""
    tracker = resource_tracker_pid()
    return [child for child in descendants() if child[0] != tracker]


def reap(strays: list[tuple[int, str]], timeout: float = 5.0) -> None:
    """Kill and wait for leftover processes so the run still ends clean."""
    for pid, _state in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid, _state in strays:
        while time.monotonic() < deadline:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # not our child: init reaps it
                break
            if done:
                break
            time.sleep(0.01)


def new_segments(baseline: set[str]) -> list[str]:
    """Named repro segments that appeared since *baseline* was taken."""
    from repro.experiments.shm import list_segments

    return sorted(set(list_segments()) - baseline)


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
