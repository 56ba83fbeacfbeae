"""The one module that forks, pins, or passes bytes between processes:
pin_to; fork_child, which forks verify's seed process and a run's draw
process; and Drawer, the draw process seen from the run: next_chunk, hand
(a block), wait (for the oldest block) and close."""
from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import TriboundError


def affinity() -> list[int]:
    """This process's affinity mask, sorted; empty on a platform without one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return sorted(affinity(0)) if affinity else []


def pin_to(cpus: Iterable[int]) -> set[int] | None:
    """Keep this process to `cpus` and return the mask it held, which
    pin_to(mask) gives back. If the kernel refuses the mask (an OSError, as
    EINVAL when a CPU has left the cpuset), the process stays on the mask it
    held and this returns None: a pin that fails is no pin."""
    try:
        held = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
    except OSError:
        return None
    return held


@dataclass(frozen=True)
class Child:
    """A forked process and this process's ends of its pipes."""

    pid: int
    ends: tuple[int, ...]

    def end(self) -> None:
        """Kill and reap the process, then close its pipes, which it never sees broken."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        for fd in self.ends:
            os.close(fd)


def fork_child(body: Callable[..., None], cpus: Iterable[int], pipes: int = 1) -> Child | None:
    """Fork a process that keeps to `cpus` (pin_to), calls body with its
    ends of `pipes` pipes and leaves by os._exit, so that nothing it holds
    is flushed and its caller's stack never unwinds there; an exception in
    body goes to sys.excepthook and exit status 1. The first pipe carries
    bytes to this process, the second from it. If a pipe or the fork fails
    (no process to spare), every pipe made is closed and this returns None."""
    fds: list[int] = []
    try:
        for _ in range(pipes):
            fds.extend(os.pipe())
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    ours, theirs = fds[0::3], fds[1:3]
    if pid:
        for fd in theirs:
            os.close(fd)
        return Child(pid, tuple(ours))
    status = 1
    try:
        pin_to(cpus)
        for fd in ours:
            os.close(fd)
        body(*theirs)
        status = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


# The byte the run and its draw process pass for a chunk (a slot handed back,
# a chunk drawn) and for a block (weights to record, their policy TV done).
_CHUNK, _BLOCK = b"c", b"b"


class Drawer:
    """A run's draw process, seen from the run.

    The constructor maps, or raises: three slots of a chunk of observations
    (`shape`) and, given `record`, two block buffers of `batch` ticks'
    weights, the policy TV of the run's `ticks` (tv) and a header per buffer.
    next_chunk(0) draws chunks 0 and 1 with `draw`, then forks the process,
    which draws each later chunk two ahead of the ticks and calls
    record(block, start, stop, policy) on each block handed to it. It keeps
    to the first CPU of the run's mask, the one device interrupts most often
    go to, and the run to the others until close(): unpinned, a byte the run
    sends it can wake it on the ticks' CPU, where it preempts them. If the
    fork fails, each call does its work here, on the same bytes.
    """

    def __init__(
        self, shape: tuple[int, ...], ticks: int, draw: Callable[[np.ndarray], None],
        record: Callable[[np.ndarray, int, int, np.ndarray], None] | None,
        batch: int, policy_size: int,
    ) -> None:
        specs = [((3, *shape), np.dtype(float))]
        if record is not None:
            head = np.dtype([("start", np.int64), ("stop", np.int64),
                             ("policy", float, (policy_size,))])
            specs += [((2, batch, *shape[2:]), np.dtype(float)),
                      ((ticks,), np.dtype(float)), ((2,), head)]
        sizes = [math.prod(size) * dtype.itemsize for size, dtype in specs]
        shared = mmap.mmap(-1, sum(sizes))
        offsets = itertools.accumulate(sizes, initial=0)
        self.slots, *recording = [
            np.ndarray(size, dtype, shared, offset)
            for (size, dtype), offset in zip(specs, offsets)
        ]
        self.blocks, self.tv, self.heads = recording or (None, None, None)
        self.draw, self.record = draw, record
        self.chunks = -(-ticks // shape[0])
        # The run's mask before the fork; the bytes of each kind the process
        # sent and the run has not taken; the blocks handed over and recorded.
        self.child: Child | None = None
        self.mask: set[int] | None = None
        self.received = {_CHUNK: 0, _BLOCK: 0}
        self.handed = self.recorded = 0

    def next_chunk(self, index: int) -> np.ndarray:
        """The slot that holds chunk `index`, asked for in order from 0."""
        slot = self.slots[index % 3]
        if index == 0:
            self.draw(slot)
            self.draw(self.slots[1])
            mask = affinity()
            self.child = fork_child(self._serve, mask[:1], pipes=2)
            if self.child is not None:
                self.mask = pin_to(mask[1:])
        elif index > 1 and self.child is None:
            self.draw(slot)
        elif self.child is not None:
            if index > 1:
                self._receive(_CHUNK, f"chunk {index}")
            # The slot of chunk index - 1 is free for chunk index + 2.
            if index + 2 < self.chunks:
                self._send(_CHUNK)
        return slot

    def hand(self, start: int, stop: int, policy: np.ndarray) -> np.ndarray:
        """Have the policy TV of ticks start..stop-1 recorded under `policy`,
        their weights in the block buffer the last call returned (blocks[0]
        at first); return the buffer the next block goes to, which wait(1)
        frees."""
        block = self.blocks[self.handed % 2]
        if self.child is None:
            self.record(block[: stop - start], start, stop, policy)
            return block
        head = self.heads[self.handed % 2]
        head["start"], head["stop"], head["policy"] = start, stop, policy
        self._send(_BLOCK)
        self.handed += 1
        return self.blocks[self.handed % 2]

    def wait(self, left: int = 0) -> None:
        """Wait until at most `left` of the blocks handed over are not yet
        recorded, taking the oldest first."""
        while self.handed - self.recorded > left:
            head = self.heads[self.recorded % 2]
            start, stop = int(head["start"]), int(head["stop"])
            self._receive(_BLOCK, f"the policy TV of ticks {start} to {stop - 1}")
            self.recorded += 1

    def close(self) -> None:
        """End and reap the process, if one was forked, and give the run back
        the affinity mask it held. The run's functions are dropped too: they
        hold the run, which holds this drawer, and that cycle would keep both
        and the mapping alive until the collector runs."""
        self.draw = self.record = None
        if self.child is not None:
            child, self.child = self.child, None
            child.end()
            if self.mask is not None:
                pin_to(self.mask)

    def _send(self, order: bytes) -> None:
        """Hand the process a slot or a block. One it can no longer take, as
        it has ended (EPIPE), is dropped: the run's next wait on it meets the
        end of its pipe and raises the TriboundError naming what it waits for."""
        try:
            os.write(self.child.ends[1], order)
        except BrokenPipeError:
            pass

    def _receive(self, kind: bytes, what: str) -> None:
        """Take the process's next byte of this kind, a chunk drawn or a
        block recorded, counting those of the other kind that come first."""
        while not self.received[kind]:
            byte = os.read(self.child.ends[0], 1)
            if not byte:
                raise TriboundError(f"the observation draw process ended before {what}")
            self.received[byte] += 1
        self.received[kind] -= 1

    def _serve(self, ready: int, orders: int) -> None:
        """The draw process: while a slot is free and the horizon holds
        another chunk, draw it there and say so; else take the run's next
        order, a slot handed back or a block to record, and say when the
        block is recorded, until the run closes its pipe."""
        # Chunk 0 is being read and chunk 1 is drawn; slot 2 is free.
        drawn, free, recorded = 2, 1, 0
        while True:
            if free and drawn < self.chunks:
                self.draw(self.slots[drawn % 3])
                os.write(ready, _CHUNK)
                drawn, free = drawn + 1, free - 1
                continue
            order = os.read(orders, 1)
            if not order:
                return
            if order == _CHUNK:
                free += 1
                continue
            head = self.heads[recorded % 2]
            start, stop = int(head["start"]), int(head["stop"])
            # The policy is copied out, so that it is laid out as the run's own is.
            block = self.blocks[recorded % 2][: stop - start]
            self.record(block, start, stop, head["policy"].copy())
            os.write(ready, _BLOCK)
            recorded += 1
