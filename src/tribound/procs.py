"""The one module that forks, pins, or passes bytes between processes:
pin_to; fork_child, which forks verify's seed process and a run's second
process; and Drawer, that second process seen from the run: start or
next_chunk, hand (a block), wait (for the oldest block), collect (what it
sends back at the end) and close."""
from __future__ import annotations

import itertools
import math
import mmap
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

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


# The byte the run and its second process pass for a chunk (a slot handed
# back, a chunk drawn) and for a block (weights to record, their record
# done), and the one the run sends at the end, for what `finish` returns.
_CHUNK, _BLOCK, _END = b"c", b"b", b"e"


class Drawer:
    """A run's second process, seen from the run.

    The constructor maps, or raises: given `draw`, three slots of a chunk of
    observations (`chunk`) for the run's `ticks`; given `record`, two block
    buffers of `batch` ticks for each per-tick shape in `blocks`, and a
    header per buffer; and each array of `shared`, kept by name in shared.
    A run that draws calls next_chunk(0), which draws chunks 0 and 1 with
    `draw`, then forks the process, which draws each later chunk two ahead
    of the ticks; a run with aligned observations forks it by start(). The
    process calls record(*buffers, start, stop, policy) on each block handed
    to it, with each buffer cut to the block's ticks: a drawing run's policy
    TV, or an aligned run's whole recording, coordination and meta steps.
    collect() has it send back what `finish` returns there. It keeps to the
    first CPU of the run's mask, the one device interrupts most often go to,
    and the run to the others until close(): unpinned, a byte the run sends
    it can wake it on the ticks' CPU, where it preempts them. If the fork
    of a drawing run fails, each call does its work here, on the same bytes;
    an aligned run whose fork fails closes its drawer and records itself.
    """

    def __init__(
        self, *, policy_size: int, draw: Callable[[np.ndarray], None] | None = None,
        chunk: tuple[int, ...] = (), ticks: int = 0,
        record: Callable[..., None] | None = None, batch: int = 0,
        blocks: Sequence[tuple[int, ...]] = (),
        shared: Mapping[str, tuple[tuple[int, ...], type]] = {},
        finish: Callable[[], Any] | None = None,
    ) -> None:
        specs = [] if draw is None else [((3, *chunk), np.dtype(float))]
        if record is not None:
            head = np.dtype([("start", np.int64), ("stop", np.int64),
                             ("policy", float, (policy_size,))])
            specs += [((2, batch, *shape), np.dtype(float)) for shape in blocks]
            specs.append(((2,), head))
        specs += [(shape, np.dtype(dtype)) for shape, dtype in shared.values()]
        # Rounded up to 8 bytes, so that an array after a bool array is aligned.
        sizes = [-(-math.prod(size) * dtype.itemsize // 8) * 8 for size, dtype in specs]
        mapping = mmap.mmap(-1, sum(sizes))
        offsets = itertools.accumulate(sizes, initial=0)
        arrays = iter([
            np.ndarray(size, dtype, mapping, offset)
            for (size, dtype), offset in zip(specs, offsets)
        ])
        self.slots = None if draw is None else next(arrays)
        self.blocks = self.heads = None
        if record is not None:
            self.blocks = tuple(itertools.islice(arrays, len(blocks)))
            self.heads = next(arrays)
        self.shared = dict(zip(shared, arrays))
        self.draw, self.record, self.finish = draw, record, finish
        self.chunks = 0 if draw is None else -(-ticks // chunk[0])
        self.name = "the recording process" if draw is None else "the observation draw process"
        self.work = "the record" if draw is None else "the policy TV"
        # The run's mask before the fork; the bytes of each kind the process
        # sent and the run has not taken; the blocks handed over and recorded.
        self.child: Child | None = None
        self.mask: set[int] | None = None
        self.received = {_CHUNK: 0, _BLOCK: 0}
        self.handed = self.recorded = 0

    def start(self) -> bool:
        """Fork the process, keep it to the first CPU of the run's mask and
        the run to the others; False if the fork failed."""
        mask = affinity()
        self.child = fork_child(self._serve, mask[:1], pipes=2)
        if self.child is not None:
            self.mask = pin_to(mask[1:])
        return self.child is not None

    def next_chunk(self, index: int) -> np.ndarray:
        """The slot that holds chunk `index`, asked for in order from 0."""
        slot = self.slots[index % 3]
        if index == 0:
            self.draw(slot)
            self.draw(self.slots[1])
            self.start()
        elif index > 1 and self.child is None:
            self.draw(slot)
        elif self.child is not None:
            if index > 1:
                self._receive(_CHUNK, f"chunk {index}")
            # The slot of chunk index - 1 is free for chunk index + 2.
            if index + 2 < self.chunks:
                self._send(_CHUNK)
        return slot

    def hand(self, start: int, stop: int, policy: np.ndarray) -> tuple[np.ndarray, ...]:
        """Have ticks start..stop-1 recorded under `policy`, their arrays in
        the block buffers the last call returned (each buffer's first at
        first); return the buffers the next block goes to, which wait(1)
        frees."""
        buffers = tuple(block[self.handed % 2] for block in self.blocks)
        if self.child is None:
            self.record(*(buffer[: stop - start] for buffer in buffers), start, stop, policy)
            return buffers
        head = self.heads[self.handed % 2]
        head["start"], head["stop"], head["policy"] = start, stop, policy
        self._send(_BLOCK)
        self.handed += 1
        return tuple(block[self.handed % 2] for block in self.blocks)

    def wait(self, left: int = 0) -> None:
        """Wait until at most `left` of the blocks handed over are not yet
        recorded, taking the oldest first."""
        while self.handed - self.recorded > left:
            head = self.heads[self.recorded % 2]
            start, stop = int(head["start"]), int(head["stop"])
            self._receive(_BLOCK, f"{self.work} of ticks {start} to {stop - 1}")
            self.recorded += 1

    def collect(self) -> Any:
        """What `finish` returns in the process, once it has recorded every
        block handed to it."""
        self.wait()
        self._send(_END)
        with os.fdopen(self.child.ends[0], "rb", closefd=False) as sent:
            try:
                return pickle.load(sent)
            except Exception:
                raise TriboundError(f"{self.name} ended before it sent its trace") from None

    def close(self) -> None:
        """End and reap the process, if one was forked, and give the run back
        the affinity mask it held. The run's functions are dropped too: they
        hold the run, which holds this drawer, and that cycle would keep both
        and the mapping alive until the collector runs."""
        self.draw = self.record = self.finish = None
        if self.child is not None:
            child, self.child = self.child, None
            child.end()
            if self.mask is not None:
                pin_to(self.mask)

    def _send(self, order: bytes) -> None:
        """Hand the process a slot, a block or the end. One it can no longer
        take, as it has ended (EPIPE), is dropped: the run's next wait on it
        meets the end of its pipe and raises the TriboundError naming what it
        waits for."""
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
                raise TriboundError(f"{self.name} ended before {what}")
            self.received[byte] += 1
        self.received[kind] -= 1

    def _serve(self, ready: int, orders: int) -> None:
        """The process: while a slot is free and the horizon holds another
        chunk, draw it there and say so; else take the run's next order, a
        slot handed back, a block to record or the end, and say when the
        block is recorded, until the run closes its pipe or, at the end,
        until what `finish` returns is sent."""
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
            if order == _END:
                with os.fdopen(ready, "wb", closefd=False) as sent:
                    pickle.dump(self.finish(), sent)
                return
            head = self.heads[recorded % 2]
            start, stop = int(head["start"]), int(head["stop"])
            # The policy is copied out, so that it is laid out as the run's own is.
            buffers = (block[recorded % 2][: stop - start] for block in self.blocks)
            self.record(*buffers, start, stop, head["policy"].copy())
            os.write(ready, _BLOCK)
            recorded += 1
