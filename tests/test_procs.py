"""procs, the one module of src/ that handles processes. It alone forks,
makes pipes, leaves by os._exit, sends signals or sets CPU affinity, and it
alone imports mmap or signal, which src/ read with ast (as
tests/test_unused_imports.py reads it) shows; and its fork helper's child
leaves by os._exit, whatever its body does."""
import ast
import os
from pathlib import Path

import pytest

from tribound import procs

SRC = Path(__file__).resolve().parents[1] / "src"
PROCESS_CALLS = {"fork", "pipe", "_exit", "kill", "sched_setaffinity"}
PROCESS_MODULES = {"mmap", "signal"}


def process_uses(source: str) -> list[str]:
    """`line: name` for each use or import of an os process function, and
    each import of mmap or signal, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append(f"{node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", *PROCESS_MODULES):
            found += [
                f"{node.lineno}: {node.module}.{alias.name}" for alias in node.names
                if node.module != "os" or alias.name in PROCESS_CALLS
            ]
        elif isinstance(node, ast.Import):
            found += [
                f"{node.lineno}: {alias.name}" for alias in node.names
                if alias.name in PROCESS_MODULES
            ]
    return sorted(found, key=lambda entry: int(entry.partition(":")[0]))


def test_one_module_forks_pins_and_signals():
    users = {
        path.stem: process_uses(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert [name for name, found in users.items() if found] == ["procs"], users


def test_process_uses_finds_each_call_and_import():
    source = (
        "import os, mmap\n"
        "from signal import SIGKILL\n"
        "from os import pipe, getpid\n"
        "pid = os.fork()\n"
        "os.sched_setaffinity(0, {0})\n"
        "os.sched_getaffinity(0)\n"
        "exit = os._exit\n"
    )
    assert process_uses(source) == [
        "1: mmap", "2: signal.SIGKILL", "3: os.pipe", "4: os.fork",
        "5: os.sched_setaffinity", "7: os._exit",
    ]


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_a_forked_child_leaves_by_exit_whatever_its_body_does(raises, capfd):
    """The child calls its body with the write end of the pipe and exits 0
    when the body returns, or 1 after sys.excepthook prints what it raised.
    It never returns into the caller, whose next line runs here alone."""
    parent = os.getpid()

    def body(fd):
        os.write(fd, b"x")
        if raises:
            raise RuntimeError("planted")

    child = procs.fork_child(body, procs.affinity())
    if os.getpid() != parent:
        # A child that returned here leaves with a status of its own.
        os._exit(3)
    try:
        assert os.read(child.ends[0], 2) == b"x"
        _, status = os.waitpid(child.pid, 0)
    finally:
        os.close(child.ends[0])
    assert os.waitstatus_to_exitcode(status) == int(raises)
    assert ("RuntimeError: planted" in capfd.readouterr().err) == raises
