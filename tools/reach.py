"""List the phcnet functions that no command enters.

    PYTHONPATH=src python tools/reach.py

Runs tools/digest.py's run set under a profile hook, and after it ``inspect``
on a checkpoint, an ``eval`` without ``--stage`` (so the model's config picks
the stage) and a ``train`` with a ``--set`` override.  Prints, sorted and one
per line as ``module.qualname``, every function and method written in
phcnet's source that none of these entered, and every nested function or
lambda that none of them entered while the function around it ran (so an
unused backward rule inside a used op shows).  Comprehensions and generator
expressions are left out.  tests/test_reach.py holds the list of functions
kept on purpose; any other name printed here is unused.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

import phcnet
from digest import cli, run_set


COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def functions() -> dict[tuple[str, int], tuple[str, tuple[str, int] | None]]:
    """``module.qualname`` of every phcnet function, method, nested function
    and lambda, with the key of the function around it (None for a function
    or method), by the file and first line of its code."""
    found = {}
    for path in sorted(Path(phcnet.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"phcnet.{path.stem}")
        stack = [(compile(path.read_text(), module.__file__, "exec"), None)]
        while stack:
            outer, around = stack.pop()
            for code in outer.co_consts:
                if not isinstance(code, CodeType):
                    continue
                key = code.co_filename, code.co_firstlineno
                if not code.co_flags & inspect.CO_NEWLOCALS:
                    stack.append((code, around))  # a class body holds its methods
                    continue
                stack.append((code, key))
                if code.co_name not in COMPREHENSIONS:
                    found[key] = f"{path.stem}.{code.co_qualname}", around
    return found


def commands(root: Path) -> None:
    for _ in run_set(root):
        pass
    checkpoint = root / "two-view" / "model.ckpt"
    cli("inspect", "--checkpoint", checkpoint)
    cli("eval", "--checkpoint", checkpoint, "--manifest", root / "single" / "manifest.json")
    cli("train", "--config", root / "two-view" / "config.json", "--stage", "two-view",
        "--out", root / "override.ckpt", "--set", "train.max_epochs=1")


def entered(root: Path) -> set[tuple[str, int]]:
    """File and first line of the code of every function that ``commands(root)``
    enters, in any thread it starts."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        commands(root)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


def main() -> None:
    found = functions()
    with tempfile.TemporaryDirectory() as tmp:
        seen = entered(Path(tmp))
    for name in sorted(name for key, (name, around) in found.items()
                       if key not in seen and (around is None or around in seen)):
        print(name)


if __name__ == "__main__":
    main()
