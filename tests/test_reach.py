"""Every phcnet function is entered by some command, except those kept on
purpose (tools/reach.py lists the rest), and so is every nested function or
lambda, a backward rule among them, whose outer function a command enters."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# what no command runs and still stays
KEPT = [
    "tensor.conv2d_naive",                                   # the conv oracle
    "phc.hamilton_weight",                                   # the quaternion oracle
    "autograd.grad_check", "autograd.GradReport.passed",     # the gradient oracle
    "autograd.mul", "autograd.nsum",                         # the grad checks' losses
    "metrics.auc_difference",                                # the claims' paired reports
    "cli._fail", "cli._exit_code_for",                       # error paths
]


def unreached(**run):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, **run)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_only_kept_functions_are_unreached():
    assert unreached() == sorted(KEPT)


def test_only_kept_functions_are_unreached_on_one_cpu():
    # with no conv worker, every conv still runs through the one chunk path
    cpu = min(os.sched_getaffinity(0))
    assert unreached(preexec_fn=lambda: os.sched_setaffinity(0, {cpu})) == sorted(KEPT)


def test_function_table_lists_nested_rules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    found = importlib.import_module("reach").functions()
    by_name = {name: (key, around) for key, (name, around) in found.items()}
    for nested, outer in [("autograd.conv2d.<locals>.rule", "autograd.conv2d"),
                          ("nn.BatchNorm2d.forward.<locals>.<lambda>",
                           "nn.BatchNorm2d.forward")]:
        assert by_name[nested][1] == by_name[outer][0]
        assert by_name[outer][1] is None
    assert not any(name.rsplit(".", 1)[-1] in ("<listcomp>", "<genexpr>")
                   for name in by_name)
