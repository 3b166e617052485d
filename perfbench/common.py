"""Paths and child-process settings shared by the benchmark's modules."""

from __future__ import annotations

import os
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Devices in the world the ``service`` workload serves.
DEVICES = 4096


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + prior if prior else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env
