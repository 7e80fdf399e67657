"""Start, watch and stop one ``repro serve --store DIR`` process."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_SERVING = re.compile(r" on ([0-9.]+):([0-9]+) ")
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """``repro serve`` with its defaults, over one store directory.

    ``wrapper`` is a script that takes ``[*wrapper_args, "serve", ...]``
    and runs the CLI itself (the traced run uses ``traced_serve.py``);
    without one the server is ``python -m repro``.
    """

    def __init__(self, root: Path, store: Path, log: Path,
                 journal: bool = False, wrapper: Path | None = None,
                 wrapper_args: tuple[str, ...] = ()) -> None:
        self.root = root
        self.log = log
        entry = ["-m", "repro"] if wrapper is None \
            else [str(wrapper), *wrapper_args]
        self.argv = [sys.executable, "-u", *entry, "serve",
                     "--store", str(store)]
        if journal:
            self.argv.append("--journal")
        self.proc: subprocess.Popen | None = None

    def start(self, timeout_s: float = 120.0) -> tuple[str, int]:
        """Launch and wait for the ``serving ... on HOST:PORT`` line."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
            if env.get("PYTHONPATH") else src
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=env, stdout=out,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _SERVING.search(self.log.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not start: "
                           f"{self.log.read_text(errors='replace')[-2000:]}")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * _TICK_S

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; always reaps."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])
