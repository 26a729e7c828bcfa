"""Start, observe and stop one transfer-daemon subprocess.

The untraced daemon is the real ``repro-gridftp serve`` entry point
(``python -m repro.cli serve``); the traced one is
``perfbench/launcher.py``, which wraps the layers' public functions and
then calls the same ``run_daemon``.  Either way the benchmark talks to
it only over its Unix socket and reads its CPU and peak RSS from
``/proc/<pid>``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.service.api import ServiceClient

__all__ = ["DaemonProcess", "cpu_seconds", "vm_hwm_kb"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: longest a daemon may take to boot, and to drain after SIGTERM
_BOOT_TIMEOUT_S = 60.0
_DRAIN_TIMEOUT_S = 60.0


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set (VmHWM) of ``pid`` in kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


class DaemonProcess:
    """One daemon subprocess: boot to ready, then drain on SIGTERM.

    Its socket lives in ``workdir``; a traced daemon writes its trace and
    span table there too.
    """

    def __init__(
        self,
        root: Path,
        workdir: Path,
        args: list[str],
        traced: bool = False,
    ) -> None:
        self.socket_path = str(workdir / "d.sock")
        serve = [
            "--socket", self.socket_path, *args,
        ]
        if traced:
            cmd = [
                sys.executable, str(root / "perfbench" / "launcher.py"),
                "--trace-out", str(workdir), "--", *serve,
            ]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve]
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._stderr = open(workdir / "daemon.err", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=env,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.boot_s = self._wait_ready(t0)

    def _wait_ready(self, t0: float) -> float:
        """Seconds from spawn until the socket answers ``health``."""
        deadline = t0 + _BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} during boot"
                )
            try:
                with ServiceClient(self.socket_path, timeout=5.0) as client:
                    if client.health().get("ok"):
                        return time.perf_counter() - t0
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        self.kill()
        raise RuntimeError("daemon did not become ready")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_s(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_kb(self) -> int:
        return vm_hwm_kb(self.pid)

    def drain(self) -> tuple[int, dict[str, Any]]:
        """SIGTERM, wait for exit; returns (exit code, drain report)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=_DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not drain in time") from None
        finally:
            self._stderr.close()
        report: dict[str, Any] = {}
        for line in out.decode(errors="replace").splitlines():
            line = line.strip()
            if line.startswith("{"):
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if obj.get("event") == "drain-report":
                    report = obj
        return self.proc.returncode, report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._stderr.closed:
            self._stderr.close()
