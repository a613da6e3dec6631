"""Output checks in a child process that the benchmark starts, feeds and waits for.

    python3 perfbench/check_worker.py

The worker reads one JSON request a line on standard input (a job, its
exit code, its standard output and the path of its CSV), runs
``checks.check_job`` on it and answers one JSON line on standard output:
``{"ok": true}``, ``{"mismatch": "..."}`` for an output that fails its
check, or ``{"crash": "..."}`` for a check that raised anything else.  It
exits when its standard input closes.  The memory a check needs, such as a
parsed 361,201-row CSV, so stays out of the measured process's peak RSS.

``CheckWorker`` is the benchmark's end: a plain subprocess rather than a
multiprocessing pool, because a pool also starts a resource-tracker
process that nobody waits for and that outlives the benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
STOP_TIMEOUT_S = 30.0


class CheckCrashed(RuntimeError):
    """The check itself failed (not the job's output), or the worker died."""


class CheckWorker:
    """Context manager owning one worker process; the process has ended when it exits."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "check_worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
        )

    def check(self, job, code: int | None, stdout: str, out_path: str | None) -> str | None:
        """None when the output passes its check, else why it does not."""
        request = {
            "job": {"command": job.command, "options": list(job.options),
                    "config": job.config, "expect": job.expect},
            "code": code,
            "stdout": stdout,
            "out_path": out_path,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise CheckCrashed(f"check worker exited with code {self._proc.wait()}")
        answer = json.loads(line)
        if "crash" in answer:
            raise CheckCrashed(answer["crash"])
        return answer.get("mismatch")

    def close(self) -> None:
        """Close the worker's input, wait for it to end, and kill it if it does not."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> CheckWorker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    from checks import OutputMismatch, check_job
    from workloads import Job

    answers = sys.stdout
    sys.stdout = sys.stderr  # anything a check prints must not reach the answers
    for line in sys.stdin:
        request = json.loads(line)
        spec = request["job"]
        job = Job(spec["command"], tuple(spec["options"]), spec["config"], spec["expect"])
        try:
            check_job(job, request["code"], request["stdout"], request["out_path"])
            answer = {"ok": True}
        except (OutputMismatch, OSError) as exc:
            answer = {"mismatch": str(exc) or type(exc).__name__}
        except Exception:
            answer = {"crash": traceback.format_exc()}
        answers.write(json.dumps(answer) + "\n")
        answers.flush()


if __name__ == "__main__":
    serve()
