"""fn(*args) in a forked child process, for `train --task both` and large
rankings. Safe because xmhash runs no other thread: OpenBLAS is pinned to one."""

import ctypes
import os
import pickle
import signal

PR_SET_PDEATHSIG = 1  # linux/prctl.h


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process once its parent dies, so that a
    killed command leaves no child running (where libc has prctl)."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is None:
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the call
        os._exit(1)


class Forked:
    """fn(*args) running in a forked child process.

    The child pickles fn's return value, or the exception fn raised,
    through a pipe, then ends with os._exit, so it never returns into the
    caller's frames or flushes their stdio buffers. result() reads the pipe
    to EOF and reaps the child; close() kills and reaps a child that
    result() has not reaped.
    """

    def __init__(self, label: str, fn, *args):
        self.label = label
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(read_fd)
                _die_with_parent(parent)
                try:
                    value = fn(*args)
                except BaseException as exc:
                    value = exc
                with open(write_fd, "wb") as fh:
                    pickle.dump(value, fh)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")
        self.status = None

    def result(self):
        """Once the child ends: fn's return value. Raises the exception fn
        raised, or ChildProcessError if the child ended without a result."""
        payload = self.pipe.read()
        self.pipe.close()
        self.status = os.waitpid(self.pid, 0)[1]
        try:
            value = pickle.loads(payload)
        except Exception:
            code = os.waitstatus_to_exitcode(self.status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(
                f"{self.label}: child process ended without a result ({how})") from None
        if isinstance(value, BaseException):
            raise value
        return value

    def close(self) -> None:
        self.pipe.close()
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)  # harmless if it has just ended
            self.status = os.waitpid(self.pid, 0)[1]
