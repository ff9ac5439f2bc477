"""The execution census's line tracer, loaded by every Python process that
finds this directory on ``PYTHONPATH`` (``tools/census.py`` puts it there).

It does nothing unless ``REPRO_CENSUS_DIR`` names a directory.  Then it
records, with ``sys.settrace``, every line that runs in a code object under
``REPRO_CENSUS_SRC`` and writes them to ``<dir>/<pid>-<random>.json`` when the
process ends: at ``atexit``, and from ``os._exit`` too, which a forked
``multiprocessing`` worker leaves through without running ``atexit``.  A
code object stops being traced once every line it has has run.
"""

import atexit
import json
import os
import sys
import threading

_DIR = os.environ.get("REPRO_CENSUS_DIR")
_SRC = os.environ.get("REPRO_CENSUS_SRC", "")

if _DIR and _SRC:
    #: code object -> (its file, its lines, the lines not yet run); ``None``
    #: for code outside the traced tree
    _codes = {}

    def _local(frame, event, arg):
        if event == "line":
            _codes[frame.f_code][2].discard(frame.f_lineno)
        return _local

    def _global(frame, event, arg):
        code = frame.f_code
        entry = _codes.get(code, False)
        if entry is False:
            entry = None
            path = os.path.abspath(code.co_filename)
            if path.startswith(_SRC):
                lines = {line for _, _, line in code.co_lines() if line}
                entry = (path, frozenset(lines), set(lines))
            _codes[code] = entry
        if entry is None or not entry[2]:
            return None
        return _local

    def _dump():
        ran = {}
        for entry in list(_codes.values()):
            if entry is not None:
                done = entry[1] - entry[2]
                if done:
                    ran.setdefault(entry[0], set()).update(done)
        name = os.path.join(_DIR, f"{os.getpid()}-{os.urandom(6).hex()}.json")
        with open(name, "w") as out:
            json.dump({path: sorted(lines) for path, lines in ran.items()}, out)

    _exit = os._exit

    def _dump_then_exit(status):
        try:
            _dump()
        finally:
            _exit(status)

    os._exit = _dump_then_exit
    atexit.register(_dump)
    threading.settrace(_global)
    sys.settrace(_global)
