"""List the functions and methods of src/cosegal that tier-1 never calls.

Runs the tier-1 tests (tests/) in this process under sys.setprofile and
records every code object that starts to run.  Every function and method
defined in src/cosegal, nested ones included, must be among them;
lambdas, comprehensions and generator expressions are not counted.
Prints each uncalled one as path:line qualified.name and exits 1 if there
is any.  If the tests themselves fail, it exits with pytest's status and
lists nothing.

    python tools/uncalled.py

It takes about three times as long as plain tier-1.
"""

import inspect
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cosegal")


def _key(code):
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name)


def defined_functions():
    """{key: printable name} for every def in the package's modules."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
            # module and class bodies run without fresh locals
            if code.co_name.startswith("<") or \
                    not code.co_flags & inspect.CO_NEWLOCALS:
                continue
            qualname = getattr(code, "co_qualname", code.co_name)
            out[_key(code)] = "%s:%d %s" % (
                os.path.relpath(path, ROOT), code.co_firstlineno, qualname)
    return out


def main():
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    if status != 0:
        print("tier-1 failed; no call profile", file=sys.stderr)
        return int(status)
    called = {_key(code) for code in started}
    uncalled = sorted(name for key, name in defined_functions().items()
                      if key not in called)
    for name in uncalled:
        print(name)
    print("%d uncalled functions and methods in src/cosegal"
          % len(uncalled))
    return 1 if uncalled else 0


if __name__ == "__main__":
    sys.exit(main())
