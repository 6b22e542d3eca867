"""List the compositions through a built tensor map left in src/cosegal.

A call `tensor_mor(...).then(h)` builds the tensor of the maps (a
Kronecker product on vectq and chq) only to compose it with h;
`base.tensor_then(mors, h)` gives the same map without building it, and
is the one way the package composes through a tensor. This walks the
syntax tree of every module of src/cosegal and finds each `then`
attribute call whose receiver is
- a call of `tensor_mor` (by that name or as an attribute, as in
  `base.tensor_mor`): `tensor_mor(...).then(h)`; or
- a `then` call whose argument is such a call:
  `x.then(tensor_mor(...)).then(h)`, which is
  `x.then(tensor_then(mors, h))`.
Prints each as path:line and exits 1 if there is any.

    python tools/tensor_mor_then.py
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cosegal")


def _is_tensor_mor_call(node):
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (isinstance(fn, ast.Name) and fn.id == "tensor_mor"
            or isinstance(fn, ast.Attribute) and fn.attr == "tensor_mor")


def _is_then_call(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "then")


def sites(source, path="<string>"):
    """The line numbers of the `tensor_mor(...).then(...)` and
    `x.then(tensor_mor(...)).then(...)` calls in a module's source."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source, path))
        if _is_then_call(node)
        and (_is_tensor_mor_call(node.func.value)
             or _is_then_call(node.func.value)
             and any(_is_tensor_mor_call(a) for a in node.func.value.args)))


def main():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as fh:
                found += ["%s:%d" % (os.path.relpath(path, ROOT), line)
                          for line in sites(fh.read(), path)]
    for site in found:
        print(site)
    print("%d compositions through a built tensor_mor in src/cosegal"
          % len(found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
