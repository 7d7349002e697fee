"""Only the request pool writes a pooled request's status.

``RequestPool.transition`` is the one way a pooled request's status
changes, which is what keeps the pool's per-status buckets equal to
``request.status``.  This test scans the source of every ``repro``
module for assignments to a ``.status`` attribute.  Outside
``serving/pool.py`` the only writes allowed are the two that demote a
request its pool has just evicted.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent

#: (module, function) of every ``.status`` write allowed outside the pool:
#: both reset the plain field of a request evicted just before.
ALLOWED = [
    ("serving/scheduler.py", "release_request"),
    ("serving/scheduler.py", "_retry_request"),
]


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _flatten(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


def _is_status_setattr(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "status")


def status_writes(tree):
    """Names of the functions (``<module>`` at top level) that assign a
    ``.status`` attribute in ``tree``, once per write."""
    writes = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if _is_status_setattr(node) or any(
                isinstance(target, ast.Attribute) and target.attr == "status"
                for targets in _targets(node)
                for target in _flatten(targets)):
            writes.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return writes


def test_status_is_written_only_by_the_pool():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module == "serving/pool.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend((module, scope) for scope in status_writes(tree))
    assert sorted(found) == sorted(ALLOWED)


def test_scanner_sees_every_write_form():
    source = """
r.status = 1
def admit(request):
    request.status = RUNNING
def demote(a, b):
    a.status, b.channel = WAITING, None
def annotated(request):
    request.status: int = 2
def dynamic(request):
    setattr(request, "status", DONE)
def reads_only(request):
    status = request.status
    request.state = request.status
"""
    assert status_writes(ast.parse(source)) == [
        "<module>", "admit", "demote", "annotated", "dynamic"]
