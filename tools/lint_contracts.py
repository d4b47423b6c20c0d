#!/usr/bin/env python
"""Repo-wide invariant lint: the cross-cutting contracts ruff can't see.

Four AST rules, each guarding an implicit contract between subsystems
that no single module's tests can enforce:

1. **packed-surface** -- lane models in ``repro/sim/batched.py`` drive
   memory state exclusively through the public
   :class:`~repro.memory.packed.PackedMemoryArray` column-helper surface
   (``read_lanes``/``write_lanes``/``spread``/``broadcast``/...): no
   private-attribute access on any object other than ``self``/``cls``.
   The plane-major layout (which bit holds plane *b* of lane *k*) stays
   behind ``PackedMemoryArray``: a model reaching into ``memory._lanes``
   or ``memory._replicate`` to place its own bits would hard-code that
   layout in one more place.

2. **picklable-payloads** -- ``repro/sim/pool.py`` and ``remote.py``
   build shard task tuples that cross process (and host) boundaries, so
   the modules must not define lambdas, nested functions or local
   classes: any of them leaking into a payload raises ``PicklingError``
   only at runtime, on the worker, under load.

3. **hook-flags** -- every :class:`~repro.memory.packed.LaneFaultModel`
   subclass that overrides a flag-gated hook must set the gate:
   ``settle`` -> ``settles``, ``clock`` -> ``timed``,
   ``transform_read`` -> ``transforms_reads``,
   ``group_write_conflicts`` -> ``maps_addresses``.  The replay loop
   consults the flag *instead of* probing for the method -- an unset
   flag means the override is dead code and the fault class silently
   under-detects.

4. **kind-registry** -- every ``kind`` a ``vector_semantics()``
   descriptor can carry (the string literals passed to
   ``VectorSemantics(...)`` in ``repro/faults/``) must have a lane
   model registered in ``repro/sim/batched.py``'s ``_MODELS``; and
   every kind ``repro/sim/campaign.py``'s ``_fits_geometry`` special-
   cases must be a real descriptor kind (no stale branches).

Run standalone (exit 0 clean / 1 findings)::

    python tools/lint_contracts.py

or import :func:`run` (the tests do).
"""

from __future__ import annotations

import ast
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: hook method -> the gate flag the replay loop consults.
HOOK_FLAGS = {
    "settle": "settles",
    "clock": "timed",
    "transform_read": "transforms_reads",
    "group_write_conflicts": "maps_addresses",
}

#: the root class defining the hooks (exempt from rule 3).
_ROOT_MODEL = "LaneFaultModel"


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _relative(path: str, root: str) -> str:
    return os.path.relpath(path, root)


# -- rule 1: packed-surface --------------------------------------------------


def check_packed_surface(path: str, root: str) -> list[str]:
    """No private-attribute access on non-self objects in batched.py."""
    findings = []
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr.startswith("__"):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            continue
        findings.append(
            f"{_relative(path, root)}:{node.lineno}: [packed-surface] "
            f"private attribute access '.{attr}' -- lane models must use "
            f"the public PackedMemoryArray column-helper surface"
        )
    return findings


# -- rule 2: picklable-payloads ----------------------------------------------


def check_picklable_payloads(path: str, root: str) -> list[str]:
    """No lambdas / nested defs / local classes in the sharding modules."""
    findings = []
    rel = _relative(path, root)
    tree = _parse(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            findings.append(
                f"{rel}:{node.lineno}: [picklable-payloads] lambda -- "
                f"shard task payloads must stay picklable"
            )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                if stmt is node:
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    findings.append(
                        f"{rel}:{stmt.lineno}: [picklable-payloads] "
                        f"{type(stmt).__name__} {stmt.name!r} nested in "
                        f"{node.name!r} -- closures/local classes cannot "
                        f"cross the worker boundary"
                    )
    return findings


# -- rule 3: hook-flags ------------------------------------------------------


def _class_assignments(cls: ast.ClassDef) -> set[str]:
    """Names assigned in a class body (incl. ``self.x = ...`` in methods)."""
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.FunctionDef):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    names.add(node.attr)
    return names


def _base_names(cls: ast.ClassDef) -> list[str]:
    out = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            out.append(base.id)
        elif isinstance(base, ast.Attribute):
            out.append(base.attr)
    return out


def check_hook_flags(path: str, root: str) -> list[str]:
    """Every overridden flag-gated hook sets its flag (module-local MRO)."""
    findings = []
    rel = _relative(path, root)
    tree = _parse(path)
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def is_model(name: str, seen: tuple = ()) -> bool:
        if name == _ROOT_MODEL:
            return True
        cls = classes.get(name)
        if cls is None or name in seen:
            return False
        return any(is_model(base, (*seen, name))
                   for base in _base_names(cls))

    def flags_set(name: str) -> set[str]:
        cls = classes.get(name)
        if cls is None:
            return set()
        names = _class_assignments(cls)
        for base in _base_names(cls):
            if base != _ROOT_MODEL:
                names |= flags_set(base)
        return names

    for name, cls in classes.items():
        if name == _ROOT_MODEL or not is_model(name):
            continue
        defined = {stmt.name for stmt in cls.body
                   if isinstance(stmt, ast.FunctionDef)}
        available_flags = flags_set(name)
        for hook, flag in HOOK_FLAGS.items():
            if hook in defined and flag not in available_flags:
                findings.append(
                    f"{rel}:{cls.lineno}: [hook-flags] {name} overrides "
                    f"{hook}() but never sets {flag} -- the replay loop "
                    f"gates on the flag, so the hook is dead code"
                )
    return findings


# -- rule 4: kind-registry ---------------------------------------------------


def _semantics_kinds(faults_dir: str) -> set[tuple[str, str, int]]:
    """``(kind, path, line)`` for every literal VectorSemantics kind."""
    kinds = set()
    for name in sorted(os.listdir(faults_dir)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(faults_dir, name)
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            func_name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if func_name != "VectorSemantics":
                continue
            kind_node = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "kind"), None)
            if isinstance(kind_node, ast.Constant) \
                    and isinstance(kind_node.value, str):
                kinds.add((kind_node.value, path, node.lineno))
    return kinds


def _model_keys(batched_path: str) -> set[str]:
    for node in _parse(batched_path).body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "_MODELS"
               for t in targets) and isinstance(value, ast.Dict):
            return {key.value for key in value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)}
    return set()


def _fits_geometry_literals(campaign_path: str) -> set[str]:
    for node in _parse(campaign_path).body:
        if isinstance(node, ast.FunctionDef) \
                and node.name == "_fits_geometry":
            body = node.body
            if body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # skip the docstring
            return {sub.value for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Constant)
                    and isinstance(sub.value, str)}
    return set()


def check_kind_registry(root: str) -> list[str]:
    findings = []
    batched = os.path.join(root, "src", "repro", "sim", "batched.py")
    campaign = os.path.join(root, "src", "repro", "sim", "campaign.py")
    faults = os.path.join(root, "src", "repro", "faults")
    kinds = _semantics_kinds(faults)
    model_keys = _model_keys(batched)
    if not model_keys:
        return [f"{_relative(batched, root)}:1: [kind-registry] "
                f"could not locate the _MODELS literal dict"]
    fits_literals = _fits_geometry_literals(campaign)
    kind_names = {kind for kind, _, _ in kinds}
    for kind, path, lineno in sorted(kinds):
        if kind not in model_keys:
            findings.append(
                f"{_relative(path, root)}:{lineno}: [kind-registry] "
                f"vector_semantics kind {kind!r} has no lane model in "
                f"batched._MODELS"
            )
    for literal in sorted(fits_literals - kind_names):
        findings.append(
            f"{_relative(campaign, root)}:1: [kind-registry] "
            f"_fits_geometry special-cases kind {literal!r} that no "
            f"vector_semantics() descriptor produces"
        )
    return findings


# -- driver ------------------------------------------------------------------


def run(root: str = REPO) -> list[str]:
    """All four rules over the repo at ``root``; returns the findings."""
    src = os.path.join(root, "src", "repro")
    findings: list[str] = []
    findings += check_packed_surface(
        os.path.join(src, "sim", "batched.py"), root)
    for module in ("pool.py", "remote.py"):
        findings += check_picklable_payloads(
            os.path.join(src, "sim", module), root)
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith(".py"):
                findings += check_hook_flags(
                    os.path.join(dirpath, name), root)
    findings += check_kind_registry(root)
    return findings


def main(argv: list[str] | None = None) -> int:
    root = (argv or [])[0] if argv else REPO
    findings = run(root)
    for finding in findings:
        print(finding)
    print(f"lint_contracts: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
