"""Every public top-level function, class and constant of src/qdlab is reached by `qd`,
by the acceptance tests or by the benchmark, or is a reference that the tests compare
against.

The check is static, with `ast`, and goes by name. The roots are the names in the
module-level code of src/qdlab (which registers the experiments and runs when `qd`
imports the package) other than the names its assignments bind; the names in
tests/test_acceptance.py and in perfbench/workloads.py; the `module.function` spans
of BENCHMARK.json's per-layer metrics; and TEST_REFERENCES.
A definition is reached when a root or a reached definition names it; a name stands
for every src definition of that name, so the check never flags code that is reached.
"""

import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qdlab"

# Kept only because tests compare other code against them.
TEST_REFERENCES = {
    ("discrimination", "superdense_overlap"),
    ("metrology", "fig1_sin_theta"),
    ("phase_estimation", "dft_matrix"),
    ("qmath", "basis_state"),
    ("qmath", "bloch_to_density"),
    ("search", "grover_hamiltonian"),
    ("search", "uniform_state"),
    ("spectral_arc", "maxarg"),
    ("spectral_arc", "minarg"),
}


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def named(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name that `tree` mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def bound(node: ast.stmt) -> set[str]:
    """The names that a top-level assignment binds; none for any other statement."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def src_definitions():
    """(module, name) -> node of every top-level def, class and assigned name in
    src/qdlab, and the names that the rest of each module's top level mentions."""
    definitions, module_level = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[path.stem, node.name] = node
            else:
                definitions |= {(path.stem, name): node for name in bound(node)}
                module_level |= named(node) - bound(node)
    return definitions, module_level


def test_every_public_definition_is_reached():
    definitions, roots = src_definitions()
    by_name = {}
    for key in definitions:
        by_name.setdefault(key[1], set()).add(key)
    roots |= named(parse(ROOT / "tests" / "test_acceptance.py"))
    roots |= named(parse(ROOT / "perfbench" / "workloads.py"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = {tuple(m["name"].split(".")[:2]) for m in benchmark["per_layer"]}
    todo = [key for name in roots for key in by_name.get(name, ())]
    todo += (spans | TEST_REFERENCES) & definitions.keys()
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo += [k for name in named(definitions[key]) for k in by_name.get(name, ())]
    unreached = sorted(k for k in definitions.keys() - reached if not k[1].startswith("_"))
    assert unreached == []


def test_every_test_reference_is_defined_and_used_by_a_test():
    definitions, _ = src_definitions()
    tests = set().union(*(named(parse(p)) for p in (ROOT / "tests").glob("test_*.py")
                          if p.name != pathlib.Path(__file__).name))
    stale = sorted(k for k in TEST_REFERENCES if k not in definitions or k[1] not in tests)
    assert stale == []
