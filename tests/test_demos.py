"""The narrative demos run to completion against the package under test,
the package's modules import only what they use, only the graph module
places a fixed component, and there only ``DecoratedGraph._places``,
only the core module states the parity of a degree, only the basis
record builder skips the record check, one router serves bases and
membership, only a graph basis reads the constraint table of one
degree, the command line writes a basis without building its classes,
validation reports without raising, each document rule is stated once,
no module keeps state beyond three bounded caches and one environment
read, and each mutant of the mutant table edits one place in the
package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equicoh
import mutants

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(equicoh.__file__).resolve().parent.parent)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_every_package_import_is_used():
    """Each name a module of the package imports (``__init__.py`` re-exports,
    so it is skipped) is read somewhere in that module."""
    unused = []
    for path in sorted(Path(equicoh.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_the_core_module_halves_a_degree():
    """Which parts a degree-k entry holds and their powers of the parameter
    are stated once, in ``core.py`` (``entry_parts`` and ``part_power``):
    no other module of the package has a ``% 2`` or ``// 2`` expression."""
    found = []
    for path in sorted(Path(equicoh.__file__).resolve().parent.glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                operand = node.right
            elif isinstance(node, ast.AugAssign):
                operand = node.value
            else:
                continue
            if (
                isinstance(node.op, (ast.Mod, ast.FloorDiv))
                and isinstance(operand, ast.Constant)
                and operand.value == 2
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_mpoly_module_divides():
    """The one division of two rationals is ``mpoly.ratio``, exact and an
    ``int`` where it can be: no other module of the package has a ``/`` or
    ``/=`` expression, so no quotient is computed a second way."""
    found = []
    for path in sorted(Path(equicoh.__file__).resolve().parent.glob("*.py")):
        if path.name == "mpoly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
    assert found == []


def test_the_constraint_rows_are_stated_without_a_fraction():
    """The table's factors and pole numerators are ``int``s over one
    denominator, so the functions that state and route its rules, and the
    rows read off it, call neither ``Fraction`` nor ``ratio``."""
    path = Path(equicoh.__file__).resolve().parent / "s1.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    integer = {"_constraint_table", "_localization_rules", "_route", "_rows"}
    bodies = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in integer
    ]
    assert sorted(node.name for node in bodies) == sorted(integer)
    found = [
        f"{body.name}:{node.lineno}"
        for body in bodies
        for node in ast.walk(body)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("Fraction", "ratio")
    ]
    assert found == []


def package_calls(name: str):
    """``(module file, call, enclosing function name or "<module>")`` for
    every call in the package of a function or attribute named ``name``."""
    for path in sorted(Path(equicoh.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
            ):
                continue
            scope = node
            while scope in parent and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parent[scope]
            yield path.name, node, getattr(scope, "name", "<module>")


def test_only_the_rows_and_membership_route_a_part():
    """One router serves bases and membership: the package calls
    ``s1._route`` only from ``_rows``, which reads a basis's rows off the
    table, and ``_class_obstructions``, which routes a class's parts."""
    found = sorted(f"{module}:{scope}" for module, _, scope in package_calls("_route"))
    assert found == ["s1.py:_class_obstructions", "s1.py:_rows"]


def test_only_a_graph_basis_reads_the_table_of_one_degree():
    """A graph has one constraint group, its full table, which every graph
    query reads but a basis: the package passes a degree to
    ``s1._constraint_table`` only from ``_groups``, which builds a graph
    basis's group, and every other call states the table of every degree."""
    found = sorted(
        f"{module}:{scope}"
        for module, node, scope in package_calls("_constraint_table")
        if len(node.args) > 2 or node.keywords
    )
    assert found == ["s1.py:_groups"]
    assert sorted({module for module, _, _ in package_calls("_constraint_table")}) == [
        "s1.py", "xray.py"
    ]


def test_a_class_is_checked_where_its_parts_are_read():
    """A class fixes what it addresses when it is built, so its addressing
    is checked on one path: the package calls ``s1._check_addressing`` only
    from ``_scaled_parts``, the one reader of a class's parts, and
    ``EquivariantClass`` compares by the dataclass's own ``__eq__``."""
    found = sorted(f"{module}:{scope}" for module, _, scope in package_calls("_check_addressing"))
    assert found == ["s1.py:_scaled_parts"]
    path = Path(equicoh.__file__).resolve().parent / "s1.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (body,) = [n.body for n in tree.body if getattr(n, "name", None) == "EquivariantClass"]
    assert "__post_init__" in [getattr(n, "name", None) for n in body]
    assert "__eq__" not in [getattr(n, "name", None) for n in body]


def test_only_the_basis_builder_skips_the_record_check():
    """``ComponentClass._trusted`` builds a record without the constructor's
    check, so its one caller is ``s1._class_from_sparse``, which builds each
    record from the slot layout: every other constructor, the class parser
    included, keeps the check."""
    found = [
        f"{module}:{scope}"
        for module, node, scope in package_calls("_trusted")
        if isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", getattr(node.func.value, "attr", None))
        == "ComponentClass"
    ]
    assert found == ["s1.py:_class_from_sparse"]


def test_the_command_line_writes_a_basis_without_building_its_classes():
    """``basis`` and ``xray-basis`` print the kernel vectors of
    ``s1._image_vectors`` directly, so ``cli.py`` calls none of the class
    builders: not ``image_basis``, ``image_basis_xray`` or
    ``_class_from_sparse``."""
    builders = {"image_basis", "image_basis_xray", "_class_from_sparse"}
    path = Path(equicoh.__file__).resolve().parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in builders
    ]
    assert found == []


def test_no_package_code_reads_a_class_component_by_key():
    """A library class holds only its nonzero components, so every reader
    goes through the absent-as-zero path (``EquivariantClass.restriction``
    or ``.components.get``): nothing in the package subscripts
    ``.components[...]``, which raises KeyError on an absent id."""
    found = []
    for path in sorted(Path(equicoh.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "components"
        ]
    assert found == []


def test_only_the_graph_module_places_a_component():
    """``s1`` and ``xray`` read where a component sits, and the extremal
    labels, off the valid graph: neither names ``momentum_span`` or
    ``resolve_self_intersections``, nor sorts by a ``.y`` attribute."""
    placing = {"momentum_span", "resolve_self_intersections"}
    found = []
    package = Path(equicoh.__file__).resolve().parent
    for name in ("s1.py", "xray.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            named = {getattr(node, field, None) for field in ("id", "attr", "name")}
            found += [f"{name}:{node.lineno} {hit}" for hit in sorted(named & placing)]
            if isinstance(node, ast.keyword) and node.arg == "key" and any(
                isinstance(n, ast.Attribute) and n.attr == "y" for n in ast.walk(node.value)
            ):
                found.append(f"{name}:{node.lineno} sorts by .y")
    assert found == []


def test_a_graph_places_each_component_once():
    """``DecoratedGraph._places`` is the one placement: no other function in
    ``graph.py`` compares ``lo``, ``hi``, ``.lowest`` or ``.highest`` with
    anything but each other (the degenerate-span check), or keys a dict by
    ``lo`` or ``hi``; validation, the extremal labels and resolution read
    each component's place off ``_places``."""
    tree = ast.parse((Path(equicoh.__file__).resolve().parent / "graph.py").read_text("utf-8"))
    names, attributes = {"lo", "hi"}, {"lowest", "highest"}

    def end(node) -> bool:
        return getattr(node, "id", None) in names or getattr(node, "attr", None) in attributes

    scope = {}  # node -> its innermost function: ast.walk reaches an outer one first
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            scope.update((node, function.name) for node in ast.walk(function))
    hits = []
    for node, name in scope.items():
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            placing = any(map(end, operands)) and not all(map(end, operands))
        else:
            placing = isinstance(node, ast.Dict) and any(k is not None and end(k) for k in node.keys)
        if placing:
            hits.append((node.lineno, name))
    assert any(name == "_places" for _, name in hits)
    assert [f"graph.py:{line} {name}" for line, name in sorted(hits) if name != "_places"] == []


def test_validation_reports_and_never_raises():
    """The validation bodies report every fault as a violation: none of them
    raises, or looks a component up through ``find``, which raises for an
    unknown id, since the shape check has reported what parse refuses."""
    bodies = {
        "graph.py": {"_graph_violations"},
        "xray.py": {"_xray_violations", "_validate_dim2_piece", "_validate_dim4_piece"},
    }
    package = Path(equicoh.__file__).resolve().parent
    checked, found = set(), []
    for name, functions in bodies.items():
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not (isinstance(function, ast.FunctionDef) and function.name in functions):
                continue
            checked.add(function.name)
            for node in ast.walk(function):
                if isinstance(node, ast.Raise):
                    found.append(f"{name}:{node.lineno} raise")
                elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
                ) in {"_find", "find"}:
                    found.append(f"{name}:{node.lineno} find")
    assert checked == set().union(*bodies.values())
    assert found == []


DOCUMENT_RULES = [
    "edge references an unknown id",
    "is not an isolated vertex",
    "piece references an unknown id",
    "needs at least one fixed component",
    "must be a positive integer",
    '"genus" must be a nonnegative integer',
    "expected a vector of",
    "expected a graph object",
    "exactly two fat vertices",
]


def test_each_document_rule_is_stated_once():
    """Parse raises and validation reports each document rule from its one
    statement, so each rule's words occur once in the package."""
    package = Path(equicoh.__file__).resolve().parent
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    assert {rule: text.count(rule) for rule in DOCUMENT_RULES} == dict.fromkeys(DOCUMENT_RULES, 1)


def test_the_cli_states_no_json_indentation():
    """Apart from docstrings and the body of ``_write``, no string constant
    in the CLI holds a line break followed by a space: the JSON indentation
    is stated once, by ``_write``, and every layout is cut from its text."""
    package = Path(equicoh.__file__).resolve().parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            exempt.add(id(node.body[0].value))
        if isinstance(node, ast.FunctionDef) and node.name == "_write":
            exempt.update(id(inner) for inner in ast.walk(node))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_write" for node in tree.body)
    found = [
        f"cli.py:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "\n " in node.value
        and id(node) not in exempt
    ]
    assert found == []


def test_three_functions_are_cached_and_one_reads_the_environment():
    """No global state: ``functools.cache`` and ``lru_cache`` decorate
    exactly ``core.entry_parts``, ``cli._basis_frame`` and
    ``cli._build_parser``, and are named nowhere else, and ``os.environ``
    is read only in ``cli._max_degree``."""
    cached, environment = [], []
    for path in sorted(Path(equicoh.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope, decorating = {}, {}
        # ast.walk goes outside in, so an inner function's name wins
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope.update(dict.fromkeys(map(id, ast.walk(node)), node.name))
                for decorator in node.decorator_list:
                    decorating.update(dict.fromkeys(map(id, ast.walk(decorator)), node.name))
        for node in ast.walk(tree):
            name = getattr(node, "attr", getattr(node, "id", None))
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if name in ("cache", "lru_cache"):
                cached.append(f"{path.stem}.{decorating.get(id(node), f'line {node.lineno}')}")
            elif name in ("environ", "getenv"):
                environment.append(f"{path.stem}.{scope.get(id(node), '<module>')}")
    assert sorted(cached) == ["cli._basis_frame", "cli._build_parser", "core.entry_parts"]
    assert environment == ["cli._max_degree"]


def test_every_mutant_edits_one_place_in_the_package():
    """Each mutant of ``tests/mutants.py`` replaces a text that occurs
    exactly once under ``src/equicoh``, in the file it names, so the table
    cannot rot unseen when code moves; and the tests it names exist."""
    package = Path(equicoh.__file__).resolve().parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    for mutant in mutants.MUTANTS:
        counts = {name: text.count(mutant.text) for name, text in sources.items()}
        assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}, mutant.name
        assert mutant.replacement != mutant.text
        assert mutant.tests and all((mutants.ROOT / path).is_file() for path in mutant.tests)
