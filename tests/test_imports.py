"""Static checks on imports, with the standard library's ``ast``: a
deletion must not leave behind an import that nothing uses, the profile
module must stay free of fields and grids, a profile must hold its values
alone, and the CLI must run checks only through verify's token table."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gausym"
# the package's __init__ imports names only to export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(ROOT.joinpath("tests").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Every name the module reads, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_rearrange_is_a_pure_profile_module():
    imported = set()
    for node in ast.walk(_tree(PACKAGE / "rearrange.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not imported & {".fields", ".gaussian", "gausym.fields", "gausym.gaussian"}


def test_a_profile_holds_its_values_alone():
    # one profile form: the validating constructor takes the values alone,
    # no method stores anything else on a profile, and no weighted sort
    # builds one on knots of its own
    import gausym

    profile = next(node for node in ast.walk(_tree(PACKAGE / "rearrange.py"))
                   if isinstance(node, ast.ClassDef) and node.name == "Profile")
    init = next(node for node in profile.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert [arg.arg for arg in init.args.args] == ["self", "values"]
    stored = {target.attr for node in ast.walk(profile) if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Attribute)}
    assert stored == {"values"}
    assert not hasattr(gausym, "lebesgue_rearrangement")


def test_only_the_analysis_samples_grid_cells():
    # outside the grid's own module, cell representatives are read in
    # verify (the analysis and its error message) and nowhere else
    readers = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and node.attr in ("representatives", "rows"):
                readers.add(path.name)
    assert readers <= {"gaussian.py", "verify.py"}


def test_cli_dispatches_through_the_check_table():
    # the CLI runs checks only through verify's token table: it imports no
    # check function and no convergence study, and its tokens are the table's
    from gausym import cli, verify

    names = _imported(_tree(PACKAGE / "cli.py"))
    assert not [n for n in names if n.startswith("check_") or n == "convergence_study"]
    assert cli.CHECK_TOKENS == tuple(verify.CHECKS)
    assert list(verify.CHECKS) == ["uno", "dos", "norm", "mt", "interval", "orlicz", "converge"]


# The package's only dataclasses, each with the reason it stays one.  A
# frozen dataclass generates its methods through ``exec`` when its module
# is imported, about a millisecond each, and every CLI run pays for it;
# every other record is a NamedTuple or a slotted class.
DATACLASSES = {
    ("fields.py", "ScalarField"): "perfbench/tracing.py rebuilds a field with dataclasses.replace",
    ("gaussian.py", "GaussianGrid"): "an assignment raises FrozenInstanceError (test_immutable)",
    ("verify.py", "IneqReport"): "verify and the CLI tests rebuild a row with dataclasses.replace",
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_dataclasses_only_where_a_reason_is_named():
    found = {
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list))
    }
    assert found == set(DATACLASSES)
    # nor is one made by a call: dataclasses.make_dataclass
    for path in MODULES:
        assert "make_dataclass" not in path.read_text(encoding="utf-8"), path.name
