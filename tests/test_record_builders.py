"""Each Monte Carlo result record is built only by the function that computes it.

A ``SampleBatch`` carries the (seed, stream) its values were drawn on, and
that stream keys the bootstrap of ``estimate_lp``; an ``EmpiricalMoment`` or
``TailFrequency`` is an estimate of a batch.  A record built anywhere else can
pair values with a stream they were not drawn on, or echo a value its owner
already holds.  This walks each module's syntax tree and lists the functions
that call each record's constructor.
"""

import ast
from pathlib import Path

import pytest

import kronchaos

PACKAGE = Path(kronchaos.__file__).parent
BUILDERS = {
    "SampleBatch": {("montecarlo.py", "sampled_statistics")},
    "EmpiricalMoment": {("montecarlo.py", "estimate_lp")},
    "TailFrequency": {("montecarlo.py", "estimate_tail")},
}


def constructor_calls(source: str, module: str) -> dict[str, set[tuple[str, str | None]]]:
    """(module, outermost enclosing function or None) of every call of a record
    in BUILDERS, by record name, whether called by name or as an attribute."""
    found: dict[str, set[tuple[str, str | None]]] = {name: set() for name in BUILDERS}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in found:
                    found[name].add((module, owner))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_every_builder():
    source = (
        "from . import montecarlo\n"
        "BATCH = SampleBatch(0, 0, [])\n"
        "def outer():\n"
        "    def inner():\n"
        "        return montecarlo.TailFrequency(0.0, 0.0, 1.0)\n"
        "    return [EmpiricalMoment(p, 0, 0, 0) for p in (2,)], inner\n"
        "def reader(batch: SampleBatch) -> int:\n"
        "    return batch.count\n"
    )
    assert constructor_calls(source, "m.py") == {
        "SampleBatch": {("m.py", None)},
        "EmpiricalMoment": {("m.py", "outer")},
        "TailFrequency": {("m.py", "outer")},
    }


@pytest.mark.parametrize("record", sorted(BUILDERS))
def test_record_is_built_only_by_the_function_that_computes_it(record):
    calls = set()
    for path in sorted(PACKAGE.glob("*.py")):
        calls |= constructor_calls(path.read_text(), path.name)[record]
    assert calls == BUILDERS[record]
