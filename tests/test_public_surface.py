"""Every public function, class and method of the package has a caller.

The check parses ``src/icoswitch/*.py`` and ``perfbench/*.py`` with
``ast``. A public top-level function or class, or a public method of a
top-level class, fails when its name is used nowhere in those files: not
as a name, an attribute, an import or a string constant (the benchmark
looks seams up by name). The exceptions are the test oracles in
``ORACLES``: each is kept as the reference of the test named next to it,
and that test must name it.

A dunder method is called by syntax (``a + b``), not by name, so the name
check cannot see its callers. Each one other than those in ``PROTOCOL``
fails unless ``ORACLES`` names it.

The check is by name only. A dead method that shares its name with live
code counts as used and is not caught: a vector's ``overlap`` method
next to a local variable ``overlap``, or a ``dim`` property next to
``PauliContext.dim``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "icoswitch"
SEARCHED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# definition -> the test that uses it as its reference
ORACLES = {
    "procmat.probability":
        "test_procmat.py::test_probability_table_matches_elementwise",
    "procmat.w_ordered":
        "test_procmat.py::test_full_dephasing_equals_half_mixture",
    "procmat.mix_orders":
        "test_acceptance.py::test_criterion_02_witness_soundness",
    "fock.postselect": "test_acceptance.py::test_criterion_05_postselected_gate",
    "fock.one_photon_per_group":
        "test_acceptance.py::test_criterion_05_postselected_gate",
    "switch.duality":
        "test_switch.py::test_duality_saturation_and_mixed_bound",
    # the labeled joint state that criterion 7 dephases and reads
    "switch.switch_evolve": "test_acceptance.py::test_criterion_07_duality",
    "sdp.DenseColumns":
        "test_sdp.py::test_pauli_columns_agree_with_dense_columns",
    "paulialg.PauliContext.dense":
        "test_paulialg.py::test_shift_rows_matches_dense_product",
    # the sign rule of P_s P_t that the shift tables build on
    "paulialg.PauliContext.product_phase":
        "test_paulialg.py::test_product_phase_exhaustive",
    "paulialg.PauliContext.shift_rows":
        "test_paulialg.py::test_shift_cache_matches_shift_rows",
}

# dunder methods that construction, printing or calling run
PROTOCOL = {"__init__", "__post_init__", "__str__", "__call__"}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _public_definitions(path):
    """(qualified name, bare name) of the module's public definitions,
    dunder methods outside ``PROTOCOL`` included."""
    module = path.stem
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        not item.name.startswith("_")
                        or _is_dunder(item.name) and item.name not in PROTOCOL):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _used_names(path):
    """Every identifier the file refers to; definitions are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def test_every_public_definition_has_a_caller():
    used = set().union(*map(_used_names, SEARCHED))
    unused = [qual for path in sorted(PACKAGE.glob("*.py"))
              for qual, name in _public_definitions(path)
              if (name not in used or _is_dunder(name))
              and qual not in ORACLES]
    assert not unused, (f"public but unused outside tests, or a dunder "
                        f"method outside PROTOCOL: {unused}")


def test_every_oracle_is_named_by_its_test():
    defined = {qual for path in sorted(PACKAGE.glob("*.py"))
               for qual, _ in _public_definitions(path)}
    for qual, test in ORACLES.items():
        assert qual in defined, f"{qual} is listed as an oracle but not defined"
        filename, _, test_name = test.partition("::")
        tree = ast.parse((ROOT / "tests" / filename).read_text())
        funcs = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name == test_name]
        assert funcs, f"{test} (oracle test of {qual}) does not exist"
        body = {n.attr if isinstance(n, ast.Attribute) else n.id
                for n in ast.walk(funcs[0])
                if isinstance(n, (ast.Attribute, ast.Name))}
        assert qual.rpartition(".")[2] in body, f"{test} does not use {qual}"
