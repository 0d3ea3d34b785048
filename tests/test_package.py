"""The package's public names, and the modules a cold start loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lgforge

SRC = Path(__file__).parent.parent / "src"

PUBLIC_NAMES = [
    "CatalogEntry",
    "Check",
    "ClassGroupData",
    "CoordStep",
    "DegenerationResult",
    "DivisorOnFan",
    "ExpressionError",
    "FanData",
    "LaurentError",
    "LaurentPolynomial",
    "MarkovTriple",
    "MutationChain",
    "MutationData",
    "MutationStep",
    "NefPartition",
    "NewtonPolytopeData",
    "NotMutableError",
    "ParamPoly",
    "PeriodSeries",
    "RelationMonoidSlice",
    "SubstStep",
    "ToricError",
    "ci_quantum_period",
    "class_group",
    "direction_degeneration",
    "fibre_fan",
    "grade_by_weight",
    "hori_vafa",
    "invert_mutation",
    "laurent_divide",
    "load_catalog",
    "markov_mutate",
    "markov_solutions_up_to",
    "markov_tree",
    "mutate",
    "parameter_direction_limit",
    "parameter_limit",
    "parse",
    "period_coefficients",
    "period_distinct",
    "period_equal_up_to_shift",
    "relation_monoid",
    "restrict_model",
    "run_chain",
    "shift_relation_check",
    "toric_pair_model",
    "toric_quantum_period",
    "verify_all",
    "verify_chain",
    "verify_entry",
    "wpp_fan_polytope",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(lgforge.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(lgforge))


def test_every_public_name_resolves_from_its_module():
    for name in lgforge.__all__:
        value = getattr(lgforge, name)
        module = sys.modules[lgforge._MODULE_OF[name]]
        assert value is getattr(module, name)
        # looked up on every access, never stored in the package
        assert name not in vars(lgforge)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(lgforge, "no_such_name")
    assert not hasattr(lgforge, "no_such_name")


def loaded_modules(code):
    """The lgforge modules loaded after running ``code`` in a fresh process."""
    code += (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('lgforge'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("import lgforge") == ["lgforge"]


@pytest.mark.parametrize(
    "argv",
    [
        ["period", "--n", "4", "x+y+z+1/(x*y*z)"],
        ["coords", "--rank", "2", "--matrix", "0,1;1,0", "x+2*y"],
        ["newton", "--rank", "2", "x+y+1/(x*y)"],
        ["mutate", "--w", "0,1,1", "--a", "x+1", "(x+1)^2/(x*y*z)+y+z"],
    ],
    ids=lambda argv: argv[0],
)
def test_expression_commands_leave_catalog_toric_and_degeneration_unloaded(argv):
    loaded = loaded_modules(f"from lgforge.cli import main\nassert main({argv!r}) == 0")
    assert "lgforge.parsing" in loaded
    assert not {"lgforge.catalog", "lgforge.toric", "lgforge.degeneration"} & set(loaded)
