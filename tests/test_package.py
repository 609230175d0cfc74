"""The names `import pgw` offers, loaded eagerly or on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import pgw

# home module -> the public names pgw offers from it; every home but the
# oracle is itself a name pgw offers
HOMES = {
    "corpus": ("CORPUS_NAMES", "DEMO_NAME", "demo", "load"),
    "errors": (
        "BadDefinition", "BadWeight", "CentralizerNotMaximal", "CertificationFailed",
        "ConsistencyViolation", "InnerWitnessFound", "InputError", "Mismatch", "NoEligibleU",
        "NotAbelian", "NotNormal", "NotSurjective", "OracleTimeout", "PgwError",
        "PreconditionFailed", "PresentationSyntaxError", "RelationViolated", "SizeCap",
        "WorkerDied",
    ),
    "presentation": (
        "PcPresentation", "collect", "comm", "conj", "element_order", "identity", "inv", "mul",
        "pow_", "validate", "word_of",
    ),
    "groupfile": ("GroupFile", "parse_path", "parse_text", "serialize"),
    "structure": (
        "Subgroup", "agemo", "center", "center_of", "centralizer", "closure",
        "commutator_subgroup", "derived", "exponent", "frattini", "is_abelian",
        "lower_central_series", "maximal_subgroups", "nilpotency_class", "omega1",
        "quotient_facts", "rank", "second_center", "upper_central_series", "word_str",
    ),
    "hypotheses": (
        "HypothesisReport", "check_theorem_hypotheses", "check_zm_condition", "is_monolithic",
    ),
    "automorphisms": (
        "Automorphism", "GenMap", "WitnessResult", "apply", "aut_order", "compose",
        "construct_theorem_witness", "extend_to_automorphism", "fixes_elementwise",
        "identity_automorphism", "inner_from", "is_inner", "verify",
    ),
    "oracle": ("AutCount", "cross_validate", "enumerate_automorphisms"),
}


def test_every_public_name_resolves_to_its_home_module():
    wrong = []
    for home, names in HOMES.items():
        module = importlib.import_module(f"pgw.{home}")
        if home != "oracle" and getattr(pgw, home) is not module:
            wrong.append(home)
        wrong += [name for name in names if getattr(pgw, name) is not getattr(module, name)]
    assert wrong == []


def test_dir_lists_every_public_name():
    offered = {*HOMES, *(name for names in HOMES.values() for name in names)} - {"oracle"}
    assert offered <= set(dir(pgw))


@pytest.mark.parametrize("name", ["no_such_name", "enumerate", "hypothesis"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(pgw, name)


def test_a_lazy_name_loads_its_module_on_first_use():
    script = """
import sys
import pgw
before = [m for m in ("pgw.hypotheses", "pgw.automorphisms", "pgw.oracle") if m in sys.modules]
verify = pgw.verify
print(before, verify is sys.modules["pgw.automorphisms"].verify, "pgw.oracle" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(pgw.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True False\n"
