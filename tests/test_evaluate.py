import math
import random

import pytest

from leadopt import evaluate as ev
from leadopt.fingerprint import InvalidMoleculeError
from leadopt.molgraph import Atom, MolGraph, parse_smiles

from _molbuild import permuted_copy, random_molgraph


def test_logp_ethane():
    assert ev.BUILTIN_SURROGATES["logp"](parse_smiles("CC")) == pytest.approx(0.28)


def test_plogp_benzene():
    # Six aromatic carbons at 0.29 each; six-ring carries no penalty.
    assert ev.BUILTIN_SURROGATES["plogp"](parse_smiles("c1ccccc1")) == pytest.approx(1.74)


def test_plogp_large_ring_penalty():
    mol = parse_smiles("C1CCCCCCC1")  # eight-ring: penalty 2
    assert ev.BUILTIN_SURROGATES["plogp"](mol) == pytest.approx(8 * 0.14 - 2)


def test_drug_likeness_peak_is_one():
    assert ev.drug_likeness_score(25, 0.3) == pytest.approx(1.0)


def test_dlk_molecule_near_peak():
    # 25 heavy atoms with 8 heteroatoms (hetero fraction 0.32, closest
    # integer count to the 0.3 peak).
    mol = parse_smiles("NCCOCCNC(=O)COc1ccc(CNCCO)cc1CCO")
    assert len(mol.atoms) == 25
    hetero = sum(1 for a in mol.atoms if a.element != "C")
    assert hetero == 8
    expected = math.exp(-(((0.32 - 0.3) / 0.3) ** 2))
    assert ev.BUILTIN_SURROGATES["qed"](mol) == pytest.approx(expected)


def test_builtin_property_directions():
    assert ev.builtin_property("mutagenicity").direction == ev.MINIMIZE
    for pid in ("logp", "plogp", "qed", "bbbp", "hia"):
        assert ev.builtin_property(pid).direction == ev.MAXIMIZE


def test_property_spec_rejects_wrong_direction():
    with pytest.raises(ValueError):
        ev.PropertySpec("mutagenicity", ev.MAXIMIZE)
    with pytest.raises(ValueError):
        ev.PropertySpec("plogp", "sideways")


def test_logistic_surrogates_bounded_and_distinct():
    mol = parse_smiles("CC(C)Cc1ccc(C(C)C(=O)O)cc1")
    values = {
        pid: ev.evaluate(ev.builtin_property(pid), mol).value
        for pid in ("bbbp", "hia", "mutagenicity")
    }
    assert all(0.0 < value < 1.0 for value in values.values())
    assert len(set(values.values())) == 3


def test_mutagenicity_increases_with_aromatic_rings():
    spec = ev.builtin_property("mutagenicity")
    one_ring = ev.evaluate(spec, parse_smiles("c1ccccc1")).value
    two_rings = ev.evaluate(spec, parse_smiles("c1ccc2ccccc2c1")).value
    assert two_rings > one_ring


def test_is_improvement_directions():
    qed = ev.builtin_property("qed")
    mut = ev.builtin_property("mutagenicity")
    assert ev.is_improvement(qed, ev.PropertyValue(0.55, "qed"), ev.PropertyValue(0.50, "qed"))
    assert ev.is_improvement(
        mut, ev.PropertyValue(0.60, "mutagenicity"), ev.PropertyValue(0.80, "mutagenicity")
    )
    assert not ev.is_improvement(qed, ev.PropertyValue(0.5, "qed"), ev.PropertyValue(0.5, "qed"))


def test_is_improvement_property_mismatch():
    with pytest.raises(ev.PropertyMismatchError):
        ev.is_improvement(
            ev.builtin_property("qed"),
            ev.PropertyValue(1.0, "qed"),
            ev.PropertyValue(1.0, "plogp"),
        )


def test_is_improvement_antisymmetric():
    spec = ev.builtin_property("plogp")
    a = ev.PropertyValue(1.0, "plogp")
    b = ev.PropertyValue(2.0, "plogp")
    assert not (ev.is_improvement(spec, a, b) and ev.is_improvement(spec, b, a))


def test_relative_improvement_values():
    qed = ev.builtin_property("qed")
    gain = ev.relative_improvement(
        qed, ev.PropertyValue(0.40, "qed"), ev.PropertyValue(0.50, "qed")
    )
    assert gain.relative == pytest.approx(0.25)
    assert gain.improved and gain.absolute == pytest.approx(0.10)

    mut = ev.builtin_property("mutagenicity")
    gain = ev.relative_improvement(
        mut,
        ev.PropertyValue(0.80, "mutagenicity"),
        ev.PropertyValue(0.60, "mutagenicity"),
    )
    assert gain.relative == pytest.approx(0.25)
    assert gain.improved and gain.absolute == pytest.approx(0.20)


def test_relative_improvement_zero_initial_flagged():
    spec = ev.builtin_property("plogp")
    gain = ev.relative_improvement(
        spec, ev.PropertyValue(0.0, "plogp"), ev.PropertyValue(0.5, "plogp")
    )
    assert gain.relative is None
    assert gain.improved


def test_relative_nonnegative_when_improved():
    rng = random.Random(6)
    spec = ev.builtin_property("plogp")
    for _ in range(100):
        a = ev.PropertyValue(rng.uniform(-4, 4) or 0.1, "plogp")
        b = ev.PropertyValue(rng.uniform(-4, 4), "plogp")
        gain = ev.relative_improvement(spec, a, b)
        if gain.improved and gain.relative is not None:
            assert gain.relative >= 0


def test_evaluate_deterministic_and_isomorphism_invariant():
    rng = random.Random(17)
    prng = random.Random(23)
    for _ in range(30):
        mol = random_molgraph(rng)
        for pid in ("plogp", "qed", "bbbp", "hia", "mutagenicity"):
            spec = ev.builtin_property(pid)
            value = ev.evaluate(spec, mol).value
            assert ev.evaluate(spec, mol).value == value
            assert ev.evaluate(spec, permuted_copy(mol, prng)).value == pytest.approx(value)


def test_surrogates_total_on_valid_molecules():
    rng = random.Random(40)
    for _ in range(60):
        mol = random_molgraph(rng)
        for pid, fn in ev.BUILTIN_SURROGATES.items():
            assert math.isfinite(fn(mol))


def test_evaluate_rejects_invalid_molecule():
    broken = MolGraph((Atom("C"), Atom("C")), ())
    with pytest.raises(InvalidMoleculeError):
        ev.evaluate(ev.builtin_property("plogp"), broken)


def test_property_value_finite():
    with pytest.raises(ValueError):
        ev.PropertyValue(float("nan"), "plogp")
    with pytest.raises(ValueError):
        ev.PropertyValue(float("inf"), "plogp")


# -- external evaluator protocol --------------------------------------------


def test_external_evaluator_protocol():
    seen = {}

    def transport(request):
        seen.update(request)
        return {"values": [0.75], "errors": []}

    spec = ev.PropertySpec("perm", ev.MAXIMIZE, ev.ExternalEvaluator("perm", transport))
    value = ev.evaluate(spec, parse_smiles("CCO"))
    assert value.value == 0.75 and value.property_id == "perm"
    assert seen["property_id"] == "perm"
    assert seen["smiles_list"] and isinstance(seen["smiles_list"][0], str)


def test_external_evaluator_error_entry():
    def transport(request):
        return {"values": [], "errors": [[0, "model not loaded"]]}

    spec = ev.PropertySpec("perm", ev.MAXIMIZE, ev.ExternalEvaluator("perm", transport))
    with pytest.raises(ev.EvaluatorUnavailableError, match="model not loaded"):
        ev.evaluate(spec, parse_smiles("CCO"))


def test_external_evaluator_transport_failure():
    def transport(request):
        raise ConnectionError("endpoint down")

    spec = ev.PropertySpec("perm", ev.MAXIMIZE, ev.ExternalEvaluator("perm", transport))
    with pytest.raises(ev.EvaluatorUnavailableError):
        ev.evaluate(spec, parse_smiles("CCO"))


def test_external_evaluator_rejects_non_finite_and_malformed():
    bad_value = ev.ExternalEvaluator("p", lambda request: {"values": [float("nan")], "errors": []})
    with pytest.raises(ev.EvaluatorUnavailableError):
        bad_value(["C"])
    short = ev.ExternalEvaluator("p", lambda request: {"values": [], "errors": []})
    with pytest.raises(ev.EvaluatorUnavailableError):
        short(["C"])


@pytest.mark.parametrize(
    "reply",
    [
        pytest.param([0.5], id="list"),
        pytest.param("0.5", id="string"),
        pytest.param(None, id="none"),
        pytest.param({"values": ["abc"]}, id="text-value"),
        pytest.param({"values": [None]}, id="null-value"),
        pytest.param({"values": [True]}, id="boolean-value"),
        pytest.param({"errors": [5]}, id="scalar-error-entry"),
        pytest.param({"errors": [[0]]}, id="short-error-entry"),
    ],
)
def test_external_evaluator_malformed_reply_is_unavailable(reply):
    evaluator = ev.ExternalEvaluator("p", lambda request: reply)
    with pytest.raises(ev.EvaluatorUnavailableError):
        evaluator(["C"])
