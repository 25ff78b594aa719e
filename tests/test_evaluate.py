import math
import random

import pytest

from leadopt import evaluate as ev
from leadopt.fingerprint import InvalidMoleculeError
from leadopt.molgraph import Atom, MolGraph, parse_smiles, write_smiles

from _molbuild import permuted_copy, random_molgraph
from _oracles import is_improvement


def test_logp_ethane():
    assert ev.BUILTIN_SURROGATES["logp"](parse_smiles("CC")) == pytest.approx(0.28)


def test_plogp_benzene():
    # Six aromatic carbons at 0.29 each; six-ring carries no penalty.
    assert ev.BUILTIN_SURROGATES["plogp"](parse_smiles("c1ccccc1")) == pytest.approx(1.74)


def test_plogp_large_ring_penalty():
    mol = parse_smiles("C1CCCCCCC1")  # eight-ring: penalty 2
    assert ev.BUILTIN_SURROGATES["plogp"](mol) == pytest.approx(8 * 0.14 - 2)


def test_logp_is_summed_left_to_right():
    # sum() of floats compensates from Python 3.12 on and gives 3.82 here; the
    # result bytes must not depend on the interpreter.
    mol = parse_smiles("c(cc(cc1-c(ccc(c2C(=C(C3)F)O3)F)c24)C4)c1")
    assert ev.surrogate("plogp", mol) == 3.8200000000000003


def test_edited_descriptors_remove_then_add():
    d = ev.descriptors(parse_smiles("Cc1ccccc1O"), "bbbp")
    old, new = Atom("O"), Atom("Cl")
    swapped = d.edited(old, new)
    assert swapped.logp == (d.logp - ev.logp_contribution(old)) + ev.logp_contribution(new)
    assert (swapped.hac, swapped.hetero, swapped.aromatic_rings) == (d.hac, d.hetero, d.aromatic_rings)
    removed, toluene = d.edited(removed=old), ev.descriptors(parse_smiles("Cc1ccccc1"), "bbbp")
    assert removed.logp == pytest.approx(toluene.logp)
    assert (removed.hac, removed.hetero) == (toluene.hac, toluene.hetero)
    grown = d.edited(added=Atom("N"))
    assert (grown.logp, grown.hac, grown.hetero) == (d.logp + ev.logp_contribution(Atom("N")), d.hac + 1, d.hetero + 1)
    assert d.edited() == d


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
    assert is_improvement(qed, ev.PropertyValue(0.55, "qed"), ev.PropertyValue(0.50, "qed"))
    assert is_improvement(
        mut, ev.PropertyValue(0.60, "mutagenicity"), ev.PropertyValue(0.80, "mutagenicity")
    )
    assert not is_improvement(qed, ev.PropertyValue(0.5, "qed"), ev.PropertyValue(0.5, "qed"))


def test_is_improvement_property_mismatch():
    with pytest.raises(ev.PropertyMismatchError):
        is_improvement(
            ev.builtin_property("qed"),
            ev.PropertyValue(1.0, "qed"),
            ev.PropertyValue(1.0, "plogp"),
        )


def test_is_improvement_antisymmetric():
    spec = ev.builtin_property("plogp")
    a = ev.PropertyValue(1.0, "plogp")
    b = ev.PropertyValue(2.0, "plogp")
    assert not (is_improvement(spec, a, b) and is_improvement(spec, b, a))


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
        pytest.param({"values": ["0.5"]}, id="numeric-string"),
        pytest.param({"values": [" 7 "]}, id="padded-numeric-string"),
        pytest.param({"values": [10**400]}, id="beyond-float"),
        pytest.param({"errors": [5]}, id="scalar-error-entry"),
        pytest.param({"errors": [[0]]}, id="short-error-entry"),
    ],
)
def test_external_evaluator_malformed_reply_is_unavailable(reply):
    evaluator = ev.ExternalEvaluator("p", lambda request: reply)
    with pytest.raises(ev.EvaluatorUnavailableError):
        evaluator(["C"])


# -- batched evaluation -------------------------------------------------------

BATCH = [parse_smiles(smiles) for smiles in ("CCO", "CCN", "CCCl")]


def external_spec(transport):
    return ev.PropertySpec("p", ev.MAXIMIZE, ev.ExternalEvaluator("p", transport))


def test_batch_is_one_request():
    requests = []

    def transport(request):
        requests.append(request["smiles_list"])
        return {"values": [float(len(s)) for s in request["smiles_list"]], "errors": []}

    outcomes = ev.evaluate_batch(external_spec(transport), BATCH)
    assert requests == [[write_smiles(mol) for mol in BATCH]]
    assert [outcome.value for outcome in outcomes] == [3.0, 3.0, 4.0]
    assert ev.evaluate_batch(external_spec(transport), []) == []
    assert len(requests) == 1


@pytest.mark.parametrize(
    "reply",
    [
        pytest.param({"values": [1.0, None, 3.0], "errors": [[1, "model refused"]]}, id="error-entry"),
        pytest.param({"values": [1.0, "abc", 3.0], "errors": []}, id="text-value"),
        pytest.param({"values": [1.0, float("inf"), 3.0]}, id="non-finite-value"),
        pytest.param({"values": [1.0, True, 3.0]}, id="boolean-value"),
        pytest.param({"values": [1.0, "2.0", 3.0]}, id="numeric-string"),
        pytest.param({"values": [1.0, 10**400, 3.0]}, id="beyond-float"),
    ],
)
def test_batch_sample_failure_fails_only_its_index(reply):
    outcomes = ev.evaluate_batch(external_spec(lambda request: reply), BATCH)
    assert isinstance(outcomes[1], ev.EvaluatorUnavailableError)
    assert [outcomes[0].value, outcomes[2].value] == [1.0, 3.0]


def test_batch_accepts_ints_within_the_float_range():
    reply = {"values": [2, -(10**308), 0]}
    outcomes = ev.evaluate_batch(external_spec(lambda request: reply), BATCH)
    assert [outcome.value for outcome in outcomes] == [2.0, -1e308, 0.0]


def test_batch_missing_values_fail_their_indices():
    reply = {"values": [1.0], "errors": [[2, "model refused"]]}
    outcomes = ev.evaluate_batch(external_spec(lambda request: reply), BATCH)
    assert outcomes[0].value == 1.0
    assert "no value" in str(outcomes[1])
    assert "model refused" in str(outcomes[2])


def test_call_still_raises_with_per_index_outcomes():
    reply = {"values": [1.0, None, 3.0], "errors": [[1, "model refused"]]}
    evaluator = ev.ExternalEvaluator("p", lambda request: reply)
    with pytest.raises(ev.EvaluatorUnavailableError, match="sample 1: model refused") as caught:
        evaluator(["CCO", "CCN", "CCCl"])
    assert caught.value.outcomes == [1.0, "sample 1: model refused", 3.0]


def _down(request):
    raise ConnectionError("endpoint down")


@pytest.mark.parametrize(
    "transport",
    [
        pytest.param(_down, id="transport-failure"),
        pytest.param(lambda request: [1.0, 2.0, 3.0], id="list-reply"),
        pytest.param(lambda request: {"values": [1.0, 2.0, 3.0, 4.0]}, id="too-many-values"),
        pytest.param(lambda request: {"values": {"0": 1.0}}, id="values-not-a-list"),
        pytest.param(lambda request: {"values": [1.0, 2.0, 3.0], "errors": [[3, "x"]]}, id="index-out-of-range"),
        pytest.param(lambda request: {"values": [1.0, 2.0, 3.0], "errors": [[-1, "x"]]}, id="negative-index"),
        pytest.param(lambda request: {"values": [1.0, 2.0, 3.0], "errors": [[True, "x"]]}, id="boolean-index"),
        pytest.param(lambda request: {"values": [1.0, 2.0, 3.0], "errors": [[0, "x"], 5]}, id="scalar-entry"),
        pytest.param(lambda request: {"values": [1.0, 2.0, 3.0], "errors": "x"}, id="errors-not-a-list"),
    ],
)
def test_batch_request_failure_fails_every_index(transport):
    outcomes = ev.evaluate_batch(external_spec(transport), BATCH)
    assert all(isinstance(outcome, ev.EvaluatorUnavailableError) for outcome in outcomes)
    assert len(outcomes) == len(BATCH)


def test_single_error_reply_surfaces_its_message():
    reply = {"values": [], "errors": [[0, "model not loaded"]]}
    (outcome,) = ev.evaluate_batch(external_spec(lambda request: reply), BATCH[:1])
    assert "model not loaded" in str(outcome)


def test_builtin_batch_matches_single_evaluation():
    spec = ev.builtin_property("qed")
    batch = ev.evaluate_batch(spec, BATCH)
    assert batch == [ev.evaluate(spec, mol) for mol in BATCH]
