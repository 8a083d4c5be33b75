"""JSON serialization round trips."""

import json

import pytest

from repro.io import (
    eer_schema_from_dict,
    eer_schema_to_dict,
    relational_schema_from_dict,
    relational_schema_to_dict,
    state_from_dict,
    state_to_dict,
)
from repro.io.eer_json import EERDecodeError
from repro.io.relational_json import SchemaDecodeError
from repro.io.state_json import StateDecodeError, decode_value
from repro.relational.tuples import NULL
from repro.workloads.registry import registry_eer, registry_state, registry_translation
from repro.workloads.university import (
    university_eer,
    university_relational,
    university_state,
)


class TestRelationalRoundTrip:
    def test_university_schema(self, university_schema):
        data = relational_schema_to_dict(university_schema)
        back = relational_schema_from_dict(data)
        assert back == university_schema

    def test_merged_schema_all_constraint_kinds(self, university_schema):
        """The merged schema exercises total-equality, part-null and
        general null-existence encodings."""
        from repro.core.merge import merge
        from repro.workloads.project import figure2_schema

        merged = merge(
            university_schema, ["COURSE", "OFFER", "TEACH"]
        ).schema
        assert relational_schema_from_dict(
            relational_schema_to_dict(merged)
        ) == merged
        synth = merge(figure2_schema(with_ind=False), ["OFFER", "TEACH"]).schema
        assert relational_schema_from_dict(
            relational_schema_to_dict(synth)
        ) == synth

    def test_survives_json_text(self, university_schema):
        text = json.dumps(relational_schema_to_dict(university_schema))
        assert relational_schema_from_dict(json.loads(text)) == university_schema

    def test_candidate_keys_preserved(self):
        from repro.relational.attributes import Attribute, Domain
        from repro.relational.schema import RelationScheme, RelationalSchema

        d = Domain("d")
        k, u = Attribute("R.K", d), Attribute("R.U", Domain("e"))
        schema = RelationalSchema(
            schemes=(RelationScheme("R", (k, u), (k,), frozenset({(u,)})),)
        )
        back = relational_schema_from_dict(relational_schema_to_dict(schema))
        assert back.scheme("R").candidate_keys == schema.scheme("R").candidate_keys

    def test_missing_field_reported(self):
        with pytest.raises(SchemaDecodeError, match="missing field"):
            relational_schema_from_dict({"schemes": [{"name": "R"}]})

    def test_bad_key_reference_reported(self):
        with pytest.raises(SchemaDecodeError, match="unknown attribute"):
            relational_schema_from_dict(
                {
                    "schemes": [
                        {
                            "name": "R",
                            "attributes": [["A", "d"]],
                            "primary_key": ["Z"],
                        }
                    ]
                }
            )

    def test_unknown_constraint_kind_reported(self):
        with pytest.raises(SchemaDecodeError, match="kind"):
            relational_schema_from_dict(
                {
                    "schemes": [],
                    "null_constraints": [{"kind": "bogus", "scheme": "R"}],
                }
            )


class TestEERRoundTrip:
    def test_university(self):
        eer = university_eer()
        back = eer_schema_from_dict(eer_schema_to_dict(eer))
        assert back == eer

    def test_registry_with_abbrevs_and_optionals(self):
        eer = registry_eer()
        back = eer_schema_from_dict(eer_schema_to_dict(eer))
        assert back == eer
        # The translation of the round-tripped schema matches too.
        from repro.eer.translate import translate_eer

        assert translate_eer(back).schema == registry_translation().schema

    def test_weak_entity_round_trip(self):
        from repro.eer.model import EERAttribute, EERSchema, EntitySet, WeakEntitySet
        from repro.relational.attributes import Domain

        d = Domain("d")
        building = EntitySet(
            "BUILDING", (EERAttribute("CODE", d),), identifier=("CODE",)
        )
        room = WeakEntitySet(
            "ROOM",
            (EERAttribute("NR", d),),
            owner="BUILDING",
            partial_identifier=("NR",),
        )
        eer = EERSchema("campus", (building, room))
        assert eer_schema_from_dict(eer_schema_to_dict(eer)) == eer

    def test_roles_round_trip(self):
        from repro.eer.model import (
            Cardinality,
            EERAttribute,
            EERSchema,
            EntitySet,
            Participation,
            RelationshipSet,
        )
        from repro.relational.attributes import Domain

        emp = EntitySet(
            "EMP", (EERAttribute("ID", Domain("d")),), identifier=("ID",)
        )
        mgmt = RelationshipSet(
            "MGMT",
            participants=(
                Participation("EMP", Cardinality.MANY, role="REPORT"),
                Participation("EMP", Cardinality.ONE, role="BOSS"),
            ),
        )
        eer = EERSchema("org", (emp, mgmt))
        assert eer_schema_from_dict(eer_schema_to_dict(eer)) == eer

    def test_decode_errors(self):
        with pytest.raises(EERDecodeError):
            eer_schema_from_dict({})
        with pytest.raises(EERDecodeError, match="kind"):
            eer_schema_from_dict(
                {"object_sets": [{"kind": "alien", "name": "X"}]}
            )


class TestStateRoundTrip:
    def test_university_state(self, university_schema):
        state = university_state(n_courses=8, seed=3)
        back = state_from_dict(state_to_dict(state), university_schema)
        assert back == state

    def test_nulls_survive(self):
        translation = registry_translation()
        state = registry_state(n_samples=15, seed=5)
        text = json.dumps(state_to_dict(state))
        back = state_from_dict(json.loads(text), translation.schema)
        assert back == state

    def test_missing_relations_default_empty(self, university_schema):
        back = state_from_dict({"relations": {}}, university_schema)
        assert back.total_size() == 0
        assert set(back) == set(university_schema.scheme_names)

    def test_unknown_scheme_rejected(self, university_schema):
        with pytest.raises(StateDecodeError, match="unknown schemes"):
            state_from_dict(
                {"relations": {"NOPE": []}}, university_schema
            )

    def test_attribute_mismatch_rejected(self, university_schema):
        with pytest.raises(StateDecodeError, match="COURSE"):
            state_from_dict(
                {"relations": {"COURSE": [{"WRONG": 1}]}}, university_schema
            )

    def test_encoding_is_deterministic(self, university_schema):
        state = university_state(n_courses=6, seed=1)
        assert state_to_dict(state) == state_to_dict(state)


def test_decode_value_marker_and_plain_dicts():
    """The null marker decodes to ``NULL``; any other dict -- and any
    scalar -- passes through as it is."""
    assert decode_value({"$null": True}) is NULL
    other = {"$null": False}
    assert decode_value(other) is other
    plain = {"a": 1}
    assert decode_value(plain) is plain
    assert decode_value("x") == "x"
    assert decode_value(None) is None
