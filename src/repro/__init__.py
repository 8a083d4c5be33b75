"""repro -- a reproduction of V.M. Markowitz, "A Relation Merging
Technique for Relational Databases" (ICDE 1992, LBL-27842).

The library implements BCNF- and information-capacity-preserving relation
merging for relational schemas consisting of relation-schemes, key
dependencies, referential integrity constraints and null constraints --
plus everything the paper's development rests on: the relational data
model with nulls and outer equi-joins, the five null-constraint classes,
the EER model with its BCNF translation, synthesis normalization, the SDT
schema-definition tool, and a constraint-enforcing storage engine used to
measure the join-reduction claim.

Quick start::

    from repro import merge, remove_all, university_relational

    schema = university_relational()               # Figure 3
    merged = merge(schema, ["COURSE", "OFFER", "TEACH", "ASSIST"])
    simplified = remove_all(merged)                # Figure 6
    print(simplified.schema.describe())

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

import importlib
import sys

#: Each public name and the module that defines it.  Names resolve on
#: first use (:func:`__getattr__`), so ``import repro`` -- and every
#: ``python -m repro`` start -- loads none of the subpackages until a
#: name from one of them is used.
_EXPORTS: dict[str, str] = {
    "NULL": "repro.relational",
    "Attribute": "repro.relational",
    "DatabaseState": "repro.relational",
    "Domain": "repro.relational",
    "Relation": "repro.relational",
    "RelationScheme": "repro.relational",
    "RelationalSchema": "repro.relational",
    "Tuple": "repro.relational",
    "ConsistencyChecker": "repro.constraints",
    "FunctionalDependency": "repro.constraints",
    "InclusionDependency": "repro.constraints",
    "KeyDependency": "repro.constraints",
    "NullExistenceConstraint": "repro.constraints",
    "PartNullConstraint": "repro.constraints",
    "TotalEqualityConstraint": "repro.constraints",
    "null_synchronization_set": "repro.constraints",
    "nulls_not_allowed": "repro.constraints",
    "Merge": "repro.core",
    "MergeError": "repro.core",
    "MergePlanner": "repro.core",
    "MergeResult": "repro.core",
    "MergeStrategy": "repro.core",
    "Remove": "repro.core",
    "find_key_relation": "repro.core",
    "prop51_key_based_inds_only": "repro.core",
    "prop51_keys_not_null": "repro.core",
    "prop52_nulls_not_allowed_only": "repro.core",
    "remove_all": "repro.core",
    "removable_sets": "repro.core",
    "verify_information_capacity": "repro.core",
    "merge": "repro.core.merge",
    "Cardinality": "repro.eer",
    "EERAttribute": "repro.eer",
    "EERBuilder": "repro.eer",
    "EERSchema": "repro.eer",
    "EntitySet": "repro.eer",
    "Generalization": "repro.eer",
    "Participation": "repro.eer",
    "RelationshipSet": "repro.eer",
    "WeakEntitySet": "repro.eer",
    "find_amenable_structures": "repro.eer",
    "translate_eer": "repro.eer",
    "translate_teorey": "repro.eer",
    "DB2": "repro.ddl",
    "INGRES_63": "repro.ddl",
    "SYBASE_40": "repro.ddl",
    "SchemaDefinitionTool": "repro.ddl",
    "SDTOptions": "repro.ddl",
    "generate_ddl": "repro.ddl",
    "Database": "repro.engine",
    "QueryEngine": "repro.engine",
    "minimize_schema": "repro.constraints.minimize",
    "eer_schema_from_dict": "repro.io",
    "eer_schema_to_dict": "repro.io",
    "relational_schema_from_dict": "repro.io",
    "relational_schema_to_dict": "repro.io",
    "state_from_dict": "repro.io",
    "state_to_dict": "repro.io",
    "university_eer": "repro.workloads.university",
    "university_relational": "repro.workloads.university",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def lazy_exports(package: str, exports: dict[str, str]):
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``,
    whose public names ``exports`` maps to the modules defining them:
    a name's module is imported on first use, and the name is then
    cached in the package."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
