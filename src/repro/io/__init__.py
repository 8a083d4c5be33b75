"""JSON (de)serialization for schemas, EER designs, and database states.

Schemas of the paper's class are plain structured data; this package
gives them a stable on-disk form so the command-line tool
(:mod:`repro.cli`) and downstream users can store, diff and exchange
designs:

* :mod:`repro.io.relational_json` -- relational schemas with all four
  constraint groups;
* :mod:`repro.io.eer_json` -- EER schemas;
* :mod:`repro.io.state_json` -- database states (``NULL`` is encoded as
  ``{"$null": true}``).

All encoders produce JSON-compatible plain dictionaries; use ``json``
from the standard library to move them to/from text.
"""

from repro.io.relational_json import (
    relational_schema_from_dict,
    relational_schema_to_dict,
)
from repro.io.state_json import (
    decode_value,
    encode_value,
    state_from_dict,
    state_to_dict,
)

__all__ = [
    "relational_schema_from_dict",
    "relational_schema_to_dict",
    "eer_schema_from_dict",
    "eer_schema_to_dict",
    "state_from_dict",
    "state_to_dict",
    "encode_value",
    "decode_value",
]


def __getattr__(name: str):
    """The EER codec loads the EER model, which schema and state I/O
    never needs: import it on first use."""
    if name in ("eer_schema_from_dict", "eer_schema_to_dict"):
        from repro.io import eer_json

        return getattr(eer_json, name)
    raise AttributeError(f"module 'repro.io' has no attribute {name!r}")
