"""Config values of the wrong JSON type are refused by name.

``load_app_config`` checks every value against its field's annotation
before building the section, so a string where a number belongs, a
section that is not an object, or a missing required key raises
``ValueError`` naming ``section.key`` (or the section) instead of a bare
``TypeError`` from deep inside a constructor. The property test replaces
one value of the shipped document with a random JSON value: the document
then loads, or raises ``ValueError`` naming what was replaced.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from config_doc import default_config_document
from hawkeslob.cli import SECTIONS, load_app_config

DEFAULT_DOC = default_config_document()


def load(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return load_app_config(str(path))


@pytest.mark.parametrize("doc, named", [
    ({"episode": {"horizon": "5"}}, r"episode\.horizon"),
    ({"episode": 5}, r"section episode\b"),
    ({"kernel": {"mu": [1.0]}}, r"kernel\.kind"),
    ({"trainer": {"hidden_sizes": 4}}, r"trainer\.hidden_sizes"),
    ({"trainer": {"hidden_sizes": [4, 2.5]}}, r"trainer\.hidden_sizes"),
    ({"trainer": {"ablation": 3}}, r"trainer\.ablation"),
    ({"trainer": {"total_episodes": 2.0}}, r"trainer\.total_episodes"),
    ({"prob_agent": {"y_max": True}}, r"prob_agent\.y_max"),
    ({"init": {"tick": None}}, r"init\.tick"),
    ({"episode": {"horizon": float("inf")}}, r"episode\.horizon"),
    ({"kernel": {"kind": "exponential", "mu": [[1.0], [1.0, 2.0]]}},
     r"kernel\.mu"),
    ({"kernel": {"kind": "exponential", "mu": ["1.0"]}}, r"kernel\.mu"),
    ({"kernel_profile": ["powerlaw"]}, "kernel_profile"),
])
def test_wrong_type_is_value_error_naming_the_key(tmp_path, doc, named):
    with pytest.raises(ValueError, match=named):
        load(tmp_path, doc)


def test_shipped_document_loads_unchanged(tmp_path):
    app = load(tmp_path, DEFAULT_DOC)
    assert dict(zip(["kernel", *SECTIONS], app.docs())) == DEFAULT_DOC


def test_ints_load_where_floats_belong(tmp_path):
    app = load(tmp_path, {"episode": {"horizon": 5, "eta": 3}})
    assert app.episode.horizon == 5 and app.episode.eta == 3


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=6))
json_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10)

_targets = [(section, key) for section in ("kernel", *SECTIONS)
            for key in [None, *DEFAULT_DOC[section]]]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(_targets), value=json_values)
def test_random_value_loads_or_is_named(tmp_path, target, value):
    section, key = target
    doc = json.loads(json.dumps(DEFAULT_DOC))
    if key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    try:
        load(tmp_path, doc)
    except ValueError as exc:
        assert (key or section) in str(exc)
