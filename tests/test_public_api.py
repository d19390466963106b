"""The package's public names: each one listed resolves, once."""
import axitherm


def test_every_name_in_all_resolves():
    missing = [name for name in axitherm.__all__
               if not hasattr(axitherm, name)]
    assert missing == []


def test_no_name_is_listed_twice():
    assert len(set(axitherm.__all__)) == len(axitherm.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from axitherm import *", namespace)
    assert set(axitherm.__all__) <= set(namespace)
