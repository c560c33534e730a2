"""A stale ``__all__`` entry fails ``import *``; no module exports a test helper."""

import pkgutil

import cobst

TEST_ONLY = {"complete_history", "linearizable_by_enumeration", "dump_tree", "parse_tree",
             "random_schedule", "script_parallel_inserts", "script_twin_replacement",
             "script_edge_conflict_restart"}


def test_every_module_star_imports_and_exports_no_test_helper():
    for m in [None, *pkgutil.iter_modules(cobst.__path__)]:
        name, ns = "cobst" + ("." + m.name if m else ""), {}
        exec("from %s import *" % name, ns)
        assert not TEST_ONLY & ns.keys(), name
