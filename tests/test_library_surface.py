"""Every public function, class and method of the library has a caller in
the library, the CLI or the scripts, not only in the tests.

The scan is by name: a definition counts as reached when some `Name` or
`Attribute` node of `src/anisospec/*.py` or `scripts/*.py` carries its
name.  Imports alone do not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# test-only on purpose, each with its reason
ALLOWED = {
    "trace_phase_sum": "checks the anti-Wick trace identity "
                       "tr Op(a) = (2 pi)^-d int a |phi_rho|^2 drho, the "
                       "phase-space volume count behind the Weyl bound",
    "transfer_time1_grid": "waits for the caller of ROADMAP item 6 (tail "
                           "norms and the wave-front set of computed states)",
}


def _parse(paths):
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def public_definitions(trees):
    """{name: 'file:line'} of the module-level functions and classes and the
    methods of those classes whose names do not start with an underscore."""
    found = {}
    for path, tree in trees.items():
        nodes = list(tree.body)
        nodes += [m for c in tree.body if isinstance(c, ast.ClassDef)
                  for m in c.body]
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("_"):
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
    return found


def referenced_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def unreached(src_dir, script_dir):
    """{name: 'file:line'} of the public definitions of src_dir that no code
    of src_dir or script_dir references."""
    lib = _parse(sorted(src_dir.glob("*.py")))
    scripts = _parse(sorted(script_dir.glob("*.py")))
    used = referenced_names({**lib, **scripts})
    return {name: where for name, where in public_definitions(lib).items()
            if name not in used}


def test_no_test_only_library_code():
    found = unreached(ROOT / "src" / "anisospec", ROOT / "scripts")
    extra = {n: w for n, w in found.items() if n not in ALLOWED}
    assert not extra, ("public library code that only tests reach; give it "
                       f"a caller or move it into its test: {extra}")
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"allowlisted names that now have a caller: {stale}"


def test_scan_flags_a_test_only_function(tmp_path):
    """The scan sees a new function that nothing calls, and stops seeing it
    once a script calls it."""
    lib, scripts = tmp_path / "lib", tmp_path / "scripts"
    lib.mkdir()
    scripts.mkdir()
    (lib / "mod.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def orphan():\n    return 2\n\n"
        "class Box:\n    def size(self):\n        return used()\n\n"
        "    def _private(self):\n        return 3\n")
    (scripts / "run.py").write_text("from mod import Box, orphan\n"
                                    "Box().size()\n")
    assert set(unreached(lib, scripts)) == {"orphan"}
    (scripts / "run.py").write_text("from mod import Box, orphan\n"
                                    "Box().size()\norphan()\n")
    assert unreached(lib, scripts) == {}
