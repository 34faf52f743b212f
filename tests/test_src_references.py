"""Every name `src/phonolm` defines is used by other src code, or pinned here
with the reason it stays.

A name counts as used when an `ast.Name` or `ast.Attribute` of that name
appears in src outside its own definition. The match is by name alone, so a
method counts as used when any object's attribute of that name is read.
Dunder names are left out: the language calls them. A pin whose reason
names perfbench holds only while its bare name appears in `perfbench/*.py`.
"""

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "phonolm"

_PINNED = {
    "numerics.narrow": "perfbench/tracer.py wraps it (tracer._OP_GROUPS)",
    "numerics.pad_stack": "perfbench/tracer.py wraps it (tracer._OP_GROUPS)",
    "pipeline.save_bundle": "perfbench saves its bundles with it",
    "tokenworld.content_prototypes": "perfbench reads the world's prototypes",
    "tokenworld.speaker_vectors": "perfbench reads the world's speaker vectors",
    "model.DecoderModel.output_vocab": "perfbench reads it",
    "cli._MODE_FILES": "perfbench reads the checkpoint names from it",
    "evaluation.evaluate_passthrough": "the codec floor row that `phonolm eval` is to report",
}


def _definitions(trees: dict) -> dict:
    """{qualified name: (bare name, defining node)} of every top-level
    function, class and module constant, and every method and property."""
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[f"{module}.{node.name}"] = (node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        out[f"{module}.{node.name}.{item.name}"] = (item.name, item)
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    out[f"{module}.{target.id}"] = (target.id, node)
    return out


def _unused_names() -> set:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    uses = {}  # bare name -> ids of the nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    unused = set()
    for qualified, (name, node) in _definitions(trees).items():
        own = {id(n) for n in ast.walk(node)}
        if not uses.get(name, set()) - own:
            unused.add(qualified)
    return unused


def test_every_src_name_has_a_src_use_or_a_pinned_reason():
    unused = _unused_names()
    assert sorted(unused - set(_PINNED)) == [], "no src code uses these: delete them or pin them with a reason"
    assert sorted(set(_PINNED) - unused) == [], "src code now uses these pinned names: unpin them"


def test_every_pin_that_names_perfbench_is_a_name_perfbench_uses():
    text = "\n".join(path.read_text() for path in sorted((_ROOT / "perfbench").glob("*.py")))
    stale = [qualified for qualified, reason in _PINNED.items() if "perfbench" in reason
             and not re.search(rf"\b{re.escape(qualified.rsplit('.', 1)[1])}\b", text)]
    assert stale == [], "perfbench no longer names these: delete them or give the pin its real reason"
