"""Every cross-reference between the repo's documents resolves.

Two kinds of reference are checked, in README.md, DESIGN.md,
EXPERIMENTS.md, docs/*.md, the package sources and the CI workflow:

* a section citation, ``NAME.md, "Section"`` (the comma and backticks
  around the file name optional, the quoted name free to wrap across
  lines or comment lines): the file must exist and have a heading, or a
  bold run-in head such as ``**Run table.**``, that is the section name
  or starts with it (``"Memory"`` names ``## Memory: a finished …``);
* a relative Markdown link, ``](NAME.md#anchor)``: the file must exist
  and, if an anchor is given, have a heading whose GitHub slug it is.

CHANGES.md and ROADMAP.md are history and are not scanned.

DESIGN.md's module inventory (section 2) is held to the source tree
both ways: every module under ``src/repro`` is listed, and every listed
module exists.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]

CITATION = re.compile(r'([\w./-]*\b[\w-]+\.md)`?,?\s+"([^"]+)"')
LINK = re.compile(r'\]\(([\w./-]+\.md)(?:#([\w-]+))?\)')
HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*#*$")
RUN_IN_HEAD = re.compile(r"\*\*([^*]+?)[.:]\*\*")


def _citing_files():
    yield from (ROOT / name for name in
                ("README.md", "DESIGN.md", "EXPERIMENTS.md"))
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield ROOT / ".github" / "workflows" / "ci.yml"


def _text(path: pathlib.Path) -> str:
    """The file's text, with the comment markers of a wrapped comment
    removed so that a citation continues across them."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".md":
        text = re.sub(r"\n[ \t]*#[ \t]?", "\n", text)
    return text


def _resolve(name: str, citing: pathlib.Path):
    for base in (citing.parent, ROOT, ROOT / "docs"):
        target = (base / name).resolve()
        if target.is_file():
            return target
    return None


def _heads(doc: pathlib.Path):
    """(headings, bold run-in heads) of a Markdown file, outside code
    fences."""
    headings, run_ins = [], []
    fenced = False
    for line in doc.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        m = HEADING.match(line)
        if m:
            headings.append(m.group(1))
        run_ins.extend(RUN_IN_HEAD.findall(line))
    return headings, run_ins


def _slug(heading: str) -> str:
    """GitHub's anchor for a heading."""
    kept = re.sub(r"[^\w\- ]", "", heading.strip().lower())
    return kept.replace(" ", "-")


def _names(head: str, section: str) -> bool:
    head = " ".join(head.replace("`", "").split())
    return head == section or (
        head.startswith(section) and not head[len(section)].isalnum())


def _references():
    """(citing file, cited file name, section or None, anchor or None)."""
    for citing in _citing_files():
        text = _text(citing)
        for m in CITATION.finditer(text):
            yield citing, m.group(1), " ".join(m.group(2).split()), None
        for m in LINK.finditer(text):
            yield citing, m.group(1), None, m.group(2)


def test_every_doc_reference_resolves():
    checked = 0
    dangling = []
    for citing, name, section, anchor in _references():
        checked += 1
        where = citing.relative_to(ROOT)
        target = _resolve(name, citing)
        if target is None:
            dangling.append(f"{where}: {name} does not exist")
            continue
        headings, run_ins = _heads(target)
        if section is not None and not any(
                _names(h, section) for h in headings + run_ins):
            dangling.append(f'{where}: {name} has no section "{section}"')
        if anchor is not None and anchor not in map(_slug, headings):
            dangling.append(f"{where}: {name} has no anchor #{anchor}")
    assert not dangling, "\n".join(dangling)
    # the patterns still find the references the docs are known to hold
    assert checked >= 15, checked


def test_the_patterns_read_wrapped_citations_and_slugs():
    text = 'see `docs/FARM.md`,\n"Leases,\nretries" and'
    [m] = CITATION.finditer(text)
    assert m.group(1) == "docs/FARM.md"
    assert " ".join(m.group(2).split()) == "Leases, retries"
    assert _slug("Leases, retries (and `gc`)") == "leases-retries-and-gc"
    assert _names("Memory: a finished machine", "Memory")
    assert not _names("Memoryless", "Memory")


#: an inventory entry: a package (``  common/``) or a module, indented
#: 2 (top level) or 4 (in the package above it)
INVENTORY_ENTRY = re.compile(r"^( {2}| {4})(\w+)(/|\.py)(?:\s|$)")


def _inventory():
    """The ``src/repro``-relative module paths DESIGN.md's inventory
    block lists."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("## 2. System inventory", 1)[1].split("```")[1]
    listed, package = set(), ""
    for line in block.splitlines():
        m = INVENTORY_ENTRY.match(line)
        if m is None:
            continue
        indent, name, kind = m.groups()
        if kind == "/":
            package = name + "/"
        else:
            listed.add((package if len(indent) == 4 else "") + name + ".py")
    return listed


def test_the_design_inventory_names_every_module():
    src = ROOT / "src" / "repro"
    modules = {
        path.relative_to(src).as_posix() for path in src.rglob("*.py")
        if path.stem not in ("__init__", "__main__")
    }
    listed = _inventory()
    assert not modules - listed, (
        f"DESIGN.md inventory misses {sorted(modules - listed)}")
    assert not listed - modules, (
        f"DESIGN.md inventory lists missing {sorted(listed - modules)}")
