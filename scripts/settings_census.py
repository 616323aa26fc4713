#!/usr/bin/env python3
"""Settings census: every settable value of TestbedConfig needs a workload.

Starts at `struct TestbedConfig` in src/core/testbed.h. A field whose type
is a bare struct defined under src/ (ClusterConfig, IntegrityConfig, ...) is
opened and its own fields are counted; every other field is one settable
value. For each value the census lists the bench/ and perfbench/ files that
assign it through a variable the same file declares as `TestbedConfig v` or
`TestbedConfig& v`: `v.name =` for a top-level field, `v.parent.name =` for
a nested one. A same-named field of another struct (`swim.seed = 7`) does
not count. Tests and examples do not count either: a setting only they use
has no workload behind it.

Prints one line per value and the total; exits 1 when some value is set by
no bench or perfbench file.

Usage: python3 scripts/settings_census.py [repo-root]
"""

import pathlib
import re
import sys

ROOT_STRUCT = "TestbedConfig"
ROOT_HEADER = "src/core/testbed.h"
WORKLOAD_DIRS = ("bench", "perfbench")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}

STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\s*(?::[^{;]*)?\{")
CONFIG_VAR_RE = re.compile(r"\b" + ROOT_STRUCT + r"\s*(?:&\s*|\s)(\w+)")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_body(text, open_brace):
    """The text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    raise ValueError("unbalanced braces")


def find_structs(src):
    """Maps each struct name defined in a header under src/ to its body."""
    structs = {}
    for header in sorted(src.rglob("*.h")):
        text = strip_comments(header.read_text())
        for match in STRUCT_RE.finditer(text):
            structs.setdefault(match.group(1),
                               struct_body(text, match.end() - 1))
    return structs


def statements(body):
    """Splits a struct body at the semicolons outside nested brackets."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == ";" and depth == 0:
            out.append(body[start:i].strip())
            start = i + 1
    return out


def fields(body):
    """(type, name) for each data member declared in a struct body."""
    result = []
    for stmt in statements(body):
        decl = re.split(r"=|\{", stmt, maxsplit=1)[0].strip()
        if not decl or "(" in decl:
            continue  # a member function, or nothing
        if re.match(r"(static|using|friend|typedef|enum|struct|class)\b",
                    decl):
            continue
        match = re.match(r"(.+?)\s*\b(\w+)\s*(\[[^\]]*\])?$", decl, re.S)
        if match:
            result.append((" ".join(match.group(1).split()), match.group(2)))
    return result


def settable_values(structs, name, prefix=()):
    """Dotted paths of the settable values under struct `name`."""
    values = []
    for type_name, field in fields(structs[name]):
        path = prefix + (field,)
        if type_name in structs:
            values.extend(settable_values(structs, type_name, path))
        else:
            values.append(path)
    return values


def workload_files(root):
    """(path, text, names of its TestbedConfig variables) per source file."""
    files = []
    for directory in WORKLOAD_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                text = strip_comments(path.read_text())
                files.append((path.relative_to(root).as_posix(), text,
                              set(CONFIG_VAR_RE.findall(text))))
    return files


def assigns(text, config_vars, path):
    """True when `text` sets `path` on one of its TestbedConfig variables."""
    if not config_vars:
        return False
    receiver = "|".join(sorted(config_vars))
    pattern = (r"\b(?:" + receiver + r")\." + r"\.".join(path) +
               r"\s*=(?!=)")
    return re.search(pattern, text) is not None


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    structs = find_structs(root / "src")
    if ROOT_STRUCT not in structs:
        sys.exit(f"struct {ROOT_STRUCT} not found under {root / 'src'}")
    values = settable_values(structs, ROOT_STRUCT)
    files = workload_files(root)
    unset = []
    for path in values:
        setters = [name for name, text, config_vars in files
                   if assigns(text, config_vars, path)]
        dotted = ".".join(path)
        print(f"  {dotted:36} {', '.join(setters) or '-- no workload'}")
        if not setters:
            unset.append(dotted)
    print(f"{len(values)} settable values in {ROOT_STRUCT} ({ROOT_HEADER}), "
          f"{len(unset)} set by no bench or perfbench file")
    if unset:
        print("unset: " + ", ".join(unset))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
