#!/usr/bin/env python3
"""Trace census: every trace event type needs a reader.

Reads the TraceEventType enum from src/obs/trace_event.h and each type's
snake_case name from trace_event_name() in src/obs/trace_recorder.cc. A file
reads a type when it names `TraceEventType::kX` or the quoted snake_case
name ("x" or 'x'). The readers are src/obs/invariant_checker.cc and every
source file under bench/, perfbench/, examples/, tests/ and scripts/; data
files such as the golden trace do not count, and neither do comments. An
event that nothing reads only costs trace memory, hashing and checker time.

Prints one line per type with its readers and the total; exits 1 when some
type is read by nothing.

Usage: python3 scripts/trace_census.py [repo-root]
"""

import pathlib
import re
import sys

ENUM_HEADER = "src/obs/trace_event.h"
NAMES_SOURCE = "src/obs/trace_recorder.cc"
READER_FILES = ("src/obs/invariant_checker.cc",)
READER_DIRS = ("bench", "perfbench", "examples", "tests", "scripts")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".py", ".sh"}

ENUM_RE = re.compile(r"enum\s+class\s+TraceEventType\b[^{]*\{(.*?)\};", re.S)
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*(?:=[^,]*)?,", re.M)
NAME_RE = re.compile(r'case\s+TraceEventType::(k\w+):\s*return\s+"(\w+)";')


def strip_comments(text, suffix):
    if suffix in {".py", ".sh"}:
        return re.sub(r"(?m)^\s*#[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def event_types(root):
    """(enumerator, snake_case name) per TraceEventType, in enum order."""
    text = strip_comments((root / ENUM_HEADER).read_text(), ".h")
    match = ENUM_RE.search(text)
    if match is None:
        sys.exit(f"enum class TraceEventType not found in {ENUM_HEADER}")
    enumerators = [e for e in ENUMERATOR_RE.findall(match.group(1))
                   if e != "kCount"]
    names = dict(NAME_RE.findall((root / NAMES_SOURCE).read_text()))
    missing = [e for e in enumerators if e not in names]
    if missing:
        sys.exit(f"no trace_event_name() entry in {NAMES_SOURCE} for "
                 + ", ".join(missing))
    return [(e, names[e]) for e in enumerators]


def reader_files(root):
    """(path, comment-free text) per file that may read event types."""
    paths = [root / f for f in READER_FILES]
    for directory in READER_DIRS:
        paths.extend(sorted((root / directory).rglob("*")))
    files = []
    for path in paths:
        if path.is_file() and path.suffix in SOURCE_SUFFIXES:
            files.append((path.relative_to(root).as_posix(),
                          strip_comments(path.read_text(), path.suffix)))
    return files


def reads(text, enumerator, name):
    return (re.search(r"\bTraceEventType::" + enumerator + r"\b", text)
            is not None or
            re.search(r"([\"'])" + name + r"\1", text) is not None)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    types = event_types(root)
    files = reader_files(root)
    unread = []
    for enumerator, name in types:
        readers = [path for path, text in files
                   if reads(text, enumerator, name)]
        print(f"  {name:24} {', '.join(readers) or '-- no reader'}")
        if not readers:
            unread.append(enumerator)
    print(f"{len(types)} event types in TraceEventType ({ENUM_HEADER}), "
          f"{len(unread)} read by nothing")
    if unread:
        print("unread: " + ", ".join(unread))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
