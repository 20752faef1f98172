#!/bin/sh
# dead_exports.sh — list the exported functions and methods nothing
# outside tests reaches.
#
# Usage: scripts/dead_exports.sh > LIST
#
# It scans the non-test Go files outside perfbench/ for exported
# function and method definitions, then looks for each name as a word
# in every non-test Go file, perfbench/ included. Comment lines do not
# count, nor does the name's own place in its definition. Every name
# found nowhere else prints as one "package-dir.Name" or
# "package-dir.Receiver.Name" line, sorted. The match is by name, not
# by type: a method counts as reached when any identifier of the same
# name appears, so the list has no false entries but can miss some.
#
# CI diffs the output against scripts/dead_exports.allow, which names
# the entries that stay on purpose (accessor test oracles, methods an
# interface reaches, code the model keeps); a new unreached export
# fails that step. It needs only find, awk and sort.
set -eu
if [ $# -ne 0 ]; then
    sed -n '5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | sort |
awk '
# Each input line names one file; the file is scanned line by line.
{
    file = $0
    sub(/^\.\//, "", file)
    dir = file
    if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
    scanned = (file !~ /^perfbench\//)
    while ((getline line < $0) > 0) {
        if (line ~ /^[ \t]*\/\//) continue
        if (scanned && match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]/)) {
            head = substr(line, 1, RLENGTH - 1)
            name = head
            sub(/.* /, "", name)
            recv = ""
            if (head ~ /^func \(/) {
                recv = head
                sub(/^func \([A-Za-z0-9_]* ?\*?/, "", recv)
                sub(/[[)].*/, "", recv)
                recv = recv "."
            }
            defs[dir "." recv name] = name
            line = substr(line, RLENGTH)
        }
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, words, " ")
        for (i = 1; i <= n; i++) used[words[i]] = 1
    }
    close($0)
}
END {
    for (d in defs) if (!(defs[d] in used)) print d
}' | LC_ALL=C sort
