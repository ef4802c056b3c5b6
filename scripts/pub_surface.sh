#!/usr/bin/env bash
# One public surface: every `pub fn` in the workspace crates has a caller in
# non-test code, or a line in scripts/pub_surface.allow that says why it
# stays without one.
#
#   scripts/pub_surface.sh          check; exit 1 on an unlisted or stale name
#   scripts/pub_surface.sh --list   print every caller-less `pub fn`, listed or not
#
# Non-test code is `crates/*/src` (each file up to its first `#[cfg(test)]`),
# `src/`, `examples/` and `benchmark/src`. Comment lines, trailing `//`
# comments and `use` declarations are not code. A `pub fn` has a caller when
# its name occurs in that code as a call or a path (`name(`, `.name(`,
# `name::<`, `::name`) anywhere but in a definition (`fn name`). Names are
# not resolved to types, so another item's call of the same name counts as
# a caller and the list errs towards short.
#
# An allow-list line is `<item> <reason>`, where the item is
# `crate::Type::name` for a method and `crate::module::name` for a free
# function. A line whose item has gained a caller or no longer exists is
# stale and fails the check too, so the list only shrinks.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/pub_surface.allow

# Prints `file<TAB>owner<TAB>line` for every line of non-test code, where
# owner is the `impl` type or inline module a column-0 block opened ("" at
# file level).
code() {
    awk '
        FNR == 1 { skip = 0; inuse = 0; owner = "" }
        skip { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; next }
        inuse { if (index($0, ";")) inuse = 0; next }
        /^[[:space:]]*(pub(\([a-z]+\))? )?use / { if (!index($0, ";")) inuse = 1; next }
        /^[[:space:]]*\/\// { next }
        /^impl/ {
            head = $0
            sub(/[[:space:]]*(where.*)?\{.*$/, "", head)
            sub(/^.* for /, "", head)
            sub(/^impl(<[^>]*>)?[[:space:]]+/, "", head)
            sub(/<.*$/, "", head)
            owner = head
        }
        /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{/ { owner = $0; sub(/^.*mod /, "", owner); sub(/ .*$/, "", owner) }
        /^\}/ { owner = "" }
        { line = $0; sub(/[[:space:]]\/\/.*$/, "", line); print FILENAME "\t" owner "\t" line }
    ' "$@"
}

sources() { find "$@" -name '*.rs' -type f | LC_ALL=C sort; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# shellcheck disable=SC2046
code $(sources crates/*/src src examples benchmark/src) > "$tmp/code"

# Every `pub fn`, as `name<TAB>item`.
# shellcheck disable=SC2046
code $(sources crates/*/src src) | awk -F'\t' '
    $3 ~ /^[[:space:]]*pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/ {
        name = $3
        sub(/^[[:space:]]*pub (const |unsafe )?fn /, "", name)
        sub(/[^A-Za-z0-9_].*$/, "", name)
        file = $1
        crate = file
        if (crate ~ /^crates\//) { sub(/^crates\//, "", crate); sub(/\/.*$/, "", crate); crate = "st_" crate }
        else crate = "set_timeliness"
        owner = $2
        if (owner == "") {
            owner = file
            sub(/^.*\//, "", owner)
            sub(/\.rs$/, "", owner)
            if (owner == "lib" || owner == "main") owner = ""
        }
        print name "\t" crate "::" (owner == "" ? "" : owner "::") name
    }' | LC_ALL=C sort -u > "$tmp/pub"

# Every name called or named by path outside a definition.
cut -f3 "$tmp/code" | sed -E 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' \
    | grep -oE '::[A-Za-z_][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*[[:space:]]*(\(|::<)' \
    | sed -E 's/^:://; s/[[:space:]]*(\(|::<)$//' | LC_ALL=C sort -u > "$tmp/used"

# Caller-less: names never used, as items.
cut -f1 "$tmp/pub" | LC_ALL=C sort -u | LC_ALL=C comm -23 - "$tmp/used" > "$tmp/dead_names"
awk -F'\t' 'NR == FNR { dead[$1] = 1; next } dead[$1] { print $2 }' "$tmp/dead_names" "$tmp/pub" \
    | LC_ALL=C sort -u > "$tmp/dead"

if [ "${1:-}" = "--list" ]; then
    cat "$tmp/dead"
    exit 0
fi

# Allow-list: `<item> <reason>`; `#` lines and blank lines are commentary.
grep -vE '^[[:space:]]*(#|$)' "$allow" > "$tmp/allow_lines" || true
awk 'NF < 2 { print "pub_surface.allow: no reason given for " $1; bad = 1 } END { exit bad }' "$tmp/allow_lines"
awk '{ print $1 }' "$tmp/allow_lines" | LC_ALL=C sort > "$tmp/allowed"
dupes=$(uniq -d "$tmp/allowed")
if [ -n "$dupes" ]; then
    echo "pub_surface.allow lists an item twice: $dupes"
    exit 1
fi

unlisted=$(LC_ALL=C comm -23 "$tmp/dead" "$tmp/allowed")
stale=$(LC_ALL=C comm -13 "$tmp/dead" "$tmp/allowed")
status=0
if [ -n "$unlisted" ]; then
    echo "pub fns with no caller in non-test code ($(echo "$unlisted" | wc -l)), and not on $allow:"
    echo "$unlisted" | sed 's/^/  /'
    echo "Give each a caller, make it private or test support, delete it, or list it with its reason."
    status=1
fi
if [ -n "$stale" ]; then
    echo "stale lines on $allow (the item has a caller now, or no longer exists):"
    echo "$stale" | sed 's/^/  /'
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "pub_surface: $(wc -l < "$tmp/pub") pub fns, $(wc -l < "$tmp/allowed") caller-less and allow-listed, none unlisted"
fi
exit "$status"
