#!/usr/bin/env bash
# The size ledger (ROADMAP 9a): Rust lines and `pub` items per crate and
# the other sizes the roadmap tracks, one `"key": number` per line of
# SIZE.json, plus a `growth` log of one-line reasons.
#   scripts/size.sh [THREADS] [REASON]  rewrite SIZE.json; growth needs REASON
#   scripts/size.sh --check [THREADS]   fail if a number grew past SIZE.json
# THREADS is what ci.sh's idle smoke counts for `mbd-server --workers 2`;
# without it the committed figure is carried over.
set -euo pipefail
cd "$(dirname "$0")/.."
CHECK=""
[ "${1:-}" = "--check" ] && { CHECK=1; shift; }
[ -z "$CHECK" ] || [ -f SIZE.json ] || { echo "size ledger FAILED: no SIZE.json"; exit 1; }
THREADS="${1:-}" REASON="${2:-}"

committed() { sed -n "s|^  \"$1\": \([0-9]*\),\$|\1|p" SIZE.json 2>/dev/null || true; }
rust() { find "$@" -name '*.rs' -not -path '*/target/*' -exec cat {} +; }
measure() {
    for crate in crates/*/; do
        echo "${crate%/}.rs_lines $(rust "$crate" | wc -l)"
        echo "${crate%/}.pub_items $(rust "$crate" | grep -c '^\s*pub ' || true)"
    done
    echo "src+tests+examples.rs_lines $(rust src tests examples | wc -l)"
    echo "bench/e2e.rs_lines $(rust bench/e2e | wc -l)"
    echo "scripts/ci.sh.lines $(wc -l < scripts/ci.sh)"
    echo "mbd-server.threads_at_workers_2 ${THREADS:-$(committed mbd-server.threads_at_workers_2)}"
}

numbers=""
grew=()
while read -r key now; do
    was="$(committed "$key")"
    [ ! -f SIZE.json ] || [ "$now" -le "${was:-0}" ] || grew+=("$key $was -> $now")
    numbers+="  \"$key\": $now,"$'\n'
done < <(measure)

if [ -n "$CHECK" ]; then
    [ ${#grew[@]} -eq 0 ] || {
        echo "size ledger FAILED: grew past SIZE.json (shrink, or: scripts/size.sh THREADS 'reason'):"
        printf '  %s\n' "${grew[@]}"
        exit 1
    }
    echo "size ledger ok: nothing grew past SIZE.json"
    exit 0
fi
[ ${#grew[@]} -eq 0 ] || [ -n "$REASON" ] || {
    echo "these grew; rerun as: scripts/size.sh THREADS 'one-line reason'"
    printf '  %s\n' "${grew[@]}"
    exit 1
}
growth="$(sed -n 's|^    \("[^"]*"\),\{0,1\}$|\1|p' SIZE.json 2>/dev/null || true)"
for g in ${grew[@]+"${grew[@]}"}; do
    growth+="${growth:+$'\n'}\"$g: ${REASON//\"/\'}\""
done
{
    printf '{\n%s  "growth": [\n' "$numbers"
    [ -z "$growth" ] || sed -e 's|^|    |' -e '$!s|$|,|' <<< "$growth"
    printf '  ]\n}\n'
} > SIZE.json
echo "wrote SIZE.json (${#grew[@]} grew)"
