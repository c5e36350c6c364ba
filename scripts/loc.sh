#!/bin/sh
# Print the Go line counts of every package, split into non-test and
# test lines (wc -l: comments and blank lines count), for the root
# module and for perfbench, which is its own module, then each module's
# totals. Files are those git tracks plus untracked ones it does not
# ignore, so a new file counts before it is added.
#
# Usage, from anywhere in a checkout: scripts/loc.sh
# Outside a git checkout (a git archive export, say) it fails rather
# than print empty counts.
set -eu
cd "$(dirname "$0")/.."
top=$(git rev-parse --show-toplevel 2>/dev/null) || top=
if [ "$top" != "$(pwd -P)" ]; then
	echo "loc.sh: $(pwd -P) is not the top of a git checkout" >&2
	exit 1
fi
git ls-files --cached --others --exclude-standard -- '*.go' |
	while IFS= read -r f; do
		[ -f "$f" ] && printf '%s %s\n' "$(wc -l <"$f")" "$f"
	done |
	awk '
	{
		n = $1; f = $2
		dir = f
		if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
		mod = (dir == "perfbench" || index(dir, "perfbench/") == 1) ? "perfbench" : "root"
		key = mod " " dir
		if (f ~ /_test\.go$/) { test[key] += n; ttest[mod] += n }
		else { code[key] += n; tcode[mod] += n }
		seen[key] = 1
	}
	END {
		for (k in seen) {
			split(k, part, " ")
			printf "%-9s %-32s %7d %7d\n", part[1], part[2], code[k], test[k] | "sort"
		}
		close("sort")
		for (m in tcode) printf "%-9s %-32s %7d %7d\n", m, "(total)", tcode[m], ttest[m]
	}' |
	{
		printf "%-9s %-32s %7s %7s\n" module package non-test test
		cat
	}
