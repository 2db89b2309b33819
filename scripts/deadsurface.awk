# Writes DEADSURFACE.md for scripts/deadsurface.sh. Input: the drive's
# `go tool covdata func` lines ("<file>:<line>: <name> <percent>").
# Variables: verdicts (scripts/deadsurface.verdicts), testfunc (`go
# tool cover -func` lines of the go test pass), sources (non-test Go
# files, one a line, relative to the repository root), snapshot (the
# directory the script copied those files to before it built, which is
# what is read). Coverage percentages move between runs of one
# commit (scheduling decides how much of a concurrent path runs), so
# the file records only whether a function is reached at all.

# key turns "repro/internal/graph/graph.go:12:" and "*Graph.Equal" into
# "graph.Graph.Equal", the name scripts/deadsurface.verdicts uses.
function key(file, name,    dir) {
    dir = file
    sub(/\/[^\/]*$/, "", dir)
    sub(/.*\//, "", dir)
    gsub(/\*/, "", name)
    return dir "." name
}
# recvtype returns the receiver type of a method declaration line,
# without pointer or type parameters: "func (c *Context[V, M]) ID()"
# gives "Context".
function recvtype(line,    recv) {
    recv = line
    sub(/^func \(/, "", recv)
    sub(/\).*/, "", recv)
    sub(/^[A-Za-z0-9_]+ /, "", recv)
    gsub(/\*/, "", recv)
    sub(/\[.*/, "", recv)
    return recv
}
# fileof strips ":<line>:" from a coverage line's first field.
function fileof(field) {
    sub(/:[0-9]+:$/, "", field)
    return field
}
# reach renders a coverage percentage as reached or unreached.
function reach(p) { return p == "0.0%" ? "unreached" : "reached" }
# verdict renders "<tag> | <reason>" for k and marks the verdict used.
function verdict(k) {
    used[k] = 1
    if (!(k in vtag)) return "untriaged | "
    return vtag[k] " | " vwhy[k]
}
# declare records one exported top-level name of the package in dir.
function declare(dir, pkg, name, kind, where) {
    ndecl++
    dname[ndecl] = name; ddir[ndecl] = dir; dpkg[ndecl] = pkg
    dkind[ndecl] = kind; dwhere[ndecl] = where
}
BEGIN {
    while ((getline line < verdicts) > 0) {
        if (line ~ /^#/ || line !~ /[^ \t]/) continue
        split(line, f, /[ \t]+/)
        vorder[++nv] = f[1]
        vtag[f[1]] = f[2]
        why = line
        sub(/^[^ \t]+[ \t]+[^ \t]+[ \t]+/, "", why)
        vwhy[f[1]] = why
    }
    # cover -func prints a method without its receiver and may put a
    # function on another line than covdata does: both list functions
    # in source order, so the n-th function of one name in a file is
    # the join key.
    while ((getline line < testfunc) > 0) {
        split(line, f, /[ \t]+/)
        file = fileof(f[1])
        n = ++tseen[file SUBSEP f[2]]
        tested[file SUBSEP f[2] SUBSEP n] = f[3]
    }
    # Pass over the non-test sources: exported declarations, interface
    # method names, and identifier counts (bare per directory, after a
    # dot globally, package-qualified globally). Comment lines and
    # trailing " //" comments are skipped.
    while ((getline file < sources) > 0) {
        dir = file
        sub(/\/[^\/]*$/, "", dir)
        if (file !~ /\//) dir = "."
        block = ""
        lineno = 0
        while ((getline line < (snapshot "/" file)) > 0) {
            lineno++
            if (line ~ /^[ \t]*\/\//) continue
            sub(/ \/\/.*$/, "", line)
            # covdata names a method of a generic type without its
            # type; remember every method's receiver by file:line.
            if (line ~ /^func \(/) recvat["repro/" file ":" lineno ":"] = recvtype(line)
            if (line ~ /^package /) { split(line, f, " "); pkg = f[2] }
            if (line ~ /^(const|var) \($/) block = "value"
            else if (line ~ /^type [A-Za-z0-9_]+ interface \{$/) block = "iface"
            else if (line ~ /^[)}]$/) block = ""
            else if (file !~ /^benchmark\//) {
                where = file ":" lineno
                if (block == "value" && line ~ /^\t[A-Z][A-Za-z0-9_]*([ ,=]|$)/) {
                    split(line, f, /[ \t,=]+/); declare(dir, pkg, f[2], "value", where)
                } else if (block == "iface" && line ~ /^\t[A-Z][A-Za-z0-9_]*\(/) {
                    name = line; sub(/^\t/, "", name); sub(/\(.*/, "", name); ifacemethod[name] = 1
                } else if (line ~ /^func [A-Z][A-Za-z0-9_]*[\[(]/) {
                    name = line; sub(/^func /, "", name); sub(/[\[(].*/, "", name); declare(dir, pkg, name, "func", where)
                } else if (line ~ /^func \([^)]*\) [A-Z][A-Za-z0-9_]*[\[(]/) {
                    name = line; sub(/^func \([^)]*\) /, "", name); sub(/[\[(].*/, "", name)
                    declare(dir, pkg, recvtype(line) "." name, "method", where)
                } else if (line ~ /^(type|const|var) [A-Z][A-Za-z0-9_]*[ \[]/) {
                    split(line, f, /[ \[]/); declare(dir, pkg, f[2], f[1], where)
                }
            }
            prev = ""
            while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                tok = substr(line, RSTART, RLENGTH)
                dotted = RSTART > 1 && substr(line, RSTART - 1, 1) == "."
                line = substr(line, RSTART + RLENGTH)
                if (dotted) {
                    dot[tok]++
                    if (prev != "") qual[prev "." tok]++
                } else {
                    bare[dir SUBSEP tok]++
                }
                prev = (line ~ /^\./) ? tok : ""
            }
        }
        close(snapshot "/" file)
    }
}
{
    if ($2 !~ /\./ && ($1 in recvat)) $2 = recvat[$1] "." $2
    k = key($1, $2)
    dkey[NR] = k; pct[k] = $3
    file = fileof($1)
    pkg = file; sub(/\/[^\/]*$/, "", pkg)
    if (!(pkg in pfuncs)) porder[++npkg] = pkg
    pfuncs[pkg]++
    if ($3 != "0.0%") preached[pkg]++
    name = $2; sub(/.*\./, "", name)
    n = ++dseen[file SUBSEP name]
    t = tested[file SUBSEP name SUBSEP n]
    if ($3 != "0.0%") next
    if (t == "" || t == "0.0%") dead[++ndead] = "| `" k "` | " verdict(k) " |"
    else testonly[++ntest] = "| `" k "` | " verdict(k) " |"
}
END {
    print "# Dead surface"
    print ""
    print "Generated by `bash scripts/deadsurface.sh`; do not edit by hand. Tags and"
    print "reasons come from `scripts/deadsurface.verdicts`: **oracle** is a"
    print "reference that tests compare against and stays; **keep** stays for the"
    print "reason given; **later** is a candidate for a future deletion;"
    print "**untriaged** has no verdict yet."
    print ""
    print "The drive, whose command lines are in the script: every `graphbench`"
    print "verb its usage lists, `datagen` in both formats,"
    print "`experiments/smoke.json`, every `benchmark/` workload with `-smoke` at"
    print "`-trace 0` and `1`, and `graphbench serve` over loopback with one"
    print "200-answered request per route."
    print ""
    print "## 1. Functions the drive reaches"
    print ""
    print "| Package | Functions reached |"
    print "|---|---|"
    for (i = 1; i <= npkg; i++) printf "| `%s` | %d of %d |\n", porder[i], preached[porder[i]], pfuncs[porder[i]]
    print ""
    print "Functions at 0 % in the drive that `go test` does not reach either:"
    print ""
    print "| Function | Tag | Reason |"
    print "|---|---|---|"
    for (i = 1; i <= ndead; i++) print dead[i]
    if (ndead == 0) print "| (none) | | |"
    print ""
    print "<details><summary>Every function, reached by the drive or not</summary>"
    print ""
    print "| Function | Drive |"
    print "|---|---|"
    for (i = 1; i <= NR; i++) printf "| `%s` | %s |\n", dkey[i], reach(pct[dkey[i]])
    print ""
    print "</details>"
    print ""
    print "## 2. Exported names with no non-test reference"
    print ""
    print "Found by identifier grep over the non-test Go files of both modules,"
    print "so the method is approximate. A function, type or value counts as"
    print "referenced when its name appears in its own package beyond the"
    print "declaration, or as `pkg.Name` anywhere; a method when `.Name` appears"
    print "anywhere, and methods named like an interface method (of this"
    print "repository or of a standard interface) are skipped. Struct fields are"
    print "not checked. A name shared by two packages can hide a dead one."
    print ""
    print "| Name | Kind | Declared at | Tag | Reason |"
    print "|---|---|---|---|---|"
    split("String Error Format MarshalJSON UnmarshalJSON ServeHTTP Read Write Close Len Less Swap Push Pop Unwrap", std, " ")
    for (i in std) ifacemethod[std[i]] = 1
    none = 1
    for (i = 1; i <= ndecl; i++) {
        name = dname[i]
        if (dkind[i] == "method") {
            m = name; sub(/.*\./, "", m)
            if (m in ifacemethod || dot[m] > 0) continue
        } else if (bare[ddir[i] SUBSEP name] > 1 || qual[dpkg[i] "." name] > 0) {
            continue
        }
        k = ddir[i]; sub(/.*\//, "", k); k = k "." name
        printf "| `%s` | %s | %s | %s |\n", k, dkind[i], dwhere[i], verdict(k)
        none = 0
    }
    if (none) print "| (none) | | | | |"
    print ""
    print "## 3. Reached by tests only"
    print ""
    print "Functions `go test -coverpkg=repro/... ./...` reaches but the drive"
    print "leaves at 0 %."
    print ""
    print "| Function | Tag | Reason |"
    print "|---|---|---|"
    for (i = 1; i <= ntest; i++) print testonly[i]
    if (ntest == 0) print "| (none) | | |"
    print ""
    print "## Oracles"
    print ""
    print "Every function tagged oracle, wherever the drive leaves it. Tests"
    print "compare the system against these, so no deletion takes them."
    print ""
    print "| Function | Drive | Reason |"
    print "|---|---|---|"
    stale = ""
    for (i = 1; i <= nv; i++) {
        k = vorder[i]
        if (vtag[k] == "oracle" && (k in pct)) {
            used[k] = 1
            printf "| `%s` | %s | %s |\n", k, reach(pct[k]), vwhy[k]
        }
        if (!(k in used)) stale = stale "\n- `" k "`"
    }
    if (stale != "") {
        print ""
        print "## Verdicts that match no entry"
        print ""
        print "These functions are gone, or the drive now reaches them: delete"
        print "their lines from `scripts/deadsurface.verdicts`."
        print substr(stale, 2)
    }
}
