#include "verify/lint/lockset.hh"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "verify/lint/text.hh"

namespace hmg::verify::lint
{

namespace
{

// Pattern constants that a raw-text search for banned tokens would
// match (strings included) are spelled as split literals, same as
// determinism.cc.

constexpr int kWindow = 4; //!< an `lp-ok:` covers the 4 lines below it

const std::string kMarker = "lp-ok:";

/** A braced block with its classification. */
struct Block
{
    int start;      // 1-based line of '{'
    int end;        // 1-based line of '}' (last line when unclosed)
    int depth;      // brace nesting depth at '{'
    bool aggregate; // namespace / struct / class / union / enum body
};

/** One scanned file plus the analysis state hung off it. */
struct LFile
{
    SourceFile sf;
    std::string stem; //!< rel path minus extension, pairing .hh/.cc
    std::vector<Block> blocks;
    std::set<int> lpOk;     //!< annotation lines (1-based)
    std::set<int> lpOkUsed; //!< annotations that suppressed a finding
};

/** A position in a file's code view, for cross-line scanning. */
struct Cursor
{
    const LFile *f;
    int line;        // 1-based
    std::size_t col; // 0-based into code[line-1]

    bool
    valid() const
    {
        return line <= static_cast<int>(f->sf.code.size());
    }
    char
    ch() const
    {
        const std::string &s = f->sf.code[line - 1];
        return col < s.size() ? s[col] : '\n';
    }
    void
    next()
    {
        if (col < f->sf.code[line - 1].size()) {
            ++col;
        } else {
            ++line;
            col = 0;
        }
    }
};

void
skipSpace(Cursor &c)
{
    while (c.valid() &&
           std::isspace(static_cast<unsigned char>(c.ch())))
        c.next();
}

std::string
readIdent(Cursor &c)
{
    std::string id;
    while (c.valid() && identChar(c.ch())) {
        id += c.ch();
        c.next();
    }
    return id;
}

std::string
stemOf(const std::string &rel)
{
    const std::size_t dot = rel.rfind('.');
    const std::size_t slash = rel.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return rel;
    return rel.substr(0, dot);
}

/**
 * Does the statement text introducing a '{' open an aggregate
 * (namespace / struct / class / union / enum body)? The segment is
 * everything since the last ';', '{' or '}'; an aggregate intro is a
 * kind keyword followed only by name / template-argument / base-list
 * characters up to the brace. `alignas(...)` specifiers are stripped
 * first so `struct alignas(64) X` classifies correctly.
 */
bool
aggregateIntro(std::string seg)
{
    std::size_t a;
    while ((a = seg.find("alignas")) != std::string::npos) {
        std::size_t p = seg.find('(', a);
        if (p == std::string::npos) {
            seg.erase(a, 7);
            continue;
        }
        int depth = 0;
        std::size_t e = p;
        for (; e < seg.size(); ++e) {
            if (seg[e] == '(')
                ++depth;
            else if (seg[e] == ')' && --depth == 0)
                break;
        }
        seg.erase(a, (e < seg.size() ? e + 1 : seg.size()) - a);
    }

    std::size_t best = std::string::npos, bestEnd = 0;
    for (const char *kw :
         {"namespace", "struct", "class", "union", "enum"}) {
        std::size_t pos = 0, at;
        while ((at = findToken(seg, kw, pos)) != std::string::npos) {
            if (best == std::string::npos || at > best) {
                best = at;
                bestEnd = at + std::string(kw).size();
            }
            pos = at + 1;
        }
    }
    if (best == std::string::npos)
        return false;
    for (std::size_t i = bestEnd; i < seg.size(); ++i) {
        const char c = seg[i];
        if (!identChar(c) &&
            !std::isspace(static_cast<unsigned char>(c)) &&
            c != ':' && c != ',' && c != '<' && c != '>')
            return false;
    }
    return true;
}

/** Parse the brace structure of a file's code view. */
std::vector<Block>
parseBlocks(const std::vector<std::string> &code)
{
    std::vector<Block> out;
    std::vector<std::size_t> open;
    std::string recent;
    int depth = 0;
    for (int ln = 1; ln <= static_cast<int>(code.size()); ++ln) {
        for (const char c : code[ln - 1]) {
            if (c == '{') {
                out.push_back({ln, static_cast<int>(code.size()),
                               depth, aggregateIntro(recent)});
                open.push_back(out.size() - 1);
                ++depth;
                recent.clear();
            } else if (c == '}') {
                if (!open.empty()) {
                    out[open.back()].end = ln;
                    open.pop_back();
                    --depth;
                }
                recent.clear();
            } else if (c == ';') {
                recent.clear();
            } else {
                recent += c;
                if (recent.size() > 500)
                    recent.erase(0, 100);
            }
        }
        recent += ' ';
    }
    return out;
}

/**
 * The function containing `line`: the outermost non-aggregate block.
 * Aggregates never nest inside functions here (local structs don't
 * occur in the analyzed idioms), so the shallowest code block *is* the
 * function body — which is the extent the lock check must cover,
 * because the repo's idiom defines the field-touching lambda before
 * the `if (concurrent_)` lock dispatch.
 */
const Block *
enclosingFunction(const LFile &f, int line)
{
    const Block *best = nullptr;
    for (const Block &b : f.blocks) {
        if (b.aggregate || line < b.start || line > b.end)
            continue;
        if (!best || b.depth < best->depth)
            best = &b;
    }
    return best;
}

/** Does any code line of [first, last] carry the token `tok`? */
bool
extentHasToken(const LFile &f, int first, int last,
               const std::string &tok)
{
    last = std::min(last, static_cast<int>(f.sf.code.size()));
    for (int l = std::max(1, first); l <= last; ++l)
        if (findToken(f.sf.code[l - 1], tok, 0) != std::string::npos)
            return true;
    return false;
}

/** Lock acquisition vocabulary accepted by the E1 extent check. */
const std::vector<std::string> &
lockTokens()
{
    static const std::vector<std::string> kTokens = {
        "lock_guard", "scoped_lock", "unique_lock", "MaybeLock"};
    return kTokens;
}

/** Consume an `lp-ok:` covering `line` (window above), if any. */
bool
suppressed(LFile &f, int line)
{
    for (int l = std::max(1, line - kWindow); l <= line; ++l) {
        if (f.lpOk.count(l)) {
            f.lpOkUsed.insert(l);
            return true;
        }
    }
    return false;
}

Finding
locksetFinding(const LFile &f, int line, const std::string &check,
               std::string message)
{
    Finding fd;
    fd.family = "lockset";
    fd.check = check;
    fd.file = f.sf.rel;
    fd.line = line;
    fd.message = std::move(message);
    return fd;
}

// ------------------------------------------------------------------
// Registration: shard-guarded fields and atomic members.
// ------------------------------------------------------------------

struct GuardedField
{
    std::size_t fileIdx;
    int mutexLine;
    int fieldLine;
    std::string mutexName;
    std::string fieldName;
};

struct AtomicMember
{
    std::size_t fileIdx;
    int line;
    std::string name;
};

/**
 * The scope a declaration on `line` lives in: the innermost block
 * opened strictly *before* the line (nullptr at file scope). Blocks
 * opened on the line itself are the declaration's own brace
 * initializer (`std::atomic<T> x{0};`), not its scope.
 */
const Block *
declScope(const LFile &f, int line)
{
    const Block *best = nullptr;
    for (const Block &b : f.blocks) {
        if (b.start >= line || line > b.end)
            continue;
        if (!best || b.depth > best->depth)
            best = &b;
    }
    return best;
}

/** Terminal identifier of a declaration (name before ';' / '='). */
std::string
declName(std::string decl)
{
    const std::size_t semi = decl.find(';');
    if (semi != std::string::npos)
        decl.resize(semi);
    int angle = 0;
    for (std::size_t i = 0; i < decl.size(); ++i) {
        const char c = decl[i];
        if (c == '<')
            ++angle;
        else if (c == '>')
            --angle;
        else if ((c == '=' || c == '{') && angle == 0) {
            decl.resize(i);
            break;
        }
    }
    int end = static_cast<int>(decl.size());
    while (end > 0 &&
           !identChar(decl[static_cast<std::size_t>(end) - 1]))
        --end;
    int begin = end;
    while (begin > 0 &&
           identChar(decl[static_cast<std::size_t>(begin) - 1]))
        --begin;
    return decl.substr(begin, end - begin);
}

/**
 * Register shard-guarded fields: a mutex member whose aggregate packs
 * data members right below it (the MemoryState/PageTable 64-shard
 * idiom) guards those members. Registration stops at the first blank
 * line or closing brace, so a mutex followed by an unrelated section
 * guards nothing.
 */
void
scanMutexMembers(std::vector<LFile> &files, std::size_t fi,
                 std::vector<GuardedField> &out)
{
    LFile &f = files[fi];
    for (int ln = 1; ln <= static_cast<int>(f.sf.code.size()); ++ln) {
        const std::string &s = f.sf.code[ln - 1];
        for (const char *ty : {"std::mutex", "std::recursive_mutex"}) {
            std::size_t at = findToken(s, ty, 0);
            if (at == std::string::npos)
                continue;
            Cursor c{&f, ln, at + std::string(ty).size()};
            skipSpace(c);
            while (c.valid() && (c.ch() == '*' || c.ch() == '&')) {
                c.next();
                skipSpace(c);
            }
            const std::string name = readIdent(c);
            skipSpace(c);
            if (name.empty() || c.ch() == '(')
                continue; // not a data-member declaration
            const Block *scope = declScope(f, ln);
            if (!scope || !scope->aggregate)
                continue; // locals are scoped correctly by construction
            for (int l = ln + 1;
                 l <= std::min(ln + kWindow,
                               static_cast<int>(f.sf.code.size()));
                 ++l) {
                const std::string &rawLine = f.sf.raw[l - 1];
                if (rawLine.find_first_not_of(" \t") ==
                    std::string::npos)
                    break; // blank: end of the guarded cluster
                const std::string &codeLine = f.sf.code[l - 1];
                if (codeLine.find('}') != std::string::npos)
                    break;
                if (codeLine.find_first_not_of(' ') ==
                    std::string::npos)
                    continue; // pure comment line
                if (codeLine.find(';') == std::string::npos ||
                    codeLine.find('(') != std::string::npos)
                    continue; // not a plain data member
                const std::string field = declName(codeLine);
                if (!field.empty())
                    out.push_back({fi, ln, l, name, field});
            }
        }
    }
}

/** Register atomic data members (aggregate scope only). */
void
scanAtomicMembers(std::vector<LFile> &files, std::size_t fi,
                  std::vector<AtomicMember> &out)
{
    LFile &f = files[fi];
    const std::string ty = "std::atomic";
    for (int ln = 1; ln <= static_cast<int>(f.sf.code.size()); ++ln) {
        const std::string &s = f.sf.code[ln - 1];
        std::size_t pos = 0, at;
        while ((at = findToken(s, ty, pos)) != std::string::npos) {
            pos = at + 1;
            Cursor c{&f, ln, at + ty.size()};
            if (c.ch() != '<')
                continue;
            int angle = 0;
            while (c.valid()) {
                if (c.ch() == '<')
                    ++angle;
                else if (c.ch() == '>' && --angle == 0) {
                    c.next();
                    break;
                }
                c.next();
            }
            skipSpace(c);
            const std::string name = readIdent(c);
            skipSpace(c);
            if (name.empty() || c.ch() == '(')
                continue;
            const Block *scope = declScope(f, ln);
            if (!scope || !scope->aggregate)
                continue;
            out.push_back({fi, ln, name});
        }
    }
}

// ------------------------------------------------------------------
// Checks.
// ------------------------------------------------------------------

/** E1: every guarded-field use is locked or justified. */
void
checkGuardedUses(std::vector<LFile> &files,
                 const std::vector<GuardedField> &fields,
                 std::uint64_t &uses, LintReport &report)
{
    for (const GuardedField &gf : fields) {
        const LFile &df = files[gf.fileIdx];
        const std::string declStem = df.stem;
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            LFile &f = files[fi];
            if (f.stem != declStem)
                continue;
            for (int ln = 1;
                 ln <= static_cast<int>(f.sf.code.size()); ++ln) {
                if (fi == gf.fileIdx && ln == gf.fieldLine)
                    continue; // the declaration itself
                const std::string &s = f.sf.code[ln - 1];
                std::size_t pos = 0, at;
                while ((at = findToken(s, gf.fieldName, pos)) !=
                       std::string::npos) {
                    pos = at + 1;
                    // Member access only: `.field` / `->field`.
                    const bool dot = at >= 1 && s[at - 1] == '.';
                    const bool arrow = at >= 2 && s[at - 2] == '-' &&
                                       s[at - 1] == '>';
                    if (!dot && !arrow)
                        continue;
                    ++uses;
                    const Block *fn = enclosingFunction(f, ln);
                    bool locked = false;
                    if (fn) {
                        bool anyLock = false;
                        for (const std::string &tok : lockTokens())
                            anyLock = anyLock ||
                                      extentHasToken(f, fn->start,
                                                     fn->end, tok);
                        locked = anyLock &&
                                 extentHasToken(f, fn->start, fn->end,
                                                gf.mutexName);
                    }
                    if (locked || suppressed(f, ln))
                        continue;
                    Finding fd = locksetFinding(
                        f, ln, "unlocked-access",
                        "unlocked access to shard-guarded field '" +
                            gf.fieldName +
                            "': no lock on '" + gf.mutexName +
                            "' in the enclosing function");
                    fd.counterexample.push_back(
                        "field declared at " + df.sf.rel + ":" +
                        std::to_string(gf.fieldLine) +
                        ", guarded by mutex '" + gf.mutexName +
                        "' (line " + std::to_string(gf.mutexLine) +
                        ")");
                    fd.counterexample.push_back(
                        fn ? "enclosing function (lines " +
                                 std::to_string(fn->start) + "-" +
                                 std::to_string(fn->end) +
                                 ") acquires no lock_guard/scoped_"
                                 "lock/unique_lock/MaybeLock naming "
                                 "'" + gf.mutexName + "'"
                           : "use is outside any function body");
                    fd.counterexample.push_back(
                        "lock the shard, or annotate with '" +
                        kMarker +
                        " <why no LP worker can be live here>'");
                    report.add(std::move(fd));
                }
            }
        }
    }
}

/** Atomic member-function vocabulary whose calls need an order. */
bool
atomicMethod(const std::string &m)
{
    static const std::set<std::string> kMethods = {
        "load", "store", "exchange", "fetch_add", "fetch_sub",
        "fetch_and", "fetch_or", "fetch_xor",
        "compare_exchange_weak", "compare_exchange_strong"};
    return kMethods.count(m) != 0;
}

/** E2: atomic discipline — explicit orders, no raw operations. */
void
checkAtomicUses(std::vector<LFile> &files,
                const std::vector<AtomicMember> &atomics,
                std::uint64_t &uses, LintReport &report)
{
    for (const AtomicMember &am : atomics) {
        const LFile &df = files[am.fileIdx];
        const std::string declStem = df.stem;
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            LFile &f = files[fi];
            if (f.stem != declStem)
                continue;
            for (int ln = 1;
                 ln <= static_cast<int>(f.sf.code.size()); ++ln) {
                const std::string &s = f.sf.code[ln - 1];
                std::size_t pos = 0, at;
                while ((at = findToken(s, am.name, pos)) !=
                       std::string::npos) {
                    pos = at + 1;
                    // Single-character members (ReleaseTracker's
                    // LpPending::v) match only as `.v` / `->v`, or
                    // every loop variable of that name would trip.
                    if (am.name.size() == 1) {
                        const bool dot = at >= 1 && s[at - 1] == '.';
                        const bool arrow = at >= 2 &&
                                           s[at - 2] == '-' &&
                                           s[at - 1] == '>';
                        if (!dot && !arrow)
                            continue;
                    }
                    Cursor c{&f, ln, at + am.name.size()};
                    skipSpace(c);

                    // Raw pre-increment/decrement: look left.
                    std::size_t b = at;
                    while (b > 0 && s[b - 1] == ' ')
                        --b;
                    const bool rawPre =
                        b >= 2 && ((s[b - 2] == '+' && s[b - 1] == '+') ||
                                   (s[b - 2] == '-' && s[b - 1] == '-'));

                    bool rawOp = rawPre;
                    std::string method;
                    if (!rawPre && c.valid()) {
                        const char n0 = c.ch();
                        if (n0 == '.' ||
                            (n0 == '-' && [&] {
                                Cursor t = c;
                                t.next();
                                return t.valid() && t.ch() == '>';
                            }())) {
                            c.next();
                            if (n0 == '-')
                                c.next();
                            method = readIdent(c);
                            skipSpace(c);
                            if (c.ch() != '(' ||
                                !atomicMethod(method))
                                method.clear();
                        } else if (n0 == '+' || n0 == '-' ||
                                   n0 == '|' || n0 == '&' ||
                                   n0 == '^') {
                            Cursor t = c;
                            t.next();
                            const char n1 = t.valid() ? t.ch() : '\0';
                            rawOp = n1 == '=' ||
                                    (n0 == '+' && n1 == '+') ||
                                    (n0 == '-' && n1 == '-');
                        } else if (n0 == '=') {
                            Cursor t = c;
                            t.next();
                            rawOp = !(t.valid() && t.ch() == '=');
                        }
                    }

                    if (!method.empty()) {
                        ++uses;
                        // Scan the argument list (cross-line) for an
                        // explicit memory order.
                        int depth = 0;
                        bool hasOrder = false;
                        std::string window;
                        while (c.valid()) {
                            const char ch = c.ch();
                            window += ch == '\n' ? ' ' : ch;
                            if (ch == '(')
                                ++depth;
                            else if (ch == ')' && --depth == 0)
                                break;
                            c.next();
                        }
                        hasOrder =
                            window.find("memory_order") !=
                            std::string::npos;
                        if (!hasOrder && !suppressed(f, ln)) {
                            Finding fd = locksetFinding(
                                f, ln, "implicit-seq-cst",
                                "atomic member '" + am.name + "'." +
                                    method +
                                    "() without an explicit "
                                    "std::memory_order (the LP "
                                    "discipline documents every "
                                    "order at the call site)");
                            fd.counterexample.push_back(
                                "atomic declared at " + df.sf.rel +
                                ":" + std::to_string(am.line));
                            report.add(std::move(fd));
                        }
                    } else if (rawOp) {
                        ++uses;
                        if (!suppressed(f, ln)) {
                            Finding fd = locksetFinding(
                                f, ln, "atomic-raw-access",
                                "raw operation on atomic member '" +
                                    am.name +
                                    "' hides a seq_cst RMW; use an "
                                    "explicit fetch_/store with a "
                                    "named memory order");
                            fd.counterexample.push_back(
                                "atomic declared at " + df.sf.rel +
                                ":" + std::to_string(am.line));
                            report.add(std::move(fd));
                        }
                    }
                }
            }
        }
    }
}

/** E3: posted closures must not blanket-capture by reference. */
void
checkPostedClosures(std::vector<LFile> &files, std::uint64_t &sites,
                    LintReport &report)
{
    const std::string tok = "post";
    for (LFile &f : files) {
        for (int ln = 1; ln <= static_cast<int>(f.sf.code.size());
             ++ln) {
            const std::string &s = f.sf.code[ln - 1];
            std::size_t pos = 0, at;
            while ((at = findToken(s, tok, pos)) !=
                   std::string::npos) {
                pos = at + 1;
                Cursor c{&f, ln, at + tok.size()};
                if (c.ch() != '(')
                    continue;
                ++sites;
                int depth = 0;
                std::string args;
                while (c.valid()) {
                    const char ch = c.ch();
                    args += ch == '\n' ? ' ' : ch;
                    if (ch == '(')
                        ++depth;
                    else if (ch == ')' && --depth == 0)
                        break;
                    c.next();
                }
                const std::size_t amp = args.find("[&");
                const bool blanket =
                    amp != std::string::npos &&
                    amp + 2 < args.size() &&
                    (args[amp + 2] == ']' || args[amp + 2] == ',');
                if (!blanket || suppressed(f, ln))
                    continue;
                Finding fd = locksetFinding(
                    f, ln, "posted-ref-capture",
                    "closure handed across an LP boundary captures "
                    "by blanket reference; it outlives the posting "
                    "scope — capture by value (or name the long-"
                    "lived objects explicitly)");
                report.add(std::move(fd));
            }
        }
    }
}

} // namespace

void
analyzeLockset(const LocksetOptions &opts, LintReport &report)
{
    std::vector<SourceFile> sources;
    std::string error;
    if (!loadSourceTree(opts.root, sources, error)) {
        Finding f;
        f.family = "lockset";
        f.check = "bad-root";
        f.file = opts.root;
        f.message = error;
        report.add(std::move(f));
        return;
    }

    if (opts.seedLockset) {
        // A virtual translation unit carrying the canonical defect:
        // a shard-guarded map read outside any lock. (Split literal:
        // see the note at the top of this file.)
        SourceFile seeded;
        seeded.rel = "src/mem/__seed_lockset__.cc";
        seeded.raw = {
            "struct SeededShard",
            "{",
            "    std::mutex mu;",
            std::string("    std::unordered") +
                "_map<int, int> lines;",
            "};",
            "",
            "int",
            "seededPeek(SeededShard &s)",
            "{",
            "    return static_cast<int>(s.lines.size());",
            "}",
        };
        splitViews(seeded.raw, seeded.code, seeded.comments);
        sources.push_back(std::move(seeded));
    }

    std::vector<LFile> files;
    files.reserve(sources.size());
    for (SourceFile &sf : sources) {
        LFile f;
        f.sf = std::move(sf);
        f.stem = stemOf(f.sf.rel);
        f.blocks = parseBlocks(f.sf.code);
        for (int ln = 1; ln <= static_cast<int>(f.sf.raw.size());
             ++ln)
            if (hasAnnotation(f.sf.comments[ln - 1], kMarker))
                f.lpOk.insert(ln);
        files.push_back(std::move(f));
    }

    std::vector<GuardedField> fields;
    std::vector<AtomicMember> atomics;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        scanMutexMembers(files, fi, fields);
        scanAtomicMembers(files, fi, atomics);
    }

    std::uint64_t guardedUses = 0, atomicUses = 0, postSites = 0;
    checkGuardedUses(files, fields, guardedUses, report);
    checkAtomicUses(files, atomics, atomicUses, report);
    checkPostedClosures(files, postSites, report);

    // E4: stale suppressions — an `lp-ok:` (backticked mentions don't
    // count, same as det-ok) must have excused an actual finding.
    std::uint64_t suppressions = 0;
    for (const LFile &f : files) {
        for (int ln : f.lpOk) {
            ++suppressions;
            if (f.lpOkUsed.count(ln))
                continue;
            report.add(locksetFinding(
                f, ln, "stale-suppression",
                "'" + kMarker +
                    "' suppresses nothing: no unlocked/unordered "
                    "access in its " + std::to_string(kWindow) +
                    "-line window; delete it or move it next to "
                    "what it excuses"));
        }
    }

    report.stat("lockset.files", files.size());
    report.stat("lockset.guarded_fields", fields.size());
    report.stat("lockset.guarded_uses", guardedUses);
    report.stat("lockset.atomic_members", atomics.size());
    report.stat("lockset.atomic_uses", atomicUses);
    report.stat("lockset.post_sites", postSites);
    report.stat("lockset.suppressions", suppressions);
}

} // namespace hmg::verify::lint
