#include "verify/lint/determinism.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "verify/lint/text.hh"

namespace hmg::verify::lint
{

namespace
{

// Banned/suppressible tokens are spelled as split literals throughout
// this file so a raw-text search of the tree (strings included) finds
// only real uses, never the analyzer's own pattern constants.

constexpr int kWindow = 4; //!< det-ok applies to the 4 lines below it

/** One scanned source file: raw text plus a comment/string-stripped
 *  "code view" (and its inverse comment view), all with identical
 *  line/column geometry. */
struct SrcFile
{
    std::string rel; //!< path relative to the repo root
    std::vector<std::string> raw;
    std::vector<std::string> code;
    std::vector<std::string> comments;
    /** Raw lines containing a det-ok marker. */
    std::set<int> suppressLines; // 1-based
    /** Lines recognized as suppressible constructs (for D6). */
    std::set<int> constructLines;

    bool
    suppressedAt(int line) const
    {
        for (int l = std::max(1, line - kWindow); l <= line; ++l)
            if (suppressLines.count(l))
                return true;
        return false;
    }
};

/** A position in a file's code view, for cross-line scanning. */
struct Cursor
{
    const SrcFile *f;
    int line;        // 1-based
    std::size_t col; // 0-based into code[line-1]

    bool
    valid() const
    {
        return line <= static_cast<int>(f->code.size());
    }
    char
    ch() const
    {
        const std::string &s = f->code[line - 1];
        return col < s.size() ? s[col] : '\n';
    }
    void
    next()
    {
        if (col < f->code[line - 1].size()) {
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

Finding
srcFinding(const SrcFile &f, int line, const std::string &check,
           std::string message)
{
    Finding fd;
    fd.family = "determinism";
    fd.check = check;
    fd.file = f.rel;
    fd.line = line;
    fd.message = std::move(message);
    return fd;
}

// ------------------------------------------------------------------
// Declaration scanning.
// ------------------------------------------------------------------

struct UnorderedDecl
{
    const SrcFile *file;
    int line;
    std::string name;
    bool suppressed;
};

const std::string kUnorderedPrefix = std::string("std::") +
                                     "unordered" + "_";

/** Scan one file for unordered-container declarations. */
void
scanUnorderedDecls(SrcFile &f, std::vector<UnorderedDecl> &out)
{
    for (int ln = 1; ln <= static_cast<int>(f.code.size()); ++ln) {
        const std::string &s = f.code[ln - 1];
        std::size_t pos = 0;
        while ((pos = s.find(kUnorderedPrefix, pos)) !=
               std::string::npos) {
            Cursor c{&f, ln, pos + kUnorderedPrefix.size()};
            const std::string kind = readIdent(c);
            pos += kUnorderedPrefix.size();
            if (kind != "map" && kind != "set" &&
                kind != "multimap" && kind != "multiset")
                continue;
            skipSpace(c);
            if (c.ch() != '<')
                continue;
            f.constructLines.insert(ln);
            // Balance the template argument list (angle depth only;
            // parens inside, e.g. decltypes, tracked too).
            int angle = 0, paren = 0;
            while (c.valid()) {
                const char ch = c.ch();
                if (ch == '<')
                    ++angle;
                else if (ch == '>' && paren == 0 && --angle == 0) {
                    c.next();
                    break;
                } else if (ch == '(')
                    ++paren;
                else if (ch == ')')
                    --paren;
                c.next();
            }
            skipSpace(c);
            while (c.valid() && (c.ch() == '*' || c.ch() == '&')) {
                c.next();
                skipSpace(c);
            }
            std::string name = readIdent(c);
            // A using-alias of an unordered container declares the
            // identifier on the *left* of '='; recover it from there.
            const std::size_t eq = s.rfind('=', pos);
            if (name.empty() && eq != std::string::npos) {
                std::size_t e = eq;
                while (e > 0 && std::isspace(
                                    static_cast<unsigned char>(
                                        s[e - 1])))
                    --e;
                std::size_t b = e;
                while (b > 0 && identChar(s[b - 1]))
                    --b;
                name = s.substr(b, e - b);
            }
            skipSpace(c);
            if (c.valid() && c.ch() == '(')
                continue; // function return type, not a variable
            out.push_back({&f, ln, name, f.suppressedAt(ln)});
        }
    }
}

// ------------------------------------------------------------------
// Iteration scanning.
// ------------------------------------------------------------------

struct IterationSite
{
    const SrcFile *file;
    int line;
    std::string container;
    /** Body range for the float-accumulation pass (range-for only;
     *  endLine < startLine when no braced body was found). */
    int bodyStart = 0, bodyEnd = -1;
};

/** Last identifier of an expression like `s.home` or `shardOf(p).m`. */
std::string
terminalIdent(const std::string &expr)
{
    int end = static_cast<int>(expr.size());
    while (end > 0 &&
           !identChar(expr[static_cast<std::size_t>(end) - 1]))
        --end;
    int begin = end;
    while (begin > 0 &&
           identChar(expr[static_cast<std::size_t>(begin) - 1]))
        --begin;
    // A trailing call like `.items()` names a function, not a
    // variable; the stripped trailer tells them apart.
    const std::size_t after = expr.find('(', end);
    if (after != std::string::npos)
        return "";
    return expr.substr(begin, end - begin);
}

void
scanIterations(const SrcFile &f, const std::set<std::string> &unordered,
               std::vector<IterationSite> &out)
{
    for (int ln = 1; ln <= static_cast<int>(f.code.size()); ++ln) {
        const std::string &s = f.code[ln - 1];

        // Explicit iterator access: `container.begin()` / .cbegin().
        for (const char *m : {".begin", ".cbegin"}) {
            std::size_t pos = 0;
            while ((pos = findToken(s, m + 1, pos)) !=
                   std::string::npos) {
                const std::size_t at = pos;
                pos += std::string(m + 1).size();
                if (at == 0 || s[at - 1] != '.')
                    continue;
                if (pos >= s.size() || s[pos] != '(')
                    continue;
                std::size_t b = at - 1;
                while (b > 0 && identChar(s[b - 1]))
                    --b;
                const std::string name = s.substr(b, at - 1 - b);
                if (unordered.count(name))
                    out.push_back({&f, ln, name, 0, -1});
            }
        }

        // Range-for: `for (decl : range)`.
        std::size_t pos = 0;
        while ((pos = findToken(s, "for", pos)) != std::string::npos) {
            Cursor c{&f, ln, pos + 3};
            pos += 3;
            skipSpace(c);
            if (c.ch() != '(')
                continue;
            c.next();
            // Capture the parenthesized head across lines.
            std::string head;
            int depth = 1;
            while (c.valid() && depth > 0) {
                const char ch = c.ch();
                if (ch == '(')
                    ++depth;
                else if (ch == ')' && --depth == 0)
                    break;
                head += ch == '\n' ? ' ' : ch;
                c.next();
            }
            // Top-level ':' (skipping '::') marks a range-for.
            std::size_t colon = std::string::npos;
            int d = 0;
            for (std::size_t i = 0; i < head.size(); ++i) {
                const char ch = head[i];
                if (ch == '(' || ch == '[' || ch == '{')
                    ++d;
                else if (ch == ')' || ch == ']' || ch == '}')
                    --d;
                else if (ch == ':' && d == 0) {
                    if ((i + 1 < head.size() && head[i + 1] == ':') ||
                        (i > 0 && head[i - 1] == ':'))
                        continue;
                    colon = i;
                    break;
                }
            }
            if (colon == std::string::npos)
                continue;
            const std::string name =
                terminalIdent(head.substr(colon + 1));
            if (name.empty() || !unordered.count(name))
                continue;
            IterationSite site{&f, ln, name, 0, -1};
            // Body extent (braced bodies only), for pass D5.
            c.next(); // consume ')'
            skipSpace(c);
            if (c.valid() && c.ch() == '{') {
                site.bodyStart = c.line;
                int braces = 0;
                while (c.valid()) {
                    if (c.ch() == '{')
                        ++braces;
                    else if (c.ch() == '}' && --braces == 0) {
                        site.bodyEnd = c.line;
                        break;
                    }
                    c.next();
                }
            }
            out.push_back(std::move(site));
        }
    }
}

/** Float/double variable names declared anywhere in `f`. */
std::set<std::string>
floatVars(const SrcFile &f)
{
    std::set<std::string> names;
    for (const std::string &s : f.code) {
        for (const char *ty : {"double", "float"}) {
            std::size_t pos = 0;
            while ((pos = findToken(s, ty, pos)) !=
                   std::string::npos) {
                std::size_t i = pos + std::string(ty).size();
                pos = i;
                while (i < s.size() &&
                       (std::isspace(
                            static_cast<unsigned char>(s[i])) ||
                        s[i] == '*' || s[i] == '&'))
                    ++i;
                std::size_t b = i;
                while (i < s.size() && identChar(s[i]))
                    ++i;
                if (i == b)
                    continue;
                if (i < s.size() && s[i] == '(')
                    continue; // function returning double
                names.insert(s.substr(b, i - b));
            }
        }
    }
    return names;
}

// ------------------------------------------------------------------
// Token tables for the entropy / sim-sync / stale passes.
// ------------------------------------------------------------------

struct BannedToken
{
    std::string token;
    bool wordBounded;
    std::string what;
};

std::vector<BannedToken>
entropyTokens()
{
    // Split literals — in the diagnostic text too, which a raw-text
    // search would otherwise match: see the note at the top of this
    // file.
    return {
        {std::string("std::ra") + "nd", true,
         std::string("std::ra") + "nd (use the seeded mt19937 from "
                                  "the workload config)"},
        {std::string("random") + "_device", false,
         std::string("random") + "_device (ambient entropy)"},
        {std::string("time(") + "nullptr)", false,
         std::string("time(") + "nullptr) (wall clock)"},
        {std::string("::no") + "w(", false,
         std::string("chrono ::no") + "w() (wall clock)"},
    };
}

std::vector<BannedToken>
simSyncTokens()
{
    return {
        {"std::atomic", false, "std::atomic"},
        {"std::mutex", true, "std::mutex"},
        {"std::recursive_mutex", true, "std::recursive_mutex"},
        {"std::condition_variable", false, "std::condition_variable"},
        {"thread_local", true, "thread_local"},
        {"std::thread", true, "std::thread"},
    };
}

/** Code-view tokens whose proximity marks a det-ok as load-bearing. */
const std::vector<std::string> &
suppressibleMarkers()
{
    static const std::vector<std::string> kMarkers = {
        std::string("unordered") + "_",
        "atomic",
        "mutex",
        "condition_variable",
        "thread_local",
        "std::thread",
        "memory_order",
        "hardware_concurrency",
        "getenv",
        std::string("random") + "_device",
        std::string("std::ra") + "nd",
        std::string("time(") + "nullptr)",
        std::string("::no") + "w(",
        ".begin(",
        ".cbegin(",
        ".load(",
        ".store(",
        ".fetch_",
    };
    return kMarkers;
}

std::size_t
findMaybeBounded(const std::string &s, const BannedToken &t,
                 std::size_t pos)
{
    if (t.wordBounded)
        return findToken(s, t.token, pos);
    // Prefix tokens (std::atomic<...>): require only a left boundary,
    // and none at all when the token opens with punctuation (::now(
    // legitimately follows a clock identifier).
    const bool needLeft = !t.token.empty() && identChar(t.token[0]);
    while (true) {
        const std::size_t at = s.find(t.token, pos);
        if (at == std::string::npos)
            return std::string::npos;
        if (!needLeft || at == 0 || !identChar(s[at - 1]))
            return at;
        pos = at + 1;
    }
}

bool
underDir(const std::string &rel, const std::string &dir)
{
    return rel.rfind(dir, 0) == 0;
}

} // namespace

void
analyzeDeterminism(const DeterminismOptions &opts, LintReport &report)
{
    namespace fs = std::filesystem;
    const fs::path srcRoot = fs::path(opts.root) / "src";
    if (!fs::is_directory(srcRoot)) {
        Finding f;
        f.family = "determinism";
        f.check = "bad-root";
        f.file = opts.root;
        f.message = "no src/ directory under the analysis root";
        report.add(std::move(f));
        return;
    }

    // Load every first-party translation unit, sorted for output
    // determinism (directory iteration order is filesystem-dependent).
    std::vector<std::string> paths;
    for (const auto &e : fs::recursive_directory_iterator(srcRoot)) {
        if (!e.is_regular_file())
            continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".cc" || ext == ".hh")
            paths.push_back(e.path().string());
    }
    std::sort(paths.begin(), paths.end());

    std::vector<SrcFile> files;
    files.reserve(paths.size());
    const fs::path rootNorm = fs::path(opts.root).lexically_normal();
    for (const std::string &p : paths) {
        SrcFile f;
        const std::string rel = fs::path(p)
                                    .lexically_normal()
                                    .lexically_relative(rootNorm)
                                    .generic_string();
        f.rel = rel.empty() || rel.rfind("..", 0) == 0 ? p : rel;
        std::ifstream in(p);
        std::string line;
        while (std::getline(in, line))
            f.raw.push_back(line);
        splitViews(f.raw, f.code, f.comments);
        // The marker is only honored in comment text — a string
        // literal or prose mention (like this analyzer's own messages
        // and documentation) is not a suppression.
        for (int ln = 1; ln <= static_cast<int>(f.raw.size()); ++ln)
            if (hasAnnotation(f.comments[ln - 1], "det-ok:"))
                f.suppressLines.insert(ln);
        files.push_back(std::move(f));
    }

    // Pass 1: unordered-container declarations (D1) and the global
    // container symbol table the iteration pass keys on.
    std::vector<UnorderedDecl> decls;
    for (SrcFile &f : files)
        scanUnorderedDecls(f, decls);
    std::set<std::string> unorderedNames;
    std::map<std::string, const UnorderedDecl *> declByName;
    std::set<std::string> suppressedNames;
    for (const UnorderedDecl &d : decls) {
        if (!d.name.empty()) {
            unorderedNames.insert(d.name);
            if (!declByName.count(d.name))
                declByName[d.name] = &d;
            if (d.suppressed)
                suppressedNames.insert(d.name);
        }
        if (!d.suppressed)
            report.add(srcFinding(
                *d.file, d.line, "unordered-decl",
                "unordered container" +
                    (d.name.empty() ? std::string()
                                    : " '" + d.name + "'") +
                    " declared without a 'det-ok:' justification "
                    "(hash order must not leak into simulated "
                    "behaviour)"));
    }

    // Pass 2: iteration sites (D2) + float accumulation (D5).
    std::uint64_t iterSites = 0;
    for (SrcFile &f : files) {
        std::vector<IterationSite> sites;
        scanIterations(f, unorderedNames, sites);
        const std::set<std::string> floats = floatVars(f);
        for (const IterationSite &site : sites) {
            ++iterSites;
            f.constructLines.insert(site.line);
            const bool siteOk = f.suppressedAt(site.line);
            const bool declOk = suppressedNames.count(site.container);
            if (!siteOk && !declOk) {
                Finding fd = srcFinding(
                    f, site.line, "unordered-iteration",
                    "iteration over unordered container '" +
                        site.container +
                        "' visits elements in hash order; justify "
                        "with 'det-ok:' at the site or the "
                        "declaration");
                if (const auto *d = declByName.count(site.container)
                                        ? declByName[site.container]
                                        : nullptr)
                    fd.counterexample.push_back(
                        "declared at " + d->file->rel + ":" +
                        std::to_string(d->line));
                report.add(std::move(fd));
            }
            // D5: float accumulation inside the loop body sums in
            // hash order even when the iteration itself is justified.
            for (int ln = site.bodyStart; ln <= site.bodyEnd; ++ln) {
                const std::string &s = f.code[ln - 1];
                for (const char *op : {"+=", "-="}) {
                    std::size_t pos = 0;
                    while ((pos = s.find(op, pos)) !=
                           std::string::npos) {
                        std::size_t e = pos;
                        pos += 2;
                        while (e > 0 &&
                               std::isspace(
                                   static_cast<unsigned char>(
                                       s[e - 1])))
                            --e;
                        std::size_t b = e;
                        while (b > 0 && identChar(s[b - 1]))
                            --b;
                        const std::string lhs = s.substr(b, e - b);
                        if (!floats.count(lhs) || f.suppressedAt(ln))
                            continue;
                        report.add(srcFinding(
                            f, ln, "float-accumulation",
                            "floating-point accumulator '" + lhs +
                                "' summed while iterating unordered "
                                "container '" + site.container +
                                "': the result depends on hash "
                                "order"));
                    }
                }
            }
        }
    }

    // Pass 3: entropy sources (D3) everywhere under src/; sim-sync
    // primitives (D4) under src/sim/.
    const auto entropy = entropyTokens();
    const auto simSync = simSyncTokens();
    for (SrcFile &f : files) {
        const bool inSim = underDir(f.rel, "src/sim/");
        for (int ln = 1; ln <= static_cast<int>(f.code.size());
             ++ln) {
            const std::string &s = f.code[ln - 1];
            for (const BannedToken &t : entropy) {
                if (findMaybeBounded(s, t, 0) == std::string::npos)
                    continue;
                f.constructLines.insert(ln);
                if (!f.suppressedAt(ln))
                    report.add(srcFinding(
                        f, ln, "entropy",
                        std::string("banned entropy source: ") +
                            t.what));
            }
            if (!inSim)
                continue;
            for (const BannedToken &t : simSync) {
                if (findMaybeBounded(s, t, 0) == std::string::npos)
                    continue;
                f.constructLines.insert(ln);
                if (!f.suppressedAt(ln))
                    report.add(srcFinding(
                        f, ln, "sim-sync",
                        std::string(t.what) +
                            " in src/sim/ without a 'det-ok:' "
                            "justification (must argue the "
                            "deterministic modes never observe it)"));
            }
        }
    }

    // Pass 4 (D6): stale suppressions. A det-ok is load-bearing only
    // when a suppressible construct sits in its window in the CODE
    // view — prose in a neighbouring comment naming a construct does
    // not keep a suppression alive, or annotations would survive the
    // deletion of the code they excuse.
    std::uint64_t suppressions = 0;
    for (const SrcFile &f : files) {
        for (int ln : f.suppressLines) {
            ++suppressions;
            bool used = false;
            for (int l = ln;
                 l <= std::min(ln + kWindow,
                               static_cast<int>(f.raw.size())) &&
                 !used;
                 ++l) {
                if (f.constructLines.count(l)) {
                    used = true;
                    break;
                }
                for (const std::string &m : suppressibleMarkers()) {
                    if (f.code[l - 1].find(m) != std::string::npos) {
                        used = true;
                        break;
                    }
                }
            }
            if (!used)
                report.add(srcFinding(
                    f, ln, "stale-suppression",
                    "'det-ok:' with no suppressible construct within "
                    "its " + std::to_string(kWindow) +
                        "-line window; delete it or move it next to "
                        "what it justifies"));
        }
    }

    report.stat("determinism.files", files.size());
    report.stat("determinism.unordered_decls", decls.size());
    report.stat("determinism.iteration_sites", iterSites);
    report.stat("determinism.suppressions", suppressions);
}

} // namespace hmg::verify::lint
