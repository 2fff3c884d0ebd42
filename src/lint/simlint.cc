#include "lint/simlint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace bifsim::lint {

namespace fs = std::filesystem;

namespace {

// The needles this linter scans for also appear in its own source —
// as the code below.  Juxtaposed string literals keep the scanned
// pattern from ever appearing verbatim in this file, so simlint does
// not report itself.
const std::string kTagNeedle = std::string("make") + "Tag(\"";
const std::string kHandlerNeedle = std::string("HAND") + "LER(";
const std::string kDbtOpsNeedle = std::string("#define DBT") + "_OPS(X)";
// A counter table entry: {"prefix.name", &Struct::field[, kGauge]},
const std::string kCounterNeedle = std::string("{") + "\"";
const std::string kCounterFieldNeedle = std::string("\", ") + "&";
const std::string kStdMutex = std::string("std::") + "mutex";
const std::string kStdCondVar = std::string("std::") + "condition_variable";
const std::string kStdSharedMutex = std::string("std::") + "shared_mutex";
const std::string kSimMutex = std::string("sim::") + "Mutex";
const std::string kConstexprU32 = "constexpr uint32_t";
const std::string kHostPtrNeedle = std::string("host") + "Ptr(";

/** The only files allowed to take a writable host pointer into guest
 *  RAM (check 5): PhysMem itself and the GPU paths that mark what
 *  they hand out. */
const char *const kHostPtrOwners[] = {"phys_mem.h", "phys_mem.cc",
                                      "gmmu.cc", "shader_core.cc"};

/** Annotation macros that count as "references" a sim::Mutex member
 *  must have (check 4). */
const char *const kAnnotationMacros[] = {
    "GUARDED_BY(",    "PT_GUARDED_BY(", "REQUIRES(", "REQUIRES_SHARED(",
    "ACQUIRE(",       "ACQUIRE_SHARED(", "RELEASE(",  "RELEASE_SHARED(",
    "TRY_ACQUIRE(",   "EXCLUDES(",       "ACQUIRED_BEFORE(",
    "ACQUIRED_AFTER(", "ASSERT_CAPABILITY(", "RETURN_CAPABILITY(",
};

bool
readLines(const fs::path &p, std::vector<std::string> &out)
{
    std::ifstream in(p);
    if (!in)
        return false;
    out.clear();
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return true;
}

/** Repo-relative rendering of @p p for diagnostics. */
std::string
rel(const Options &opts, const fs::path &p)
{
    std::error_code ec;
    fs::path r = fs::relative(p, opts.root, ec);
    return ec ? p.generic_string() : r.generic_string();
}

/** All .h/.cc files under root/srcDir, sorted for stable output. */
std::vector<fs::path>
sourceFiles(const Options &opts)
{
    std::vector<fs::path> files;
    fs::path dir = fs::path(opts.root) / opts.srcDir;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        fs::path ext = it->path().extension();
        if (ext == ".h" || ext == ".cc")
            files.push_back(it->path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

Diag
missingFile(const std::string &relPath, const std::string &check)
{
    return Diag{relPath, 0, check,
                "required input file is missing (moved? update "
                "lint::Options and this check)"};
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

} // namespace

// ------------------------------------------------------- check 1: tags

std::vector<Diag>
checkTagUniqueness(const Options &opts)
{
    // A tag *definition* is `constexpr uint32_t kName = [ns::]makeTag
    // ("XXXX")`.  Read-side uses (e.g. parse helpers re-deriving
    // "HDR ") are legal and ignored; two definitions claiming one 4CC
    // silently alias chunk types across serializers.
    std::vector<Diag> diags;
    struct Site
    {
        std::string file;
        int line;
    };
    std::map<std::string, std::vector<Site>> sites;
    std::vector<std::string> lines;
    for (const fs::path &p : sourceFiles(opts)) {
        if (!readLines(p, lines))
            continue;
        for (size_t i = 0; i < lines.size(); ++i) {
            const std::string &l = lines[i];
            if (l.find(kConstexprU32) == std::string::npos)
                continue;
            size_t pos = l.find(kTagNeedle);
            if (pos == std::string::npos)
                continue;
            size_t start = pos + kTagNeedle.size();
            size_t endq = l.find('"', start);
            if (endq == std::string::npos || endq - start != 4)
                continue;
            sites[l.substr(start, 4)].push_back(
                {rel(opts, p), static_cast<int>(i + 1)});
        }
    }
    if (sites.empty()) {
        diags.push_back(Diag{opts.srcDir, 0, "tlv-tag",
                             "no TLV tag definitions found at all — "
                             "the scan pattern no longer matches the "
                             "code"});
        return diags;
    }
    for (const auto &[tag, where] : sites) {
        if (where.size() <= 1)
            continue;
        for (size_t i = 1; i < where.size(); ++i) {
            std::ostringstream msg;
            msg << "TLV tag \"" << tag << "\" is already defined at "
                << where[0].file << ":" << where[0].line
                << "; duplicate definitions alias chunk types across "
                   "serializers";
            diags.push_back(Diag{where[i].file, where[i].line,
                                 "tlv-tag", msg.str()});
        }
    }
    return diags;
}

// ------------------------------------------------- check 2: dbt parity

std::vector<Diag>
checkDbtParity(const Options &opts)
{
    std::vector<Diag> diags;
    fs::path p = fs::path(opts.root) / opts.dbtFile;
    std::vector<std::string> lines;
    if (!readLines(p, lines)) {
        diags.push_back(missingFile(opts.dbtFile, "dbt-parity"));
        return diags;
    }

    // The op list: X(Name) entries on the DBT_OPS macro definition
    // and its backslash-continuation lines.
    std::map<std::string, int> ops;        // name -> line
    std::map<std::string, int> handlers;   // name -> first line
    std::map<std::string, int> handlerCount;
    bool inOpsMacro = false;
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &l = lines[i];
        if (!inOpsMacro && l.find(kDbtOpsNeedle) != std::string::npos)
            inOpsMacro = true;
        if (inOpsMacro) {
            for (size_t pos = 0; (pos = l.find("X(", pos)) !=
                                 std::string::npos;) {
                // Require X to be a standalone macro name, not the
                // tail of an identifier (e.g. "IDX(").
                if (pos > 0 && isIdentChar(l[pos - 1])) {
                    pos += 2;
                    continue;
                }
                size_t start = pos + 2;
                size_t close = l.find(')', start);
                if (close == std::string::npos)
                    break;
                std::string name = l.substr(start, close - start);
                if (!name.empty() &&
                    std::all_of(name.begin(), name.end(), isIdentChar) &&
                    !ops.count(name))
                    ops[name] = static_cast<int>(i + 1);
                pos = close;
            }
            if (l.empty() || l.back() != '\\')
                inOpsMacro = false;
            continue;
        }
        // Handler bodies: HANDLER(Name) outside any #define (the two
        // dispatch-strategy definitions of HANDLER itself use a
        // lowercase metavariable, but exclude directives outright).
        std::string trimmed = l;
        size_t first = trimmed.find_first_not_of(" \t");
        if (first != std::string::npos && trimmed[first] == '#')
            continue;
        for (size_t pos = 0; (pos = l.find(kHandlerNeedle, pos)) !=
                             std::string::npos;) {
            if (pos > 0 && isIdentChar(l[pos - 1])) {
                pos += kHandlerNeedle.size();
                continue;
            }
            size_t start = pos + kHandlerNeedle.size();
            size_t close = l.find(')', start);
            if (close == std::string::npos)
                break;
            std::string name = l.substr(start, close - start);
            if (!name.empty() &&
                std::all_of(name.begin(), name.end(), isIdentChar)) {
                if (!handlers.count(name))
                    handlers[name] = static_cast<int>(i + 1);
                handlerCount[name]++;
            }
            pos = close;
        }
    }

    if (ops.empty()) {
        diags.push_back(Diag{opts.dbtFile, 0, "dbt-parity",
                             "no DBT_OPS(X) op list found — the scan "
                             "pattern no longer matches the code"});
        return diags;
    }
    for (const auto &[name, line] : ops) {
        if (!handlers.count(name)) {
            diags.push_back(
                Diag{opts.dbtFile, line, "dbt-parity",
                     "op " + name + " is in the DBT_OPS list but has "
                     "no HANDLER(" + name + ") body — a hole in the "
                     "computed-goto dispatch table"});
        } else if (handlerCount[name] > 1) {
            diags.push_back(
                Diag{opts.dbtFile, handlers[name], "dbt-parity",
                     "op " + name + " has " +
                     std::to_string(handlerCount[name]) +
                     " HANDLER bodies; exactly one is required"});
        }
    }
    for (const auto &[name, line] : handlers) {
        if (!ops.count(name)) {
            diags.push_back(
                Diag{opts.dbtFile, line, "dbt-parity",
                     "HANDLER(" + name + ") has no matching entry in "
                     "the DBT_OPS list — dead code the dispatch table "
                     "can never reach"});
        }
    }
    return diags;
}

// --------------------------------------------------- check 3: counters

std::vector<Diag>
checkCounterRegistry(const Options &opts)
{
    std::vector<Diag> diags;
    fs::path statsPath = fs::path(opts.root) / opts.statsFile;
    std::vector<std::string> lines;
    if (!readLines(statsPath, lines)) {
        diags.push_back(missingFile(opts.statsFile, "counters"));
        return diags;
    }

    auto validName = [](const std::string &n) {
        size_t dot = n.find('.');
        if (dot == std::string::npos || dot == 0 || dot + 1 >= n.size())
            return false;
        static const std::set<std::string> prefixes = {
            "kernel", "tlb", "sys", "sched", "cpu", "fleet"};
        if (!prefixes.count(n.substr(0, dot)))
            return false;
        for (size_t i = dot + 1; i < n.size(); ++i) {
            char c = n[i];
            if (!(std::islower(static_cast<unsigned char>(c)) ||
                  std::isdigit(static_cast<unsigned char>(c)) ||
                  c == '_'))
                return false;
        }
        return true;
    };

    std::map<std::string, int> emitted;   // name -> first line
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &l = lines[i];
        size_t pos = l.find_first_not_of(' ');
        if (pos == std::string::npos ||
            l.compare(pos, kCounterNeedle.size(), kCounterNeedle) != 0)
            continue;
        size_t start = pos + kCounterNeedle.size();
        size_t endq = l.find('"', start);
        if (endq == std::string::npos ||
            l.compare(endq, kCounterFieldNeedle.size(),
                      kCounterFieldNeedle) != 0)
            continue;
        std::string name = l.substr(start, endq - start);
        int lineNo = static_cast<int>(i + 1);
        if (!validName(name)) {
            diags.push_back(
                Diag{opts.statsFile, lineNo, "counters",
                     "counter \"" + name + "\" does not match the "
                     "prefix.lower_snake grammar (prefixes: kernel, "
                     "tlb, sys, sched, cpu, fleet)"});
            continue;
        }
        auto [it, fresh] = emitted.emplace(name, lineNo);
        if (!fresh) {
            diags.push_back(
                Diag{opts.statsFile, lineNo, "counters",
                     "counter \"" + name + "\" is already emitted at "
                     "line " + std::to_string(it->second) +
                     "; duplicate names collide in trace exports"});
        }
    }
    if (emitted.empty()) {
        diags.push_back(Diag{opts.statsFile, 0, "counters",
                             "no emitted counters found — the scan "
                             "pattern no longer matches the code"});
        return diags;
    }

    // Every emitted counter must be documented, or it is invisible to
    // anyone reading the HUD or a sweep diff.  Documented names are
    // backticked tokens shaped like counter names.
    std::vector<std::string> docLines;
    if (!readLines(fs::path(opts.root) / opts.metricsDoc, docLines)) {
        diags.push_back(missingFile(opts.metricsDoc, "counters"));
        return diags;
    }
    std::map<std::string, int> documented;
    for (size_t i = 0; i < docLines.size(); ++i) {
        const std::string &l = docLines[i];
        for (size_t pos = 0;
             (pos = l.find('`', pos)) != std::string::npos;) {
            size_t endq = l.find('`', pos + 1);
            if (endq == std::string::npos)
                break;
            std::string name = l.substr(pos + 1, endq - pos - 1);
            if (validName(name))
                documented.emplace(name, static_cast<int>(i + 1));
            pos = endq + 1;
        }
    }
    for (const auto &[name, line] : emitted) {
        if (!documented.count(name))
            diags.push_back(Diag{opts.statsFile, line, "counters",
                                 "counter \"" + name +
                                 "\" is not documented in " +
                                 opts.metricsDoc});
    }
    for (const auto &[name, line] : documented) {
        if (!emitted.count(name))
            diags.push_back(
                Diag{opts.metricsDoc, line, "counters",
                     "documented counter \"" + name + "\" is not "
                     "emitted by any counter table in " +
                     opts.statsFile});
    }
    return diags;
}

// --------------------------------------------- check 4: mutex coverage

std::vector<Diag>
checkMutexCoverage(const Options &opts)
{
    std::vector<Diag> diags;
    std::vector<std::string> lines;
    for (const fs::path &p : sourceFiles(opts)) {
        if (p.filename() == "thread_annotations.h")
            continue;   // The one place the std types may appear.
        if (!readLines(p, lines))
            continue;
        std::string file = rel(opts, p);

        // (a) Raw standard sync primitives are banned outright in
        // src/ — locks the analysis can't see are contract holes.
        for (size_t i = 0; i < lines.size(); ++i) {
            const std::string &l = lines[i];
            for (const std::string *needle :
                 {&kStdMutex, &kStdCondVar, &kStdSharedMutex}) {
                size_t pos = l.find(*needle);
                if (pos == std::string::npos)
                    continue;
                // Require a non-identifier follower so a longer
                // identifier sharing a banned prefix is not flagged.
                size_t after = pos + needle->size();
                if (after < l.size() && isIdentChar(l[after]))
                    continue;
                diags.push_back(
                    Diag{file, static_cast<int>(i + 1),
                         "mutex-coverage",
                         "raw " + *needle + " in src/ — use the "
                         "annotated sim:: wrappers from "
                         "common/thread_annotations.h so the "
                         "thread-safety analysis sees every lock"});
                break;
            }
        }

        // (b) Every sim::Mutex member must be referenced by at least
        // one annotation in the same file — an unreferenced lock
        // guards nothing the analysis knows about.
        struct Member
        {
            std::string name;
            int line;
        };
        std::vector<Member> mutexes;
        for (size_t i = 0; i < lines.size(); ++i) {
            const std::string &l = lines[i];
            size_t pos = l.find(kSimMutex);
            if (pos == std::string::npos)
                continue;
            size_t start = pos + kSimMutex.size();
            while (start < l.size() && l[start] == ' ')
                ++start;
            size_t end = start;
            while (end < l.size() && isIdentChar(l[end]))
                ++end;
            if (end == start)
                continue;   // A mention, not a declaration.
            // Declarations end in ';' (data member) — constructor
            // parameters (e.g. "sim::Mutex &m") and locals are not
            // members; the repo convention is members only.
            if (l.find(';', end) == std::string::npos)
                continue;
            if (start > pos + kSimMutex.size() &&
                (l[start] == '&' || l[start] == '*'))
                continue;
            mutexes.push_back(
                {l.substr(start, end - start), static_cast<int>(i + 1)});
        }
        if (mutexes.empty())
            continue;
        std::string text;
        for (const std::string &l : lines) {
            text += l;
            text += '\n';
        }
        for (const Member &m : mutexes) {
            bool referenced = false;
            for (const char *macro : kAnnotationMacros) {
                for (size_t pos = 0; (pos = text.find(macro, pos)) !=
                                     std::string::npos;) {
                    size_t close = text.find(')', pos);
                    if (close == std::string::npos)
                        break;
                    std::string args =
                        text.substr(pos, close - pos + 1);
                    size_t at = args.find(m.name);
                    // Whole-identifier match inside the macro args.
                    while (at != std::string::npos) {
                        bool lok = at == 0 || !isIdentChar(args[at - 1]);
                        bool rok = at + m.name.size() >= args.size() ||
                                   !isIdentChar(args[at + m.name.size()]);
                        if (lok && rok) {
                            referenced = true;
                            break;
                        }
                        at = args.find(m.name, at + 1);
                    }
                    if (referenced)
                        break;
                    pos = close;
                }
                if (referenced)
                    break;
            }
            if (!referenced) {
                diags.push_back(
                    Diag{file, m.line, "mutex-coverage",
                         "sim::Mutex member " + m.name + " is not "
                         "referenced by any thread-safety annotation "
                         "(GUARDED_BY/REQUIRES/EXCLUDES/...) in this "
                         "file — declare what it guards, or document "
                         "and remove it"});
            }
        }
    }
    return diags;
}

// -------------------------------------------- check 5: raw RAM writes

std::vector<Diag>
checkRawRamWrites(const Options &opts)
{
    std::vector<Diag> diags;
    std::vector<std::string> lines;
    for (const fs::path &p : sourceFiles(opts)) {
        std::string name = p.filename().string();
        if (std::find(std::begin(kHostPtrOwners), std::end(kHostPtrOwners),
                      name) != std::end(kHostPtrOwners))
            continue;
        if (!readLines(p, lines))
            continue;
        for (size_t i = 0; i < lines.size(); ++i) {
            // Code only: a comment may name the accessor.
            std::string l = lines[i].substr(0, lines[i].find("//"));
            size_t first = l.find_first_not_of(" \t");
            if (first == std::string::npos || l[first] == '*' ||
                l.compare(first, 2, "/*") == 0)
                continue;
            for (size_t pos = 0; (pos = l.find(kHostPtrNeedle, pos)) !=
                                 std::string::npos;
                 pos += kHostPtrNeedle.size()) {
                if (pos > 0 && isIdentChar(l[pos - 1]))
                    continue;
                diags.push_back(
                    Diag{rel(opts, p), static_cast<int>(i + 1),
                         "raw-ram-write",
                         "writable host pointer into guest RAM: stores "
                         "through it bypass PhysMem's written-page "
                         "tracking, so recordings and snapshots miss "
                         "them — read through readPtr(), write through "
                         "write/writeBlock/fill"});
                break;
            }
        }
    }
    return diags;
}

// ----------------------------------------------------------- top level

std::vector<Diag>
runAllChecks(const Options &opts)
{
    std::vector<Diag> all;
    for (auto check : {checkTagUniqueness, checkDbtParity,
                       checkCounterRegistry, checkMutexCoverage,
                       checkRawRamWrites}) {
        std::vector<Diag> d = check(opts);
        all.insert(all.end(), d.begin(), d.end());
    }
    return all;
}

std::string
renderDiag(const Diag &d)
{
    std::ostringstream os;
    os << d.file;
    if (d.line > 0)
        os << ":" << d.line;
    os << ": [" << d.check << "] " << d.message;
    return os.str();
}

} // namespace bifsim::lint
