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
const std::string kStdMutex = std::string("std::") + "mutex";
const std::string kStdCondVar = std::string("std::") + "condition_variable";
const std::string kStdSharedMutex = std::string("std::") + "shared_mutex";
const std::string kSimMutex = std::string("sim::") + "Mutex";
const std::string kConstexprU32 = "constexpr uint32_t";

/** Annotation macros that count as "references" a sim::Mutex member
 *  must have (check 3). */
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

// --------------------------------------------------- check 2: counters

std::vector<Diag>
checkCounterDoc(const Options &opts,
                std::span<const gpu::CounterInfo> counters)
{
    // Every registered counter must be documented, or it is invisible
    // to anyone reading the HUD or a sweep diff; and the doc must name
    // no counter that is not registered.  Documented names are
    // backticked tokens shaped like counter names.
    std::vector<Diag> diags;
    std::vector<std::string> docLines;
    if (!readLines(fs::path(opts.root) / opts.metricsDoc, docLines)) {
        diags.push_back(missingFile(opts.metricsDoc, "counters"));
        return diags;
    }
    std::map<std::string, int> documented;   // name -> first line
    for (size_t i = 0; i < docLines.size(); ++i) {
        const std::string &l = docLines[i];
        for (size_t pos = 0;
             (pos = l.find('`', pos)) != std::string::npos;) {
            size_t endq = l.find('`', pos + 1);
            if (endq == std::string::npos)
                break;
            std::string name = l.substr(pos + 1, endq - pos - 1);
            if (gpu::isCounterName(name))
                documented.emplace(name, static_cast<int>(i + 1));
            pos = endq + 1;
        }
    }
    std::set<std::string> registered;
    for (const gpu::CounterInfo &c : counters) {
        registered.insert(c.name);
        if (!documented.count(c.name))
            diags.push_back(Diag{opts.metricsDoc, 0, "counters",
                                 std::string("registered counter \"") +
                                     c.name + "\" is not documented"});
    }
    for (const auto &[name, line] : documented) {
        if (!registered.count(name))
            diags.push_back(
                Diag{opts.metricsDoc, line, "counters",
                     "documented counter \"" + name + "\" is not in "
                     "any counter table (gpu::kCounters)"});
    }
    return diags;
}

// --------------------------------------------- check 3: mutex coverage

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

// ----------------------------------------------------------- top level

std::vector<Diag>
runAllChecks(const Options &opts)
{
    std::vector<Diag> all;
    for (std::vector<Diag> d :
         {checkTagUniqueness(opts), checkCounterDoc(opts),
          checkMutexCoverage(opts)})
        all.insert(all.end(), d.begin(), d.end());
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
