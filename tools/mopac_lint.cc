/**
 * @file
 * mopac_lint: repo-aware static analysis for the invariants the
 * compiler never checks.
 *
 * The reproduction's guarantees -- bit-identical sweeps at any --jobs,
 * crash-safe snapshot/resume, attacker-unpredictable RNG streams --
 * rest on coding disciplines that a type checker cannot see.  This
 * tool enforces them at token level (comments and string literals are
 * stripped first, so matches are real code):
 *
 *   det-rand       C PRNG entry points (rand, srand, drand48, ...).
 *                  All randomness must come from mopac::Rng.
 *   det-time       Wall-calendar APIs (time, gettimeofday,
 *                  clock_gettime, localtime, ...).  Simulation state
 *                  may only depend on the cycle counter.
 *   det-clock      std::chrono::*_clock::now() outside the sanctioned
 *                  shim src/common/wallclock.hh.  Reporting and
 *                  watchdogs go through the shim; nothing else may
 *                  read host time.
 *   det-rng        std::random_device (nondeterministic by contract)
 *                  and default-constructed <random> engines
 *                  (mt19937 et al. with no explicit seed).
 *   det-ptr-key    std::map/std::set keyed on a pointer type:
 *                  iteration order is address order, which varies run
 *                  to run, so any output derived from it drifts.
 *   det-unordered  Range-for over an unordered container inside
 *                  transfer/saveState/loadState or a stats-emission
 *                  function:
 *                  bucket order is implementation-defined, so the
 *                  byte stream / table order is not reproducible.
 *                  (Copy into a vector and sort first.)
 *   serial-drift   A class snapshots through one `transfer` body (run
 *                  by both the Serializer and the Deserializer) but
 *                  one of its members is never mentioned in it -- the
 *                  "added a field, forgot the snapshot" bug class.  A
 *                  class that instead writes separate saveState and
 *                  loadState bodies (not one-line forwards to
 *                  transfer) is reported too: its two halves can
 *                  drift.  Reference members and members whose
 *                  declaration starts with `const` (fixed at
 *                  construction) are exempt.
 *   rng-seed       Rng/forStream/streamSeed whose seed argument is a
 *                  bare literal.  Seeds must be *named* expressions
 *                  (a constant, a config field, a counter-mode
 *                  streamSeed derivation) so a reader can trace every
 *                  stream back to the experiment master seed.
 *   next-event     A class declares a `tick(Cycle ...)` method but no
 *                  next-event accessor (nextWakeAt / nextSelfEventAt
 *                  / nextEventAt).  The skip-to-next-event run loop
 *                  can only jump past a tick source that can report
 *                  its next interesting cycle; an opaque tick forces
 *                  the engine back to one-iteration-per-cycle.
 *   hot-alloc      Heap allocation inside a function annotated
 *                  `// mopac: hot-path` (the comment, alone on the
 *                  line directly above the function): new/malloc,
 *                  growing container methods (push_back, resize,
 *                  insert, ...), make_unique/make_shared, or a
 *                  std:: container constructed as a local.  Hot
 *                  functions run per simulated cycle or per DRAM
 *                  command; all storage must be preallocated at
 *                  construction.  Token-level, so allocation hidden
 *                  behind a helper or operator[] on a map is not
 *                  seen -- the annotation is a promise, the check a
 *                  tripwire for the common regressions.
 *   guard          Include guards must be MOPAC_<DIR>_<FILE>_HH
 *                  derived from the path (src/ stripped); #pragma
 *                  once is not used in this repo.
 *   io-errno       Raw errno reads, and write()/fsync() calls whose
 *                  result is discarded, anywhere without an explicit
 *                  allow.  Hand-rolled errno handling and
 *                  fire-and-forget durable writes are how silent data
 *                  loss enters a crash-safe store; failures must
 *                  surface as structured errors through
 *                  atomicWriteFile.
 *
 * Whole-program checks.  The per-file checks above are token-local
 * and blind to anything hidden behind a call.  A second pass builds a
 * tree-wide index (function definitions, call sites, class member
 * lists, hot-path / stateless annotations, Config key reads) from the
 * already-tokenized sources and walks the resulting call graph and
 * state graph:
 *
 *   hot-reach      The no-allocation rule of hot-alloc propagates
 *                  transitively: every function reachable through
 *                  the call graph from a `// mopac: hot-path`
 *                  function must itself be allocation-free, not just
 *                  the annotated body.  Calls resolve by unqualified
 *                  name to definitions in the same top-level
 *                  directory (src -> src); unknown names (std::,
 *                  libc) resolve to nothing.
 *   serial-reach   Two state-graph audits.  (1) A member whose own
 *                  type snapshots (defines transfer or saveState)
 *                  must be *delegated* to in the owner's transfer
 *                  body (`T::transfer(self.m_, ar)`,
 *                  `transferVirtual(*self.m_, ar)`, or a loop over
 *                  it) -- mentioning the name is not enough.  (2)
 *                  Every class reachable from System's member-type
 *                  graph either snapshots or is explicitly annotated
 *                  `// mopac: stateless` (directly above the class):
 *                  a class of derived/no state says so, everything
 *                  else snapshots.  Raw-pointer members (non-owning
 *                  wiring) and members carrying a serial-drift allow
 *                  are outside the graph.
 *   config-key     Every Config key read as a single string literal
 *                  (getString/getInt/getUint/getDouble/getBool/has)
 *                  in src/ or tools/ must appear, backtick-quoted,
 *                  in the key registry CONFIG_KEYS.md at the repo
 *                  root.  Keys built at runtime are skipped; keep
 *                  the pattern documented instead.
 *
 * Suppression: a comment `// mopac-lint: allow(check-a, check-b)` on
 * the same line or the line directly above suppresses those checks
 * for that line; `// mopac-lint: allow-file(check)` anywhere in a
 * file suppresses the check for the whole file.  Suppressions are
 * for *intentional* violations and should carry a rationale.
 *
 * Usage: mopac_lint [--root DIR] [--jobs N] [--list-checks] PATH...
 * Directories are scanned recursively for .hh/.h/.hpp/.cc/.cpp,
 * skipping "build*", ".git", and "fixtures" directories.  Files are
 * tokenized and per-file-checked in parallel across a small thread
 * pool (--jobs, default: hardware concurrency); findings are merged
 * and sorted so the output is byte-identical at any job count.  Exit
 * 0 = clean, 1 = findings, 2 = usage or I/O error.
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace fs = std::filesystem;

namespace
{

// ------------------------------------------------------------------
// Model
// ------------------------------------------------------------------

const char *const kAllChecks[] = {
    "det-rand",  "det-time",     "det-clock",    "det-rng", "det-ptr-key",
    "det-unordered", "serial-drift", "rng-seed", "next-event", "guard",
    "io-errno",  "hot-alloc",
    // Whole-program (pass 2) checks.
    "hot-reach", "serial-reach", "config-key",
};

struct Finding
{
    std::string path; // root-relative, for stable output
    int line = 0;
    std::string check;
    std::string message;
};

struct Token
{
    enum Kind { kIdent, kNumber, kPunct };
    Kind kind;
    std::string text;
    int line;
    /** Byte offset in the scrubbed text (anchors string literals). */
    std::size_t off = 0;
};

/**
 * A double-quoted string literal harvested during scrub().  Literals
 * do not enter the token stream (so brace/paren matching never sees
 * their contents); instead each records the index of the first token
 * *after* it, letting pattern checks (config-key) look at the tokens
 * on either side.
 */
struct StrLit
{
    int line = 0;
    std::string text;      //!< Contents between the quotes, raw.
    std::size_t off = 0;   //!< Byte offset of the opening quote.
    std::size_t tok_after = 0;
};

/** One parsed source file: raw text, scrubbed text, tokens, allows. */
struct SourceFile
{
    std::string abs_path;
    std::string rel_path;
    std::string raw;
    std::string scrubbed; //!< Comments/strings blanked, layout kept.
    std::vector<Token> tokens;
    std::vector<StrLit> strings;
    /** line -> checks allowed on that line (and the line below). */
    std::map<int, std::set<std::string>> line_allows;
    std::set<std::string> file_allows;
    /** Lines holding a bare `// mopac: hot-path` annotation. */
    std::vector<int> hot_path_lines;
    /** Lines holding a bare `// mopac: stateless` annotation. */
    std::set<int> stateless_lines;
    /** Quoted #include paths, in order (the call-resolution scope). */
    std::vector<std::string> includes;
    /**
     * Loaded only as cross-TU context (the paired header/impl of a
     * requested file): indexed for the whole-program pass but never
     * reported on, matching the old implicit pairing behavior.
     */
    bool context_only = false;
};

// ------------------------------------------------------------------
// Loading, scrubbing, tokenizing
// ------------------------------------------------------------------

void
parseAllowList(const std::string &comment, int line, SourceFile &sf)
{
    // One comment (a doc block, say) may carry several tags.
    const std::string tag = "mopac-lint:";
    for (std::size_t at = comment.find(tag); at != std::string::npos;
         at = comment.find(tag, at + tag.size())) {
        std::size_t p = at + tag.size();
        while (p < comment.size() &&
               std::isspace((unsigned char)comment[p])) {
            ++p;
        }
        bool file_wide = false;
        if (comment.compare(p, 10, "allow-file") == 0) {
            file_wide = true;
            p += 10;
        } else if (comment.compare(p, 5, "allow") == 0) {
            p += 5;
        } else {
            continue;
        }
        const std::size_t open = comment.find('(', p);
        const std::size_t close = comment.find(')', open);
        if (open == std::string::npos || close == std::string::npos) {
            continue;
        }
        std::string inside =
            comment.substr(open + 1, close - open - 1);
        std::string item;
        std::stringstream ss(inside);
        while (std::getline(ss, item, ',')) {
            const auto b = item.find_first_not_of(" \t");
            const auto e = item.find_last_not_of(" \t");
            if (b == std::string::npos) {
                continue;
            }
            std::string check = item.substr(b, e - b + 1);
            if (file_wide) {
                sf.file_allows.insert(check);
            } else {
                sf.line_allows[line].insert(check);
            }
        }
    }
}

/**
 * Blank comments, string literals, and char literals with spaces
 * (newlines preserved so line numbers survive), harvesting
 * mopac-lint allow() annotations from the comments on the way.
 */
void
scrub(SourceFile &sf)
{
    const std::string &in = sf.raw;
    std::string out(in.size(), ' ');
    int line = 1;
    std::size_t i = 0;
    auto copyNewline = [&](std::size_t at) {
        out[at] = '\n';
        ++line;
    };
    while (i < in.size()) {
        const char c = in[i];
        if (c == '\n') {
            copyNewline(i);
            ++i;
        } else if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
            std::size_t end = in.find('\n', i);
            if (end == std::string::npos) {
                end = in.size();
            }
            const std::string comment = in.substr(i, end - i);
            parseAllowList(comment, line, sf);
            // The hot-path / stateless annotations are the exact
            // line comments `// mopac: hot-path` / `// mopac:
            // stateless` -- prose mentions in doc blocks do not
            // count.
            const std::size_t b = comment.find_first_not_of("/ \t");
            const std::size_t e = comment.find_last_not_of(" \t\r");
            if (b != std::string::npos) {
                const std::string body = comment.substr(b, e - b + 1);
                if (body == "mopac: hot-path") {
                    sf.hot_path_lines.push_back(line);
                } else if (body == "mopac: stateless") {
                    sf.stateless_lines.insert(line);
                }
            }
            i = end;
        } else if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
            std::size_t end = in.find("*/", i + 2);
            if (end == std::string::npos) {
                end = in.size();
            } else {
                end += 2;
            }
            const int first_line = line;
            for (std::size_t j = i; j < end; ++j) {
                if (in[j] == '\n') {
                    copyNewline(j);
                }
            }
            parseAllowList(in.substr(i, end - i), first_line, sf);
            i = end;
        } else if (c == '"' || c == '\'') {
            // Skip the literal (handles escapes; raw strings are
            // handled well enough for lint purposes by the escape
            // rule since the repo does not use them).  Double-quoted
            // contents are harvested for literal-pattern checks
            // (config-key); they still never enter the token stream.
            const char quote = c;
            StrLit lit;
            lit.line = line;
            lit.off = i;
            ++i;
            while (i < in.size()) {
                if (in[i] == '\\' && i + 1 < in.size()) {
                    if (in[i + 1] == '\n') {
                        copyNewline(i + 1);
                    } else {
                        lit.text += in[i];
                        lit.text += in[i + 1];
                    }
                    i += 2;
                } else if (in[i] == quote) {
                    ++i;
                    break;
                } else if (in[i] == '\n') {
                    // Unterminated literal; bail to keep lines sane.
                    break;
                } else {
                    lit.text += in[i];
                    ++i;
                }
            }
            if (quote == '"') {
                sf.strings.push_back(std::move(lit));
            }
        } else {
            out[i] = c;
            ++i;
        }
    }
    sf.scrubbed = std::move(out);
}

bool
isIdentChar(char c)
{
    return std::isalnum((unsigned char)c) || c == '_';
}

/**
 * Quoted `#include "path"` directives, from the raw text (scrub
 * blanks string literals, so this runs on the original).  Angle
 * includes are system headers -- never project files -- and are
 * deliberately ignored.
 */
void
harvestIncludes(SourceFile &sf)
{
    const std::string &in = sf.raw;
    std::size_t pos = 0;
    while (pos < in.size()) {
        std::size_t eol = in.find('\n', pos);
        if (eol == std::string::npos) {
            eol = in.size();
        }
        std::size_t p = pos;
        while (p < eol && (in[p] == ' ' || in[p] == '\t')) {
            ++p;
        }
        if (p < eol && in[p] == '#') {
            ++p;
            while (p < eol && (in[p] == ' ' || in[p] == '\t')) {
                ++p;
            }
            if (in.compare(p, 7, "include") == 0) {
                const std::size_t q1 = in.find('"', p + 7);
                if (q1 != std::string::npos && q1 < eol) {
                    const std::size_t q2 = in.find('"', q1 + 1);
                    if (q2 != std::string::npos && q2 < eol) {
                        sf.includes.push_back(
                            in.substr(q1 + 1, q2 - q1 - 1));
                    }
                }
            }
        }
        pos = eol + 1;
    }
}

void
tokenize(SourceFile &sf)
{
    const std::string &s = sf.scrubbed;
    int line = 1;
    std::size_t i = 0;
    while (i < s.size()) {
        const char c = s[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (std::isspace((unsigned char)c)) {
            ++i;
        } else if (std::isalpha((unsigned char)c) || c == '_') {
            std::size_t j = i + 1;
            while (j < s.size() && isIdentChar(s[j])) {
                ++j;
            }
            sf.tokens.push_back(
                {Token::kIdent, s.substr(i, j - i), line, i});
            i = j;
        } else if (std::isdigit((unsigned char)c)) {
            std::size_t j = i + 1;
            while (j < s.size() &&
                   (isIdentChar(s[j]) || s[j] == '.' || s[j] == '\'' ||
                    ((s[j] == '+' || s[j] == '-') &&
                     (s[j - 1] == 'e' || s[j - 1] == 'E' ||
                      s[j - 1] == 'p' || s[j - 1] == 'P')))) {
                ++j;
            }
            sf.tokens.push_back(
                {Token::kNumber, s.substr(i, j - i), line, i});
            i = j;
        } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
            sf.tokens.push_back({Token::kPunct, "::", line, i});
            i += 2;
        } else if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
            sf.tokens.push_back({Token::kPunct, "->", line, i});
            i += 2;
        } else {
            sf.tokens.push_back({Token::kPunct, std::string(1, c), line, i});
            ++i;
        }
    }
    // Anchor each harvested string literal at the first token after
    // it (both sequences are offset-ordered, so one merge pass).
    std::size_t ti = 0;
    for (StrLit &lit : sf.strings) {
        while (ti < sf.tokens.size() && sf.tokens[ti].off < lit.off) {
            ++ti;
        }
        lit.tok_after = ti;
    }
}

// ------------------------------------------------------------------
// Token helpers
// ------------------------------------------------------------------

using Tokens = std::vector<Token>;

bool
is(const Tokens &t, std::size_t i, const char *text)
{
    return i < t.size() && t[i].text == text;
}

/** Index of the matcher for an opener at @p i ("(", "{", "<", "["). */
std::size_t
matchForward(const Tokens &t, std::size_t i, const char *open,
             const char *close)
{
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
        if (t[j].text == open) {
            ++depth;
        } else if (t[j].text == close) {
            if (--depth == 0) {
                return j;
            }
        } else if (*open == '<' &&
                   (t[j].text == ";" || t[j].text == "{")) {
            return t.size(); // not a template argument list after all
        }
    }
    return t.size();
}

// ------------------------------------------------------------------
// Findings sink with suppression
// ------------------------------------------------------------------

struct Linter
{
    std::vector<Finding> findings;

    void
    report(const SourceFile &sf, int line, const std::string &check,
           const std::string &message)
    {
        if (sf.context_only || sf.file_allows.count(check)) {
            return;
        }
        for (int probe : {line, line - 1}) {
            auto it = sf.line_allows.find(probe);
            if (it != sf.line_allows.end() && it->second.count(check)) {
                return;
            }
        }
        findings.push_back({sf.rel_path, line, check, message});
    }
};

// ------------------------------------------------------------------
// Determinism checks
// ------------------------------------------------------------------

bool
calleePosition(const Tokens &t, std::size_t i)
{
    // A call site `name(`: exclude member access `x.name(` /
    // `x->name(`, qualified members `Foo::name(` with a non-std
    // scope, and declarations `double name(` (previous token is an
    // identifier other than `return`/`co_return`).
    if (!is(t, i + 1, "(")) {
        return false;
    }
    if (i == 0) {
        return true;
    }
    const Token &prev = t[i - 1];
    if (prev.text == "." || prev.text == "->") {
        return false;
    }
    if (prev.text == "::") {
        return i >= 2 && t[i - 2].text == "std";
    }
    if (prev.kind == Token::kIdent) {
        return prev.text == "return" || prev.text == "co_return";
    }
    return true;
}

void
checkBannedCalls(const SourceFile &sf, Linter &lint)
{
    static const std::set<std::string> kRand = {
        "rand", "srand", "random", "srandom", "rand_r",
        "drand48", "lrand48", "mrand48",
    };
    static const std::set<std::string> kTime = {
        "time", "gettimeofday", "clock_gettime", "clock",
        "localtime", "localtime_r", "gmtime", "gmtime_r",
        "ctime", "timespec_get",
    };
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent) {
            continue;
        }
        if (kRand.count(t[i].text) && calleePosition(t, i)) {
            lint.report(sf, t[i].line, "det-rand",
                        "'" + t[i].text +
                            "' is banned: draw from a seeded "
                            "mopac::Rng stream instead");
        } else if (kTime.count(t[i].text) && calleePosition(t, i)) {
            lint.report(sf, t[i].line, "det-time",
                        "'" + t[i].text +
                            "' is banned: simulation state must "
                            "depend only on the cycle counter");
        }
    }
}

void
checkClockNow(const SourceFile &sf, Linter &lint)
{
    // The shim itself is the one sanctioned user of *_clock::now().
    const std::string &p = sf.rel_path;
    if (p.size() >= 19 &&
        p.compare(p.size() - 19, 19, "common/wallclock.hh") == 0) {
        return;
    }
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind == Token::kIdent &&
            t[i].text.size() > 6 &&
            t[i].text.compare(t[i].text.size() - 6, 6, "_clock") == 0 &&
            is(t, i + 1, "::") && is(t, i + 2, "now")) {
            lint.report(sf, t[i].line, "det-clock",
                        "'" + t[i].text +
                            "::now' outside common/wallclock.hh: use "
                            "the wallclock shim (reporting/watchdogs "
                            "only, never simulation state)");
        }
    }
}

void
checkStdRandomEngines(const SourceFile &sf, Linter &lint)
{
    static const std::set<std::string> kEngines = {
        "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
        "default_random_engine", "ranlux24", "ranlux48", "knuth_b",
    };
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent) {
            continue;
        }
        if (t[i].text == "random_device") {
            lint.report(sf, t[i].line, "det-rng",
                        "std::random_device is nondeterministic by "
                        "contract; seed a mopac::Rng stream instead");
            continue;
        }
        if (!kEngines.count(t[i].text)) {
            continue;
        }
        // Find the declarator / constructor arguments: skip an
        // optional variable name, then look for (args) or {args}.
        std::size_t j = i + 1;
        if (j < t.size() && t[j].kind == Token::kIdent) {
            ++j;
        }
        bool seeded = false;
        if (is(t, j, "(") || is(t, j, "{")) {
            const char *open = t[j].text == "(" ? "(" : "{";
            const char *close = t[j].text == "(" ? ")" : "}";
            const std::size_t end = matchForward(t, j, open, close);
            seeded = end != t.size() && end > j + 1;
        }
        if (!seeded) {
            lint.report(sf, t[i].line, "det-rng",
                        "'" + t[i].text +
                            "' without an explicit seed is "
                            "nondeterministic across implementations; "
                            "use mopac::Rng or pass a named seed");
        }
    }
}

void
checkPointerKeys(const SourceFile &sf, Linter &lint)
{
    static const std::set<std::string> kOrdered = {
        "map", "set", "multimap", "multiset",
    };
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent || !kOrdered.count(t[i].text) ||
            !is(t, i + 1, "<")) {
            continue;
        }
        // `std::map` or unqualified in a `using namespace std` TU;
        // skip project types like `BitMap<...>` via exact-name match
        // (already guaranteed) and member access.
        if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) {
            continue;
        }
        const std::size_t close = matchForward(t, i + 1, "<", ">");
        if (close == t.size()) {
            continue;
        }
        // First top-level template argument.
        int depth = 0;
        std::size_t arg_end = close;
        for (std::size_t j = i + 2; j < close; ++j) {
            if (t[j].text == "<" || t[j].text == "(") {
                ++depth;
            } else if (t[j].text == ">" || t[j].text == ")") {
                --depth;
            } else if (t[j].text == "," && depth == 0) {
                arg_end = j;
                break;
            }
        }
        if (arg_end > i + 2 && t[arg_end - 1].text == "*") {
            lint.report(sf, t[i].line, "det-ptr-key",
                        "std::" + t[i].text +
                            " keyed on a pointer iterates in address "
                            "order (varies run to run); key on a "
                            "stable id instead");
        }
    }
}

// ------------------------------------------------------------------
// Function-body oriented checks (det-unordered)
// ------------------------------------------------------------------

struct BodySpan
{
    std::string name;
    std::size_t open;  //!< Index of "{".
    std::size_t close; //!< Index of matching "}".
};

bool
isStateOrStatsFunction(const std::string &name)
{
    if (name == "transfer" || name == "saveState" ||
        name == "loadState") {
        return true;
    }
    if (name.find("Stats") != std::string::npos ||
        name.find("stats") != std::string::npos) {
        return true;
    }
    for (const char *prefix : {"emit", "print", "dump", "report"}) {
        if (name.rfind(prefix, 0) == 0) {
            return true;
        }
    }
    return false;
}

/** Bodies of functions whose unqualified name passes @p pred. */
std::vector<BodySpan>
functionBodies(const Tokens &t, bool (*pred)(const std::string &))
{
    std::vector<BodySpan> out;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent || !pred(t[i].text) ||
            !is(t, i + 1, "(")) {
            continue;
        }
        const std::size_t args_end = matchForward(t, i + 1, "(", ")");
        if (args_end == t.size()) {
            continue;
        }
        // Skip qualifiers (const, noexcept, override, ...) up to the
        // body '{'; a ';' or '=' first means declaration, not a
        // definition.
        std::size_t j = args_end + 1;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";" &&
               t[j].text != "=" && t[j].text != ":") {
            ++j;
        }
        if (j >= t.size() || t[j].text != "{") {
            continue;
        }
        const std::size_t close = matchForward(t, j, "{", "}");
        if (close == t.size()) {
            continue;
        }
        out.push_back({t[i].text, j, close});
    }
    return out;
}

/** Names declared with an unordered_{map,set,...} type in @p t. */
std::set<std::string>
unorderedNames(const Tokens &t)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent ||
            t[i].text.rfind("unordered_", 0) != 0) {
            continue;
        }
        std::size_t j = i + 1;
        if (is(t, j, "<")) {
            j = matchForward(t, j, "<", ">");
            if (j == t.size()) {
                continue;
            }
            ++j;
        }
        while (j < t.size() &&
               (t[j].text == "const" || t[j].text == "&" ||
                t[j].text == "*")) {
            ++j;
        }
        // Only a name that *directly* follows the closing '>' is the
        // declared variable; `vector<unordered_map<..>> v` binds v to
        // the vector (ordered), not to the unordered type.
        if (j < t.size() && t[j].kind == Token::kIdent) {
            names.insert(t[j].text);
        }
    }
    return names;
}

void
checkUnorderedIteration(const SourceFile &sf,
                        const std::set<std::string> &unordered,
                        Linter &lint)
{
    if (unordered.empty()) {
        return;
    }
    const Tokens &t = sf.tokens;
    for (const BodySpan &body :
         functionBodies(t, &isStateOrStatsFunction)) {
        for (std::size_t i = body.open; i < body.close; ++i) {
            if (t[i].kind != Token::kIdent || t[i].text != "for" ||
                !is(t, i + 1, "(")) {
                continue;
            }
            const std::size_t close = matchForward(t, i + 1, "(", ")");
            if (close == t.size()) {
                continue;
            }
            // Range-for: a top-level ':' inside the parens.
            int depth = 0;
            std::size_t colon = close;
            for (std::size_t j = i + 2; j < close; ++j) {
                if (t[j].text == "(" || t[j].text == "<" ||
                    t[j].text == "[") {
                    ++depth;
                } else if (t[j].text == ")" || t[j].text == ">" ||
                           t[j].text == "]") {
                    --depth;
                } else if (t[j].text == ":" && depth == 0) {
                    colon = j;
                    break;
                }
            }
            for (std::size_t j = colon + 1; j < close; ++j) {
                if (t[j].kind == Token::kIdent &&
                    unordered.count(t[j].text)) {
                    lint.report(
                        sf, t[j].line, "det-unordered",
                        "iterating unordered container '" + t[j].text +
                            "' inside " + body.name +
                            "(): bucket order is not deterministic; "
                            "copy to a vector and sort first");
                    break;
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// io-errno
// ------------------------------------------------------------------

/**
 * Like calleePosition, but global-scope `::write(` -- exactly the raw
 * syscall spelling -- also counts, while qualified `Foo::write(` and
 * member `x.write(` do not.
 */
bool
rawCalleePosition(const Tokens &t, std::size_t i)
{
    if (!is(t, i + 1, "(")) {
        return false;
    }
    if (i == 0) {
        return true;
    }
    const Token &prev = t[i - 1];
    if (prev.text == "." || prev.text == "->") {
        return false;
    }
    if (prev.text == "::") {
        // `::write(` is global scope unless an identifier qualifies
        // it (`Foo::write(`); a keyword like `return ::write(` does
        // not.
        if (i < 2) {
            return true;
        }
        const Token &scope = t[i - 2];
        return scope.kind != Token::kIdent ||
               scope.text == "return" || scope.text == "co_return";
    }
    if (prev.kind == Token::kIdent) {
        return prev.text == "return" || prev.text == "co_return";
    }
    return true;
}

/**
 * Raw errno reads and fire-and-forget durable writes, tree-wide.
 * Failure handling goes through structured errors (atomicWriteFile,
 * the one file that owns raw errno, says so with an allow-file);
 * hand-rolled errno checks drift and an unchecked write()/fsync()
 * silently drops data exactly when the disk is full -- the moment the
 * crash-safety story is being relied on.
 */
void
checkIoErrno(const SourceFile &sf, Linter &lint)
{
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent) {
            continue;
        }
        if (t[i].text == "errno") {
            if (i > 0 &&
                (t[i - 1].text == "." || t[i - 1].text == "->")) {
                continue; // a member named errno, not the macro
            }
            lint.report(sf, t[i].line, "io-errno",
                        "raw errno read: surface failures as "
                        "structured errors (SerializeError) or go "
                        "through atomicWriteFile");
            continue;
        }
        if (t[i].text != "write" && t[i].text != "fsync") {
            continue;
        }
        if (!rawCalleePosition(t, i)) {
            continue;
        }
        // Statement position == discarded result: the previous
        // significant token (skipping a global-scope `::`) opens or
        // ends a statement.  `rc = write(...)`, `if (fsync(...))`,
        // and `(void)write(...)` all pass.
        std::size_t p = i;
        if (p > 0 && t[p - 1].text == "::") {
            --p;
        }
        const bool discarded = p == 0 || t[p - 1].text == ";" ||
                               t[p - 1].text == "{" ||
                               t[p - 1].text == "}";
        if (!discarded) {
            continue;
        }
        lint.report(sf, t[i].line, "io-errno",
                    "unchecked '" + t[i].text +
                        "': a failed durable write must not be "
                        "dropped silently; check the result or use "
                        "atomicWriteFile");
    }
}

// ------------------------------------------------------------------
// rng-seed
// ------------------------------------------------------------------

void
checkRngSeeds(const SourceFile &sf, Linter &lint)
{
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent) {
            continue;
        }
        const bool ctor = t[i].text == "Rng";
        const bool split =
            t[i].text == "forStream" || t[i].text == "streamSeed";
        if (!ctor && !split) {
            continue;
        }
        // Argument list: `Rng(...)`, `Rng{...}`, or a declaration
        // `Rng name(...)` / `Rng name{...}`; the split functions are
        // always plain calls.
        std::size_t open = i + 1;
        if (ctor && open < t.size() && t[open].kind == Token::kIdent) {
            ++open;
        }
        const char *oc = is(t, open, "(")   ? "("
                         : (ctor && is(t, open, "{")) ? "{"
                                                      : nullptr;
        if (!oc) {
            continue;
        }
        const char *cc = *oc == '(' ? ")" : "}";
        const std::size_t close = matchForward(t, open, oc, cc);
        if (close == t.size() || close == open + 1) {
            continue; // unmatched or zero arguments
        }
        // First top-level argument (the seed / master seed).
        int depth = 0;
        std::size_t arg_end = close;
        for (std::size_t j = open + 1; j < close; ++j) {
            if (t[j].text == "(" || t[j].text == "[" ||
                t[j].text == "{") {
                ++depth;
            } else if (t[j].text == ")" || t[j].text == "]" ||
                       t[j].text == "}") {
                --depth;
            } else if (t[j].text == "," && depth == 0) {
                arg_end = j;
                break;
            }
        }
        bool has_name = false;
        bool has_literal = false;
        for (std::size_t j = open + 1; j < arg_end; ++j) {
            if (t[j].kind == Token::kIdent) {
                has_name = true;
            } else if (t[j].kind == Token::kNumber) {
                has_literal = true;
            }
        }
        if (has_literal && !has_name) {
            lint.report(sf, t[i].line, "rng-seed",
                        "'" + t[i].text +
                            "' seeded with a bare literal: derive the "
                            "seed from a named constant or "
                            "Rng::streamSeed(master, stream) so the "
                            "stream is traceable");
        }
    }
}

// ------------------------------------------------------------------
// guard
// ------------------------------------------------------------------

std::string
expectedGuard(const std::string &rel_path)
{
    std::string p = rel_path;
    if (p.rfind("src/", 0) == 0) {
        p = p.substr(4);
    }
    std::string guard = "MOPAC_";
    for (char c : p) {
        if (std::isalnum((unsigned char)c)) {
            guard += (char)std::toupper((unsigned char)c);
        } else {
            guard += '_';
        }
    }
    // "..._HH" ending comes from the extension; normalize .h/.hpp too.
    if (guard.size() >= 4 && guard.compare(guard.size() - 4, 4, "_HPP") == 0) {
        guard.replace(guard.size() - 4, 4, "_HH");
    } else if (guard.size() >= 2 &&
               guard.compare(guard.size() - 2, 2, "_H") == 0 &&
               (guard.size() < 3 || guard[guard.size() - 3] != 'H')) {
        guard += 'H';
    }
    return guard;
}

void
checkIncludeGuard(const SourceFile &sf, Linter &lint)
{
    const fs::path ext = fs::path(sf.rel_path).extension();
    if (ext != ".hh" && ext != ".h" && ext != ".hpp") {
        return;
    }
    const std::string want = expectedGuard(sf.rel_path);
    std::istringstream ss(sf.scrubbed);
    std::string line_text;
    int line_no = 0;
    std::optional<int> pragma_line;
    std::optional<std::pair<int, std::string>> ifndef;
    std::optional<std::string> define_after;
    bool expect_define = false;
    while (std::getline(ss, line_text)) {
        ++line_no;
        std::istringstream ls(line_text);
        std::string a, b;
        ls >> a >> b;
        if (expect_define) {
            expect_define = false;
            if (a == "#define") {
                define_after = b;
            } else if (a == "#" && b == "define") {
                ls >> define_after.emplace();
            }
        }
        if (a == "#pragma" && b == "once") {
            pragma_line = line_no;
        } else if (!ifndef && a == "#ifndef") {
            ifndef = {line_no, b};
            expect_define = true;
        }
    }
    if (pragma_line) {
        lint.report(sf, *pragma_line, "guard",
                    "#pragma once: this repo uses named include "
                    "guards (" + want + ")");
        return;
    }
    if (!ifndef) {
        lint.report(sf, 1, "guard",
                    "missing include guard " + want);
        return;
    }
    if (ifndef->second != want) {
        lint.report(sf, ifndef->first, "guard",
                    "include guard '" + ifndef->second +
                        "' should be '" + want + "'");
        return;
    }
    if (!define_after || *define_after != want) {
        lint.report(sf, ifndef->first, "guard",
                    "#ifndef " + want +
                        " must be followed by #define " + want);
    }
}

// ------------------------------------------------------------------
// serial-drift
// ------------------------------------------------------------------

/**
 * One data member of a class, carrying enough of its declared type
 * to resolve into the class index (serial-reach walks member types).
 */
struct Member
{
    std::string name;
    int line = 0;
    /** Raw-pointer declarator: non-owning wiring, outside the graph. */
    bool is_ptr = false;
    /**
     * Identifiers appearing in the declared type, template arguments
     * included -- e.g. {"std","vector","std","unique_ptr","Bank"}.
     */
    std::vector<std::string> type_idents;
};

struct ClassInfo
{
    std::string name;
    int line = 0;
    bool has_save = false;
    bool has_load = false;
    bool has_transfer = false;
    std::optional<BodySpan> inline_save;
    std::optional<BodySpan> inline_load;
    std::optional<BodySpan> inline_transfer;
    std::vector<Member> members;

    /** Takes part in snapshots: a transfer body or a virtual pair. */
    bool snapshots() const { return has_transfer || has_save; }
};

/**
 * Extract classes (with their serializable-member lists and any
 * inline transfer/saveState/loadState bodies) from a token stream.  This is a
 * heuristic parser tuned to this repo's style: members end in '_',
 * reference and leading-const members are exempt, nested types are
 * recursed into independently.
 */
void
collectClasses(const Tokens &t, std::size_t begin, std::size_t end,
               std::vector<ClassInfo> &out)
{
    for (std::size_t i = begin; i < end; ++i) {
        if (t[i].kind != Token::kIdent ||
            (t[i].text != "class" && t[i].text != "struct")) {
            continue;
        }
        if (i > 0 && (t[i - 1].text == "enum" ||
                      t[i - 1].text == "friend" ||
                      t[i - 1].text == "<" || t[i - 1].text == ",")) {
            continue; // enum class / friend decl / template param
        }
        if (i + 1 >= end || t[i + 1].kind != Token::kIdent) {
            continue;
        }
        ClassInfo cls;
        cls.name = t[i + 1].text;
        cls.line = t[i].line;
        // Find the body '{' (skipping "final" and a base clause); a
        // ';' first means forward declaration.
        std::size_t j = i + 2;
        while (j < end && t[j].text != "{" && t[j].text != ";") {
            ++j;
        }
        if (j >= end || t[j].text != "{") {
            continue;
        }
        const std::size_t body_open = j;
        const std::size_t body_close = matchForward(t, j, "{", "}");
        if (body_close == t.size()) {
            continue;
        }

        // Walk the class body at depth 1, splitting statements.
        std::vector<std::size_t> stmt; // token indices
        std::size_t k = body_open + 1;
        auto flushMember = [&]() {
            if (stmt.empty()) {
                return;
            }
            // Strip access specifiers ("public :" etc.).
            std::size_t s = 0;
            while (s + 1 < stmt.size() &&
                   (t[stmt[s]].text == "public" ||
                    t[stmt[s]].text == "private" ||
                    t[stmt[s]].text == "protected") &&
                   t[stmt[s + 1]].text == ":") {
                s += 2;
            }
            if (s >= stmt.size()) {
                stmt.clear();
                return;
            }
            const std::string &first = t[stmt[s]].text;
            static const std::set<std::string> kSkipLead = {
                "static", "using", "typedef", "friend", "template",
                "const",  "class", "struct", "enum",   "union",
                "constexpr", "explicit", "virtual", "operator",
            };
            bool has_paren = false, has_ref = false;
            std::size_t name_at = stmt.size();
            for (std::size_t n = s; n < stmt.size(); ++n) {
                const Token &tok = t[stmt[n]];
                if (tok.text == "(") {
                    has_paren = true;
                }
                if (tok.text == "&" || tok.text == "&&") {
                    has_ref = true;
                }
                if (tok.text == "=" || tok.text == "{" ||
                    tok.text == "[") {
                    break;
                }
                if (tok.kind == Token::kIdent) {
                    name_at = n;
                }
            }
            if (!kSkipLead.count(first) && !has_paren && !has_ref &&
                name_at != stmt.size()) {
                const std::string &name = t[stmt[name_at]].text;
                if (name.size() > 1 && name.back() == '_') {
                    Member m;
                    m.name = name;
                    m.line = t[stmt[name_at]].line;
                    for (std::size_t n = s; n < name_at; ++n) {
                        const Token &ty = t[stmt[n]];
                        if (ty.kind == Token::kIdent) {
                            m.type_idents.push_back(ty.text);
                        } else if (ty.text == "*") {
                            m.is_ptr = true;
                        }
                    }
                    cls.members.push_back(std::move(m));
                }
            }
            stmt.clear();
        };
        while (k < body_close) {
            const Token &tok = t[k];
            if (tok.text == ";") {
                flushMember();
                ++k;
                continue;
            }
            if (tok.text == "{") {
                // Function body, nested type, or member initializer.
                bool paren_seen = false;
                std::string fn_name;
                bool nested_type = false;
                for (std::size_t n = 0; n < stmt.size(); ++n) {
                    const Token &st = t[stmt[n]];
                    if (st.text == "(" && !paren_seen) {
                        paren_seen = true;
                        if (n > 0 &&
                            t[stmt[n - 1]].kind == Token::kIdent) {
                            fn_name = t[stmt[n - 1]].text;
                        }
                    }
                    if ((st.text == "class" || st.text == "struct" ||
                         st.text == "enum" || st.text == "union") &&
                        n == 0) {
                        nested_type = true;
                    }
                }
                const std::size_t close = matchForward(t, k, "{", "}");
                if (close == t.size()) {
                    break;
                }
                if (nested_type) {
                    collectClasses(t, stmt.front(), close + 1, out);
                    stmt.clear();
                    k = close + 1;
                    continue;
                }
                if (paren_seen) {
                    if (fn_name == "saveState") {
                        cls.has_save = true;
                        cls.inline_save = BodySpan{fn_name, k, close};
                    } else if (fn_name == "loadState") {
                        cls.has_load = true;
                        cls.inline_load = BodySpan{fn_name, k, close};
                    } else if (fn_name == "transfer") {
                        cls.has_transfer = true;
                        cls.inline_transfer = BodySpan{fn_name, k, close};
                    }
                    stmt.clear();
                    k = close + 1;
                    continue;
                }
                // Brace initializer: absorb it into the statement.
                stmt.push_back(k);
                k = close + 1;
                continue;
            }
            if (tok.kind == Token::kIdent && is(t, k + 1, "(")) {
                cls.has_save = cls.has_save || tok.text == "saveState";
                cls.has_load = cls.has_load || tok.text == "loadState";
                cls.has_transfer =
                    cls.has_transfer || tok.text == "transfer";
            }
            stmt.push_back(k);
            ++k;
        }
        flushMember();
        out.push_back(std::move(cls));
        // Continue scanning after this class to find siblings; the
        // recursion above already handled nested types.
        i = body_close;
    }
}

/** Out-of-line body `Class::method(...) {...}` in @p t, if present. */
std::optional<BodySpan>
findOutOfLineBody(const Tokens &t, const std::string &cls,
                  const std::string &method)
{
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (t[i].kind == Token::kIdent && t[i].text == cls &&
            is(t, i + 1, "::") && t[i + 2].kind == Token::kIdent &&
            t[i + 2].text == method && is(t, i + 3, "(")) {
            const std::size_t args_end = matchForward(t, i + 3, "(", ")");
            if (args_end == t.size()) {
                continue;
            }
            std::size_t j = args_end + 1;
            while (j < t.size() && t[j].text != "{" &&
                   t[j].text != ";") {
                ++j;
            }
            if (j >= t.size() || t[j].text != "{") {
                continue;
            }
            const std::size_t close = matchForward(t, j, "{", "}");
            if (close == t.size()) {
                continue;
            }
            return BodySpan{method, j, close};
        }
    }
    return std::nullopt;
}

bool
spanMentions(const Tokens &t, const BodySpan &span,
             const std::string &name)
{
    for (std::size_t i = span.open; i <= span.close; ++i) {
        if (t[i].kind == Token::kIdent && t[i].text == name) {
            return true;
        }
    }
    return false;
}

/** Body of @p method in @p cls: inline, in the header, or in @p impl. */
std::optional<std::pair<const Tokens *, BodySpan>>
findClassBody(const ClassInfo &cls, const std::string &method,
              const std::optional<BodySpan> &inline_body,
              const SourceFile &header, const SourceFile *impl)
{
    if (inline_body) {
        return std::make_pair(&header.tokens, *inline_body);
    }
    if (auto b = findOutOfLineBody(header.tokens, cls.name, method)) {
        return std::make_pair(&header.tokens, *b);
    }
    if (impl) {
        if (auto b = findOutOfLineBody(impl->tokens, cls.name, method)) {
            return std::make_pair(&impl->tokens, *b);
        }
    }
    return std::nullopt;
}

void
checkSerializationDrift(const SourceFile &header,
                        const SourceFile *impl, Linter &lint)
{
    std::vector<ClassInfo> classes;
    collectClasses(header.tokens, 0, header.tokens.size(), classes);
    for (const ClassInfo &cls : classes) {
        if (cls.members.empty()) {
            continue;
        }
        if (!cls.has_transfer) {
            // Two hand-kept halves: report the class once.
            if (findClassBody(cls, "saveState", cls.inline_save, header,
                              impl) &&
                findClassBody(cls, "loadState", cls.inline_load, header,
                              impl)) {
                lint.report(header, cls.line, "serial-drift",
                            "class " + cls.name +
                                " describes its snapshot in separate "
                                "saveState and loadState bodies: write "
                                "one transfer body both run, so the "
                                "two halves cannot drift");
            }
            continue;
        }
        const auto body = findClassBody(cls, "transfer",
                                        cls.inline_transfer, header, impl);
        if (!body) {
            continue; // defined in a separate TU; skip
        }
        for (const Member &m : cls.members) {
            if (spanMentions(*body->first, body->second, m.name)) {
                continue;
            }
            lint.report(header, m.line, "serial-drift",
                        "member '" + m.name + "' of " + cls.name +
                            " is never mentioned in its transfer "
                            "body: snapshot/restore will silently drop "
                            "or skew it");
        }
    }
}

// ------------------------------------------------------------------
// next-event
// ------------------------------------------------------------------

/**
 * A tick source (a class with a `tick(Cycle ...)` method) must also
 * expose its next interesting cycle -- nextWakeAt(), nextSelfEventAt()
 * or nextEventAt() -- or the skip-to-next-event engine has to assume
 * it needs every cycle, degenerating to the legacy tick loop.  The
 * scan is declaration-level (headers): a class body containing the
 * token sequence `tick ( Cycle` with none of the accessor names
 * anywhere in the body is reported at the tick declaration.
 */
void
checkNextEvent(const SourceFile &sf, Linter &lint)
{
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != Token::kIdent ||
            (t[i].text != "class" && t[i].text != "struct")) {
            continue;
        }
        if (i > 0 && (t[i - 1].text == "enum" ||
                      t[i - 1].text == "friend" ||
                      t[i - 1].text == "<" || t[i - 1].text == ",")) {
            continue; // enum class / friend decl / template param
        }
        if (t[i + 1].kind != Token::kIdent) {
            continue;
        }
        const std::string &name = t[i + 1].text;
        std::size_t j = i + 2;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";") {
            ++j;
        }
        if (j >= t.size() || t[j].text != "{") {
            continue; // forward declaration
        }
        const std::size_t close = matchForward(t, j, "{", "}");
        if (close == t.size()) {
            continue;
        }
        int tick_line = 0;
        bool has_next = false;
        for (std::size_t k = j + 1; k < close; ++k) {
            if (t[k].kind != Token::kIdent) {
                continue;
            }
            if (tick_line == 0 && t[k].text == "tick" &&
                is(t, k + 1, "(") && k + 2 < close &&
                t[k + 2].kind == Token::kIdent &&
                t[k + 2].text == "Cycle") {
                tick_line = t[k].line;
            }
            if (t[k].text == "nextWakeAt" ||
                t[k].text == "nextSelfEventAt" ||
                t[k].text == "nextEventAt") {
                has_next = true;
            }
        }
        if (tick_line != 0 && !has_next) {
            lint.report(sf, tick_line, "next-event",
                        "class " + name +
                            " declares tick(Cycle ...) but no "
                            "next-event accessor (nextWakeAt / "
                            "nextSelfEventAt / nextEventAt): the "
                            "event engine cannot skip idle cycles "
                            "past an opaque tick source");
        }
        // Do not jump over the body: nested classes are scanned as
        // their own spans when the loop reaches their keyword.
    }
}

// ------------------------------------------------------------------
// Function index (hot-alloc and the whole-program pass)
// ------------------------------------------------------------------

/** A piece of in-body evidence (an allocation). */
struct Evidence
{
    int line = 0;
    std::string what;
};

/** A call site inside a function body: unqualified callee name. */
struct CallSite
{
    std::string name;
    int line = 0;
    /** Member-call shape (`x.name(` / `p->name(`). */
    bool member = false;
};

/**
 * One function definition (free function, inline method, or
 * out-of-line `Class::method`).  Pass 1 extracts these per file; the
 * whole-program pass stitches them into a call graph by unqualified
 * name.
 */
struct FunctionDef
{
    std::string cls;  //!< Qualifying class for `Class::method`, else "".
    std::string name;
    int line = 0;               //!< Line of the name token.
    std::size_t open_paren = 0; //!< Token index of the parameter "(".
    std::size_t body_open = 0;  //!< Token index of the body "{".
    std::size_t body_close = 0; //!< Token index of the matching "}".
    bool hot = false;           //!< `// mopac: hot-path` annotated.
    std::vector<CallSite> calls;
    std::vector<Evidence> allocs;
};

const std::set<std::string> kAllocCalls = {
    "new",         "malloc",      "calloc",    "realloc",
    "strdup",      "make_unique", "make_shared", "to_string",
};
const std::set<std::string> kAllocMethods = {
    "push_back",     "emplace_back", "push_front",
    "emplace_front", "emplace",      "insert",
    "resize",        "reserve",      "assign",
    "append",
};
const std::set<std::string> kContainers = {
    "vector",        "deque",        "list",
    "forward_list",  "map",          "multimap",
    "unordered_map", "unordered_multimap",
    "set",           "multiset",     "unordered_set",
    "unordered_multiset",            "priority_queue",
    "string",        "basic_string", "ostringstream",
    "stringstream",  "function",
};

/**
 * Heap-allocation evidence inside a token span.  Three shapes:
 *
 *   - keyword/free-function allocators (`new`, malloc family,
 *     make_unique/make_shared, to_string);
 *   - growing-container method calls (`.push_back(`, `->resize(`,
 *     ...) -- the method-call shape keeps same-named free functions
 *     and members out of scope;
 *   - a std:: container named in the span with no trailing `&`/`*`
 *     (a local or temporary; references and pointers to containers
 *     are free).
 */
void
scanAllocEvidence(const Tokens &t, std::size_t open, std::size_t close,
                  std::vector<Evidence> &out)
{
    for (std::size_t k = open + 1; k < close; ++k) {
        if (t[k].kind != Token::kIdent) {
            continue;
        }
        const std::string &w = t[k].text;
        std::string what;
        if (kAllocCalls.count(w)) {
            what = "'" + w + "'";
        } else if (kAllocMethods.count(w) && k > 0 &&
                   (t[k - 1].text == "." || t[k - 1].text == "->") &&
                   is(t, k + 1, "(")) {
            what = "." + w + "()";
        } else if (kContainers.count(w) && k >= 2 &&
                   t[k - 1].text == "::" && t[k - 2].text == "std") {
            std::size_t after = k + 1;
            if (is(t, after, "<")) {
                const std::size_t gt = matchForward(t, after, "<", ">");
                if (gt == t.size()) {
                    continue;
                }
                after = gt + 1;
            }
            if (is(t, after, "&") || is(t, after, "*") ||
                is(t, after, "::")) {
                continue; // reference/pointer/nested name: free
            }
            what = "a std::" + w + " local";
        }
        if (!what.empty()) {
            out.push_back({t[k].line, what});
        }
    }
}

/** Names that look like calls but never are (or never resolve). */
const std::set<std::string> kNotCallable = {
    "if",     "for",      "while",   "switch",       "catch",
    "return", "co_return", "sizeof", "alignof",      "decltype",
    "static_assert",       "throw",  "new",          "delete",
    "assert", "defined",   "case",   "goto",         "else",
    "do",     "using",     "typedef", "operator",    "alignas",
    "noexcept",            "requires",
};

/** Call sites inside a body span: any `name(` that could resolve. */
void
scanCalls(const Tokens &t, std::size_t open, std::size_t close,
          std::vector<CallSite> &out)
{
    for (std::size_t k = open + 1; k < close; ++k) {
        if (t[k].kind == Token::kIdent && is(t, k + 1, "(") &&
            !kNotCallable.count(t[k].text)) {
            const bool member =
                k > 0 &&
                (t[k - 1].text == "." || t[k - 1].text == "->");
            out.push_back({t[k].text, t[k].line, member});
        }
    }
}

/**
 * Container/iterator protocol names that, in member-call position,
 * are overwhelmingly std:: entry points (`v.begin()`, `s.size()`).
 * Resolving them into same-named project functions would wire
 * every loop over a vector to e.g. Serializer::begin, so they never
 * become call-graph edges.  (The allocating subset still surfaces as
 * alloc *evidence* via scanAllocEvidence; a project method sharing
 * one of these names is invisible to reachability -- a documented
 * heuristic trade.)
 */
const std::set<std::string> kStdMemberCalls = {
    "begin",  "end",    "rbegin", "rend",   "cbegin",
    "cend",   "size",   "empty",  "clear",  "front",
    "back",   "data",   "at",     "find",   "count",
    "contains",         "erase",  "swap",   "c_str",
    "str",    "substr", "length", "capacity",
    "pop_back",         "pop_front",        "top",
    "pop",    "push",   "reset",  "release", "get",
    "value",  "has_value",        "emplace", "insert",
    "push_back",        "emplace_back",     "reserve",
    "resize", "assign", "append", "fill",
};

/**
 * Extract every function definition from a token stream.  The shape
 * is `name ( args ) [qualifiers] {`: qualifiers may be const /
 * noexcept(...) / override / final / ref-qualifiers / a trailing
 * return type.  A `;`, `=`, or `,` first means declaration, default,
 * or call-in-expression; a `:` first means a constructor with an
 * init list, which is deliberately not indexed (construction is cold
 * by definition, and member-brace-inits defeat token-level body
 * matching).  Local structs' methods index as their own defs; the
 * enclosing span double-counts their tokens, which at worst adds a
 * conservative call edge.
 */
std::vector<FunctionDef>
findFunctionDefs(const SourceFile &sf)
{
    static const std::set<std::string> kQualTokens = {
        "const", "noexcept", "override", "final", "mutable",
        "&",     "&&",       "->",       "::",    "<",
        ">",     "(",        ")",        "[",     "]",
        "*",     ",",
    };
    const Tokens &t = sf.tokens;
    std::vector<FunctionDef> defs;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent || !is(t, i + 1, "(") ||
            kNotCallable.count(t[i].text)) {
            continue;
        }
        if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) {
            continue; // member call, never a definition
        }
        const std::size_t args_end = matchForward(t, i + 1, "(", ")");
        if (args_end == t.size()) {
            continue;
        }
        std::size_t j = args_end + 1;
        while (j < t.size() && t[j].text != "{" && t[j].text != ";" &&
               t[j].text != "=" && t[j].text != ":" &&
               (t[j].kind == Token::kIdent ||
                kQualTokens.count(t[j].text))) {
            ++j;
        }
        if (j >= t.size() || t[j].text != "{") {
            continue;
        }
        const std::size_t close = matchForward(t, j, "{", "}");
        if (close == t.size()) {
            continue;
        }
        FunctionDef def;
        def.name = t[i].text;
        def.line = t[i].line;
        def.open_paren = i + 1;
        def.body_open = j;
        def.body_close = close;
        if (i >= 2 && t[i - 1].text == "::" &&
            t[i - 2].kind == Token::kIdent) {
            def.cls = t[i - 2].text;
        }
        scanCalls(t, j, close, def.calls);
        scanAllocEvidence(t, j, close, def.allocs);
        defs.push_back(std::move(def));
    }
    // Attach the hot-path annotations: each anchors a forward scan to
    // the next parameter list (matching the historical hot-alloc
    // anchoring); an annotation on a declaration matches no
    // definition here and is carried by the definition instead.
    for (const int ann_line : sf.hot_path_lines) {
        std::size_t p = 0;
        while (p < t.size() && t[p].line <= ann_line) {
            ++p;
        }
        while (p < t.size() && t[p].text != "(" && t[p].text != ";" &&
               t[p].text != "}") {
            ++p;
        }
        if (p >= t.size() || t[p].text != "(") {
            continue;
        }
        for (FunctionDef &def : defs) {
            if (def.open_paren == p) {
                def.hot = true;
                break;
            }
        }
    }
    return defs;
}

// ------------------------------------------------------------------
// hot-alloc
// ------------------------------------------------------------------

/**
 * Allocation evidence inside the body of a `// mopac: hot-path`
 * function.  Token-level and local: the transitive closure over
 * helpers is hot-reach's job in the whole-program pass.
 */
void
checkHotPathAlloc(const SourceFile &sf,
                  const std::vector<FunctionDef> &defs, Linter &lint)
{
    for (const FunctionDef &def : defs) {
        if (!def.hot) {
            continue;
        }
        for (const Evidence &ev : def.allocs) {
            lint.report(sf, ev.line, "hot-alloc",
                        ev.what + " in hot-path function '" + def.name +
                            "': functions marked `// mopac: "
                            "hot-path` must not allocate; "
                            "preallocate at construction");
        }
    }
}

// ------------------------------------------------------------------
// Whole-program pass: hot-reach, serial-reach, config-key
// ------------------------------------------------------------------

/** Results of the parallel per-file phase, one per loaded file. */
struct FileAnalysis
{
    std::vector<FunctionDef> defs;
    std::vector<ClassInfo> classes;
    Linter lint;
};

/** (file index, def-or-class index): a node id in either graph. */
using NodeRef = std::pair<std::size_t, std::size_t>;

/** First path component of a root-relative path ("src", "tests"). */
std::string
topDir(const std::string &rel)
{
    const std::size_t slash = rel.find('/');
    return slash == std::string::npos ? std::string()
                                      : rel.substr(0, slash);
}

/** Whether @p line (or the line above) carries allow(@p check). */
bool
lineAllowed(const SourceFile &sf, int line, const char *check)
{
    if (sf.file_allows.count(check)) {
        return true;
    }
    for (int probe : {line, line - 1}) {
        const auto it = sf.line_allows.find(probe);
        if (it != sf.line_allows.end() && it->second.count(check)) {
            return true;
        }
    }
    return false;
}

/**
 * The tree-wide index pass 2 walks.  Names resolve by unqualified
 * identifier, but only within the caller's *include scope*: the
 * transitive closure of its quoted #includes, plus the paired
 * .hh/.cc of every file in that closure (out-of-line method bodies
 * live in the .cc nobody includes).  That keeps fixture graphs
 * self-contained, stops a `fetch()` in one subsystem from resolving
 * into a same-named function of an unrelated one, and makes std::/
 * libc names (defined nowhere in the tree) resolve to nothing.
 * Still deliberately over-approximate within a scope -- same-named
 * methods of two included classes both become edges -- which errs on
 * the side of reporting.  A top-level-directory fence (src never
 * resolves into tests) is kept on top as a second guard.
 *
 * Functions declared [[noreturn]] anywhere in the tree are sinks:
 * the hot-path rule is about steady-state cycles, and a panic path
 * that allocates while dying is not a finding, so closure edges stop
 * there.
 */
struct TreeIndex
{
    const std::vector<SourceFile> &files;
    const std::vector<FileAnalysis> &analyses;
    std::map<std::string, std::vector<NodeRef>> defs_by_name;
    std::map<std::string, std::vector<NodeRef>> classes_by_name;
    /** Per file: the set of file indices its names may resolve into. */
    std::vector<std::set<std::size_t>> scope;
    /** Unqualified names declared [[noreturn]] somewhere. */
    std::set<std::string> noreturn_names;
};

/** Names declared [[noreturn]] in @p sf (attribute then `name (`). */
void
collectNoreturn(const SourceFile &sf, std::set<std::string> &out)
{
    const Tokens &t = sf.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != Token::kIdent || t[i].text != "noreturn") {
            continue;
        }
        const std::size_t lim = std::min(t.size(), i + 12);
        for (std::size_t j = i + 1; j < lim; ++j) {
            if (t[j].kind == Token::kIdent && is(t, j + 1, "(")) {
                out.insert(t[j].text);
                break;
            }
        }
    }
}

TreeIndex
buildIndex(const std::vector<SourceFile> &files,
           const std::vector<FileAnalysis> &analyses)
{
    TreeIndex ix{files, analyses, {}, {}, {}, {}};
    std::map<std::string, std::size_t> by_rel;
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const FileAnalysis &fa = analyses[fi];
        for (std::size_t di = 0; di < fa.defs.size(); ++di) {
            ix.defs_by_name[fa.defs[di].name].push_back({fi, di});
        }
        for (std::size_t ci = 0; ci < fa.classes.size(); ++ci) {
            ix.classes_by_name[fa.classes[ci].name].push_back(
                {fi, ci});
        }
        collectNoreturn(files[fi], ix.noreturn_names);
        by_rel.emplace(files[fi].rel_path, fi);
    }

    // Include graph: a quoted include resolves to any loaded file
    // whose root-relative path equals it or ends with "/" + it (the
    // repo compiles with src/ on the include path).
    auto resolveInclude =
        [&](const std::string &inc) -> std::vector<std::size_t> {
        std::vector<std::size_t> hits;
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            const std::string &rel = files[fi].rel_path;
            if (rel == inc ||
                (rel.size() > inc.size() + 1 &&
                 rel.compare(rel.size() - inc.size() - 1, 1, "/") ==
                     0 &&
                 rel.compare(rel.size() - inc.size(), inc.size(),
                             inc) == 0)) {
                hits.push_back(fi);
            }
        }
        return hits;
    };
    auto pairedOf = [&](std::size_t fi) -> std::optional<std::size_t> {
        fs::path rel(files[fi].rel_path);
        const auto ext = rel.extension();
        rel.replace_extension(
            ext == ".cc" || ext == ".cpp" ? ".hh" : ".cc");
        const auto it = by_rel.find(rel.generic_string());
        if (it == by_rel.end()) {
            return std::nullopt;
        }
        return it->second;
    };
    std::vector<std::vector<std::size_t>> direct(files.size());
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        for (const std::string &inc : files[fi].includes) {
            for (std::size_t hit : resolveInclude(inc)) {
                direct[fi].push_back(hit);
            }
        }
    }
    ix.scope.resize(files.size());
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        std::set<std::size_t> &scope = ix.scope[fi];
        std::vector<std::size_t> stack{fi};
        scope.insert(fi);
        while (!stack.empty()) {
            const std::size_t at = stack.back();
            stack.pop_back();
            for (std::size_t next : direct[at]) {
                if (scope.insert(next).second) {
                    stack.push_back(next);
                }
            }
        }
        // Out-of-line bodies: the paired .cc/.hh of everything in
        // the closure is resolvable too (but not *its* includes --
        // those only open up once the walk reaches a def in it and
        // resolves through that file's own scope).
        std::vector<std::size_t> base(scope.begin(), scope.end());
        for (std::size_t at : base) {
            if (const auto pair = pairedOf(at)) {
                scope.insert(*pair);
            }
        }
    }
    return ix;
}

/**
 * Breadth-first closure over the call graph from @p seeds, recording
 * one discovery parent per node for diagnostics.  Deterministic:
 * seeds arrive in (file, def) order, call sites expand in token
 * order, and candidates in index order, so the discovery order is a
 * pure function of the sources.
 */
std::vector<NodeRef>
callClosure(const TreeIndex &ix, const std::vector<NodeRef> &seeds,
            std::map<NodeRef, NodeRef> &parent)
{
    std::set<NodeRef> visited(seeds.begin(), seeds.end());
    std::vector<NodeRef> order(seeds);
    for (std::size_t head = 0; head < order.size(); ++head) {
        const NodeRef at = order[head];
        const FunctionDef &def =
            ix.analyses[at.first].defs[at.second];
        const std::string dir = topDir(ix.files[at.first].rel_path);
        const std::set<std::size_t> &scope = ix.scope[at.first];
        for (const CallSite &call : def.calls) {
            if (ix.noreturn_names.count(call.name) ||
                (call.member && kStdMemberCalls.count(call.name))) {
                continue; // death paths / std protocol names: sinks
            }
            const auto it = ix.defs_by_name.find(call.name);
            if (it == ix.defs_by_name.end()) {
                continue;
            }
            for (const NodeRef &cand : it->second) {
                if (!scope.count(cand.first) ||
                    topDir(ix.files[cand.first].rel_path) != dir ||
                    !visited.insert(cand).second) {
                    continue;
                }
                parent.emplace(cand, at);
                order.push_back(cand);
            }
        }
    }
    return order;
}

/** "root -> ... -> name" discovery chain for a closure node. */
std::string
chainOf(const TreeIndex &ix,
        const std::map<NodeRef, NodeRef> &parent, NodeRef at)
{
    std::string chain = ix.analyses[at.first].defs[at.second].name;
    auto it = parent.find(at);
    while (it != parent.end()) {
        at = it->second;
        chain = ix.analyses[at.first].defs[at.second].name + " -> " +
                chain;
        it = parent.find(at);
    }
    return chain;
}

/**
 * hot-reach: the no-allocation rule propagates through calls.  Every
 * function reachable from a `// mopac: hot-path` definition must be
 * allocation-free; the annotated body itself is hot-alloc's job, so
 * only the transitive part is reported here.
 */
void
checkHotReach(const TreeIndex &ix, Linter &lint)
{
    std::vector<NodeRef> seeds;
    for (std::size_t fi = 0; fi < ix.files.size(); ++fi) {
        const auto &defs = ix.analyses[fi].defs;
        for (std::size_t di = 0; di < defs.size(); ++di) {
            if (defs[di].hot) {
                seeds.push_back({fi, di});
            }
        }
    }
    std::map<NodeRef, NodeRef> parent;
    for (const NodeRef &at : callClosure(ix, seeds, parent)) {
        const FunctionDef &def =
            ix.analyses[at.first].defs[at.second];
        if (def.hot) {
            continue;
        }
        const SourceFile &sf = ix.files[at.first];
        for (const Evidence &ev : def.allocs) {
            lint.report(sf, ev.line, "hot-reach",
                        ev.what + " in '" + def.name +
                            "', which is reachable from a hot path (" +
                            chainOf(ix, parent, at) +
                            "): the no-allocation rule propagates "
                            "through calls; preallocate at "
                            "construction or keep this helper off "
                            "the hot path");
        }
    }
}

/** The body of out-of-line `cls::method` in component @p dir. */
const FunctionDef *
findMethodDef(const TreeIndex &ix, const std::string &cls,
              const std::string &method, const std::string &dir,
              std::size_t &file_out)
{
    const auto it = ix.defs_by_name.find(method);
    if (it == ix.defs_by_name.end()) {
        return nullptr;
    }
    for (const NodeRef &cand : it->second) {
        const FunctionDef &def =
            ix.analyses[cand.first].defs[cand.second];
        if (def.cls == cls &&
            topDir(ix.files[cand.first].rel_path) == dir) {
            file_out = cand.first;
            return &def;
        }
    }
    return nullptr;
}

/** A call that runs a member's own snapshot body. */
bool
isTransferCall(const Token &tok)
{
    return tok.kind == Token::kIdent &&
           (tok.text == "transfer" || tok.text == "transferVirtual");
}

/**
 * Delegation: a mention of @p member in the arguments of a transfer
 * call earlier in the same statement (`T::transfer(self.m_, ar)`,
 * `transferVirtual(*self.m_[s], ar)`), or followed by one within a
 * few tokens -- the range-for idiom
 * `for (auto &x : self.m_) { T::transfer(x, ar); }`.
 */
bool
delegates(const Tokens &t, std::size_t open, std::size_t close,
          const std::string &member)
{
    for (std::size_t i = open + 1; i < close; ++i) {
        if (t[i].kind != Token::kIdent || t[i].text != member) {
            continue;
        }
        for (std::size_t j = i; j > open; --j) {
            const std::string &text = t[j - 1].text;
            if (text == ";" || text == "{" || text == "}") {
                break;
            }
            if (isTransferCall(t[j - 1])) {
                return true;
            }
        }
        const std::size_t lim = std::min(close, i + 16);
        for (std::size_t j = i + 1; j < lim; ++j) {
            if (isTransferCall(t[j])) {
                return true;
            }
        }
    }
    return false;
}

/**
 * serial-reach: two state-graph audits.  (1) A member whose own type
 * snapshots must be *delegated* to in the owner's transfer body --
 * mentioning the name (which satisfies serial-drift) is not enough.
 * (2) Every class reachable from System's member-type graph either
 * snapshots or carries a `// mopac: stateless` annotation directly
 * above its declaration.  Raw-pointer members (non-owning wiring) and
 * members carrying a serial-drift/serial-reach allow are outside the
 * graph.
 */
void
checkSerialReach(const TreeIndex &ix, Linter &lint)
{
    auto memberOutsideGraph = [&](const SourceFile &sf,
                                  const Member &m) {
        return m.is_ptr || lineAllowed(sf, m.line, "serial-drift") ||
               lineAllowed(sf, m.line, "serial-reach");
    };
    // (1) Delegation audit, for every class with a transfer body.
    for (std::size_t fi = 0; fi < ix.files.size(); ++fi) {
        const SourceFile &sf = ix.files[fi];
        const std::string dir = topDir(sf.rel_path);
        for (const ClassInfo &cls : ix.analyses[fi].classes) {
            if (!cls.has_transfer) {
                continue;
            }
            // An unlocated body (a TU not in the index) is treated as
            // delegating: absence of evidence is not evidence of drift.
            const Tokens *bt = nullptr;
            std::size_t bo = 0, bc = 0;
            if (cls.inline_transfer) {
                bt = &sf.tokens;
                bo = cls.inline_transfer->open;
                bc = cls.inline_transfer->close;
            } else {
                std::size_t df = 0;
                if (const FunctionDef *d = findMethodDef(
                        ix, cls.name, "transfer", dir, df)) {
                    bt = &ix.files[df].tokens;
                    bo = d->body_open;
                    bc = d->body_close;
                }
            }
            if (bt == nullptr) {
                continue;
            }
            for (const Member &m : cls.members) {
                if (memberOutsideGraph(sf, m)) {
                    continue;
                }
                bool snapshotting_type = false;
                for (const std::string &ti : m.type_idents) {
                    const auto it = ix.classes_by_name.find(ti);
                    if (it == ix.classes_by_name.end()) {
                        continue;
                    }
                    for (const NodeRef &cand : it->second) {
                        const ClassInfo &mc =
                            ix.analyses[cand.first]
                                .classes[cand.second];
                        if (mc.snapshots() &&
                            ix.scope[fi].count(cand.first) &&
                            topDir(ix.files[cand.first].rel_path) ==
                                dir) {
                            snapshotting_type = true;
                        }
                    }
                }
                if (!snapshotting_type || delegates(*bt, bo, bc, m.name)) {
                    continue;
                }
                lint.report(
                    sf, m.line, "serial-reach",
                    "member '" + m.name + "' of " + cls.name +
                        " has a type that snapshots but is never "
                        "delegated to in transfer: mentioning the name "
                        "is not enough; call the member's transfer "
                        "(directly or in a loop)");
            }
        }
    }

    // (2) Closure: everything in System's member-type graph either
    // snapshots or says it has nothing to snapshot.
    const auto sys = ix.classes_by_name.find("System");
    if (sys == ix.classes_by_name.end()) {
        return;
    }
    std::set<NodeRef> visited(sys->second.begin(),
                              sys->second.end());
    std::vector<NodeRef> order(sys->second.begin(),
                               sys->second.end());
    std::map<NodeRef, NodeRef> parent;
    for (std::size_t head = 0; head < order.size(); ++head) {
        const NodeRef at = order[head];
        const SourceFile &sf = ix.files[at.first];
        const ClassInfo &cls =
            ix.analyses[at.first].classes[at.second];
        const std::string dir = topDir(sf.rel_path);
        for (const Member &m : cls.members) {
            if (memberOutsideGraph(sf, m)) {
                continue;
            }
            for (const std::string &ti : m.type_idents) {
                const auto it = ix.classes_by_name.find(ti);
                if (it == ix.classes_by_name.end()) {
                    continue;
                }
                for (const NodeRef &cand : it->second) {
                    if (!ix.scope[at.first].count(cand.first) ||
                        topDir(ix.files[cand.first].rel_path) !=
                            dir ||
                        !visited.insert(cand).second) {
                        continue;
                    }
                    parent.emplace(cand, at);
                    order.push_back(cand);
                }
            }
        }
    }
    for (const NodeRef &at : order) {
        const ClassInfo &cls =
            ix.analyses[at.first].classes[at.second];
        const SourceFile &sf = ix.files[at.first];
        if (cls.snapshots() || sf.stateless_lines.count(cls.line - 1) ||
            sf.stateless_lines.count(cls.line)) {
            continue;
        }
        std::string chain = cls.name;
        NodeRef p = at;
        auto pit = parent.find(p);
        while (pit != parent.end()) {
            p = pit->second;
            chain = ix.analyses[p.first].classes[p.second].name +
                    " -> " + chain;
            pit = parent.find(p);
        }
        lint.report(sf, cls.line, "serial-reach",
                    "class " + cls.name +
                        " is reachable from System's state graph (" +
                        chain +
                        ") but defines no transfer body and is not "
                        "marked `// mopac: stateless`: snapshot it "
                        "or annotate why it holds no state");
    }
}

/**
 * config-key: backtick-quoted keys in CONFIG_KEYS.md at the repo
 * root.  A missing registry disables the check (pre-registry trees
 * and unit fixtures run elsewhere stay quiet).
 */
std::optional<std::set<std::string>>
loadKeyRegistry(const fs::path &root)
{
    std::ifstream in(root / "CONFIG_KEYS.md");
    if (!in) {
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::set<std::string> keys;
    std::size_t i = 0;
    while (true) {
        const std::size_t a = text.find('`', i);
        if (a == std::string::npos) {
            break;
        }
        const std::size_t b = text.find('`', a + 1);
        if (b == std::string::npos) {
            break;
        }
        keys.insert(text.substr(a + 1, b - a - 1));
        i = b + 1;
    }
    return keys;
}

/** Where Config keys are read for real: src, tools, own fixtures. */
bool
configKeyScope(const std::string &rel)
{
    if (rel.rfind("src/", 0) == 0 || rel.rfind("tools/", 0) == 0) {
        return true;
    }
    const std::string name = fs::path(rel).filename().string();
    return name.find("config_key") != std::string::npos;
}

/**
 * config-key: every Config key read as a single string literal --
 * `cfg.getUint("seed", ...)`, `cfg.has("trace")` -- must appear in
 * the registry.  The member-call shape (receiver, getter name,
 * literal as sole/first argument) keeps same-named free functions
 * out; keys built at runtime never match and are skipped by
 * construction.
 */
void
checkConfigKeys(const TreeIndex &ix,
                const std::set<std::string> &registry, Linter &lint)
{
    static const std::set<std::string> kGetters = {
        "getString", "getInt", "getUint",
        "getDouble", "getBool", "has",
    };
    for (std::size_t fi = 0; fi < ix.files.size(); ++fi) {
        const SourceFile &sf = ix.files[fi];
        if (!configKeyScope(sf.rel_path)) {
            continue;
        }
        const Tokens &t = sf.tokens;
        for (const StrLit &lit : sf.strings) {
            const std::size_t a = lit.tok_after;
            if (a < 3 || a >= t.size()) {
                continue;
            }
            if (t[a].text != "," && t[a].text != ")") {
                continue;
            }
            if (t[a - 1].text != "(" ||
                t[a - 2].kind != Token::kIdent ||
                !kGetters.count(t[a - 2].text)) {
                continue;
            }
            if (t[a - 3].text != "." && t[a - 3].text != "->") {
                continue;
            }
            if (registry.count(lit.text)) {
                continue;
            }
            lint.report(sf, lit.line, "config-key",
                        "Config key \"" + lit.text +
                            "\" is read here but not documented in "
                            "CONFIG_KEYS.md: every key a run can "
                            "consume must appear backtick-quoted in "
                            "the registry");
        }
    }
}

// ------------------------------------------------------------------
// Driver
// ------------------------------------------------------------------

std::optional<SourceFile>
loadFile(const fs::path &abs, const fs::path &root)
{
    std::ifstream in(abs, std::ios::binary);
    if (!in) {
        return std::nullopt;
    }
    SourceFile sf;
    sf.abs_path = abs.string();
    std::error_code ec;
    fs::path rel = fs::relative(abs, root, ec);
    sf.rel_path = (ec || rel.empty() || *rel.begin() == "..")
                      ? abs.filename().string()
                      : rel.generic_string();
    std::ostringstream buf;
    buf << in.rdbuf();
    sf.raw = buf.str();
    harvestIncludes(sf);
    scrub(sf);
    tokenize(sf);
    return sf;
}

bool
lintableExtension(const fs::path &p)
{
    const auto ext = p.extension();
    return ext == ".hh" || ext == ".h" || ext == ".hpp" ||
           ext == ".cc" || ext == ".cpp";
}

bool
skippedDir(const std::string &name)
{
    return name == ".git" || name == "fixtures" ||
           name.rfind("build", 0) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Reporting-only wall time; never feeds any analysis result.
    const auto t0 = std::chrono::steady_clock::now(); // mopac-lint: allow(det-clock)

    fs::path root = fs::current_path();
    std::vector<fs::path> inputs;
    unsigned jobs = std::thread::hardware_concurrency();
    if (jobs == 0) {
        jobs = 1;
    }
    jobs = std::min(jobs, 16u);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = fs::absolute(argv[++i]);
        } else if (arg == "--jobs" && i + 1 < argc) {
            const int n = std::atoi(argv[++i]);
            jobs = n < 1 ? 1u : (unsigned)std::min(n, 64);
        } else if (arg == "--list-checks") {
            for (const char *c : kAllChecks) {
                std::puts(c);
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::puts("usage: mopac_lint [--root DIR] [--jobs N] "
                      "[--list-checks] PATH...");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "mopac_lint: unknown option %s\n",
                         arg.c_str());
            return 2;
        } else {
            inputs.push_back(fs::path(arg));
        }
    }
    if (inputs.empty()) {
        std::fprintf(stderr,
                     "mopac_lint: no paths given (try --help)\n");
        return 2;
    }

    std::vector<fs::path> files;
    for (const fs::path &in : inputs) {
        fs::path p = in.is_absolute() ? in : root / in;
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            fs::recursive_directory_iterator it(
                p, fs::directory_options::skip_permission_denied, ec);
            if (ec) {
                std::fprintf(stderr, "mopac_lint: cannot scan %s\n",
                             p.string().c_str());
                return 2;
            }
            for (auto end = fs::end(it); it != end;
                 it.increment(ec)) {
                if (ec) {
                    break;
                }
                if (it->is_directory() &&
                    skippedDir(it->path().filename().string())) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() &&
                    lintableExtension(it->path())) {
                    files.push_back(it->path());
                }
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            std::fprintf(stderr, "mopac_lint: no such path: %s\n",
                         p.string().c_str());
            return 2;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Cross-TU context: the paired header/impl of every requested
    // file joins the index (serial-drift, det-unordered, and the
    // whole-program pass see both halves) but is never reported on.
    std::set<std::string> requested;
    for (const fs::path &f : files) {
        requested.insert(f.string());
    }
    std::vector<fs::path> context;
    for (const fs::path &f : files) {
        fs::path pair = f;
        const auto ext = f.extension();
        pair.replace_extension(
            ext == ".cc" || ext == ".cpp" ? ".hh" : ".cc");
        std::error_code ec;
        if (!requested.count(pair.string()) &&
            fs::is_regular_file(pair, ec)) {
            context.push_back(pair);
        }
    }
    std::sort(context.begin(), context.end());
    context.erase(std::unique(context.begin(), context.end()),
                  context.end());
    std::vector<fs::path> all = files;
    all.insert(all.end(), context.begin(), context.end());

    auto runPool = [&](auto work) {
        std::vector<std::thread> pool;
        for (unsigned w = 1; w < jobs; ++w) {
            pool.emplace_back(work);
        }
        work();
        for (std::thread &th : pool) {
            th.join();
        }
    };

    // Phase A (parallel): load, scrub, tokenize.
    std::vector<SourceFile> sources(all.size());
    std::atomic<bool> load_failed{false};
    std::atomic<std::size_t> load_next{0};
    runPool([&]() {
        std::size_t i;
        while ((i = load_next.fetch_add(1)) < all.size()) {
            auto sf = loadFile(all[i], root);
            if (sf) {
                sf->context_only = i >= files.size();
                sources[i] = std::move(*sf);
            } else if (i < files.size()) {
                std::fprintf(stderr, "mopac_lint: cannot read %s\n",
                             all[i].string().c_str());
                load_failed = true;
            } else {
                sources[i].context_only = true; // vanished pair
            }
        }
    });
    if (load_failed) {
        return 2;
    }

    std::map<std::string, std::size_t> by_path;
    for (std::size_t i = 0; i < all.size(); ++i) {
        by_path.emplace(all[i].string(), i);
    }

    // Phase B (parallel): per-file checks plus index extraction.
    // Each file gets a private Linter; merging preserves nothing of
    // the schedule, so the output is byte-identical at any --jobs.
    std::vector<FileAnalysis> analyses(all.size());
    std::atomic<std::size_t> scan_next{0};
    runPool([&]() {
        std::size_t i;
        while ((i = scan_next.fetch_add(1)) < all.size()) {
            const SourceFile &sf = sources[i];
            FileAnalysis &fa = analyses[i];
            fa.defs = findFunctionDefs(sf);
            collectClasses(sf.tokens, 0, sf.tokens.size(),
                           fa.classes);
            if (sf.context_only) {
                continue; // indexed for pass 2, never reported on
            }
            Linter &lint = fa.lint;
            checkBannedCalls(sf, lint);
            checkClockNow(sf, lint);
            checkStdRandomEngines(sf, lint);
            checkPointerKeys(sf, lint);
            checkRngSeeds(sf, lint);
            checkIncludeGuard(sf, lint);
            checkIoErrno(sf, lint);
            checkHotPathAlloc(sf, fa.defs, lint);

            const auto ext = all[i].extension();
            if (ext == ".hh" || ext == ".h" || ext == ".hpp") {
                fs::path cc = all[i];
                cc.replace_extension(".cc");
                const auto it = by_path.find(cc.string());
                checkSerializationDrift(
                    sf,
                    it == by_path.end() ? nullptr
                                        : &sources[it->second],
                    lint);
                checkNextEvent(sf, lint);
            }
            // det-unordered sees names declared in the file plus,
            // for a .cc, names from its own header (members iterated
            // in out-of-line definitions).
            std::set<std::string> unordered =
                unorderedNames(sf.tokens);
            if (ext == ".cc" || ext == ".cpp") {
                fs::path hh = all[i];
                hh.replace_extension(".hh");
                const auto it = by_path.find(hh.string());
                if (it != by_path.end()) {
                    for (const std::string &n : unorderedNames(
                             sources[it->second].tokens)) {
                        unordered.insert(n);
                    }
                }
            }
            checkUnorderedIteration(sf, unordered, lint);
        }
    });

    // Pass 2 (serial): the cross-TU graph checks over the index.
    const TreeIndex ix = buildIndex(sources, analyses);
    Linter lint;
    for (const FileAnalysis &fa : analyses) {
        lint.findings.insert(lint.findings.end(),
                             fa.lint.findings.begin(),
                             fa.lint.findings.end());
    }
    checkHotReach(ix, lint);
    checkSerialReach(ix, lint);
    if (const auto registry = loadKeyRegistry(root)) {
        checkConfigKeys(ix, *registry, lint);
    }

    std::sort(lint.findings.begin(), lint.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.path, a.line, a.check,
                                  a.message) <
                         std::tie(b.path, b.line, b.check,
                                  b.message);
              });
    for (const Finding &f : lint.findings) {
        std::printf("%s:%d: %s: %s\n", f.path.c_str(), f.line,
                    f.check.c_str(), f.message.c_str());
    }
    const auto t1 = std::chrono::steady_clock::now(); // mopac-lint: allow(det-clock)
    const long long ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t1 -
                                                              t0)
            .count();
    std::fprintf(stderr,
                 "mopac-lint: %zu finding(s) in %zu file(s) in "
                 "%lld ms (%u jobs)\n",
                 lint.findings.size(), all.size(), ms, jobs);
    return lint.findings.empty() ? 0 : 1;
}
