#include "rules.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace tofmcl::lint {
namespace {

using Toks = std::vector<Token>;

bool is_ident(const Toks& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == s;
}
bool is_punct(const Toks& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Index of the punct matching the opener at `open` ('(' / '{' / '['),
/// or t.size() when unbalanced (malformed input degrades to "no match").
std::size_t match_forward(const Toks& t, std::size_t open, const char* o,
                          const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t, i, o)) ++depth;
    else if (is_punct(t, i, c) && --depth == 0) return i;
  }
  return t.size();
}

/// Index of the '(' matching the ')' at `close`, scanning backwards.
std::size_t match_backward(const Toks& t, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(t, i, ")")) ++depth;
    else if (is_punct(t, i, "(") && --depth == 0) return i;
  }
  return t.size();
}

// ---------------------------------------------------------------------------
// Brace-block structure: every { ... } span, classified by what owns the
// opening brace. Rules use this to answer "which function contains token i"
// without an AST.
// ---------------------------------------------------------------------------

struct Block {
  std::size_t open = 0;
  std::size_t close = 0;
  enum Kind { kFunction, kControl, kOther } kind = kOther;
  std::size_t name_tok = static_cast<std::size_t>(-1);  ///< kFunction only.
};

bool is_qualifier(const Toks& t, std::size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent &&
         (t[i].text == "const" || t[i].text == "noexcept" ||
          t[i].text == "override" || t[i].text == "final" ||
          t[i].text == "mutable");
}

std::vector<Block> block_map(const Toks& t) {
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_punct(t, i, "{")) continue;
    Block b;
    b.open = i;
    b.close = match_forward(t, i, "{", "}");
    // Classify by the token(s) before the brace.
    std::size_t j = i;
    while (j > 0 && is_qualifier(t, j - 1)) --j;
    if (j > 0 && is_punct(t, j - 1, ")")) {
      const std::size_t paren = match_backward(t, j - 1);
      std::size_t k = paren;
      if (paren < t.size() && k > 0) {
        --k;
        if (is_ident(t, k, "if") || is_ident(t, k, "for") ||
            is_ident(t, k, "while") || is_ident(t, k, "switch") ||
            is_ident(t, k, "catch")) {
          b.kind = Block::kControl;
        } else {
          b.kind = Block::kFunction;
          if (k < t.size() && t[k].kind == TokKind::kIdent) b.name_tok = k;
        }
      }
    } else if (j > 0 && (is_ident(t, j - 1, "else") || is_ident(t, j - 1, "do") ||
                         is_ident(t, j - 1, "try"))) {
      b.kind = Block::kControl;
    }
    blocks.push_back(b);
  }
  return blocks;
}

/// Outermost function-kind block containing token index `idx` (the whole
/// enclosing function body even when `idx` sits inside a nested lambda),
/// or nullptr.
const Block* enclosing_function(const std::vector<Block>& blocks,
                                std::size_t idx, bool outermost) {
  const Block* best = nullptr;
  for (const Block& b : blocks) {
    if (b.kind != Block::kFunction || b.open >= idx || b.close <= idx) continue;
    if (!best) { best = &b; continue; }
    const bool wider = b.open < best->open;
    if (wider == outermost) best = &b;
  }
  return best;
}

bool span_has_ident(const Toks& t, std::size_t lo, std::size_t hi,
                    const char* s) {
  for (std::size_t i = lo; i < hi && i < t.size(); ++i)
    if (is_ident(t, i, s)) return true;
  return false;
}

// ---------------------------------------------------------------------------
// determinism / banned-random
// ---------------------------------------------------------------------------

std::vector<Violation> check_banned_random(const FileCtx& ctx) {
  static const std::set<std::string> kBanned = {
      "rand", "srand", "rand_r", "drand48", "random_device", "random_shuffle"};
  std::vector<Violation> out;
  for (const Token& tok : ctx.lexed->tokens) {
    if (tok.kind != TokKind::kIdent || tok.pp) continue;
    if (kBanned.count(tok.text) == 0) continue;
    out.push_back({"banned-random", tok.line,
                   "'" + tok.text +
                       "' is unseeded/non-deterministic; draw from the "
                       "seeded tofmcl::Rng (src/common/rng.hpp) instead"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// determinism / wall-clock
// ---------------------------------------------------------------------------

std::vector<Violation> check_wall_clock(const FileCtx& ctx) {
  // Benchmarks and the GAP9 timing/power models exist to measure time.
  if (starts_with(ctx.path, "bench/") || starts_with(ctx.path, "src/platform/"))
    return {};
  static const std::set<std::string> kBanned = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime"};
  std::vector<Violation> out;
  for (const Token& tok : ctx.lexed->tokens) {
    if (tok.kind != TokKind::kIdent || tok.pp) continue;
    if (kBanned.count(tok.text) == 0) continue;
    out.push_back({"wall-clock", tok.line,
                   "'" + tok.text +
                       "' reads wall time outside the whitelisted timing "
                       "code (bench/, src/platform/); wall time feeding "
                       "simulation or filter state breaks replay "
                       "determinism — suppress only for pure latency "
                       "measurement"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// determinism / unordered-iteration
// ---------------------------------------------------------------------------

void collect_unordered_decls(const Toks& t, std::set<std::string>& names) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "unordered_map") && !is_ident(t, i, "unordered_set") &&
        !is_ident(t, i, "unordered_multimap") &&
        !is_ident(t, i, "unordered_multiset"))
      continue;
    std::size_t j = i + 1;
    if (is_punct(t, j, "<")) {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (is_punct(t, j, "<")) ++depth;
        else if (is_punct(t, j, ">") && --depth == 0) { ++j; break; }
      }
    }
    while (j < t.size() &&
           (is_ident(t, j, "const") || is_punct(t, j, "&") ||
            is_punct(t, j, "*")))
      ++j;
    if (j < t.size() && t[j].kind == TokKind::kIdent) names.insert(t[j].text);
  }
}

std::vector<Violation> check_unordered_iteration(const FileCtx& ctx) {
  // Only where float accumulation order is the output: the filter core,
  // the campaign engine and the serving layer (their serial/batched/
  // pooled traces must stay bit-identical).
  if (!starts_with(ctx.path, "src/core") && !starts_with(ctx.path, "src/eval") &&
      !starts_with(ctx.path, "src/serve"))
    return {};
  std::set<std::string> names;
  collect_unordered_decls(ctx.lexed->tokens, names);
  if (ctx.sibling) collect_unordered_decls(ctx.sibling->tokens, names);
  if (names.empty()) return {};

  std::vector<Violation> out;
  const Toks& t = ctx.lexed->tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i, "for") || !is_punct(t, i + 1, "(")) continue;
    const std::size_t close = match_forward(t, i + 1, "(", ")");
    if (close >= t.size()) continue;
    // Range-for: a lone ':' at parenthesis depth 1 ("::" lexes fused, so
    // a scope operator can never masquerade as the range colon).
    std::size_t colon = t.size();
    int depth = 0;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (is_punct(t, k, "(")) ++depth;
      else if (is_punct(t, k, ")")) --depth;
      else if (depth == 1 && is_punct(t, k, ":")) { colon = k; break; }
    }
    if (colon == t.size()) continue;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (t[k].kind == TokKind::kIdent && names.count(t[k].text)) {
        out.push_back(
            {"unordered-iteration", t[i].line,
             "range-for over unordered container '" + t[k].text +
                 "': iteration order is implementation-defined and float "
                 "accumulation order here is the output — use std::map/"
                 "std::vector or sort keys first"});
        break;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// determinism / trace-hexfloat
// ---------------------------------------------------------------------------

bool is_trace_env_literal(const Token& tok) {
  if (tok.kind != TokKind::kString) return false;
  const std::string& s = tok.text;
  if (!starts_with(s, "TOFMCL_") || !ends_with(s, "_TRACE")) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
  });
}

bool span_formats_hexfloat(const Toks& t, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi && i < t.size(); ++i) {
    if (is_ident(t, i, "hexfloat")) return true;
    if (t[i].kind == TokKind::kString &&
        (t[i].text.find("%a") != std::string::npos ||
         t[i].text.find("%A") != std::string::npos))
      return true;
  }
  return false;
}

std::vector<Violation> check_trace_hexfloat(const FileCtx& ctx) {
  const Toks& t = ctx.lexed->tokens;
  const std::vector<Block> blocks = block_map(t);
  std::set<std::size_t> flagged_opens;  // Dedup multiple hooks per function.
  std::vector<Violation> out;

  auto require_hexfloat = [&](const Block* region, int line,
                              const std::string& what) {
    if (!region || flagged_opens.count(region->open)) return;
    if (span_formats_hexfloat(t, region->open + 1, region->close)) return;
    flagged_opens.insert(region->open);
    out.push_back({"trace-hexfloat", line,
                   what +
                       " must format floats as hexfloats (std::hexfloat or "
                       "a \"%a\" printf format): decimal float round-trips "
                       "make cross-process trace diffs flaky"});
  };

  // (a) Functions containing a TOFMCL_*_TRACE emitter hook.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_trace_env_literal(t[i])) continue;
    require_hexfloat(enclosing_function(blocks, i, /*outermost=*/true),
                     t[i].line,
                     "function with TOFMCL_" + std::string("*_TRACE hook"));
  }
  // (b) Functions named by the *_trace emitter convention.
  for (const Block& b : blocks) {
    if (b.kind != Block::kFunction || b.name_tok >= t.size()) continue;
    const std::string& name = t[b.name_tok].text;
    if (!ends_with(name, "_trace")) continue;
    require_hexfloat(&b, t[b.name_tok].line,
                     "trace emitter '" + name + "'");
  }
  return out;
}

// ---------------------------------------------------------------------------
// concurrency / serial-guard
// ---------------------------------------------------------------------------

/// Public non-const methods of `cls` declared in the header token stream.
/// These are the externally-serialized mutating entry points; each must
/// construct a SerialGuard::Scope in its definition.
std::set<std::string> mutating_public_methods(const Toks& h,
                                              const std::string& cls) {
  std::set<std::string> out;
  for (std::size_t i = 0; i + 1 < h.size(); ++i) {
    if (!is_ident(h, i, "class") && !is_ident(h, i, "struct")) continue;
    if (!(h[i + 1].kind == TokKind::kIdent && h[i + 1].text == cls)) continue;
    std::size_t open = i + 2;
    while (open < h.size() && !is_punct(h, open, "{") && !is_punct(h, open, ";"))
      ++open;
    if (!is_punct(h, open, "{")) continue;  // Forward declaration.
    const std::size_t close = match_forward(h, open, "{", "}");
    bool in_public = is_ident(h, i, "struct");
    bool decl_static = false;
    for (std::size_t k = open + 1; k < close && k < h.size(); ++k) {
      if (is_punct(h, k, "{")) {  // Inline body / nested type: skip whole.
        k = match_forward(h, k, "{", "}");
        decl_static = false;
        continue;
      }
      if (is_punct(h, k, ";")) { decl_static = false; continue; }
      if ((is_ident(h, k, "public") || is_ident(h, k, "private") ||
           is_ident(h, k, "protected")) &&
          is_punct(h, k + 1, ":")) {
        in_public = is_ident(h, k, "public");
        ++k;
        continue;
      }
      if (is_ident(h, k, "static")) decl_static = true;
      if (h[k].kind == TokKind::kIdent && is_punct(h, k + 1, "(") &&
          in_public && !decl_static && h[k].text != cls &&
          h[k].text != "operator" && !is_punct(h, k - 1, "~")) {
        const std::size_t endp = match_forward(h, k + 1, "(", ")");
        if (endp >= h.size()) break;
        bool is_const = false;
        std::size_t q = endp + 1;
        while (q < h.size() && !is_punct(h, q, ";") && !is_punct(h, q, "{")) {
          if (is_ident(h, q, "const")) is_const = true;
          ++q;
        }
        if (!is_const) out.insert(h[k].text);
        k = endp;  // Parameter lists cannot declare more methods.
        continue;
      }
    }
    break;  // First definition of the class wins.
  }
  return out;
}

std::vector<Violation> check_serial_guard(const FileCtx& ctx) {
  if (basename_of(ctx.path) != "localizer.cpp" ||
      !starts_with(ctx.path, "src/core"))
    return {};
  if (!ctx.sibling) return {};  // No header, no contract to read.
  const std::set<std::string> entry_points =
      mutating_public_methods(ctx.sibling->tokens, "Localizer");
  const Toks& t = ctx.lexed->tokens;
  std::vector<Violation> out;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (!is_ident(t, i, "Localizer") || !is_punct(t, i + 1, "::")) continue;
    if (t[i + 2].kind != TokKind::kIdent || !is_punct(t, i + 3, "(")) continue;
    if (entry_points.count(t[i + 2].text) == 0) continue;
    const std::size_t endp = match_forward(t, i + 3, "(", ")");
    if (endp >= t.size()) continue;
    std::size_t open = endp + 1;
    while (open < t.size() && !is_punct(t, open, "{") &&
           !is_punct(t, open, ";"))
      ++open;
    if (!is_punct(t, open, "{")) continue;  // Declaration, not definition.
    const std::size_t close = match_forward(t, open, "{", "}");
    bool guarded = false;
    for (std::size_t k = open + 1; k + 2 < close; ++k) {
      if (is_ident(t, k, "SerialGuard") && is_punct(t, k + 1, "::") &&
          is_ident(t, k + 2, "Scope")) {
        guarded = true;
        break;
      }
    }
    if (!guarded) {
      out.push_back({"serial-guard", t[i].line,
                     "mutating Localizer entry point '" + t[i + 2].text +
                         "' does not construct a SerialGuard::Scope: the "
                         "single-threaded-by-contract invariant must stay "
                         "asserted (concurrent entry throws instead of "
                         "silently racing filter state)"});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// concurrency / detached-thread
// ---------------------------------------------------------------------------

std::vector<Violation> check_detached_thread(const FileCtx& ctx) {
  const Toks& t = ctx.lexed->tokens;
  std::vector<Violation> out;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if ((is_punct(t, i, ".") || is_punct(t, i, "->")) &&
        is_ident(t, i + 1, "detach") && is_punct(t, i + 2, "(")) {
      out.push_back({"detached-thread", t[i + 1].line,
                     ".detach() orphans the thread past test/process "
                     "teardown and races static destruction; fork-join "
                     "on common::ThreadPool or join explicitly"});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// concurrency / empty-catch
// ---------------------------------------------------------------------------

std::vector<Violation> check_empty_catch(const FileCtx& ctx) {
  const Toks& t = ctx.lexed->tokens;
  std::vector<Violation> out;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i, "catch") || !is_punct(t, i + 1, "(")) continue;
    const std::size_t endp = match_forward(t, i + 1, "(", ")");
    if (endp + 2 >= t.size()) continue;
    if (is_punct(t, endp + 1, "{") && is_punct(t, endp + 2, "}")) {
      out.push_back({"empty-catch", t[i].line,
                     "empty catch body swallows the exception silently "
                     "(comments do not count as handling); record, rethrow "
                     "or suppress with a justification"});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// concurrency / sleep-sync
// ---------------------------------------------------------------------------

std::vector<Violation> check_sleep_sync(const FileCtx& ctx) {
  if (!starts_with(ctx.path, "tests/")) return {};
  static const std::set<std::string> kBanned = {"sleep_for", "sleep_until",
                                                "usleep", "nanosleep"};
  std::vector<Violation> out;
  for (const Token& tok : ctx.lexed->tokens) {
    if (tok.kind != TokKind::kIdent || tok.pp) continue;
    if (kBanned.count(tok.text) == 0) continue;
    out.push_back({"sleep-sync", tok.line,
                   "'" + tok.text +
                       "' in a test is sleep-as-synchronization — the "
                       "canonical flaky test; wait on a condition "
                       "variable, future or thread join instead"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// map invariants / solid-interior
// ---------------------------------------------------------------------------

std::vector<Violation> check_solid_interior(const FileCtx& ctx) {
  const std::string base = basename_of(ctx.path);
  if (base == "worldgen.cpp" || base == "dynamic_obstacles.cpp") return {};
  const Toks& t = ctx.lexed->tokens;
  std::vector<Block> blocks;  // Built lazily on the first call site.
  std::vector<Violation> out;
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (!is_punct(t, i, ".") || !is_ident(t, i + 1, "world")) continue;
    if (!is_punct(t, i + 2, ".") || !is_ident(t, i + 3, "add_rectangle"))
      continue;
    if (!is_punct(t, i + 4, "(")) continue;
    if (blocks.empty()) blocks = block_map(t);
    const Block* fn = enclosing_function(blocks, i, /*outermost=*/false);
    const std::size_t lo = fn ? fn->open + 1 : 0;
    const std::size_t hi = fn ? fn->close : t.size();
    if (span_has_ident(t, lo, hi, "solid_regions")) continue;
    out.push_back(
        {"solid-interior", t[i + 3].line,
         "add_rectangle on an environment's world without referencing "
         "solid_regions in the same function: a large Occupied blob whose "
         "interior is not registered becomes a zero-EDT particle sink "
         "(every beam scores perfectly inside it) — push the box into "
         "solid_regions or keep the interior Unknown"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// serving invariants / context-immutable
// ---------------------------------------------------------------------------

std::vector<Violation> check_context_immutable(const FileCtx& ctx) {
  // The builder owns the only mutable window: the class definition and
  // the build_scoring_context factories live in scoring_context.{hpp,cpp}.
  const std::string base = basename_of(ctx.path);
  if (base == "scoring_context.hpp" || base == "scoring_context.cpp")
    return {};
  const Toks& t = ctx.lexed->tokens;
  std::vector<Violation> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "ScoringContext") || t[i].pp) continue;
    // A gtest suite name, TEST(ScoringContext, ...), names no type.
    if (i >= 2 && is_punct(t, i - 1, "(") && is_ident(t, i - 2, "TEST"))
      continue;
    // Walk back over namespace qualifiers (core::, tofmcl::core::, ...)
    // to the first token of the type name, then require a const there:
    // every way to reach the context outside its builder — reference,
    // pointer, shared_ptr element — must be const-qualified, or the
    // one-per-map sharing contract allows a session to mutate scoring
    // state under every other session on that map.
    std::size_t j = i;
    while (j >= 2 && is_punct(t, j - 1, "::") &&
           t[j - 2].kind == TokKind::kIdent && !is_ident(t, j - 2, "const"))
      j -= 2;
    if (j > 0 && is_ident(t, j - 1, "const")) continue;
    out.push_back(
        {"context-immutable", t[i].line,
         "non-const use of ScoringContext outside its builder "
         "(scoring_context.{hpp,cpp}): the context is shared by every "
         "session on the map, so all references, pointers and shared_ptr "
         "elements must be const-qualified — mutate a copy of the config "
         "before building instead"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// layering / raw-intrinsics
// ---------------------------------------------------------------------------

/// _mm_* / _mm256_* / _mm512_* calls and __m128/__m256d/__m512i types.
bool is_x86_intrinsic(const std::string& s) {
  if (starts_with(s, "_mm")) return true;
  return s.size() > 3 && starts_with(s, "__m") && s[3] >= '0' && s[3] <= '9';
}

std::vector<Violation> check_raw_intrinsics(const FileCtx& ctx) {
  // The kernel layer is the one place allowed to speak SIMD. The usage
  // matcher covers the x86 ISA the layer targets; the header list also
  // names the ARM ones, so a port to another ISA stays confined too.
  if (starts_with(ctx.path, "src/core/kernels/")) return {};
  static const std::set<std::string> kSimdHeaders = {
      "immintrin", "x86intrin", "xmmintrin", "emmintrin", "pmmintrin",
      "smmintrin", "tmmintrin", "nmmintrin", "wmmintrin", "ammintrin",
      "avxintrin", "avx2intrin", "arm_neon", "arm_sve", "arm_fp16"};
  std::vector<Violation> out;
  for (const Token& tok : ctx.lexed->tokens) {
    if (tok.kind != TokKind::kIdent) continue;
    const bool header = tok.pp && kSimdHeaders.count(tok.text) > 0;
    const bool usage = !tok.pp && is_x86_intrinsic(tok.text);
    if (!header && !usage) continue;
    out.push_back(
        {"raw-intrinsics", tok.line,
         "'" + tok.text +
             "' is raw SIMD outside src/core/kernels/: intrinsics live "
             "behind the runtime-dispatched kernels::observation_sweep so "
             "the scalar reference stays the single definition of the "
             "arithmetic — add a kernel entry point (kernel_backend.hpp) "
             "instead of vectorizing in place"});
  }
  return out;
}

}  // namespace

const std::vector<Rule>& rule_catalog() {
  static const std::vector<Rule> kRules = {
      {"banned-random",
       "unseeded RNG/entropy sources break replay determinism",
       &check_banned_random},
      {"wall-clock",
       "wall-clock reads outside whitelisted timing code",
       &check_wall_clock},
      {"unordered-iteration",
       "range-for over unordered containers where accumulation order "
       "matters",
       &check_unordered_iteration},
      {"trace-hexfloat",
       "trace emitters must write floats as hexfloats",
       &check_trace_hexfloat},
      {"serial-guard",
       "mutating Localizer entry points must construct SerialGuard::Scope",
       &check_serial_guard},
      {"detached-thread", "detached threads outlive teardown",
       &check_detached_thread},
      {"empty-catch", "empty catch bodies swallow exceptions",
       &check_empty_catch},
      {"sleep-sync", "sleep-as-synchronization in tests",
       &check_sleep_sync},
      {"solid-interior",
       "occupied-rect fills must register solid_regions",
       &check_solid_interior},
      {"context-immutable",
       "ScoringContext must stay const outside its builder",
       &check_context_immutable},
      {"raw-intrinsics",
       "SIMD intrinsics are confined to src/core/kernels/",
       &check_raw_intrinsics},
  };
  return kRules;
}

bool is_known_rule(const std::string& name) {
  for (const Rule& r : rule_catalog())
    if (r.name == name) return true;
  return false;
}

std::vector<Violation> run_rules(const FileCtx& ctx) {
  std::vector<Violation> out;
  for (const Rule& r : rule_catalog()) {
    std::vector<Violation> v = r.check(ctx);
    out.insert(out.end(), v.begin(), v.end());
  }
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

}  // namespace tofmcl::lint
